#!/usr/bin/env bash
# Source-invariant ratchet for the library crates: the number of
# `.unwrap(` / `.expect(` calls in the non-test code of each library
# crate (every workspace member with a src/lib.rs; binaries under
# src/bin are not library code) may never go up. CI runs this against
# the committed per-crate floors in tools/ratchet_baseline.txt; a PR
# that adds a panic path fails, a PR that removes one should tighten
# the floor with `--update`.
#
# "Non-test" means everything before the first `#[cfg(test)]` in each
# file — the workspace's idiom keeps test modules at the bottom.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE_FILE=tools/ratchet_baseline.txt

# One "<crate dir> <count>" line per library crate, in a stable order.
count_panics() {
    local dir total n f
    for dir in . crates/*; do
        [[ -f "$dir/src/lib.rs" ]] || continue
        total=0
        while IFS= read -r f; do
            n=$(awk '/#\[cfg\(test\)\]/ { exit } { print }' "$f" \
                | grep -o -E '\.(unwrap|expect)\(' | wc -l)
            total=$((total + n))
        done < <(find "$dir/src" -name '*.rs' -not -path "$dir/src/bin/*" | sort)
        echo "$dir $total"
    done
}

current=$(count_panics)

if [[ "${1:-}" == "--update" ]]; then
    echo "$current" > "$BASELINE_FILE"
    echo "ratchet floors set:"
    echo "$current"
    exit 0
fi

if [[ ! -f "$BASELINE_FILE" ]]; then
    echo "missing $BASELINE_FILE — run tools/ratchet.sh --update once" >&2
    exit 1
fi

status=0
tighten=0
while read -r dir count; do
    floor=$(awk -v d="$dir" '$1 == d { print $2 }' "$BASELINE_FILE")
    if [[ -z "$floor" ]]; then
        echo "RATCHET VIOLATION: $dir has no floor in $BASELINE_FILE — add it" \
            "with tools/ratchet.sh --update" >&2
        status=1
        continue
    fi
    echo "$dir: unwrap()/expect() in non-test code: $count (floor $floor)"
    if (( count > floor )); then
        echo "RATCHET VIOLATION: $((count - floor)) new panic path(s) in $dir/src —" \
            "return a typed error instead, or (only for a provably unreachable" \
            "case) justify and re-baseline with tools/ratchet.sh --update" >&2
        status=1
    elif (( count < floor )); then
        tighten=1
    fi
done <<< "$current"

if (( tighten )); then
    echo "ratchet can tighten: commit the new floors with tools/ratchet.sh --update"
fi
exit "$status"
