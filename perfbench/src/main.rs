//! End-to-end and per-layer benchmark of the served memcim stack.
//!
//! ```text
//! memcim-perfbench --workload bitmap_query|ap_scan|corr_stream
//!                  [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload is a closed loop over loopback TCP against a live
//! `NetServer`: 2 client threads, each with its own connection and
//! tenant, drive a 2-worker `Service` and check every answer against its
//! reference. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! runs the same request sequence in alternating untraced and traced
//! quarters, checks that a plain and a traced replay bill identical
//! modeled work, probes each layer one request at a time, and prints the
//! per-layer metrics. The last line of standard
//! output is the result object; the line before it records the seed, the
//! host and the sample counts. A wrong answer makes the run exit 1.
//! The seed defaults to 2018 and the loop to 30 s, the `run_seconds` of
//! `BENCHMARK.json`.

mod ap_scan;
mod bitmap;
mod corr;
mod harness;
mod probes;
mod report;
mod stats;
mod trace;
mod traced_backend;

use harness::{closed_loop, proc_mib, replay, setup, teardown, Phase, Replay, Workload, CLIENTS};
use report::{number, result_line, string, Metrics, END_TO_END, PER_LAYER};
use stats::highest_supported_percentile;
use std::time::Instant;

/// Default workload seed (the paper's year).
pub const DEFAULT_SEED: u64 = 2018;

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small inputs and few set-ups, for the self-tests.
    pub short: bool,
}

fn parse_args(argv: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        short: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 120.0) {
                    return Err("--seconds must lie in (0, 120]".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(opts)
}

/// What a run produced.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// The run's record: seed, host, sample counts, failures.
    pub detail: Vec<(&'static str, String)>,
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Set-ups per untraced run.
fn setups(opts: &Opts) -> usize {
    if opts.short {
        2
    } else {
        41
    }
}

/// `setup_s` is this low percentile of the set-ups' wall times: a host
/// stall only adds wall time, so a low percentile keeps the set-up's own
/// cost and drops the neighbours' bursts.
const SETUP_PERCENTILE: f64 = 10.0;

/// The workload's modeled energy (pJ) and busy time (ns) per unit of
/// the replay.
fn modeled_per_unit<W: Workload>(w: &W, replay: &Replay) -> (f64, f64) {
    let (joules, seconds) = w.modeled(&replay.usage);
    let units = replay.units.max(1) as f64;
    (joules * 1e12 / units, seconds * 1e9 / units)
}

fn replay_detail(replay: &Replay, detail: &mut Vec<(&'static str, String)>) {
    let u = &replay.usage;
    detail.push((
        "replay",
        format!(
            "{{\"ops\": {}, \"units\": {}, \"mvp_programs\": {}, \"mvp_scouting_ops\": {}, \"mvp_reads\": {}, \"ap_symbols\": {}, \"corr_events\": {}, \"failed\": {}}}",
            replay.ops, replay.units, u.mvp_programs, u.mvp_scouting_ops, u.mvp_reads, u.ap_symbols, u.corr_events, replay.failed
        ),
    ));
    if let Some(e) = &replay.first_error {
        detail.push(("replay_first_error", string(e)));
    }
}

fn phase_detail(phase: &Phase, detail: &mut Vec<(&'static str, String)>) {
    let main = phase.sorted(|l| &l.main_ns).len();
    let opens = phase.sorted(|l| &l.open_ns).len();
    let attempted = phase.attempted().max(1);
    detail.push(("main_samples", main.to_string()));
    detail.push(("open_samples", opens.to_string()));
    detail.push((
        "main_tail_percentile",
        highest_supported_percentile(main).map_or("null".into(), number),
    ));
    detail.push(("failed_frac", number(phase.failed() as f64 / attempted as f64)));
    detail.push((
        "wrong_answers",
        phase.logs.iter().map(|l| l.wrong_answers).sum::<u64>().to_string(),
    ));
    detail.push(("units", phase.units().to_string()));
    detail.push(("wall_s", number(phase.wall.as_secs_f64())));
    let rates: Vec<String> = phase.window_rates(1.0).into_iter().map(number).collect();
    detail.push(("main_per_s_by_second", format!("[{}]", rates.join(", "))));
    let refusals: Vec<String> =
        phase.refusals().iter().map(|(code, n)| format!("{}: {n}", string(code))).collect();
    detail.push(("refusals", format!("{{{}}}", refusals.join(", "))));
    if let Some(e) = phase.first_error() {
        detail.push(("first_error", string(e)));
    }
}

fn untraced<W: Workload>(w: &W, opts: &Opts, gen_s: f64) -> Result<Outcome, String> {
    let timed_setup = |times: &mut Vec<u64>| {
        let start = Instant::now();
        let primed = setup(w, w.serve_config());
        times.push(start.elapsed().as_nanos() as u64);
        primed
    };
    // The anonymous memory (heap, thread stacks) resident before the
    // first set-up is the benchmark's own: the generated inputs and
    // references.
    let inputs_mib = proc_mib("smaps_rollup", "Anonymous")?;
    let mut times = Vec::new();
    let mut primed = timed_setup(&mut times)?;
    let phase = closed_loop(w, &mut primed, opts.seconds, false)?;
    // The served stack's memory is what the set-up and the loop added,
    // counted page by page at the end of the loop, less the clients'
    // latency samples. The kernel's peak counter (`VmHWM`) lags the page
    // tables by up to a few hundred KiB, more than this figure's spread
    // between runs; the loop is steady, so its end holds its working set.
    let rss = proc_mib("smaps_rollup", "Anonymous")? - inputs_mib - phase.sample_mib();
    teardown(w, primed);
    let process_peak_mib = proc_mib("status", "VmHWM")?;
    while times.len() < setups(opts) {
        teardown(w, timed_setup(&mut times)?);
    }

    times.sort_unstable();
    let mut m = Metrics::default();
    m.set("setup_s", stats::percentile(&times, SETUP_PERCENTILE) as f64 / 1e9);
    m.set("cpu_ns_per_unit", phase.cpu.as_secs_f64() * 1e9 / phase.units().max(1) as f64);
    m.set("latency_p50_ms", phase.main_ms(50.0));
    m.set("peak_rss_mib", rss);
    let mut detail = vec![("input_generation_s", number(gen_s))];
    detail.push(("setup_samples", times.len().to_string()));
    detail.push(("setup_median_s", number(stats::percentile(&times, 50.0) as f64 / 1e9)));
    detail.push(("inputs_mib", number(inputs_mib)));
    detail.push(("process_peak_mib", number(process_peak_mib)));
    detail.push(("units_per_s", number(phase.units_per_s())));
    detail.push(("latency_p99_ms", number(phase.main_ms(99.0))));
    phase_detail(&phase, &mut detail);
    let opens = phase.sorted(|l| &l.open_ns);
    if !opens.is_empty() {
        detail.push(("open_p50_ms", number(stats::percentile(&opens, 50.0) as f64 / 1e6)));
        detail.push(("open_p95_ms", number(stats::percentile(&opens, 95.0) as f64 / 1e6)));
    }
    let replay = replay(w, w.replay_config())?;
    let (pj, ns) = modeled_per_unit(w, &replay);
    m.set("modeled_energy_pj_per_unit", pj);
    m.set("modeled_busy_ns_per_unit", ns);
    replay_detail(&replay, &mut detail);
    let failed = phase.failed() + replay.failed;
    let correct = failed == 0 && phase.units() > 0 && replay.units > 0;
    Ok(Outcome {
        correct,
        attempted: phase.attempted() + replay.attempted,
        failed,
        metrics: m,
        detail,
    })
}

/// The main-verb `p`th percentile of `phases` taken together, ms.
fn main_ms(phases: &[Phase], p: f64) -> f64 {
    let mut all: Vec<u64> = phases.iter().flat_map(|p| p.sorted(|l| &l.main_ns)).collect();
    all.sort_unstable();
    stats::percentile(&all, p) as f64 / 1e6
}

fn pct_change(traced: f64, plain: f64) -> f64 {
    if plain == 0.0 {
        0.0
    } else {
        (traced - plain) / plain * 100.0
    }
}

fn traced_run<W: Workload>(
    w: &W,
    opts: &Opts,
    gen_s: f64,
    probe: impl FnOnce(&harness::Stack, &mut Metrics) -> Result<(), String>,
) -> Result<Outcome, String> {
    // Untraced and traced quarters alternate, so a drift of the host's
    // speed weighs on both sides alike. The last traced stack is probed.
    let quarter = opts.seconds / 4.0;
    let (mut plain, mut traced_quarters, mut probed) = (Vec::new(), Vec::new(), None);
    for _ in 0..2 {
        let mut stack = setup(w, w.serve_config())?;
        plain.push(closed_loop(w, &mut stack, quarter, false)?);
        teardown(w, stack);
        let mut stack = setup(w, traced_backend::traced(w.serve_config()))?;
        traced_quarters.push(closed_loop(w, &mut stack, quarter, true)?);
        if let Some(old) = probed.replace(stack) {
            teardown(w, old);
        }
    }
    let stack = probed.expect("two rounds ran");
    let mut m = Metrics::default();
    probe(&stack.stack, &mut m)?;
    teardown(w, stack);

    let rate = |phases: &[Phase]| {
        let units: u64 = phases.iter().map(Phase::units).sum();
        units as f64 / phases.iter().map(|p| p.wall.as_secs_f64()).sum::<f64>()
    };
    m.set(
        "trace.latency_p50_overhead_pct",
        pct_change(main_ms(&traced_quarters, 50.0), main_ms(&plain, 50.0)),
    );
    m.set("trace.units_per_s_overhead_pct", pct_change(rate(&traced_quarters), rate(&plain)));
    m.set("client.units_per_s", rate(&plain));
    m.set("client.latency_p99_ms", main_ms(&plain, 99.0));
    let traced = traced_quarters.last().expect("two rounds ran");
    let opens = traced.sorted(|l| &l.open_ns);
    if !opens.is_empty() {
        m.set("serve.open_p50_ms", stats::percentile(&opens, 50.0) as f64 / 1e6);
        m.set("serve.open_p95_ms", stats::percentile(&opens, 95.0) as f64 / 1e6);
    }
    let (before, after) = (&traced.stats_before, &traced.stats_after);
    let ratio = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    m.set(
        "verify.cache_hit_ratio",
        ratio(
            after.mvp_cache_hits - before.mvp_cache_hits,
            after.mvp_cache_misses - before.mvp_cache_misses,
        ),
    );
    m.set(
        "serve.ap_cache_hit_ratio",
        ratio(
            after.ap_cache_hits - before.ap_cache_hits,
            after.ap_cache_misses - before.ap_cache_misses,
        ),
    );
    m.set("serve.routing_fallbacks", (after.routing_fallbacks - before.routing_fallbacks) as f64);
    let ops: u64 = traced.logs.iter().map(|l| l.ops).sum();
    let bursts: u64 = traced.logs.iter().map(|l| l.burst_jobs).sum();
    m.set("serve.burst_jobs", bursts as f64 / ops.max(1) as f64);
    m.set("net.refusals", traced.refusals().values().sum::<u64>() as f64);

    // The wrapper must not change what the hardware model sees: the
    // same fixed sequence bills bit-identical counters, energy and busy
    // time on a plain and on a traced stack.
    let plain_replay = replay(w, w.replay_config())?;
    trace::tracer().set_recording(true);
    let traced_replay = replay(w, traced_backend::traced(w.replay_config()));
    trace::tracer().set_recording(false);
    let traced_replay = traced_replay?;
    let consistent = plain_replay.fingerprint() == traced_replay.fingerprint();
    let usage = &traced_replay.usage;
    let ops = traced_replay.ops.max(1) as f64;
    m.set("mvp.modeled_programs_per_op", usage.mvp_programs as f64 / ops);
    m.set("mvp.modeled_scouting_per_op", usage.mvp_scouting_ops as f64 / ops);
    m.set("mvp.modeled_reads_per_op", usage.mvp_reads as f64 / ops);
    let modeled_ns = usage.mvp_busy.as_seconds() * 1e9 / ops;
    let host_us = m.get("mvp.corr_feed_us").or(m.get("mvp.run_us")).unwrap_or(0.0);
    if modeled_ns > 0.0 {
        m.set("mvp.host_ns_per_modeled_ns", host_us * 1e3 / modeled_ns);
    }
    let mut detail = vec![("input_generation_s", number(gen_s))];
    detail.push(("counters_match_untraced", consistent.to_string()));
    phase_detail(traced, &mut detail);
    replay_detail(&traced_replay, &mut detail);
    let trace_path = format!(".bench_trace/{}-seed{}.jsonl", w.name(), opts.seed);
    trace::tracer()
        .write_jsonl(std::path::Path::new(&trace_path))
        .map_err(|e| format!("writing {trace_path}: {e}"))?;
    detail.push(("spans", string(&trace_path)));
    let loops = plain.iter().chain(&traced_quarters);
    let failed =
        loops.clone().map(Phase::failed).sum::<u64>() + plain_replay.failed + traced_replay.failed;
    Ok(Outcome {
        correct: consistent && failed == 0 && traced.units() > 0,
        attempted: loops.map(Phase::attempted).sum::<u64>()
            + plain_replay.attempted
            + traced_replay.attempted,
        failed,
        metrics: m,
        detail,
    })
}

/// Generates the workload's inputs from the seed and runs it.
pub fn run(opts: &Opts, inject_wrong_answer: bool) -> Result<Outcome, String> {
    let gen = Instant::now();
    let short = opts.short;
    match opts.workload.as_str() {
        "bitmap_query" => {
            let mut w =
                bitmap::Bitmap::generate(opts.seed, CLIENTS, if short { 9 } else { bitmap::FRESH });
            w.inject_wrong_answer = inject_wrong_answer;
            let gen_s = gen.elapsed().as_secs_f64();
            if opts.trace {
                traced_run(&w, opts, gen_s, |stack, m| bitmap::probe(&w, stack, m))
            } else {
                untraced(&w, opts, gen_s)
            }
        }
        "ap_scan" => {
            let sizes = if short {
                ap_scan::ApSizes { chunk: 256, fresh: 2 }
            } else {
                ap_scan::ApSizes::FULL
            };
            let w = ap_scan::ApScan::generate(opts.seed, CLIENTS, sizes);
            let gen_s = gen.elapsed().as_secs_f64();
            if opts.trace {
                traced_run(&w, opts, gen_s, |stack, m| ap_scan::probe(&w, stack, m))
            } else {
                untraced(&w, opts, gen_s)
            }
        }
        "corr_stream" => {
            let w = corr::CorrStream::generate(opts.seed, CLIENTS, if short { 1 } else { 3 })?;
            let gen_s = gen.elapsed().as_secs_f64();
            if opts.trace {
                traced_run(&w, opts, gen_s, |stack, m| corr::probe(&w, stack, m))
            } else {
                untraced(&w, opts, gen_s)
            }
        }
        other => Err(format!("unknown workload {other} (bitmap_query, ap_scan, corr_stream)")),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&argv) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&opts, false) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload);
            std::process::exit(2);
        }
    };
    let (table, missing_is_zero) =
        if opts.trace { (&PER_LAYER[..], true) } else { (&END_TO_END[..], false) };
    let line = match result_line(
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        table,
        &outcome.metrics,
        missing_is_zero,
    ) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload);
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut record = vec![
        ("workload", string(&opts.workload)),
        ("seed", opts.seed.to_string()),
        ("seconds", number(opts.seconds)),
        ("trace", opts.trace.to_string()),
        ("host_cores", cores.to_string()),
        ("cpu_model", string(&cpu_model())),
    ];
    record.extend(outcome.detail);
    let body: Vec<String> = record.iter().map(|(k, v)| format!("{}: {v}", string(k))).collect();
    println!("{{\"record\": {{{}}}}}", body.join(", "));
    println!("{line}");
    if !outcome.correct {
        eprintln!("perfbench: {}: the run failed its correctness gate", opts.workload);
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The trace recorder is process-wide: workload self-tests take
    /// turns.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn short(workload: &str, trace: bool) -> Opts {
        Opts { workload: workload.into(), seed: 7, seconds: 0.4, trace, short: true }
    }

    fn pass(workload: &str) {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let out = run(&short(workload, false), false).expect("runs");
        assert!(out.correct, "{workload}: {:?}", out.detail);
        assert_eq!(out.failed, 0);
        assert!(out.attempted > 0);
        for (name, _) in END_TO_END {
            let v = out.metrics.get(name).unwrap_or_else(|| panic!("{workload}: {name} measured"));
            assert!(v > 0.0, "{workload}: {name} = {v}");
        }
        let traced = run(&short(workload, true), false).expect("runs traced");
        assert!(traced.correct, "{workload} traced: {:?}", traced.detail);
        assert!(traced.detail.iter().any(|(k, v)| *k == "counters_match_untraced" && v == "true"));
    }

    #[test]
    fn bitmap_query_short_pass() {
        pass("bitmap_query");
    }

    #[test]
    fn ap_scan_short_pass() {
        pass("ap_scan");
    }

    #[test]
    fn corr_stream_short_pass() {
        pass("corr_stream");
    }

    #[test]
    fn an_injected_wrong_answer_fails_the_run() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let out = run(&short("bitmap_query", false), true).expect("runs");
        assert!(!out.correct);
        // The corrupted answer is checked twice: in the closed loop and
        // in the replay that bills the modeled cost.
        assert_eq!(out.failed, 2, "exactly the corrupted answer fails");
        assert!(out.detail.iter().any(|(k, v)| *k == "failed_frac" && v != "0.0"));
        assert!(out.detail.iter().any(|(k, v)| *k == "wrong_answers" && v == "1"));
    }

    #[test]
    fn arguments_parse_with_defaults() {
        let args: Vec<String> = ["--workload", "ap_scan"].iter().map(|s| s.to_string()).collect();
        let opts = parse_args(&args).expect("parses");
        assert_eq!((opts.seed, opts.seconds, opts.trace), (DEFAULT_SEED, 30.0, false));
        let bad: Vec<String> =
            ["--workload", "x", "--trace", "2"].iter().map(|s| s.to_string()).collect();
        assert!(parse_args(&bad).is_err());
        assert!(parse_args(&[]).is_err());
    }
}
