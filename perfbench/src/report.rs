//! Metric names, units and the result line.
//!
//! The two tables below are the benchmark's definition; `BENCHMARK.json`
//! at the repository root lists the same names and units (a self-test
//! keeps them in step).

use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics, printed on every untraced run of every workload.
/// Throughput and the p99 round trip are in every run's record instead:
/// on a shared host they swing with the neighbours' load by more than
/// any bound a regression gate can use.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("cpu_ns_per_unit", "ns"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("modeled_energy_pj_per_unit", "pJ"),
    ("modeled_busy_ns_per_unit", "ns"),
];

/// Per-layer metrics, printed on every traced run. A layer a workload
/// does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("client.units_per_s", "1/s"),
    ("client.latency_p99_ms", "ms"),
    ("crossbar.program_row.calls_per_op", "count"),
    ("crossbar.program_row.us_per_op", "us"),
    ("crossbar.read_row.calls_per_op", "count"),
    ("crossbar.read_row.us_per_op", "us"),
    ("crossbar.scouting.calls_per_op", "count"),
    ("crossbar.scouting.us_per_op", "us"),
    ("crossbar.scouting_write.calls_per_op", "count"),
    ("crossbar.scouting_write.us_per_op", "us"),
    ("crossbar.cells_per_op", "count"),
    ("crossbar.ns_per_cell", "ns"),
    ("crossbar.share", "1"),
    ("mvp.run_us", "us"),
    ("mvp.corr_feed_us", "us"),
    ("mvp.modeled_programs_per_op", "count"),
    ("mvp.modeled_scouting_per_op", "count"),
    ("mvp.modeled_reads_per_op", "count"),
    ("mvp.host_ns_per_modeled_ns", "1"),
    ("ap.multi_ns_per_symbol", "ns"),
    ("ap.single_ns_per_symbol", "ns"),
    ("ap.stamp_us", "us"),
    ("ap.routing_compile_us", "us"),
    ("ap.states", "count"),
    ("ap.matches_per_ksymbol", "count"),
    ("automata.parse_us", "us"),
    ("automata.homogeneous_us", "us"),
    ("verify.program_us", "us"),
    ("verify.cache_hit_ratio", "1"),
    ("serve.job_us", "us"),
    ("serve.self_us", "us"),
    ("serve.burst_jobs", "count"),
    ("serve.open_us", "us"),
    ("serve.open_p50_ms", "ms"),
    ("serve.open_p95_ms", "ms"),
    ("serve.ap_cache_hit_ratio", "1"),
    ("serve.routing_fallbacks", "count"),
    ("placement.fanout", "count"),
    ("placement.feed_us", "us"),
    ("placement.self_us", "us"),
    ("net.codec_us", "us"),
    ("net.frame_bytes", "B"),
    ("net.overhead_us", "us"),
    ("net.refusals", "count"),
    ("trace.latency_p50_overhead_pct", "%"),
    ("trace.units_per_s_overhead_pct", "%"),
];

/// Metric values by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER.iter()).any(|(n, _)| *n == name),
            "{name} is not a defined metric"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// A JSON number: finite values in Rust's shortest round-trip form.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: every metric of `table`, in table order. A metric
/// of `table` missing from `metrics` is an error for the end-to-end
/// table and reads 0 (layer not exercised) for the per-layer one.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&'static str, &'static str)],
    metrics: &Metrics,
    missing_is_zero: bool,
) -> Result<String, String> {
    let mut body = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = match metrics.get(name) {
            Some(v) => v,
            None if missing_is_zero => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        body.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            string(name),
            number(value),
            string(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics and units of the
    /// tables above.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert_eq!(text.matches(&entry).count(), 1, "BENCHMARK.json lists {entry} once");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len(), "no metric beyond the tables");
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.25);
        let line = result_line(true, 3, 0, &END_TO_END[..1], &m, false).expect("measured");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(result_line(true, 3, 0, &END_TO_END[..2], &m, false).is_err());
        assert!(result_line(true, 3, 0, &END_TO_END[..2], &m, true).expect("zero").contains("0.0"));
        assert_eq!(string("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
