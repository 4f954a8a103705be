//! Per-layer numbers shared by the workloads' sequential probes.
//!
//! The probes run one request at a time on the traced stack once the
//! closed loop has finished, so every crossbar span a worker records
//! belongs to the request span the probing thread has current.

use crate::harness::median_us;
use crate::report::Metrics;
use crate::stats::median;
use crate::trace::{children_of, self_time_ns, CrossbarOp, Span};
use memcim_serve::net::{Request, Response};

/// Crossbar calls, time and cells per request among the children of
/// `requests`, and the crossbar's share of their round trips.
pub fn crossbar_metrics(spans: &[Span], requests: &[Span], m: &mut Metrics) {
    let names = [
        ("crossbar.program_row.calls_per_op", "crossbar.program_row.us_per_op"),
        ("crossbar.read_row.calls_per_op", "crossbar.read_row.us_per_op"),
        ("crossbar.scouting.calls_per_op", "crossbar.scouting.us_per_op"),
        ("crossbar.scouting_write.calls_per_op", "crossbar.scouting_write.us_per_op"),
    ];
    let mut per_kind = [(0u64, 0u64); 4];
    let (mut cells, mut inside, mut total) = (0u64, 0u64, 0u64);
    for request in requests {
        let kids = children_of(spans, request.id);
        for kid in &kids {
            if let Some(k) = CrossbarOp::ALL.iter().position(|op| op.name() == kid.name) {
                per_kind[k].0 += 1;
                per_kind[k].1 += kid.duration_ns();
                cells += kid.work;
            }
        }
        inside += request.duration_ns() - self_time_ns(request, &kids);
        total += request.duration_ns();
    }
    let ops = requests.len().max(1) as f64;
    for ((calls_name, us_name), (calls, ns)) in names.into_iter().zip(per_kind) {
        m.set(calls_name, calls as f64 / ops);
        m.set(us_name, ns as f64 / 1e3 / ops);
    }
    let ns: u64 = per_kind.iter().map(|(_, ns)| ns).sum();
    m.set("crossbar.cells_per_op", cells as f64 / ops);
    m.set("crossbar.ns_per_cell", if cells == 0 { 0.0 } else { ns as f64 / cells as f64 });
    m.set("crossbar.share", if total == 0 { 0.0 } else { inside as f64 / total as f64 });
}

/// Median duration and median self time (minus crossbar children) of
/// in-process calls, µs.
pub fn call_and_self_us(spans: &[Span], calls: &[Span]) -> (f64, f64) {
    let durations: Vec<f64> = calls.iter().map(|s| s.duration_ns() as f64 / 1e3).collect();
    let selves: Vec<f64> =
        calls.iter().map(|s| self_time_ns(s, &children_of(spans, s.id)) as f64 / 1e3).collect();
    (median(&durations), median(&selves))
}

/// Wire round trip minus the in-process call for the same requests,
/// µs (medians).
pub fn net_overhead_us(wire: &[Span], in_process: &[Span]) -> f64 {
    let us = |spans: &[Span]| -> f64 {
        median(&spans.iter().map(|s| s.duration_ns() as f64 / 1e3).collect::<Vec<_>>())
    };
    us(wire) - us(in_process)
}

/// Encode + decode of the real request and response frames, µs per
/// request, and their combined body size.
pub fn codec_metrics(frames: &[(Request, Response)], m: &mut Metrics) -> Result<(), String> {
    let mut bytes = 0usize;
    for (request, response) in frames {
        let req = request.encode().map_err(|e| format!("encoding a request: {e}"))?;
        let resp = response.encode().map_err(|e| format!("encoding a response: {e}"))?;
        if Request::decode(&req).ok().as_ref() != Some(request) {
            return Err("a request does not survive its codec".into());
        }
        if Response::decode(&resp).ok().as_ref() != Some(response) {
            return Err("a response does not survive its codec".into());
        }
        bytes += req.len() + resp.len();
    }
    let (us, _) = median_us(5, || {
        for (request, response) in frames {
            let req = request.encode().expect("encoded once already");
            let resp = response.encode().expect("encoded once already");
            std::hint::black_box(Request::decode(&req).expect("decoded once already"));
            std::hint::black_box(Response::decode(&resp).expect("decoded once already"));
        }
    });
    let n = frames.len().max(1) as f64;
    m.set("net.codec_us", us / n);
    m.set("net.frame_bytes", bytes as f64 / n);
    Ok(())
}
