//! `corr_stream`: each connection holds one temporal-correlation session
//! (arXiv:1706.00511) on a sharded, replicated service: 4 shards × 2
//! replicas over the 2 workers.
//!
//! Each `CorrFeed` sends a 256-step window of 24 `EventStreams::synthesize`
//! streams with two planted groups of five; a `CorrFinish` follows every
//! 16 windows (a 4,096-step segment, long enough that the planted groups
//! clear the threshold by several standard deviations). Scores must equal
//! `correlation_reference` of the segment, and the recovered set must
//! equal the planted groups.
//!
//! Why: the only workload through placement and router scatter-gather,
//! and a scouting-heavy use of the crossbar (the bitmap queries are
//! write-heavy), so a crossbar change that helps writes but costs
//! sensing shows here. Stresses: net, serve (sessions), placement, MVP,
//! crossbar. Bypasses: AP, automata, verify cache.

use crate::harness::{median_us, Stack, Stop, TenantLog, Workload, PROBE_TENANT};
use crate::probes;
use crate::report::Metrics;
use crate::trace::tracer;
use memcim_bits::BitVec;
use memcim_mvp::correlation::{
    correlation_reference, CorrelationAccumulator, CorrelationConfig, EventStreams,
};
use memcim_mvp::{BatchRequest, MvpSimulator, ShardMap};
use memcim_serve::net::{NetClient, Request, WireUsage};
use memcim_serve::{ServeConfig, SessionId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

pub const STREAMS: usize = 24;
pub const WINDOW: usize = 256;
pub const WINDOWS_PER_FINISH: usize = 16;
pub const SHARDS: usize = 4;
pub const REPLICAS: usize = 2;
pub const ROWS: usize = 32;
pub const BANKS: usize = 4;
pub const BANK_COLS: usize = WINDOW / BANKS;

/// One segment: the windows between two finishes and the answers.
pub struct Segment {
    pub windows: Vec<Vec<BitVec>>,
    pub scores: Vec<u64>,
    pub planted: BitVec,
}

pub struct Tenant {
    segments: Vec<Segment>,
    threshold: u64,
}

pub struct CorrStream {
    tenants: Vec<Tenant>,
}

/// Two planted groups of five distinct streams.
fn groups(rng: &mut SmallRng) -> Vec<Vec<usize>> {
    let mut members = Vec::with_capacity(10);
    while members.len() < 10 {
        let s = rng.gen_range(0..STREAMS);
        if !members.contains(&s) {
            members.push(s);
        }
    }
    let mut a = members[..5].to_vec();
    let mut b = members[5..].to_vec();
    a.sort_unstable();
    b.sort_unstable();
    vec![a, b]
}

impl CorrStream {
    /// `segments` distinct segments per tenant, cycled by the loop.
    pub fn generate(seed: u64, clients: usize, segments: usize) -> Result<CorrStream, String> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let steps = WINDOW * WINDOWS_PER_FINISH;
        let mut tenants = Vec::with_capacity(clients);
        for _ in 0..clients {
            let cfg = CorrelationConfig {
                streams: STREAMS,
                steps,
                rate: 0.25,
                strength: 0.95,
                groups: groups(&mut rng),
            };
            let threshold = cfg.threshold().map_err(|e| e.to_string())?;
            let mut list = Vec::with_capacity(segments);
            for _ in 0..segments {
                let events = EventStreams::synthesize(&cfg, rng.gen_range(0..u64::MAX))
                    .map_err(|e| e.to_string())?;
                let scores = correlation_reference(events.data()).map_err(|e| e.to_string())?;
                let planted = events.planted();
                // The exact scores must single out the planted groups, or
                // the segment could not tell a right answer from a wrong one.
                let separated = (0..STREAMS).all(|i| (scores[i] > threshold) == planted.get(i));
                if !separated {
                    return Err(format!(
                        "seed {seed}: a segment's planted groups do not clear the threshold"
                    ));
                }
                let windows = (0..WINDOWS_PER_FINISH)
                    .map(|w| events.window(w * WINDOW..(w + 1) * WINDOW))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| e.to_string())?;
                list.push(Segment { windows, scores, planted });
            }
            tenants.push(Tenant { segments: list, threshold });
        }
        Ok(CorrStream { tenants })
    }

    fn segment(&self, client: usize, k: usize) -> &Segment {
        let segments = &self.tenants[client].segments;
        &segments[k % segments.len()]
    }

    fn run_segment(
        &self,
        i: usize,
        k: usize,
        session: SessionId,
        client: &mut NetClient,
        log: &mut TenantLog,
    ) -> bool {
        let segment = self.segment(i, k);
        let per_window = (STREAMS * WINDOW) as u64;
        for (w, window) in segment.windows.iter().enumerate() {
            let Some((report, ns)) =
                log.call("client.corr_feed", || client.corr_feed(session, window))
            else {
                return false;
            };
            let events = per_window * (w as u64 + 1);
            if !log.check(report.events == events, || {
                format!("feed {w} absorbed {} events", report.events)
            }) {
                return false;
            }
            log.main_done(ns);
            log.units += per_window;
        }
        let Some((outcome, _)) = log.call("client.corr_finish", || client.corr_finish(session))
        else {
            return false;
        };
        let ok = outcome.scores == segment.scores
            && outcome.correlated == segment.planted
            && outcome.events == per_window * segment.windows.len() as u64;
        log.check(ok, || {
            format!("tenant {i} segment {k}: scores or correlated set differ from the reference")
        })
    }
}

impl Workload for CorrStream {
    /// The session and the next segment number.
    type Tenant = (SessionId, usize);

    fn name(&self) -> &'static str {
        "corr_stream"
    }

    fn serve_config(&self) -> ServeConfig {
        ServeConfig::default()
            .with_workers(crate::harness::WORKERS)
            .with_mvp_geometry(ROWS, BANKS, BANK_COLS)
            .with_placement(SHARDS, REPLICAS)
    }

    fn prime(&self, i: usize, client: &mut NetClient) -> Result<Self::Tenant, String> {
        let session = client
            .corr_open(STREAMS, self.tenants[i].threshold)
            .map_err(|e| format!("corr open: {e}"))?;
        Ok((session, 0))
    }

    fn drive(
        &self,
        i: usize,
        (session, next): &mut Self::Tenant,
        client: &mut NetClient,
        stop: Stop,
        log: &mut TenantLog,
    ) {
        while !stop.done(log) {
            let k = *next;
            *next += 1;
            if !self.run_segment(i, k, *session, client, log) {
                return;
            }
        }
    }

    fn release(&self, (session, _): Self::Tenant, client: &mut NetClient) {
        let _ = client.ap_close(session);
    }

    /// Every segment of the tenant's pool once.
    fn replay_ops(&self) -> u64 {
        (self.tenants[0].segments.len() * WINDOWS_PER_FINISH) as u64
    }

    /// One worker holding every shard, no coalescing.
    fn replay_config(&self) -> ServeConfig {
        self.serve_config().with_workers(1).with_max_burst(1).with_placement(SHARDS, 1)
    }

    fn modeled(&self, usage: &WireUsage) -> (f64, f64) {
        (usage.mvp_energy.as_joules(), usage.mvp_busy.as_seconds())
    }
}

/// Sequential probes of the MVP, verify, placement, serve and net
/// layers on tenant 0's first segment.
pub fn probe(w: &CorrStream, stack: &Stack, m: &mut Metrics) -> Result<(), String> {
    let tenant = &w.tenants[0];
    let segment = &tenant.segments[0];
    let windows = &segment.windows;
    let n = windows.len() as f64;
    let width = WINDOW;

    // Engine and kernel on their own, on a local engine of the served
    // geometry.
    let mut engine = MvpSimulator::banked(ROWS, BANKS, BANK_COLS);
    let planner = CorrelationAccumulator::new(STREAMS).map_err(|e| e.to_string())?;
    let batches = windows
        .iter()
        .map(|window| {
            let mut b = BatchRequest::new();
            b.push(planner.feed_plan(window, width)?);
            Ok(b)
        })
        .collect::<Result<Vec<_>, memcim_mvp::MvpError>>()
        .map_err(|e| e.to_string())?;
    let (us, _) = median_us(3, || {
        for b in &batches {
            engine.run_batch(b).expect("the feed plan runs on a local engine");
        }
    });
    m.set("mvp.run_us", us / n);
    let (us, acc) = median_us(3, || {
        let mut acc = CorrelationAccumulator::new(STREAMS).expect("enough streams");
        for window in windows {
            acc.feed_mvp(&mut engine, window).expect("the engine fits the streams");
        }
        acc
    });
    if acc.scores() != segment.scores.as_slice() {
        return Err("the local kernel disagrees with the reference".into());
    }
    m.set("mvp.corr_feed_us", us / n);

    // Static checks the service runs on every shard plan of a feed.
    let map = ShardMap::new(STREAMS, SHARDS).map_err(|e| e.to_string())?;
    let plans = windows
        .iter()
        .flat_map(|window| (0..SHARDS).map(move |s| (window, s)))
        .map(|(window, s)| planner.shard_feed_plan(window, map.range(s), width))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let cost = memcim_verify::CostModel::banked(ROWS, BANKS, BANK_COLS);
    let (us, _) = median_us(5, || {
        for plan in &plans {
            std::hint::black_box(memcim_verify::verify_program(plan, ROWS, width));
            std::hint::black_box(cost.bound(plan));
        }
    });
    m.set("verify.program_us", us / n);

    // Session opens, then the segment over the wire and in process.
    let service = &stack.service;
    let (us, local) =
        median_us(1, || service.open_corr_session(PROBE_TENANT, STREAMS, tenant.threshold));
    let local = local.map_err(|e| format!("probe open: {e}"))?;
    m.set("serve.open_us", us);
    let mut client = stack.connect(PROBE_TENANT)?;
    let remote =
        client.corr_open(STREAMS, tenant.threshold).map_err(|e| format!("probe open: {e}"))?;
    let t = tracer();
    let (mut wire, mut feeds, mut frames) = (Vec::new(), Vec::new(), Vec::new());
    let jobs_before = service.tenant_usage(PROBE_TENANT).map_or(0, |u| u.mvp_jobs);
    t.set_recording(true);
    for (k, window) in windows.iter().enumerate() {
        let id = 2 * k as u64 + 1;
        let request = Request::CorrFeed { session: remote, window: window.clone() };
        let (response, span) = t.span("probe.wire.corr_feed", 0, id, || client.request(&request));
        wire.push(span);
        frames.push((request, response.map_err(|e| format!("probe feed: {e}"))?));
        let (out, span) = t.span("probe.serve.corr_feed", 0, id + 1, || {
            service.corr_feed(PROBE_TENANT, local, window)
        });
        out.map_err(|e| format!("probe in-process feed: {e}"))?;
        feeds.push(span);
    }
    t.set_recording(false);
    let jobs_after = service.tenant_usage(PROBE_TENANT).map_or(0, |u| u.mvp_jobs);
    // Both sessions were fed the whole segment; the fan-out counts the
    // shard sub-jobs of both.
    let fanout = (jobs_after - jobs_before) as f64 / (2.0 * n);
    let wire_outcome = client.corr_finish(remote).map_err(|e| format!("probe finish: {e}"))?;
    let local_outcome = service.corr_finish(PROBE_TENANT, local).map_err(|e| e.to_string())?;
    if wire_outcome.scores != segment.scores || local_outcome.scores != segment.scores {
        return Err("a probe segment disagrees with the reference".into());
    }
    client.ap_close(remote).map_err(|e| format!("probe close: {e}"))?;
    service.close_session(PROBE_TENANT, local).map_err(|e| e.to_string())?;

    let spans = t.spans();
    probes::crossbar_metrics(&spans, &wire, m);
    let (feed_us, self_us) = probes::call_and_self_us(&spans, &feeds);
    m.set("placement.feed_us", feed_us);
    m.set("placement.self_us", self_us);
    m.set("placement.fanout", fanout);
    m.set("serve.job_us", feed_us);
    m.set("serve.self_us", self_us);
    m.set("net.overhead_us", probes::net_overhead_us(&wire, &feeds));
    probes::codec_metrics(&frames, m)
}
