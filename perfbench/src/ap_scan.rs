//! `ap_scan`: every connection loops over AP session lifecycles.
//!
//! One lifecycle: `ApOpen` of a 16-rule `rules::synthetic_rules` set,
//! `FRAMES` `ApFeedMany` frames of 8 lanes of `synthetic_traffic`,
//! `ApFinishMany` (every lane's matches checked against a software run
//! of the same automaton over the lane's whole stream), `ApClose`.
//! Three of every four lifecycles reopen the next of the tenant's eight
//! hot sets, compiled during setup, so they hit the compile cache; the
//! fourth opens the next of the tenant's fresh sets. The fresh pool is
//! larger than the compile cache, so a fresh set has always been evicted
//! before it comes round again, while the sixteen hot sets and the few
//! fresh ones opened between two uses of a hot set fit in it: the miss
//! share is one in four by construction.
//!
//! Why: the AP symbol kernel and routing do most of the work, and cold
//! opens show the automata compile against warm template stamps.
//! Stresses: net, serve (sessions, compile cache), AP, automata.
//! Bypasses: crossbar, MVP, verify, placement.

use crate::harness::{median_us, Stack, Stop, TenantLog, Workload, PROBE_TENANT};
use crate::probes;
use crate::report::Metrics;
use crate::trace::tracer;
use memcim_ap::{ApBackend, AutomataProcessor, RoutingKind};
use memcim_automata::{rules, HomogeneousAutomaton, PatternSet, StartKind};
use memcim_serve::net::{NetClient, Request, WireUsage};
use memcim_serve::{Job, ServeConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

pub const RULES: usize = 16;
pub const LANES: usize = 8;
pub const FRAMES: usize = 4;
const HOT: usize = 8;
/// Lifecycles per tenant in the replay that bills the modeled cost.
const REPLAY_LIFECYCLES: u64 = 32;

/// The sizes of one run: per-lane chunk bytes and fresh sets per tenant.
#[derive(Debug, Clone, Copy)]
pub struct ApSizes {
    pub chunk: usize,
    pub fresh: usize,
}

impl ApSizes {
    /// 4 KiB per lane and frame (32 Ki-symbol frames); 40 fresh sets per
    /// tenant, more than the server's 32-entry compile cache.
    pub const FULL: ApSizes = ApSizes { chunk: 4_096, fresh: 40 };
}

/// The homogeneous automaton the server compiles for a pattern set
/// (all-input start, dead states stripped) with the pattern owning each
/// accepting state.
pub fn served_automaton(set: &PatternSet) -> (HomogeneousAutomaton, HashMap<usize, usize>) {
    let (homog, owner) = set.to_homogeneous();
    let (homog, remap) = homog.with_start_kind(StartKind::AllInput).strip();
    let owner = owner
        .into_iter()
        .filter_map(|(state, pattern)| remap[state].map(|new| (new, pattern)))
        .collect();
    (homog, owner)
}

/// A software run of a homogeneous automaton that keeps which accept
/// state fired: the active set follows the routing matrix sparsely,
/// every state enabled at every symbol for all-input starts.
pub struct SoftwareAp {
    succ: Vec<Vec<usize>>,
    /// Per symbol: the states it matches, as a bit row.
    matches: Vec<memcim_bits::BitVec>,
    /// Per symbol: the start states it matches.
    starts: Vec<Vec<usize>>,
    first_starts: Vec<Vec<usize>>,
    accept: Vec<bool>,
}

impl SoftwareAp {
    pub fn new(homog: &HomogeneousAutomaton) -> SoftwareAp {
        let m = homog.to_matrices();
        let n = m.state_count();
        let succ = (0..n).map(|p| m.r.row(p).ones().collect()).collect();
        let matches: Vec<_> = (0..256).map(|b| m.v.row(b).clone()).collect();
        let pick = |enabled: &memcim_bits::BitVec| -> Vec<Vec<usize>> {
            (0..256).map(|b| enabled.ones().filter(|&q| matches[b].get(q)).collect()).collect()
        };
        let starts = pick(&m.all_input);
        let mut first = m.all_input.clone();
        first.or_assign(&m.start_of_input);
        let first_starts = pick(&first);
        let accept = (0..n).map(|q| m.accept.get(q)).collect();
        SoftwareAp { succ, matches, starts, first_starts, accept }
    }

    /// `(position, accept state)` for every accept-state activation.
    pub fn run(&self, input: &[u8]) -> Vec<(usize, usize)> {
        let n = self.accept.len();
        let mut mark = vec![usize::MAX; n];
        let (mut active, mut next) = (Vec::new(), Vec::new());
        let mut events = Vec::new();
        for (pos, &byte) in input.iter().enumerate() {
            let row = &self.matches[byte as usize];
            next.clear();
            let starts = if pos == 0 { &self.first_starts } else { &self.starts };
            for &q in &starts[byte as usize] {
                if mark[q] != pos {
                    mark[q] = pos;
                    next.push(q);
                }
            }
            for &p in &active {
                for &q in &self.succ[p] {
                    if mark[q] != pos && row.get(q) {
                        mark[q] = pos;
                        next.push(q);
                    }
                }
            }
            events.extend(next.iter().filter(|&&q| self.accept[q]).map(|&q| (pos, q)));
            std::mem::swap(&mut active, &mut next);
        }
        events
    }
}

/// One pattern set with its lifecycle input and reference answers.
pub struct ApSet {
    pub patterns: Vec<String>,
    pub compiled: PatternSet,
    /// `frames[f][lane]`: the chunk lane `lane` receives in frame `f`.
    pub frames: Vec<Vec<Vec<u8>>>,
    /// Per lane: sorted `(end position, pattern)` matches of the whole
    /// lane stream.
    pub expect: Vec<Vec<(usize, usize)>>,
    pub lane_len: usize,
}

impl ApSet {
    fn generate(rng: &mut SmallRng, patterns: Vec<String>, chunk: usize) -> ApSet {
        let refs: Vec<&str> = patterns.iter().map(String::as_str).collect();
        let compiled = PatternSet::compile(&refs).expect("synthetic rules compile");
        let (homog, owner) = served_automaton(&compiled);
        let soft = SoftwareAp::new(&homog);
        let lane_len = chunk * FRAMES;
        let lanes: Vec<Vec<u8>> = (0..LANES)
            .map(|_| rules::synthetic_traffic(rng, compiled.patterns(), lane_len, lane_len / 1_024))
            .collect();
        let expect = lanes
            .iter()
            .map(|lane| {
                let mut m: Vec<(usize, usize)> = soft
                    .run(lane)
                    .into_iter()
                    .filter_map(|(pos, q)| owner.get(&q).map(|&p| (pos, p)))
                    .collect();
                m.sort_unstable();
                m
            })
            .collect();
        let frames = (0..FRAMES)
            .map(|f| lanes.iter().map(|lane| lane[f * chunk..(f + 1) * chunk].to_vec()).collect())
            .collect();
        ApSet { patterns, compiled, frames, expect, lane_len }
    }

    pub fn symbols(&self) -> u64 {
        (self.lane_len * LANES) as u64
    }

    fn refs(&self) -> Vec<&str> {
        self.patterns.iter().map(String::as_str).collect()
    }
}

pub struct ApScan {
    /// Per tenant: hot sets, then fresh sets.
    tenants: Vec<(Vec<ApSet>, Vec<ApSet>)>,
}

impl ApScan {
    pub fn generate(seed: u64, clients: usize, sizes: ApSizes) -> ApScan {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut seen = HashSet::new();
        let mut draw = |rng: &mut SmallRng| loop {
            let patterns = rules::synthetic_rules(rng, RULES);
            if seen.insert(patterns.clone()) {
                return ApSet::generate(rng, patterns, sizes.chunk);
            }
        };
        let tenants = (0..clients)
            .map(|_| {
                let hot = (0..HOT).map(|_| draw(&mut rng)).collect();
                let fresh = (0..sizes.fresh).map(|_| draw(&mut rng)).collect();
                (hot, fresh)
            })
            .collect();
        ApScan { tenants }
    }

    /// Lifecycle `k` of a tenant: the fourth of every four opens the
    /// next fresh set, the others the next hot one.
    pub fn lifecycle(&self, client: usize, k: usize) -> &ApSet {
        let (hot, fresh) = &self.tenants[client];
        if k % 4 == 3 {
            &fresh[(k / 4) % fresh.len()]
        } else {
            &hot[(3 * (k / 4) + k % 4) % hot.len()]
        }
    }

    fn run_lifecycle(
        &self,
        i: usize,
        k: usize,
        client: &mut NetClient,
        log: &mut TenantLog,
    ) -> bool {
        let set = self.lifecycle(i, k);
        let refs = set.refs();
        let Some((session, ns)) = log.call("client.ap_open", || client.ap_open(&refs)) else {
            return false;
        };
        log.open_ns.push(ns);
        for (f, chunks) in set.frames.iter().enumerate() {
            let Some((reports, ns)) =
                log.call("client.ap_feed_many", || client.ap_feed_many(session, chunks))
            else {
                return false;
            };
            if !log.check(reports.len() == LANES, || {
                format!("frame {f} reported {} lanes", reports.len())
            }) {
                return false;
            }
            log.main_done(ns);
        }
        let Some((runs, _)) = log.call("client.ap_finish_many", || client.ap_finish_many(session))
        else {
            return false;
        };
        let ok = runs.len() == LANES
            && runs.iter().zip(&set.expect).all(|(run, expect)| {
                let mut got = run.matches.clone();
                got.sort_unstable();
                run.symbols == set.lane_len as u64 && got == *expect
            });
        if !log.check(ok, || {
            format!("tenant {i} lifecycle {k}: lane matches differ from the software run")
        }) {
            return false;
        }
        if log.call("client.ap_close", || client.ap_close(session)).is_none() {
            return false;
        }
        log.units += set.symbols();
        true
    }

    fn probe_sets(&self) -> Vec<&ApSet> {
        let (hot, fresh) = &self.tenants[0];
        hot.iter().chain(fresh.iter().take(2)).collect()
    }
}

impl Workload for ApScan {
    /// The next lifecycle number.
    type Tenant = usize;

    fn name(&self) -> &'static str {
        "ap_scan"
    }

    fn serve_config(&self) -> ServeConfig {
        ServeConfig::default().with_workers(crate::harness::WORKERS)
    }

    /// Compiles the tenant's hot sets into the server's compile cache.
    fn prime(&self, i: usize, client: &mut NetClient) -> Result<usize, String> {
        for set in &self.tenants[i].0 {
            let session = client.ap_open(&set.refs()).map_err(|e| format!("priming open: {e}"))?;
            client.ap_close(session).map_err(|e| format!("priming close: {e}"))?;
        }
        Ok(0)
    }

    fn drive(
        &self,
        i: usize,
        next: &mut usize,
        client: &mut NetClient,
        stop: Stop,
        log: &mut TenantLog,
    ) {
        while !stop.done(log) {
            let k = *next;
            *next += 1;
            // A failed lifecycle leaves the session in an unknown state:
            // stop this connection rather than cascade.
            if !self.run_lifecycle(i, k, client, log) {
                return;
            }
        }
    }

    fn release(&self, _state: usize, _client: &mut NetClient) {}

    fn replay_ops(&self) -> u64 {
        REPLAY_LIFECYCLES * FRAMES as u64
    }

    fn modeled(&self, usage: &WireUsage) -> (f64, f64) {
        (usage.ap_energy.as_joules(), usage.ap_busy.as_seconds())
    }
}

/// Sequential probes of the AP, automata, serve and net layers on the
/// workload's own pattern sets and lane slices.
pub fn probe(w: &ApScan, stack: &Stack, m: &mut Metrics) -> Result<(), String> {
    let sets = w.probe_sets();
    let n = sets.len() as f64;
    let (mut parse, mut homog_us, mut routing, mut stamp, mut multi, mut single) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut states, mut matches, mut symbols) = (0.0, 0usize, 0u64);
    for set in &sets {
        let refs = set.refs();
        parse += median_us(5, || PatternSet::compile(&refs).expect("compiles")).0;
        let (us, (homog, _)) = median_us(5, || served_automaton(&set.compiled));
        homog_us += us;
        let (us, processor) = median_us(5, || {
            AutomataProcessor::compile(&homog, ApBackend::rram(), RoutingKind::cache_automaton())
                .or_else(|_| {
                    AutomataProcessor::compile(&homog, ApBackend::rram(), RoutingKind::Dense)
                })
                .expect("the automaton maps")
        });
        routing += us;
        stamp += median_us(25, || processor.multi_stream(1)).0;
        states += processor.state_count() as f64;
        // Like for like: the same lane slices, through 8 lanes in one
        // feed_many per frame, and lane after lane through one engine.
        let mut lanes = processor.multi_stream(LANES);
        let mut one = processor.clone();
        let (mut multi_t, mut single_t) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            multi_t.push(
                median_us(1, || {
                    for chunks in &set.frames {
                        std::hint::black_box(lanes.feed_many(chunks));
                    }
                    lanes.finish_all()
                })
                .0,
            );
            single_t.push(
                median_us(1, || {
                    for lane in 0..LANES {
                        one.reset();
                        for chunks in &set.frames {
                            std::hint::black_box(one.feed(&chunks[lane]));
                        }
                        std::hint::black_box(one.finish());
                    }
                })
                .0,
            );
        }
        let per_symbol = 1e3 / set.symbols() as f64;
        multi += crate::stats::median(&multi_t) * per_symbol;
        single += crate::stats::median(&single_t) * per_symbol;
        matches += set.expect.iter().map(Vec::len).sum::<usize>();
        symbols += set.symbols();
    }
    m.set("automata.parse_us", parse / n);
    m.set("automata.homogeneous_us", homog_us / n);
    m.set("ap.routing_compile_us", routing / n);
    m.set("ap.stamp_us", stamp / n);
    m.set("ap.multi_ns_per_symbol", multi / n);
    m.set("ap.single_ns_per_symbol", single / n);
    m.set("ap.states", states / n);
    m.set("ap.matches_per_ksymbol", matches as f64 * 1e3 / symbols as f64);

    // Warm in-process opens of a hot set.
    let hot = sets[0].refs();
    let service = &stack.service;
    let open = || -> Result<u64, String> {
        let (id, _) = service
            .open_session_info(PROBE_TENANT, &hot)
            .map_err(|e| format!("probe open: {e}"))?;
        Ok(id)
    };
    service.close_session(PROBE_TENANT, open()?).map_err(|e| e.to_string())?;
    let mut opens = Vec::new();
    for _ in 0..25 {
        let start = Instant::now();
        let id = open()?;
        opens.push(start.elapsed().as_secs_f64() * 1e6);
        service.close_session(PROBE_TENANT, id).map_err(|e| e.to_string())?;
    }
    m.set("serve.open_us", crate::stats::median(&opens));

    // One lifecycle's frames, four times, each frame over the wire and
    // then in process.
    let t = tracer();
    let set = sets[0];
    let mut client = stack.connect(PROBE_TENANT)?;
    let wire_session = client.ap_open(&hot).map_err(|e| format!("probe open: {e}"))?;
    let local_session = open()?;
    let (mut wire, mut jobs, mut frames) = (Vec::new(), Vec::new(), Vec::new());
    t.set_recording(true);
    for round in 0..4u64 {
        for (f, chunks) in set.frames.iter().enumerate() {
            let id = 2 * (round * FRAMES as u64 + f as u64) + 1;
            let request = Request::ApFeedMany { session: wire_session, chunks: chunks.clone() };
            let (response, span) =
                t.span("probe.wire.ap_feed_many", 0, id, || client.request(&request));
            wire.push(span);
            frames.push((request, response.map_err(|e| format!("probe feed: {e}"))?));
            let job = Job::ApFeedMany { session: local_session, chunks: chunks.clone() };
            let (out, span) = t.span("probe.serve.ap_feed_many", 0, id + 1, || {
                service.submit(PROBE_TENANT, job)?.wait()
            });
            out.map_err(|e| format!("probe in-process feed: {e}"))?;
            jobs.push(span);
        }
        client.ap_finish_many(wire_session).map_err(|e| format!("probe finish: {e}"))?;
        service
            .submit(PROBE_TENANT, Job::ApFinishMany { session: local_session })
            .and_then(|t| t.wait())
            .map_err(|e| format!("probe in-process finish: {e}"))?;
    }
    t.set_recording(false);
    client.ap_close(wire_session).map_err(|e| format!("probe close: {e}"))?;
    service.close_session(PROBE_TENANT, local_session).map_err(|e| e.to_string())?;
    let spans = t.spans();
    probes::crossbar_metrics(&spans, &wire, m);
    let (job_us, self_us) = probes::call_and_self_us(&spans, &jobs);
    m.set("serve.job_us", job_us);
    m.set("serve.self_us", self_us);
    m.set("net.overhead_us", probes::net_overhead_us(&wire, &jobs));
    probes::codec_metrics(&frames, m)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The software run agrees with the library's bit-parallel reference
    /// on every accept position.
    #[test]
    fn software_run_matches_the_matrix_reference() {
        let mut rng = SmallRng::seed_from_u64(7);
        let patterns = rules::synthetic_rules(&mut rng, RULES);
        let refs: Vec<&str> = patterns.iter().map(String::as_str).collect();
        let set = PatternSet::compile(&refs).expect("compiles");
        let (homog, _) = served_automaton(&set);
        let input = rules::synthetic_traffic(&mut rng, set.patterns(), 4_096, 16);
        let mut positions: Vec<usize> =
            SoftwareAp::new(&homog).run(&input).into_iter().map(|(pos, _)| pos).collect();
        positions.dedup();
        assert!(!positions.is_empty(), "the planted matches fire");
        assert_eq!(positions, homog.run(&input).accept_positions);
    }
}
