//! `bitmap_query`: one `Submit` of one bitmap-query program per request
//! against a 2,048-record table striped over 64 banks, unsharded.
//!
//! Why: the crossbar does most of the work (program_row, scouting_write
//! and read_row, write-heavy), and the engine work per request is the
//! smallest of the three workloads, so serve and net overhead shows here
//! first. Query shapes take 1–3 values per column, from AND-only to
//! OR-heavy programs; every pool cycles through the nine shapes in turn,
//! so the work mix is the same for every seed and only the values drawn
//! differ. Every other request repeats one of nine hot queries exactly
//! (verify-cache hits); the rest cycle through 126 fresh queries per
//! tenant, more than the verify cache holds, so they miss. Stresses:
//! net, serve (admission, verify cache, coalescing, ledger), MVP,
//! crossbar. Bypasses: AP, automata, placement.

use crate::harness::{median_us, Stack, Stop, TenantLog, Workload, PROBE_TENANT};
use crate::probes;
use crate::report::Metrics;
use crate::trace::tracer;
use memcim_bits::BitVec;
use memcim_mvp::workloads::bitmap::BitmapTable;
use memcim_mvp::{BatchRequest, Instruction, MvpSimulator};
use memcim_serve::net::{NetClient, Request, Response, WireUsage};
use memcim_serve::{Job, ServeConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

pub const RECORDS: usize = 2_048;
pub const ROWS: usize = 32;
pub const BANKS: usize = 64;
pub const BANK_COLS: usize = RECORDS / BANKS;
/// Set sizes per column: every combination of 1–3 values in each.
const SHAPES: usize = 9;
const HOT: usize = SHAPES;
/// Fresh queries per tenant: whole rounds of the shapes, more than the
/// server's 64-entry verify cache.
pub const FRESH: usize = 14 * SHAPES;

/// One query with its program and reference answer.
pub struct Query {
    pub plan: Vec<Instruction>,
    pub expect: BitVec,
}

pub struct Bitmap {
    /// Per tenant: the hot queries, then the fresh ones.
    queries: Vec<(Vec<Query>, Vec<Query>)>,
    /// Corrupts the first reference answer (self-test of the gate).
    pub inject_wrong_answer: bool,
}

fn distinct_values(rng: &mut SmallRng, len: usize, cardinality: u8) -> Vec<u8> {
    let mut set = Vec::with_capacity(len);
    while set.len() < len {
        let v = rng.gen_range(0..cardinality);
        if !set.contains(&v) {
            set.push(v);
        }
    }
    set.sort_unstable();
    set
}

impl Bitmap {
    /// The table and every tenant's query pool, from `seed`. `fresh`
    /// is the per-tenant count of non-repeating queries, a multiple of
    /// the nine shapes ([`FRESH`] in full runs).
    pub fn generate(seed: u64, clients: usize, fresh: usize) -> Bitmap {
        let mut rng = SmallRng::seed_from_u64(seed);
        let col1: Vec<u8> = (0..RECORDS).map(|_| rng.gen_range(0..16)).collect();
        let col2: Vec<u8> = (0..RECORDS).map(|_| rng.gen_range(0..8)).collect();
        let table = BitmapTable::new(col1, col2, 16).expect("well-formed columns");
        let queries = (0..clients)
            .map(|_| {
                let mut seen = HashSet::new();
                let mut draw = |count: usize| -> Vec<Query> {
                    let mut out = Vec::with_capacity(count);
                    while out.len() < count {
                        let shape = out.len() % SHAPES;
                        let s1 = distinct_values(&mut rng, 1 + shape / 3, 16);
                        let s2 = distinct_values(&mut rng, 1 + shape % 3, 8);
                        if seen.insert((s1.clone(), s2.clone())) {
                            out.push(Query {
                                plan: table.query_plan(&s1, &s2),
                                expect: table.query_reference(&s1, &s2),
                            });
                        }
                    }
                    out
                };
                let hot = draw(HOT);
                (hot, draw(fresh))
            })
            .collect();
        Bitmap { queries, inject_wrong_answer: false }
    }

    /// Request `k` of a tenant: even requests repeat a hot query, odd
    /// ones walk the fresh pool.
    pub fn query(&self, client: usize, k: usize) -> &Query {
        let (hot, fresh) = &self.queries[client];
        if k.is_multiple_of(2) {
            &hot[(k / 2) % hot.len()]
        } else {
            &fresh[(k / 2) % fresh.len()]
        }
    }

    /// The probe requests: tenant 0's first `n` requests.
    fn probe_queries(&self, n: usize) -> Vec<&Query> {
        (0..n).map(|k| self.query(0, k)).collect()
    }
}

impl Workload for Bitmap {
    type Tenant = usize;

    fn name(&self) -> &'static str {
        "bitmap_query"
    }

    fn serve_config(&self) -> ServeConfig {
        ServeConfig::default()
            .with_workers(crate::harness::WORKERS)
            .with_mvp_geometry(ROWS, BANKS, BANK_COLS)
    }

    fn prime(&self, _client_index: usize, _client: &mut NetClient) -> Result<usize, String> {
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
            let query = self.query(i, k);
            let request = Request::Submit { programs: vec![query.plan.clone()] };
            let Some((response, ns)) = log.call("client.submit", || client.request(&request))
            else {
                continue;
            };
            let Response::Mvp(result) = response else {
                log.check(false, || "Submit answered with another verb".into());
                continue;
            };
            let corrupt = self.inject_wrong_answer && i == 0 && k == 0;
            let got = result.outputs.first().and_then(|reads| reads.last());
            let ok = got.is_some_and(|v| (*v == query.expect) != corrupt);
            if log.check(ok, || format!("tenant {i} query {k}: result differs from the reference"))
            {
                log.main_done(ns);
                log.units += 1;
                log.burst_jobs += result.jobs;
            }
        }
    }

    fn release(&self, _state: usize, _client: &mut NetClient) {}

    /// Every hot repeat and every fresh query once.
    fn replay_ops(&self) -> u64 {
        2 * self.queries[0].1.len() as u64
    }

    fn modeled(&self, usage: &WireUsage) -> (f64, f64) {
        (usage.mvp_energy.as_joules(), usage.mvp_busy.as_seconds())
    }
}

/// Sequential probes of every layer a query crosses, on `stack` (built
/// with the traced engine factory, closed loop finished).
pub fn probe(w: &Bitmap, stack: &Stack, m: &mut Metrics) -> Result<(), String> {
    let t = tracer();
    let queries = w.probe_queries(64);
    let width = RECORDS;

    // Engine on its own: the same program on a local engine of the
    // served geometry.
    let mut engine = MvpSimulator::banked(ROWS, BANKS, BANK_COLS);
    let batches: Vec<BatchRequest> = queries
        .iter()
        .map(|q| {
            let mut b = BatchRequest::new();
            b.push(q.plan.clone());
            b
        })
        .collect();
    let (run_us, _) = median_us(5, || {
        for b in &batches {
            engine.run_batch(b).expect("the query runs on a local engine");
        }
    });
    m.set("mvp.run_us", run_us / queries.len() as f64);

    let cost = memcim_verify::CostModel::banked(ROWS, BANKS, BANK_COLS);
    let (verify_us, _) = median_us(5, || {
        for q in &queries {
            std::hint::black_box(memcim_verify::verify_program(&q.plan, ROWS, width));
            std::hint::black_box(cost.bound(&q.plan));
        }
    });
    m.set("verify.program_us", verify_us / queries.len() as f64);

    // Each request over the wire and then in process, one at a time.
    let mut client = stack.connect(PROBE_TENANT)?;
    let (mut wire, mut jobs, mut frames) = (Vec::new(), Vec::new(), Vec::new());
    t.set_recording(true);
    for (k, q) in queries.iter().enumerate() {
        let request = Request::Submit { programs: vec![q.plan.clone()] };
        let id = 2 * k as u64 + 1;
        let (response, span) = t.span("probe.wire.submit", 0, id, || client.request(&request));
        wire.push(span);
        frames.push((request, response.map_err(|e| format!("probe submit: {e}"))?));
        let (out, span) = t.span("probe.serve.submit", 0, id + 1, || {
            stack.service.submit(PROBE_TENANT, Job::MvpProgram(q.plan.clone()))?.wait()
        });
        out.map_err(|e| format!("probe in-process submit: {e}"))?;
        jobs.push(span);
    }
    t.set_recording(false);
    let spans = t.spans();
    probes::crossbar_metrics(&spans, &wire, m);
    let (job_us, self_us) = probes::call_and_self_us(&spans, &jobs);
    m.set("serve.job_us", job_us);
    m.set("serve.self_us", self_us);
    m.set("net.overhead_us", probes::net_overhead_us(&wire, &jobs));
    probes::codec_metrics(&frames, m)
}
