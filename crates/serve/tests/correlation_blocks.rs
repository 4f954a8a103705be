//! Correlation windows served as time blocks: a window up to five
//! engines wide is cut into column blocks at most one engine wide, each
//! block runs the monolithic feed plan as its own engine job, and the
//! block scores add. Pinned through an unsharded service and a 4 × 2
//! placement service against the software reference, the books (events
//! billed once, one MVP job per block), a local engine replaying the
//! same block plans (energy and busy bits, blocks of one lane back to
//! back), and a block whose replicas are all dead.

use memcim_bits::BitVec;
use memcim_crossbar::{
    BankedCrossbar, CrossbarBackend, CrossbarError, OpLedger, RemapEntry, ScoutingKind,
};
use memcim_mvp::correlation::{
    correlation_reference, CorrelationAccumulator, CorrelationConfig, EventStreams,
};
use memcim_mvp::{BatchRequest, MvpSimulator};
use memcim_serve::{BoxedBackend, ServeConfig, ServeError, Service, SessionId, TenantUsage};
use memcim_units::{Joules, Seconds};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const ROWS: usize = 16;
const BANKS: usize = 2;
const BANK_COLS: usize = 32;
const WIDTH: usize = BANKS * BANK_COLS;
const STREAMS: usize = 6;
const TENANT: u64 = 7;
/// Window widths of one stream, from one column to five engines (so
/// two blocks of one window share a shard of four).
const WINDOWS: [usize; 10] = [64, 1, 100, 256, 200, 65, 130, 3, 320, 192];

/// A substrate that fails every operation once its worker's kill switch
/// flips.
struct Killable {
    inner: BankedCrossbar,
    switches: Arc<Vec<AtomicBool>>,
    worker: usize,
}

impl Killable {
    fn check(&self) -> Result<(), CrossbarError> {
        if self.switches[self.worker].load(Ordering::SeqCst) {
            Err(CrossbarError::ExhaustedSpares { row: 0, spares: 0 })
        } else {
            Ok(())
        }
    }
}

impl CrossbarBackend for Killable {
    fn rows(&self) -> usize {
        self.inner.rows()
    }
    fn cols(&self) -> usize {
        self.inner.cols()
    }
    fn program_row(&mut self, row: usize, values: &BitVec) -> Result<u64, CrossbarError> {
        self.check()?;
        self.inner.program_row(row, values)
    }
    fn read_row(&mut self, row: usize) -> Result<BitVec, CrossbarError> {
        self.check()?;
        self.inner.read_row(row)
    }
    fn scouting(&mut self, kind: ScoutingKind, rows: &[usize]) -> Result<BitVec, CrossbarError> {
        self.check()?;
        self.inner.scouting(kind, rows)
    }
    fn scouting_write(
        &mut self,
        kind: ScoutingKind,
        rows: &[usize],
        dest: usize,
    ) -> Result<BitVec, CrossbarError> {
        self.check()?;
        self.inner.scouting_write(kind, rows, dest)
    }
    fn ledger_parts(&self) -> Vec<OpLedger> {
        self.inner.ledger_parts()
    }
    fn remap_table(&self) -> Vec<RemapEntry> {
        self.inner.remap_table()
    }
}

fn corpus(seed: u64) -> EventStreams {
    let cfg = CorrelationConfig {
        streams: STREAMS,
        steps: WINDOWS.iter().sum(),
        rate: 0.3,
        strength: 0.9,
        groups: vec![vec![0, 3], vec![1, 4, 5]],
    };
    EventStreams::synthesize(&cfg, seed).expect("well-formed corpus")
}

/// The served geometry with a kill switch per worker.
fn config(workers: usize, switches: &Arc<Vec<AtomicBool>>) -> ServeConfig {
    let switches = Arc::clone(switches);
    ServeConfig::default()
        .with_workers(workers)
        .with_mvp_geometry(ROWS, BANKS, BANK_COLS)
        .with_engine_factory(move |worker| -> BoxedBackend {
            Box::new(Killable {
                inner: BankedCrossbar::rram(ROWS, BANKS, BANK_COLS),
                switches: Arc::clone(&switches),
                worker,
            })
        })
}

fn usage(service: &Service) -> TenantUsage {
    service.tenant_usage(TENANT).unwrap_or_default()
}

/// Streams the corpus through `service` window by window, replaying
/// every block plan on a local engine per worker, and checks scores,
/// bills and the per-feed ledger. `lane_of(session, block)` names the
/// lane a block queues on (blocks of one lane run back to back, lanes
/// in parallel) and `worker_of(lane, window)` the worker that serves
/// it. Returns the open session.
fn stream_and_check(
    service: &Service,
    events: &EventStreams,
    lane_of: impl Fn(SessionId, usize) -> usize,
    worker_of: impl Fn(usize, usize) -> usize,
) -> SessionId {
    let planner = CorrelationAccumulator::new(STREAMS).expect("enough streams");
    let workers = service.worker_count();
    let mut engines: Vec<_> =
        (0..workers).map(|_| MvpSimulator::banked(ROWS, BANKS, BANK_COLS)).collect();
    let session = service.open_corr_session(TENANT, STREAMS, 0).expect("opens");
    let (mut energy, mut busy) = (Joules::ZERO, Seconds::ZERO);
    let mut lo = 0;
    for (feed, &w) in WINDOWS.iter().enumerate() {
        let window = events.window(lo..lo + w).expect("in corpus");
        lo += w;
        let before = usage(service);
        let report = service.corr_feed(TENANT, session, &window).expect("feeds");
        let after = usage(service);

        let blocks = planner.block_plans(&window, WIDTH).expect("blocks");
        assert_eq!(blocks.len(), w.div_ceil(WIDTH), "window {feed}: ⌈{w} / {WIDTH}⌉ blocks");
        assert_eq!(after.mvp_jobs - before.mvp_jobs, blocks.len() as u64, "one job per block");
        assert_eq!(after.corr_events - before.corr_events, (STREAMS * w) as u64);
        assert_eq!(report.events, (STREAMS * lo) as u64, "cumulative stream-slots");

        let mut lanes: Vec<OpLedger> = Vec::new();
        let mut serial = OpLedger::new();
        for (k, (_, plan)) in blocks.into_iter().enumerate() {
            let lane = lane_of(session, k);
            let engine = &mut engines[worker_of(lane, feed)];
            let run = engine.run_batch(&BatchRequest::new().with_program(plan)).expect("runs");
            if lanes.len() <= lane {
                lanes.resize(lane + 1, OpLedger::new());
            }
            lanes[lane].merge_serial(&run.ledger);
            serial.merge_serial(&run.ledger);
        }
        let mut feed_ledger = OpLedger::new();
        for lane in &lanes {
            feed_ledger.merge_parallel(lane);
        }
        energy += feed_ledger.energy();
        busy += feed_ledger.busy_time();
        assert_eq!(
            report.energy.as_joules().to_bits(),
            energy.as_joules().to_bits(),
            "window {feed}: energy of the local block replay"
        );
        assert_eq!(
            report.busy.as_seconds().to_bits(),
            busy.as_seconds().to_bits(),
            "window {feed}: busy time of the local block replay"
        );
        let billed = after.mvp.delta_since(&before.mvp);
        assert_eq!(
            billed.scouting_ops(),
            serial.scouting_ops(),
            "window {feed}: no popcount twice"
        );
        assert_eq!(billed.reads(), serial.reads());
        assert_eq!(billed.programs(), serial.programs());
        let drift = (billed.energy().as_joules() - serial.energy().as_joules()).abs();
        assert!(drift <= 1e-9 * serial.energy().as_joules(), "window {feed}: billed energy");
    }
    session
}

fn finish_and_check(service: &Service, session: SessionId, events: &EventStreams) {
    let steps = events.steps();
    let outcome = service.corr_finish(TENANT, session).expect("finishes");
    assert_eq!(outcome.scores, correlation_reference(events.data()).expect("reference"));
    assert_eq!(outcome.events, (STREAMS * steps) as u64);
    let bill = usage(service);
    assert_eq!(bill.corr_events, (STREAMS * steps) as u64, "every stream-slot billed once");
    assert_eq!(bill.corr_jobs, WINDOWS.len() as u64 + 1, "feeds + finish");
}

#[test]
fn unsharded_blocks_add_up_to_the_reference() {
    for seed in [2018, 2019] {
        let events = corpus(seed);
        let switches = Arc::new(vec![AtomicBool::new(false)]);
        // One worker: every block runs, in order, on the one engine.
        let service = Service::start(config(1, &switches));
        let session = stream_and_check(&service, &events, |_, _| 0, |_, _| 0);
        finish_and_check(&service, session, &events);
        service.shutdown();
    }
}

#[test]
fn placed_blocks_add_up_and_a_dead_block_leaves_no_trace() {
    const SHARDS: usize = 4;
    const REPLICAS: usize = 2;
    let events = corpus(2018);
    let switches: Arc<Vec<AtomicBool>> = Arc::new((0..4).map(|_| AtomicBool::new(false)).collect());
    let service = Service::start(config(4, &switches).with_placement(SHARDS, REPLICAS));
    let catalog = service.placement().expect("placement configured");
    // Block k of session s goes to shard (s + k) mod 4; each window of
    // the session starts one replica further on.
    let session = stream_and_check(
        &service,
        &events,
        |session, block| (session as usize + block) % SHARDS,
        |shard, window| catalog.replicas_of(shard)[window % REPLICAS],
    );
    assert_eq!(session, 0, "the service's first session starts on shard 0");

    // Kill both replicas of shard 1: any window of session 0 with a
    // block 1 fails typed and changes nothing.
    for &worker in catalog.replicas_of(1) {
        switches[worker].store(true, Ordering::SeqCst);
    }
    let wide = events.window(0..2 * WIDTH).expect("in corpus");
    let before = usage(&service);
    match service.corr_feed(TENANT, session, &wide) {
        Err(ServeError::ShardUnavailable { shard: 1 }) => {}
        other => panic!("expected ShardUnavailable for shard 1, got {other:?}"),
    }
    assert_eq!(usage(&service).corr_events, before.corr_events, "the failed feed billed no events");
    finish_and_check(&service, session, &events);
    assert_eq!(service.unavailable_shards(), 1);

    // The next sessions start one shard further on: session 1's
    // one-block window meets the dead shard, session 2's a live one.
    let narrow = events.window(0..WIDTH).expect("in corpus");
    let on_dead = service.open_corr_session(TENANT + 1, STREAMS, 0).expect("opens");
    let on_live = service.open_corr_session(TENANT + 1, STREAMS, 0).expect("opens");
    assert_eq!((on_dead, on_live), (1, 2));
    match service.corr_feed(TENANT + 1, on_dead, &narrow) {
        Err(ServeError::ShardUnavailable { shard: 1 }) => {}
        other => panic!("expected ShardUnavailable for shard 1, got {other:?}"),
    }
    service.corr_feed(TENANT + 1, on_live, &narrow).expect("shard 2 still serves");
    let outcome = service.corr_finish(TENANT + 1, on_live).expect("finishes");
    assert_eq!(outcome.scores, correlation_reference(&narrow).expect("reference"));
    service.shutdown();
}
