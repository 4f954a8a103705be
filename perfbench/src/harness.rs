//! The closed-loop driver shared by every workload: a live `NetServer`
//! over a 2-worker `Service`, one connection and one tenant per client
//! thread, every answer checked against its reference.

use crate::stats::{median, percentile};
use crate::trace::{now_ns, tracer};
use memcim_serve::net::{
    ClientError, NetClient, NetConfig, NetServer, Request, Response, TenantPolicy, WireStats,
    WireUsage,
};
use memcim_serve::{ServeConfig, Service, TenantId};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client threads, connections and tenants of every workload.
pub const CLIENTS: usize = 2;
/// Worker threads (each owning one engine) of every served stack.
pub const WORKERS: usize = 2;
/// The tenant the in-process and sequential wire probes act as; it is
/// never one of the closed-loop tenants, so their bills stay clean.
pub const PROBE_TENANT: TenantId = 100;

/// The closed-loop tenants' ids.
pub fn tenant_id(client: usize) -> TenantId {
    client as TenantId + 1
}

fn token(tenant: TenantId) -> String {
    format!("perfbench-tenant-{tenant}")
}

/// A running service with its wire front door.
pub struct Stack {
    pub service: Arc<Service>,
    pub server: NetServer,
}

impl Stack {
    /// Starts the service and server and provisions the closed-loop
    /// tenants plus the probe tenant.
    pub fn start(config: ServeConfig) -> Result<Stack, String> {
        let service = Arc::new(Service::try_start(config).map_err(|e| format!("service: {e}"))?);
        let mut net = NetConfig::default();
        for tenant in (0..CLIENTS).map(tenant_id).chain([PROBE_TENANT]) {
            net = net.with_tenant(tenant, TenantPolicy::new(token(tenant)));
        }
        let server =
            NetServer::start(Arc::clone(&service), net).map_err(|e| format!("server: {e}"))?;
        Ok(Stack { service, server })
    }

    /// An authenticated connection acting as `tenant`.
    pub fn connect(&self, tenant: TenantId) -> Result<NetClient, String> {
        let mut client = NetClient::connect(self.server.local_addr())
            .map_err(|e| format!("connect: {e}"))?
            .with_timeouts(Some(Duration::from_secs(60)), Some(Duration::from_secs(60)));
        client.hello(tenant, &token(tenant)).map_err(|e| format!("hello: {e}"))?;
        Ok(client)
    }

    pub fn shutdown(self) {
        self.server.shutdown();
        if let Ok(service) = Arc::try_unwrap(self.service) {
            service.shutdown();
        }
    }
}

/// When a connection's loop ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At the first request boundary after this instant.
    At(Instant),
    /// Once this many main-verb requests are done.
    AfterOps(u64),
}

impl Stop {
    pub fn done(&self, log: &TenantLog) -> bool {
        match self {
            Stop::At(deadline) => Instant::now() >= *deadline,
            Stop::AfterOps(ops) => log.ops >= *ops,
        }
    }
}

/// What one client thread observed.
#[derive(Debug, Default)]
pub struct TenantLog {
    /// Round trips of the main verb, ns.
    pub main_ns: Vec<u64>,
    /// When each of those round trips ended, ns on the trace clock.
    pub main_end_ns: Vec<u64>,
    /// Round trips of `ApOpen`, ns.
    pub open_ns: Vec<u64>,
    /// Workload units completed and checked.
    pub units: u64,
    /// Main-verb requests completed and checked.
    pub ops: u64,
    /// Requests sent, every verb.
    pub attempted: u64,
    /// Requests that failed, were refused, or answered wrongly.
    pub failed: u64,
    pub wrong_answers: u64,
    /// Typed refusals by error code.
    pub refusals: BTreeMap<String, u64>,
    pub first_error: Option<String>,
    /// Sum of the `jobs` of every burst a `Submit` rode in.
    pub burst_jobs: u64,
    /// Record each request as a span.
    pub traced: bool,
    /// Request ids: tenant in the high bits, sequence number below.
    pub request_base: u64,
    next_request: u64,
}

impl TenantLog {
    pub fn new(client: usize, traced: bool) -> Self {
        // Sample buffers are reserved up front: growing them by doubling
        // would make peak memory jump with the sample count. Untouched
        // reserved pages are not resident.
        const SAMPLES: usize = 1 << 21;
        Self {
            traced,
            request_base: tenant_id(client) << 40,
            main_ns: Vec::with_capacity(SAMPLES),
            main_end_ns: Vec::with_capacity(SAMPLES),
            ..Self::default()
        }
    }

    /// Sends one request, counting it and timing its round trip. A
    /// failure is logged and yields `None`.
    pub fn call<T>(
        &mut self,
        verb: &'static str,
        f: impl FnOnce() -> Result<T, ClientError>,
    ) -> Option<(T, u64)> {
        self.attempted += 1;
        self.next_request += 1;
        let start = now_ns();
        let result = f();
        let end = now_ns();
        if self.traced {
            tracer().record(verb, start, end, self.request_base | self.next_request);
        }
        match result {
            Ok(value) => Some((value, end - start)),
            Err(e) => {
                self.failed += 1;
                if let Some(code) = e.server_code() {
                    *self.refusals.entry(format!("{code:?}")).or_default() += 1;
                }
                self.note_error(format!("{verb}: {e}"));
                None
            }
        }
    }

    /// Records a checked main-verb round trip of `ns`.
    pub fn main_done(&mut self, ns: u64) {
        self.main_ns.push(ns);
        self.main_end_ns.push(now_ns());
        self.ops += 1;
    }

    /// Records a checked answer; a wrong one counts as a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failed += 1;
            self.wrong_answers += 1;
            self.note_error(format!("wrong answer: {}", what()));
        }
        ok
    }

    fn note_error(&mut self, message: String) {
        if self.first_error.is_none() {
            self.first_error = Some(message);
        }
    }
}

/// One workload as the harness drives it.
pub trait Workload: Sync {
    /// Per-connection state that priming produces.
    type Tenant: Send;

    fn name(&self) -> &'static str;

    fn serve_config(&self) -> ServeConfig;

    /// Setup work on a fresh connection: session opens and compiles the
    /// loop relies on being warm.
    fn prime(&self, client_index: usize, client: &mut NetClient) -> Result<Self::Tenant, String>;

    /// The closed loop of one connection until `stop`.
    fn drive(
        &self,
        client_index: usize,
        state: &mut Self::Tenant,
        client: &mut NetClient,
        stop: Stop,
        log: &mut TenantLog,
    );

    /// Main-verb requests per tenant in the replay that bills the
    /// modeled cost.
    fn replay_ops(&self) -> u64;

    /// The stack the replay runs on: one request at a time on one
    /// worker with no coalescing, so the engines see the same operations
    /// in the same order on every run.
    fn replay_config(&self) -> ServeConfig {
        self.serve_config().with_workers(1).with_max_burst(1)
    }

    /// Closes what `prime` opened.
    fn release(&self, state: Self::Tenant, client: &mut NetClient);

    /// Modeled energy (J) and engine busy time (s) of a bill.
    fn modeled(&self, usage: &WireUsage) -> (f64, f64);
}

/// A primed stack, ready for its closed loop.
pub struct Primed<W: Workload> {
    pub stack: Stack,
    pub clients: Vec<(NetClient, W::Tenant)>,
}

/// Builds and primes a stack; this is what `setup_s` times.
pub fn setup<W: Workload>(workload: &W, config: ServeConfig) -> Result<Primed<W>, String> {
    let stack = Stack::start(config)?;
    let mut clients = Vec::with_capacity(CLIENTS);
    for i in 0..CLIENTS {
        let mut client = stack.connect(tenant_id(i))?;
        let state = workload.prime(i, &mut client)?;
        clients.push((client, state));
    }
    Ok(Primed { stack, clients })
}

pub fn teardown<W: Workload>(workload: &W, primed: Primed<W>) {
    for (mut client, state) in primed.clients {
        workload.release(state, &mut client);
    }
    primed.stack.shutdown();
}

/// What one closed-loop phase observed.
pub struct Phase {
    /// Start of the loop on the trace clock.
    pub start_ns: u64,
    pub wall: Duration,
    /// CPU time of the whole process (every thread) over the loop.
    pub cpu: Duration,
    pub logs: Vec<TenantLog>,
    pub stats_before: WireStats,
    pub stats_after: WireStats,
}

fn stats(stack: &Stack) -> Result<WireStats, String> {
    let mut client = stack.connect(PROBE_TENANT)?;
    match client.request(&Request::Stats) {
        Ok(Response::Stats(stats)) => Ok(stats),
        Ok(_) => Err("stats: unexpected response".into()),
        Err(e) => Err(format!("stats: {e}")),
    }
}

/// Runs every connection's closed loop for `seconds`, one thread each.
pub fn closed_loop<W: Workload>(
    workload: &W,
    primed: &mut Primed<W>,
    seconds: f64,
    traced: bool,
) -> Result<Phase, String> {
    let stats_before = stats(&primed.stack)?;
    let cpu_before = process_cpu()?;
    let start_ns = now_ns();
    let started = Instant::now();
    let stop = Stop::At(started + Duration::from_secs_f64(seconds));
    let logs: Vec<TenantLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = primed
            .clients
            .iter_mut()
            .enumerate()
            .map(|(i, (client, state))| {
                scope.spawn(move || {
                    let mut log = TenantLog::new(i, traced);
                    workload.drive(i, state, client, stop, &mut log);
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread does not panic")).collect()
    });
    let wall = started.elapsed();
    let cpu = process_cpu()?.saturating_sub(cpu_before);
    let stats_after = stats(&primed.stack)?;
    Ok(Phase { start_ns, wall, cpu, logs, stats_before, stats_after })
}

impl Phase {
    pub fn attempted(&self) -> u64 {
        self.logs.iter().map(|l| l.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.logs.iter().map(|l| l.failed).sum()
    }

    pub fn units(&self) -> u64 {
        self.logs.iter().map(|l| l.units).sum()
    }

    pub fn units_per_s(&self) -> f64 {
        self.units() as f64 / self.wall.as_secs_f64()
    }

    pub fn sorted(&self, pick: impl Fn(&TenantLog) -> &Vec<u64>) -> Vec<u64> {
        let mut all: Vec<u64> = self.logs.iter().flat_map(|l| pick(l).iter().copied()).collect();
        all.sort_unstable();
        all
    }

    /// Memory the clients' latency samples hold, MiB.
    pub fn sample_mib(&self) -> f64 {
        let samples: usize =
            self.logs.iter().map(|l| l.main_ns.len() + l.main_end_ns.len() + l.open_ns.len()).sum();
        (samples * std::mem::size_of::<u64>()) as f64 / (1u64 << 20) as f64
    }

    pub fn main_ms(&self, p: f64) -> f64 {
        percentile(&self.sorted(|l| &l.main_ns), p) as f64 / 1e6
    }

    /// Main-verb completions per second in consecutive windows of
    /// `window_s`, the last partial window dropped.
    pub fn window_rates(&self, window_s: f64) -> Vec<f64> {
        let width = (window_s * 1e9) as u64;
        let windows = (self.wall.as_nanos() as u64 / width) as usize;
        let mut counts = vec![0u64; windows];
        for end in self.logs.iter().flat_map(|l| &l.main_end_ns) {
            if let Some(c) = counts.get_mut(((end - self.start_ns) / width) as usize) {
                *c += 1;
            }
        }
        counts.into_iter().map(|c| c as f64 / window_s).collect()
    }

    pub fn first_error(&self) -> Option<&str> {
        self.logs.iter().find_map(|l| l.first_error.as_deref())
    }

    pub fn refusals(&self) -> BTreeMap<String, u64> {
        let mut all = BTreeMap::new();
        for log in &self.logs {
            for (code, n) in &log.refusals {
                *all.entry(code.clone()).or_default() += n;
            }
        }
        all
    }
}

/// The modeled clock of a fixed request sequence: each tenant's first
/// `replay_ops` main-verb requests, tenant after tenant, on the
/// workload's replay stack, billed through the `Usage` verb.
#[derive(Debug)]
pub struct Replay {
    pub usage: WireUsage,
    pub units: u64,
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl Replay {
    /// The counters the traced stack must reproduce, with the energy and
    /// busy-time bits.
    pub fn fingerprint(&self) -> [u64; 9] {
        let u = &self.usage;
        [
            u.mvp_programs,
            u.mvp_scouting_ops,
            u.mvp_reads,
            u.ap_symbols,
            u.corr_events,
            u.mvp_energy.as_joules().to_bits(),
            u.mvp_busy.as_seconds().to_bits(),
            u.ap_energy.as_joules().to_bits(),
            u.ap_busy.as_seconds().to_bits(),
        ]
    }
}

pub fn replay<W: Workload>(workload: &W, config: ServeConfig) -> Result<Replay, String> {
    let mut primed = setup(workload, config)?;
    let mut total: Option<Replay> = None;
    for (i, (client, state)) in primed.clients.iter_mut().enumerate() {
        let mut log = TenantLog::new(i, false);
        workload.drive(i, state, client, Stop::AfterOps(workload.replay_ops()), &mut log);
        let usage = client.usage().map_err(|e| format!("replay usage: {e}"))?;
        let (units, ops, attempted, failed) = (log.units, log.ops, log.attempted + 1, log.failed);
        total = Some(match total {
            None => Replay { usage, units, ops, attempted, failed, first_error: log.first_error },
            Some(mut r) => {
                let u = &mut r.usage;
                u.mvp_jobs += usage.mvp_jobs;
                u.mvp_reads += usage.mvp_reads;
                u.mvp_scouting_ops += usage.mvp_scouting_ops;
                u.mvp_programs += usage.mvp_programs;
                u.mvp_energy += usage.mvp_energy;
                u.mvp_busy += usage.mvp_busy;
                u.ap_jobs += usage.ap_jobs;
                u.ap_symbols += usage.ap_symbols;
                u.ap_energy += usage.ap_energy;
                u.ap_busy += usage.ap_busy;
                u.corr_jobs += usage.corr_jobs;
                u.corr_events += usage.corr_events;
                r.units += units;
                r.ops += ops;
                r.attempted += attempted;
                r.failed += failed;
                r.first_error = r.first_error.or(log.first_error);
                r
            }
        });
    }
    teardown(workload, primed);
    total.ok_or_else(|| "no tenant replayed".to_string())
}

/// User plus system CPU time of this process, every thread, live or
/// exited (Linux `/proc/self/stat`, in clock ticks of 10 ms).
pub fn process_cpu() -> Result<Duration, String> {
    const TICK: Duration = Duration::from_millis(10);
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading process stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).ok_or("malformed process stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<u32, String> {
        fields.get(i).and_then(|f| f.parse().ok()).ok_or_else(|| "malformed process stat".into())
    };
    Ok(TICK * (ticks(11)? + ticks(12)?))
}

/// A memory figure of this process, MiB: the kB-valued `field` of the
/// Linux proc file `/proc/self/<file>`.
pub fn proc_mib(file: &str, field: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(format!("/proc/self/{file}"))
        .map_err(|e| format!("reading /proc/self/{file}: {e}"))?;
    text.lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no {field} line in /proc/self/{file}"))
}

/// Runs `f` `reps` times and returns the median wall time in µs with
/// the last result.
pub fn median_us<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        times.push(start.elapsed().as_secs_f64() * 1e6);
        last = Some(out);
    }
    (median(&times), last.expect("at least one repetition"))
}
