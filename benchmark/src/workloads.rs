//! The two workloads, each in an untraced run (end-to-end metrics) and a
//! traced run (per-layer metrics).

use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use hsqp::engine::logical::LogicalQuery;
use hsqp::engine::planner::Planner;
use hsqp::engine::queries::{tpch_logical, ALL_QUERIES};
use hsqp::engine::serve::{ArrivalProcess, SubmitOptions};
use hsqp::engine::QueryHandle;
use hsqp::tpch::{TpchDb, TpchTable};

use crate::answers::Answers;
use crate::backend::{Backend, Setup, TENANTS};
use crate::layers::{self, ExecLayers};
use crate::nodes::peak_rss_bytes;
use crate::report::{Metrics, Tally};
use crate::stats::{geomean, median, ms, percentile, secs, Rng};

/// Set-ups per untraced run, before the measurement (the last one is
/// measured) and after it, so that they sample more than one moment of
/// the run; `setup_s` is their median.
const SETUPS_BEFORE: usize = 5;
const SETUPS_AFTER: usize = 4;
/// Scale factor of the kernel and codec probes and of the in-process
/// load and query-floor figures, on every workload.
const PROBE_SF: f64 = 0.1;
/// The serving mix: short queries whose fixed per-query costs dominate.
const SERVE_MIX: [u32; 6] = [1, 3, 6, 10, 14, 19];
/// Scale factor of the serving probe and the tracing-overhead probe.
const SERVE_SF: f64 = 0.01;
/// Offered load of the serving probe, well below its capacity on 2 cores.
const SERVE_RATE_PER_S: f64 = 30.0;
/// Length of the serving probe's open-loop window.
const SERVE_WINDOW: Duration = Duration::from_secs(5);
/// How long after the last arrival a query may still complete; anything
/// pending after that counts as failed.
const SERVE_GRACE: Duration = Duration::from_secs(2);
/// Alternating untraced/traced passes of the serving mix behind
/// `trace.overhead_frac` (after one warm-up pass of each).
const OVERHEAD_ROUNDS: usize = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 22 queries, closed loop, in process at SF 0.1.
    TpchInproc,
    /// All 22 queries, closed loop, over 2 `hsqp-node` processes at SF 0.01.
    TpchSockets,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::TpchInproc, Workload::TpchSockets];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TpchInproc => "tpch-sf0.1-inproc",
            Workload::TpchSockets => "tpch-sf0.01-sockets",
        }
    }

    pub fn sf(self) -> f64 {
        match self {
            Workload::TpchInproc => 0.1,
            Workload::TpchSockets => 0.01,
        }
    }
}

/// Everything one run needs, and what it accumulates.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub node_bin: PathBuf,
    /// Where the recorded answers live (`sf<SF>.txt` per scale factor).
    pub answers_dir: PathBuf,
    pub tally: Tally,
    pub metrics: Metrics,
}

impl Run {
    /// Start the workload's backend on freshly generated data.
    fn start(&self) -> Result<(Backend, Setup), String> {
        match self.workload {
            Workload::TpchInproc => Backend::start_local(self.workload.sf(), false),
            Workload::TpchSockets => Backend::start_remote(&self.node_bin, self.workload.sf()),
        }
    }

    /// Set up `n` times, recording each set-up time and keeping the last
    /// instance.
    fn start_timed(&self, n: usize, times: &mut Vec<f64>) -> Result<Backend, String> {
        let mut kept: Option<Backend> = None;
        for _ in 0..n {
            if let Some(previous) = kept.take() {
                previous.shutdown();
            }
            let (backend, setup) = self.start()?;
            times.push(setup.total_s());
            kept = Some(backend);
        }
        Ok(kept.expect("at least one set-up"))
    }

    /// Untraced run: the end-to-end metrics.
    pub fn end_to_end(&mut self) -> Result<(), String> {
        let queries = logical_queries(&ALL_QUERIES)?;
        let mut rng = Rng::new(self.seed, 1);
        let mut setups = Vec::new();
        let backend = self.start_timed(SETUPS_BEFORE, &mut setups)?;
        self.measure(&backend, &queries, &mut rng);
        let rss = peak_rss_bytes("/proc/self/status")? + backend.nodes_peak_rss_bytes()?;
        backend.shutdown();
        self.start_timed(SETUPS_AFTER, &mut setups)?.shutdown();
        eprintln!("set-ups: {setups:.3?} s");
        self.metrics.set("setup_s", median(&setups), "s");
        self.metrics
            .set("peak_rss_mb", rss as f64 / (1024.0 * 1024.0), "MB");
        Ok(())
    }

    fn measure(&mut self, backend: &Backend, queries: &[(u32, LogicalQuery)], rng: &mut Rng) {
        let planner = backend.planner();
        // Whole passes while the next one, taking as long as the passes
        // so far did on average, still fits the measuring time.
        let started = Instant::now();
        let (mut walls, mut geomeans) = (Vec::new(), Vec::new());
        loop {
            let pass_started = Instant::now();
            let mut lat = Vec::with_capacity(queries.len());
            let mut by_query = Vec::with_capacity(queries.len());
            for i in order(rng, queries.len()) {
                let q = &queries[i];
                if let Some(l) = run_query(&mut self.tally, backend, &planner, q, None) {
                    lat.push(l);
                    by_query.push(format!("Q{} {l:.1}", q.0));
                }
            }
            eprintln!("pass latencies (ms): {}", by_query.join(", "));
            walls.push(secs(pass_started.elapsed()));
            geomeans.push(geomean(&lat));
            let mean = walls.iter().sum::<f64>() / walls.len() as f64;
            if secs(started.elapsed()) + mean > self.seconds {
                break;
            }
        }
        eprintln!("{} passes: suite_s {walls:.3?}", walls.len());
        self.metrics.set("suite_s", median(&walls), "s");
        self.metrics.set("geomean_ms", median(&geomeans), "ms");
    }

    /// Traced run: the per-layer metrics and the tracing overhead.
    pub fn per_layer(&mut self) -> Result<(), String> {
        let queries = logical_queries(&ALL_QUERIES)?;
        let order = order(&mut Rng::new(self.seed, 2), queries.len());

        // SF 0.1 is generated once: it is the in-process workload's data
        // and the kernel and codec probes' input. An untraced session on
        // it gives the load time and the in-process query floor.
        let started = Instant::now();
        let db = TpchDb::generate(PROBE_SF);
        self.metrics
            .set("tpch.generate_s", secs(started.elapsed()), "s");
        let (plain, setup) = Backend::start_local_db(db.clone(), false)?;
        self.metrics.set("cluster.load_s", setup.load_s, "s");
        let floor = layers::query_floor_ms(&plain, 30);
        plain.shutdown();
        self.metrics.set("cluster.query_floor_ms", floor?, "ms");

        // One traced pass over the workload's queries. In process, tracing
        // is the engine's profiler; the node processes record no profiles,
        // so over sockets the operator times come from the same queries
        // run in process at the same scale and size.
        // (On an early return, dropping a backend shuts it down.)
        let mut layers = ExecLayers::default();
        let backend = match self.workload {
            Workload::TpchInproc => Backend::start_local_db(db.clone(), true)?.0,
            Workload::TpchSockets => self.start()?.0,
        };
        let planner = backend.planner();
        let before = backend.socket_counters()?;
        closed_pass(
            &mut self.tally,
            &backend,
            &planner,
            &queries,
            &order,
            Some(&mut layers),
        );
        let socket = match (before, backend.socket_counters()?) {
            (Some(b), Some(a)) => Some(layers.per_query(a.0 - b.0, a.1 - b.1)),
            _ => None,
        };
        layers::plan_layers(&planner, &queries, &mut self.metrics)?;
        backend.shutdown();
        layers.emit_counts(&mut self.metrics);
        if self.workload == Workload::TpchSockets {
            let (local, _) = Backend::start_local(self.workload.sf(), true)?;
            let mut replay = ExecLayers::default();
            let planner = local.planner();
            closed_pass(
                &mut self.tally,
                &local,
                &planner,
                &queries,
                &order,
                Some(&mut replay),
            );
            local.shutdown();
            layers = replay;
        }
        layers.emit_profile(&mut self.metrics);

        self.serve_probes()?;
        layers::kernel_sweep(
            db.table(TpchTable::Orders),
            db.table(TpchTable::Lineitem),
            &mut self.metrics,
        )?;
        layers::codec_layers(
            db.table(TpchTable::Orders),
            db.table(TpchTable::Lineitem),
            &mut self.metrics,
        )?;
        drop(db);
        // The socket workload's mesh volume is that of its own queries;
        // the in-process workload takes the floor query's.
        let floor_socket = layers::remote_probe(&self.node_bin, &mut self.metrics)?;
        let (bytes, msgs) = socket.unwrap_or(floor_socket);
        self.metrics.set("remote.socket_bytes", bytes, "bytes");
        self.metrics.set("remote.socket_msgs", msgs, "count");
        Ok(())
    }

    /// The serving mix in process at SF 0.01, the same on every workload:
    /// a short open-loop window for the `serve.*` figures, and the
    /// tracing overhead as the median ratio of traced to untraced wall
    /// time over alternating closed-loop passes on a profiled and an
    /// unprofiled session.
    fn serve_probes(&mut self) -> Result<(), String> {
        let mix = logical_queries(&SERVE_MIX)?;
        let mut tally = Tally::new(Answers::load(&self.answers_dir, SERVE_SF)?);
        let (plain, _) = Backend::start_local(SERVE_SF, false)?;
        let (traced, _) = Backend::start_local(SERVE_SF, true)?;
        let (plain_planner, traced_planner) = (plain.planner(), traced.planner());
        let order = order(&mut Rng::new(self.seed, 4), mix.len());
        let mut ratios = Vec::with_capacity(OVERHEAD_ROUNDS);
        for round in 0..=OVERHEAD_ROUNDS {
            let base = closed_pass(&mut tally, &plain, &plain_planner, &mix, &order, None);
            let with = closed_pass(&mut tally, &traced, &traced_planner, &mix, &order, None);
            if round > 0 {
                ratios.push(with / base);
            }
        }
        traced.shutdown();
        self.metrics
            .set("trace.overhead_frac", median(&ratios) - 1.0, "fraction");
        let ol = open_loop(&mut tally, self.seed, &plain, &plain_planner, &mix);
        plain.shutdown();
        self.tally.merge(tally);
        ol?.emit_serve(&mut self.metrics);
        Ok(())
    }
}

/// A seeded permutation of `0..len`.
fn order(rng: &mut Rng, len: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    rng.shuffle(&mut order);
    order
}

/// Run one query, checking its answer into `tally`; its latency (ms) when
/// it succeeded. With `layers`, the execution is also folded into the
/// per-layer counters.
fn run_query(
    tally: &mut Tally,
    backend: &Backend,
    planner: &Planner,
    (n, logical): &(u32, LogicalQuery),
    layers: Option<&mut ExecLayers>,
) -> Option<f64> {
    match backend.execute(planner, logical) {
        Ok(exec) => {
            tally.check(*n, &exec.result.table);
            if let Some(layers) = layers {
                layers.add(&exec.result, exec.latency);
            }
            Some(ms(exec.latency))
        }
        Err(e) => {
            tally.error(*n, &e);
            None
        }
    }
}

/// One closed-loop pass over `queries` in `order`; returns its wall time.
fn closed_pass(
    tally: &mut Tally,
    backend: &Backend,
    planner: &Planner,
    queries: &[(u32, LogicalQuery)],
    order: &[usize],
    mut layers: Option<&mut ExecLayers>,
) -> f64 {
    let started = Instant::now();
    for &i in order {
        run_query(tally, backend, planner, &queries[i], layers.as_deref_mut());
    }
    secs(started.elapsed())
}

/// Open-loop serving for `SERVE_WINDOW`: one generator thread issues the
/// seeded Poisson arrivals (each a seeded pick of tenant and query),
/// planning and submitting each at its due time; this thread collects the
/// results. Latency runs from the due time to completion, so generator lag
/// and queueing both count. Whatever is still pending `SERVE_GRACE` after
/// the window closes is cancelled and counted as failed.
fn open_loop(
    tally: &mut Tally,
    seed: u64,
    backend: &Backend,
    planner: &Planner,
    mix: &[(u32, LogicalQuery)],
) -> Result<OpenLoop, String> {
    let session = backend
        .session()
        .ok_or("the open-loop probe runs in process")?;
    let cluster = session.cluster();
    let offsets = ArrivalProcess::Poisson.offsets(SERVE_RATE_PER_S * 3600.0, SERVE_WINDOW, seed);
    let mut rng = Rng::new(seed, 3);
    let picks: Vec<(usize, usize)> = offsets
        .iter()
        .map(|_| (rng.below(TENANTS.len()), rng.below(mix.len())))
        .collect();

    struct Arrival {
        query: u32,
        due: Instant,
        lag: Duration,
        submitted: Instant,
        handle: Result<QueryHandle, String>,
    }
    let mut ol = OpenLoop::default();
    let start = Instant::now();
    let deadline = start + SERVE_WINDOW + SERVE_GRACE;
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<Arrival>();
        scope.spawn(move || {
            for (off, &(tenant, q)) in offsets.iter().zip(&picks) {
                let due = start + *off;
                if let Some(gap) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(gap);
                }
                let lag = Instant::now().saturating_duration_since(due);
                let (n, logical) = &mix[q];
                let planned = planner.plan_query(logical).map_err(|e| e.to_string());
                let submitted = Instant::now();
                let handle = planned.and_then(|query| {
                    cluster
                        .submit_with(&query, &SubmitOptions::tenant(TENANTS[tenant].0))
                        .map_err(|e| e.to_string())
                });
                let arrival = Arrival {
                    query: *n,
                    due,
                    lag,
                    submitted,
                    handle,
                };
                if tx.send(arrival).is_err() {
                    break;
                }
            }
        });
        for a in rx {
            ol.lags_ms.push(ms(a.lag));
            let handle = match a.handle {
                Ok(h) => h,
                Err(e) => {
                    tally.error(a.query, &e);
                    continue;
                }
            };
            match handle.wait_timeout(deadline.saturating_duration_since(Instant::now())) {
                Some(Ok(r)) => {
                    tally.check(a.query, &r.table);
                    let latency = a.submitted.duration_since(a.due) + r.elapsed;
                    ol.latencies_ms.push(ms(latency));
                    ol.queue_waits_ms.push(ms(r.queue_wait));
                }
                Some(Err(e)) => tally.error(a.query, &e.to_string()),
                None => {
                    handle.cancel();
                    let _ = handle.wait();
                    tally.still_pending();
                    ol.pending += 1;
                }
            }
        }
    });
    eprintln!(
        "open loop: {} arrivals at {SERVE_RATE_PER_S}/s over {:.1}s, {} completed, \
         {} pending at window end",
        ol.lags_ms.len(),
        SERVE_WINDOW.as_secs_f64(),
        ol.latencies_ms.len(),
        ol.pending,
    );
    Ok(ol)
}

/// What an open-loop window observed.
#[derive(Default)]
struct OpenLoop {
    /// Due time to completion, completed queries only.
    latencies_ms: Vec<f64>,
    /// Time each query waited for a dispatcher slot.
    queue_waits_ms: Vec<f64>,
    /// How late the generator issued each arrival.
    lags_ms: Vec<f64>,
    pending: u64,
}

impl OpenLoop {
    fn emit_serve(&self, m: &mut Metrics) {
        m.set(
            "serve.latency_p50_ms",
            percentile(&self.latencies_ms, 0.5),
            "ms",
        );
        m.set(
            "serve.latency_p99_ms",
            percentile(&self.latencies_ms, 0.99),
            "ms",
        );
        m.set(
            "serve.queue_wait_p50_ms",
            percentile(&self.queue_waits_ms, 0.5),
            "ms",
        );
        m.set(
            "serve.queue_wait_p99_ms",
            percentile(&self.queue_waits_ms, 0.99),
            "ms",
        );
        m.set(
            "serve.generator_lag_p99_ms",
            percentile(&self.lags_ms, 0.99),
            "ms",
        );
    }
}

/// The builder-planned logical TPC-H queries.
fn logical_queries(numbers: &[u32]) -> Result<Vec<(u32, LogicalQuery)>, String> {
    numbers
        .iter()
        .map(|&n| {
            tpch_logical(n)
                .map(|q| (n, q))
                .map_err(|e| format!("building Q{n}: {e}"))
        })
        .collect()
}
