//! The coordinator both cluster backends share.
//!
//! A [`Coordinator`] owns everything about a query that does not depend on
//! where the nodes run: admission (per-tenant [`WdrrQueue`]s drained by a
//! pool of `max_concurrent` dispatcher threads), the stage loop
//! (validation, parameter binding, adaptive feedback, profiling), result
//! gathering, per-tenant metrics and cleanup. The nodes are reached
//! through a small [`NodeSet`] trait with two implementations: in-process
//! node threads over the simulated fabric
//! ([`Cluster`](crate::cluster::Cluster)) and `hsqp-node` control
//! connections over real sockets
//! ([`ProcessCluster`](crate::remote::ProcessCluster)). Both run each
//! node's share of a stage through [`execute_on_node`] — the paper's
//! coordinator/worker split, whatever the network underneath.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use hsqp_net::{QueryId, QueryNetStats, QueryStatsRegistry};
use hsqp_storage::{decimal_to_f64, DataType, Schema, Table, Value};
use hsqp_tpch::TpchTable;

use crate::error::EngineError;
use crate::exec::{NodeCtx, NodeExec};
use crate::expr::Expr;
use crate::metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
use crate::plan::Plan;
use crate::planner::QueryPlanner;
use crate::profile::{plan_node_count, NodeRecorder, QueryProfile, StageRecorder};
use crate::queries::{Query, QueryStage, StageRole};
use crate::serve::{
    CancelToken, DispatchConfig, SubmitOptions, TenantConfig, TenantId, TenantMetrics, WdrrQueue,
};
use crate::vm::{compile_stage, CompiledStage};

/// Result of one query execution.
#[derive(Debug)]
pub struct QueryResult {
    /// Id the query ran under.
    pub query: QueryId,
    /// The gathered result table (node 0's output).
    pub table: Table,
    /// Wall-clock execution time (includes time spent queued for a
    /// dispatcher slot).
    pub elapsed: Duration,
    /// Time the query spent queued for admission before a dispatcher
    /// slot picked it up (a component of [`elapsed`](Self::elapsed)).
    pub queue_wait: Duration,
    /// Bytes this query shipped over the network (per-query accounting —
    /// concurrent queries do not pollute each other's numbers).
    pub bytes_shuffled: u64,
    /// Network messages this query sent.
    pub messages_sent: u64,
    /// The query's execution profile (`None` when profiling is off, and
    /// on the socket backend, whose nodes do not ship spans back).
    pub profile: Option<QueryProfile>,
}

impl QueryResult {
    /// Rows in the result.
    pub fn row_count(&self) -> usize {
        self.table.rows()
    }
}

enum HandleState {
    Pending,
    /// Completed; `None` once the result has been taken.
    Done(Option<Result<QueryResult, EngineError>>),
}

/// State shared between a [`QueryHandle`] and the dispatcher.
struct QueryShared {
    id: QueryId,
    tenant: TenantId,
    cancel: CancelToken,
    stats: Arc<QueryNetStats>,
    state: Mutex<HandleState>,
    done: Condvar,
    /// Accumulating profile; stages are appended as they complete, so a
    /// cancelled or failed query keeps the stages that finished. The lock
    /// is touched once per stage, not on the execution hot path.
    profile: Mutex<QueryProfile>,
}

impl QueryShared {
    fn complete(&self, result: Result<QueryResult, EngineError>) {
        *self.state.lock() = HandleState::Done(Some(result));
        self.done.notify_all();
    }
}

/// Handle to a submitted query.
///
/// Returned by [`Coordinator::submit`] (and
/// [`Session::submit`](crate::session::Session::submit)). The query runs
/// asynchronously on the coordinator's dispatcher; the handle observes
/// and controls it.
pub struct QueryHandle {
    shared: Arc<QueryShared>,
}

impl QueryHandle {
    /// The id the coordinator assigned to this query (tags all its wire
    /// messages and temp relations).
    pub fn id(&self) -> QueryId {
        self.shared.id
    }

    /// Block until the query completes and take its result.
    ///
    /// Returns [`EngineError::Cancelled`] if [`cancel`](Self::cancel) took
    /// effect first, and an execution error if the result was already
    /// taken through [`try_result`](Self::try_result).
    pub fn wait(self) -> Result<QueryResult, EngineError> {
        let mut state = self.shared.state.lock();
        loop {
            match &mut *state {
                HandleState::Pending => self.shared.done.wait(&mut state),
                HandleState::Done(result) => {
                    return result.take().unwrap_or_else(|| {
                        Err(EngineError::Execution("query result already taken".into()))
                    });
                }
            }
        }
    }

    /// Block until the query completes or `timeout` elapses. Returns
    /// `None` on timeout (the query keeps running — pair with
    /// [`cancel`](Self::cancel) to abandon it); otherwise takes the
    /// result exactly like [`wait`](Self::wait).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<QueryResult, EngineError>> {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.state.lock();
        loop {
            if let HandleState::Done(result) = &mut *state {
                return Some(result.take().unwrap_or_else(|| {
                    Err(EngineError::Execution("query result already taken".into()))
                }));
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return None;
            }
            if self.shared.done.wait_for(&mut state, remaining).timed_out()
                && matches!(&*state, HandleState::Pending)
            {
                return None;
            }
        }
    }

    /// The tenant this query was submitted as.
    pub fn tenant(&self) -> &TenantId {
        &self.shared.tenant
    }

    /// Take the result if the query has completed; `None` while it is
    /// still queued or running. A completed result can be taken once.
    pub fn try_result(&self) -> Option<Result<QueryResult, EngineError>> {
        match &mut *self.shared.state.lock() {
            HandleState::Pending => None,
            HandleState::Done(result) => result.take(),
        }
    }

    /// Whether the query has completed (successfully or not).
    pub fn is_finished(&self) -> bool {
        matches!(&*self.shared.state.lock(), HandleState::Done(_))
    }

    /// Request cancellation. Cooperative and morsel-bounded: a queued
    /// query never starts, a running one stops at its next morsel (or
    /// exchange-wait poll) rather than its next stage boundary; either
    /// way its temp relations, receive-hub slots, and stats registration
    /// are released and [`wait`](Self::wait) returns
    /// [`EngineError::Cancelled`]. A query already past its last check
    /// completes normally.
    pub fn cancel(&self) {
        self.shared.cancel.cancel();
    }

    /// Live per-query network statistics (bytes/messages this query has
    /// put on the wire so far; on the socket backend the nodes report
    /// them when the query retires). Remains readable after completion.
    pub fn net_stats(&self) -> &QueryNetStats {
        &self.shared.stats
    }

    /// Snapshot of the query's execution profile: the stages that have
    /// completed so far (all of them once the query finished; a partial
    /// prefix while it runs or after cancellation). Empty when profiling
    /// is off.
    pub fn profile(&self) -> QueryProfile {
        self.shared.profile.lock().clone()
    }
}

// ---------------------------------------------------------------------------
// The node-set abstraction
// ---------------------------------------------------------------------------

/// One stage of one query, as shipped to every node.
pub(crate) struct StageJob<'a> {
    pub query: QueryId,
    /// Position of the stage in its query (exchange ids are per stage).
    pub index: u32,
    pub stage: &'a QueryStage,
    /// Parameters bound by the query's earlier `Params` stages.
    pub params: &'a [Value],
    /// The query's cancellation token (carrying its deadline, if any).
    pub cancel: &'a CancelToken,
}

/// What one stage produced across the node set.
pub(crate) struct StageOutput {
    /// Each node's local result cardinality (adaptive-planner feedback).
    pub rows: Vec<u64>,
    /// Node 0's gathered output, for `Params` and `Result` stages.
    pub table: Option<Table>,
    /// The expression programs the stage ran with, when the node set
    /// compiled them on the coordinator's side (for the profile).
    pub programs: Option<CompiledStage>,
}

/// The nodes a [`Coordinator`] drives: run one stage on all of them,
/// abort a query, retire it.
pub(crate) trait NodeSet: Send + Sync {
    /// Cluster size; node 0 gathers results.
    fn nodes(&self) -> u16;

    /// Run `job` on every node and wait for all of them. A failure on any
    /// node fails the stage; `recorder` collects per-node spans where the
    /// nodes share the coordinator's clock.
    fn run_stage(
        &self,
        job: &StageJob<'_>,
        tenant: &TenantId,
        recorder: Option<&StageRecorder>,
    ) -> Result<StageOutput, EngineError>;

    /// Stop whatever the failed or cancelled `query` still runs on the
    /// nodes, unblocking exchange waits.
    fn abort(&self, query: QueryId);

    /// Release everything `query` holds on the nodes (temps, receive-hub
    /// slots, stage workers) and fold the network traffic the nodes report
    /// for it into `stats`.
    fn retire(&self, query: QueryId, stats: &QueryNetStats);

    /// Add node-level counters to a metrics snapshot.
    fn add_metrics(&self, _snap: &mut MetricsSnapshot) {}
}

/// One node's share of a stage.
pub(crate) struct NodeOutput {
    pub rows: u64,
    /// The gathered table (node 0 of `Params` and `Result` stages only:
    /// the other nodes' remainders are empty).
    pub table: Option<Table>,
}

/// Run one node's share of a stage: execute the plan under the query's
/// token, keep a `Materialize` output as this node's temp relation, and
/// hand back node 0's gathered output. A panic (a cancelled morsel loop,
/// an aborted exchange, a bad plan) is contained and returned as its
/// message; the caller runs the cross-node abort protocol.
pub(crate) fn execute_on_node(
    ctx: &NodeCtx,
    job: &StageJob<'_>,
    programs: Option<&CompiledStage>,
    recorder: Option<&NodeRecorder>,
) -> Result<NodeOutput, String> {
    if ctx.hub.is_aborted(job.query) {
        return Err("query aborted".into());
    }
    let batch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        NodeExec::new(ctx, job.query, job.params, job.index * 100_000)
            .with_recorder(recorder)
            .with_programs(programs)
            .with_cancel(Some(job.cancel))
            .execute(&job.stage.plan)
    }))
    .map_err(|payload| panic_message(payload.as_ref()))?;
    let rows = batch.rows() as u64;
    let table = match &job.stage.role {
        StageRole::Materialize(name) => {
            ctx.temps
                .write()
                .entry(job.query)
                .or_default()
                .insert(name.clone(), batch.into_arc());
            None
        }
        StageRole::Params | StageRole::Result => (ctx.node.0 == 0).then(|| batch.into_table()),
    };
    Ok(NodeOutput { rows, table })
}

/// Compile a stage's expression sites against this node's base tables and
/// the temps its query has materialized so far. `None` when nothing
/// compiled (the operators then run on the tree walker).
pub(crate) fn compile_on_node(ctx: &NodeCtx, query: QueryId, plan: &Plan) -> Option<CompiledStage> {
    let base = |t: TpchTable| ctx.tables.read().get(&t).map(|tbl| tbl.schema().clone());
    let temps: HashMap<String, Schema> = ctx
        .temps
        .read()
        .get(&query)
        .map(|ns| {
            ns.iter()
                .map(|(name, t)| (name.clone(), t.schema().clone()))
                .collect()
        })
        .unwrap_or_default();
    let (compiled, _) = compile_stage(plan, &base, &temps);
    (!compiled.is_empty()).then_some(compiled)
}

/// Render a caught panic payload as a message string.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// Where a submission's stages come from: a pre-planned query, or an
/// adaptive planner that lowers each stage only after the previous one's
/// observed cardinalities were fed back.
enum Stages {
    Fixed(std::vec::IntoIter<QueryStage>),
    Adaptive(Box<QueryPlanner>),
}

/// One admitted query waiting for (or holding) a dispatcher slot.
struct Submission {
    stages: Stages,
    submitted: Instant,
    shared: Arc<QueryShared>,
}

/// Pre-resolved dispatcher instruments, so admission and completion paths
/// never look up the registry by name.
struct DispatchMetrics {
    queue_depth: Arc<Gauge>,
    active: Arc<Gauge>,
    submitted: Arc<Counter>,
    completed: Arc<Counter>,
    failed: Arc<Counter>,
    cancelled: Arc<Counter>,
    admission_wait_us: Arc<Histogram>,
    stage_rounds: Arc<Counter>,
}

impl DispatchMetrics {
    fn new(reg: &MetricsRegistry) -> Self {
        Self {
            queue_depth: reg.gauge("dispatcher.queue_depth"),
            active: reg.gauge("queries.active"),
            submitted: reg.counter("queries.submitted"),
            completed: reg.counter("queries.completed"),
            failed: reg.counter("queries.failed"),
            cancelled: reg.counter("queries.cancelled"),
            admission_wait_us: reg.histogram("dispatcher.admission_wait_us"),
            stage_rounds: reg.counter("stages.executed"),
        }
    }
}

/// The query coordinator of a cluster: admission, weighted-fair
/// dispatch, the stage loop, and serving metrics.
///
/// [`Cluster`](crate::cluster::Cluster) and
/// [`ProcessCluster`](crate::remote::ProcessCluster) both dereference to
/// their coordinator, so queries are submitted and observed the same way
/// on either backend. [`submit`](Self::submit) assigns a [`QueryId`]
/// and queues the query under its tenant; up to
/// [`DispatchConfig::max_concurrent`] queries run their stages at once,
/// the rest are picked weighted deficit round-robin across tenants.
pub struct Coordinator {
    inner: Arc<CoordInner>,
    dispatchers: Vec<std::thread::JoinHandle<()>>,
}

struct CoordInner {
    nodes: Arc<dyn NodeSet>,
    profiling: bool,
    query_stats: Arc<QueryStatsRegistry>,
    next_query: AtomicU32,
    down: AtomicBool,
    metrics: MetricsRegistry,
    dm: DispatchMetrics,
    queue: WdrrQueue<Submission>,
}

impl Coordinator {
    /// Start the dispatcher pool over `nodes`. `query_stats` is the
    /// registry per-query network counters land in (the in-process
    /// multiplexers record into it live); `profiling` turns on per-stage
    /// span recording.
    pub(crate) fn start(
        nodes: Arc<dyn NodeSet>,
        query_stats: Arc<QueryStatsRegistry>,
        dispatch: &DispatchConfig,
        profiling: bool,
    ) -> Self {
        let metrics = MetricsRegistry::new();
        let dm = DispatchMetrics::new(&metrics);
        let inner = Arc::new(CoordInner {
            nodes,
            profiling,
            query_stats,
            next_query: AtomicU32::new(0),
            down: AtomicBool::new(false),
            metrics,
            dm,
            queue: WdrrQueue::new(&dispatch.tenants),
        });
        let dispatchers = (0..dispatch.max_concurrent)
            .map(|d| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("dispatch-{d}"))
                    .spawn(move || {
                        while let Some((tenant, sub)) = inner.queue.pop() {
                            inner.execute_submission(sub);
                            inner.queue.finish(&tenant);
                        }
                    })
                    .expect("spawn dispatcher")
            })
            .collect();
        Self { inner, dispatchers }
    }

    /// Submit a query for asynchronous execution as the default tenant
    /// with no deadline, returning immediately with a [`QueryHandle`].
    pub fn submit(&self, query: &Query) -> Result<QueryHandle, EngineError> {
        self.submit_with(query, &SubmitOptions::default())
    }

    /// Submit a query under explicit serving options: the tenant it is
    /// scheduled and accounted as, and an optional deadline after which
    /// it is cooperatively cancelled (morsel-bounded) and resolves to
    /// [`EngineError::DeadlineExceeded`].
    ///
    /// Fails fast with [`EngineError::Admission`] when the tenant is at
    /// its `max_queued` cap.
    pub fn submit_with(
        &self,
        query: &Query,
        opts: &SubmitOptions,
    ) -> Result<QueryHandle, EngineError> {
        if query.stages.is_empty() {
            return Err(EngineError::Planner(
                "query needs at least one stage".into(),
            ));
        }
        let stages = Stages::Fixed(query.stages.clone().into_iter());
        self.enqueue(stages, query.number, opts)
    }

    /// Submit a query for feedback-driven adaptive execution: each stage
    /// is planned just before it runs, against the cardinalities observed
    /// from the stages that already finished (see
    /// [`Planner::begin_query`](crate::planner::Planner::begin_query)).
    /// `number` tags the query's profile for reporting (0 for ad-hoc).
    pub fn submit_adaptive(
        &self,
        planner: QueryPlanner,
        number: u32,
        opts: &SubmitOptions,
    ) -> Result<QueryHandle, EngineError> {
        self.enqueue(Stages::Adaptive(Box::new(planner)), number, opts)
    }

    /// Run a multi-stage query to completion: parameter stages bind their
    /// first result row as `Expr::Param` values for later stages,
    /// materialization stages leave per-node temp relations for
    /// `Plan::TempScan`, and the final stage's gathered table is the
    /// result. Sugar for [`submit`](Self::submit) followed by
    /// [`QueryHandle::wait`].
    pub fn run(&self, query: &Query) -> Result<QueryResult, EngineError> {
        self.submit(query)?.wait()
    }

    /// [`run`](Self::run) with serving options: sugar for
    /// [`submit_with`](Self::submit_with) followed by
    /// [`QueryHandle::wait`].
    pub fn run_with(
        &self,
        query: &Query,
        opts: &SubmitOptions,
    ) -> Result<QueryResult, EngineError> {
        self.submit_with(query, opts)?.wait()
    }

    fn enqueue(
        &self,
        stages: Stages,
        number: u32,
        opts: &SubmitOptions,
    ) -> Result<QueryHandle, EngineError> {
        self.ensure_up()?;
        let inner = &self.inner;
        let submitted = Instant::now();
        let id = QueryId(inner.next_query.fetch_add(1, Ordering::Relaxed));
        let shared = Arc::new(QueryShared {
            id,
            tenant: opts.tenant.clone(),
            cancel: CancelToken::with_deadline(opts.deadline.map(|d| submitted + d)),
            stats: inner.query_stats.register(id),
            state: Mutex::new(HandleState::Pending),
            done: Condvar::new(),
            profile: Mutex::new(QueryProfile::new(id, number)),
        });
        let submission = Submission {
            stages,
            submitted,
            shared: Arc::clone(&shared),
        };
        inner.dm.queue_depth.inc();
        if let Err(e) = inner.queue.push(&opts.tenant, submission) {
            // The submission never reached a dispatcher: nothing will
            // retire its stats registration, so release it here instead of
            // leaking the entry until shutdown.
            inner.dm.queue_depth.dec();
            inner.query_stats.retire(id);
            if matches!(e, EngineError::Admission(_)) {
                inner.tenant_counter(&opts.tenant, "rejected").inc();
            }
            return Err(e);
        }
        inner.dm.submitted.inc();
        inner.tenant_counter(&opts.tenant, "submitted").inc();
        Ok(QueryHandle { shared })
    }

    /// Register `tenant` (or update its entitlements if already known)
    /// without restarting the cluster.
    pub fn configure_tenant(&self, tenant: &str, cfg: TenantConfig) -> Result<(), EngineError> {
        cfg.validate(tenant)?;
        self.inner.queue.configure(&TenantId::new(tenant), cfg);
        Ok(())
    }

    /// Per-tenant serving counters rolled up from the metrics registry,
    /// sorted by tenant name. Tenants appear once they have submitted at
    /// least one query (or had one rejected).
    pub fn tenant_metrics(&self) -> Vec<TenantMetrics> {
        let snap = self.inner.metrics.snapshot();
        let mut by_tenant: HashMap<String, TenantMetrics> = HashMap::new();
        for (name, value) in &snap.counters {
            let Some(rest) = name.strip_prefix("tenant.") else {
                continue;
            };
            let Some((tenant, field)) = rest.rsplit_once('.') else {
                continue;
            };
            let entry = by_tenant
                .entry(tenant.to_string())
                .or_insert_with(|| TenantMetrics {
                    tenant: tenant.to_string(),
                    ..TenantMetrics::default()
                });
            match field {
                "submitted" => entry.submitted = *value,
                "completed" => entry.completed = *value,
                "failed" => entry.failed = *value,
                "cancelled" => entry.cancelled = *value,
                "rejected" => entry.rejected = *value,
                "bytes_shuffled" => entry.bytes_shuffled = *value,
                "messages_sent" => entry.messages_sent = *value,
                _ => {}
            }
        }
        let mut out: Vec<TenantMetrics> = by_tenant.into_values().collect();
        out.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        out
    }

    /// Snapshot the coordinator's metrics — dispatcher counters and
    /// gauges, the admission-wait histogram, per-tenant counters — plus
    /// the node set's own counters (in process: network-scheduler rounds
    /// and per-link bytes and messages).
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.inner.metrics.snapshot();
        self.inner.nodes.add_metrics(&mut snap);
        snap
    }

    pub(crate) fn ensure_up(&self) -> Result<(), EngineError> {
        if self.inner.down.load(Ordering::SeqCst) {
            return Err(EngineError::ClusterDown);
        }
        Ok(())
    }

    /// Close admission and join the dispatcher pool: in-flight queries
    /// complete, queued ones fail with [`EngineError::ClusterDown`].
    /// Returns `false` if the coordinator was already shut down.
    pub(crate) fn shutdown(&mut self) -> bool {
        if self.inner.down.swap(true, Ordering::SeqCst) {
            return false;
        }
        self.inner.queue.close();
        for h in self.dispatchers.drain(..) {
            let _ = h.join();
        }
        // Every admitted query has now been executed or failed fast, and
        // both paths retire the stats registration — anything left is a
        // leak (registrations abandoned by queries that never reached a
        // dispatcher).
        debug_assert_eq!(
            self.inner.query_stats.tracked(),
            0,
            "query stats registry leaked entries at shutdown"
        );
        true
    }
}

impl CoordInner {
    /// Run one admitted query to completion on this dispatcher thread and
    /// publish its result. Whatever happens — success, error,
    /// cancellation — the query is retired on every node afterwards, so a
    /// cancelled query can never wedge the exchanges or leak state.
    fn execute_submission(&self, mut sub: Submission) {
        let queue_wait = sub.submitted.elapsed();
        self.dm.queue_depth.dec();
        self.dm
            .admission_wait_us
            .observe(queue_wait.as_micros() as u64);
        self.dm.active.inc();
        let shared = Arc::clone(&sub.shared);
        let outcome = if self.down.load(Ordering::SeqCst) {
            Err(EngineError::ClusterDown)
        } else {
            // Node failures come back as errors from the node set; this
            // net only catches panics in the stage bookkeeping itself, so
            // the submitter always gets an error rather than a
            // forever-blocked `wait()` and the dispatcher slot survives.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run_stages(&mut sub)))
                .unwrap_or_else(|payload| {
                    Err(EngineError::Execution(format!(
                        "query execution panicked: {}",
                        panic_message(payload.as_ref())
                    )))
                })
        };
        // Morsel-level cancellation surfaces as a contained panic on the
        // nodes; map it back to the typed error the token records. Only
        // panic-shaped failures are remapped, so an unrelated error that
        // merely races a late cancel keeps its own message.
        let outcome = match outcome {
            Err(EngineError::Execution(msg)) => match shared.cancel.stop_reason() {
                Some(reason) => Err(reason.into_error()),
                None => Err(EngineError::Execution(msg)),
            },
            other => other,
        };
        if outcome.is_err() {
            self.nodes.abort(shared.id);
        }
        self.nodes.retire(shared.id, &shared.stats);
        self.query_stats.retire(shared.id);
        let result = outcome.map(|table| QueryResult {
            query: shared.id,
            table,
            elapsed: sub.submitted.elapsed(),
            queue_wait,
            bytes_shuffled: shared.stats.bytes_sent(),
            messages_sent: shared.stats.messages_sent(),
            profile: self.profiling.then(|| shared.profile.lock().clone()),
        });
        self.dm.active.dec();
        let tenant = &shared.tenant;
        let (total, field) = match &result {
            Ok(_) => (&self.dm.completed, "completed"),
            Err(EngineError::Cancelled) | Err(EngineError::DeadlineExceeded) => {
                (&self.dm.cancelled, "cancelled")
            }
            Err(_) => (&self.dm.failed, "failed"),
        };
        total.inc();
        self.tenant_counter(tenant, field).inc();
        // Per-tenant network rollup: whatever this query put on the wire
        // (completed or not) is charged to its tenant.
        self.tenant_counter(tenant, "bytes_shuffled")
            .add(shared.stats.bytes_sent());
        self.tenant_counter(tenant, "messages_sent")
            .add(shared.stats.messages_sent());
        shared.complete(result);
    }

    /// The counter `tenant.<name>.<field>`, created on first use. Tenant
    /// counters live in the shared registry so `--metrics` groups them
    /// naturally (the rendering is name-sorted).
    fn tenant_counter(&self, tenant: &TenantId, field: &str) -> Arc<Counter> {
        self.metrics.counter(&format!("tenant.{tenant}.{field}"))
    }

    /// The stage loop: validate each stage against what earlier stages
    /// produced, run it on every node, then bind its parameters, record
    /// its temp, or keep its table as the result.
    fn run_stages(&self, sub: &mut Submission) -> Result<Table, EngineError> {
        let shared = &sub.shared;
        let mut params: Vec<Value> = Vec::new();
        let mut temps: Vec<String> = Vec::new();
        let mut result: Option<Table> = None;
        let mut index = 0u32;
        loop {
            let stage = match &mut sub.stages {
                Stages::Fixed(stages) => stages.next(),
                Stages::Adaptive(qp) => qp.next_stage()?,
            };
            let Some(stage) = stage else { break };
            // Cooperative cancellation point: between stages (and before
            // the first), where no exchange is in flight. The same token
            // is checked per morsel on the nodes.
            if let Some(reason) = shared.cancel.should_stop() {
                return Err(reason.into_error());
            }
            validate_stage(&stage.plan, &temps, params.len())?;
            // One recorder per stage, anchored at submission time so every
            // stage's spans share the query's timeline.
            let recorder = self.profiling.then(|| {
                StageRecorder::new(
                    sub.submitted,
                    self.nodes.nodes(),
                    plan_node_count(&stage.plan),
                )
            });
            let job = StageJob {
                query: shared.id,
                index,
                stage: &stage,
                params: &params,
                cancel: &shared.cancel,
            };
            let out = self
                .nodes
                .run_stage(&job, &shared.tenant, recorder.as_ref())?;
            self.dm.stage_rounds.inc();
            if let Some(rec) = &recorder {
                let profile = rec.finish(
                    &stage.plan,
                    out.programs.as_ref(),
                    stage.role.label(),
                    stage.estimated_rows,
                    stage.feedback_rows,
                );
                shared.profile.lock().stages.push(profile);
            }
            match &stage.role {
                StageRole::Result => {
                    result = Some(out.table.ok_or_else(|| {
                        EngineError::Execution("node 0 returned no result table".into())
                    })?);
                }
                StageRole::Params => {
                    let table = out.table.ok_or_else(|| {
                        EngineError::Execution("node 0 returned no parameter table".into())
                    })?;
                    bind_params(&table, &mut params)?;
                }
                StageRole::Materialize(name) => temps.push(name.clone()),
            }
            if let Stages::Adaptive(qp) = &mut sub.stages {
                qp.observe_rows(&out.rows);
            }
            index += 1;
        }
        result.ok_or_else(|| EngineError::Planner("query has no result stage".into()))
    }
}

/// Bind row 0 of a parameter stage's result as parameters, in column
/// order. (The coordinator broadcasts these tiny scalars with each later
/// stage; the paper piggybacks such values on the control channel.)
fn bind_params(table: &Table, params: &mut Vec<Value>) -> Result<(), EngineError> {
    if table.rows() == 0 {
        return Err(EngineError::Execution(
            "parameter stage produced no rows".into(),
        ));
    }
    for (c, field) in table.schema().fields().iter().enumerate() {
        // Bind Decimal scalars as promoted floats: that is how expression
        // evaluation reads Decimal columns, so a raw fixed-point i64 here
        // would compare 100x off against any downstream column.
        params.push(match (field.dtype, table.value(0, c)) {
            (DataType::Decimal, Value::I64(cents)) => Value::F64(decimal_to_f64(cents)),
            (_, v) => v,
        });
    }
    Ok(())
}

/// Reject a stage reading a temp relation no earlier stage materialized,
/// or a parameter no earlier stage bound, before it reaches any node: a
/// node would otherwise panic mid-execution.
fn validate_stage(plan: &Plan, temps: &[String], bound: usize) -> Result<(), EngineError> {
    let mut referenced = Vec::new();
    collect_temp_scans(plan, &mut referenced);
    if let Some(name) = referenced.iter().find(|n| !temps.iter().any(|t| t == **n)) {
        return Err(EngineError::Planner(format!(
            "temp relation {name:?} is not materialized by an earlier stage"
        )));
    }
    if let Some(m) = plan_max_param(plan) {
        if m >= bound {
            return Err(EngineError::Planner(format!(
                "plan references parameter {m}, but earlier stages bind \
                 only {bound} parameter(s)"
            )));
        }
    }
    Ok(())
}

/// Collect every temp-relation name a plan reads through `Plan::TempScan`.
fn collect_temp_scans<'p>(plan: &'p Plan, out: &mut Vec<&'p str>) {
    if let Plan::TempScan { name, .. } = plan {
        out.push(name);
    }
    for child in plan.children() {
        collect_temp_scans(child, out);
    }
}

/// Highest `Expr::Param` index referenced anywhere in a physical plan.
fn plan_max_param(plan: &Plan) -> Option<usize> {
    let own = match plan {
        Plan::Scan { filter, .. } => filter.as_ref().and_then(Expr::max_param),
        Plan::Filter { predicate, .. } => predicate.max_param(),
        Plan::Map { outputs, .. } => outputs.iter().filter_map(|o| o.expr.max_param()).max(),
        Plan::Aggregate { aggs, .. } => aggs.iter().filter_map(|a| a.expr.max_param()).max(),
        Plan::TempScan { .. }
        | Plan::HashJoin { .. }
        | Plan::Sort { .. }
        | Plan::Exchange { .. } => None,
    };
    own.max(
        plan.children()
            .iter()
            .filter_map(|c| plan_max_param(c))
            .max(),
    )
}
