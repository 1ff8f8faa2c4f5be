//! Out-of-process clusters: the `hsqp-node` server and its node set.
//!
//! Everything else in the engine simulates a cluster inside one process;
//! this module runs the same SPMD plans across *real OS processes*
//! connected by real TCP sockets. A [`NodeServer`] is one database server:
//! it listens on a port, joins the mesh
//! ([`SocketTransport`]), generates its share
//! of TPC-H locally, and executes its share of every stage shipped to it
//! through the same per-node stage executor the in-process nodes run.
//! A [`ProcessCluster`] is the coordinator side: the same
//! [`Coordinator`] the in-process [`Cluster`](crate::cluster::Cluster)
//! uses — tenant queues, weighted-fair dispatch, query handles with
//! cancel, the stage loop with validation, parameter binding and adaptive
//! feedback — driving the nodes over one control connection each. It
//! ships serialized stages ([`crate::serial`]) to every node and collects
//! the gathered result from node 0: the paper's coordinator/worker split,
//! §4.
//!
//! # Control protocol
//!
//! One TCP connection per node, opened by the coordinator with a
//! [`HandshakeRole::Control`] preamble, carrying length-prefixed frames
//! (`opcode` byte + body, [`read_frame`]/[`write_frame`] — the same
//! framing as exchange data):
//!
//! | request | reply |
//! |---|---|
//! | `Join` (node id, peer addresses, engine knobs) | `JoinOk` after the data mesh is up |
//! | `Load` (scale factor) | `LoadOk` (local rows per table) |
//! | `Stage` (query, stage index, params, serialized stage) | `StageDone` (rows, node 0 attaches the table) or `StageFail` |
//! | `Retire` (query) | `RetireOk` (per-query bytes/messages) |
//! | `Abort` (query) | — (trips the query's token, aborts its exchanges) |
//! | `Stats` | `StatsOk` (node socket counters) |
//! | `Shutdown` | — (the node process exits) |
//!
//! Per-query network counters are read at *retire* time: the coordinator
//! only retires once it holds the final gathered result, which implies
//! every node's sends for the query have left its multiplexer and been
//! recorded.
//!
//! # Failure handling
//!
//! A stage panic on one node aborts the query on its own receive hub,
//! broadcasts a [`FLAG_ABORT`] frame to every peer (unblocking their
//! mid-exchange consumers), and reports `StageFail`. A node *process*
//! dying surfaces twice: peers' socket readers emit `PeerGone` (the
//! multiplexer kills every in-flight query on that hub) and the
//! coordinator's control reader fails all pending queries — either way
//! the coordinator returns [`EngineError::Execution`] instead of hanging.
//! A cancelled query (or one past its deadline) is noticed by the
//! dispatcher waiting on its stage replies, which sends `Abort` and then
//! `Retire`.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};

use hsqp_net::socket::{
    read_frame, read_preamble, send_preamble, write_frame, HandshakeRole, Preamble, WIRE_VERSION,
};
use hsqp_net::{
    Fabric, FabricConfig, NetStats, NodeId, QueryId, QueryNetStats, QueryStatsRegistry,
    SocketConfig, SocketTransport,
};
use hsqp_numa::{AllocPolicy, SocketId};
use hsqp_storage::placement::chunk_split;
use hsqp_storage::{Table, Value};
use hsqp_tpch::{TpchDb, TpchTable};

use crate::coordinator::{
    compile_on_node, execute_on_node, Coordinator, NodeSet, StageJob, StageOutput,
};
use crate::error::EngineError;
use crate::exchange::{encode_header, MuxCmd, FLAG_ABORT, HEADER_LEN};
use crate::exec::{NodeCtx, NodeSpec};
use crate::profile::StageRecorder;
use crate::queries::QueryStage;
use crate::serial::{
    self, decode_stage_tagged, decode_table, decode_values, encode_stage_tagged, encode_table,
    encode_values, Rd,
};
use crate::serve::{CancelToken, DispatchConfig, TenantId};

// Control-protocol opcodes (requests < 100, replies >= 100).
const OP_JOIN: u8 = 0;
const OP_LOAD: u8 = 1;
const OP_STAGE: u8 = 2;
const OP_RETIRE: u8 = 3;
const OP_ABORT: u8 = 4;
const OP_SHUTDOWN: u8 = 5;
const OP_STATS: u8 = 6;
const OP_JOIN_OK: u8 = 100;
const OP_LOAD_OK: u8 = 101;
const OP_STAGE_DONE: u8 = 102;
const OP_STAGE_FAIL: u8 = 103;
const OP_RETIRE_OK: u8 = 104;
const OP_STATS_OK: u8 = 105;

/// Engine knobs the coordinator ships to every node in `Join`, so one
/// flag set on the coordinator configures the whole cluster identically.
#[derive(Debug, Clone, Copy)]
pub struct RemoteEngineConfig {
    /// Worker threads per node process.
    pub workers_per_node: u16,
    /// NUMA sockets modeled per node (receive-queue fan-out).
    pub sockets: u16,
    /// Tuple bytes per exchange message.
    pub message_capacity: usize,
}

impl Default for RemoteEngineConfig {
    fn default() -> Self {
        Self {
            workers_per_node: 2,
            sockets: 2,
            message_capacity: 128 * 1024,
        }
    }
}

// ---------------------------------------------------------------------------
// Node server
// ---------------------------------------------------------------------------

/// One out-of-process database server (the `hsqp-node` binary's core).
///
/// Serves exactly one cluster lifetime: accept the coordinator, join the
/// mesh, execute stages until `Shutdown` (or the coordinator disconnects),
/// then return.
pub struct NodeServer {
    listener: TcpListener,
    socket_cfg: SocketConfig,
}

/// One in-flight query's dedicated stage-execution worker on a node.
///
/// Stages of *different* queries must run concurrently (two queries'
/// exchange waves interleave across the cluster; serializing them on one
/// node deadlocks the other nodes), so each query gets its own thread fed
/// through a channel that preserves stage order within the query.
struct QueryWorker {
    jobs: Sender<ShippedStage>,
    handle: std::thread::JoinHandle<()>,
    stats: Arc<QueryNetStats>,
    /// Tripped by a coordinator `Abort` so in-flight morsel loops stop
    /// cooperatively instead of running the stage to completion.
    cancel: CancelToken,
}

struct ShippedStage {
    index: u32,
    stage: QueryStage,
    params: Vec<Value>,
    /// Remaining deadline budget shipped by the coordinator, microseconds
    /// measured at encode time.
    deadline_us: Option<u64>,
}

impl NodeServer {
    /// Bind the node's listener (use port 0 for an OS-assigned port).
    pub fn bind(addr: &str) -> io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            socket_cfg: SocketConfig::default(),
        })
    }

    /// The bound listen address (to print for the coordinator).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve one cluster lifetime. Returns when the coordinator sends
    /// `Shutdown` or its control connection closes.
    pub fn run(self) -> io::Result<()> {
        // The first Control connection is the coordinator; data dials from
        // faster peers may land first and are stashed for the mesh.
        let mut pending = Vec::new();
        let mut control = loop {
            let (mut stream, _) = self.listener.accept()?;
            let p = read_preamble(&mut stream)?;
            match p.role {
                HandshakeRole::Control => break stream,
                HandshakeRole::Data => pending.push((p, stream)),
            }
        };

        let join = read_frame(&mut control)?;
        let mut r = Rd::new(&join);
        let mut parse = || -> Result<(u16, u16, u16, u16, usize, Vec<String>), String> {
            if r.u8()? != OP_JOIN {
                return Err("expected Join as the first control frame".into());
            }
            let node = r.u16()?;
            let nodes = r.u16()?;
            let workers = r.u16()?;
            let sockets = r.u16()?;
            let message_capacity = r.u64()? as usize;
            let addrs = r.strs()?;
            Ok((node, nodes, workers, sockets, message_capacity, addrs))
        };
        let (node, nodes, workers, sockets, message_capacity, addrs) =
            parse().map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        if node >= nodes || addrs.len() != nodes as usize || workers == 0 || sockets == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "inconsistent Join: node {node} of {nodes}, {} addrs",
                    addrs.len()
                ),
            ));
        }

        eprintln!("[node {node}] joining {nodes}-node mesh");
        let transport = SocketTransport::connect_mesh_pending(
            NodeId(node),
            &addrs,
            &self.listener,
            &self.socket_cfg,
            pending,
        )?;
        let net_stats = Arc::clone(transport.stats());

        // The same node recipe as a simulated node, with the real-socket
        // transport plugged in and no network scheduling (the in-process
        // `NetScheduler` is a shared-memory barrier; real clusters run
        // uncoordinated).
        let spec = NodeSpec {
            node: NodeId(node),
            nodes,
            workers,
            sockets,
            message_capacity,
            classic_units: None,
            alloc_policy: AllocPolicy::NumaAware,
            numa_cost_ns: 0.0,
        };
        let query_stats = Arc::new(QueryStatsRegistry::new());
        let (ctx, mux_handle) = NodeCtx::start(
            &spec,
            Box::new(transport),
            Arc::new(Fabric::new(nodes, FabricConfig::default())),
            None,
            Arc::clone(&query_stats),
        );

        let writer = Arc::new(Mutex::new(control.try_clone()?));
        send_reply(&writer, |out| serial::put_u8(out, OP_JOIN_OK))?;
        eprintln!("[node {node}] mesh up, serving");

        let mut workers_by_query: HashMap<u32, QueryWorker> = HashMap::new();
        loop {
            let frame = match read_frame(&mut control) {
                Ok(f) => f,
                Err(_) => {
                    eprintln!("[node {node}] coordinator disconnected, exiting");
                    break;
                }
            };
            match self.handle_frame(
                &frame,
                &ctx,
                &writer,
                &query_stats,
                &net_stats,
                &mut workers_by_query,
            ) {
                Ok(true) => {}
                Ok(false) => {
                    eprintln!("[node {node}] shutdown requested");
                    break;
                }
                Err(e) => {
                    eprintln!("[node {node}] control protocol error: {e}");
                    break;
                }
            }
        }

        // Unblock any stage thread still waiting mid-exchange, then join.
        ctx.hub.abort_all("node shutting down");
        for (_, w) in workers_by_query.drain() {
            drop(w.jobs);
            let _ = w.handle.join();
        }
        let _ = ctx.to_mux.send(MuxCmd::Shutdown);
        let _ = mux_handle.join();
        Ok(())
    }

    /// Dispatch one control frame. `Ok(false)` means shutdown.
    fn handle_frame(
        &self,
        frame: &[u8],
        ctx: &Arc<NodeCtx>,
        writer: &Arc<Mutex<TcpStream>>,
        query_stats: &Arc<QueryStatsRegistry>,
        net_stats: &Arc<NetStats>,
        workers: &mut HashMap<u32, QueryWorker>,
    ) -> Result<bool, String> {
        let mut r = Rd::new(frame);
        match r.u8()? {
            OP_LOAD => {
                let sf = r.f64()?;
                let db = TpchDb::generate(sf);
                let mut rows: Vec<(TpchTable, u64)> = Vec::new();
                for (kind, table) in db.into_tables() {
                    let part = chunk_split(&table, ctx.nodes as usize)
                        .into_iter()
                        .nth(ctx.node.idx())
                        .expect("own chunk");
                    rows.push((kind, part.rows() as u64));
                    ctx.tables.write().insert(kind, Arc::new(part));
                }
                send_reply(writer, |out| {
                    serial::put_u8(out, OP_LOAD_OK);
                    serial::put_u32(out, rows.len() as u32);
                    for (kind, n) in &rows {
                        serial::put_str(out, kind.name());
                        serial::put_u64(out, *n);
                    }
                })
                .map_err(|e| e.to_string())?;
            }
            OP_STAGE => {
                let query = r.u32()?;
                let index = r.u32()?;
                let params_len = r.u32()? as usize;
                let params = decode_values(r.take(params_len)?)?;
                let stage_len = r.u32()? as usize;
                let envelope = decode_stage_tagged(r.take(stage_len)?)?;
                let worker = workers.entry(query).or_insert_with(|| {
                    spawn_query_worker(
                        Arc::clone(ctx),
                        QueryId(query),
                        Arc::clone(writer),
                        query_stats.register(QueryId(query)),
                    )
                });
                worker
                    .jobs
                    .send(ShippedStage {
                        index,
                        stage: envelope.stage,
                        params,
                        deadline_us: envelope.deadline_us,
                    })
                    .map_err(|_| format!("query {query} worker is gone"))?;
            }
            OP_RETIRE => {
                let query = r.u32()?;
                // Join the stage thread first: the coordinator only retires
                // once it holds the query's result, so the thread is idle —
                // but its last sends must be counted before we read.
                let (bytes, msgs) = match workers.remove(&query) {
                    Some(w) => {
                        drop(w.jobs);
                        let _ = w.handle.join();
                        (w.stats.bytes_sent(), w.stats.messages_sent())
                    }
                    None => (0, 0),
                };
                ctx.temps.write().remove(&QueryId(query));
                ctx.hub.finish_query(QueryId(query));
                query_stats.retire(QueryId(query));
                send_reply(writer, |out| {
                    serial::put_u8(out, OP_RETIRE_OK);
                    serial::put_u32(out, query);
                    serial::put_u64(out, bytes);
                    serial::put_u64(out, msgs);
                })
                .map_err(|e| e.to_string())?;
            }
            OP_ABORT => {
                let query = r.u32()?;
                // Trip the cooperative token first so running morsel loops
                // stop, then unwedge consumers blocked on the hub.
                if let Some(w) = workers.get(&query) {
                    w.cancel.cancel();
                }
                ctx.hub.abort(QueryId(query), "aborted by the coordinator");
            }
            OP_STATS => {
                send_reply(writer, |out| {
                    serial::put_u8(out, OP_STATS_OK);
                    serial::put_u64(out, net_stats.bytes_sent());
                    serial::put_u64(out, net_stats.bytes_received());
                    serial::put_u64(out, net_stats.messages_sent());
                    serial::put_u64(out, net_stats.messages_received());
                })
                .map_err(|e| e.to_string())?;
            }
            OP_SHUTDOWN => return Ok(false),
            op => return Err(format!("unknown control opcode {op}")),
        }
        Ok(true)
    }
}

/// Send one reply frame under the writer lock.
fn send_reply(writer: &Arc<Mutex<TcpStream>>, build: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
    let mut out = Vec::new();
    build(&mut out);
    let mut w = writer.lock();
    write_frame(&mut *w, &out)?;
    w.flush()
}

/// Spawn the per-query stage-execution thread on a node.
fn spawn_query_worker(
    ctx: Arc<NodeCtx>,
    query: QueryId,
    writer: Arc<Mutex<TcpStream>>,
    stats: Arc<QueryNetStats>,
) -> QueryWorker {
    let (jobs, rx): (Sender<ShippedStage>, Receiver<ShippedStage>) = unbounded();
    let cancel = CancelToken::new();
    let token = cancel.clone();
    let handle = std::thread::Builder::new()
        .name(format!("query-{}", query.0))
        .spawn(move || run_query_worker(&ctx, query, &rx, &writer, &token))
        .expect("spawn query worker");
    QueryWorker {
        jobs,
        handle,
        stats,
        cancel,
    }
}

fn run_query_worker(
    ctx: &NodeCtx,
    query: QueryId,
    rx: &Receiver<ShippedStage>,
    writer: &Arc<Mutex<TcpStream>>,
    cancel: &CancelToken,
) {
    while let Ok(shipped) = rx.recv() {
        // The per-stage token shares the coordinator-abort tripwire and
        // adds this stage's remaining deadline budget, so morsel loops
        // stop within one morsel of either signal.
        let stage_cancel = cancel.child_with_deadline(
            shipped
                .deadline_us
                .map(|us| Instant::now() + Duration::from_micros(us)),
        );
        let job = StageJob {
            query,
            index: shipped.index,
            stage: &shipped.stage,
            params: &shipped.params,
            cancel: &stage_cancel,
        };
        let programs = compile_on_node(ctx, query, &shipped.stage.plan);
        let sent = match execute_on_node(ctx, &job, programs.as_ref(), None) {
            Ok(out) => send_reply(writer, |buf| {
                serial::put_u8(buf, OP_STAGE_DONE);
                serial::put_u32(buf, query.0);
                serial::put_u32(buf, shipped.index);
                serial::put_u64(buf, out.rows);
                match &out.table {
                    Some(t) => {
                        serial::put_u8(buf, 1);
                        buf.extend_from_slice(&encode_table(t));
                    }
                    None => serial::put_u8(buf, 0),
                }
            }),
            Err(msg) => {
                // The cross-node abort protocol: unblock local consumers,
                // then tell every peer so their blocked pops panic out
                // instead of waiting for last-markers that will never come.
                ctx.hub
                    .abort(query, &format!("node {} failed: {msg}", ctx.node.0));
                let mut frame = Vec::with_capacity(HEADER_LEN);
                encode_header(query, 0, FLAG_ABORT, 0, 0, &mut frame);
                let payload = Bytes::from(frame);
                for t in 0..ctx.nodes {
                    if t != ctx.node.0 {
                        let _ = ctx.to_mux.send(MuxCmd::Send {
                            target: NodeId(t),
                            payload: payload.clone(),
                            pool_socket: SocketId(0),
                        });
                    }
                }
                send_reply(writer, |buf| {
                    serial::put_u8(buf, OP_STAGE_FAIL);
                    serial::put_u32(buf, query.0);
                    serial::put_u32(buf, shipped.index);
                    serial::put_str(buf, &msg);
                })
            }
        };
        if sent.is_err() {
            return; // coordinator gone
        }
    }
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// Coordinator-side configuration for an out-of-process cluster.
#[derive(Debug, Clone)]
pub struct ProcessClusterConfig {
    /// Engine knobs shipped to every node.
    pub engine: RemoteEngineConfig,
    /// How long to keep retrying a node dial at connect time.
    pub connect_timeout: Duration,
    /// Watchdog for any single control reply; a cluster that goes silent
    /// longer than this fails the query instead of hanging forever.
    pub reply_timeout: Duration,
    /// Dispatcher slots and pre-registered tenants (the same settings the
    /// in-process [`ClusterConfig`](crate::cluster::ClusterConfig) uses).
    pub dispatch: DispatchConfig,
}

impl Default for ProcessClusterConfig {
    fn default() -> Self {
        Self {
            engine: RemoteEngineConfig::default(),
            connect_timeout: Duration::from_secs(10),
            reply_timeout: Duration::from_secs(60),
            dispatch: DispatchConfig::default(),
        }
    }
}

/// How often a dispatcher waiting on stage replies re-checks the query's
/// cancellation token.
const CANCEL_POLL: Duration = Duration::from_millis(10);

/// A control reply routed to the query that awaits it.
enum NodeReply {
    StageDone {
        stage: u32,
        /// The node's local result cardinality for the stage, fed back to
        /// the adaptive planner.
        rows: u64,
        table: Option<Table>,
    },
    StageFail {
        stage: u32,
        msg: String,
    },
    RetireOk {
        bytes: u64,
        msgs: u64,
    },
    /// The node's control connection died.
    NodeDown(String),
}

/// Replies to coordinator-wide (non-query) requests.
enum CtlReply {
    LoadOk(Vec<(String, u64)>),
    /// bytes sent, bytes received, messages sent, messages received.
    StatsOk(u64, u64, u64, u64),
}

type ReplyChannel = (Sender<(usize, NodeReply)>, Receiver<(usize, NodeReply)>);

struct CoordShared {
    /// Per-query reply channels, keyed by query id, from a query's first
    /// shipped stage until it retires.
    pending: Mutex<HashMap<u32, ReplyChannel>>,
    /// Channel for Load/Stats replies (one control op at a time).
    ctl_tx: Sender<(usize, CtlReply)>,
    /// Set as soon as any node's control connection dies.
    dead: AtomicBool,
}

struct NodeConn {
    writer: Mutex<TcpStream>,
    /// Kept to force-close the connection at shutdown.
    stream: TcpStream,
}

/// The `hsqp-node` control connections as a [`NodeSet`].
struct RemoteNodes {
    conns: Vec<NodeConn>,
    shared: Arc<CoordShared>,
    reply_timeout: Duration,
}

impl RemoteNodes {
    fn broadcast(&self, frame: &[u8]) -> Result<(), EngineError> {
        for (i, conn) in self.conns.iter().enumerate() {
            let mut w = conn.writer.lock();
            write_frame(&mut *w, frame)
                .and_then(|()| w.flush())
                .map_err(|e| EngineError::Execution(format!("node {i} unreachable: {e}")))?;
        }
        Ok(())
    }

    /// Send a query-addressed control request (`Abort`, `Retire`).
    fn broadcast_query(&self, op: u8, query: QueryId) -> Result<(), EngineError> {
        let mut frame = Vec::new();
        serial::put_u8(&mut frame, op);
        serial::put_u32(&mut frame, query.0);
        self.broadcast(&frame)
    }
}

impl NodeSet for RemoteNodes {
    fn nodes(&self) -> u16 {
        self.conns.len() as u16
    }

    /// Ship the serialized stage to every node and collect their replies.
    /// The query's token is polled while waiting, so a cancel or a passed
    /// deadline fails the stage promptly; the coordinator then aborts the
    /// query on the nodes.
    fn run_stage(
        &self,
        job: &StageJob<'_>,
        tenant: &TenantId,
        _recorder: Option<&StageRecorder>,
    ) -> Result<StageOutput, EngineError> {
        // Register before checking liveness: a node dying after the check
        // then still reaches this query as `NodeDown`.
        let rx = {
            let mut pending = self.shared.pending.lock();
            pending
                .entry(job.query.0)
                .or_insert_with(unbounded)
                .1
                .clone()
        };
        if self.shared.dead.load(Ordering::SeqCst) {
            return Err(EngineError::Execution("a cluster node is down".into()));
        }
        // Ship the remaining budget, not the absolute deadline: the node
        // processes' clocks are not synchronized with ours.
        let remaining = match job.cancel.deadline() {
            Some(dl) => {
                let left = dl.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(EngineError::DeadlineExceeded);
                }
                Some(left.as_micros() as u64)
            }
            None => None,
        };
        let mut frame = Vec::new();
        serial::put_u8(&mut frame, OP_STAGE);
        serial::put_u32(&mut frame, job.query.0);
        serial::put_u32(&mut frame, job.index);
        let params_bytes = encode_values(job.params);
        serial::put_u32(&mut frame, params_bytes.len() as u32);
        frame.extend_from_slice(&params_bytes);
        let stage_bytes = encode_stage_tagged(job.stage, Some(tenant.as_str()), remaining);
        serial::put_u32(&mut frame, stage_bytes.len() as u32);
        frame.extend_from_slice(&stage_bytes);
        self.broadcast(&frame)?;

        let n = self.conns.len();
        let mut rows: Vec<Option<u64>> = vec![None; n];
        let mut table = None;
        let silent_after = Instant::now() + self.reply_timeout;
        while rows.iter().any(Option::is_none) {
            if let Some(reason) = job.cancel.should_stop() {
                return Err(reason.into_error());
            }
            let (node, reply) = match rx.recv_timeout(CANCEL_POLL) {
                Ok(r) => r,
                Err(_) if Instant::now() < silent_after => continue,
                Err(_) => {
                    return Err(EngineError::Execution(format!(
                        "stage {} of q{} timed out after {:?}",
                        job.index, job.query.0, self.reply_timeout
                    )))
                }
            };
            match reply {
                NodeReply::StageDone {
                    stage,
                    rows: r,
                    table: t,
                } if stage == job.index => {
                    rows[node] = Some(r);
                    if node == 0 {
                        table = t;
                    }
                }
                NodeReply::StageFail { stage, msg } if stage == job.index => {
                    // A node that stopped at its shipped deadline fails
                    // with the token's panic message: report the typed
                    // error the coordinator's own token now records.
                    return Err(match job.cancel.should_stop() {
                        Some(reason) => reason.into_error(),
                        None => EngineError::Execution(format!(
                            "node {node} failed stage {}: {msg}",
                            job.index
                        )),
                    });
                }
                NodeReply::NodeDown(msg) => {
                    return Err(EngineError::Execution(format!(
                        "node {node} died mid-query: {msg}"
                    )));
                }
                // Stale replies (a late RetireOk, a reply of an earlier
                // stage) are dropped.
                _ => {}
            }
        }
        Ok(StageOutput {
            rows: rows.into_iter().map(Option::unwrap_or_default).collect(),
            table,
            programs: None,
        })
    }

    /// Ordered before `Retire` on each control connection, so every node
    /// unwedges the query before it is asked to release it.
    fn abort(&self, query: QueryId) {
        if self.shared.pending.lock().contains_key(&query.0) {
            let _ = self.broadcast_query(OP_ABORT, query);
        }
    }

    /// Best-effort: dead nodes simply do not report. A query that never
    /// shipped a stage holds nothing on the nodes.
    fn retire(&self, query: QueryId, stats: &QueryNetStats) {
        let Some((_, rx)) = self.shared.pending.lock().get(&query.0).cloned() else {
            return;
        };
        if self.broadcast_query(OP_RETIRE, query).is_ok() {
            let mut acked = 0;
            let deadline = Instant::now() + self.reply_timeout;
            while acked < self.conns.len() && Instant::now() < deadline {
                match rx.recv_timeout(Duration::from_millis(200)) {
                    Ok((_, NodeReply::RetireOk { bytes, msgs })) => {
                        stats.add(bytes, msgs);
                        acked += 1;
                    }
                    Ok((_, NodeReply::NodeDown(_))) => acked += 1,
                    Ok(_) => {} // stray stage replies of the aborted query
                    Err(_) if self.shared.dead.load(Ordering::SeqCst) => break,
                    Err(_) => {}
                }
            }
        }
        self.shared.pending.lock().remove(&query.0);
    }
}

/// Coordinator for a cluster of out-of-process [`NodeServer`]s.
///
/// Dereferences to its [`Coordinator`], exactly like the in-process
/// [`Cluster`](crate::cluster::Cluster): queries are submitted, queued per
/// tenant, cancelled and accounted the same way, and replies from the
/// nodes are demultiplexed per query id.
pub struct ProcessCluster {
    coord: Coordinator,
    nodes: Arc<RemoteNodes>,
    ctl_rx: Mutex<Receiver<(usize, CtlReply)>>,
    readers: Vec<std::thread::JoinHandle<()>>,
    table_rows: RwLock<HashMap<TpchTable, u64>>,
}

impl std::ops::Deref for ProcessCluster {
    type Target = Coordinator;

    fn deref(&self) -> &Coordinator {
        &self.coord
    }
}

impl ProcessCluster {
    /// Connect to `addrs` (one `host:port` per node process), ship the
    /// cluster topology, and wait for every node to report its data mesh
    /// up. Node `i` of the cluster is `addrs[i]`; node 0 gathers results.
    pub fn connect(addrs: &[String], cfg: ProcessClusterConfig) -> Result<Self, EngineError> {
        if addrs.is_empty() {
            return Err(EngineError::Config("need at least one node address".into()));
        }
        cfg.dispatch.validate()?;
        let nodes = addrs.len() as u16;
        let io_err = |what: &str, e: io::Error| {
            EngineError::Execution(format!("cluster connect: {what}: {e}"))
        };

        // Dial every node and send its Join; JoinOks only come back once
        // the whole mesh is up, so all Joins must be in flight first.
        let mut streams = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let mut stream = dial_retry(addr, cfg.connect_timeout)
                .map_err(|e| io_err(&format!("dialing {addr}"), e))?;
            send_preamble(
                &mut stream,
                &Preamble {
                    version: WIRE_VERSION,
                    role: HandshakeRole::Control,
                    node: 0,
                    nodes,
                },
            )
            .map_err(|e| io_err("handshake", e))?;
            streams.push(stream);
        }
        for (i, stream) in streams.iter_mut().enumerate() {
            let mut join = Vec::new();
            serial::put_u8(&mut join, OP_JOIN);
            serial::put_u16(&mut join, i as u16);
            serial::put_u16(&mut join, nodes);
            serial::put_u16(&mut join, cfg.engine.workers_per_node);
            serial::put_u16(&mut join, cfg.engine.sockets);
            serial::put_u64(&mut join, cfg.engine.message_capacity as u64);
            serial::put_strs(&mut join, addrs);
            write_frame(stream, &join).map_err(|e| io_err("sending Join", e))?;
            stream.flush().map_err(|e| io_err("sending Join", e))?;
        }
        for (i, stream) in streams.iter_mut().enumerate() {
            let frame = read_frame(stream)
                .map_err(|e| io_err(&format!("waiting for node {i} to join"), e))?;
            if frame.first() != Some(&OP_JOIN_OK) {
                return Err(EngineError::Execution(format!(
                    "node {i} rejected the Join handshake"
                )));
            }
        }

        let (ctl_tx, ctl_rx) = unbounded();
        let shared = Arc::new(CoordShared {
            pending: Mutex::new(HashMap::new()),
            ctl_tx,
            dead: AtomicBool::new(false),
        });
        let mut conns = Vec::with_capacity(streams.len());
        let mut readers = Vec::with_capacity(streams.len());
        for (i, stream) in streams.into_iter().enumerate() {
            let reader_stream = stream.try_clone().map_err(|e| io_err("clone", e))?;
            let writer = Mutex::new(stream.try_clone().map_err(|e| io_err("clone", e))?);
            conns.push(NodeConn { writer, stream });
            let shared = Arc::clone(&shared);
            readers.push(
                std::thread::Builder::new()
                    .name(format!("coord-recv-{i}"))
                    .spawn(move || coord_reader(i, reader_stream, &shared))
                    .expect("spawn coordinator reader"),
            );
        }
        let nodes = Arc::new(RemoteNodes {
            conns,
            shared,
            reply_timeout: cfg.reply_timeout,
        });
        // The nodes record no spans the coordinator could merge, so the
        // coordinator keeps no profiles.
        let coord = Coordinator::start(
            Arc::clone(&nodes) as Arc<dyn NodeSet>,
            Arc::new(QueryStatsRegistry::new()),
            &cfg.dispatch,
            false,
        );
        Ok(Self {
            coord,
            nodes,
            ctl_rx: Mutex::new(ctl_rx),
            readers,
            table_rows: RwLock::new(HashMap::new()),
        })
    }

    /// Cluster size.
    pub fn nodes(&self) -> u16 {
        self.nodes.conns.len() as u16
    }

    /// Have every node generate TPC-H at `sf` and keep its chunk. Returns
    /// once all nodes report their local row counts (summed into
    /// [`table_rows`](Self::table_rows) for exact planner cardinalities).
    pub fn load_tpch(&self, sf: f64) -> Result<(), EngineError> {
        self.ensure_up()?;
        let ctl = self.ctl_rx.lock();
        let mut frame = Vec::new();
        serial::put_u8(&mut frame, OP_LOAD);
        serial::put_f64(&mut frame, sf);
        self.nodes.broadcast(&frame)?;
        // Data generation is CPU-bound and scales with sf; be generous.
        let deadline = self.nodes.reply_timeout.max(Duration::from_secs(600));
        let mut totals: HashMap<TpchTable, u64> = HashMap::new();
        for _ in 0..self.nodes.conns.len() {
            match ctl.recv_timeout(deadline) {
                Ok((_, CtlReply::LoadOk(rows))) => {
                    for (name, n) in rows {
                        if let Some(kind) = TpchTable::from_name(&name) {
                            *totals.entry(kind).or_insert(0) += n;
                        }
                    }
                }
                Ok((_, CtlReply::StatsOk(..))) => {}
                Err(_) => {
                    return Err(EngineError::Execution(
                        "cluster went silent while loading TPC-H".into(),
                    ))
                }
            }
        }
        *self.table_rows.write() = totals;
        Ok(())
    }

    /// Total rows of `table` across all node processes (reported by the
    /// nodes at load time).
    pub fn table_rows(&self, table: TpchTable) -> Option<u64> {
        self.table_rows.read().get(&table).copied()
    }

    /// Poll every node for its socket-mesh counters and return the
    /// cluster-wide sums: `(bytes_sent, bytes_received, messages_sent,
    /// messages_received)`.
    pub fn net_stats(&self) -> Result<(u64, u64, u64, u64), EngineError> {
        self.ensure_up()?;
        let ctl = self.ctl_rx.lock();
        self.nodes.broadcast(&[OP_STATS])?;
        let mut sums = (0u64, 0u64, 0u64, 0u64);
        for _ in 0..self.nodes.conns.len() {
            match ctl.recv_timeout(self.nodes.reply_timeout) {
                Ok((_, CtlReply::StatsOk(bs, br, ms, mr))) => {
                    sums.0 += bs;
                    sums.1 += br;
                    sums.2 += ms;
                    sums.3 += mr;
                }
                Ok((_, CtlReply::LoadOk(_))) => {}
                Err(_) => {
                    return Err(EngineError::Execution(
                        "cluster went silent while reporting stats".into(),
                    ))
                }
            }
        }
        Ok(sums)
    }

    /// Drain the coordinator (in-flight queries complete, queued ones fail
    /// with [`EngineError::ClusterDown`]), then shut the node processes
    /// down and disconnect.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if !self.coord.shutdown() {
            return;
        }
        let frame = [OP_SHUTDOWN];
        for conn in &self.nodes.conns {
            let mut w = conn.writer.lock();
            let _ = write_frame(&mut *w, &frame).and_then(|()| w.flush());
        }
        for conn in &self.nodes.conns {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
        for h in self.readers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ProcessCluster {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Reader thread for one node's control connection: demultiplexes replies
/// to the queries awaiting them; on connection loss fails every pending
/// query instead of letting it wait forever.
fn coord_reader(node: usize, mut stream: TcpStream, shared: &CoordShared) {
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(f) => f,
            Err(e) => {
                shared.dead.store(true, Ordering::SeqCst);
                let msg = format!("control connection lost: {e}");
                for (tx, _) in shared.pending.lock().values() {
                    let _ = tx.send((node, NodeReply::NodeDown(msg.clone())));
                }
                return;
            }
        };
        let mut r = Rd::new(&frame);
        let routed: Result<(), String> = (|| {
            match r.u8()? {
                OP_STAGE_DONE => {
                    let query = r.u32()?;
                    let stage = r.u32()?;
                    let rows = r.u64()?;
                    let table = match r.u8()? {
                        0 => None,
                        _ => Some(decode_table(r.take_rest())?),
                    };
                    route(
                        shared,
                        node,
                        query,
                        NodeReply::StageDone { stage, rows, table },
                    );
                }
                OP_STAGE_FAIL => {
                    let query = r.u32()?;
                    let stage = r.u32()?;
                    let msg = r.str()?;
                    route(shared, node, query, NodeReply::StageFail { stage, msg });
                }
                OP_RETIRE_OK => {
                    let query = r.u32()?;
                    let bytes = r.u64()?;
                    let msgs = r.u64()?;
                    route(shared, node, query, NodeReply::RetireOk { bytes, msgs });
                }
                OP_LOAD_OK => {
                    let count = r.u32()? as usize;
                    let mut rows = Vec::with_capacity(count);
                    for _ in 0..count {
                        let name = r.str()?;
                        let n = r.u64()?;
                        rows.push((name, n));
                    }
                    let _ = shared.ctl_tx.send((node, CtlReply::LoadOk(rows)));
                }
                OP_STATS_OK => {
                    let bs = r.u64()?;
                    let br = r.u64()?;
                    let ms = r.u64()?;
                    let mr = r.u64()?;
                    let _ = shared
                        .ctl_tx
                        .send((node, CtlReply::StatsOk(bs, br, ms, mr)));
                }
                op => return Err(format!("unexpected reply opcode {op}")),
            }
            Ok(())
        })();
        if let Err(e) = routed {
            shared.dead.store(true, Ordering::SeqCst);
            let msg = format!("protocol error from node {node}: {e}");
            for (tx, _) in shared.pending.lock().values() {
                let _ = tx.send((node, NodeReply::NodeDown(msg.clone())));
            }
            return;
        }
    }
}

fn route(shared: &CoordShared, node: usize, query: u32, reply: NodeReply) {
    if let Some((tx, _)) = shared.pending.lock().get(&query) {
        let _ = tx.send((node, reply));
    }
}

/// Dial with retries until `timeout` (node processes may still be
/// starting when the coordinator launches).
fn dial_retry(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let deadline = Instant::now() + timeout;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Plan;
    use crate::planner::{Planner, PlannerConfig};
    use crate::queries::{tpch_logical, Query};
    use crate::serve::SubmitOptions;

    /// TPC-H query `n` as the planner lowers it for a 2-node cluster.
    fn planned(n: u32) -> Query {
        Planner::new(PlannerConfig::new(2))
            .plan_query(&tpch_logical(n).unwrap())
            .unwrap()
    }

    /// Spawn `n` node servers on loopback threads and return their
    /// addresses (in-process stand-ins for `hsqp-node` child processes;
    /// the real-process path is covered by `tests/process_cluster.rs`).
    fn spawn_nodes(n: usize) -> Vec<String> {
        let mut addrs = Vec::new();
        for _ in 0..n {
            let server = NodeServer::bind("127.0.0.1:0").unwrap();
            addrs.push(server.local_addr().unwrap().to_string());
            std::thread::spawn(move || {
                let _ = server.run();
            });
        }
        addrs
    }

    #[test]
    fn two_process_cluster_matches_in_process() {
        let addrs = spawn_nodes(2);
        let pc = ProcessCluster::connect(&addrs, ProcessClusterConfig::default()).unwrap();
        pc.load_tpch(0.001).unwrap();
        assert!(pc.table_rows(TpchTable::Lineitem).unwrap() > 1000);

        let local =
            crate::cluster::Cluster::start(crate::cluster::ClusterConfig::quick(2)).unwrap();
        local.load_tpch(0.001).unwrap();

        // Same SF, node count and chunked placement: the gathered tables
        // must hold the same rows, modulo row order (gather order follows
        // message arrival) and float summation order.
        let sorted_rows = |t: &Table| {
            let mut rows: Vec<Vec<String>> = (0..t.rows())
                .map(|r| {
                    t.row(r)
                        .into_iter()
                        .map(|v| match v {
                            Value::F64(x) => format!("{x:.2}"),
                            v => v.to_string(),
                        })
                        .collect()
                })
                .collect();
            rows.sort();
            rows
        };
        for qn in [1u32, 3, 6, 11] {
            let q = planned(qn);
            let remote = pc.run(&q).unwrap();
            let reference = local.run(&q).unwrap();
            assert_eq!(remote.table.schema(), reference.table.schema(), "Q{qn}");
            assert_eq!(
                sorted_rows(&remote.table),
                sorted_rows(&reference.table),
                "Q{qn} rows"
            );
        }
        local.shutdown();
        pc.shutdown();
    }

    #[test]
    fn remote_failure_surfaces_as_error_not_hang() {
        let addrs = spawn_nodes(2);
        let pc = ProcessCluster::connect(&addrs, ProcessClusterConfig::default()).unwrap();
        pc.load_tpch(0.001).unwrap();
        // A plan naming a nonexistent column panics in the node's stage
        // thread; the abort protocol must carry the failure back.
        let bad = Query::single(
            0,
            Plan::scan_cols(TpchTable::Nation, &["no_such_column"])
                .repartition(&["no_such_column"])
                .gather(),
        );
        match pc.run(&bad) {
            Err(EngineError::Execution(msg)) => {
                assert!(
                    msg.contains("failed") || msg.contains("panicked"),
                    "unexpected message: {msg}"
                );
            }
            other => panic!("expected contained failure, got {other:?}"),
        }
        // The cluster survives for the next query.
        let ok = planned(6);
        assert!(pc.run(&ok).is_ok());
        pc.shutdown();
    }

    #[test]
    fn remote_deadline_cancels_instead_of_wedging() {
        let addrs = spawn_nodes(2);
        let pc = ProcessCluster::connect(&addrs, ProcessClusterConfig::default()).unwrap();
        pc.load_tpch(0.01).unwrap();
        // A heavy multi-join with a deadline far below its runtime: the
        // nodes stop at a morsel boundary and the coordinator returns the
        // typed error instead of wedging on the stage replies.
        let q = planned(9);
        let opts = SubmitOptions::tenant("gold").with_deadline(Duration::from_millis(2));
        match pc.run_with(&q, &opts) {
            Err(EngineError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // The cluster survives for the next query, and the tenant tag
        // rides along on the successful path too.
        let ok = planned(6);
        let r = pc.run_with(&ok, &SubmitOptions::tenant("gold")).unwrap();
        assert!(r.table.rows() > 0);
        assert!(r.queue_wait <= r.elapsed);
        pc.shutdown();
    }

    #[test]
    fn query_net_stats_are_folded_from_node_reports() {
        let addrs = spawn_nodes(2);
        let pc = ProcessCluster::connect(&addrs, ProcessClusterConfig::default()).unwrap();
        pc.load_tpch(0.001).unwrap();
        let q = planned(3);
        let r = pc.run(&q).unwrap();
        assert!(r.bytes_shuffled > 0, "a join at 2 nodes must shuffle");
        assert!(r.messages_sent > 0);
        pc.shutdown();
    }
}
