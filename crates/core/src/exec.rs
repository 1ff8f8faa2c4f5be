//! SPMD plan execution on one node.
//!
//! Every node of the cluster executes the same plan ([`NodeExec::execute`]);
//! [`Plan::Exchange`] nodes are where tuples cross server boundaries. The
//! executor materializes operator results per pipeline stage and uses the
//! node's [`MorselDriver`] for intra-node parallelism, so work stealing
//! applies to scans, probes, aggregation, partitioning, and deserialization
//! alike.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::Sender;
use parking_lot::RwLock;

use hsqp_net::{
    Fabric, NetScheduler, NodeId, QueryId, QueryStatsRegistry, Transport as NetTransport,
};
use hsqp_numa::{AllocPolicy, CostModel, SocketId, Topology};
use hsqp_storage::placement::{crc32, crc32_i64};
use hsqp_storage::table::MORSEL_SIZE;
use hsqp_storage::{decimal_to_f64, Column, Schema, Table, Value};
use hsqp_tpch::TpchTable;

use crate::exchange::{
    encode_header, patch_header, spawn_multiplexer, MessagePool, MuxCmd, MuxConfig, RecvHub,
    RecvMsg, FLAG_DUP, FLAG_LAST, HEADER_LEN,
};
use crate::expr::{eval, Expr};
use crate::local::MorselDriver;
use crate::ops::{
    aggregate_with, canon_f64_bits, i64_as_f64_exact, probe_join, sort_table, JoinTable,
};
use crate::plan::{ExchangeKind, MapExpr, Plan};
use crate::profile::{plan_node_count, NodeRecorder};
use crate::serve::CancelToken;
use crate::vm::{BoundProgram, CompiledStage, ExprProgram, OpPrograms};
use crate::wire::{RowDeserializer, RowSerializer};

/// How many serialized rows a send loop processes between cancellation
/// checks (the morsel-equivalent granularity of the row-at-a-time
/// broadcast/gather serializers).
const CANCEL_CHECK_ROWS: usize = 4096;

/// Shared, long-lived state of one simulated server node.
pub struct NodeCtx {
    /// This node's id.
    pub node: NodeId,
    /// Cluster size.
    pub nodes: u16,
    /// Worker pool configuration.
    pub driver: MorselDriver,
    /// NUMA topology of this server.
    pub topology: Arc<Topology>,
    /// Message-buffer allocation policy (Figure 9).
    pub alloc_policy: AllocPolicy,
    /// `Some(t)` switches the node into classic-exchange mode with `t`
    /// parallel units.
    pub classic_units: Option<u16>,
    /// Tuple bytes per network message (the paper uses 512 KB).
    pub message_capacity: usize,
    /// NUMA-aware registered-buffer pool.
    pub pool: Arc<MessagePool>,
    /// Receive routing point shared with the multiplexer.
    pub hub: Arc<RecvHub>,
    /// Command channel to the multiplexer thread.
    pub to_mux: Sender<MuxCmd>,
    /// Loaded base relations (this node's placement share).
    pub tables: RwLock<HashMap<TpchTable, Arc<Table>>>,
    /// Temporary relations materialized by in-flight queries' stages,
    /// namespaced per query so overlapping multi-stage queries cannot read
    /// (or clobber) each other's temps. The cluster inserts after each
    /// `Materialize` stage and removes the whole namespace when the query
    /// finishes, fails, or is cancelled.
    pub temps: RwLock<HashMap<QueryId, HashMap<String, Arc<Table>>>>,
    /// Rows deserialized per worker across all exchanges (skew diagnosis:
    /// with work stealing the loads balance; with static classic-exchange
    /// ownership a skewed partition overloads one unit).
    pub consume_loads: parking_lot::Mutex<Vec<u64>>,
    /// The network fabric (statistics).
    pub fabric: Arc<Fabric>,
}

/// How one node is built: the same recipe for a simulated node and for an
/// `hsqp-node` process.
pub(crate) struct NodeSpec {
    pub node: NodeId,
    pub nodes: u16,
    pub workers: u16,
    pub sockets: u16,
    pub message_capacity: usize,
    /// `Some(t)` runs classic exchanges with `t` parallel units.
    pub classic_units: Option<u16>,
    pub alloc_policy: AllocPolicy,
    /// NUMA remote-access penalty in ns/byte (0 disables the simulation).
    pub numa_cost_ns: f64,
}

impl NodeCtx {
    /// Build a node and spawn its multiplexer over `endpoint`, scheduled
    /// round-robin when a `scheduler` is given. Returns the node and its
    /// multiplexer thread (stopped by sending [`MuxCmd::Shutdown`]).
    pub(crate) fn start(
        spec: &NodeSpec,
        endpoint: Box<dyn NetTransport>,
        fabric: Arc<Fabric>,
        scheduler: Option<Arc<NetScheduler>>,
        query_stats: Arc<QueryStatsRegistry>,
    ) -> (Arc<NodeCtx>, JoinHandle<()>) {
        let cores_per_socket = spec.workers.div_ceil(spec.sockets).max(1);
        let cost = CostModel::new(spec.numa_cost_ns);
        let topology = Arc::new(Topology::new(spec.sockets, cores_per_socket, cost));
        let hub = RecvHub::new(spec.classic_units.unwrap_or(spec.sockets) as usize);
        let pool = Arc::new(MessagePool::new(
            Arc::clone(&fabric),
            spec.node,
            spec.sockets,
            spec.message_capacity,
        ));
        let mux_cfg = MuxConfig {
            node: spec.node,
            nodes: spec.nodes,
            scheduling: scheduler.is_some(),
            batch_per_phase: 8,
            classic_units: spec.classic_units,
            sockets: spec.sockets,
            alloc_policy: spec.alloc_policy,
        };
        let (to_mux, mux) = spawn_multiplexer(
            mux_cfg,
            endpoint,
            Arc::clone(&hub),
            Arc::clone(&pool),
            scheduler,
            query_stats,
        );
        let stealing = spec.classic_units.is_none();
        let ctx = NodeCtx {
            node: spec.node,
            nodes: spec.nodes,
            driver: MorselDriver::new(spec.workers, &topology, MORSEL_SIZE, stealing),
            topology,
            alloc_policy: spec.alloc_policy,
            classic_units: spec.classic_units,
            message_capacity: spec.message_capacity,
            pool,
            hub,
            to_mux,
            tables: RwLock::new(HashMap::new()),
            temps: RwLock::new(HashMap::new()),
            consume_loads: parking_lot::Mutex::new(Vec::new()),
            fabric,
        };
        (Arc::new(ctx), mux)
    }

    fn local_table(&self, t: TpchTable) -> Arc<Table> {
        self.tables
            .read()
            .get(&t)
            .unwrap_or_else(|| panic!("table {:?} not loaded on node {}", t.name(), self.node.0))
            .clone()
    }

    fn is_classic(&self) -> bool {
        self.classic_units.is_some()
    }

    /// This node's share of query `query`'s temp relation `name`.
    fn query_temp(&self, query: QueryId, name: &str) -> Arc<Table> {
        self.temps
            .read()
            .get(&query)
            .and_then(|ns| ns.get(name))
            .unwrap_or_else(|| {
                panic!(
                    "temp relation {name:?} of {query} not materialized on node {} \
                     (missing Materialize stage before this TempScan)",
                    self.node.0
                )
            })
            .clone()
    }
}

/// One operator's node-local result: either a freshly computed table or a
/// shared reference to an already materialized one (a base-relation or
/// temp-relation scan with no filter and no projection). Sharing avoids
/// deep-copying materialized CTEs on every `Plan::TempScan` — doubly
/// important with concurrent queries multiplying scan counts.
pub enum Batch {
    /// A table this operator computed and owns.
    Owned(Table),
    /// A shared, immutable materialized table.
    Shared(Arc<Table>),
}

impl Deref for Batch {
    type Target = Table;

    fn deref(&self) -> &Table {
        match self {
            Batch::Owned(t) => t,
            Batch::Shared(t) => t,
        }
    }
}

impl Batch {
    /// The table by value (clones only if it is shared and referenced
    /// elsewhere).
    pub fn into_table(self) -> Table {
        match self {
            Batch::Owned(t) => t,
            Batch::Shared(t) => Arc::try_unwrap(t).unwrap_or_else(|t| (*t).clone()),
        }
    }

    /// The table behind an `Arc` (no copy in the shared case).
    pub fn into_arc(self) -> Arc<Table> {
        match self {
            Batch::Owned(t) => Arc::new(t),
            Batch::Shared(t) => t,
        }
    }
}

/// Executes plans on one node, on behalf of one query.
pub struct NodeExec<'a> {
    ctx: &'a NodeCtx,
    query: QueryId,
    params: &'a [Value],
    next_exchange: AtomicU32,
    recorder: Option<&'a NodeRecorder>,
    programs: Option<&'a CompiledStage>,
    cancel: Option<&'a CancelToken>,
}

impl<'a> NodeExec<'a> {
    /// Executor for `query` with parameters bound and exchange ids starting
    /// at `exchange_base` (must be identical on all nodes for a given
    /// stage; distinct stages of one query use disjoint ranges). Temp
    /// relations materialized by the query's earlier stages are read from
    /// the node's per-query namespace.
    pub fn new(ctx: &'a NodeCtx, query: QueryId, params: &'a [Value], exchange_base: u32) -> Self {
        Self {
            ctx,
            query,
            params,
            next_exchange: AtomicU32::new(exchange_base),
            recorder: None,
            programs: None,
            cancel: None,
        }
    }

    /// Attach this node's profiling recorder: every operator then records
    /// a span cell (pre-order indexed) as it executes.
    pub fn with_recorder(mut self, recorder: Option<&'a NodeRecorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attach the stage's compiled expression programs (same pre-order
    /// operator numbering as the recorder). Operators without a program —
    /// or whose program fails to bind against the runtime table — fall
    /// back to the tree-walking evaluator.
    pub fn with_programs(mut self, programs: Option<&'a CompiledStage>) -> Self {
        self.programs = programs;
        self
    }

    /// Attach the query's cooperative cancellation token: operator morsel
    /// loops, send loops, and exchange waits then poll it and bail out by
    /// panicking (contained by the per-node `catch_unwind`), bounding
    /// cancel/deadline latency by one morsel instead of one stage.
    pub fn with_cancel(mut self, cancel: Option<&'a CancelToken>) -> Self {
        self.cancel = cancel;
        self
    }

    /// Panic out of the current operator if the query was cancelled or
    /// its deadline passed (no-op without a token).
    fn check_cancel(&self) {
        if let Some(token) = self.cancel {
            token.check_morsel();
        }
    }

    fn programs_at(&self, idx: usize) -> Option<&'a OpPrograms> {
        self.programs.and_then(|p| p.get(idx))
    }

    /// Execute `plan`, returning this node's share of the result.
    pub fn execute(&self, plan: &Plan) -> Batch {
        self.execute_at(plan, 0)
    }

    /// Execute the operator at pre-order index `idx` (see
    /// [`crate::profile::plan_labels`] for the numbering), recording its
    /// span when profiling is on.
    fn execute_at(&self, plan: &Plan, idx: usize) -> Batch {
        // Operator boundaries are cancellation points too, covering
        // operators whose inner loops run outside this module (join
        // build/probe, aggregation, sort).
        self.check_cancel();
        if let Some(rec) = self.recorder {
            rec.op_enter(idx);
        }
        let (out, rows_in) = match plan {
            Plan::Scan {
                table,
                filter,
                project,
            } => {
                let t = self.ctx.local_table(*table);
                let rows_in = t.rows() as u64;
                let out = match (filter, project) {
                    (Some(pred), project) => {
                        // Filter to a selection vector first, then gather
                        // only the surviving rows of the projected columns
                        // — never materializing pruned columns.
                        let prog = self.programs_at(idx).and_then(|p| p.filter.as_ref());
                        let indices = self.filter_indices(&t, pred, prog);
                        Batch::Owned(match project {
                            Some(names) => {
                                let cols: Vec<usize> =
                                    names.iter().map(|n| t.schema().index_of(n)).collect();
                                Table::new(
                                    t.schema().project(&cols),
                                    cols.iter().map(|&c| t.column(c).gather(&indices)).collect(),
                                )
                            }
                            None => t.gather(&indices),
                        })
                    }
                    (None, Some(names)) => Batch::Owned(project_table(&t, names)),
                    // No transform: share the loaded relation.
                    (None, None) => Batch::Shared(t),
                };
                (out, rows_in)
            }
            Plan::TempScan { name, project } => {
                let t = self.ctx.query_temp(self.query, name);
                let rows_in = t.rows() as u64;
                let out = match project {
                    Some(names) => Batch::Owned(project_table(&t, names)),
                    // No transform: share the materialized temp.
                    None => Batch::Shared(t),
                };
                (out, rows_in)
            }
            Plan::Filter { input, predicate } => {
                let t = self.execute_at(input, idx + 1);
                let rows_in = t.rows() as u64;
                let prog = self.programs_at(idx).and_then(|p| p.filter.as_ref());
                let indices = self.filter_indices(&t, predicate, prog);
                (Batch::Owned(t.gather(&indices)), rows_in)
            }
            Plan::Map { input, outputs } => {
                let t = self.execute_at(input, idx + 1);
                let rows_in = t.rows() as u64;
                let progs = self.programs_at(idx);
                (Batch::Owned(self.parallel_map(&t, outputs, progs)), rows_in)
            }
            Plan::HashJoin {
                probe,
                build,
                probe_keys,
                build_keys,
                kind,
            } => {
                // Pre-order: probe renders first, so it is idx + 1 and the
                // build subtree starts after the whole probe subtree.
                let build_idx_base = idx + 1 + plan_node_count(probe);
                let build_t = self.execute_at(build, build_idx_base).into_arc();
                let build_idx: Vec<usize> = build_keys
                    .iter()
                    .map(|k| build_t.schema().index_of(k))
                    .collect();
                let build_rows = build_t.rows() as u64;
                let jt = JoinTable::build_cancellable(build_t, &build_idx, self.cancel);
                let probe_t = self.execute_at(probe, idx + 1);
                let probe_idx: Vec<usize> = probe_keys
                    .iter()
                    .map(|k| probe_t.schema().index_of(k))
                    .collect();
                let rows_in = build_rows + probe_t.rows() as u64;
                let out = Batch::Owned(probe_join(
                    &probe_t,
                    &jt,
                    &probe_idx,
                    *kind,
                    &self.ctx.driver,
                    self.cancel,
                ));
                (out, rows_in)
            }
            Plan::Aggregate {
                input,
                group_by,
                aggs,
                phase,
            } => {
                let t = self.execute_at(input, idx + 1);
                let rows_in = t.rows() as u64;
                let group_idx: Vec<usize> =
                    group_by.iter().map(|g| t.schema().index_of(g)).collect();
                let out = Batch::Owned(aggregate_with(
                    &t,
                    &group_idx,
                    aggs,
                    *phase,
                    &self.ctx.driver,
                    self.params,
                    self.programs_at(idx).map(|p| p.aggs.as_slice()),
                    self.cancel,
                ));
                (out, rows_in)
            }
            Plan::Sort { input, keys, limit } => {
                let t = self.execute_at(input, idx + 1);
                let rows_in = t.rows() as u64;
                (Batch::Owned(sort_table(&t, keys, *limit)), rows_in)
            }
            Plan::Exchange { input, kind } => {
                let t = self.execute_at(input, idx + 1);
                let rows_in = t.rows() as u64;
                let id = self.next_exchange.fetch_add(1, Ordering::Relaxed);
                (Batch::Owned(self.run_exchange(idx, id, kind, &t)), rows_in)
            }
        };
        if let Some(rec) = self.recorder {
            rec.op_exit(idx, rows_in, out.rows() as u64);
        }
        out
    }

    // -- local pipelines ----------------------------------------------------

    /// Evaluate a predicate morsel-parallel into a sorted selection
    /// vector, via the compiled program when one is supplied (and binds).
    fn filter_indices(&self, t: &Table, pred: &Expr, prog: Option<&ExprProgram>) -> Vec<usize> {
        let bound: Option<BoundProgram<'_>> = prog.and_then(|p| p.bind(t).ok());
        let parts = self.ctx.driver.run(
            t.rows(),
            |_| Vec::<usize>::new(),
            |keep, _, m| {
                self.check_cancel();
                let mask = match &bound {
                    Some(b) => b.eval_mask(t, m.range(), self.params),
                    None => eval(pred, t, m.range(), self.params).into_mask(),
                };
                for (i, k) in mask.into_iter().enumerate() {
                    if k {
                        keep.push(m.start + i);
                    }
                }
            },
        );
        let mut indices: Vec<usize> = parts.into_iter().flatten().collect();
        indices.sort_unstable();
        indices
    }

    fn parallel_map(&self, t: &Table, outputs: &[MapExpr], progs: Option<&OpPrograms>) -> Table {
        // Bind this operator's compiled output programs once.
        let bound: Vec<Option<BoundProgram<'_>>> = match progs {
            Some(ps) if ps.outputs.len() == outputs.len() => ps
                .outputs
                .iter()
                .map(|(_, p)| p.as_ref().and_then(|p| p.bind(t).ok()))
                .collect(),
            _ => (0..outputs.len()).map(|_| None).collect(),
        };
        let parts = self.ctx.driver.run(
            t.rows(),
            |_| Vec::<(usize, Vec<Column>)>::new(),
            |acc, _, m| {
                self.check_cancel();
                // One index vector per morsel, shared by every raw
                // pass-through output.
                let mut indices: Option<Vec<usize>> = None;
                let cols: Vec<Column> = outputs
                    .iter()
                    .zip(&bound)
                    .map(|(o, b)| match (b, &o.expr) {
                        (Some(bp), _) => bp.eval(t, m.range(), self.params).into_column().0,
                        // Bare column references pass through raw: evaluating
                        // them would promote Decimal columns to f64 and lose
                        // the fixed-point representation (and the Date/Decimal
                        // logical type) across the projection.
                        (None, Expr::Col(name)) if o.dtype.is_none() => {
                            let indices = indices.get_or_insert_with(|| m.range().collect());
                            t.column(t.schema().index_of(name)).gather(indices)
                        }
                        _ => eval(&o.expr, t, m.range(), self.params).into_column().0,
                    })
                    .collect();
                acc.push((m.start, cols));
            },
        );
        let mut pieces: Vec<(usize, Vec<Column>)> = parts.into_iter().flatten().collect();
        pieces.sort_by_key(|(start, _)| *start);

        let schema = map_schema(t, outputs, self.params);
        let mut out = Table::empty(schema.clone());
        for (_, cols) in pieces {
            out.append(&Table::new(schema.clone(), cols));
        }
        out
    }

    // -- exchange -----------------------------------------------------------

    fn run_exchange(&self, op_idx: usize, id: u32, kind: &ExchangeKind, input: &Table) -> Table {
        let ctx = self.ctx;
        let n = ctx.nodes;
        let me = ctx.node;
        let schema = input.schema().clone();

        let expected_lasts = match kind {
            ExchangeKind::Gather if me.0 != 0 => 0,
            _ if n <= 1 => 0,
            _ => u32::from(n - 1),
        };
        ctx.hub.expect_lasts(self.query, id, expected_lasts);

        let send_t0 = Instant::now();
        match kind {
            ExchangeKind::HashPartition(keys) => {
                let key_idx: Vec<usize> = keys.iter().map(|k| schema.index_of(k)).collect();
                self.partition_and_send(op_idx, id, input, &key_idx);
            }
            ExchangeKind::Broadcast => self.broadcast_send(op_idx, id, input),
            ExchangeKind::Gather => self.gather_send(op_idx, id, input),
        }
        self.send_lasts(id, kind);
        if let Some(rec) = self.recorder {
            rec.add_send_time(op_idx, send_t0.elapsed());
        }

        // Gather keeps a local pass-through of node 0's own rows.
        let local_part = match kind {
            ExchangeKind::Gather if me.0 == 0 => Some(input.clone()),
            ExchangeKind::Gather => {
                // Non-coordinators produce nothing further.
                ctx.hub.finish(self.query, id);
                return Table::empty(schema);
            }
            _ => None,
        };

        let mut out = self.consume(op_idx, id, &schema);
        if let Some(local) = local_part {
            out.append(&local);
        }
        ctx.hub.finish(self.query, id);
        out
    }

    /// Figure 7 steps 1–4: consume, partition by CRC32, serialize into
    /// pooled messages, pass full messages to the multiplexer.
    fn partition_and_send(&self, op_idx: usize, id: u32, input: &Table, key_idx: &[usize]) {
        let ctx = self.ctx;
        let units = ctx.classic_units.unwrap_or(1);
        let buckets_total = ctx.nodes as usize * units as usize;
        let ser = RowSerializer::new(input.schema());
        // Same canonicalization as the join hash: a Decimal repartition key
        // must land on the node where the equal Float64 key lands.
        let key_cols = crate::ops::join_key_cols(input, key_idx);

        let leftovers = ctx.driver.run(
            input.rows(),
            |_| PartitionState::new(buckets_total),
            |st, w, m| {
                self.check_cancel();
                for row in m.range() {
                    let bucket = row_bucket(&key_cols, row, buckets_total);
                    let buf = st.buffer(bucket, ctx, w.socket);
                    ser.serialize_row(input, row, buf);
                    if st.bufs[bucket].as_ref().expect("just filled").0.len()
                        >= ctx.message_capacity
                    {
                        let (buf, socket) = st.bufs[bucket].take().expect("present");
                        self.flush_message(op_idx, id, bucket, buf, socket, w.socket, units);
                    }
                }
            },
        );
        // Flush partially-filled messages ("only the used part is sent").
        for st in leftovers {
            for (bucket, slot) in st.bufs.into_iter().enumerate() {
                if let Some((buf, socket)) = slot {
                    if buf.len() > HEADER_LEN {
                        self.flush_message(
                            op_idx,
                            id,
                            bucket,
                            buf,
                            socket,
                            ctx.driver.worker_socket(0),
                            units,
                        );
                    } else {
                        ctx.pool.recycle(socket);
                    }
                }
            }
        }
    }

    fn flush_message(
        &self,
        op_idx: usize,
        id: u32,
        bucket: usize,
        mut buf: Vec<u8>,
        mem_socket: SocketId,
        worker_socket: SocketId,
        units: u16,
    ) {
        let ctx = self.ctx;
        let target = NodeId((bucket / units as usize) as u16);
        let local_bucket = (bucket % units as usize) as u16;
        patch_header(self.query, id, 0, local_bucket, &mut buf);
        // Writing a remote buffer costs QPI time (Figure 9's effect).
        ctx.topology
            .charge_access(worker_socket, mem_socket, buf.len());
        if target == ctx.node {
            let queue = if ctx.is_classic() {
                local_bucket as usize
            } else {
                mem_socket.0 as usize
            };
            let data = Bytes::from(buf).slice(HEADER_LEN..);
            ctx.hub.deliver(
                self.query,
                id,
                queue,
                Some(RecvMsg { data, mem_socket }),
                false,
            );
            ctx.pool.recycle(mem_socket);
        } else {
            if let Some(rec) = self.recorder {
                rec.net_send(op_idx, buf.len() as u64, 1);
            }
            ctx.to_mux
                .send(MuxCmd::Send {
                    target,
                    payload: Bytes::from(buf),
                    pool_socket: mem_socket,
                })
                .expect("multiplexer alive");
        }
    }

    /// Broadcast: serialize once; remote copies share the buffer via the
    /// retain counter (Bytes refcount). Classic mode additionally ships one
    /// duplicate per remote *unit*, paying the (n·t−1)-copy network cost the
    /// paper attributes to classic exchange operators.
    fn broadcast_send(&self, op_idx: usize, id: u32, input: &Table) {
        let ctx = self.ctx;
        let ser = RowSerializer::new(input.schema());
        let units = ctx.classic_units.unwrap_or(1);
        let worker_socket = ctx.driver.worker_socket(0);

        let flush = |mut buf: Vec<u8>, socket: SocketId| {
            patch_header(self.query, id, 0, 0, &mut buf);
            ctx.topology.charge_access(worker_socket, socket, buf.len());
            // Local retain.
            let bytes = Bytes::from(buf);
            ctx.hub.deliver(
                self.query,
                id,
                if ctx.is_classic() {
                    0
                } else {
                    socket.0 as usize
                },
                Some(RecvMsg {
                    data: bytes.slice(HEADER_LEN..),
                    mem_socket: socket,
                }),
                false,
            );
            if ctx.nodes > 1 {
                let remote = u64::from(ctx.nodes - 1);
                if let Some(rec) = self.recorder {
                    // Each broadcast ships one wire copy per remote node
                    // (plus one per remote classic unit below).
                    rec.net_send(
                        op_idx,
                        bytes.len() as u64 * remote * u64::from(units),
                        remote * u64::from(units),
                    );
                }
                ctx.to_mux
                    .send(MuxCmd::Broadcast {
                        payload: bytes.clone(),
                        pool_socket: socket,
                        copies_per_node: 1,
                    })
                    .expect("multiplexer alive");
                // Classic: each further remote unit receives its own copy.
                for u in 1..units {
                    let mut dup = bytes.to_vec();
                    patch_header(self.query, id, FLAG_DUP, u, &mut dup);
                    ctx.to_mux
                        .send(MuxCmd::Broadcast {
                            payload: Bytes::from(dup),
                            pool_socket: socket,
                            copies_per_node: 1,
                        })
                        .expect("multiplexer alive");
                }
            }
            ctx.pool.recycle(socket);
        };

        let (mut buf, mut socket) = ctx
            .pool
            .take(ctx.alloc_policy, worker_socket, &ctx.topology);
        buf.resize(HEADER_LEN, 0);
        for row in 0..input.rows() {
            if row % CANCEL_CHECK_ROWS == 0 {
                self.check_cancel();
            }
            ser.serialize_row(input, row, &mut buf);
            if buf.len() >= ctx.message_capacity {
                flush(buf, socket);
                let fresh = ctx
                    .pool
                    .take(ctx.alloc_policy, worker_socket, &ctx.topology);
                buf = fresh.0;
                socket = fresh.1;
                buf.resize(HEADER_LEN, 0);
            }
        }
        if buf.len() > HEADER_LEN {
            flush(buf, socket);
        } else {
            ctx.pool.recycle(socket);
        }
    }

    /// Gather: ship everything to node 0.
    fn gather_send(&self, op_idx: usize, id: u32, input: &Table) {
        let ctx = self.ctx;
        if ctx.node.0 == 0 || ctx.nodes <= 1 {
            return; // coordinator keeps its rows as a local pass-through
        }
        let ser = RowSerializer::new(input.schema());
        let worker_socket = ctx.driver.worker_socket(0);
        let (mut buf, mut socket) = ctx
            .pool
            .take(ctx.alloc_policy, worker_socket, &ctx.topology);
        buf.resize(HEADER_LEN, 0);
        for row in 0..input.rows() {
            if row % CANCEL_CHECK_ROWS == 0 {
                self.check_cancel();
            }
            ser.serialize_row(input, row, &mut buf);
            if buf.len() >= ctx.message_capacity {
                let mut full = buf;
                patch_header(self.query, id, 0, 0, &mut full);
                if let Some(rec) = self.recorder {
                    rec.net_send(op_idx, full.len() as u64, 1);
                }
                ctx.to_mux
                    .send(MuxCmd::Send {
                        target: NodeId(0),
                        payload: Bytes::from(full),
                        pool_socket: socket,
                    })
                    .expect("multiplexer alive");
                let fresh = ctx
                    .pool
                    .take(ctx.alloc_policy, worker_socket, &ctx.topology);
                buf = fresh.0;
                socket = fresh.1;
                buf.resize(HEADER_LEN, 0);
            }
        }
        if buf.len() > HEADER_LEN {
            let mut full = buf;
            patch_header(self.query, id, 0, 0, &mut full);
            if let Some(rec) = self.recorder {
                rec.net_send(op_idx, full.len() as u64, 1);
            }
            ctx.to_mux
                .send(MuxCmd::Send {
                    target: NodeId(0),
                    payload: Bytes::from(full),
                    pool_socket: socket,
                })
                .expect("multiplexer alive");
        } else {
            ctx.pool.recycle(socket);
        }
    }

    fn send_lasts(&self, id: u32, kind: &ExchangeKind) {
        let ctx = self.ctx;
        if ctx.nodes <= 1 {
            return;
        }
        let targets: Vec<NodeId> = match kind {
            ExchangeKind::Gather => {
                if ctx.node.0 == 0 {
                    return;
                }
                vec![NodeId(0)]
            }
            _ => (0..ctx.nodes)
                .filter(|&t| t != ctx.node.0)
                .map(NodeId)
                .collect(),
        };
        for t in targets {
            let mut msg = Vec::with_capacity(HEADER_LEN);
            encode_header(self.query, id, FLAG_LAST, 0, 0, &mut msg);
            ctx.to_mux
                .send(MuxCmd::Send {
                    target: t,
                    payload: Bytes::from(msg),
                    pool_socket: SocketId(0),
                })
                .expect("multiplexer alive");
        }
    }

    /// Figure 7 steps 5–7: workers drain NUMA-local receive queues (5a),
    /// steal across sockets when idle (5b), deserialize (6), and hand the
    /// tuples to the next pipeline (7) — here: collect into a table.
    fn consume(&self, op_idx: usize, id: u32, schema: &Schema) -> Table {
        let ctx = self.ctx;
        let de = RowDeserializer::new(schema);
        let stealing = !ctx.is_classic();
        let workers = ctx.driver.workers();

        let query = self.query;
        let recorder = self.recorder;
        let cancel = self.cancel;
        let pieces: Vec<Table> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers as usize);
            for w in 0..workers {
                let de = &de;
                let hub = &ctx.hub;
                let topo = &ctx.topology;
                let driver = &ctx.driver;
                handles.push(scope.spawn(move || {
                    let socket = driver.worker_socket(w);
                    let own_queue = if stealing {
                        socket.0 as usize
                    } else {
                        w as usize
                    };
                    let mut out = Table::empty(de_schema(de));
                    let mut wait = Duration::ZERO;
                    let mut batches = 0u64;
                    loop {
                        // Time blocked on the receive hub: the worker's
                        // share of network wait at this exchange boundary.
                        // The cancellable pop polls the token while
                        // blocked, so a cancel/deadline lands even when
                        // this node is starved waiting on its peers.
                        let pop_t0 = Instant::now();
                        let msg = hub.pop_cancellable(query, id, own_queue, stealing, cancel);
                        wait += pop_t0.elapsed();
                        let Some(msg) = msg else { break };
                        batches += 1;
                        // Reading a remote message buffer crosses QPI.
                        topo.charge_access(socket, msg.mem_socket, msg.data.len());
                        let t = de.deserialize(&msg.data);
                        out.append(&t);
                    }
                    if let Some(rec) = recorder {
                        rec.add_consume(op_idx, wait, batches);
                    }
                    out
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("consumer worker panicked"))
                .collect()
        });

        {
            let mut loads = ctx.consume_loads.lock();
            loads.resize(workers as usize, 0);
            for (w, p) in pieces.iter().enumerate() {
                loads[w] += p.rows() as u64;
            }
        }

        let mut out = Table::empty(schema.clone());
        for p in pieces {
            out.append(&p);
        }
        out
    }
}

fn de_schema(de: &RowDeserializer) -> Schema {
    de.deserialize(&[]).schema().clone()
}

/// Project `t` to the named columns, in order.
fn project_table(t: &Table, names: &[String]) -> Table {
    let idx: Vec<usize> = names.iter().map(|n| t.schema().index_of(n)).collect();
    t.project(&idx)
}

/// Compute the output schema of a Map by evaluating over zero rows.
fn map_schema(t: &Table, outputs: &[MapExpr], params: &[Value]) -> Schema {
    use hsqp_storage::Field;
    let fields: Vec<Field> = outputs
        .iter()
        .map(|o| {
            let dtype = o.dtype.unwrap_or_else(|| match &o.expr {
                // Matches the raw pass-through in `parallel_map`: a bare
                // column reference keeps its input logical type.
                Expr::Col(name) => t.schema().fields()[t.schema().index_of(name)].dtype,
                _ => eval(&o.expr, t, 0..0, params).into_column().1,
            });
            Field::nullable(o.name.clone(), dtype)
        })
        .collect();
    Schema::new(fields)
}

/// Partition bucket of a row: CRC32 over the key attributes (§3.2).
///
/// Keys hash by *logical* value in a single numeric domain: a fixed-point
/// Decimal column (flagged `true`) hashes its promoted f64 value, an Int64
/// key that is exactly representable as f64 hashes those f64 bits, and
/// Float64 hashes its canonical bits (−0.0 folded onto +0.0) — so any two
/// sides of a mixed Int64/Decimal/Float64 join holding the same value land
/// on the same node when repartitioned (mirrors
/// [`crate::ops::join_key_of`]).
pub fn row_bucket(key_cols: &[(&Column, bool)], row: usize, buckets: usize) -> usize {
    // Canonical hash bytes of one numeric key value.
    fn i64_bytes(x: i64) -> [u8; 8] {
        match i64_as_f64_exact(x) {
            Some(f) => canon_f64_bits(f).to_le_bytes(),
            None => x.to_le_bytes(),
        }
    }
    let h = if key_cols.len() == 1 {
        match key_cols[0] {
            (Column::I64(v, _), true) => {
                crc32(&canon_f64_bits(decimal_to_f64(v[row])).to_le_bytes())
            }
            // Must agree with `placement::hash_partition` (same crc32_i64),
            // or partitioned placement stops avoiding shuffles.
            (Column::I64(v, _), false) => crc32_i64(v[row]),
            (Column::F64(v, _), _) => crc32(&canon_f64_bits(v[row]).to_le_bytes()),
            (Column::Str(v, _), _) => crc32(v.get(row).as_bytes()),
        }
    } else {
        let mut scratch = Vec::with_capacity(key_cols.len() * 8);
        for &(c, promote) in key_cols {
            match (c, promote) {
                (Column::I64(v, _), true) => {
                    scratch
                        .extend_from_slice(&canon_f64_bits(decimal_to_f64(v[row])).to_le_bytes());
                }
                (Column::I64(v, _), false) => scratch.extend_from_slice(&i64_bytes(v[row])),
                (Column::F64(v, _), _) => {
                    scratch.extend_from_slice(&canon_f64_bits(v[row]).to_le_bytes());
                }
                (Column::Str(v, _), _) => scratch.extend_from_slice(v.get(row).as_bytes()),
            }
        }
        crc32(&scratch)
    };
    h as usize % buckets
}

/// Per-worker partition/serialize state (one pending message per bucket).
struct PartitionState {
    bufs: Vec<Option<(Vec<u8>, SocketId)>>,
}

impl PartitionState {
    fn new(buckets: usize) -> Self {
        Self {
            bufs: (0..buckets).map(|_| None).collect(),
        }
    }

    fn buffer(&mut self, bucket: usize, ctx: &NodeCtx, worker_socket: SocketId) -> &mut Vec<u8> {
        if self.bufs[bucket].is_none() {
            let (mut buf, socket) = ctx
                .pool
                .take(ctx.alloc_policy, worker_socket, &ctx.topology);
            buf.resize(HEADER_LEN, 0);
            self.bufs[bucket] = Some((buf, socket));
        }
        &mut self.bufs[bucket].as_mut().expect("just set").0
    }
}
