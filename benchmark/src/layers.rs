//! Per-layer measurements for the traced run. Everything here is taken
//! from outside the engine: the driver times its own calls into a layer's
//! public API, and reads the counters and profiles that `QueryResult` and
//! `QueryProfile` already expose.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hsqp::engine::cluster::QueryResult;
use hsqp::engine::expr::lit;
use hsqp::engine::local::MorselDriver;
use hsqp::engine::logical::{LogicalPlan, LogicalQuery};
use hsqp::engine::ops::{aggregate, probe_join, JoinTable};
use hsqp::engine::plan::{AggFunc, AggPhase, AggSpec, JoinKind};
use hsqp::engine::planner::Planner;
use hsqp::engine::profile::QueryProfile;
use hsqp::engine::queries::StageRole;
use hsqp::engine::serial::{decode_table, encode_stage, encode_table};
use hsqp::engine::vm::compile_stage;
use hsqp::engine::wire::{RowDeserializer, RowSerializer};
use hsqp::numa::topology::Topology;
use hsqp::storage::{Schema, Table, Value};
use hsqp::tpch::{schema as tpch_schema, TpchTable};

use crate::backend::Backend;
use crate::report::Metrics;
use crate::stats::{median, ms, secs};

/// Timed repetitions per micro measurement (the median is reported).
const REPS: usize = 5;

/// Median wall time of `REPS` runs of `f`.
fn time_median<T>(mut f: impl FnMut() -> T) -> Duration {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let started = Instant::now();
            black_box(f());
            secs(started.elapsed())
        })
        .collect();
    Duration::from_secs_f64(median(&samples))
}

/// Operator kinds summed from profiles, keyed by the first word of the
/// profile label (the same text `--explain` prints).
const OP_KINDS: [(&str, &[&str]); 5] = [
    ("op.scan_ms", &["Scan", "TempScan"]),
    ("op.join_ms", &["HashJoin"]),
    ("op.aggregate_ms", &["Aggregate"]),
    ("op.exchange_ms", &["Exchange"]),
    ("op.sort_ms", &["Sort"]),
];

/// Layer counters accumulated over executed queries and reported as means
/// per executed query.
#[derive(Default)]
pub struct ExecLayers {
    queries: u64,
    /// Self time per operator kind (see [`OP_KINDS`]), in ms.
    op_ms: [f64; OP_KINDS.len()],
    profiled: u64,
    bytes: u64,
    msgs: u64,
    net_wait_ms: f64,
    latency_ms: f64,
}

impl ExecLayers {
    /// Fold in one execution.
    pub fn add(&mut self, result: &QueryResult, latency: Duration) {
        self.queries += 1;
        self.bytes += result.bytes_shuffled;
        self.msgs += result.messages_sent;
        self.latency_ms += ms(latency);
        if let Some(profile) = &result.profile {
            self.profiled += 1;
            self.net_wait_ms += ms(profile.net_wait());
            add_op_self_times(profile, &mut self.op_ms);
        }
    }

    /// Socket-mesh volume sent while the executions ran, per executed
    /// query.
    pub fn per_query(&self, bytes: u64, msgs: u64) -> (f64, f64) {
        let q = self.queries.max(1) as f64;
        (bytes as f64 / q, msgs as f64 / q)
    }

    /// Exchange volume.
    pub fn emit_counts(&self, m: &mut Metrics) {
        let q = self.queries.max(1) as f64;
        m.set("exchange.bytes_shuffled", self.bytes as f64 / q, "bytes");
        m.set("exchange.messages_sent", self.msgs as f64 / q, "count");
        m.set(
            "exchange.bytes_per_message",
            self.bytes as f64 / self.msgs.max(1) as f64,
            "bytes",
        );
    }

    /// Operator self times and network wait, from the profiles.
    pub fn emit_profile(&self, m: &mut Metrics) {
        let q = self.profiled.max(1) as f64;
        for ((name, _), total) in OP_KINDS.iter().zip(self.op_ms) {
            m.set(name, total / q, "ms");
        }
        m.set("exchange.net_wait_ms", self.net_wait_ms / q, "ms");
        m.set(
            "exchange.net_wait_share",
            self.net_wait_ms / self.latency_ms.max(1e-9),
            "fraction",
        );
    }
}

/// Add each operator's self time — its span minus its children's spans
/// on the same node, on the slowest node — to its kind's total.
fn add_op_self_times(profile: &QueryProfile, totals: &mut [f64; OP_KINDS.len()]) {
    for stage in &profile.stages {
        for (i, op) in stage.ops.iter().enumerate() {
            let word = op.label.split_whitespace().next().unwrap_or("");
            let Some(kind) = OP_KINDS.iter().position(|(_, w)| w.contains(&word)) else {
                continue;
            };
            let children = stage.children_of(i);
            let slowest = op
                .nodes
                .iter()
                .enumerate()
                .map(|(n, span)| {
                    let covered: Duration = children
                        .iter()
                        .filter_map(|&c| stage.ops[c].nodes.get(n))
                        .map(|c| c.wall)
                        .sum();
                    span.wall.saturating_sub(covered)
                })
                .max()
                .unwrap_or_default();
            totals[kind] += ms(slowest);
        }
    }
}

/// The base-table schemas the expression compiler resolves scans against.
fn base_schema(t: TpchTable) -> Option<Schema> {
    Some(match t {
        TpchTable::Part => tpch_schema::part(),
        TpchTable::Supplier => tpch_schema::supplier(),
        TpchTable::Partsupp => tpch_schema::partsupp(),
        TpchTable::Customer => tpch_schema::customer(),
        TpchTable::Orders => tpch_schema::orders(),
        TpchTable::Lineitem => tpch_schema::lineitem(),
        TpchTable::Nation => tpch_schema::nation(),
        TpchTable::Region => tpch_schema::region(),
    })
}

/// Planner, VM compiler and stage serialization over a workload's
/// distinct queries: `planner.plan_ms` (mean and max per query),
/// `vm.compile_ms` (all stages of a query) and `serial.stage_bytes` (all
/// stages of all queries).
pub fn plan_layers(
    planner: &Planner,
    queries: &[(u32, LogicalQuery)],
    m: &mut Metrics,
) -> Result<(), String> {
    let (mut plan_ms, mut compile_ms, mut stage_bytes) = (Vec::new(), Vec::new(), 0usize);
    for (n, logical) in queries {
        let mut planned = None;
        plan_ms.push(ms(time_median(|| {
            planned = Some(planner.plan_query(logical));
        })));
        let query = planned
            .expect("timed at least once")
            .map_err(|e| format!("planning Q{n}: {e}"))?;
        compile_ms.push(ms(time_median(|| {
            let mut temps: HashMap<String, Schema> = HashMap::new();
            for stage in &query.stages {
                let (compiled, schema) = compile_stage(&stage.plan, &base_schema, &temps);
                if let (StageRole::Materialize(name), Some(s)) = (&stage.role, schema) {
                    temps.insert(name.clone(), s);
                }
                black_box(compiled);
            }
        })));
        stage_bytes += query
            .stages
            .iter()
            .map(|s| encode_stage(s).len())
            .sum::<usize>();
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    m.set("planner.plan_ms", mean(&plan_ms), "ms");
    m.set(
        "planner.plan_ms_max",
        plan_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    m.set("vm.compile_ms", mean(&compile_ms), "ms");
    m.set("serial.stage_bytes", stage_bytes as f64, "bytes");
    Ok(())
}

/// Smallest key count of the kernel sweep; the sweep runs N, 2N, 4N, 8N.
const SWEEP_N: usize = 2_500;

/// `JoinTable::build`, `probe_join` and a high-cardinality `aggregate`
/// over the first N, 2N, 4N and 8N orders (and their lineitems), with the
/// per-row cost at 8N divided by the per-row cost at N as the scaling
/// figure: 1 for a linear kernel, about 8 for a quadratic one.
pub fn kernel_sweep(orders: &Table, lineitem: &Table, m: &mut Metrics) -> Result<(), String> {
    let okey = orders.schema().index_of("o_orderkey");
    let lkey = lineitem.schema().index_of("l_orderkey");
    let driver = MorselDriver::new(1, &Topology::uniform(1), 16_384, true);
    let count = [AggSpec::new(AggFunc::Count, lit(1), "cnt")];
    let (mut build_ns, mut probe_ns, mut agg_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut distinct = 0;
    for k in [SWEEP_N, 2 * SWEEP_N, 4 * SWEEP_N, 8 * SWEEP_N] {
        if k > orders.rows() {
            return Err(format!(
                "kernel sweep needs {k} orders, have {}",
                orders.rows()
            ));
        }
        let build = Arc::new(orders.gather(&(0..k).collect::<Vec<_>>()));
        // Lineitems are generated in order-key order, so the lines of the
        // first k orders are a prefix of the table.
        let last_key = build.column(okey).i64_values()[k - 1];
        let lines = lineitem
            .column(lkey)
            .i64_values()
            .partition_point(|&key| key <= last_key);
        let probe = lineitem.gather(&(0..lines).collect::<Vec<_>>());

        build_ns.push(
            ms(time_median(|| {
                JoinTable::build(Arc::clone(&build), &[okey])
            })) * 1e6
                / k as f64,
        );
        let table = JoinTable::build(Arc::clone(&build), &[okey]);
        distinct = table.distinct_keys();
        let joined = probe_join(&probe, &table, &[lkey], JoinKind::Inner, &driver, None);
        if joined.rows() != lines {
            return Err(format!(
                "kernel sweep: {lines} lineitems joined into {} rows",
                joined.rows()
            ));
        }
        probe_ns.push(
            ms(time_median(|| {
                probe_join(&probe, &table, &[lkey], JoinKind::Inner, &driver, None)
            })) * 1e6
                / lines as f64,
        );
        let groups = aggregate(&probe, &[lkey], &count, AggPhase::Single, &driver, &[]);
        if groups.rows() != k {
            return Err(format!(
                "kernel sweep: {k} orders aggregated into {} groups",
                groups.rows()
            ));
        }
        agg_ns.push(
            ms(time_median(|| {
                aggregate(&probe, &[lkey], &count, AggPhase::Single, &driver, &[])
            })) * 1e6
                / lines as f64,
        );
    }
    let scaling = |v: &[f64]| v[v.len() - 1] / v[0];
    m.set("ops.join_build_ns_per_row", build_ns[0], "ns");
    m.set("ops.join_build_scaling", scaling(&build_ns), "ratio");
    m.set("ops.join_probe_ns_per_row", probe_ns[0], "ns");
    m.set("ops.join_probe_scaling", scaling(&probe_ns), "ratio");
    m.set("ops.agg_ns_per_row", agg_ns[0], "ns");
    m.set("ops.agg_scaling", scaling(&agg_ns), "ratio");
    m.set("ops.join_distinct_keys", distinct as f64, "count");
    eprintln!(
        "kernel sweep ns/row at N..8N (N = {SWEEP_N} keys): build {build_ns:.0?}, \
         probe {probe_ns:.0?}, aggregate {agg_ns:.0?}"
    );
    Ok(())
}

/// Exchange wire format (`RowSerializer`/`RowDeserializer`) over lineitem
/// rows, and the socket backend's table serialization round trip.
pub fn codec_layers(orders: &Table, lineitem: &Table, m: &mut Metrics) -> Result<(), String> {
    let rows = lineitem.rows().min(50_000);
    let ser = RowSerializer::new(lineitem.schema());
    let de = RowDeserializer::new(lineitem.schema());
    let mut buf = Vec::new();
    ser.serialize_range(lineitem, 0..rows, &mut buf);
    if de.deserialize(&buf).rows() != rows {
        return Err("wire format round trip changed the row count".into());
    }
    let ser_t = time_median(|| {
        let mut out = Vec::with_capacity(buf.len());
        ser.serialize_range(lineitem, 0..rows, &mut out);
        out
    });
    let de_t = time_median(|| de.deserialize(&buf));
    m.set(
        "wire.serialize_ns_per_row",
        ms(ser_t) * 1e6 / rows as f64,
        "ns",
    );
    m.set(
        "wire.deserialize_ns_per_row",
        ms(de_t) * 1e6 / rows as f64,
        "ns",
    );

    let table = orders.gather(&(0..orders.rows().min(10_000)).collect::<Vec<_>>());
    let decoded = decode_table(&encode_table(&table)).map_err(|e| format!("table codec: {e}"))?;
    if decoded.rows() != table.rows() {
        return Err("table serialization round trip changed the row count".into());
    }
    let rt = time_median(|| decode_table(&encode_table(&table)));
    m.set("serial.table_roundtrip_us", ms(rt) * 1e3, "us");
    Ok(())
}

/// The trivial one-stage query behind the query-floor probes: count the
/// 25 nations.
fn floor_query() -> LogicalQuery {
    LogicalPlan::scan(TpchTable::Nation)
        .aggregate(&[], vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")])
        .into()
}

/// Median latency of the floor query on `backend`, after two warm-ups.
pub fn query_floor_ms(backend: &Backend, reps: usize) -> Result<f64, String> {
    let planner = backend.planner();
    let query = floor_query();
    let mut samples = Vec::new();
    for i in 0..reps + 2 {
        let exec = backend.execute(&planner, &query)?;
        let t = &exec.result.table;
        if t.rows() != 1 || t.value(0, 0) != Value::I64(25) {
            return Err(format!(
                "floor query returned {} rows, expected one row of 25",
                t.rows()
            ));
        }
        if i >= 2 {
            samples.push(ms(exec.latency));
        }
    }
    Ok(median(&samples))
}

/// Socket probe: 2 `hsqp-node` processes at SF 0.01 — connect and load
/// times and the floor query's latency. Returns the socket-mesh volume
/// per floor query: (bytes, messages).
pub fn remote_probe(node_bin: &Path, m: &mut Metrics) -> Result<(f64, f64), String> {
    const REPS: usize = 10;
    let (backend, setup) = Backend::start_remote(node_bin, 0.01)?;
    m.set("remote.connect_s", setup.connect_s, "s");
    m.set("remote.load_s", setup.load_s, "s");
    let before = backend.socket_counters()?.unwrap_or_default();
    let floor = query_floor_ms(&backend, REPS)?;
    let after = backend.socket_counters()?.unwrap_or_default();
    backend.shutdown();
    let per = (REPS + 2) as f64;
    m.set("remote.query_floor_ms", floor, "ms");
    Ok((
        (after.0 - before.0) as f64 / per,
        (after.1 - before.1) as f64 / per,
    ))
}
