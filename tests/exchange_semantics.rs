//! Integration tests of the exchange operator semantics across the real
//! multiplexer path: broadcast retain behaviour, gather, classic-mode
//! per-unit broadcast cost, message-pool accounting, and shuffle metrics.

mod common;

use hsqp::engine::cluster::{Cluster, ClusterConfig, EngineKind, Transport};
use hsqp::engine::expr::{col, lit};
use hsqp::engine::plan::{AggSpec, JoinKind, Plan, SortKey};
use hsqp::engine::AggFunc;
use hsqp::tpch::{TpchDb, TpchTable};

fn quick_cluster(nodes: u16) -> Cluster {
    let c = Cluster::start(ClusterConfig::quick(nodes)).unwrap();
    c.load_tpch(0.002).unwrap();
    c
}

#[test]
fn gather_collects_everything_at_the_coordinator() {
    let c = quick_cluster(3);
    let total_rows = {
        // Count lineitem rows per node via a local aggregate + gather.
        let plan = Plan::scan_cols(TpchTable::Lineitem, &["l_orderkey"])
            .aggregate(&[], vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")])
            .gather();
        let r = c.run_plan(&plan).unwrap();
        // One partial row per node arrives at node 0.
        assert_eq!(r.row_count(), 3);
        (0..3).map(|i| r.table.value(i, 0).as_i64()).sum::<i64>()
    };
    // Cross-check against a full gather of the raw rows.
    let gathered = c
        .run_plan(&Plan::scan_cols(TpchTable::Lineitem, &["l_orderkey"]).gather())
        .unwrap();
    assert_eq!(gathered.row_count() as i64, total_rows);
    c.shutdown();
}

#[test]
fn broadcast_replicates_build_side_exactly_once_per_node() {
    let c = quick_cluster(3);
    // Join against a broadcast nation table: every lineitem-side row of the
    // probe must match exactly one build row, so result cardinality equals
    // the probe cardinality (suppkey → supplier → nation is total).
    let probe = Plan::scan_cols(TpchTable::Supplier, &["s_suppkey", "s_nationkey"]);
    let build = Plan::scan_cols(TpchTable::Nation, &["n_nationkey", "n_name"]).broadcast();
    let plan = probe
        .join(build, &["s_nationkey"], &["n_nationkey"], JoinKind::Inner)
        .gather();
    let suppliers = c
        .run_plan(&Plan::scan_cols(TpchTable::Supplier, &["s_suppkey"]).gather())
        .unwrap()
        .row_count();
    let joined = c.run_plan(&plan).unwrap();
    assert_eq!(joined.row_count(), suppliers, "broadcast duplicated rows");
    c.shutdown();
}

#[test]
fn classic_broadcast_ships_one_copy_per_unit() {
    let db = TpchDb::generate(0.002);
    let plan = Plan::scan_cols(TpchTable::Orders, &["o_orderkey", "o_custkey"])
        .join(
            Plan::scan_cols(TpchTable::Nation, &["n_nationkey"]).broadcast(),
            &["o_custkey"],
            &["n_nationkey"],
            JoinKind::LeftSemi,
        )
        .aggregate(&[], vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")])
        .gather();

    let bytes = |engine: EngineKind, workers: u16| {
        let cfg = ClusterConfig {
            engine,
            workers_per_node: workers,
            transport: Transport::rdma_unscheduled(),
            ..ClusterConfig::quick(2)
        };
        let c = Cluster::start(cfg).unwrap();
        c.load_tpch_db(db.clone()).unwrap();
        let r = c.run_plan(&plan).unwrap();
        c.shutdown();
        (r.bytes_shuffled, r.table.value(0, 0).as_i64())
    };
    let (hybrid_bytes, hybrid_cnt) = bytes(EngineKind::Hybrid, 2);
    let (classic_bytes, classic_cnt) = bytes(EngineKind::Classic, 2);
    assert_eq!(hybrid_cnt, classic_cnt, "results must agree");
    // Classic sends t copies of every broadcast message per remote node.
    assert!(
        classic_bytes > hybrid_bytes + hybrid_bytes / 2,
        "classic broadcast should cost ~t x hybrid: {classic_bytes} vs {hybrid_bytes}"
    );
}

#[test]
fn message_pool_reuses_registrations_across_queries() {
    let c = quick_cluster(2);
    let plan = Plan::scan_cols(TpchTable::Lineitem, &["l_orderkey"])
        .repartition(&["l_orderkey"])
        .aggregate(&[], vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")])
        .gather();
    c.run_plan(&plan).unwrap();
    let after_first = c.node_ctx(0).pool.registrations();
    assert!(after_first > 0, "first query must register buffers");
    for _ in 0..3 {
        c.run_plan(&plan).unwrap();
    }
    let after_more = c.node_ctx(0).pool.registrations();
    let reuses = c.node_ctx(0).pool.reuses();
    assert!(
        after_more <= after_first + 2,
        "later queries should reuse the pool ({after_first} -> {after_more})"
    );
    assert!(reuses > 0, "no reuse happened");
    c.shutdown();
}

#[test]
fn shuffle_metrics_reflect_placement() {
    // Partitioned placement makes the orders/lineitem orderkey join local;
    // chunked placement must shuffle more.
    let db = TpchDb::generate(0.005);
    let plan = Plan::scan_cols(TpchTable::Lineitem, &["l_orderkey", "l_quantity"])
        .repartition(&["l_orderkey"])
        .join(
            Plan::scan_cols(TpchTable::Orders, &["o_orderkey"]).repartition(&["o_orderkey"]),
            &["l_orderkey"],
            &["o_orderkey"],
            JoinKind::LeftSemi,
        )
        .aggregate(&[], vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")])
        .gather();
    let shuffled = |placement| {
        let cfg = ClusterConfig {
            placement,
            ..ClusterConfig::quick(3)
        };
        let c = Cluster::start(cfg).unwrap();
        c.load_tpch_db(db.clone()).unwrap();
        let r = c.run_plan(&plan).unwrap();
        c.shutdown();
        r.bytes_shuffled
    };
    use hsqp::storage::placement::Placement;
    let chunked = shuffled(Placement::Chunked);
    let partitioned = shuffled(Placement::Partitioned);
    assert!(
        partitioned < chunked / 2,
        "partitioned placement should shuffle far less: {partitioned} vs {chunked}"
    );
}

#[test]
fn repeated_queries_are_stable() {
    // Exchange ids must not collide across runs; results stay identical.
    let c = quick_cluster(2);
    let plan = Plan::scan_cols(TpchTable::Orders, &["o_custkey", "o_totalprice"])
        .repartition(&["o_custkey"])
        .aggregate(
            &["o_custkey"],
            vec![AggSpec::new(AggFunc::Sum, col("o_totalprice"), "spent")],
        )
        .gather()
        .sort(vec![SortKey::desc("spent")], Some(5));
    let first = c.run_plan(&plan).unwrap().table;
    for _ in 0..4 {
        let again = c.run_plan(&plan).unwrap().table;
        assert_eq!(again.rows(), first.rows());
        for r in 0..first.rows() {
            assert_eq!(again.value(r, 0), first.value(r, 0));
        }
    }
    c.shutdown();
}

#[test]
fn single_node_cluster_never_touches_the_fabric() {
    let c = quick_cluster(1);
    let plan = Plan::scan_cols(TpchTable::Lineitem, &["l_orderkey"])
        .repartition(&["l_orderkey"])
        .aggregate(&[], vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")])
        .gather();
    let r = c.run_plan(&plan).unwrap();
    assert_eq!(r.bytes_shuffled, 0);
    assert_eq!(r.messages_sent, 0);
    c.shutdown();
}

#[test]
fn polling_completion_mode_works_end_to_end() {
    use hsqp::net::CompletionMode;
    let cfg = ClusterConfig {
        transport: Transport::Rdma {
            scheduling: true,
            completion: CompletionMode::Polling,
        },
        ..ClusterConfig::quick(2)
    };
    let c = Cluster::start(cfg).unwrap();
    c.load_tpch(0.001).unwrap();
    let q = common::plan_tpch(&c, 6);
    let r = c.run(&q).unwrap();
    assert_eq!(r.row_count(), 1);
    c.shutdown();
}
