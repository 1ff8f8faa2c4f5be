//! Cross-crate integration: all 22 TPC-H queries must produce identical
//! results on a single server (checked against the reference interpreter)
//! and on a multi-server cluster, across transports, engine variants and
//! data placements — the core correctness invariant of distributed query
//! execution.

mod common;

use common::{assert_tables_equal, plan_tpch, reference};
use hsqp::engine::cluster::{Cluster, ClusterConfig, EngineKind, Transport};
use hsqp::engine::queries::{tpch_logical, ALL_QUERIES};
use hsqp::storage::Table;
use hsqp::tpch::TpchDb;

const SF: f64 = 0.002;

fn run_all(cluster: &Cluster) -> Vec<Table> {
    ALL_QUERIES
        .iter()
        .map(|&n| {
            cluster
                .run(&plan_tpch(cluster, n))
                .unwrap_or_else(|e| panic!("query {n} failed: {e}"))
                .table
        })
        .collect()
}

#[test]
fn all_queries_match_across_cluster_sizes() {
    let db = TpchDb::generate(SF);

    let single = Cluster::start(ClusterConfig::quick(1)).unwrap();
    single.load_tpch_db(db.clone()).unwrap();
    let local = run_all(&single);
    single.shutdown();

    for (&n, a) in ALL_QUERIES.iter().zip(&local) {
        let expected = reference::run(&db, &tpch_logical(n).unwrap())
            .unwrap_or_else(|e| panic!("reference query {n} failed: {e}"));
        assert_tables_equal(&expected, a, &format!("query {n} (reference vs 1 node)"));
    }

    let multi = Cluster::start(ClusterConfig::quick(3)).unwrap();
    multi.load_tpch_db(db).unwrap();
    let distributed = run_all(&multi);
    multi.shutdown();

    for ((n, a), b) in ALL_QUERIES.iter().zip(&local).zip(&distributed) {
        assert_tables_equal(a, b, &format!("query {n} (1 vs 3 nodes)"));
    }
}

#[test]
fn queries_match_over_tcp_transport() {
    let db = TpchDb::generate(SF);

    let rdma = Cluster::start(ClusterConfig::quick(2)).unwrap();
    rdma.load_tpch_db(db.clone()).unwrap();

    let tcp_cfg = ClusterConfig {
        transport: Transport::tcp(),
        ..ClusterConfig::quick(2)
    };
    let tcp = Cluster::start(tcp_cfg).unwrap();
    tcp.load_tpch_db(db).unwrap();

    // A representative subset (all operator shapes) to keep runtime sane.
    for n in [1, 3, 6, 13, 16, 17, 21, 22] {
        let q = plan_tpch(&rdma, n);
        let a = rdma.run(&q).unwrap().table;
        let b = tcp.run(&q).unwrap().table;
        assert_tables_equal(&a, &b, &format!("query {n} (rdma vs tcp)"));
    }
    rdma.shutdown();
    tcp.shutdown();
}

#[test]
fn classic_engine_matches_hybrid() {
    let db = TpchDb::generate(SF);

    let hybrid = Cluster::start(ClusterConfig::quick(2)).unwrap();
    hybrid.load_tpch_db(db.clone()).unwrap();

    let classic_cfg = ClusterConfig {
        engine: EngineKind::Classic,
        transport: Transport::rdma_unscheduled(),
        ..ClusterConfig::quick(2)
    };
    let classic = Cluster::start(classic_cfg).unwrap();
    classic.load_tpch_db(db).unwrap();

    for n in [1, 4, 5, 10, 12, 14, 18] {
        let q = plan_tpch(&hybrid, n);
        let a = hybrid.run(&q).unwrap().table;
        let b = classic.run(&q).unwrap().table;
        assert_tables_equal(&a, &b, &format!("query {n} (hybrid vs classic)"));
    }
    hybrid.shutdown();
    classic.shutdown();
}

#[test]
fn partitioned_placement_matches_chunked() {
    let db = TpchDb::generate(SF);

    let chunked = Cluster::start(ClusterConfig::quick(2)).unwrap();
    chunked.load_tpch_db(db.clone()).unwrap();

    let part_cfg = ClusterConfig {
        placement: hsqp::storage::placement::Placement::Partitioned,
        ..ClusterConfig::quick(2)
    };
    let partitioned = Cluster::start(part_cfg).unwrap();
    partitioned.load_tpch_db(db).unwrap();

    for n in [2, 3, 9, 11, 15, 19, 20] {
        // Each cluster runs its own plan: on partitioned placement the
        // planner elides exchanges for joins on a table's first column.
        let a = chunked.run(&plan_tpch(&chunked, n)).unwrap().table;
        let b = partitioned.run(&plan_tpch(&partitioned, n)).unwrap().table;
        assert_tables_equal(&a, &b, &format!("query {n} (chunked vs partitioned)"));
    }
    chunked.shutdown();
    partitioned.shutdown();
}
