//! Stress tests for the concurrent query API: N client threads running the
//! full 22-query TPC-H set over shared 2- and 4-node clusters must produce
//! row counts identical to serial execution; `cancel()` must free a
//! query's temps and fabric slots without wedging the multiplexers; and
//! overlapping multi-stage queries with identically named temps must stay
//! namespace-isolated.

mod common;

use std::collections::HashMap;
use std::time::{Duration, Instant};

use common::plan_tpch_for;
use hsqp::engine::cluster::{Cluster, ClusterConfig, Coordinator, QueryHandle};
use hsqp::engine::error::EngineError;
use hsqp::engine::planner::Planner;
use hsqp::engine::queries::{tpch_logical, Query, ALL_QUERIES};
use hsqp::engine::remote::{NodeServer, ProcessCluster, ProcessClusterConfig};
use hsqp::engine::serve::DispatchConfig;
use hsqp::tpch::TpchDb;

const SF: f64 = 0.002;

/// Plan all 22 builder queries once against the loaded cluster.
fn plan_all(cluster: &Cluster) -> Vec<(u32, Query)> {
    let planner = Planner::for_cluster(cluster);
    ALL_QUERIES
        .iter()
        .map(|&n| {
            let logical = tpch_logical(n).unwrap();
            (n, planner.plan_query(&logical).unwrap())
        })
        .collect()
}

/// Serial row counts as the oracle, then the same plans from N client
/// threads concurrently — identical counts required, nothing leaked.
fn concurrent_matches_serial_on(nodes: u16, clients: usize) {
    let cluster = Cluster::start(ClusterConfig {
        dispatch: DispatchConfig::slots(clients as u16),
        ..ClusterConfig::quick(nodes)
    })
    .unwrap();
    cluster.load_tpch_db(TpchDb::generate(SF)).unwrap();
    let plans = plan_all(&cluster);

    let serial: HashMap<u32, usize> = plans
        .iter()
        .map(|(n, q)| (*n, cluster.run(q).unwrap().row_count()))
        .collect();

    let per_client: Vec<HashMap<u32, usize>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let cluster = &cluster;
                let plans = &plans;
                scope.spawn(move || {
                    // Stagger the starting query so threads overlap
                    // *different* queries, not the same one in lockstep.
                    plans
                        .iter()
                        .cycle()
                        .skip(c * 5)
                        .take(plans.len())
                        .map(|(n, q)| (*n, cluster.run(q).unwrap().row_count()))
                        .collect::<HashMap<u32, usize>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (c, counts) in per_client.iter().enumerate() {
        for (n, rows) in counts {
            assert_eq!(
                rows, &serial[n],
                "client {c} Q{n} on {nodes} nodes diverged from serial"
            );
        }
    }
    assert_eq!(
        cluster.active_temp_namespaces(),
        0,
        "temp namespaces leaked"
    );
    cluster.shutdown();
}

#[test]
fn four_clients_all_queries_match_serial_on_2_nodes() {
    concurrent_matches_serial_on(2, 4);
}

#[test]
fn four_clients_all_queries_match_serial_on_4_nodes() {
    concurrent_matches_serial_on(4, 4);
}

/// Overlapping multi-stage queries that materialize identically named
/// temps (every submission of Q2 creates a "candidates" temp, Q15 a
/// "revenue" temp) must stay isolated per query id.
#[test]
fn temp_namespaces_isolate_overlapping_multi_stage_queries() {
    let cluster = Cluster::start(ClusterConfig {
        dispatch: DispatchConfig::slots(6),
        ..ClusterConfig::quick(3)
    })
    .unwrap();
    cluster.load_tpch_db(TpchDb::generate(SF)).unwrap();
    let planner = Planner::for_cluster(&cluster);
    let multi_stage: Vec<(u32, Query)> = [2u32, 11, 15, 22]
        .iter()
        .map(|&n| (n, planner.plan_query(&tpch_logical(n).unwrap()).unwrap()))
        .collect();
    let serial: HashMap<u32, usize> = multi_stage
        .iter()
        .map(|(n, q)| (*n, cluster.run(q).unwrap().row_count()))
        .collect();

    // Three overlapping submissions of each multi-stage query: six
    // in-flight "candidates"/"revenue" temps at once.
    let handles: Vec<(u32, QueryHandle)> = (0..3)
        .flat_map(|_| {
            multi_stage
                .iter()
                .map(|(n, q)| (*n, cluster.submit(q).unwrap()))
                .collect::<Vec<_>>()
        })
        .collect();
    for (n, h) in handles {
        let result = h.wait().unwrap();
        assert_eq!(
            result.row_count(),
            serial[&n],
            "overlapping Q{n} diverged from serial"
        );
        assert!(
            result.bytes_shuffled > 0,
            "per-query stats must attribute shuffled bytes on a 3-node cluster"
        );
    }
    assert_eq!(cluster.active_temp_namespaces(), 0);
    cluster.shutdown();
}

/// Cancel queries at every stage of their life (queued, mid-flight,
/// finished): each must either complete normally or fail with
/// `Cancelled`, temps and hub slots must be freed, and the cluster must
/// stay fully usable — no wedged multiplexers. A cancel on a running Q9
/// must resolve as `Cancelled` promptly. Runs on both backends: in
/// process and over two loopback `NodeServer`s.
#[test]
fn cancel_frees_temps_and_slots_without_wedging() {
    let cluster = Cluster::start(ClusterConfig {
        dispatch: DispatchConfig::slots(1), // force a queue so some cancels hit queued queries
        ..ClusterConfig::quick(2)
    })
    .unwrap();
    cluster.load_tpch_db(TpchDb::generate(SF)).unwrap();
    let planner = Planner::for_cluster(&cluster);
    // Multi-stage query: a cancel can land between its stages.
    let q2 = planner.plan_query(&tpch_logical(2).unwrap()).unwrap();
    cancel_without_wedging(&cluster, &q2, Some(&|| cluster.active_temp_namespaces()));
    cluster.shutdown();

    // The nodes' temp namespaces are out of the socket coordinator's
    // sight; its cleanup is checked by the follow-up queries instead.
    let (addrs, servers): (Vec<String>, Vec<_>) = (0..2)
        .map(|_| {
            let server = NodeServer::bind("127.0.0.1:0").unwrap();
            let addr = server.local_addr().unwrap().to_string();
            (addr, std::thread::spawn(move || server.run()))
        })
        .unzip();
    let pc = ProcessCluster::connect(
        &addrs,
        ProcessClusterConfig {
            dispatch: DispatchConfig::slots(1),
            ..ProcessClusterConfig::default()
        },
    )
    .unwrap();
    pc.load_tpch(SF).unwrap();
    cancel_without_wedging(&pc, &q2, None);
    pc.shutdown();
    for server in servers {
        server.join().unwrap().expect("node server exits cleanly");
    }
}

fn cancel_without_wedging(
    cluster: &Coordinator,
    q2: &Query,
    active_temps: Option<&dyn Fn() -> usize>,
) {
    let serial_rows = cluster.run(q2).unwrap().row_count();

    let mut cancelled = 0;
    for round in 0..6 {
        let handles: Vec<QueryHandle> = (0..4).map(|_| cluster.submit(q2).unwrap()).collect();
        // Vary the cancellation timing: immediately, or after a short
        // delay so the head query is mid-flight.
        if round % 2 == 1 {
            std::thread::sleep(Duration::from_millis(2));
        }
        for h in &handles {
            h.cancel();
        }
        for h in handles {
            match h.wait() {
                Err(EngineError::Cancelled) => cancelled += 1,
                Ok(r) => assert_eq!(r.row_count(), serial_rows, "cancel corrupted a result"),
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        if let Some(active_temps) = active_temps {
            assert_eq!(active_temps(), 0, "cancelled queries leaked temps");
        }
    }
    assert!(cancelled > 0, "no cancellation ever took effect");

    // A cancel on a query the dispatcher is running resolves promptly as
    // `Cancelled`. A run that finishes before the cancel lands (a loaded
    // host can deschedule this thread for the whole query) is retried.
    let q9 = plan_tpch_for(2, 9);
    let q9_rows = cluster.run(&q9).unwrap().row_count();
    let took = (0..10)
        .find_map(|_| {
            let handle = cluster.submit(&q9).unwrap();
            while !handle.is_finished() && cluster.metrics().gauge("queries.active") != Some(1) {
                std::thread::yield_now();
            }
            let cancelled_at = Instant::now();
            handle.cancel();
            match handle.wait() {
                Err(EngineError::Cancelled) => Some(cancelled_at.elapsed()),
                Ok(r) => {
                    assert_eq!(r.row_count(), q9_rows, "cancel corrupted a result");
                    None
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        })
        .expect("no cancel of a running Q9 took effect");
    assert!(
        took < Duration::from_secs(2),
        "cancel of a running Q9 took {took:?}"
    );

    // The engine still answers correctly afterwards — nothing wedged.
    assert_eq!(cluster.run(&q9).unwrap().row_count(), q9_rows);
    assert_eq!(cluster.run(q2).unwrap().row_count(), serial_rows);
}

/// Per-query fabric accounting: two concurrent queries see their own
/// bytes, not each other's, and the sum is consistent with the fabric
/// totals.
#[test]
fn per_query_stats_are_isolated() {
    let cluster = Cluster::start(ClusterConfig {
        dispatch: DispatchConfig::slots(2),
        ..ClusterConfig::quick(3)
    })
    .unwrap();
    cluster.load_tpch_db(TpchDb::generate(SF)).unwrap();
    let planner = Planner::for_cluster(&cluster);
    // A tiny query and a shuffle-heavy one.
    let small = planner.plan_query(&tpch_logical(6).unwrap()).unwrap();
    let big = planner.plan_query(&tpch_logical(10).unwrap()).unwrap();

    let small_serial = cluster.run(&small).unwrap().bytes_shuffled;
    let big_serial = cluster.run(&big).unwrap().bytes_shuffled;

    let hb = cluster.submit(&big).unwrap();
    let hs = cluster.submit(&small).unwrap();
    let rb = hb.wait().unwrap();
    let rs = hs.wait().unwrap();
    // Exact byte counts jitter with work-stealing-dependent message
    // packing, but each query must see its *own* traffic, not the
    // other's: the tiny query cannot inherit the shuffle-heavy one's
    // bytes, and both must be in the ballpark of their serial runs.
    let close = |concurrent: u64, serial: u64| {
        concurrent as f64 >= serial as f64 * 0.5 && concurrent as f64 <= serial as f64 * 2.0
    };
    assert!(
        rs.bytes_shuffled < rb.bytes_shuffled,
        "small query ({}) must report fewer bytes than the big one ({})",
        rs.bytes_shuffled,
        rb.bytes_shuffled
    );
    assert!(
        close(rs.bytes_shuffled, small_serial),
        "small query reported {} bytes, serial was {small_serial}",
        rs.bytes_shuffled
    );
    assert!(
        close(rb.bytes_shuffled, big_serial),
        "big query reported {} bytes, serial was {big_serial}",
        rb.bytes_shuffled
    );
    cluster.shutdown();
}
