//! Integration tests for the multi-tenant serving layer: weighted-fair
//! scheduling under saturation (no starvation, service in weight
//! proportion), morsel-bounded cancellation latency, deadline /
//! `wait_timeout` no-wedge regressions, fast admission-cap rejection, and
//! an open-loop CLI smoke over both the in-process and out-of-process
//! backends.

mod common;

use std::io::{self, BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use common::plan_tpch_for;
use hsqp::engine::cluster::{Cluster, ClusterConfig, Coordinator, QueryHandle};
use hsqp::engine::error::EngineError;
use hsqp::engine::remote::{NodeServer, ProcessCluster, ProcessClusterConfig};
use hsqp::engine::serve::{DispatchConfig, SubmitOptions, TenantConfig};

/// A single dispatcher slot and the given tenants.
fn one_slot(tenants: &[(&str, TenantConfig)]) -> DispatchConfig {
    DispatchConfig {
        max_concurrent: 1,
        tenants: tenants
            .iter()
            .map(|(n, c)| (n.to_string(), c.clone()))
            .collect(),
    }
}

/// Start a 2-node cluster with a single dispatcher slot and the given
/// tenants, loaded at `sf`.
fn serving_cluster(sf: f64, tenants: &[(&str, TenantConfig)]) -> Cluster {
    let cluster = Cluster::start(ClusterConfig {
        dispatch: one_slot(tenants),
        ..ClusterConfig::quick(2)
    })
    .expect("start cluster");
    cluster.load_tpch(sf).expect("load TPC-H");
    cluster
}

/// The same over sockets: two `NodeServer`s on loopback threads (returned
/// for joining after shutdown) and a single-slot coordinator, loaded at
/// `sf`.
fn serving_process_cluster(
    sf: f64,
    tenants: &[(&str, TenantConfig)],
) -> (ProcessCluster, Vec<JoinHandle<io::Result<()>>>) {
    let (addrs, servers): (Vec<String>, Vec<_>) = (0..2)
        .map(|_| {
            let server = NodeServer::bind("127.0.0.1:0").expect("bind node");
            let addr = server.local_addr().expect("node address").to_string();
            (addr, std::thread::spawn(move || server.run()))
        })
        .unzip();
    let cluster = ProcessCluster::connect(
        &addrs,
        ProcessClusterConfig {
            dispatch: one_slot(tenants),
            ..ProcessClusterConfig::default()
        },
    )
    .expect("connect process cluster");
    cluster.load_tpch(sf).expect("load TPC-H on the nodes");
    (cluster, servers)
}

/// A backlogged 4:1 tenant pair must be *served* in weight proportion:
/// plug the single dispatcher slot with a long query, enqueue an
/// interleaved gold/silver backlog behind it, then reconstruct the pickup
/// order from each query's measured `queue_wait` — any early window of
/// picks must be dominated by gold roughly 4:1, and silver must not
/// starve. Runs on both backends: in process and over sockets.
#[test]
fn weighted_fair_scheduling_serves_in_weight_proportion() {
    let tenants = [
        ("gold", TenantConfig::weighted(4)),
        ("silver", TenantConfig::weighted(1)),
    ];
    let cluster = serving_cluster(0.01, &tenants);
    weighted_fair_on(&cluster);
    cluster.shutdown();
    let (cluster, servers) = serving_process_cluster(0.01, &tenants);
    weighted_fair_on(&cluster);
    cluster.shutdown();
    for server in servers {
        server.join().unwrap().expect("node server exits cleanly");
    }
}

fn weighted_fair_on(cluster: &Coordinator) {
    let plug = plan_tpch_for(2, 9);
    let fast = plan_tpch_for(2, 6);
    let serial_rows = cluster.run(&fast).expect("serial Q6").row_count();

    // Occupy the only dispatcher slot, then enqueue the backlog while it
    // holds the slot — every backlog query starts queued, so the WDRR
    // schedule alone decides pickup order.
    let plug_handle = cluster
        .submit_with(&plug, &SubmitOptions::tenant("gold"))
        .expect("submit plug");
    let base = Instant::now();
    let backlog: Vec<(&str, Instant, QueryHandle)> = (0..40)
        .map(|i| {
            let tenant = if i % 2 == 0 { "gold" } else { "silver" };
            let submitted = Instant::now();
            let handle = cluster
                .submit_with(&fast, &SubmitOptions::tenant(tenant))
                .expect("submit backlog query");
            (tenant, submitted, handle)
        })
        .collect();

    plug_handle.wait().expect("plug completes");
    let mut picks: Vec<(Duration, &str)> = Vec::new();
    for (tenant, submitted, handle) in backlog {
        let result = handle.wait().expect("backlog query completes");
        assert_eq!(result.row_count(), serial_rows, "row drift under load");
        assert!(
            result.queue_wait > Duration::ZERO,
            "backlog query was picked up before the plug released the slot"
        );
        // Pickup instant = submission instant + measured queue wait.
        picks.push((submitted + result.queue_wait - base, tenant));
    }
    picks.sort();

    let gold_early = picks.iter().take(25).filter(|(_, t)| *t == "gold").count();
    let silver_early = 25 - gold_early;
    // Exact DRR gives 20 gold in the first 25 picks here; leave slack for
    // cursor position. 4:1 weights must clearly beat fair-share (12.5).
    assert!(
        (17..=22).contains(&gold_early),
        "expected ~4:1 gold-dominated pickup order, got {gold_early} gold \
         in the first 25 picks"
    );
    assert!(
        silver_early >= 3,
        "silver starved: only {silver_early} of the first 25 picks"
    );

    // Per-tenant rollups saw every submission complete.
    let metrics = cluster.tenant_metrics();
    let gold = metrics
        .iter()
        .find(|m| m.tenant.as_str() == "gold")
        .expect("gold metrics");
    let silver = metrics
        .iter()
        .find(|m| m.tenant.as_str() == "silver")
        .expect("silver metrics");
    assert_eq!(gold.submitted, 21);
    assert_eq!(gold.completed, 21);
    assert_eq!(silver.submitted, 20);
    assert_eq!(silver.completed, 20);
    assert_eq!(gold.failed + gold.cancelled + gold.rejected, 0);
    assert_eq!(silver.failed + silver.cancelled + silver.rejected, 0);
}

/// `cancel()` must take effect at morsel granularity: cancelling a
/// long-running query mid-flight resolves its handle far faster than
/// letting the query finish would, and the cluster stays healthy.
#[test]
fn cancellation_latency_is_morsel_bounded() {
    let cluster = serving_cluster(0.02, &[]);
    let heavy = plan_tpch_for(2, 9);
    let wall = {
        let started = Instant::now();
        cluster.run(&heavy).expect("baseline Q9");
        started.elapsed()
    };

    let handle = cluster.submit(&heavy).expect("submit Q9");
    std::thread::sleep(wall / 4);
    let cancelled_at = Instant::now();
    handle.cancel();
    let outcome = handle.wait();
    let latency = cancelled_at.elapsed();
    assert!(
        matches!(outcome, Err(EngineError::Cancelled)),
        "expected Cancelled, got {outcome:?}"
    );
    // A morsel is thousands of rows (microseconds of work) and exchange
    // waits poll every few ms; the bound below is generous slack over
    // that, and far below the query's remaining runtime at saturation.
    let bound = (wall / 2).max(Duration::from_millis(150));
    assert!(
        latency < bound,
        "cancel latency {latency:?} not morsel-bounded (query wall {wall:?})"
    );

    // Nothing wedged: the same query still runs to completion.
    cluster.run(&heavy).expect("Q9 after cancellation");
    cluster.shutdown();
}

/// Submit-time deadlines and `wait_timeout` must never wedge the engine:
/// a deadline that fires mid-query resolves the handle with the typed
/// error, a timed-out wait leaves the handle usable, and follow-up
/// queries run normally.
#[test]
fn deadline_and_wait_timeout_do_not_wedge() {
    let cluster = serving_cluster(0.01, &[]);
    let heavy = plan_tpch_for(2, 9);
    let fast = plan_tpch_for(2, 6);

    // Deadline far shorter than the query: typed DeadlineExceeded.
    let handle = cluster
        .submit_with(
            &heavy,
            &SubmitOptions::tenant("t").with_deadline(Duration::from_millis(2)),
        )
        .expect("submit with deadline");
    let outcome = handle.wait();
    assert!(
        matches!(outcome, Err(EngineError::DeadlineExceeded)),
        "expected DeadlineExceeded, got {outcome:?}"
    );

    // wait_timeout on an in-flight query returns None without consuming
    // the handle; cancel + wait still resolves it.
    let handle = cluster.submit(&heavy).expect("submit Q9");
    if handle.wait_timeout(Duration::from_millis(1)).is_none() {
        handle.cancel();
        let outcome = handle.wait();
        assert!(
            matches!(outcome, Err(EngineError::Cancelled)),
            "expected Cancelled after timeout+cancel, got {outcome:?}"
        );
    }

    // wait_timeout with ample budget yields the result.
    let handle = cluster.submit(&fast).expect("submit Q6");
    let result = handle
        .wait_timeout(Duration::from_secs(60))
        .expect("fast query finishes well within a minute")
        .expect("fast query succeeds");
    assert!(result.row_count() > 0);

    // Engine healthy after all of the above.
    cluster.run(&fast).expect("follow-up query");
    cluster.shutdown();
}

/// Over-cap submissions are rejected fast with the typed admission error
/// while under-cap submissions queue and complete; the cap applies per
/// tenant, not globally.
#[test]
fn admission_cap_rejects_over_queue_submissions() {
    let cluster = serving_cluster(
        0.01,
        &[
            ("capped", {
                TenantConfig {
                    weight: 1,
                    max_queued: Some(1),
                    max_concurrent: Some(1),
                }
            }),
            ("open", TenantConfig::weighted(1)),
        ],
    );
    let heavy = plan_tpch_for(2, 9);
    let fast = plan_tpch_for(2, 6);

    // Plug the single dispatcher slot so subsequent submissions queue.
    let plug = cluster
        .submit_with(&heavy, &SubmitOptions::tenant("open"))
        .expect("submit plug");
    let queued = cluster
        .submit_with(&fast, &SubmitOptions::tenant("capped"))
        .expect("first capped submission queues");
    match cluster.submit_with(&fast, &SubmitOptions::tenant("capped")) {
        Err(EngineError::Admission(msg)) => {
            assert!(msg.contains("max_queued"), "unexpected message: {msg}")
        }
        Err(other) => panic!("expected Admission rejection, got {other:?}"),
        Ok(_) => panic!("over-cap submission was admitted"),
    }
    // Another tenant is unaffected by capped's limits.
    let open_ok = cluster
        .submit_with(&fast, &SubmitOptions::tenant("open"))
        .expect("open tenant submission queues");

    plug.wait().expect("plug completes");
    queued.wait().expect("queued capped query completes");
    open_ok.wait().expect("open query completes");

    // With the queue drained the capped tenant admits again.
    cluster
        .submit_with(&fast, &SubmitOptions::tenant("capped"))
        .expect("capped admits after drain")
        .wait()
        .expect("and completes");

    let metrics = cluster.tenant_metrics();
    let capped = metrics
        .iter()
        .find(|m| m.tenant.as_str() == "capped")
        .expect("capped metrics");
    assert_eq!(capped.rejected, 1);
    assert_eq!(capped.completed, 2);
    cluster.shutdown();
}

// ---------------------------------------------------------------------------
// Open-loop CLI smoke over both backends
// ---------------------------------------------------------------------------

/// A spawned `hsqp-node` child process, killed on drop.
struct NodeProc {
    child: Child,
    addr: String,
}

impl NodeProc {
    fn spawn() -> NodeProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_hsqp-node"))
            .args(["--listen", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn hsqp-node");
        let stdout = child.stdout.take().expect("child stdout piped");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read listen banner");
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .expect("address in banner")
            .to_string();
        NodeProc { child, addr }
    }
}

impl Drop for NodeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Run `hsqp` with the given extra args and return stdout, asserting
/// success.
fn run_open_loop_cli(extra: &[&str]) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hsqp"));
    cmd.args([
        "--sf",
        "0.001",
        "--queries",
        "1,6",
        "--open-loop",
        "120000",
        "--duration",
        "2",
        "--tenants",
        "gold:4,silver:1",
        "--seed",
        "7",
    ]);
    cmd.args(extra);
    let out = cmd.output().expect("run hsqp --open-loop");
    assert!(
        out.status.success(),
        "open-loop run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 report")
}

fn assert_open_loop_report(report: &str) {
    for needle in [
        "\"schema\": \"hsqp-openloop-v1\"",
        "\"arrivals\": \"poisson\"",
        "\"tenant\": \"gold\"",
        "\"tenant\": \"silver\"",
        "\"queue_wait_ms\"",
        "\"failed\": 0",
    ] {
        assert!(
            report.contains(needle),
            "open-loop report missing {needle}: {report}"
        );
    }
}

/// Open-loop smoke on the in-process backend: the run completes, reports
/// the versioned schema, per-tenant sections, and zero failures.
#[test]
fn open_loop_smoke_local_backend() {
    let report = run_open_loop_cli(&["--nodes", "2"]);
    assert_open_loop_report(&report);
}

/// Open-loop smoke on the out-of-process backend: two real `hsqp-node`
/// servers, `--clients` worker slots, same report contract.
#[test]
fn open_loop_smoke_remote_backend() {
    let nodes: Vec<NodeProc> = (0..2).map(|_| NodeProc::spawn()).collect();
    let addrs = nodes
        .iter()
        .map(|n| n.addr.clone())
        .collect::<Vec<_>>()
        .join(",");
    let report = run_open_loop_cli(&["--cluster", &addrs, "--clients", "2"]);
    assert_open_loop_report(&report);
}
