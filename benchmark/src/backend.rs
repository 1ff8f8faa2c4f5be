//! The system under test, started the way a user starts it: an in-process
//! `Session` (2 nodes × 1 worker over the default scheduled RDMA fabric)
//! or a `ProcessCluster` over 2 spawned `hsqp-node` processes (1 worker
//! each). Both run builder-planned queries, planned per execution.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hsqp::engine::cluster::{QueryResult, Transport};
use hsqp::engine::logical::LogicalQuery;
use hsqp::engine::planner::{Planner, PlannerConfig, TableStats};
use hsqp::engine::remote::{ProcessCluster, ProcessClusterConfig, RemoteEngineConfig};
use hsqp::engine::serve::{SubmitOptions, TenantConfig};
use hsqp::engine::session::Session;
use hsqp::engine::stats::StatsCatalog;
use hsqp::engine::QueryHandle;
use hsqp::tpch::{TpchDb, TpchTable};

use crate::nodes::NodeProcs;
use crate::stats::secs;

/// Cluster size and per-node workers: 2 compute threads in total.
pub const NODES: u16 = 2;
pub const WORKERS: u16 = 1;
/// The serving tenants and their weighted-fair scheduling weights.
pub const TENANTS: [(&str, u32); 2] = [("gold", 4), ("silver", 1)];
/// Dispatcher slots (queries executing at once) in process.
pub const SLOTS: u16 = 2;

/// Where set-up time went.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// Generating TPC-H in the driver (in process only).
    pub generate_s: f64,
    /// Spawning the node processes until each listens (sockets only).
    pub spawn_s: f64,
    /// `ProcessCluster::connect` (sockets only).
    pub connect_s: f64,
    /// Starting the cluster and distributing the data (in process), or
    /// the nodes generating their chunks (sockets).
    pub load_s: f64,
}

impl Setup {
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.spawn_s + self.connect_s + self.load_s
    }
}

/// One query execution as the client saw it.
pub struct Exec {
    pub result: QueryResult,
    /// Plan start to result in hand.
    pub latency: Duration,
}

pub enum Backend {
    Local(Session),
    Remote {
        pc: Box<ProcessCluster>,
        nodes: NodeProcs,
        sf: f64,
    },
}

impl Backend {
    /// Generate TPC-H at `sf` and load it into a fresh in-process session.
    pub fn start_local(sf: f64, profiling: bool) -> Result<(Self, Setup), String> {
        let started = Instant::now();
        let db = TpchDb::generate(sf);
        let generate_s = secs(started.elapsed());
        let (backend, setup) = Self::start_local_db(db, profiling)?;
        Ok((
            backend,
            Setup {
                generate_s,
                ..setup
            },
        ))
    }

    /// Start an in-process session and load an already generated `db`.
    pub fn start_local_db(db: TpchDb, profiling: bool) -> Result<(Self, Setup), String> {
        let sf = db.scale_factor();
        let started = Instant::now();
        let mut builder = Session::builder()
            .nodes(NODES)
            .workers(WORKERS)
            .transport(Transport::rdma())
            .max_concurrent(SLOTS)
            .profiling(profiling);
        for (name, weight) in TENANTS {
            builder = builder.tenant(name, TenantConfig::weighted(weight));
        }
        let session = builder.build().map_err(|e| format!("session start: {e}"))?;
        session
            .load_tpch_db(db)
            .map_err(|e| format!("loading TPC-H SF {sf}: {e}"))?;
        let setup = Setup {
            load_s: secs(started.elapsed()),
            ..Setup::default()
        };
        Ok((Backend::Local(session), setup))
    }

    /// Spawn the node processes, connect, and have them load TPC-H at `sf`.
    pub fn start_remote(node_bin: &Path, sf: f64) -> Result<(Self, Setup), String> {
        let started = Instant::now();
        let nodes = NodeProcs::spawn(node_bin, NODES as usize)?;
        let spawn_s = secs(started.elapsed());
        let started = Instant::now();
        let cfg = ProcessClusterConfig {
            engine: RemoteEngineConfig {
                workers_per_node: WORKERS,
                ..RemoteEngineConfig::default()
            },
            ..ProcessClusterConfig::default()
        };
        let pc = ProcessCluster::connect(nodes.addrs(), cfg)
            .map_err(|e| format!("connecting to the node processes: {e}"))?;
        let connect_s = secs(started.elapsed());
        let started = Instant::now();
        pc.load_tpch(sf)
            .map_err(|e| format!("loading TPC-H SF {sf} on the nodes: {e}"))?;
        let setup = Setup {
            spawn_s,
            connect_s,
            load_s: secs(started.elapsed()),
            ..Setup::default()
        };
        Ok((
            Backend::Remote {
                pc: Box::new(pc),
                nodes,
                sf,
            },
            setup,
        ))
    }

    /// A planner as the backend's users get it: from the session's
    /// sampled catalog in process; from the nodes' reported row counts and
    /// the spec-declared column statistics over sockets (the coordinator
    /// holds no data to sample).
    pub fn planner(&self) -> Planner {
        match self {
            Backend::Local(session) => session.planner(),
            Backend::Remote { pc, sf, .. } => {
                let mut stats = TableStats::for_scale_factor(*sf);
                for t in TpchTable::ALL {
                    if let Some(rows) = pc.table_rows(t) {
                        stats.set_rows(t, rows as f64);
                    }
                }
                Planner::new(PlannerConfig {
                    stats,
                    catalog: Some(Arc::new(StatsCatalog::declared_tpch(*sf))),
                    ..PlannerConfig::new(pc.nodes())
                })
            }
        }
    }

    /// Plan `logical` and run it to completion (closed loop).
    pub fn execute(&self, planner: &Planner, logical: &LogicalQuery) -> Result<Exec, String> {
        let started = Instant::now();
        let query = planner
            .plan_query(logical)
            .map_err(|e| format!("planning: {e}"))?;
        let result = match self {
            Backend::Local(session) => session
                .cluster()
                .submit_with(&query, &SubmitOptions::default())
                .and_then(QueryHandle::wait),
            Backend::Remote { pc, .. } => pc.run(&query),
        }
        .map_err(|e| e.to_string())?;
        Ok(Exec {
            result,
            latency: started.elapsed(),
        })
    }

    /// Socket-mesh counters summed over the nodes: (bytes sent, messages
    /// sent); `None` in process.
    pub fn socket_counters(&self) -> Result<Option<(u64, u64)>, String> {
        match self {
            Backend::Local(_) => Ok(None),
            Backend::Remote { pc, .. } => pc
                .net_stats()
                .map(|(bytes, _, msgs, _)| Some((bytes, msgs)))
                .map_err(|e| format!("socket counters: {e}")),
        }
    }

    /// Peak resident memory of the node processes (0 in process, where
    /// the driver's own peak covers the engine).
    pub fn nodes_peak_rss_bytes(&self) -> Result<u64, String> {
        match self {
            Backend::Local(_) => Ok(0),
            Backend::Remote { nodes, .. } => nodes.peak_rss_bytes(),
        }
    }

    pub fn session(&self) -> Option<&Session> {
        match self {
            Backend::Local(session) => Some(session),
            Backend::Remote { .. } => None,
        }
    }

    /// Shut the engine down and reap the node processes.
    pub fn shutdown(self) {
        match self {
            Backend::Local(session) => session.shutdown(),
            Backend::Remote { pc, nodes, .. } => {
                pc.shutdown();
                nodes.stop();
            }
        }
    }
}
