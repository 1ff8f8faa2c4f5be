//! # hsqp — High-Speed Query Processing over High-Speed Networks
//!
//! Umbrella crate re-exporting the full reproduction of Rödiger et al.,
//! "High-Speed Query Processing over High-Speed Networks" (PVLDB 9(4), 2015).
//!
//! The system consists of:
//!
//! * [`numa`] — simulated NUMA topology and remote-access cost model,
//! * [`net`] — the calibrated software network fabric with TCP and RDMA
//!   endpoint models plus low-latency round-robin network scheduling,
//! * [`storage`] — columnar in-memory storage with morsel iteration,
//! * [`tpch`] — a deterministic TPC-H-shaped data generator,
//! * [`engine`] — the distributed query engine itself: hybrid parallelism,
//!   decoupled exchange operators, the RDMA-based communication multiplexer,
//!   the logical plan builder + distributed planner, and all 22 TPC-H
//!   queries written against the builder.
//!
//! ## Quickstart
//!
//! The programmable entry point is a [`Session`](engine::session::Session)
//! running [`LogicalPlan`](engine::logical::LogicalPlan)s — the planner
//! places exchanges, picks broadcast vs repartition joins, and inserts
//! pre-aggregation:
//!
//! ```
//! use hsqp::engine::expr::{col, lit};
//! use hsqp::engine::logical::LogicalPlan;
//! use hsqp::engine::plan::{AggFunc, AggSpec};
//! use hsqp::engine::session::Session;
//! use hsqp::tpch::TpchTable;
//!
//! let session = Session::builder().nodes(2).tpch(0.001).build().unwrap();
//! let plan = LogicalPlan::scan(TpchTable::Lineitem)
//!     .aggregate(
//!         &["l_returnflag"],
//!         vec![AggSpec::new(AggFunc::Count, lit(1), "cnt")],
//!     );
//! let result = session.run(&plan).unwrap();
//! assert!(result.row_count() > 0);
//! session.shutdown();
//! ```
//!
//! The 22 TPC-H queries are logical queries too; a
//! [`Planner`](engine::planner::Planner) lowers one for a running cluster:
//!
//! ```
//! use hsqp::engine::cluster::{Cluster, ClusterConfig};
//! use hsqp::engine::planner::Planner;
//! use hsqp::engine::queries;
//!
//! // A 2-node simulated cluster over the RDMA transport.
//! let cluster = Cluster::start(ClusterConfig::quick(2)).unwrap();
//! cluster.load_tpch(0.001).unwrap();
//! let q1 = Planner::for_cluster(&cluster)
//!     .plan_query(&queries::tpch_logical(1).unwrap())
//!     .unwrap();
//! let result = cluster.run(&q1).unwrap();
//! assert!(result.row_count() > 0);
//! cluster.shutdown();
//! ```

pub mod benchjson;

pub use hsqp_engine as engine;
pub use hsqp_net as net;
pub use hsqp_numa as numa;
pub use hsqp_storage as storage;
pub use hsqp_tpch as tpch;
