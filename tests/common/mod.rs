//! Helpers shared by the integration tests: the reference interpreter,
//! one table comparator, and TPC-H planning shorthands.

// Each test binary compiles this module and uses a different subset.
#![allow(dead_code)]

pub mod reference;

use std::cmp::Ordering;

use hsqp::engine::cluster::Cluster;
use hsqp::engine::planner::{Planner, PlannerConfig};
use hsqp::engine::queries::{tpch_logical, Query};
use hsqp::storage::{Table, Value};

/// Assert that two tables hold the same rows, ignoring row order. Floats
/// match when they differ by at most one part in 10^9 of their magnitude
/// and never by more than 0.005: float sums depend on summation order,
/// which varies with the node count and morsel scheduling, so a value on
/// a rounding boundary must not decide the comparison.
pub fn assert_tables_equal(a: &Table, b: &Table, what: &str) {
    assert_eq!(a.rows(), b.rows(), "{what}: row counts differ");
    assert_eq!(a.schema().len(), b.schema().len(), "{what}: arity differs");
    let rows = |t: &Table| -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = (0..t.rows()).map(|r| t.row(r)).collect();
        rows.sort_by(|x, y| {
            x.iter()
                .zip(y)
                .map(|(u, v)| order(u, v))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        });
        rows
    };
    for (i, (x, y)) in rows(a).iter().zip(&rows(b)).enumerate() {
        assert!(
            x.iter().zip(y).all(|(u, v)| same(u, v)),
            "{what}: contents differ at sorted row {i}: {x:?} vs {y:?}"
        );
    }
}

/// A total order over values, for sorting rows before pairing them.
fn order(u: &Value, v: &Value) -> Ordering {
    let rank = |x: &Value| match x {
        Value::Null => 0,
        Value::I64(_) => 1,
        Value::F64(_) => 2,
        Value::Str(_) => 3,
    };
    match (u, v) {
        (Value::I64(x), Value::I64(y)) => x.cmp(y),
        (Value::F64(x), Value::F64(y)) => x.total_cmp(y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        _ => rank(u).cmp(&rank(v)),
    }
}

fn same(u: &Value, v: &Value) -> bool {
    match (u, v) {
        (Value::F64(x), Value::F64(y)) => {
            let tolerance = (1e-9 * x.abs().max(y.abs()).max(1.0)).min(0.005);
            x.to_bits() == y.to_bits() || (x - y).abs() <= tolerance
        }
        _ => u == v,
    }
}

/// TPC-H query `n`, lowered by the planner for `cluster` (its node count,
/// loaded row counts and sampled statistics).
pub fn plan_tpch(cluster: &Cluster, n: u32) -> Query {
    plan_with(&Planner::for_cluster(cluster), n)
}

/// TPC-H query `n`, lowered for an `nodes`-server cluster from the
/// planner's default estimates (for backends without an in-process
/// cluster to read statistics from).
pub fn plan_tpch_for(nodes: u16, n: u32) -> Query {
    plan_with(&Planner::new(PlannerConfig::new(nodes)), n)
}

fn plan_with(planner: &Planner, n: u32) -> Query {
    planner
        .plan_query(&tpch_logical(n).expect("TPC-H query number"))
        .unwrap_or_else(|e| panic!("planning Q{n} failed: {e}"))
}
