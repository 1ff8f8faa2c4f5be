//! Figure 6(c) ablation — pre-aggregation before the exchange vs shuffling
//! raw tuples: Q1's eight aggregates over two tiny group keys shrink the
//! shuffle from the full lineitem scan to a handful of partial rows.

use hsqp_bench::planned;
use hsqp_engine::cluster::{Cluster, ClusterConfig};
use hsqp_engine::plan::{AggPhase, Plan};
use hsqp_engine::queries::Query;
use hsqp_tpch::TpchDb;

const SF: f64 = 0.01;
const NODES: u16 = 4;

/// The plan the planner deliberately does not choose: every
/// `Final(exchange(Partial(x)))` aggregation becomes
/// `Single(exchange(x))`, reshuffling the raw input rows by group key.
fn without_preaggregation(plan: Plan) -> Plan {
    match plan {
        Plan::Aggregate {
            input,
            group_by,
            aggs,
            phase: AggPhase::Final,
        } => match *input {
            Plan::Exchange {
                input: partial,
                kind,
            } => match *partial {
                Plan::Aggregate {
                    input: raw,
                    phase: AggPhase::Partial,
                    ..
                } => Plan::Aggregate {
                    input: Box::new(Plan::Exchange {
                        input: Box::new(without_preaggregation(*raw)),
                        kind,
                    }),
                    group_by,
                    aggs,
                    phase: AggPhase::Single,
                },
                other => panic!("Final aggregate over a non-partial input: {other:?}"),
            },
            other => panic!("Final aggregate without an exchange below: {other:?}"),
        },
        Plan::Exchange { input, kind } => Plan::Exchange {
            input: Box::new(without_preaggregation(*input)),
            kind,
        },
        Plan::Sort { input, keys, limit } => Plan::Sort {
            input: Box::new(without_preaggregation(*input)),
            keys,
            limit,
        },
        other => other,
    }
}

fn main() {
    hsqp_bench::banner(
        "Figure 6(c) ablation",
        "pre-aggregation vs raw shuffle for TPC-H Q1",
    );
    let cluster = Cluster::start(ClusterConfig::paper(NODES)).expect("cluster");
    cluster.load_tpch_db(TpchDb::generate(SF)).expect("load");

    let q1 = planned(&cluster, 1);
    let raw = Query::single(1, without_preaggregation(q1.stages[0].plan.clone()));
    assert_ne!(raw, q1, "the planner chose no pre-aggregation for Q1");
    let with = cluster.run(&q1).expect("run");
    let without = cluster.run(&raw).expect("run");
    assert_eq!(
        with.row_count(),
        without.row_count(),
        "both Q1 plans must return the same groups"
    );
    hsqp_bench::print_table(
        &["plan", "time ms", "bytes shuffled", "messages"],
        &[
            vec![
                "pre-aggregation (paper)".into(),
                hsqp_bench::ms(with.elapsed),
                with.bytes_shuffled.to_string(),
                with.messages_sent.to_string(),
            ],
            vec![
                "raw shuffle".into(),
                hsqp_bench::ms(without.elapsed),
                without.bytes_shuffled.to_string(),
                without.messages_sent.to_string(),
            ],
        ],
    );
    cluster.shutdown();
}
