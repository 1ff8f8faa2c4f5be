//! Builder quickstart: express a query as a logical plan and let the
//! distributed planner place exchanges, pick broadcast vs repartition, and
//! insert pre-aggregation.
//!
//! ```bash
//! cargo run --release --example builder_quickstart
//! ```

use hsqp::engine::cluster::Transport;
use hsqp::engine::expr::{col, lit, litf};
use hsqp::engine::logical::LogicalPlan;
use hsqp::engine::plan::{AggFunc, AggSpec, JoinKind, SortKey};
use hsqp::engine::session::Session;
use hsqp::tpch::TpchTable;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4-server session over the paper's RDMA transport; TPC-H SF 0.01 is
    // generated and distributed during build().
    let session = Session::builder()
        .nodes(4)
        .transport(Transport::rdma())
        .tpch(0.01)
        .build()?;

    // Revenue per ship mode for recent, discounted lineitems that belong
    // to open orders — a query outside the TPC-H set. The planner
    // decides how to distribute it.
    let open_orders = LogicalPlan::scan(TpchTable::Orders)
        .filter(col("o_orderstatus").eq(hsqp::engine::expr::lits("O")));
    let plan = LogicalPlan::scan(TpchTable::Lineitem)
        .filter(col("l_discount").ge(litf(0.05)))
        .join(
            open_orders,
            &["l_orderkey"],
            &["o_orderkey"],
            JoinKind::LeftSemi,
        )
        .aggregate(
            &["l_shipmode"],
            vec![
                AggSpec::new(
                    AggFunc::Sum,
                    col("l_extendedprice").mul(litf(1.0).sub(col("l_discount"))),
                    "revenue",
                ),
                AggSpec::new(AggFunc::Count, lit(1), "lines"),
            ],
        )
        .top_k(vec![SortKey::desc("revenue")], 5);

    // Inspect what the planner produced before running it.
    let physical = session.physical_plan(&plan)?;
    println!(
        "planner placed {} exchange operator(s)",
        physical.exchange_count()
    );

    let result = session.run(&plan)?;
    println!(
        "{} ship modes in {:.1} ms ({} bytes shuffled)",
        result.row_count(),
        result.elapsed.as_secs_f64() * 1e3,
        result.bytes_shuffled,
    );
    let t = &result.table;
    for row in 0..result.row_count() {
        println!(
            "  {:<10} revenue={:<14} lines={}",
            t.value(row, 0),
            t.value(row, 1),
            t.value(row, 2),
        );
    }

    session.shutdown();
    Ok(())
}
