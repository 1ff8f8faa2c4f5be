//! Linear-scaling gate for the hash kernels: the per-row cost of a join
//! build, a join probe and a single-column group-by must stay flat as the
//! key count grows. A hash that leaves the low bits of numeric keys
//! constant sends every key down one probe sequence, and the per-row cost
//! then grows with N instead of staying put.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hsqp::engine::expr::lit;
use hsqp::engine::local::MorselDriver;
use hsqp::engine::ops::{aggregate, probe_join, JoinTable};
use hsqp::engine::plan::{AggFunc, AggPhase, AggSpec, JoinKind};
use hsqp::numa::Topology;
use hsqp::storage::{Column, DataType, Field, Schema, Table};

/// Smallest key count; the gate compares it with 8N. Small enough that
/// the hash table at 8N (32K buckets of 16 bytes) stays in a core's L2
/// cache: at 8K → 64K keys the release-build probe already reads about
/// 2.5× on a 2 MB-L2 Xeon from cache misses alone, too close to the gate.
const N: usize = 2 * 1024;
/// Probe rows per build key.
const FANOUT: usize = 2;
/// Largest allowed ratio of the per-row cost at 8N to the cost at N.
const MAX_RATIO: f64 = 3.0;
const KERNELS: [&str; 3] = ["join build", "join probe", "aggregate"];

/// A one-column key table holding `keys` as Int64 or as integer-valued
/// Float64.
fn key_table(name: &str, keys: &[i64], float: bool) -> Table {
    let (dtype, column) = if float {
        (
            DataType::Float64,
            Column::F64(keys.iter().map(|&k| k as f64).collect(), None),
        )
    } else {
        (DataType::Int64, Column::I64(keys.to_vec(), None))
    };
    Table::new(Schema::new(vec![Field::new(name, dtype)]), vec![column])
}

fn count() -> [AggSpec; 1] {
    [AggSpec::new(AggFunc::Count, lit(1), "cnt")]
}

/// The inputs of the three kernels over `n` distinct keys.
struct Case {
    n: usize,
    build: Arc<Table>,
    probe: Table,
    table: JoinTable,
}

impl Case {
    fn new(n: usize, float: bool, driver: &MorselDriver) -> Self {
        let keys: Vec<i64> = (0..n as i64).collect();
        let build = Arc::new(key_table("b", &keys, float));
        let probe_keys: Vec<i64> = (0..FANOUT).flat_map(|_| keys.iter().copied()).collect();
        let probe = key_table("p", &probe_keys, float);
        let table = JoinTable::build(Arc::clone(&build), &[0]);
        assert_eq!(table.distinct_keys(), n);
        let joined = probe_join(&probe, &table, &[0], JoinKind::Inner, driver, None);
        assert_eq!(joined.rows(), probe.rows());
        let groups = aggregate(&probe, &[0], &count(), AggPhase::Single, driver, &[]);
        assert_eq!(groups.rows(), n);
        Case {
            n,
            build,
            probe,
            table,
        }
    }

    /// Time kernel `kernel`, run `8N / n` times so that a sample does the
    /// same work at either size.
    fn time(&self, kernel: usize, driver: &MorselDriver) -> Duration {
        let start = Instant::now();
        for _ in 0..8 * N / self.n {
            match kernel {
                0 => drop(std::hint::black_box(JoinTable::build(
                    Arc::clone(&self.build),
                    &[0],
                ))),
                1 => drop(std::hint::black_box(probe_join(
                    &self.probe,
                    &self.table,
                    &[0],
                    JoinKind::Inner,
                    driver,
                    None,
                ))),
                _ => drop(std::hint::black_box(aggregate(
                    &self.probe,
                    &[0],
                    &count(),
                    AggPhase::Single,
                    driver,
                    &[],
                ))),
            }
        }
        start.elapsed()
    }
}

#[test]
fn hash_kernels_scale_linearly_in_the_key_count() {
    let driver = MorselDriver::new(1, &Topology::uniform(1), 16_384, true);
    let mut failures = Vec::new();
    for float in [false, true] {
        let keys = if float { "Float64" } else { "Int64" };
        let cases = [
            Case::new(N, float, &driver),
            Case::new(8 * N, float, &driver),
        ];
        for (kernel, name) in KERNELS.iter().enumerate() {
            // Min-of-3 per size, the sizes interleaved so that both see the
            // same machine load. With equal work per sample, the ratio of
            // the sample times is the ratio of the per-row costs.
            let mut best = [Duration::MAX; 2];
            for _ in 0..3 {
                for (b, case) in best.iter_mut().zip(&cases) {
                    *b = (*b).min(case.time(kernel, &driver));
                }
            }
            let ratio = best[1].as_secs_f64() / best[0].as_secs_f64();
            eprintln!(
                "{name} ({keys} keys): per-row cost at {} keys is {ratio:.2}x its cost at {N} keys",
                8 * N
            );
            if ratio > MAX_RATIO {
                failures.push(format!("{name} ({keys} keys) ratio {ratio:.2}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "per-row cost at {} keys exceeds {MAX_RATIO}x its cost at {N} keys: {failures:?}",
        8 * N
    );
}
