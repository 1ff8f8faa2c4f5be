//! `hsqp-benchmark` — the repository benchmark driver.
//!
//! Runs one workload against the engine's public API, checks every answer
//! against the recorded ones, and prints one JSON result line on stdout:
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Progress and diagnostics go to stderr. `benchmark/run.py`
//! builds this driver and `hsqp-node` and invokes it; see
//! `benchmark/README.md` for the workloads and metrics.
//!
//! ```text
//! hsqp-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!                --node-bin PATH --answers DIR
//! hsqp-benchmark --workload NAME --node-bin PATH --record-answers
//! ```

mod answers;
mod backend;
mod layers;
mod nodes;
mod report;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use hsqp::engine::queries::{tpch_logical, ALL_QUERIES};

use crate::answers::Answers;
use crate::report::{result_line, Metrics, Tally};
use crate::workloads::{Run, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    node_bin: PathBuf,
    answers: Option<PathBuf>,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    let (mut node_bin, mut answers, mut record) = (None, None, false);
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--record-answers" {
            record = true;
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("invalid --seed {value:?}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds must be positive, got {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            "--node-bin" => node_bin = Some(PathBuf::from(value)),
            "--answers" => answers = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    let node_bin = node_bin.ok_or("--node-bin is required")?;
    if answers.is_none() && !record {
        return Err("--answers is required".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        node_bin,
        answers,
        record,
    })
}

/// Run all 22 queries once on the workload's backend and print an answer
/// file for its scale factor.
fn record_answers(args: &Args) -> Result<(), String> {
    let sf = args.workload.sf();
    let (backend, _) = match args.workload {
        Workload::TpchSockets => backend::Backend::start_remote(&args.node_bin, sf)?,
        Workload::TpchInproc => backend::Backend::start_local(sf, false)?,
    };
    let planner = backend.planner();
    let mut results = Vec::new();
    for n in ALL_QUERIES {
        let logical = tpch_logical(n).map_err(|e| format!("building Q{n}: {e}"))?;
        let exec = backend
            .execute(&planner, &logical)
            .map_err(|e| format!("Q{n}: {e}"))?;
        results.push((n, exec.result.table));
    }
    backend.shutdown();
    let refs: Vec<(u32, &hsqp::storage::Table)> = results.iter().map(|(n, t)| (*n, t)).collect();
    print!("{}", answers::render(sf, &refs));
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if args.record {
        return record_answers(&args);
    }
    let answers_dir = args.answers.clone().expect("checked in parse_args");
    let mut run = Run {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        node_bin: args.node_bin.clone(),
        tally: Tally::new(Answers::load(&answers_dir, args.workload.sf())?),
        answers_dir,
        metrics: Metrics::default(),
    };
    eprintln!(
        "workload {} (seed {}, {} s, trace {}) on {} cores",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    if args.trace {
        run.per_layer()?;
    } else {
        run.end_to_end()?;
    }
    run.tally.log();
    eprint!("{}", run.metrics.render());
    println!("{}", result_line(&run.tally, &run.metrics)?);
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
