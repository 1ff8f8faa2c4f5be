//! Named metrics, answer tallies, and the one-line JSON result.

use std::collections::BTreeSet;

use hsqp::storage::Table;

use crate::answers::{Answers, Verdict};

/// Metrics by name, each with its unit, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Set `name`, replacing an earlier value.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|(n, ..)| n == name) {
            Some(slot) => *slot = (name.to_string(), value, unit),
            None => self.0.push((name.to_string(), value, unit)),
        }
    }

    /// The JSON object `{"name": {"value": v, "unit": "u"}, ...}`; fails on
    /// a value that JSON cannot carry.
    fn to_json(&self) -> Result<String, String> {
        let mut parts = Vec::with_capacity(self.0.len());
        for (name, value, unit) in &self.0 {
            if !value.is_finite() {
                return Err(format!("metric {name} is not a finite number ({value})"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }

    /// One `name = value unit` line per metric.
    pub fn render(&self) -> String {
        self.0
            .iter()
            .map(|(n, v, u)| format!("  {n:<30} {v:>14.4} {u}\n"))
            .collect()
    }
}

/// Query outcomes of a run: every execution of a workload query counts as
/// attempted; errors, wrong answers and queries still pending at the end
/// of an open-loop window count as failed.
pub struct Tally {
    /// The recorded answers results are checked against.
    answers: Answers,
    attempted: u64,
    errors: u64,
    wrong: u64,
    pending: u64,
    /// Queries that matched a recorded known-vacuous answer.
    vacuous: BTreeSet<u32>,
    /// The first few failure messages, for the log.
    messages: Vec<String>,
}

impl Tally {
    pub fn new(answers: Answers) -> Self {
        Self {
            answers,
            attempted: 0,
            errors: 0,
            wrong: 0,
            pending: 0,
            vacuous: BTreeSet::new(),
            messages: Vec::new(),
        }
    }

    /// Check a completed query's result against its recorded answer.
    pub fn check(&mut self, n: u32, table: &Table) {
        self.attempted += 1;
        match self.answers.check(n, table) {
            Verdict::Ok => {}
            Verdict::Vacuous => {
                self.vacuous.insert(n);
            }
            Verdict::Wrong(msg) => {
                self.wrong += 1;
                self.note(msg);
            }
        }
    }

    /// A query that ended in an error.
    pub fn error(&mut self, n: u32, msg: &str) {
        self.attempted += 1;
        self.errors += 1;
        self.note(format!("Q{n}: {msg}"));
    }

    /// A query still running when its open-loop window closed.
    pub fn still_pending(&mut self) {
        self.attempted += 1;
        self.pending += 1;
    }

    /// Add another tally's outcomes to this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.wrong += other.wrong;
        self.pending += other.pending;
        self.vacuous.extend(other.vacuous);
        for msg in other.messages {
            self.note(msg);
        }
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.wrong + self.pending
    }

    /// No query failed, returned a wrong answer, or was still pending at
    /// the end of an open-loop window.
    pub fn correct(&self) -> bool {
        self.failed() == 0
    }

    fn note(&mut self, msg: String) {
        if self.messages.len() < 10 {
            self.messages.push(msg);
        }
    }

    /// Log the outcome summary to stderr.
    pub fn log(&self) {
        for msg in &self.messages {
            eprintln!("FAILED: {msg}");
        }
        eprintln!(
            "queries: {} attempted, {} failed ({} errors, {} wrong answers, {} pending at \
             window end), failed_frac {:.6}",
            self.attempted,
            self.failed(),
            self.errors,
            self.wrong,
            self.pending,
            self.failed() as f64 / self.attempted.max(1) as f64
        );
        if !self.vacuous.is_empty() {
            let list: Vec<String> = self.vacuous.iter().map(|n| format!("Q{n}")).collect();
            eprintln!(
                "known-vacuous answers (matched, recorded as empty): {}",
                list.join(", ")
            );
        }
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> Result<String, String> {
    if tally.attempted == 0 {
        return Err("no query was attempted".into());
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.correct(),
        tally.attempted,
        tally.failed(),
        metrics.to_json()?
    ))
}
