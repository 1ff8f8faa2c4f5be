//! Expected answers: per query, the result's row count and an
//! order-insensitive digest of its rows.
//!
//! Floating-point cells (and Decimal cells, promoted to their value) are
//! rounded to six significant digits before hashing, so the order in which
//! parallel partial sums are combined — which differs between node counts
//! and between the in-process and socket backends — cannot change a
//! digest. Rows are hashed one by one and the row hashes summed, so row
//! order does not matter either.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use hsqp::storage::{decimal_to_f64, DataType, Table, Value};

use crate::stats::splitmix64;

/// One query's recorded answer.
struct Expected {
    rows: usize,
    digest: u64,
    /// A recorded answer known to be empty because of an engine or data
    /// defect (it is still checked, so a fix shows up as a mismatch).
    vacuous: bool,
}

/// How one result compared with its recorded answer.
#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Matched a known-vacuous answer.
    Vacuous,
    Wrong(String),
}

/// The recorded answers of every TPC-H query at one scale factor.
pub struct Answers {
    file: String,
    by_query: BTreeMap<u32, Expected>,
}

impl Answers {
    /// Load `dir/sf<sf>.txt`.
    pub fn load(dir: &Path, sf: f64) -> Result<Self, String> {
        let path = dir.join(file_name(sf));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading expected answers {}: {e}", path.display()))?;
        let mut by_query = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("{}:{}: malformed answer line", path.display(), i + 1);
            let fields: Vec<&str> = line.split_whitespace().collect();
            let (query, rows, digest, vacuous) = match fields.as_slice() {
                [q, r, d] => (q, r, d, false),
                [q, r, d, "vacuous"] => (q, r, d, true),
                _ => return Err(bad()),
            };
            let expected = Expected {
                rows: rows.parse().map_err(|_| bad())?,
                digest: u64::from_str_radix(digest, 16).map_err(|_| bad())?,
                vacuous,
            };
            by_query.insert(query.parse::<u32>().map_err(|_| bad())?, expected);
        }
        Ok(Self {
            file: path.display().to_string(),
            by_query,
        })
    }

    /// Compare query `n`'s result with its recorded answer.
    pub fn check(&self, n: u32, table: &Table) -> Verdict {
        let Some(exp) = self.by_query.get(&n) else {
            return Verdict::Wrong(format!("Q{n}: no recorded answer in {}", self.file));
        };
        let (rows, digest) = (table.rows(), digest(table));
        if rows != exp.rows || digest != exp.digest {
            Verdict::Wrong(format!(
                "Q{n}: got {rows} rows / digest {digest:016x}, expected {} rows / {:016x}",
                exp.rows, exp.digest
            ))
        } else if exp.vacuous {
            Verdict::Vacuous
        } else {
            Verdict::Ok
        }
    }
}

/// Answer file name for a scale factor (`sf0.01.txt`).
fn file_name(sf: f64) -> String {
    format!("sf{sf}.txt")
}

/// Render an answer file from `(query, table)` results; empty results are
/// marked vacuous.
pub fn render(sf: f64, results: &[(u32, &Table)]) -> String {
    let mut out = format!(
        "# Expected answers, TPC-H SF {sf} (default generator seed).\n\
         # query rows digest [vacuous]\n"
    );
    for (n, table) in results {
        let _ = write!(out, "{n} {} {:016x}", table.rows(), digest(table));
        if table.rows() == 0 {
            out.push_str(" vacuous");
        }
        out.push('\n');
    }
    out
}

/// Order-insensitive digest of a table's rows.
fn digest(table: &Table) -> u64 {
    let dtypes: Vec<DataType> = table.schema().fields().iter().map(|f| f.dtype).collect();
    let mut sum = 0u64;
    let mut line = String::new();
    for row in 0..table.rows() {
        line.clear();
        for (c, dtype) in dtypes.iter().enumerate() {
            canonical_cell(*dtype, &table.value(row, c), &mut line);
            line.push('\x1f');
        }
        // Finalized, so that summed row hashes do not cancel in low bits.
        sum = sum.wrapping_add(splitmix64(fnv1a(line.as_bytes())));
    }
    sum ^ table.rows() as u64
}

fn canonical_cell(dtype: DataType, value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::I64(v) if dtype == DataType::Decimal => push_rounded(decimal_to_f64(*v), out),
        Value::I64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::F64(v) => push_rounded(*v, out),
        Value::Str(s) => out.push_str(s),
    }
}

/// Six significant digits; `-0.0` folds into `0`.
fn push_rounded(v: f64, out: &mut String) {
    if v == 0.0 {
        out.push('0');
    } else {
        let _ = write!(out, "{v:.5e}");
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsqp::storage::{Column, Field, Schema};

    fn table(keys: &[i64], sums: &[f64]) -> Table {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("s", DataType::Float64),
        ]);
        let mut k = Column::empty(DataType::Int64);
        let mut s = Column::empty(DataType::Float64);
        for (&key, &sum) in keys.iter().zip(sums) {
            k.push_value(&Value::I64(key));
            s.push_value(&Value::F64(sum));
        }
        Table::new(schema, vec![k, s])
    }

    #[test]
    fn digest_ignores_row_order_and_summation_noise() {
        let a = table(&[1, 2], &[0.1 + 0.2, 10.0]);
        let b = table(&[2, 1], &[10.0, 0.3]);
        assert_eq!(digest(&a), digest(&b));
    }

    #[test]
    fn digest_sees_changed_values() {
        let a = table(&[1, 2], &[0.3, 10.0]);
        let b = table(&[1, 3], &[0.3, 10.0]);
        let c = table(&[1, 2], &[0.3, 10.1]);
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
    }
}
