//! Relational operators: hash join, hash aggregation, sort.
//!
//! Operators are morsel-parallel: probe/aggregation input is split into
//! morsels claimed dynamically by workers ([`crate::local::MorselDriver`]),
//! worker-local results are merged at the pipeline breaker — the HyPer
//! execution model the paper builds on.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

use hsqp_storage::{decimal_to_f64, Bitmap, Column, DataType, Field, Schema, Table, Value};

use crate::expr::{eval, EvalVec, VecData};
use crate::local::MorselDriver;
use crate::plan::{AggFunc, AggPhase, AggSpec, JoinKind, SortKey};
use crate::serve::CancelToken;
use crate::vm::{BoundProgram, ExprProgram};

/// Rows a sequential operator loop processes between cancellation checks.
/// Smaller than the morsel-loop interval because hash-table builds cost
/// more per row than streaming loops.
const CANCEL_CHECK_ROWS: usize = 1024;

/// Morsel-loop cancellation point: panic out of the operator (to the
/// per-query containment net) once the query's token has tripped.
#[inline]
fn check_cancel(cancel: Option<&CancelToken>) {
    if let Some(token) = cancel {
        token.check_morsel();
    }
}

/// A fast, non-cryptographic hasher for join/aggregation keys (FxHash's
/// multiply-xor scheme; HashDoS is not a concern inside a query engine).
///
/// `finish` mixes the high bits of the state into the low bits (murmur3's
/// `fmix64` steps). The multiply alone only carries entropy *upwards*, and
/// numeric keys are canonical f64 bits ([`canon_f64_bits`]) whose low
/// mantissa bits are zero for every integer value. hashbrown picks buckets
/// from the low bits of the hash, so without the mix every such key lands
/// in one probe sequence and a build goes quadratic.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        let mut h = self.hash;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ (h >> 33)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash.rotate_left(5) ^ u64::from(b)).wrapping_mul(SEED);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.hash = (self.hash.rotate_left(5) ^ v).wrapping_mul(SEED);
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }
}

/// `HashMap` with the engine hasher.
pub type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` with the engine hasher.
pub type FxSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// One component of a composite join/group key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KeyPart {
    /// Integer-backed key (ints, dates, decimals in cents).
    I64(i64),
    /// Canonical f64 bit pattern (see [`canon_f64_bits`]): Float64 group
    /// keys, and the numeric join-key domain, so Int64, Float64, and
    /// promoted Decimal join keys holding the same logical value compare
    /// equal.
    F64(u64),
    /// String key.
    Str(Box<str>),
    /// NULL key component (groups NULLs together, SQL GROUP BY semantics).
    Null,
}

/// A composite key.
pub type Key = Vec<KeyPart>;

/// Extract the key of row `row` from `columns`.
pub fn key_of(columns: &[&Column], row: usize) -> Key {
    columns
        .iter()
        .map(|c| {
            if !c.is_valid(row) {
                KeyPart::Null
            } else {
                match c {
                    Column::I64(v, _) => KeyPart::I64(v[row]),
                    Column::F64(v, _) => KeyPart::F64(canon_f64_bits(v[row])),
                    Column::Str(v, _) => KeyPart::Str(v.get(row).into()),
                }
            }
        })
        .collect()
}

// Canonical numeric-key helpers live next to the placement hash in
// `hsqp_storage` so that table placement and exchange partitioning cannot
// diverge; re-exported here because they define the `KeyPart::F64` domain.
pub use hsqp_storage::placement::{canon_f64_bits, i64_as_f64_exact};

/// A join-key column plus its canonicalization flag: `true` promotes a
/// fixed-point Decimal (i64 cents) to its logical f64 value — the same
/// promotion expression evaluation applies — so a Decimal key equi-joins
/// against Float64 keys (aggregate outputs, computed expressions) *by
/// value* instead of silently matching nothing on raw bit patterns.
pub type JoinKeyCol<'a> = (&'a Column, bool);

/// Resolve the join-key columns of `table`, flagging Decimal columns for
/// canonical promotion.
pub fn join_key_cols<'t>(table: &'t Table, key_cols: &[usize]) -> Vec<JoinKeyCol<'t>> {
    key_cols
        .iter()
        .map(|&i| {
            (
                table.column(i),
                table.schema().fields()[i].dtype == DataType::Decimal,
            )
        })
        .collect()
}

/// The canonical numeric key bits of row `row`: the `KeyPart::F64`
/// domain, shared by the composite and the flat join index. A Decimal
/// is promoted to its f64 value, an Int64 maps to its f64 when exactly
/// representable, and Float64 folds −0.0 onto +0.0. `None` for NULL, for
/// an Int64 that f64 cannot represent (it keeps its integer identity: no
/// f64 can equal it by value anyway) and for a String key.
fn numeric_key_bits((c, promote): JoinKeyCol<'_>, row: usize) -> Option<u64> {
    if !c.is_valid(row) {
        return None;
    }
    match c {
        Column::I64(v, _) if promote => Some(canon_f64_bits(decimal_to_f64(v[row]))),
        Column::I64(v, _) => i64_as_f64_exact(v[row]).map(canon_f64_bits),
        Column::F64(v, _) => Some(canon_f64_bits(v[row])),
        Column::Str(..) => None,
    }
}

/// Extract the canonicalized join key of row `row`.
pub fn join_key_of(columns: &[JoinKeyCol<'_>], row: usize) -> Key {
    columns
        .iter()
        .map(|&(c, promote)| {
            if !c.is_valid(row) {
                return KeyPart::Null;
            }
            match (c, numeric_key_bits((c, promote), row)) {
                (_, Some(bits)) => KeyPart::F64(bits),
                (Column::I64(v, _), None) => KeyPart::I64(v[row]),
                (Column::Str(v, _), None) => KeyPart::Str(v.get(row).into()),
                (Column::F64(..), None) => unreachable!("every f64 has canonical bits"),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

/// A materialized join hash table over the build side.
///
/// Keys are canonicalized by logical type (see [`join_key_of`]), so mixed
/// Decimal/Float64 key pairs join by value. The build side is held behind
/// an `Arc` so a shared temp relation (a materialized CTE) can back the
/// hash table without being deep-copied.
///
/// A single numeric key column (Int64, Decimal or Float64) is indexed
/// flat: its canonical key bits map to the first build row holding that
/// key, and the remaining rows follow through a per-row chain, so no key
/// or row list is heap-allocated per distinct key. If an Int64 build key
/// has no exact f64 value, the column falls back to the composite index
/// (a `Vec<KeyPart>` key per distinct value); so do String and
/// multi-column keys. Either way a key's matches come back in build-row
/// order.
pub struct JoinTable {
    build: Arc<Table>,
    index: JoinIndex,
}

/// End of a [`JoinIndex::Flat`] row chain.
const CHAIN_END: u32 = u32::MAX;

enum JoinIndex {
    /// Canonical key bits → first build row; `next[row]` is the following
    /// build row with the same key, or [`CHAIN_END`].
    Flat {
        heads: FxMap<u64, u32>,
        next: Vec<u32>,
    },
    /// Any other key: the full key → its build rows.
    Composite(FxMap<Key, Vec<u32>>),
}

impl JoinTable {
    /// Build the hash table from `build` keyed by `key_cols`.
    pub fn build(build: impl Into<Arc<Table>>, key_cols: &[usize]) -> Self {
        Self::build_cancellable(build, key_cols, None)
    }

    /// [`build`](Self::build) with a cooperative cancellation point every
    /// `CANCEL_CHECK_ROWS` build rows, so cancelling a query mid-build
    /// does not wait out the whole hash-table construction.
    pub fn build_cancellable(
        build: impl Into<Arc<Table>>,
        key_cols: &[usize],
        cancel: Option<&CancelToken>,
    ) -> Self {
        let build = build.into();
        let cols = join_key_cols(&build, key_cols);
        let rows = build.rows();
        assert!(rows < CHAIN_END as usize, "build side exceeds u32 row ids");
        let index = match flat_key_col(&cols) {
            Some(col) => {
                let mut heads: FxMap<u64, u32> = FxMap::default();
                let mut next = vec![CHAIN_END; rows];
                // In reverse, so each chain comes out in build-row order.
                for row in (0..rows).rev() {
                    if row % CANCEL_CHECK_ROWS == 0 {
                        check_cancel(cancel);
                    }
                    // `None` is a NULL key here, and NULL keys never join.
                    if let Some(bits) = numeric_key_bits(col, row) {
                        if let Some(head) = heads.insert(bits, row as u32) {
                            next[row] = head;
                        }
                    }
                }
                JoinIndex::Flat { heads, next }
            }
            None => {
                let mut index: FxMap<Key, Vec<u32>> = FxMap::default();
                for row in 0..rows {
                    if row % CANCEL_CHECK_ROWS == 0 {
                        check_cancel(cancel);
                    }
                    let key = join_key_of(&cols, row);
                    if key.contains(&KeyPart::Null) {
                        continue; // NULL keys never join
                    }
                    index.entry(key).or_default().push(row as u32);
                }
                JoinIndex::Composite(index)
            }
        };
        Self { build, index }
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        match &self.index {
            JoinIndex::Flat { heads, .. } => heads.len(),
            JoinIndex::Composite(index) => index.len(),
        }
    }

    /// The build-side table.
    pub fn build_side(&self) -> &Table {
        &self.build
    }

    /// The build rows matching probe row `row` of `cols` (the probe's
    /// [`join_key_cols`]), in build-row order.
    fn matches(&self, cols: &[JoinKeyCol<'_>], row: usize) -> Matches<'_> {
        match &self.index {
            // A NULL, a String or an Int64 beyond f64's exact range cannot
            // equal any flat (canonical f64) build key.
            JoinIndex::Flat { heads, next } => Matches::Chain {
                next,
                row: numeric_key_bits(cols[0], row)
                    .and_then(|bits| heads.get(&bits).copied())
                    .unwrap_or(CHAIN_END),
            },
            JoinIndex::Composite(index) => {
                let key = join_key_of(cols, row);
                let rows = if key.contains(&KeyPart::Null) {
                    None
                } else {
                    index.get(&key)
                };
                Matches::List(rows.map_or([].iter(), |rows| rows.iter()))
            }
        }
    }
}

/// The build key column the flat index can hold: a single numeric column
/// whose every Int64 value has an exact f64 (so [`numeric_key_bits`] is
/// defined on each valid row).
fn flat_key_col<'t>(cols: &[JoinKeyCol<'t>]) -> Option<JoinKeyCol<'t>> {
    match *cols {
        [(Column::Str(..), _)] => None,
        [(Column::I64(v, _), false)] if v.iter().any(|&x| i64_as_f64_exact(x).is_none()) => None,
        [col] => Some(col),
        _ => None,
    }
}

/// The build rows one probe row matches.
enum Matches<'a> {
    /// A flat-index row chain starting at `row`.
    Chain { next: &'a [u32], row: u32 },
    /// A composite-index row list.
    List(std::slice::Iter<'a, u32>),
}

impl Iterator for Matches<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            Matches::Chain { row: CHAIN_END, .. } => None,
            Matches::Chain { next, row } => {
                let current = *row;
                *row = next[current as usize];
                Some(current)
            }
            Matches::List(rows) => rows.next().copied(),
        }
    }
}

/// Output schema of a join.
pub fn join_schema(probe: &Schema, build: &Schema, kind: JoinKind) -> Schema {
    match kind {
        JoinKind::LeftSemi | JoinKind::LeftAnti => probe.clone(),
        JoinKind::Inner | JoinKind::LeftOuter => {
            let mut fields: Vec<Field> = probe.fields().to_vec();
            for f in build.fields() {
                assert!(
                    probe.fields().iter().all(|p| p.name != f.name),
                    "duplicate column {:?} across join sides",
                    f.name
                );
                let mut f = f.clone();
                if kind == JoinKind::LeftOuter {
                    f.nullable = true;
                }
                fields.push(f);
            }
            Schema::new(fields)
        }
    }
}

/// Probe `probe` against `table`, morsel-parallel, producing the joined
/// result. Each morsel is a cooperative cancellation point when a token
/// is supplied.
pub fn probe_join(
    probe: &Table,
    table: &JoinTable,
    probe_key_cols: &[usize],
    kind: JoinKind,
    driver: &MorselDriver,
    cancel: Option<&CancelToken>,
) -> Table {
    let out_schema = join_schema(probe.schema(), table.build.schema(), kind);
    let cols = join_key_cols(probe, probe_key_cols);

    let parts = driver.run(
        probe.rows(),
        |_| (Vec::<usize>::new(), Vec::<Option<u32>>::new()),
        |(probe_idx, build_idx), _, m| {
            check_cancel(cancel);
            for row in m.range() {
                let mut matches = table.matches(&cols, row);
                match kind {
                    JoinKind::Inner => {
                        for b in matches {
                            probe_idx.push(row);
                            build_idx.push(Some(b));
                        }
                    }
                    JoinKind::LeftOuter => {
                        let before = probe_idx.len();
                        for b in matches {
                            probe_idx.push(row);
                            build_idx.push(Some(b));
                        }
                        if probe_idx.len() == before {
                            probe_idx.push(row);
                            build_idx.push(None);
                        }
                    }
                    JoinKind::LeftSemi => {
                        if matches.next().is_some() {
                            probe_idx.push(row);
                        }
                    }
                    JoinKind::LeftAnti => {
                        if matches.next().is_none() {
                            probe_idx.push(row);
                        }
                    }
                }
            }
        },
    );

    let mut out = Table::empty(out_schema);
    for (probe_idx, build_idx) in parts {
        if probe_idx.is_empty() {
            continue;
        }
        let left = probe.gather(&probe_idx);
        let piece = match kind {
            JoinKind::LeftSemi | JoinKind::LeftAnti => left,
            JoinKind::Inner | JoinKind::LeftOuter => {
                let right = gather_optional(&table.build, &build_idx);
                let mut cols = left.columns().to_vec();
                cols.extend(right);
                Table::new(out.schema().clone(), cols)
            }
        };
        out.append(&piece);
    }
    out
}

/// Gather build rows where `idx[i]` may be None (left-outer miss → NULL row).
fn gather_optional(build: &Table, idx: &[Option<u32>]) -> Vec<Column> {
    if idx.iter().all(Option::is_some) {
        let dense: Vec<usize> = idx.iter().map(|i| i.expect("checked") as usize).collect();
        return build.gather(&dense).columns().to_vec();
    }
    let validity: Bitmap = idx.iter().map(Option::is_some).collect();
    let dense: Vec<usize> = idx.iter().map(|i| i.unwrap_or(0) as usize).collect();
    build
        .gather(&dense)
        .columns()
        .iter()
        .map(|c| match c.clone() {
            Column::I64(v, _) => Column::I64(v, Some(validity.clone())),
            Column::F64(v, _) => Column::F64(v, Some(validity.clone())),
            Column::Str(v, _) => Column::Str(v, Some(validity.clone())),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum AggState {
    Sum { sum: f64, any: bool },
    Count(i64),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, cnt: i64 },
    Distinct(FxSet<KeyPart>),
}

impl AggState {
    fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Sum => AggState::Sum {
                sum: 0.0,
                any: false,
            },
            AggFunc::Count => AggState::Count(0),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Avg => AggState::Avg { sum: 0.0, cnt: 0 },
            AggFunc::CountDistinct => AggState::Distinct(FxSet::default()),
        }
    }

    fn update(&mut self, v: &EvalVec, row: usize) {
        if !v.is_valid(row) {
            return; // SQL aggregates skip NULLs
        }
        match self {
            AggState::Sum { sum, any } => {
                *sum += numeric(v, row);
                *any = true;
            }
            AggState::Count(c) => *c += 1,
            AggState::Min(cur) => {
                let val = v.value(row);
                if cur.as_ref().is_none_or(|c| value_lt(&val, c)) {
                    *cur = Some(val);
                }
            }
            AggState::Max(cur) => {
                let val = v.value(row);
                if cur.as_ref().is_none_or(|c| value_lt(c, &val)) {
                    *cur = Some(val);
                }
            }
            AggState::Avg { sum, cnt } => {
                *sum += numeric(v, row);
                *cnt += 1;
            }
            AggState::Distinct(set) => {
                let part = match &v.data {
                    VecData::I64(d) => KeyPart::I64(d[row]),
                    VecData::F64(d) => KeyPart::F64(canon_f64_bits(d[row])),
                    VecData::Str(d) => KeyPart::Str(d.get(row).into()),
                    VecData::Bool(d) => KeyPart::I64(i64::from(d[row])),
                };
                set.insert(part);
            }
        }
    }

    fn merge(&mut self, other: AggState) {
        match (self, other) {
            (AggState::Sum { sum, any }, AggState::Sum { sum: s2, any: a2 }) => {
                *sum += s2;
                *any |= a2;
            }
            (AggState::Count(c), AggState::Count(c2)) => *c += c2,
            (AggState::Min(cur), AggState::Min(other)) => {
                if let Some(o) = other {
                    if cur.as_ref().is_none_or(|c| value_lt(&o, c)) {
                        *cur = Some(o);
                    }
                }
            }
            (AggState::Max(cur), AggState::Max(other)) => {
                if let Some(o) = other {
                    if cur.as_ref().is_none_or(|c| value_lt(c, &o)) {
                        *cur = Some(o);
                    }
                }
            }
            (AggState::Avg { sum, cnt }, AggState::Avg { sum: s2, cnt: c2 }) => {
                *sum += s2;
                *cnt += c2;
            }
            (AggState::Distinct(set), AggState::Distinct(other)) => set.extend(other),
            _ => panic!("mismatched aggregate states"),
        }
    }
}

fn numeric(v: &EvalVec, row: usize) -> f64 {
    match &v.data {
        VecData::I64(d) => d[row] as f64,
        VecData::F64(d) => d[row],
        VecData::Bool(d) => f64::from(u8::from(d[row])),
        VecData::Str(_) => panic!("cannot sum strings"),
    }
}

/// Total order over values: NULL sorts last; numerics compare numerically.
fn value_lt(a: &Value, b: &Value) -> bool {
    value_cmp(a, b) == std::cmp::Ordering::Less
}

/// Comparison used by MIN/MAX and ORDER BY.
pub fn value_cmp(a: &Value, b: &Value) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a, b) {
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Null, _) => Ordering::Greater, // NULLs last
        (_, Value::Null) => Ordering::Less,
        (Value::I64(x), Value::I64(y)) => x.cmp(y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        _ => {
            let x = a.as_f64();
            let y = b.as_f64();
            x.partial_cmp(&y).unwrap_or(Ordering::Equal)
        }
    }
}

/// Hash-aggregate `input`, morsel-parallel with per-worker maps merged at
/// the end.
///
/// * `Single` computes final results directly.
/// * `Partial` emits mergeable state columns (`name`, or `name__sum` +
///   `name__cnt` for AVG) — the pre-aggregation of Figure 6(c).
/// * `Final` merges state columns produced by `Partial`.
pub fn aggregate(
    input: &Table,
    group_by: &[usize],
    aggs: &[AggSpec],
    phase: AggPhase,
    driver: &MorselDriver,
    params: &[Value],
) -> Table {
    aggregate_with(input, group_by, aggs, phase, driver, params, None, None)
}

/// [`aggregate`] with optional compiled input programs (one slot per
/// aggregate, aligned by position; see
/// [`OpPrograms::aggs`](crate::vm::OpPrograms::aggs)). Programs are bound
/// once against `input` here — a slot whose bind fails silently reverts to
/// the tree walker for that aggregate alone. `Final`-phase merges read
/// partial-state columns directly and take no programs.
#[allow(clippy::too_many_arguments)]
pub fn aggregate_with(
    input: &Table,
    group_by: &[usize],
    aggs: &[AggSpec],
    phase: AggPhase,
    driver: &MorselDriver,
    params: &[Value],
    programs: Option<&[(String, Option<ExprProgram>)]>,
    cancel: Option<&CancelToken>,
) -> Table {
    assert!(
        phase == AggPhase::Final
            || !aggs
                .iter()
                .any(|a| a.func == AggFunc::CountDistinct && phase == AggPhase::Partial),
        "count(distinct) cannot be pre-aggregated"
    );

    // In Final phase the input carries partial-state columns; aggregate
    // specs are rewritten to merge them.
    let effective: Vec<(AggFunc, Expr2)> = match phase {
        AggPhase::Final => aggs
            .iter()
            .map(|a| match a.func {
                AggFunc::Sum => (AggFunc::Sum, Expr2::Col(a.name.to_string())),
                AggFunc::Count => (AggFunc::Sum, Expr2::Col(a.name.clone())),
                AggFunc::Min => (AggFunc::Min, Expr2::Col(a.name.clone())),
                AggFunc::Max => (AggFunc::Max, Expr2::Col(a.name.clone())),
                AggFunc::Avg => (
                    AggFunc::Avg,
                    Expr2::Pair(format!("{}__sum", a.name), format!("{}__cnt", a.name)),
                ),
                AggFunc::CountDistinct => (AggFunc::CountDistinct, Expr2::Col(a.name.clone())),
            })
            .collect(),
        _ => aggs
            .iter()
            .map(|a| (a.func, Expr2::Expr(a.expr.clone())))
            .collect(),
    };

    // Bind compiled input programs once, not per morsel.
    let bound: Vec<Option<BoundProgram<'_>>> = match programs {
        Some(ps) if phase != AggPhase::Final && ps.len() == aggs.len() => ps
            .iter()
            .map(|(_, p)| p.as_ref().and_then(|p| p.bind(input).ok()))
            .collect(),
        _ => (0..aggs.len()).map(|_| None).collect(),
    };
    let eval_inputs = |range: Range<usize>| -> Vec<AggInput> {
        effective
            .iter()
            .zip(&bound)
            .map(|((func, e), b)| match b {
                Some(bp) => AggInput::Vec(bp.eval(input, range.clone(), params)),
                None => AggInput::eval(e, *func, input, range.clone(), params),
            })
            .collect()
    };
    let new_states =
        || -> Vec<AggState> { effective.iter().map(|(f, _)| AggState::new(*f)).collect() };

    // MIN/MAX output columns take the *static* type of their input
    // expression (evaluated over zero rows), so empty partials keep the
    // same schema as populated ones.
    let minmax_types: Vec<DataType> = effective
        .iter()
        .map(|(func, e)| match func {
            AggFunc::Min | AggFunc::Max => {
                let v = match e {
                    Expr2::Expr(x) => eval(x, input, 0..0, params),
                    Expr2::Col(name) => {
                        eval(&crate::expr::Expr::Col(name.clone()), input, 0..0, params)
                    }
                    Expr2::Pair(..) => unreachable!("pairs are AVG-only"),
                };
                v.into_column().1
            }
            _ => DataType::Float64,
        })
        .collect();

    let group_cols: Vec<&Column> = group_by.iter().map(|&i| input.column(i)).collect();
    let fold = GroupFold {
        rows: input.rows(),
        driver,
        cancel,
        eval_inputs: &eval_inputs,
        new_states: &new_states,
    };
    match *group_cols.as_slice() {
        // A single numeric group column keys a flat map on its value bits.
        [c] if !matches!(c, Column::Str(..)) => {
            let groups = fold.run(|row| flat_group_key(c, row));
            build_agg_output(input, group_by, aggs, phase, groups, &minmax_types)
        }
        _ => {
            let mut groups = fold.run(|row| key_of(&group_cols, row));
            // Global aggregate over empty input still yields one row
            // (Final/Single).
            if groups.is_empty() && group_by.is_empty() && phase != AggPhase::Partial {
                groups.insert(Vec::new(), new_states());
            }
            build_agg_output(input, group_by, aggs, phase, groups, &minmax_types)
        }
    }
}

/// A hash-aggregation key that can be written back as group-by values.
trait GroupKey: Hash + Eq + Send {
    /// Append the key's values to the group-by output columns.
    fn push_to(self, cols: &mut [Column]);
}

impl GroupKey for Key {
    fn push_to(self, cols: &mut [Column]) {
        for (col, part) in cols.iter_mut().zip(self) {
            col.push_value(&match part {
                KeyPart::I64(x) => Value::I64(x),
                KeyPart::F64(bits) => Value::F64(f64::from_bits(bits)),
                KeyPart::Str(s) => Value::Str(s.into()),
                KeyPart::Null => Value::Null,
            });
        }
    }
}

/// A [`flat_group_key`], decoded by the type of its one output column.
impl GroupKey for Option<u64> {
    fn push_to(self, cols: &mut [Column]) {
        let value = match (self, &cols[0]) {
            (None, _) => Value::Null,
            (Some(bits), Column::F64(..)) => Value::F64(f64::from_bits(bits)),
            (Some(bits), _) => Value::I64(bits as i64),
        };
        cols[0].push_value(&value);
    }
}

/// The flat group key of row `row` of a numeric group column: the Int64
/// value or the canonical Float64 bits, `None` for NULL. It forms exactly
/// the groups [`key_of`] forms.
fn flat_group_key(c: &Column, row: usize) -> Option<u64> {
    if !c.is_valid(row) {
        return None;
    }
    match c {
        Column::I64(v, _) => Some(v[row] as u64),
        Column::F64(v, _) => Some(canon_f64_bits(v[row])),
        Column::Str(..) => unreachable!("String group keys take the composite path"),
    }
}

/// What folding the aggregate input into per-group states needs besides
/// the group key.
struct GroupFold<'a> {
    rows: usize,
    driver: &'a MorselDriver,
    cancel: Option<&'a CancelToken>,
    /// Evaluates every aggregate's input over a morsel.
    eval_inputs: &'a (dyn Fn(Range<usize>) -> Vec<AggInput> + Sync),
    /// Fresh states for a new group.
    new_states: &'a (dyn Fn() -> Vec<AggState> + Sync),
}

impl GroupFold<'_> {
    /// Fold the input rows into per-group states by `key`: morsel-parallel
    /// into per-worker maps, merged at the end.
    fn run<K: GroupKey>(&self, key: impl Fn(usize) -> K + Sync) -> FxMap<K, Vec<AggState>> {
        let maps = self.driver.run(
            self.rows,
            |_| FxMap::<K, Vec<AggState>>::default(),
            |map, _, m| {
                check_cancel(self.cancel);
                // Evaluate agg inputs once per morsel.
                let inputs = (self.eval_inputs)(m.range());
                for row in m.range() {
                    let states = map.entry(key(row)).or_insert_with(self.new_states);
                    let local = row - m.start;
                    for (state, inp) in states.iter_mut().zip(&inputs) {
                        inp.update(state, local);
                    }
                }
            },
        );

        // Merge worker maps.
        let mut maps = maps.into_iter();
        let mut merged = maps.next().unwrap_or_default();
        for map in maps {
            for (k, states) in map {
                match merged.entry(k) {
                    Entry::Vacant(e) => {
                        e.insert(states);
                    }
                    Entry::Occupied(mut e) => {
                        for (a, b) in e.get_mut().iter_mut().zip(states) {
                            a.merge(b);
                        }
                    }
                }
            }
        }
        merged
    }
}

/// How an aggregate reads its input in a given phase.
enum Expr2 {
    Expr(crate::expr::Expr),
    Col(String),
    Pair(String, String),
}

enum AggInput {
    Vec(EvalVec),
    /// AVG merge: partial sums and counts.
    Pair(EvalVec, EvalVec),
}

impl AggInput {
    fn eval(
        e: &Expr2,
        _func: AggFunc,
        table: &Table,
        range: std::ops::Range<usize>,
        params: &[Value],
    ) -> Self {
        match e {
            Expr2::Expr(x) => AggInput::Vec(eval(x, table, range, params)),
            Expr2::Col(name) => AggInput::Vec(eval(
                &crate::expr::Expr::Col(name.clone()),
                table,
                range,
                params,
            )),
            Expr2::Pair(s, c) => AggInput::Pair(
                eval(
                    &crate::expr::Expr::Col(s.clone()),
                    table,
                    range.clone(),
                    params,
                ),
                eval(&crate::expr::Expr::Col(c.clone()), table, range, params),
            ),
        }
    }

    fn update(&self, state: &mut AggState, row: usize) {
        match self {
            AggInput::Vec(v) => state.update(v, row),
            AggInput::Pair(sums, cnts) => {
                if let AggState::Avg { sum, cnt } = state {
                    if sums.is_valid(row) {
                        *sum += numeric(sums, row);
                        *cnt += match &cnts.data {
                            VecData::I64(d) => d[row],
                            VecData::F64(d) => d[row] as i64,
                            _ => panic!("count column must be numeric"),
                        };
                    }
                } else {
                    panic!("paired input only for AVG merge");
                }
            }
        }
    }
}

/// Emit one output row per group: the group's key, then each aggregate's
/// final or partial state.
fn build_agg_output<K: GroupKey>(
    input: &Table,
    group_by: &[usize],
    aggs: &[AggSpec],
    phase: AggPhase,
    groups: FxMap<K, Vec<AggState>>,
    minmax_types: &[DataType],
) -> Table {
    // Output schema: group columns keep their input field definitions.
    let mut fields: Vec<Field> = group_by
        .iter()
        .map(|&i| input.schema().fields()[i].clone())
        .collect();
    for a in aggs {
        match (phase, a.func) {
            (AggPhase::Partial, AggFunc::Avg) => {
                fields.push(Field::new(format!("{}__sum", a.name), DataType::Float64));
                fields.push(Field::new(format!("{}__cnt", a.name), DataType::Int64));
            }
            (_, AggFunc::Sum) | (_, AggFunc::Avg) => {
                fields.push(Field::nullable(a.name.clone(), DataType::Float64));
            }
            (_, AggFunc::Count) | (_, AggFunc::CountDistinct) => {
                fields.push(Field::new(a.name.clone(), DataType::Int64));
            }
            (_, AggFunc::Min) | (_, AggFunc::Max) => {
                let idx = aggs
                    .iter()
                    .position(|x| std::ptr::eq(x, a))
                    .expect("in aggs");
                fields.push(Field::nullable(a.name.clone(), minmax_types[idx]));
            }
        }
    }
    let schema = Schema::new(fields);
    let mut columns: Vec<Column> = schema
        .fields()
        .iter()
        .map(|f| Column::empty(f.dtype))
        .collect();

    for (key, states) in groups {
        key.push_to(&mut columns[..group_by.len()]);
        let mut c = group_by.len();
        for (state, a) in states.into_iter().zip(aggs) {
            match (phase, state) {
                (AggPhase::Partial, AggState::Avg { sum, cnt }) => {
                    columns[c].push_value(&Value::F64(sum));
                    columns[c + 1].push_value(&Value::I64(cnt));
                    c += 2;
                    continue;
                }
                (_, AggState::Sum { sum, any }) => {
                    // COUNT merged in the Final phase sums integer counts.
                    let v = if a.func == AggFunc::Count {
                        Value::I64(sum as i64)
                    } else if any {
                        Value::F64(sum)
                    } else {
                        Value::Null
                    };
                    columns[c].push_value(&v);
                }
                (_, AggState::Count(n)) => columns[c].push_value(&Value::I64(n)),
                (_, AggState::Avg { sum, cnt }) => {
                    columns[c].push_value(&if cnt > 0 {
                        Value::F64(sum / cnt as f64)
                    } else {
                        Value::Null
                    });
                }
                (_, AggState::Min(v)) | (_, AggState::Max(v)) => {
                    columns[c].push_value(&v.unwrap_or(Value::Null));
                }
                (_, AggState::Distinct(set)) => {
                    columns[c].push_value(&Value::I64(set.len() as i64));
                }
            }
            let _ = a;
            c += 1;
        }
    }
    Table::new(schema, columns)
}

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

/// Sort a table by `keys`, optionally truncating to `limit` rows.
pub fn sort_table(input: &Table, keys: &[SortKey], limit: Option<usize>) -> Table {
    let key_cols: Vec<(usize, bool)> = keys
        .iter()
        .map(|k| (input.schema().index_of(&k.column), k.desc))
        .collect();
    let mut indices: Vec<usize> = (0..input.rows()).collect();
    indices.sort_by(|&a, &b| {
        for &(c, desc) in &key_cols {
            let va = input.value(a, c);
            let vb = input.value(b, c);
            let ord = value_cmp(&va, &vb);
            if ord != std::cmp::Ordering::Equal {
                return if desc { ord.reverse() } else { ord };
            }
        }
        std::cmp::Ordering::Equal
    });
    if let Some(l) = limit {
        indices.truncate(l);
    }
    input.gather(&indices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use hsqp_numa::Topology;

    fn driver() -> MorselDriver {
        MorselDriver::new(2, &Topology::uniform(2), 64, true)
    }

    fn orders_like() -> Table {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("grp", DataType::Utf8),
            Field::new("v", DataType::Decimal),
        ]);
        let n = 200;
        let keys: Vec<i64> = (0..n).collect();
        let grps: hsqp_storage::StringColumn = (0..n)
            .map(|i| if i % 2 == 0 { "even" } else { "odd" })
            .collect();
        let vals: Vec<i64> = (0..n).map(|i| i * 100).collect();
        Table::new(
            schema,
            vec![
                Column::I64(keys, None),
                Column::Str(grps, None),
                Column::I64(vals, None),
            ],
        )
    }

    fn dim() -> Table {
        let schema = Schema::new(vec![
            Field::new("dk", DataType::Int64),
            Field::new("label", DataType::Utf8),
        ]);
        Table::new(
            schema,
            vec![
                Column::I64(vec![0, 1, 2, 0], None),
                Column::Str(["zero", "one", "two", "zero2"].into_iter().collect(), None),
            ],
        )
    }

    #[test]
    fn inner_join_matches_all_pairs() {
        let probe = orders_like(); // keys 0..200
        let build = dim(); // dk 0,1,2,0
        let jt = JoinTable::build(build, &[0]);
        let out = probe_join(&probe, &jt, &[0], JoinKind::Inner, &driver(), None);
        // Probe keys 0,1,2 match; key 0 matches twice.
        assert_eq!(out.rows(), 4);
        assert_eq!(out.schema().len(), 5);
        let mut labels: Vec<String> = (0..out.rows())
            .map(|r| out.value(r, 4).as_str().to_string())
            .collect();
        labels.sort();
        assert_eq!(labels, vec!["one", "two", "zero", "zero2"]);
    }

    #[test]
    fn left_outer_join_fills_nulls() {
        let probe = dim(); // dk 0,1,2,0
        let schema = Schema::new(vec![
            Field::new("bk", DataType::Int64),
            Field::new("payload", DataType::Int64),
        ]);
        let build = Table::new(
            schema,
            vec![Column::I64(vec![1], None), Column::I64(vec![99], None)],
        );
        let jt = JoinTable::build(build, &[0]);
        let out = probe_join(&probe, &jt, &[0], JoinKind::LeftOuter, &driver(), None);
        assert_eq!(out.rows(), 4);
        let matched: Vec<bool> = (0..4).map(|r| !out.value(r, 2).is_null()).collect();
        assert_eq!(matched.iter().filter(|&&b| b).count(), 1);
        // The matched row carries the payload.
        let idx = matched.iter().position(|&b| b).unwrap();
        assert_eq!(out.value(idx, 3), Value::I64(99));
    }

    #[test]
    fn semi_and_anti_partition_probe() {
        let probe = orders_like();
        let jt = JoinTable::build(dim(), &[0]);
        let semi = probe_join(&probe, &jt, &[0], JoinKind::LeftSemi, &driver(), None);
        let anti = probe_join(&probe, &jt, &[0], JoinKind::LeftAnti, &driver(), None);
        assert_eq!(semi.rows(), 3); // keys 0,1,2 (distinct probe rows)
        assert_eq!(anti.rows(), 197);
        assert_eq!(semi.schema().len(), probe.schema().len());
        assert_eq!(semi.rows() + anti.rows(), probe.rows());
    }

    #[test]
    fn decimal_keys_join_float64_keys_by_value() {
        // Probe: a Decimal column holding 1.00, 2.50, 9.99 as cents.
        let probe = Table::new(
            Schema::new(vec![Field::new("cost", DataType::Decimal)]),
            vec![Column::I64(vec![100, 250, 999], None)],
        );
        // Build: Float64 keys as an aggregate (e.g. MIN) would produce them.
        let build = Table::new(
            Schema::new(vec![Field::new("min_cost", DataType::Float64)]),
            vec![Column::F64(vec![2.5, 7.0], None)],
        );
        let jt = JoinTable::build(build, &[0]);
        let out = probe_join(&probe, &jt, &[0], JoinKind::LeftSemi, &driver(), None);
        assert_eq!(out.rows(), 1, "2.50 must match the f64 key 2.5");
        // The surviving probe row keeps its fixed-point representation.
        assert_eq!(out.value(0, 0), Value::I64(250));
        // Decimal ⋈ Decimal still joins (both sides canonicalized).
        let renamed = Table::new(
            Schema::new(vec![Field::new("c2", DataType::Decimal)]),
            vec![Column::I64(vec![100, 250, 999], None)],
        );
        let jt = JoinTable::build(renamed, &[0]);
        let out = probe_join(&probe, &jt, &[0], JoinKind::Inner, &driver(), None);
        assert_eq!(out.rows(), 3);
    }

    #[test]
    fn i64_f64_exact_roundtrip_edges() {
        assert_eq!(i64_as_f64_exact(0), Some(0.0));
        assert_eq!(i64_as_f64_exact(-7), Some(-7.0));
        assert_eq!(i64_as_f64_exact(1 << 53), Some((1u64 << 53) as f64));
        // 2^53 + 1 is the first integer f64 cannot represent.
        assert_eq!(i64_as_f64_exact((1 << 53) + 1), None);
        // i64::MAX would round-trip through the saturating cast — must be
        // rejected explicitly.
        assert_eq!(i64_as_f64_exact(i64::MAX), None);
        // i64::MIN is a power of two, exactly representable.
        assert_eq!(i64_as_f64_exact(i64::MIN), Some(i64::MIN as f64));
        // Canonical zero folds the sign bit.
        assert_eq!(canon_f64_bits(-0.0), canon_f64_bits(0.0));
        assert_ne!(canon_f64_bits(-1.0), canon_f64_bits(1.0));
    }

    #[test]
    fn int64_keys_join_float64_keys_by_value() {
        let probe = Table::new(
            Schema::new(vec![Field::new("k", DataType::Int64)]),
            vec![Column::I64(vec![1, 2, 3, (1 << 53) + 1], None)],
        );
        let build = Table::new(
            Schema::new(vec![Field::new("f", DataType::Float64)]),
            vec![Column::F64(
                vec![2.0, 3.0, -0.0, ((1i64 << 53) + 2) as f64],
                None,
            )],
        );
        let jt = JoinTable::build(build, &[0]);
        let out = probe_join(&probe, &jt, &[0], JoinKind::LeftSemi, &driver(), None);
        // 2 and 3 match by value; 2^53+1 has no exact f64 peer.
        assert_eq!(out.rows(), 2);
        // Pure Int64 ⋈ Int64 is unchanged by canonicalization, including
        // keys beyond f64's exact-integer range.
        let big = Table::new(
            Schema::new(vec![Field::new("k2", DataType::Int64)]),
            vec![Column::I64(vec![1, (1 << 53) + 1, i64::MAX], None)],
        );
        let jt = JoinTable::build(big, &[0]);
        let out = probe_join(&probe, &jt, &[0], JoinKind::Inner, &driver(), None);
        assert_eq!(out.rows(), 2); // 1 and 2^53+1
    }

    #[test]
    fn null_keys_never_join() {
        let schema = Schema::new(vec![Field::nullable("k", DataType::Int64)]);
        let mut c = Column::empty(DataType::Int64);
        c.push_value(&Value::I64(1));
        c.push_value(&Value::Null);
        let probe = Table::new(schema.clone(), vec![c]);
        let mut b = Column::empty(DataType::Int64);
        b.push_value(&Value::I64(1));
        b.push_value(&Value::Null);
        let build = Table::new(
            Schema::new(vec![Field::nullable("bk", DataType::Int64)]),
            vec![b],
        );
        let jt = JoinTable::build(build, &[0]);
        let out = probe_join(&probe, &jt, &[0], JoinKind::Inner, &driver(), None);
        assert_eq!(out.rows(), 1); // only 1 = 1 joins; NULL ≠ NULL
    }

    /// A one-column table of `keys` plus a `payload` column holding the
    /// row number.
    fn keyed(name: &str, keys: Column, dtype: DataType) -> Table {
        let rows = keys.len() as i64;
        Table::new(
            Schema::new(vec![
                Field::nullable(name, dtype),
                Field::new(format!("{name}_row"), DataType::Int64),
            ]),
            vec![keys, Column::I64((0..rows).collect(), None)],
        )
    }

    /// Inner-join `probe` against `build` on column 0 and return the
    /// build-row payloads in output order.
    fn joined_build_rows(probe: &Table, build: Table) -> Vec<i64> {
        let jt = JoinTable::build(build, &[0]);
        let out = probe_join(probe, &jt, &[0], JoinKind::Inner, &driver(), None);
        (0..out.rows()).map(|r| out.value(r, 3).as_i64()).collect()
    }

    #[test]
    fn hasher_spreads_integer_valued_f64_keys_over_low_bits() {
        // hashbrown picks a bucket from the low bits of the hash; integer
        // f64s all have zero low mantissa bits.
        let low: HashSet<u64> = (0..4096)
            .map(|i| {
                let mut h = FxHasher::default();
                h.write_u64(canon_f64_bits(f64::from(i)));
                h.finish() & 0xfff
            })
            .collect();
        assert!(
            low.len() >= 2048,
            "{} distinct low-12-bit values",
            low.len()
        );
    }

    #[test]
    fn duplicate_build_keys_match_in_build_row_order() {
        let probe = keyed("p", Column::I64(vec![7, 3, 8], None), DataType::Int64);
        let keys = [7, 3, 7, 7, 3];
        let expected = vec![0, 2, 3, 1, 4];
        let flat = Column::I64(keys.to_vec(), None);
        assert_eq!(
            joined_build_rows(&probe, keyed("b", flat, DataType::Int64)),
            expected
        );
        let float = Column::F64(keys.iter().map(|&k| k as f64).collect(), None);
        assert_eq!(
            joined_build_rows(&probe, keyed("b", float, DataType::Float64)),
            expected
        );
        // The composite path (a String key) keeps the same order.
        let probe = keyed(
            "p",
            Column::Str(["7", "3", "8"].into_iter().collect(), None),
            DataType::Utf8,
        );
        let strs = Column::Str(keys.iter().map(|k| k.to_string()).collect(), None);
        assert_eq!(
            joined_build_rows(&probe, keyed("b", strs, DataType::Utf8)),
            expected
        );
    }

    #[test]
    fn int64_beyond_f64_range_matches_only_itself() {
        let big = (1i64 << 53) + 1;
        let probe = keyed(
            "p",
            Column::I64(vec![big, big - 1, big + 1], None),
            DataType::Int64,
        );
        // A build column holding 2^53 + 1 takes the composite path.
        let build = Column::I64(vec![big - 1, big, big + 1], None);
        assert_eq!(
            joined_build_rows(&probe, keyed("b", build, DataType::Int64)),
            vec![1, 0, 2]
        );
        // A flat (Float64) build: 2^53 + 1 must not match 2^53, the f64
        // it rounds to.
        let build = Column::F64(vec![(big - 1) as f64, (big + 1) as f64], None);
        assert_eq!(
            joined_build_rows(&probe, keyed("b", build, DataType::Float64)),
            vec![0, 1]
        );
    }

    #[test]
    fn null_probe_keys_under_outer_and_anti_joins() {
        let mut p = Column::empty(DataType::Int64);
        for v in [Value::I64(1), Value::Null, Value::I64(5)] {
            p.push_value(&v);
        }
        let probe = keyed("p", p, DataType::Int64);
        for flat in [true, false] {
            let mut b = Column::empty(DataType::Int64);
            b.push_value(&Value::I64(1));
            b.push_value(&Value::Null);
            if !flat {
                b.push_value(&Value::I64(i64::MAX)); // forces the composite path
            }
            let jt = JoinTable::build(keyed("b", b, DataType::Int64), &[0]);
            let outer = probe_join(&probe, &jt, &[0], JoinKind::LeftOuter, &driver(), None);
            let payloads: Vec<Value> = (0..outer.rows()).map(|r| outer.value(r, 3)).collect();
            assert_eq!(
                payloads,
                vec![Value::I64(0), Value::Null, Value::Null],
                "flat {flat}"
            );
            let anti = probe_join(&probe, &jt, &[0], JoinKind::LeftAnti, &driver(), None);
            let rows: Vec<i64> = (0..anti.rows())
                .map(|r| anti.value(r, 1).as_i64())
                .collect();
            assert_eq!(rows, vec![1, 2], "flat {flat}: NULL and 5 have no match");
        }
    }

    #[test]
    fn single_string_key_joins() {
        let probe = keyed(
            "p",
            Column::Str(["b", "z", "a"].into_iter().collect(), None),
            DataType::Utf8,
        );
        let build = Column::Str(["a", "b", "c"].into_iter().collect(), None);
        assert_eq!(
            joined_build_rows(&probe, keyed("b", build, DataType::Utf8)),
            vec![1, 0]
        );
    }

    #[test]
    fn distinct_keys_agree_between_flat_and_composite_index() {
        let keys = [5i64, 7, 7, 9, 5];
        let flat = JoinTable::build(
            keyed("b", Column::I64(keys.to_vec(), None), DataType::Int64),
            &[0],
        );
        let strs = Column::Str(keys.iter().map(|k| k.to_string()).collect(), None);
        let composite = JoinTable::build(keyed("b", strs, DataType::Utf8), &[0]);
        assert_eq!(flat.distinct_keys(), 3);
        assert_eq!(composite.distinct_keys(), 3);
        // Two key columns take the composite path too.
        let two = JoinTable::build(
            keyed("b", Column::I64(keys.to_vec(), None), DataType::Int64),
            &[0, 1],
        );
        assert_eq!(two.distinct_keys(), keys.len());
    }

    #[test]
    fn signed_zeros_form_one_group_and_one_distinct_value() {
        let t = Table::new(
            Schema::new(vec![
                Field::new("f", DataType::Float64),
                Field::new("s", DataType::Utf8),
            ]),
            vec![
                Column::F64(vec![-0.0, 0.0], None),
                Column::Str(["x", "x"].into_iter().collect(), None),
            ],
        );
        let count = [AggSpec::new(AggFunc::Count, lit(1), "cnt")];
        // One Float64 column (the flat path) and two columns (composite).
        for group_by in [&[0][..], &[0, 1]] {
            let out = aggregate(&t, group_by, &count, AggPhase::Single, &driver(), &[]);
            assert_eq!(out.rows(), 1, "group by {group_by:?}");
            assert_eq!(out.value(0, 0), Value::F64(0.0));
            assert_eq!(out.value(0, group_by.len()), Value::I64(2));
        }
        let distinct = [AggSpec::new(AggFunc::CountDistinct, col("f"), "d")];
        let out = aggregate(&t, &[], &distinct, AggPhase::Single, &driver(), &[]);
        assert_eq!(out.value(0, 0), Value::I64(1));
    }

    #[test]
    fn flat_group_by_matches_composite_groups() {
        let mut k = Column::empty(DataType::Int64);
        for v in [3, 1, 3, i64::MIN, 1, 3] {
            k.push_value(&Value::I64(v));
        }
        k.push_value(&Value::Null);
        k.push_value(&Value::Null);
        let rows = k.len();
        let t = Table::new(
            Schema::new(vec![
                Field::nullable("k", DataType::Int64),
                Field::new("row", DataType::Int64),
                Field::new("c", DataType::Utf8),
            ]),
            vec![
                k,
                Column::I64((0..rows as i64).collect(), None),
                Column::Str((0..rows).map(|_| "x").collect(), None),
            ],
        );
        let sum = [AggSpec::new(AggFunc::Sum, col("row"), "s")];
        let groups = |by: &[usize]| {
            let out = aggregate(&t, by, &sum, AggPhase::Single, &driver(), &[]);
            let mut rows: Vec<(Value, f64)> = (0..out.rows())
                .map(|r| (out.value(r, 0), out.value(r, by.len()).as_f64()))
                .collect();
            rows.sort_by(|a, b| value_cmp(&a.0, &b.0));
            rows
        };
        let flat = groups(&[0]);
        assert_eq!(
            flat,
            vec![
                (Value::I64(i64::MIN), 3.0),
                (Value::I64(1), 5.0),
                (Value::I64(3), 7.0),
                (Value::Null, 13.0),
            ]
        );
        // A constant second key column takes the composite path and must
        // form the same groups.
        assert_eq!(groups(&[0, 2]), flat);
    }

    #[test]
    fn grouped_aggregation() {
        let t = orders_like();
        let aggs = vec![
            AggSpec::new(AggFunc::Sum, col("v"), "total"),
            AggSpec::new(AggFunc::Count, lit(1), "cnt"),
            AggSpec::new(AggFunc::Min, col("k"), "lo"),
            AggSpec::new(AggFunc::Max, col("k"), "hi"),
            AggSpec::new(AggFunc::Avg, col("v"), "mean"),
        ];
        let out = aggregate(&t, &[1], &aggs, AggPhase::Single, &driver(), &[]);
        assert_eq!(out.rows(), 2);
        let g = out.schema().index_of("grp");
        for r in 0..2 {
            let name = out.value(r, g).as_str().to_string();
            let total = out.value(r, out.schema().index_of("total")).as_f64();
            let cnt = out.value(r, out.schema().index_of("cnt")).as_i64();
            let lo = out.value(r, out.schema().index_of("lo")).as_i64();
            assert_eq!(cnt, 100);
            if name == "even" {
                // sum of v (decimal /100) over even keys: sum(2i for i in 0..100) = 9900
                assert!((total - 9900.0).abs() < 1e-6, "{total}");
                assert_eq!(lo, 0);
            } else {
                assert!((total - 10000.0).abs() < 1e-6, "{total}");
                assert_eq!(lo, 1);
            }
        }
    }

    #[test]
    fn global_aggregate_on_empty_input_emits_one_row() {
        let t = Table::empty(orders_like().schema().clone());
        let aggs = vec![
            AggSpec::new(AggFunc::Count, lit(1), "cnt"),
            AggSpec::new(AggFunc::Sum, col("v"), "total"),
        ];
        let out = aggregate(&t, &[], &aggs, AggPhase::Single, &driver(), &[]);
        assert_eq!(out.rows(), 1);
        assert_eq!(out.value(0, 0), Value::I64(0));
        assert_eq!(out.value(0, 1), Value::Null); // SUM of nothing is NULL
    }

    #[test]
    fn partial_plus_final_equals_single() {
        let t = orders_like();
        let aggs = vec![
            AggSpec::new(AggFunc::Sum, col("v"), "total"),
            AggSpec::new(AggFunc::Avg, col("v"), "mean"),
            AggSpec::new(AggFunc::Count, lit(1), "cnt"),
        ];
        let single = aggregate(&t, &[1], &aggs, AggPhase::Single, &driver(), &[]);
        // Split the input as two nodes would see it, pre-aggregate each.
        let half1 = t.gather(&(0..100).collect::<Vec<_>>());
        let half2 = t.gather(&(100..200).collect::<Vec<_>>());
        let p1 = aggregate(&half1, &[1], &aggs, AggPhase::Partial, &driver(), &[]);
        let mut partials = aggregate(&half2, &[1], &aggs, AggPhase::Partial, &driver(), &[]);
        partials.append(&p1);
        let grp = partials.schema().index_of("grp");
        let fin = aggregate(&partials, &[grp], &aggs, AggPhase::Final, &driver(), &[]);
        let sorted_single = sort_table(&single, &[SortKey::asc("grp")], None);
        let sorted_fin = sort_table(&fin, &[SortKey::asc("grp")], None);
        assert_eq!(sorted_single.rows(), sorted_fin.rows());
        for r in 0..sorted_single.rows() {
            for c in 0..sorted_single.schema().len() {
                let a = sorted_single.value(r, c);
                let b = sorted_fin.value(r, c);
                match (&a, &b) {
                    (Value::F64(x), Value::F64(y)) => assert!((x - y).abs() < 1e-9),
                    _ => assert_eq!(a, b),
                }
            }
        }
    }

    #[test]
    fn count_distinct() {
        let t = orders_like();
        let aggs = vec![AggSpec::new(AggFunc::CountDistinct, col("grp"), "groups")];
        let out = aggregate(&t, &[], &aggs, AggPhase::Single, &driver(), &[]);
        assert_eq!(out.value(0, 0), Value::I64(2));
    }

    #[test]
    #[should_panic(expected = "cannot be pre-aggregated")]
    fn count_distinct_rejects_partial_phase() {
        let t = orders_like();
        let aggs = vec![AggSpec::new(AggFunc::CountDistinct, col("k"), "d")];
        aggregate(&t, &[], &aggs, AggPhase::Partial, &driver(), &[]);
    }

    #[test]
    fn sort_orders_and_limits() {
        let t = orders_like();
        let out = sort_table(&t, &[SortKey::desc("k")], Some(3));
        assert_eq!(out.rows(), 3);
        assert_eq!(out.value(0, 0), Value::I64(199));
        assert_eq!(out.value(2, 0), Value::I64(197));
        let out = sort_table(&t, &[SortKey::asc("grp"), SortKey::desc("k")], Some(2));
        assert_eq!(out.value(0, 1), Value::Str("even".into()));
        assert_eq!(out.value(0, 0), Value::I64(198));
    }

    #[test]
    fn value_cmp_total_order() {
        use std::cmp::Ordering::*;
        assert_eq!(value_cmp(&Value::I64(1), &Value::I64(2)), Less);
        assert_eq!(value_cmp(&Value::F64(2.0), &Value::I64(1)), Greater);
        assert_eq!(value_cmp(&Value::Null, &Value::I64(1)), Greater); // NULLs last
        assert_eq!(
            value_cmp(&Value::Str("a".into()), &Value::Str("b".into())),
            Less
        );
    }
}
