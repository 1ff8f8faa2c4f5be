//! A single-threaded reference interpreter over [`LogicalQuery`].
//!
//! It evaluates a logical query directly against the generated
//! [`TpchDb`] tables, sharing nothing with the distributed engine but the
//! storage types and the expression tree walker (`expr::eval`): no
//! planner, no physical operators, no exchanges, no compiled programs and
//! no engine hash tables. Joins index the build side in a std `HashMap`
//! (SipHash) keyed by value, aggregates group in a `BTreeMap`, and sorts
//! compare rows directly. A bug in a shared engine operator therefore
//! shows up as a disagreement with this interpreter instead of passing
//! on both sides of a comparison.
//!
//! Semantics follow the engine's documented rules:
//! * CTEs are materialized in registration order; one that references a
//!   parameter waits until the scalar stage binding it has run.
//! * Every stage but the last binds its first row as parameters, Decimal
//!   values promoted to floats.
//! * Bare column projections pass through raw (Decimal stays fixed-point).
//! * Join keys compare by numeric value across Int64, Float64 and Decimal;
//!   NULL keys never match.
//! * A global aggregate over empty input yields one row.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};

use hsqp::engine::expr::{eval, Expr};
use hsqp::engine::logical::{LogicalPlan, LogicalQuery};
use hsqp::engine::plan::{AggFunc, AggSpec, JoinKind, MapExpr, SortKey};
use hsqp::storage::{decimal_to_f64, Column, DataType, Field, Schema, Table, Value};
use hsqp::tpch::TpchDb;

/// Evaluate `query` against `db` and return its result table.
///
/// Fails when a scalar stage returns no rows (there is nothing to bind).
pub fn run(db: &TpchDb, query: &LogicalQuery) -> Result<Table, String> {
    let mut cx = Interpreter {
        db,
        ctes: HashMap::new(),
        params: Vec::new(),
    };
    let (result, scalar) = query
        .stages()
        .split_last()
        .ok_or("query has no result stage")?;
    for stage in scalar {
        cx.materialize_ready(query);
        let table = cx.eval(stage);
        if table.rows() == 0 {
            return Err("parameter stage produced no rows".into());
        }
        for (c, field) in table.schema().fields().iter().enumerate() {
            cx.params.push(match (field.dtype, table.value(0, c)) {
                (DataType::Decimal, Value::I64(cents)) => Value::F64(decimal_to_f64(cents)),
                (_, v) => v,
            });
        }
    }
    cx.materialize_ready(query);
    Ok(cx.eval(result))
}

struct Interpreter<'a> {
    db: &'a TpchDb,
    ctes: HashMap<String, Table>,
    params: Vec<Value>,
}

impl Interpreter<'_> {
    /// Materialize, in registration order, every CTE whose parameters are
    /// bound; stop at the first one still waiting for a parameter.
    fn materialize_ready(&mut self, query: &LogicalQuery) {
        for (name, plan) in query.ctes() {
            if self.ctes.contains_key(name) {
                continue;
            }
            if plan.max_param().is_some_and(|m| m >= self.params.len()) {
                break;
            }
            let table = self.eval(plan);
            self.ctes.insert(name.clone(), table);
        }
    }

    fn eval(&self, plan: &LogicalPlan) -> Table {
        match plan {
            LogicalPlan::Scan { table } => self.db.table(*table).clone(),
            LogicalPlan::CteScan { name } => self
                .ctes
                .get(name)
                .unwrap_or_else(|| panic!("CTE {name:?} is not materialized"))
                .clone(),
            LogicalPlan::Filter { input, predicate } => {
                let t = self.eval(input);
                let mask = eval(predicate, &t, 0..t.rows(), &self.params).into_mask();
                let keep: Vec<usize> = (0..t.rows()).filter(|&r| mask[r]).collect();
                t.gather(&keep)
            }
            LogicalPlan::Project { input, outputs } => {
                project(&self.eval(input), outputs, &self.params)
            }
            LogicalPlan::Join {
                left,
                right,
                left_keys,
                right_keys,
                kind,
                ..
            } => join(
                &self.eval(left),
                &self.eval(right),
                left_keys,
                right_keys,
                *kind,
            ),
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => aggregate(&self.eval(input), group_by, aggs, &self.params),
            LogicalPlan::Sort { input, keys } => sort(&self.eval(input), keys),
            LogicalPlan::Limit { input, n } => {
                let t = self.eval(input);
                let keep: Vec<usize> = (0..t.rows().min(*n)).collect();
                t.gather(&keep)
            }
        }
    }
}

fn project(t: &Table, outputs: &[MapExpr], params: &[Value]) -> Table {
    let mut fields = Vec::new();
    let mut columns = Vec::new();
    for o in outputs {
        let (column, dtype) = match (&o.expr, o.dtype) {
            (Expr::Col(name), None) => {
                let i = t.schema().index_of(name);
                (t.column(i).clone(), t.schema().fields()[i].dtype)
            }
            (expr, dtype) => {
                let (column, inferred) = eval(expr, t, 0..t.rows(), params).into_column();
                (column, dtype.unwrap_or(inferred))
            }
        };
        fields.push(Field::nullable(o.name.clone(), dtype));
        columns.push(column);
    }
    Table::new(Schema::new(fields), columns)
}

/// A join-key component, compared by value: every number that an f64
/// holds exactly is keyed by its f64 bits (−0.0 folded onto +0.0), so
/// Int64, Float64 and Decimal keys of equal value match.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum JoinKey {
    Num(u64),
    Int(i64),
    Str(String),
}

fn float_bits(x: f64) -> u64 {
    if x == 0.0 {
        0
    } else {
        x.to_bits()
    }
}

/// The key of row `row` over `cols`, or `None` when any part is NULL.
fn join_key(t: &Table, cols: &[usize], row: usize) -> Option<Vec<JoinKey>> {
    cols.iter()
        .map(|&c| {
            Some(match (t.schema().fields()[c].dtype, t.value(row, c)) {
                (_, Value::Null) => return None,
                (DataType::Decimal, Value::I64(cents)) => {
                    JoinKey::Num(float_bits(decimal_to_f64(cents)))
                }
                (_, Value::I64(x)) => {
                    let f = x as f64;
                    if f as i128 == i128::from(x) {
                        JoinKey::Num(float_bits(f))
                    } else {
                        JoinKey::Int(x)
                    }
                }
                (_, Value::F64(x)) => JoinKey::Num(float_bits(x)),
                (_, Value::Str(s)) => JoinKey::Str(s),
            })
        })
        .collect()
}

fn join(
    probe: &Table,
    build: &Table,
    probe_keys: &[String],
    build_keys: &[String],
    kind: JoinKind,
) -> Table {
    let index_of = |t: &Table, names: &[String]| -> Vec<usize> {
        names.iter().map(|n| t.schema().index_of(n)).collect()
    };
    let (pk, bk) = (index_of(probe, probe_keys), index_of(build, build_keys));
    let mut index: HashMap<Vec<JoinKey>, Vec<usize>> = HashMap::new();
    for row in 0..build.rows() {
        if let Some(key) = join_key(build, &bk, row) {
            index.entry(key).or_default().push(row);
        }
    }
    let mut probe_rows = Vec::new();
    let mut build_rows: Vec<Option<usize>> = Vec::new();
    for row in 0..probe.rows() {
        let matches = join_key(probe, &pk, row)
            .and_then(|k| index.get(&k))
            .map_or(&[][..], Vec::as_slice);
        match kind {
            JoinKind::Inner | JoinKind::LeftOuter => {
                for &b in matches {
                    probe_rows.push(row);
                    build_rows.push(Some(b));
                }
                if matches.is_empty() && kind == JoinKind::LeftOuter {
                    probe_rows.push(row);
                    build_rows.push(None);
                }
            }
            JoinKind::LeftSemi if !matches.is_empty() => probe_rows.push(row),
            JoinKind::LeftAnti if matches.is_empty() => probe_rows.push(row),
            JoinKind::LeftSemi | JoinKind::LeftAnti => {}
        }
    }
    let left = probe.gather(&probe_rows);
    if matches!(kind, JoinKind::LeftSemi | JoinKind::LeftAnti) {
        return left;
    }
    let mut fields = left.schema().fields().to_vec();
    let mut columns = left.columns().to_vec();
    for (c, f) in build.schema().fields().iter().enumerate() {
        let mut field = f.clone();
        field.nullable |= kind == JoinKind::LeftOuter;
        fields.push(field);
        let mut column = Column::empty(f.dtype);
        for b in &build_rows {
            column.push_value(&b.map_or(Value::Null, |b| build.value(b, c)));
        }
        columns.push(column);
    }
    Table::new(Schema::new(fields), columns)
}

/// A group-by (and `count(distinct)`) value: integers, dates and Decimal
/// cents by their integer, floats by their bits (−0.0 folded onto +0.0),
/// NULLs in one group.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum GroupVal {
    Null,
    Int(i64),
    Float(u64),
    Str(String),
}

impl GroupVal {
    fn of(v: Value) -> Self {
        match v {
            Value::Null => GroupVal::Null,
            Value::I64(x) => GroupVal::Int(x),
            Value::F64(x) => GroupVal::Float(float_bits(x)),
            Value::Str(s) => GroupVal::Str(s),
        }
    }

    fn value(&self) -> Value {
        match self {
            GroupVal::Null => Value::Null,
            GroupVal::Int(x) => Value::I64(*x),
            GroupVal::Float(bits) => Value::F64(f64::from_bits(*bits)),
            GroupVal::Str(s) => Value::Str(s.clone()),
        }
    }
}

/// One aggregate's running state over the non-NULL inputs of a group.
#[derive(Debug, Clone)]
enum State {
    Sum(Option<f64>),
    Count(i64),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg(f64, i64),
    Distinct(BTreeSet<GroupVal>),
}

impl State {
    fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Sum => State::Sum(None),
            AggFunc::Count => State::Count(0),
            AggFunc::Min => State::Min(None),
            AggFunc::Max => State::Max(None),
            AggFunc::Avg => State::Avg(0.0, 0),
            AggFunc::CountDistinct => State::Distinct(BTreeSet::new()),
        }
    }

    fn update(&mut self, v: Value) {
        if v == Value::Null {
            return;
        }
        match self {
            State::Sum(sum) => *sum = Some(sum.unwrap_or(0.0) + number(&v)),
            State::Count(n) => *n += 1,
            State::Min(cur) => {
                if cur
                    .as_ref()
                    .is_none_or(|c| compare(&v, c) == Ordering::Less)
                {
                    *cur = Some(v);
                }
            }
            State::Max(cur) => {
                if cur
                    .as_ref()
                    .is_none_or(|c| compare(c, &v) == Ordering::Less)
                {
                    *cur = Some(v);
                }
            }
            State::Avg(sum, n) => {
                *sum += number(&v);
                *n += 1;
            }
            State::Distinct(set) => {
                set.insert(GroupVal::of(v));
            }
        }
    }

    fn finish(self) -> Value {
        match self {
            State::Sum(sum) => sum.map_or(Value::Null, Value::F64),
            State::Count(n) => Value::I64(n),
            State::Min(v) | State::Max(v) => v.unwrap_or(Value::Null),
            State::Avg(_, 0) => Value::Null,
            State::Avg(sum, n) => Value::F64(sum / n as f64),
            State::Distinct(set) => Value::I64(set.len() as i64),
        }
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::I64(x) => *x as f64,
        Value::F64(x) => *x,
        other => panic!("cannot aggregate {other:?} numerically"),
    }
}

/// Row order for MIN/MAX and sorting: NULL last, integers and strings by
/// value, mixed numerics as floats.
fn compare(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Null, _) => Ordering::Greater,
        (_, Value::Null) => Ordering::Less,
        (Value::I64(x), Value::I64(y)) => x.cmp(y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        _ => number(a).partial_cmp(&number(b)).unwrap_or(Ordering::Equal),
    }
}

fn aggregate(t: &Table, group_by: &[String], aggs: &[AggSpec], params: &[Value]) -> Table {
    let group_cols: Vec<usize> = group_by.iter().map(|g| t.schema().index_of(g)).collect();
    let inputs: Vec<_> = aggs
        .iter()
        .map(|a| eval(&a.expr, t, 0..t.rows(), params))
        .collect();
    let fresh = || -> Vec<State> { aggs.iter().map(|a| State::new(a.func)).collect() };
    let mut groups: BTreeMap<Vec<GroupVal>, Vec<State>> = BTreeMap::new();
    for row in 0..t.rows() {
        let key = group_cols
            .iter()
            .map(|&c| GroupVal::of(t.value(row, c)))
            .collect();
        let states = groups.entry(key).or_insert_with(fresh);
        for (state, input) in states.iter_mut().zip(&inputs) {
            state.update(input.value(row));
        }
    }
    if groups.is_empty() && group_by.is_empty() {
        groups.insert(Vec::new(), fresh());
    }

    let mut fields: Vec<Field> = group_cols
        .iter()
        .map(|&c| t.schema().fields()[c].clone())
        .collect();
    for a in aggs {
        fields.push(match a.func {
            AggFunc::Sum | AggFunc::Avg => Field::nullable(a.name.clone(), DataType::Float64),
            AggFunc::Count | AggFunc::CountDistinct => Field::new(a.name.clone(), DataType::Int64),
            AggFunc::Min | AggFunc::Max => {
                let dtype = eval(&a.expr, t, 0..0, params).into_column().1;
                Field::nullable(a.name.clone(), dtype)
            }
        });
    }
    let mut columns: Vec<Column> = fields.iter().map(|f| Column::empty(f.dtype)).collect();
    for (key, states) in groups {
        let values = key
            .iter()
            .map(GroupVal::value)
            .chain(states.into_iter().map(State::finish));
        for (column, v) in columns.iter_mut().zip(values) {
            column.push_value(&v);
        }
    }
    Table::new(Schema::new(fields), columns)
}

fn sort(t: &Table, keys: &[SortKey]) -> Table {
    let cols: Vec<(usize, bool)> = keys
        .iter()
        .map(|k| (t.schema().index_of(&k.column), k.desc))
        .collect();
    let mut order: Vec<usize> = (0..t.rows()).collect();
    order.sort_by(|&a, &b| {
        cols.iter()
            .map(|&(c, desc)| {
                let o = compare(&t.value(a, c), &t.value(b, c));
                if desc {
                    o.reverse()
                } else {
                    o
                }
            })
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    t.gather(&order)
}
