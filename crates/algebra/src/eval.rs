//! Evaluation of scalar expressions against variable environments.

use std::collections::BTreeSet;

use tmql_model::{setops, ModelError, Record, Result, Value};

use crate::scalar::{AggFn, ArithOp, CmpOp, Quantifier, ScalarExpr, SetBinOp, SetCmpOp};

/// A variable environment: an ordered stack of bindings. Later bindings
/// shadow earlier ones (inner scopes push on top). Rows flowing through the
/// algebra are [`Record`]s of bindings, so an env is usually built from one
/// or two rows plus quantifier bindings.
#[derive(Debug, Clone, Default)]
pub struct Env {
    bindings: Vec<(String, Value)>,
}

impl Env {
    /// Empty environment.
    pub fn new() -> Env {
        Env::default()
    }

    /// Environment holding the bindings of one row.
    pub fn from_row(row: &Record) -> Env {
        Env {
            bindings: row
                .iter()
                .map(|(l, v)| (l.to_string(), v.clone()))
                .collect(),
        }
    }

    /// Push a binding (shadows any previous binding of the same name).
    pub fn push(&mut self, name: impl Into<String>, value: Value) {
        self.bindings.push((name.into(), value));
    }

    /// Pop the most recent binding.
    pub fn pop(&mut self) {
        self.bindings.pop();
    }

    /// Push all bindings of a row (used by `Apply` to expose outer
    /// variables to the inner plan).
    pub fn push_row(&mut self, row: &Record) {
        for (l, v) in row.iter() {
            self.push(l, v.clone());
        }
    }

    /// Drop every binding above the first `len`: restores a scope to the
    /// depth it had on entry (see [`Env::len`]).
    pub fn truncate(&mut self, len: usize) {
        self.bindings.truncate(len);
    }

    /// Look up a variable, innermost binding first.
    pub fn get(&self, name: &str) -> Result<&Value> {
        self.bindings
            .iter()
            .rev()
            .find(|(l, _)| l == name)
            .map(|(_, v)| v)
            .ok_or_else(|| ModelError::SchemaError(format!("unbound variable `{name}`")))
    }

    /// Number of bindings currently on the stack.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// True iff no bindings.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }
}

/// Evaluate an expression to a value.
pub fn eval(expr: &ScalarExpr, env: &mut Env) -> Result<Value> {
    match expr {
        ScalarExpr::Lit(v) => Ok(v.clone()),
        ScalarExpr::Var(name) => env.get(name).cloned(),
        ScalarExpr::Field(e, label) => {
            let v = eval(e, env)?;
            // NULL propagates through field access (relational baseline:
            // NULL-extended outerjoin tuples have no fields).
            if v.is_null() {
                return Ok(Value::Null);
            }
            v.as_tuple()?.get(label).cloned()
        }
        ScalarExpr::Cmp(op, a, b) => {
            let (va, vb) = (eval(a, env)?, eval(b, env)?);
            Ok(Value::Bool(eval_cmp(*op, &va, &vb)))
        }
        ScalarExpr::Arith(op, a, b) => {
            let (va, vb) = (eval(a, env)?, eval(b, env)?);
            if va.is_null() || vb.is_null() {
                return Ok(Value::Null);
            }
            match op {
                ArithOp::Add => va.add(&vb),
                ArithOp::Sub => va.sub(&vb),
                ArithOp::Mul => va.mul(&vb),
                ArithOp::Div => va.div(&vb),
            }
        }
        ScalarExpr::And(a, b) => {
            // Short-circuit; two-valued logic (NULL comparisons are false).
            if !eval(a, env)?.as_bool()? {
                return Ok(Value::Bool(false));
            }
            Ok(Value::Bool(eval(b, env)?.as_bool()?))
        }
        ScalarExpr::Or(a, b) => {
            if eval(a, env)?.as_bool()? {
                return Ok(Value::Bool(true));
            }
            Ok(Value::Bool(eval(b, env)?.as_bool()?))
        }
        ScalarExpr::Not(e) => Ok(Value::Bool(!eval(e, env)?.as_bool()?)),
        ScalarExpr::SetBin(op, a, b) => {
            let (va, vb) = (eval(a, env)?, eval(b, env)?);
            match op {
                SetBinOp::Union => setops::union(&va, &vb),
                SetBinOp::Intersect => setops::intersect(&va, &vb),
                SetBinOp::Difference => setops::difference(&va, &vb),
            }
        }
        ScalarExpr::SetCmp(op, a, b) => {
            let (va, vb) = (eval(a, env)?, eval(b, env)?);
            Ok(Value::Bool(eval_set_cmp(*op, &va, &vb)?))
        }
        ScalarExpr::Agg(f, e) => {
            let v = eval(e, env)?;
            eval_agg(*f, &v)
        }
        ScalarExpr::Tuple(fields) => {
            let mut rec = Record::empty();
            for (l, e) in fields {
                rec.push(l.clone(), eval(e, env)?)?;
            }
            Ok(Value::Tuple(rec))
        }
        ScalarExpr::SetLit(items) => {
            let mut out = BTreeSet::new();
            for e in items {
                out.insert(eval(e, env)?);
            }
            Ok(Value::Set(out))
        }
        ScalarExpr::Quant { q, var, over, pred } => {
            let set = eval(over, env)?;
            // ∃ stops at the first true, ∀ at the first false; the binding
            // is popped before any error propagates.
            let exists = matches!(q, Quantifier::Exists);
            for item in set.as_set()? {
                env.push(var.clone(), item.clone());
                let hit = eval_predicate(pred, env);
                env.pop();
                if hit? == exists {
                    return Ok(Value::Bool(exists));
                }
            }
            Ok(Value::Bool(!exists))
        }
        ScalarExpr::Unnest(e) => {
            let v = eval(e, env)?;
            setops::unnest(&v)
        }
        ScalarExpr::IsNull(e) => Ok(Value::Bool(eval(e, env)?.is_null())),
    }
}

/// Evaluate a predicate to a boolean.
pub fn eval_predicate(expr: &ScalarExpr, env: &mut Env) -> Result<bool> {
    eval(expr, env)?.as_bool()
}

fn eval_cmp(op: CmpOp, a: &Value, b: &Value) -> bool {
    use std::cmp::Ordering::*;
    match op {
        CmpOp::Eq => a.sql_eq(b),
        CmpOp::Ne => !a.is_null() && !b.is_null() && !a.sql_eq(b),
        CmpOp::Lt => matches!(a.sql_cmp(b), Some(Less)),
        CmpOp::Le => matches!(a.sql_cmp(b), Some(Less | Equal)),
        CmpOp::Gt => matches!(a.sql_cmp(b), Some(Greater)),
        CmpOp::Ge => matches!(a.sql_cmp(b), Some(Greater | Equal)),
    }
}

fn eval_set_cmp(op: SetCmpOp, a: &Value, b: &Value) -> Result<bool> {
    match op {
        SetCmpOp::In => setops::member(a, b),
        SetCmpOp::NotIn => Ok(!setops::member(a, b)?),
        SetCmpOp::SubsetEq => setops::subseteq(a, b),
        SetCmpOp::Subset => setops::subset(a, b),
        SetCmpOp::SupersetEq => setops::superseteq(a, b),
        SetCmpOp::Superset => setops::superset(a, b),
        SetCmpOp::SetEq => Ok(a.as_set()? == b.as_set()?),
        SetCmpOp::SetNe => Ok(a.as_set()? != b.as_set()?),
        SetCmpOp::Disjoint => setops::disjoint(a, b),
        SetCmpOp::Intersects => Ok(!setops::disjoint(a, b)?),
    }
}

/// Evaluate an aggregate over a set value.
///
/// `COUNT(∅) = 0`; the other aggregates return NULL on the empty set —
/// exactly the asymmetry that makes COUNT the famous bug ([Ganski & Wong
/// 87]): a lost dangling tuple is indistinguishable from NULL for
/// SUM/MIN/MAX/AVG but not for COUNT.
pub fn eval_agg(f: AggFn, v: &Value) -> Result<Value> {
    match f {
        AggFn::Count => Ok(Value::Int(setops::count(v)?)),
        AggFn::Sum => setops::aggregate::sum(v),
        AggFn::Min => Ok(setops::aggregate::min(v)?.unwrap_or(Value::Null)),
        AggFn::Max => Ok(setops::aggregate::max(v)?.unwrap_or(Value::Null)),
        AggFn::Avg => Ok(setops::aggregate::avg(v)?.unwrap_or(Value::Null)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_xy() -> Env {
        let mut env = Env::new();
        env.push(
            "x",
            Value::tuple([
                ("a", Value::Int(2)),
                ("b", Value::set([Value::Int(1), Value::Int(2)])),
            ]),
        );
        env.push("y", Value::tuple([("c", Value::Int(5))]));
        env
    }

    #[test]
    fn var_and_field() {
        let mut env = env_xy();
        let v = eval(&ScalarExpr::path("x", &["a"]), &mut env).unwrap();
        assert_eq!(v, Value::Int(2));
        assert!(eval(&ScalarExpr::path("x", &["zz"]), &mut env).is_err());
        assert!(eval(&ScalarExpr::var("nope"), &mut env).is_err());
    }

    #[test]
    fn shadowing_lookup() {
        let mut env = Env::new();
        env.push("v", Value::Int(1));
        env.push("v", Value::Int(2));
        assert_eq!(env.get("v").unwrap(), &Value::Int(2));
        env.pop();
        assert_eq!(env.get("v").unwrap(), &Value::Int(1));
    }

    #[test]
    fn comparisons_and_null() {
        let mut env = Env::new();
        let t = eval_predicate(
            &ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::lit(1i64), ScalarExpr::lit(2i64)),
            &mut env,
        )
        .unwrap();
        assert!(t);
        // NULL = NULL is false; NULL ≠ 1 is false (unknown → false).
        let e = ScalarExpr::eq(ScalarExpr::Lit(Value::Null), ScalarExpr::Lit(Value::Null));
        assert!(!eval_predicate(&e, &mut env).unwrap());
        let e = ScalarExpr::cmp(
            CmpOp::Ne,
            ScalarExpr::Lit(Value::Null),
            ScalarExpr::lit(1i64),
        );
        assert!(!eval_predicate(&e, &mut env).unwrap());
    }

    #[test]
    fn null_propagates_through_field_access() {
        let mut env = Env::new();
        env.push("y", Value::Null);
        let v = eval(&ScalarExpr::path("y", &["c"]), &mut env).unwrap();
        assert!(v.is_null());
        let is_null = ScalarExpr::IsNull(Box::new(ScalarExpr::path("y", &["c"])));
        assert!(eval_predicate(&is_null, &mut env).unwrap());
    }

    #[test]
    fn quantifiers() {
        let mut env = env_xy();
        // ∃v ∈ x.b (v = x.a) — 2 ∈ {1,2}
        let e = ScalarExpr::quant(
            Quantifier::Exists,
            "v",
            ScalarExpr::path("x", &["b"]),
            ScalarExpr::eq(ScalarExpr::var("v"), ScalarExpr::path("x", &["a"])),
        );
        assert!(eval_predicate(&e, &mut env).unwrap());
        // ∀v ∈ x.b (v < 2) — false since 2 ∈ x.b
        let e = ScalarExpr::quant(
            Quantifier::Forall,
            "v",
            ScalarExpr::path("x", &["b"]),
            ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::var("v"), ScalarExpr::lit(2i64)),
        );
        assert!(!eval_predicate(&e, &mut env).unwrap());
        // Quantifier over empty set: ∃ false, ∀ true.
        let empty = ScalarExpr::Lit(Value::empty_set());
        let ex = ScalarExpr::quant(
            Quantifier::Exists,
            "v",
            empty.clone(),
            ScalarExpr::lit(true),
        );
        assert!(!eval_predicate(&ex, &mut env).unwrap());
        let fa = ScalarExpr::quant(Quantifier::Forall, "v", empty, ScalarExpr::lit(false));
        assert!(eval_predicate(&fa, &mut env).unwrap());
    }

    #[test]
    fn env_is_restored_after_quantifier() {
        let mut env = env_xy();
        let depth = env.len();
        let e = ScalarExpr::quant(
            Quantifier::Exists,
            "v",
            ScalarExpr::path("x", &["b"]),
            ScalarExpr::lit(false),
        );
        let _ = eval_predicate(&e, &mut env).unwrap();
        assert_eq!(env.len(), depth);
    }

    #[test]
    fn aggregates_count_vs_others_on_empty() {
        assert_eq!(
            eval_agg(AggFn::Count, &Value::empty_set()).unwrap(),
            Value::Int(0)
        );
        assert_eq!(
            eval_agg(AggFn::Sum, &Value::empty_set()).unwrap(),
            Value::Int(0)
        );
        assert!(eval_agg(AggFn::Min, &Value::empty_set()).unwrap().is_null());
        assert!(eval_agg(AggFn::Max, &Value::empty_set()).unwrap().is_null());
        assert!(eval_agg(AggFn::Avg, &Value::empty_set()).unwrap().is_null());
    }

    #[test]
    fn tuple_and_set_construction() {
        let mut env = env_xy();
        let e = ScalarExpr::Tuple(vec![
            ("a".into(), ScalarExpr::path("x", &["a"])),
            ("c".into(), ScalarExpr::path("y", &["c"])),
        ]);
        let v = eval(&e, &mut env).unwrap();
        assert_eq!(
            v,
            Value::tuple([("a", Value::Int(2)), ("c", Value::Int(5))])
        );
        let s = ScalarExpr::SetLit(vec![ScalarExpr::lit(1i64), ScalarExpr::lit(1i64)]);
        assert_eq!(eval(&s, &mut env).unwrap().as_set().unwrap().len(), 1);
    }

    #[test]
    fn arithmetic_with_null() {
        let mut env = Env::new();
        let e = ScalarExpr::Arith(
            ArithOp::Add,
            Box::new(ScalarExpr::Lit(Value::Null)),
            Box::new(ScalarExpr::lit(1i64)),
        );
        assert!(eval(&e, &mut env).unwrap().is_null());
    }

    #[test]
    fn short_circuit_and() {
        let mut env = Env::new();
        // Second conjunct would error (unbound var) if evaluated.
        let e = ScalarExpr::and(ScalarExpr::lit(false), ScalarExpr::var("boom"));
        assert!(!eval_predicate(&e, &mut env).unwrap());
        let e = ScalarExpr::or(ScalarExpr::lit(true), ScalarExpr::var("boom"));
        assert!(eval_predicate(&e, &mut env).unwrap());
    }

    #[test]
    fn quantifier_error_leaves_env_balanced() {
        // `EXISTS v IN s : v.a = 1` with `s = {1}`: `v.a` on an integer
        // fails, and the quantifier's binding must not outlive the error.
        let mut env = Env::new();
        env.push("s", Value::set([Value::Int(1)]));
        for q in [Quantifier::Exists, Quantifier::Forall] {
            let e = ScalarExpr::quant(
                q,
                "v",
                ScalarExpr::var("s"),
                ScalarExpr::eq(ScalarExpr::path("v", &["a"]), ScalarExpr::lit(1i64)),
            );
            assert!(eval(&e, &mut env).is_err());
            assert_eq!(env.len(), 1, "{q:?}");
        }
    }
}
