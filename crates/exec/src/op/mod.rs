//! Physical operator implementations.
//!
//! The join family lives in three modules — [`nl`], [`hash`], [`merge`] —
//! each implementing **all five** [`crate::JoinKind`]s, demonstrating the
//! paper's observation that the nest join is "a simple modification of any
//! common join implementation method" (Section 6). Grouping operators are
//! in [`group`]. These are the materialized *kernels*; the Volcano-style
//! streaming operator tree that drives them batch-at-a-time is in
//! [`operator`].

pub mod apply;
pub mod exchange;
pub mod group;
pub mod hash;
pub mod merge;
pub mod nl;
pub mod operator;
pub mod spill;

use tmql_algebra::Env;
use tmql_model::{Record, Result, Value};

/// Deduplicate rows preserving first-occurrence order (TM set semantics).
pub fn dedup(rows: Vec<Record>) -> Vec<Record> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(rows.len());
    for r in rows {
        if seen.insert(r.clone()) {
            out.push(r);
        }
    }
    out
}

/// Evaluate a list of key expressions for a row pushed on `env`.
/// Returns `None` if any key is NULL (NULL never equi-joins).
pub fn eval_keys(keys: &[tmql_algebra::ScalarExpr], env: &mut Env) -> Result<Option<Vec<Value>>> {
    let mut out = Vec::with_capacity(keys.len());
    for k in keys {
        let v = tmql_algebra::eval(k, env)?;
        if v.is_null() {
            return Ok(None);
        }
        out.push(v);
    }
    Ok(Some(out))
}

/// Push a row's bindings, run `f`, then restore `env` to its entry depth
/// (on success and on error alike).
pub fn with_row<T>(
    env: &mut Env,
    row: &Record,
    f: impl FnOnce(&mut Env) -> Result<T>,
) -> Result<T> {
    let depth = env.len();
    env.push_row(row);
    let r = f(env);
    env.truncate(depth);
    r
}

/// NULL-extend a row with the given variables (outerjoin dangling side).
pub fn null_extend(row: &Record, vars: &[String]) -> Result<Record> {
    let mut out = row.clone();
    for v in vars {
        out.push(v.clone(), Value::Null)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmql_algebra::ScalarExpr as E;

    #[test]
    fn dedup_keeps_first_occurrence_order() {
        let a = Record::new([("x".to_string(), Value::Int(1))]).unwrap();
        let b = Record::new([("x".to_string(), Value::Int(2))]).unwrap();
        let out = dedup(vec![b.clone(), a.clone(), b.clone()]);
        assert_eq!(out, vec![b, a]);
    }

    #[test]
    fn eval_keys_rejects_null() {
        let mut env = Env::new();
        env.push("x", Value::Null);
        let keys = vec![E::var("x")];
        assert_eq!(eval_keys(&keys, &mut env).unwrap(), None);
        env.push("x", Value::Int(3));
        assert_eq!(
            eval_keys(&keys, &mut env).unwrap(),
            Some(vec![Value::Int(3)])
        );
    }

    #[test]
    fn with_row_restores_env() {
        let mut env = Env::new();
        let row = Record::new([("a".to_string(), Value::Int(1))]).unwrap();
        let v = with_row(&mut env, &row, |e| e.get("a").cloned()).unwrap();
        assert_eq!(v, Value::Int(1));
        assert!(env.is_empty());
        // An error path that left extra bindings behind is restored too.
        let err = with_row(&mut env, &row, |e| {
            e.push("stray", Value::Int(2));
            e.get("missing").cloned()
        });
        assert!(err.is_err());
        assert!(env.is_empty());
    }

    #[test]
    fn null_extend_binds_nulls() {
        let row = Record::new([("x".to_string(), Value::Int(1))]).unwrap();
        let out = null_extend(&row, &["y".to_string(), "z".to_string()]).unwrap();
        assert!(out.get("y").unwrap().is_null());
        assert!(out.get("z").unwrap().is_null());
    }
}
