//! Lowering logical plans to physical plans.
//!
//! The planner's one interesting job is the paper's motivation in
//! Section 2: once a nested query has been rewritten into a join query,
//! "the optimizer can choose the most suitable join execution method". For
//! every member of the join family it:
//!
//! 1. splits the predicate into conjuncts,
//! 2. extracts equi-key pairs `left-expr = right-expr` whose sides each
//!    reference only one operand's variables,
//! 3. picks nested-loop / hash / sort-merge per the [`ExecConfig`] (under
//!    [`JoinAlgo::Auto`]: an index nested-loop join where the cost model
//!    favours it, else hash on equi-keys, else nested-loop), keeping
//!    non-equi conjuncts as a residual predicate.
//!
//! The produced [`PhysPlan`] is a description only: the streaming
//! [`crate::op::operator::build`] instantiates it as an operator tree that
//! borrows the plan's expressions, so lowering once and executing many
//! times (as the benchmarks do) never re-clones the plan.

use std::collections::BTreeSet;

use tmql_algebra::{Plan, ScalarExpr};
use tmql_model::Result;
use tmql_storage::Catalog;

use crate::config::{ExecConfig, JoinAlgo};
use crate::cost;
use crate::physical::{JoinKind, PhysPlan};

/// Extracted equi-join structure.
#[derive(Debug, Clone, PartialEq)]
pub struct EquiSplit {
    /// Key expressions over the left operand's variables.
    pub left_keys: Vec<ScalarExpr>,
    /// Matching key expressions over the right operand's variables.
    pub right_keys: Vec<ScalarExpr>,
    /// Conjunction of the remaining conjuncts (None = nothing left).
    pub residual: Option<ScalarExpr>,
}

/// Try to split `pred` into equi-key pairs between `left_vars` and
/// `right_vars` plus a residual. Conjuncts referencing outer (correlation)
/// variables stay in the residual.
pub fn extract_equi_keys(
    pred: &ScalarExpr,
    left_vars: &BTreeSet<String>,
    right_vars: &BTreeSet<String>,
) -> EquiSplit {
    let mut split = EquiSplit {
        left_keys: vec![],
        right_keys: vec![],
        residual: None,
    };
    let mut residuals = Vec::new();
    for conj in pred.conjuncts() {
        if let ScalarExpr::Cmp(tmql_algebra::CmpOp::Eq, a, b) = &conj {
            let fa = a.free_vars();
            let fb = b.free_vars();
            if !fa.is_empty()
                && !fb.is_empty()
                && fa.is_subset(left_vars)
                && fb.is_subset(right_vars)
            {
                split.left_keys.push((**a).clone());
                split.right_keys.push((**b).clone());
                continue;
            }
            if fa.is_subset(right_vars)
                && fb.is_subset(left_vars)
                && !fa.is_empty()
                && !fb.is_empty()
            {
                split.left_keys.push((**b).clone());
                split.right_keys.push((**a).clone());
                continue;
            }
        }
        residuals.push(conj);
    }
    if !residuals.is_empty() {
        split.residual = Some(ScalarExpr::conj(residuals));
    }
    split
}

/// The index-eligible component of a selection predicate over one scan:
/// conjuncts of the form `var.attr ⟨cmp⟩ constant` on an attribute that
/// carries a secondary index. Either an equality key or range bounds
/// (strict bounds widen to inclusive probes — the executor re-checks the
/// full predicate, so a candidate superset is always safe).
#[derive(Debug, Clone, PartialEq)]
pub struct IndexSel {
    /// The indexed attribute.
    pub attr: String,
    /// Equality probe key (constant w.r.t. the scanned variable), if the
    /// component is `attr = k`.
    pub eq: Option<ScalarExpr>,
    /// Lower range bound, if any.
    pub lo: Option<ScalarExpr>,
    /// Upper range bound, if any.
    pub hi: Option<ScalarExpr>,
    /// Conjunction of the conjuncts the probe covers — what the cost
    /// model estimates the candidate count from.
    pub covered: ScalarExpr,
}

/// Decompose `conj` as `var.attr ⟨cmp⟩ key` (either orientation) where
/// `attr` is indexed on `table` and `key` does not reference `var`.
fn indexed_cmp(
    conj: &ScalarExpr,
    table: &str,
    var: &str,
    catalog: &Catalog,
) -> Option<(String, tmql_algebra::CmpOp, ScalarExpr)> {
    let ScalarExpr::Cmp(op, a, b) = conj else {
        return None;
    };
    let col_of = |e: &ScalarExpr| -> Option<String> {
        if let ScalarExpr::Field(inner, col) = e {
            if matches!(&**inner, ScalarExpr::Var(v) if v == var) {
                return Some(col.clone());
            }
        }
        None
    };
    if let Some(attr) = col_of(a) {
        if !b.free_vars().contains(var) && catalog.index_on(table, &attr).is_some() {
            return Some((attr, *op, (**b).clone()));
        }
    }
    if let Some(attr) = col_of(b) {
        if !a.free_vars().contains(var) && catalog.index_on(table, &attr).is_some() {
            return Some((attr, op.flip(), (**a).clone()));
        }
    }
    None
}

/// Extract the index-eligible component of `pred` for a scan of `table`
/// binding `var`: an equality conjunct on an indexed attribute wins;
/// otherwise range bounds on one indexed attribute are collected. `None`
/// when no conjunct can probe an existing index.
pub fn index_selection(
    pred: &ScalarExpr,
    table: &str,
    var: &str,
    catalog: &Catalog,
) -> Option<IndexSel> {
    use tmql_algebra::CmpOp;
    let conjuncts = pred.conjuncts();
    for conj in &conjuncts {
        if let Some((attr, CmpOp::Eq, key)) = indexed_cmp(conj, table, var, catalog) {
            return Some(IndexSel {
                attr,
                eq: Some(key),
                lo: None,
                hi: None,
                covered: conj.clone(),
            });
        }
    }
    let mut attr: Option<String> = None;
    let mut lo: Option<ScalarExpr> = None;
    let mut hi: Option<ScalarExpr> = None;
    let mut used: Vec<ScalarExpr> = Vec::new();
    for conj in &conjuncts {
        let Some((a, op, key)) = indexed_cmp(conj, table, var, catalog) else {
            continue;
        };
        // Bounds must all probe one attribute — the first one seen.
        if attr.as_deref().is_some_and(|seen| seen != a) {
            continue;
        }
        let slot = match op {
            CmpOp::Gt | CmpOp::Ge => &mut lo,
            CmpOp::Lt | CmpOp::Le => &mut hi,
            _ => continue,
        };
        if slot.is_none() {
            *slot = Some(key);
            attr = Some(a);
            used.push(conj.clone());
        }
    }
    let attr = attr?;
    let covered = ScalarExpr::conj(used);
    Some(IndexSel {
        attr,
        eq: None,
        lo,
        hi,
        covered,
    })
}

/// The correlation-binding expressions of an `Apply` subquery: the outer
/// environment expressions (`o`, `o.b`, …) the subquery's result can
/// depend on. These are the memoization keys of the executor's Apply
/// cache and the NDV source of the cost model's distinct-binding pricing.
/// An empty vector means the subquery is invariant — one execution serves
/// every outer row. Field paths are kept as paths (the cache then hits
/// whenever `o.b` repeats, not just when the whole row does); a whole-row
/// reference `o` subsumes every `o.*` path. Sorted and deduplicated so
/// equal subqueries yield identical keys.
pub fn apply_bindings(subquery: &Plan) -> Vec<ScalarExpr> {
    let corr = subquery.free_vars();
    let mut out = Vec::new();
    plan_bindings(subquery, &corr, &mut out);
    out.sort_by_key(|e| format!("{e:?}"));
    out.dedup();
    let whole: BTreeSet<String> = out
        .iter()
        .filter_map(|e| match e {
            ScalarExpr::Var(v) => Some(v.clone()),
            _ => None,
        })
        .collect();
    out.retain(|e| match e {
        ScalarExpr::Field(inner, _) => !matches!(&**inner, ScalarExpr::Var(v) if whole.contains(v)),
        _ => true,
    });
    out
}

/// Collect correlation references from one plan node's expressions, then
/// recurse. `corr` is the candidate outer-variable set; each node's
/// expressions see its children's output variables, which shadow
/// same-named outer variables.
fn plan_bindings(plan: &Plan, corr: &BTreeSet<String>, out: &mut Vec<ScalarExpr>) {
    let ov = |p: &Plan| -> BTreeSet<String> { p.output_vars().into_iter().collect() };
    match plan {
        Plan::ScanTable { .. } | Plan::Project { .. } | Plan::SetOp { .. } => {}
        Plan::ScanExpr { expr, .. } => expr_bindings(expr, corr, &BTreeSet::new(), out),
        Plan::Select { input, pred } => expr_bindings(pred, corr, &ov(input), out),
        Plan::Map { input, expr, .. } | Plan::Extend { input, expr, .. } => {
            expr_bindings(expr, corr, &ov(input), out)
        }
        Plan::Join { left, right, pred }
        | Plan::SemiJoin { left, right, pred }
        | Plan::AntiJoin { left, right, pred }
        | Plan::LeftOuterJoin { left, right, pred } => {
            let mut vis = ov(left);
            vis.extend(ov(right));
            expr_bindings(pred, corr, &vis, out);
        }
        Plan::NestJoin {
            left,
            right,
            pred,
            func,
            ..
        } => {
            let mut vis = ov(left);
            vis.extend(ov(right));
            expr_bindings(pred, corr, &vis, out);
            expr_bindings(func, corr, &vis, out);
        }
        Plan::Nest { input, value, .. } => expr_bindings(value, corr, &ov(input), out),
        Plan::Unnest { input, expr, .. } => expr_bindings(expr, corr, &ov(input), out),
        Plan::GroupAgg {
            input, keys, aggs, ..
        } => {
            let vis = ov(input);
            for (_, k) in keys {
                expr_bindings(k, corr, &vis, out);
            }
            for (_, _, e) in aggs {
                expr_bindings(e, corr, &vis, out);
            }
        }
        Plan::Apply {
            input, subquery, ..
        } => {
            // A nested Apply binds its input's variables inside its own
            // subquery; those shadow same-named outer variables there.
            plan_bindings(input, corr, out);
            let shadow = ov(input);
            let inner: BTreeSet<String> = corr.difference(&shadow).cloned().collect();
            plan_bindings(subquery, &inner, out);
            return;
        }
    }
    for c in plan.children() {
        plan_bindings(c, corr, out);
    }
}

/// Record references to unshadowed correlation variables in `e`: a bare
/// `Var(v)` or a field path `v.f` directly off one. Deeper paths key on
/// their first level (`o.a` determines `o.a.b`, so the coarser key is
/// still sound).
fn expr_bindings(
    e: &ScalarExpr,
    corr: &BTreeSet<String>,
    visible: &BTreeSet<String>,
    out: &mut Vec<ScalarExpr>,
) {
    use ScalarExpr as E;
    match e {
        E::Lit(_) => {}
        E::Var(v) => {
            if corr.contains(v) && !visible.contains(v) {
                out.push(e.clone());
            }
        }
        E::Field(inner, _) => {
            if let E::Var(v) = &**inner {
                if corr.contains(v) && !visible.contains(v) {
                    out.push(e.clone());
                }
            } else {
                expr_bindings(inner, corr, visible, out);
            }
        }
        E::Not(a) | E::Agg(_, a) | E::Unnest(a) | E::IsNull(a) => {
            expr_bindings(a, corr, visible, out)
        }
        E::Cmp(_, a, b)
        | E::Arith(_, a, b)
        | E::And(a, b)
        | E::Or(a, b)
        | E::SetBin(_, a, b)
        | E::SetCmp(_, a, b) => {
            expr_bindings(a, corr, visible, out);
            expr_bindings(b, corr, visible, out);
        }
        E::Tuple(fs) => {
            for (_, x) in fs {
                expr_bindings(x, corr, visible, out);
            }
        }
        E::SetLit(xs) => {
            for x in xs {
                expr_bindings(x, corr, visible, out);
            }
        }
        E::Quant {
            var, over, pred, ..
        } => {
            expr_bindings(over, corr, visible, out);
            let mut vis = visible.clone();
            vis.insert(var.clone());
            expr_bindings(pred, corr, &vis, out);
        }
    }
}

/// Decompose some conjunct of `pred` as `var.attr = key` (either
/// orientation) where `key` does not reference `var` — the shape a
/// transient hash index can probe per distinct key. Unlike
/// [`indexed_cmp`] no persistent index is required; the caller prices the
/// build. Returns `(attr, key, covered_conjunct)`.
pub(crate) fn eq_probe_candidate(
    pred: &ScalarExpr,
    var: &str,
) -> Option<(String, ScalarExpr, ScalarExpr)> {
    for conj in pred.conjuncts() {
        let ScalarExpr::Cmp(tmql_algebra::CmpOp::Eq, a, b) = &conj else {
            continue;
        };
        let col_of = |e: &ScalarExpr| -> Option<String> {
            if let ScalarExpr::Field(inner, col) = e {
                if matches!(&**inner, ScalarExpr::Var(v) if v == var) {
                    return Some(col.clone());
                }
            }
            None
        };
        if let Some(attr) = col_of(a) {
            if !b.free_vars().contains(var) {
                return Some((attr, (**b).clone(), conj.clone()));
            }
        }
        if let Some(attr) = col_of(b) {
            if !a.free_vars().contains(var) {
                return Some((attr, (**a).clone(), conj.clone()));
            }
        }
    }
    None
}

/// Lower a logical plan to a physical plan.
pub fn lower(plan: &Plan, catalog: &Catalog, config: &ExecConfig) -> Result<PhysPlan> {
    Ok(match plan {
        Plan::ScanTable { table, var } => PhysPlan::ScanTable {
            table: table.clone(),
            var: var.clone(),
        },
        Plan::ScanExpr { expr, var } => PhysPlan::ScanExpr {
            expr: expr.clone(),
            var: var.clone(),
        },
        Plan::Select { input, pred } => {
            // Scan-vs-probe: a selection directly over an indexed scan
            // becomes an IndexScan when the cost model prices the probe
            // path cheaper (the same pricing `CostBased` ranks with).
            if let Plan::ScanTable { table, var } = &**input {
                let est = cost::Estimator::new(catalog);
                if let Some((isel, probe_work, scan_work)) =
                    est.select_access_paths(table, var, pred)
                {
                    if probe_work < scan_work {
                        return Ok(PhysPlan::IndexScan {
                            table: table.clone(),
                            var: var.clone(),
                            attr: isel.attr,
                            eq: isel.eq,
                            lo: isel.lo,
                            hi: isel.hi,
                            pred: pred.clone(),
                        });
                    }
                }
            }
            PhysPlan::Filter {
                input: Box::new(lower(input, catalog, config)?),
                pred: pred.clone(),
            }
        }
        Plan::Map { input, expr, var } => PhysPlan::Map {
            input: Box::new(lower(input, catalog, config)?),
            expr: expr.clone(),
            var: var.clone(),
        },
        Plan::Extend { input, expr, var } => PhysPlan::Extend {
            input: Box::new(lower(input, catalog, config)?),
            expr: expr.clone(),
            var: var.clone(),
        },
        Plan::Project { input, vars } => PhysPlan::Project {
            input: Box::new(lower(input, catalog, config)?),
            vars: vars.clone(),
        },
        Plan::Join { left, right, pred } => {
            lower_join(left, right, pred, JoinKind::Inner, catalog, config)?
        }
        Plan::SemiJoin { left, right, pred } => {
            lower_join(left, right, pred, JoinKind::Semi, catalog, config)?
        }
        Plan::AntiJoin { left, right, pred } => {
            lower_join(left, right, pred, JoinKind::Anti, catalog, config)?
        }
        Plan::LeftOuterJoin { left, right, pred } => {
            let kind = JoinKind::LeftOuter {
                right_vars: right.output_vars(),
            };
            lower_join(left, right, pred, kind, catalog, config)?
        }
        Plan::NestJoin {
            left,
            right,
            pred,
            func,
            label,
        } => {
            let kind = JoinKind::Nest {
                func: func.clone(),
                label: label.clone(),
            };
            lower_join(left, right, pred, kind, catalog, config)?
        }
        Plan::Nest {
            input,
            keys,
            value,
            label,
            star,
        } => PhysPlan::Nest {
            input: Box::new(lower(input, catalog, config)?),
            keys: keys.clone(),
            value: value.clone(),
            label: label.clone(),
            star: *star,
        },
        Plan::Unnest {
            input,
            expr,
            elem_var,
            drop_vars,
        } => PhysPlan::Unnest {
            input: Box::new(lower(input, catalog, config)?),
            expr: expr.clone(),
            elem_var: elem_var.clone(),
            drop_vars: drop_vars.clone(),
        },
        Plan::GroupAgg {
            input,
            keys,
            aggs,
            var,
        } => PhysPlan::GroupAgg {
            input: Box::new(lower(input, catalog, config)?),
            keys: keys.clone(),
            aggs: aggs.clone(),
            var: var.clone(),
        },
        Plan::Apply {
            input,
            subquery,
            label,
        } => {
            // Batched Apply (gated on `apply_cache` so `false` is the
            // faithful legacy per-row baseline): memoize inner results by
            // the correlation bindings, and hoist correlation-independent
            // work out of the per-binding path — either as a transient
            // hash probe (the whole inner plan is an eq-selection on the
            // binding) or as materialized subtrees.
            if !config.apply_cache {
                return Ok(PhysPlan::Apply {
                    input: Box::new(lower(input, catalog, config)?),
                    subquery: Box::new(lower(subquery, catalog, config)?),
                    label: label.clone(),
                    bindings: None,
                });
            }
            let bindings = apply_bindings(subquery);
            PhysPlan::Apply {
                input: Box::new(lower(input, catalog, config)?),
                subquery: Box::new(lower_apply_inner(input, subquery, catalog, config)?),
                label: label.clone(),
                bindings: Some(bindings),
            }
        }
        Plan::SetOp {
            kind,
            left,
            right,
            var,
        } => PhysPlan::SetOp {
            kind: *kind,
            left: Box::new(lower(left, catalog, config)?),
            right: Box::new(lower(right, catalog, config)?),
            var: var.clone(),
        },
    })
}

/// Lower an `Apply` subquery with invariant hoisting. Two rewrites, the
/// first priced by the [`cost::Estimator`] against the
/// per-distinct-binding repetition count, the second by rule:
///
/// 1. an inner plan shaped `σ[var.attr = key ∧ …](table)` whose key is
///    correlation-dependent and whose attribute has no persistent index
///    becomes a [`PhysPlan::HashProbe`] — one transient hash build
///    amortized across all bindings, one probe per binding;
/// 2. otherwise, maximal correlation-independent subtrees that do real
///    work over stored tables are wrapped in [`PhysPlan::Materialize`] —
///    executed once, replayed on every re-open.
///
/// A subquery that is invariant as a whole is left alone: the Apply
/// cache's empty binding key already collapses it to one execution.
fn lower_apply_inner(
    outer_input: &Plan,
    subquery: &Plan,
    catalog: &Catalog,
    config: &ExecConfig,
) -> Result<PhysPlan> {
    let corr = subquery.free_vars();
    if let Some(probed) = hoist_eq_probe(outer_input, subquery, subquery, catalog) {
        return Ok(probed);
    }
    let phys = lower(subquery, catalog, config)?;
    if corr.is_empty() {
        return Ok(phys);
    }
    Ok(hoist_materialize(phys, &corr))
}

/// Try to rewrite the eq-selection at the bottom of an Apply subquery into
/// a transient [`PhysPlan::HashProbe`], peeling row-shaping wrappers
/// (`Map` / `Extend` / `Project`) on the way down — they consume the
/// probe's rows exactly as they would the selection's. Returns `None`
/// when the shape doesn't match, a persistent index already covers the
/// attribute, or the cost model prices the repeated scans cheaper than
/// the one-time hash build.
fn hoist_eq_probe(
    outer_input: &Plan,
    subquery: &Plan,
    node: &Plan,
    catalog: &Catalog,
) -> Option<PhysPlan> {
    match node {
        Plan::Select { input, pred } => {
            let Plan::ScanTable { table, var } = &**input else {
                return None;
            };
            let (attr, key, covered) = eq_probe_candidate(pred, var)?;
            if catalog.index_on(table, &attr).is_some() {
                return None;
            }
            let est = cost::Estimator::new(catalog);
            let probes = est.apply_distinct_bindings(outer_input, subquery);
            let (probe_work, scan_work) =
                est.transient_hash_paths(table, var, pred, &covered, probes);
            (probe_work < scan_work).then(|| PhysPlan::HashProbe {
                table: table.clone(),
                var: var.clone(),
                attr,
                key,
                pred: pred.clone(),
            })
        }
        Plan::Map { input, expr, var } => hoist_eq_probe(outer_input, subquery, input, catalog)
            .map(|p| PhysPlan::Map {
                input: Box::new(p),
                expr: expr.clone(),
                var: var.clone(),
            }),
        Plan::Extend { input, expr, var } => hoist_eq_probe(outer_input, subquery, input, catalog)
            .map(|p| PhysPlan::Extend {
                input: Box::new(p),
                expr: expr.clone(),
                var: var.clone(),
            }),
        Plan::Project { input, vars } => {
            hoist_eq_probe(outer_input, subquery, input, catalog).map(|p| PhysPlan::Project {
                input: Box::new(p),
                vars: vars.clone(),
            })
        }
        _ => None,
    }
}

/// Is this physical subtree independent of the given correlation
/// variables? (Its logical view references none of them.)
fn independent(phys: &PhysPlan, corr: &BTreeSet<String>) -> bool {
    cost::logical_view(phys).free_vars().is_disjoint(corr)
}

/// Does materializing this subtree save real work per re-execution? True
/// for non-leaf subtrees that access a stored table (a bare scan replays
/// as cheaply as it re-scans, so wrapping it only spends memory).
fn worth_materializing(phys: &PhysPlan) -> bool {
    fn touches_table(p: &PhysPlan) -> bool {
        matches!(
            p,
            PhysPlan::ScanTable { .. }
                | PhysPlan::IndexScan { .. }
                | PhysPlan::IndexNLJoin { .. }
                | PhysPlan::HashProbe { .. }
        ) || p.children().into_iter().any(touches_table)
    }
    !phys.children().is_empty() && touches_table(phys)
}

/// Wrap maximal correlation-independent subtrees of an Apply inner plan
/// in [`PhysPlan::Materialize`]. Top-down: once a subtree is independent
/// there is nothing to gain deeper inside it, and a dependent node keeps
/// its shape while its children are considered.
fn hoist_materialize(phys: PhysPlan, corr: &BTreeSet<String>) -> PhysPlan {
    fn wrap(child: Box<PhysPlan>, corr: &BTreeSet<String>) -> Box<PhysPlan> {
        if independent(&child, corr) {
            if worth_materializing(&child) {
                Box::new(PhysPlan::Materialize { input: child })
            } else {
                child
            }
        } else {
            Box::new(hoist_materialize(*child, corr))
        }
    }
    use PhysPlan as P;
    match phys {
        P::Filter { input, pred } => P::Filter {
            input: wrap(input, corr),
            pred,
        },
        P::Map { input, expr, var } => P::Map {
            input: wrap(input, corr),
            expr,
            var,
        },
        P::Extend { input, expr, var } => P::Extend {
            input: wrap(input, corr),
            expr,
            var,
        },
        P::Project { input, vars } => P::Project {
            input: wrap(input, corr),
            vars,
        },
        P::NlJoin {
            left,
            right,
            pred,
            kind,
        } => P::NlJoin {
            left: wrap(left, corr),
            right: wrap(right, corr),
            pred,
            kind,
        },
        P::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
            kind,
        } => P::HashJoin {
            left: wrap(left, corr),
            right: wrap(right, corr),
            left_keys,
            right_keys,
            residual,
            kind,
        },
        P::MergeJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
            kind,
        } => P::MergeJoin {
            left: wrap(left, corr),
            right: wrap(right, corr),
            left_keys,
            right_keys,
            residual,
            kind,
        },
        P::IndexNLJoin {
            left,
            right_table,
            right_var,
            attr,
            key,
            pred,
            kind,
        } => P::IndexNLJoin {
            left: wrap(left, corr),
            right_table,
            right_var,
            attr,
            key,
            pred,
            kind,
        },
        P::Nest {
            input,
            keys,
            value,
            label,
            star,
        } => P::Nest {
            input: wrap(input, corr),
            keys,
            value,
            label,
            star,
        },
        P::Unnest {
            input,
            expr,
            elem_var,
            drop_vars,
        } => P::Unnest {
            input: wrap(input, corr),
            expr,
            elem_var,
            drop_vars,
        },
        P::GroupAgg {
            input,
            keys,
            aggs,
            var,
        } => P::GroupAgg {
            input: wrap(input, corr),
            keys,
            aggs,
            var,
        },
        P::SetOp {
            kind,
            left,
            right,
            var,
        } => P::SetOp {
            kind,
            left: wrap(left, corr),
            right: wrap(right, corr),
            var,
        },
        // A nested Apply's own subquery was already hoisted against its
        // own correlation set when it was lowered; only its input is
        // considered here.
        P::Apply {
            input,
            subquery,
            label,
            bindings,
        } => P::Apply {
            input: wrap(input, corr),
            subquery,
            label,
            bindings,
        },
        leaf @ (P::ScanTable { .. }
        | P::ScanExpr { .. }
        | P::IndexScan { .. }
        | P::HashProbe { .. }
        | P::Materialize { .. }) => leaf,
    }
}

fn lower_join(
    left: &Plan,
    right: &Plan,
    pred: &ScalarExpr,
    kind: JoinKind,
    catalog: &Catalog,
    config: &ExecConfig,
) -> Result<PhysPlan> {
    let l = Box::new(lower(left, catalog, config)?);
    let r = Box::new(lower(right, catalog, config)?);
    let lv: BTreeSet<String> = left.output_vars().into_iter().collect();
    let rv: BTreeSet<String> = right.output_vars().into_iter().collect();
    let mut split = extract_equi_keys(pred, &lv, &rv);

    let estimator = cost::Estimator::new(catalog);

    // Index nested-loop candidate (Auto only — forced algorithms are
    // respected): the inner operand is a bare scan of a table with a
    // secondary index on one of its equi-key columns, and the cost model
    // prices per-outer-row probes below scanning + building the inner.
    if config.join_algo == JoinAlgo::Auto {
        if let Some(i) = estimator.index_join_beats(left, right, &split) {
            let Plan::ScanTable {
                table: rt,
                var: rvar,
            } = right
            else {
                unreachable!("index_join_beats only fires on a bare inner scan");
            };
            let ScalarExpr::Field(_, attr) = &split.right_keys[i] else {
                unreachable!("index_join_beats picks a column key");
            };
            return Ok(PhysPlan::IndexNLJoin {
                left: l,
                right_table: rt.clone(),
                right_var: rvar.clone(),
                attr: attr.clone(),
                key: split.left_keys[i].clone(),
                pred: pred.clone(),
                kind,
            });
        }
    }

    let (lc, rc) = (estimator.rows(left), estimator.rows(right));

    let algo = if split.left_keys.is_empty() {
        // No equi keys: only nested-loop is applicable.
        JoinAlgo::NestedLoop
    } else {
        match config.join_algo {
            // One build and one probe pass cost less than sorting both
            // sides at every input size, so equi-joins hash.
            JoinAlgo::Auto => JoinAlgo::Hash,
            forced => forced,
        }
    };

    // Build-side choice: a hash *inner* join is symmetric (records compare
    // label-insensitively), so under cost-based selection build on the
    // smaller operand. Every other kind is left-preserving — and for the
    // nest join "only the right join operand may be the build table"
    // (Section 6) — so their sides stay fixed.
    let (mut l, mut r) = (l, r);
    if matches!(kind, JoinKind::Inner)
        && matches!(algo, JoinAlgo::Hash | JoinAlgo::Auto)
        && config.join_algo == JoinAlgo::Auto
        && lc < rc
    {
        std::mem::swap(&mut l, &mut r);
        std::mem::swap(&mut split.left_keys, &mut split.right_keys);
    }

    Ok(match algo {
        JoinAlgo::NestedLoop => PhysPlan::NlJoin {
            left: l,
            right: r,
            pred: pred.clone(),
            kind,
        },
        JoinAlgo::Hash | JoinAlgo::Auto => PhysPlan::HashJoin {
            left: l,
            right: r,
            left_keys: split.left_keys,
            right_keys: split.right_keys,
            residual: split.residual,
            kind,
        },
        JoinAlgo::SortMerge => PhysPlan::MergeJoin {
            left: l,
            right: r,
            left_keys: split.left_keys,
            right_keys: split.right_keys,
            residual: split.residual,
            kind,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmql_algebra::{CmpOp, ScalarExpr as E};
    use tmql_storage::table::int_table;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.register(int_table("X", &["a", "b"], &[&[1, 1]]))
            .unwrap();
        cat.register(int_table("Y", &["b", "c"], &[&[1, 10]]))
            .unwrap();
        cat
    }

    fn vars(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn extracts_equi_keys_both_orientations() {
        let p = E::and(
            E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
            E::eq(E::path("y", &["c"]), E::path("x", &["a"])),
        );
        let s = extract_equi_keys(&p, &vars(&["x"]), &vars(&["y"]));
        assert_eq!(s.left_keys.len(), 2);
        assert_eq!(s.left_keys[1], E::path("x", &["a"]));
        assert_eq!(s.right_keys[1], E::path("y", &["c"]));
        assert!(s.residual.is_none());
    }

    #[test]
    fn non_equi_and_correlated_conjuncts_stay_residual() {
        // x.a < y.c is not equi; x.b = o.b references the outer var `o`.
        let p = E::and(
            E::cmp(CmpOp::Lt, E::path("x", &["a"]), E::path("y", &["c"])),
            E::eq(E::path("x", &["b"]), E::path("o", &["b"])),
        );
        let s = extract_equi_keys(&p, &vars(&["x"]), &vars(&["y"]));
        assert!(s.left_keys.is_empty());
        assert!(s.residual.is_some());
    }

    #[test]
    fn constant_sides_are_not_keys() {
        // x.b = 3 must not become a hash key pair (right side has no vars).
        let p = E::eq(E::path("x", &["b"]), E::lit(3i64));
        let s = extract_equi_keys(&p, &vars(&["x"]), &vars(&["y"]));
        assert!(s.left_keys.is_empty());
    }

    #[test]
    fn lower_picks_hash_for_equi_join_auto() {
        let cat = catalog();
        let plan = Plan::scan("X", "x").join(
            Plan::scan("Y", "y"),
            E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
        );
        let phys = lower(&plan, &cat, &ExecConfig::auto()).unwrap();
        assert!(matches!(phys, PhysPlan::HashJoin { .. }), "{phys}");
    }

    #[test]
    fn lower_falls_back_to_nl_without_keys() {
        let cat = catalog();
        let plan = Plan::scan("X", "x").join(
            Plan::scan("Y", "y"),
            E::cmp(CmpOp::Lt, E::path("x", &["b"]), E::path("y", &["b"])),
        );
        for algo in [JoinAlgo::Auto, JoinAlgo::Hash, JoinAlgo::SortMerge] {
            let phys = lower(&plan, &cat, &ExecConfig::with_join_algo(algo)).unwrap();
            assert!(matches!(phys, PhysPlan::NlJoin { .. }), "{phys}");
        }
    }

    #[test]
    fn auto_inner_join_builds_on_smaller_side() {
        let mut cat = Catalog::new();
        let rows: Vec<Vec<i64>> = (0..50).map(|i| vec![i, i % 5]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        cat.register(int_table("BIG", &["a", "b"], &refs)).unwrap();
        cat.register(int_table("TINY", &["b", "c"], &[&[1, 10], &[2, 20]]))
            .unwrap();
        // TINY ⋈ BIG under Auto: probe the big side, build on the tiny one.
        let plan = Plan::scan("TINY", "t").join(
            Plan::scan("BIG", "x"),
            E::eq(E::path("t", &["b"]), E::path("x", &["b"])),
        );
        let phys = lower(&plan, &cat, &ExecConfig::auto()).unwrap();
        let PhysPlan::HashJoin {
            left,
            right,
            left_keys,
            ..
        } = phys
        else {
            panic!("hash join expected");
        };
        assert!(matches!(*left, PhysPlan::ScanTable { ref table, .. } if table == "BIG"));
        assert!(matches!(*right, PhysPlan::ScanTable { ref table, .. } if table == "TINY"));
        // Keys swapped with the sides.
        assert_eq!(left_keys, vec![E::path("x", &["b"])]);
        // A forced algorithm keeps the written build side.
        let phys = lower(&plan, &cat, &ExecConfig::with_join_algo(JoinAlgo::Hash)).unwrap();
        let PhysPlan::HashJoin { left, .. } = phys else {
            panic!("hash join expected")
        };
        assert!(matches!(*left, PhysPlan::ScanTable { ref table, .. } if table == "TINY"));
        // Left-preserving kinds never swap, whatever the cardinalities.
        let semi = Plan::scan("TINY", "t").semi_join(
            Plan::scan("BIG", "x"),
            E::eq(E::path("t", &["b"]), E::path("x", &["b"])),
        );
        let phys = lower(&semi, &cat, &ExecConfig::auto()).unwrap();
        let PhysPlan::HashJoin {
            left,
            kind: JoinKind::Semi,
            ..
        } = phys
        else {
            panic!("hash semijoin expected");
        };
        assert!(matches!(*left, PhysPlan::ScanTable { ref table, .. } if table == "TINY"));
    }

    #[test]
    fn forced_algorithms_respected() {
        let cat = catalog();
        let plan = Plan::scan("X", "x").semi_join(
            Plan::scan("Y", "y"),
            E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
        );
        let h = lower(&plan, &cat, &ExecConfig::with_join_algo(JoinAlgo::Hash)).unwrap();
        assert!(matches!(
            h,
            PhysPlan::HashJoin {
                kind: JoinKind::Semi,
                ..
            }
        ));
        let m = lower(
            &plan,
            &cat,
            &ExecConfig::with_join_algo(JoinAlgo::SortMerge),
        )
        .unwrap();
        assert!(matches!(
            m,
            PhysPlan::MergeJoin {
                kind: JoinKind::Semi,
                ..
            }
        ));
        let n = lower(
            &plan,
            &cat,
            &ExecConfig::with_join_algo(JoinAlgo::NestedLoop),
        )
        .unwrap();
        assert!(matches!(
            n,
            PhysPlan::NlJoin {
                kind: JoinKind::Semi,
                ..
            }
        ));
    }

    #[test]
    fn nest_join_lowering_keeps_func_and_label() {
        let cat = catalog();
        let plan = Plan::scan("X", "x").nest_join(
            Plan::scan("Y", "y"),
            E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
            E::path("y", &["c"]),
            "zs",
        );
        let phys = lower(&plan, &cat, &ExecConfig::auto()).unwrap();
        let PhysPlan::HashJoin {
            kind: JoinKind::Nest { label, .. },
            ..
        } = phys
        else {
            panic!("expected hash nest join");
        };
        assert_eq!(label, "zs");
    }

    /// BIG(100 rows, b with 10 distinct values) + TINY(2 rows): large
    /// enough that probing an index on BIG.b beats scanning BIG.
    fn indexed_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let rows: Vec<Vec<i64>> = (0..100).map(|i| vec![i, i % 10]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        cat.register(int_table("BIG", &["a", "b"], &refs)).unwrap();
        cat.register(int_table("TINY", &["b", "c"], &[&[1, 10], &[2, 20]]))
            .unwrap();
        cat.create_index("BIG", "b").unwrap();
        cat
    }

    #[test]
    fn indexed_selection_lowers_to_index_scan() {
        let cat = indexed_catalog();
        let plan = Plan::scan("BIG", "x").select(E::eq(E::path("x", &["b"]), E::lit(3i64)));
        let phys = lower(&plan, &cat, &ExecConfig::auto()).unwrap();
        let PhysPlan::IndexScan {
            attr, eq, lo, hi, ..
        } = phys
        else {
            panic!("expected IndexScan, got {phys}");
        };
        assert_eq!(attr, "b");
        assert_eq!(eq, Some(E::lit(3i64)));
        assert!(lo.is_none() && hi.is_none());
    }

    #[test]
    fn indexed_range_selection_lowers_with_bounds() {
        let cat = indexed_catalog();
        let pred = E::and(
            E::cmp(CmpOp::Ge, E::path("x", &["b"]), E::lit(3i64)),
            E::cmp(CmpOp::Lt, E::path("x", &["b"]), E::lit(4i64)),
        );
        let plan = Plan::scan("BIG", "x").select(pred);
        let phys = lower(&plan, &cat, &ExecConfig::auto()).unwrap();
        let PhysPlan::IndexScan {
            attr, eq, lo, hi, ..
        } = phys
        else {
            panic!("expected IndexScan, got {phys}");
        };
        assert_eq!(attr, "b");
        assert!(eq.is_none());
        assert_eq!(lo, Some(E::lit(3i64)));
        assert_eq!(hi, Some(E::lit(4i64)));
    }

    #[test]
    fn selection_without_index_still_scans() {
        let cat = indexed_catalog();
        // Column `a` has no index: the plan must stay a Filter over a scan.
        let plan = Plan::scan("BIG", "x").select(E::eq(E::path("x", &["a"]), E::lit(3i64)));
        let phys = lower(&plan, &cat, &ExecConfig::auto()).unwrap();
        assert!(matches!(phys, PhysPlan::Filter { .. }), "{phys}");
    }

    #[test]
    fn indexed_inner_scan_lowers_to_index_nl_join_under_auto() {
        let cat = indexed_catalog();
        let plan = Plan::scan("TINY", "t").join(
            Plan::scan("BIG", "x"),
            E::eq(E::path("t", &["b"]), E::path("x", &["b"])),
        );
        let phys = lower(&plan, &cat, &ExecConfig::auto()).unwrap();
        let PhysPlan::IndexNLJoin {
            right_table,
            attr,
            key,
            ..
        } = phys
        else {
            panic!("expected IndexNLJoin, got {phys}");
        };
        assert_eq!(right_table, "BIG");
        assert_eq!(attr, "b");
        assert_eq!(key, E::path("t", &["b"]));
        // Forced algorithms never take the index path.
        for algo in [JoinAlgo::Hash, JoinAlgo::SortMerge, JoinAlgo::NestedLoop] {
            let phys = lower(&plan, &cat, &ExecConfig::with_join_algo(algo)).unwrap();
            assert!(!matches!(phys, PhysPlan::IndexNLJoin { .. }), "{phys}");
        }
    }

    #[test]
    fn apply_bindings_extracts_correlation_paths() {
        // σ[x.b = y.b](Y): the result depends on the outer row only
        // through `x.b`.
        let sub = Plan::scan("Y", "y")
            .select(E::eq(E::path("x", &["b"]), E::path("y", &["b"])))
            .map(E::path("y", &["c"]), "s");
        assert_eq!(apply_bindings(&sub), vec![E::path("x", &["b"])]);
        // An invariant subquery has no bindings at all.
        let inv = Plan::scan("Y", "y").map(E::path("y", &["c"]), "s");
        assert!(apply_bindings(&inv).is_empty());
        // A whole-row reference subsumes field paths off the same var.
        let sub2 = Plan::scan("Y", "y").select(E::and(
            E::eq(E::var("x"), E::path("y", &["b"])),
            E::eq(E::path("x", &["b"]), E::path("y", &["b"])),
        ));
        assert_eq!(apply_bindings(&sub2), vec![E::var("x")]);
        // A scan variable shadows a same-named outer variable.
        let shadowed = Plan::scan("X", "x").select(E::eq(E::path("x", &["b"]), E::lit(3i64)));
        assert!(apply_bindings(&shadowed).is_empty());
    }

    #[test]
    fn correlated_eq_selection_hoists_to_hash_probe() {
        let mut cat = Catalog::new();
        let rows: Vec<Vec<i64>> = (0..100).map(|i| vec![i, i % 10]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        cat.register(int_table("BIG", &["a", "b"], &refs)).unwrap();
        // Apply over BIG with subquery σ[y.b = x.b](BIG): 10 distinct
        // x.b bindings amortize a transient hash build on BIG.b.
        let sub = Plan::scan("BIG", "y").select(E::eq(E::path("y", &["b"]), E::path("x", &["b"])));
        let plan = Plan::scan("BIG", "x").apply(sub, "z");
        let phys = lower(&plan, &cat, &ExecConfig::auto()).unwrap();
        let PhysPlan::Apply {
            subquery, bindings, ..
        } = phys
        else {
            panic!("expected Apply");
        };
        assert_eq!(bindings, Some(vec![E::path("x", &["b"])]));
        let PhysPlan::HashProbe {
            table, attr, key, ..
        } = *subquery
        else {
            panic!("expected HashProbe subquery, got {subquery}");
        };
        assert_eq!(table, "BIG");
        assert_eq!(attr, "b");
        assert_eq!(key, E::path("x", &["b"]));
        // Row-shaping wrappers peel: a projecting Map over the same
        // eq-selection keeps its shape with the probe underneath.
        let sub = Plan::scan("BIG", "y")
            .select(E::eq(E::path("y", &["b"]), E::path("x", &["b"])))
            .map(E::path("y", &["a"]), "q");
        let plan = Plan::scan("BIG", "x").apply(sub, "z");
        let phys = lower(&plan, &cat, &ExecConfig::auto()).unwrap();
        let PhysPlan::Apply { subquery, .. } = phys else {
            panic!("expected Apply");
        };
        let PhysPlan::Map { input, .. } = *subquery else {
            panic!("expected Map subquery, got {subquery}");
        };
        assert!(matches!(*input, PhysPlan::HashProbe { .. }), "{input}");
        // With a persistent index on b the ordinary IndexScan path wins
        // and no transient build is planned.
        cat.create_index("BIG", "b").unwrap();
        let sub = Plan::scan("BIG", "y").select(E::eq(E::path("y", &["b"]), E::path("x", &["b"])));
        let plan = Plan::scan("BIG", "x").apply(sub, "z");
        let phys = lower(&plan, &cat, &ExecConfig::auto()).unwrap();
        let PhysPlan::Apply { subquery, .. } = phys else {
            panic!("expected Apply");
        };
        assert!(
            !matches!(*subquery, PhysPlan::HashProbe { .. }),
            "{subquery}"
        );
        // apply_cache(false) is the faithful legacy baseline: no memo
        // keys, no hoisting.
        let sub = Plan::scan("BIG", "y").select(E::eq(E::path("y", &["b"]), E::path("x", &["b"])));
        let plan = Plan::scan("BIG", "x").apply(sub, "z");
        let phys = lower(&plan, &cat, &ExecConfig::auto().apply_cache(false)).unwrap();
        let PhysPlan::Apply { bindings, .. } = phys else {
            panic!("expected Apply");
        };
        assert_eq!(bindings, None);
    }

    #[test]
    fn independent_subtrees_materialize_inside_apply() {
        let cat = catalog();
        // Subquery σ[y.b = x.b](Y ⋈ Y'): the join of the two inner scans
        // is correlation-independent and hoists behind a Materialize; the
        // dependent filter stays in the per-binding path.
        let sub = Plan::scan("Y", "y")
            .join(
                Plan::scan("Y", "w"),
                E::eq(E::path("y", &["b"]), E::path("w", &["b"])),
            )
            .select(E::eq(E::path("y", &["b"]), E::path("x", &["b"])));
        let plan = Plan::scan("X", "x").apply(sub, "z");
        let phys = lower(&plan, &cat, &ExecConfig::auto()).unwrap();
        let PhysPlan::Apply { subquery, .. } = phys else {
            panic!("expected Apply");
        };
        let PhysPlan::Filter { input, .. } = *subquery else {
            panic!("expected Filter subquery, got {subquery}");
        };
        assert!(
            matches!(*input, PhysPlan::Materialize { .. }),
            "expected Materialize under the correlated filter, got {input}"
        );
    }

    #[test]
    fn join_without_index_keeps_hash_plan() {
        let mut cat = indexed_catalog();
        cat.drop_index("BIG", "b").unwrap();
        let plan = Plan::scan("TINY", "t").join(
            Plan::scan("BIG", "x"),
            E::eq(E::path("t", &["b"]), E::path("x", &["b"])),
        );
        let phys = lower(&plan, &cat, &ExecConfig::auto()).unwrap();
        assert!(matches!(phys, PhysPlan::HashJoin { .. }), "{phys}");
    }
}
