//! The statements each workload runs, and the paper's class of each.

use tmql_workload::queries;

/// Which latency class a read statement belongs to. The class is fixed by
/// the paper (Table 2 / Theorem 1), not by the plan the optimizer picks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Theorem 1 flattens the predicate to a semijoin or antijoin.
    Flat,
    /// The predicate needs grouping (nest join territory).
    Nest,
    /// Neither: the UNNEST collapse, index lookups and plain scans.
    Other,
}

/// The database a statement runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// `X`/`Y`, `R`/`S`, `DEPT`/`EMP` and the write-side table.
    Main,
    /// The Section 8 chain `X`/`Y`/`Z`; its `X` and `Y` clash with the
    /// main database's, so it lives in a database of its own.
    Section8,
}

/// One read statement of a workload.
#[derive(Debug, Clone)]
pub struct Statement {
    /// Short stable name (used in reports).
    pub name: String,
    /// Source text.
    pub src: String,
    /// Paper class.
    pub class: Class,
    /// Database it runs against.
    pub target: Target,
    /// Nested-loop evaluation stays quadratic for this statement even with
    /// the Apply cache, so at large sizes its reference comes from another
    /// rewrite.
    pub quadratic_nl: bool,
}

fn stmt(name: &str, src: impl Into<String>, class: Class, target: Target) -> Statement {
    Statement {
        name: name.to_string(),
        src: src.into(),
        class,
        target,
        quadratic_nl: false,
    }
}

/// Table 2 rows that Theorem 1 flattens (an existential or negated
/// existential rewrite exists); every other row requires grouping.
fn table2_class(form: &str) -> Class {
    const FLAT: [&str; 9] = [
        "z = ∅",
        "count(z) = 0",
        "count(z) <> 0",
        "x.n ∈ z",
        "x.n ∉ z",
        "x.a ⊇ z",
        "x.a ∩ z = ∅",
        "x.a ∩ z ≠ ∅",
        "∀w ∈ x.a (w ∉ z)",
    ];
    if FLAT.contains(&form) {
        Class::Flat
    } else {
        Class::Nest
    }
}

/// The paper's corpus for the in-memory workloads: the Table 2 templates,
/// membership / non-membership, the UNNEST collapse, the COUNT bug, `Q2`
/// and the two Section 8 queries.
pub fn nested_corpus() -> Vec<Statement> {
    let mut out: Vec<Statement> = queries::table2_templates()
        .into_iter()
        .enumerate()
        .map(|(i, (form, src))| stmt(&format!("t2.{i:02}"), src, table2_class(form), Target::Main))
        .collect();
    out.push(stmt(
        "membership",
        queries::MEMBERSHIP,
        Class::Flat,
        Target::Main,
    ));
    out.push(stmt(
        "non_membership",
        queries::NON_MEMBERSHIP,
        Class::Flat,
        Target::Main,
    ));
    out.push(stmt(
        "unnest_collapse",
        queries::UNNEST_COLLAPSE,
        Class::Other,
        Target::Main,
    ));
    out.push(stmt(
        "count_bug",
        queries::COUNT_BUG,
        Class::Nest,
        Target::Main,
    ));
    out.push(stmt("q2", queries::Q2, Class::Nest, Target::Main));
    out.push(stmt(
        "section8",
        queries::SECTION8,
        Class::Nest,
        Target::Section8,
    ));
    out.push(stmt(
        "section8_flat",
        queries::SECTION8_FLAT,
        Class::Flat,
        Target::Section8,
    ));
    for st in out.iter_mut().rev().take(3) {
        st.quadratic_nl = true;
    }
    out
}

/// The disk workload's reads over `X`/`Y` (index on `Y.b`): flattenable
/// and grouping nested statements, one index point lookup on `Y.b = key`
/// and one full scan of `Y` filtered on the unindexed `Y.a = value`.
pub fn disk_corpus(key: i64, value: i64) -> Vec<Statement> {
    let w = queries::where_query;
    vec![
        stmt("membership", queries::MEMBERSHIP, Class::Flat, Target::Main),
        stmt(
            "non_membership",
            queries::NON_MEMBERSHIP,
            Class::Flat,
            Target::Main,
        ),
        stmt("count_zero", w("COUNT({Z}) = 0"), Class::Flat, Target::Main),
        stmt(
            "intersects",
            w("x.a INTERSECTS {Z}"),
            Class::Flat,
            Target::Main,
        ),
        stmt("count_eq", w("x.n = COUNT({Z})"), Class::Nest, Target::Main),
        stmt("subseteq", w("x.a SUBSETEQ {Z}"), Class::Nest, Target::Main),
        stmt("set_eq", w("x.a = {Z}"), Class::Nest, Target::Main),
        stmt(
            "index_lookup",
            format!("SELECT y.a FROM Y y WHERE y.b = {key}"),
            Class::Other,
            Target::Main,
        ),
        stmt(
            "full_scan",
            format!("SELECT y.b FROM Y y WHERE y.a = {value}"),
            Class::Other,
            Target::Main,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_classes_match_the_catalogue() {
        // The fixed classes agree with the engine's Table 2 catalogue:
        // flattenable iff a (negated) existential rewrite exists. The
        // catalogue writes the atomic rows over `x.a`; the templates use
        // the integer attribute `x.n`.
        let templates: Vec<&str> = queries::table2_templates()
            .iter()
            .map(|(f, _)| *f)
            .collect();
        let mut matched = 0;
        for e in tmql_core::table2::entries() {
            let form = match e.form {
                "count(z) ≠ 0" => "count(z) <> 0",
                "x.a = count(z)" => "x.n = count(z)",
                "x.a ∈ z" => "x.n ∈ z",
                "x.a ∉ z" => "x.n ∉ z",
                f => f,
            };
            assert!(templates.contains(&form), "no template for `{form}`");
            let flat = !matches!(e.expected, tmql::Classification::RequiresGrouping);
            assert_eq!(table2_class(form) == Class::Flat, flat, "{form}");
            matched += 1;
        }
        assert_eq!(matched, templates.len());
    }
}
