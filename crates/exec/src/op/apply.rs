//! Batched correlated Apply: operator reuse, binding memoization, and
//! invariant hoisting.
//!
//! [`ApplyOp`] is the paper's baseline nested loop, made cheap along three
//! axes. **Reuse**: the inner operator tree is built once; per outer row
//! the row's bindings are pushed on the [`ExecContext`]'s env and the tree
//! is re-opened and drained, so no per-row planning or allocation
//! happens. **Memoization**: when the planner supplies binding
//! expressions (the correlation values the inner result depends on),
//! completed result sets are cached under the evaluated binding key —
//! duplicate bindings replay the cached set, and the inner plan executes
//! once per *distinct* binding. The cache is an LRU that respects
//! [`crate::ExecConfig::memory_budget_rows`] through the shared resident
//! gauge. **Hoisting** is the planner's side of the bargain:
//! correlation-independent subtrees of the inner plan are wrapped in
//! [`MaterializeOp`] (execute once, replay per re-open), and inner plans
//! shaped `σ[var.attr = key](table)` with a correlation-dependent key
//! become a [`HashProbeOp`] — one transient [`HashIndex`] build amortized
//! across all bindings, one probe per binding instead of one full scan.
//!
//! Counters: `subquery_invocations` stays one per outer row (the logical
//! nested-loop count), `apply_invocations` counts actual inner executions,
//! and `apply_cache_hits` counts rows answered from the cache — so
//! `ainv=`/`ahit=` in a profile expose exactly how much work memoization
//! removed. Caching never changes results: keys cover every free variable
//! of the inner plan, NULL bindings are cacheable values under the model's
//! total order, and a failed key evaluation falls back to plain
//! (uncached) execution.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use tmql_algebra::{eval, Plan, ScalarExpr};
use tmql_model::{Record, Result, Value};
use tmql_storage::HashIndex;

use crate::exec::ExecContext;
use crate::op::operator::{Batch, Candidates, Node, Operator};

/// A memoized inner result: the completed subquery value set and its LRU
/// stamp (monotonic use counter; smallest = least recently used).
struct CacheEntry {
    set: BTreeSet<Value>,
    stamp: u64,
}

/// Correlated Apply with inner-plan reuse and binding memoization. Outer
/// rows stream through batch-at-a-time; the subquery tree is built once
/// and re-opened (never rebuilt) for every execution.
pub struct ApplyOp<'p> {
    child: Node<'p>,
    /// The long-lived inner operator tree (kept across `close`, so nested
    /// re-opens stay cheap).
    inner: Node<'p>,
    label: &'p str,
    /// `None` = memoization off (one execution per outer row);
    /// `Some([])` = invariant subquery (single cached execution);
    /// `Some(exprs)` = cache keyed on the evaluated expressions.
    bindings: Option<&'p [ScalarExpr]>,
    cache: HashMap<Vec<Value>, CacheEntry>,
    /// stamp → key index for O(log n) LRU eviction.
    lru: BTreeMap<u64, Vec<Value>>,
    next_stamp: u64,
    /// Total rows held by cached sets (mirrored in the resident gauge
    /// while the operator is open).
    cache_rows: usize,
    gauge_held: bool,
}

impl<'p> ApplyOp<'p> {
    /// Apply `inner` to every row of the outer `child`.
    pub fn new(
        child: Node<'p>,
        inner: Node<'p>,
        label: &'p str,
        bindings: Option<&'p [ScalarExpr]>,
    ) -> ApplyOp<'p> {
        ApplyOp {
            child,
            inner,
            label,
            bindings,
            cache: HashMap::new(),
            lru: BTreeMap::new(),
            next_stamp: 0,
            cache_rows: 0,
            gauge_held: false,
        }
    }

    /// Execute the inner plan under the bindings on `ctx`'s env and
    /// collapse the result to a set.
    fn run_inner(&mut self, ctx: &mut ExecContext<'_>) -> Result<BTreeSet<Value>> {
        ctx.metrics.apply_invocations += 1;
        let rows = self.inner.run(ctx)?;
        Ok(rows.iter().map(Plan::row_output_value).collect())
    }

    /// The subquery's value set for the outer row whose bindings are on
    /// top of `ctx`'s env: from the cache when memoized, else executed.
    fn inner_set(&mut self, ctx: &mut ExecContext<'_>) -> Result<BTreeSet<Value>> {
        let Some(exprs) = self.bindings else {
            return self.run_inner(ctx);
        };
        // A key evaluation failure must not fail the query (the expression
        // might never be reached under the inner plan's own evaluation
        // order) — run uncached.
        let key: Result<Vec<Value>> = exprs.iter().map(|e| eval(e, &mut ctx.env)).collect();
        let Ok(key) = key else {
            return self.run_inner(ctx);
        };
        if let Some(e) = self.cache.get(&key) {
            ctx.metrics.apply_cache_hits += 1;
            let set = e.set.clone();
            self.touch(&key);
            return Ok(set);
        }
        let set = self.run_inner(ctx)?;
        self.insert(key, set.clone(), ctx);
        Ok(set)
    }

    /// Move `key` to the most-recently-used position.
    fn touch(&mut self, key: &[Value]) {
        if let Some(e) = self.cache.get_mut(key) {
            self.lru.remove(&e.stamp);
            e.stamp = self.next_stamp;
            self.lru.insert(self.next_stamp, key.to_vec());
            self.next_stamp += 1;
        }
    }

    /// Insert a completed result under `key`, evicting LRU entries while
    /// the cache would exceed the memory budget. A single result larger
    /// than the whole budget is not cached at all.
    fn insert(&mut self, key: Vec<Value>, set: BTreeSet<Value>, ctx: &mut ExecContext<'_>) {
        let add = set.len();
        if ctx.memory_budget_rows().is_some_and(|b| add > b) {
            return;
        }
        while ctx.over_budget(self.cache_rows + add) {
            let Some((_, old_key)) = self.lru.pop_first() else {
                break;
            };
            if let Some(old) = self.cache.remove(&old_key) {
                self.cache_rows -= old.set.len();
                ctx.resident_release(old.set.len());
            }
        }
        ctx.resident_acquire(add);
        self.cache_rows += add;
        self.lru.insert(self.next_stamp, key.clone());
        self.cache.insert(
            key,
            CacheEntry {
                set,
                stamp: self.next_stamp,
            },
        );
        self.next_stamp += 1;
    }
}

impl Operator for ApplyOp<'_> {
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        // The cache survives close/open cycles (a nested Apply re-opens
        // this operator once per enclosing binding); only its footprint
        // leaves and re-enters the resident gauge. Entries stay valid
        // across enclosing bindings: keys cover *all* free variables of
        // the subquery, including ones bound by enclosing Applys.
        if !self.gauge_held {
            ctx.resident_acquire(self.cache_rows);
            self.gauge_held = true;
        }
        self.child.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        let Some(b) = self.child.pull(ctx)? else {
            return Ok(None);
        };
        let mut out = Vec::with_capacity(b.len());
        for row in b.rows {
            ctx.metrics.subquery_invocations += 1;
            let depth = ctx.env.len();
            ctx.env.push_row(&row);
            let set = self.inner_set(ctx);
            ctx.env.truncate(depth);
            out.push(row.extend_field(self.label, Value::Set(set?))?);
        }
        Ok(Some(Batch::new(out)))
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        if self.gauge_held {
            ctx.resident_release(self.cache_rows);
            self.gauge_held = false;
        }
        self.inner.close(ctx);
        self.child.close(ctx);
    }

    fn children(&self) -> Vec<&Node<'_>> {
        // The inner tree runs once per binding and does not appear in the
        // executed profile (mirrors the cost model's exec-order walk,
        // which skips the Apply subquery); its spills count as this
        // node's.
        vec![&self.child]
    }
}

/// Replay buffer around a correlation-independent subtree of an Apply
/// inner plan: the child's first execution streams through and is
/// recorded, re-opens replay the recording. If the recording would exceed
/// the memory budget it is dropped and the operator degrades to
/// pass-through (the child re-executes per open — exactly the un-hoisted
/// behavior, so hoisting never costs memory it doesn't have, and the
/// overflowing execution itself is never repeated).
pub struct MaterializeOp<'p> {
    child: Node<'p>,
    /// Completed replay buffer (kept across close/open).
    buffer: Option<Vec<Record>>,
    /// Rows recorded so far during the first execution.
    filling: Vec<Record>,
    cursor: usize,
    /// Set once the first execution overflowed the budget; from then on
    /// every open streams the child directly.
    overflowed: bool,
    /// Rows currently counted in the resident gauge.
    acquired: usize,
}

impl<'p> MaterializeOp<'p> {
    /// Wrap a hoisted child subtree.
    pub fn new(child: Node<'p>) -> MaterializeOp<'p> {
        MaterializeOp {
            child,
            buffer: None,
            filling: Vec::new(),
            cursor: 0,
            overflowed: false,
            acquired: 0,
        }
    }
}

impl Operator for MaterializeOp<'_> {
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        ctx.resident_release(self.acquired);
        self.acquired = 0;
        self.filling.clear();
        self.cursor = 0;
        if let Some(buf) = &self.buffer {
            // Replay answers everything; the child stays closed.
            ctx.resident_acquire(buf.len());
            self.acquired = buf.len();
            return Ok(());
        }
        self.child.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        if let Some(buf) = &self.buffer {
            if self.cursor >= buf.len() {
                return Ok(None);
            }
            let end = (self.cursor + ctx.batch_size()).min(buf.len());
            let rows = buf[self.cursor..end].to_vec();
            self.cursor = end;
            return Ok(Some(Batch::new(rows)));
        }
        let next = self.child.pull(ctx)?;
        if self.overflowed {
            return Ok(next);
        }
        match &next {
            // `acquired` already covers the completed recording.
            None => self.buffer = Some(std::mem::take(&mut self.filling)),
            Some(b) => {
                ctx.resident_acquire(b.len());
                self.acquired += b.len();
                self.filling.extend(b.rows.iter().cloned());
                if ctx.over_budget(self.filling.len()) {
                    // Too big to hold: stop recording and stream from now
                    // on.
                    ctx.resident_release(self.acquired);
                    self.acquired = 0;
                    self.filling.clear();
                    self.overflowed = true;
                }
            }
        }
        Ok(next)
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        ctx.resident_release(self.acquired);
        self.acquired = 0;
        self.filling.clear();
        self.child.close(ctx);
    }

    fn children(&self) -> Vec<&Node<'_>> {
        vec![&self.child]
    }
}

/// Transient-hash-index scan for Apply inner plans shaped
/// `σ[var.attr = key](table)` with a correlation-dependent key: builds a
/// [`HashIndex`] over `table.attr` on first demand, keeps it across
/// re-opens, and answers each open with one equality probe. Probes return
/// candidate **supersets** (int/float promotion, NaN totality — the same
/// widening as [`tmql_storage::OrdIndex`]), and the full predicate is
/// re-checked per candidate, so results match the scan+filter exactly. If
/// the key evaluation fails, the operator degrades to a full position
/// scan, which reproduces plain filter semantics.
pub struct HashProbeOp<'p> {
    table: &'p str,
    var: &'p str,
    attr: &'p str,
    key: &'p ScalarExpr,
    pred: &'p ScalarExpr,
    /// Built on first demand, kept across open/close.
    index: Option<HashIndex>,
    /// Rows the index covers (its resident-gauge footprint).
    indexed_rows: usize,
    /// Candidate positions for the current open's key.
    cands: Candidates,
    gauge_held: bool,
}

impl<'p> HashProbeOp<'p> {
    /// New probe operator; the index is built on first `next_batch`.
    pub fn new(
        table: &'p str,
        var: &'p str,
        attr: &'p str,
        key: &'p ScalarExpr,
        pred: &'p ScalarExpr,
    ) -> HashProbeOp<'p> {
        HashProbeOp {
            table,
            var,
            attr,
            key,
            pred,
            index: None,
            indexed_rows: 0,
            cands: Candidates::default(),
            gauge_held: false,
        }
    }
}

impl Operator for HashProbeOp<'_> {
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.cands.reset();
        if self.index.is_some() && !self.gauge_held {
            ctx.resident_acquire(self.indexed_rows);
            self.gauge_held = true;
        }
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        if self.index.is_none() {
            let t = ctx.catalog.table(self.table)?;
            let built = HashIndex::build(t, self.attr)?;
            self.indexed_rows = t.len();
            ctx.metrics.hash_build_rows += self.indexed_rows as u64;
            ctx.resident_acquire(self.indexed_rows);
            self.gauge_held = true;
            self.index = Some(built);
        }
        let (index, key, rows) = (&self.index, self.key, self.indexed_rows);
        self.cands
            .next_batch(ctx, (self.table, self.var, self.pred), |ctx| {
                Ok(match (index, eval(key, &mut ctx.env)) {
                    (Some(idx), Ok(key)) => idx.probe_eq(&key),
                    // Key evaluation failed: fall back to checking every
                    // row (plain scan+filter semantics).
                    _ => (0..rows).collect(),
                })
            })
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.cands.reset();
        if self.gauge_held {
            ctx.resident_release(self.indexed_rows);
            self.gauge_held = false;
        }
    }
}
