//! Volcano-style streaming operator tree.
//!
//! Every physical operator implements [`Operator`]: `open` / `next_batch`
//! / `close`, where [`next_batch`](Operator::next_batch) produces a
//! [`Batch`] of at most [`ExecContext::batch_size`](crate::exec::ExecContext::batch_size)
//! rows (joins and unnests buffer overflow in a carry queue so batches keep
//! their nominal capacity). Scan / Filter / Map / Extend / Project /
//! Unnest / Apply stream batch-at-a-time; pipeline breakers (the hash join
//! *build side*, the sort-merge sort, ν / GROUP BY grouping, set
//! operations, and dedup state) consume their input before producing, but
//! still **emit** in batches — so memory is bounded by operator *state*
//! (build tables, sort buffers, dedup sets), not by every intermediate
//! result at once. [`Metrics::peak_resident_rows`] tracks exactly that
//! high-water mark; [`Metrics::batches_emitted`] counts the batch traffic.
//!
//! Under [`crate::ExecConfig::memory_budget_rows`] the breakers cap their
//! resident state and spill the excess to disk (grace-hash partitioning of
//! hash joins, partitioned grouping / set-op / sort state, hybrid dedup) —
//! see [`crate::op::spill`].
//!
//! [`build`] wraps every operator in a [`Node`], which owns what all
//! operators share: the [`PhysPlan`] node it came from (no expression
//! cloning; the profile label is [`PhysPlan::op_label`]), its [`OpStats`]
//! and the metering of every call. Correlation bindings live in one
//! [`Env`] on the [`ExecContext`]: [`Apply`](PhysPlan::Apply) pushes each
//! outer row there and re-opens one long-lived subquery tree — the true
//! nested loop the paper's unnesting removes, without per-row planning or
//! allocation (see [`crate::op::apply`]).

use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

use tmql_algebra::{eval, eval_predicate, Env, Plan, ScalarExpr};
use tmql_model::{Record, Result, Value};
use tmql_storage::spill::{RunReader, SpillFile};
use tmql_storage::{OrdIndex, Table};

use crate::exec::ExecContext;
use crate::metrics::Metrics;
use crate::op::exchange;
use crate::op::spill::{self, Drained, Grace, PartFn, Side, SpillDedup};
use crate::op::{self, group, hash, merge, nl};
use crate::physical::{JoinKind, PhysPlan};

/// A unit of streamed data: up to `batch_size` rows.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Batch {
    /// The rows (at most the configured batch size for pipelined
    /// operators; never empty when returned from `next_batch`).
    pub rows: Vec<Record>,
}

impl Batch {
    /// Wrap a row vector.
    pub fn new(rows: Vec<Record>) -> Batch {
        Batch { rows }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Per-operator output counters, reported by the profile tree.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpStats {
    /// Rows this operator has emitted.
    pub rows_out: u64,
    /// Batches this operator has emitted.
    pub batches_out: u64,
    /// Records this operator wrote to spill runs (0 unless a
    /// [`crate::ExecConfig::memory_budget_rows`] forced it to disk;
    /// repartitioning passes re-count their rows, mirroring
    /// [`Metrics::rows_spilled`]). This is the node's share of the
    /// [`Metrics::rows_spilled`] growth during its own calls, minus its
    /// profile children's shares, so an `Apply` also reports the spills of
    /// its inner tree.
    pub rows_spilled: u64,
    /// Wall-clock nanoseconds spent inside this operator's `open`,
    /// `next_batch`, and `close` calls, *inclusive* of its children
    /// (a parent's span covers the pulls it issues downstream, exactly
    /// like `EXPLAIN ANALYZE` elsewhere). Always 0 when
    /// [`crate::ExecConfig::collect_timing`] is off. Spans are measured
    /// on the driver thread: a parallel worker wave running inside one
    /// operator's `next_batch` contributes the wave's wall-clock — the
    /// slowest worker, not the sum of per-worker CPU.
    pub wall_nanos: u64,
}

/// A physical operator in the streaming executor.
///
/// Lifecycle: `open` (reset state, open children), then `next_batch` until
/// `None`, then `close` (release buffered state, close children).
/// Implementations return `None` only when exhausted and never return an
/// empty batch. They reach their children through the children's
/// [`Node`]s, never directly, so every call is metered.
pub trait Operator {
    /// Reset to the start of the stream and open children.
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()>;

    /// Produce the next batch, or `None` when exhausted.
    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>>;

    /// Release buffered state and close children.
    fn close(&mut self, ctx: &mut ExecContext<'_>);

    /// Children shown under this operator in the profile, left to right.
    fn children(&self) -> Vec<&Node<'_>> {
        Vec::new()
    }
}

/// One operator of the executed tree together with what every operator
/// shares: the plan node it was built from, its output counters, and the
/// metering of its calls (row/batch counters, wall-clock spans, spill
/// attribution). Parents and drivers call the node's `open` / `pull` /
/// `close`, never the operator's own methods.
pub struct Node<'p> {
    plan: &'p PhysPlan,
    op: Box<dyn Operator + 'p>,
    /// `rows_spilled` here is inclusive of the children's calls;
    /// [`Node::stats`] subtracts theirs.
    stats: OpStats,
}

impl<'p> Node<'p> {
    fn new(plan: &'p PhysPlan, op: impl Operator + 'p) -> Node<'p> {
        Node {
            plan,
            op: Box::new(op),
            stats: OpStats::default(),
        }
    }

    /// Run one operator call, charging its wall-clock span (when
    /// [`crate::ExecConfig::collect_timing`] is on) and the spill traffic
    /// it caused to this node.
    fn metered<T>(
        &mut self,
        ctx: &mut ExecContext<'_>,
        call: impl FnOnce(&mut dyn Operator, &mut ExecContext<'_>) -> T,
    ) -> T {
        let span = ctx.collect_timing().then(std::time::Instant::now);
        let spilled = ctx.metrics.rows_spilled;
        let r = call(self.op.as_mut(), ctx);
        self.stats.rows_spilled += ctx.metrics.rows_spilled - spilled;
        if let Some(t) = span {
            self.stats.wall_nanos += t.elapsed().as_nanos() as u64;
        }
        r
    }

    /// Metered [`Operator::open`].
    pub fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.metered(ctx, |op, ctx| op.open(ctx))
    }

    /// Metered [`Operator::next_batch`]: also updates the global and the
    /// per-operator batch/row counters.
    pub fn pull(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        let next = self.metered(ctx, |op, ctx| op.next_batch(ctx))?;
        if let Some(b) = &next {
            ctx.metrics.batches_emitted += 1;
            ctx.metrics.rows_emitted += b.len() as u64;
            self.stats.batches_out += 1;
            self.stats.rows_out += b.len() as u64;
        }
        Ok(next)
    }

    /// Metered [`Operator::close`].
    pub fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.metered(ctx, |op, ctx| op.close(ctx))
    }

    /// Open, drain to completion, and close (also when open or a pull
    /// fails), returning every row.
    pub fn run(&mut self, ctx: &mut ExecContext<'_>) -> Result<Vec<Record>> {
        let result = self.open(ctx).and_then(|()| {
            let mut out = Vec::new();
            while let Some(b) = self.pull(ctx)? {
                out.extend(b.rows);
            }
            Ok(out)
        });
        self.close(ctx);
        result
    }

    /// Display label ([`PhysPlan::op_label`]).
    pub fn label(&self) -> String {
        self.plan.op_label()
    }

    /// Output counters so far.
    pub fn stats(&self) -> OpStats {
        let children: u64 = self.children().iter().map(|c| c.stats.rows_spilled).sum();
        OpStats {
            rows_spilled: self.stats.rows_spilled.saturating_sub(children),
            ..self.stats
        }
    }

    /// Profile children, left to right.
    pub fn children(&self) -> Vec<&Node<'_>> {
        self.op.children()
    }
}

/// One executed operator's profile line: its tree position, output
/// counters, and (when the caller supplied estimates) the cost model's
/// predicted output rows — estimated vs. actual side by side, which is
/// what makes q-error observable.
#[derive(Debug, Clone, PartialEq)]
pub struct OpProfile {
    /// Depth in the operator tree (root = 0).
    pub depth: usize,
    /// Operator label (mirrors [`PhysPlan::op_label`]).
    pub label: String,
    /// Rows emitted.
    pub rows_out: u64,
    /// Batches emitted.
    pub batches_out: u64,
    /// Rows this operator spilled to disk (0 without a memory budget).
    pub rows_spilled: u64,
    /// Inclusive wall-clock nanoseconds (see [`OpStats::wall_nanos`];
    /// 0 when timing collection was off).
    pub wall_nanos: u64,
    /// Estimated output rows from the cost model, in the same pre-order
    /// position (None when executed without estimates).
    pub est_rows: Option<f64>,
}

impl OpProfile {
    /// The q-error of this operator's row estimate: `max(est/actual,
    /// actual/est)` with both sides floored at 1 row (so empty outputs
    /// and sub-row estimates stay finite). `None` without an estimate.
    pub fn qerror(&self) -> Option<f64> {
        self.est_rows.map(|est| {
            let est = est.max(1.0);
            let actual = (self.rows_out as f64).max(1.0);
            (est / actual).max(actual / est)
        })
    }
}

/// Collect per-operator profiles in pre-order. `est` supplies estimated
/// rows in the same pre-order (as produced by the cost model's
/// exec-order walk over the physical plan the tree was built from).
pub fn collect_profile(root: &Node<'_>, est: Option<&[f64]>) -> Vec<OpProfile> {
    fn go(
        node: &Node<'_>,
        depth: usize,
        est: Option<&[f64]>,
        idx: &mut usize,
        out: &mut Vec<OpProfile>,
    ) {
        let s = node.stats();
        let est_rows = est.and_then(|v| v.get(*idx)).copied();
        *idx += 1;
        out.push(OpProfile {
            depth,
            label: node.label(),
            rows_out: s.rows_out,
            batches_out: s.batches_out,
            rows_spilled: s.rows_spilled,
            wall_nanos: s.wall_nanos,
            est_rows,
        });
        for c in node.children() {
            go(c, depth + 1, est, idx, out);
        }
    }
    let mut out = Vec::new();
    go(root, 0, est, &mut 0, &mut out);
    out
}

/// Render collected profiles as the indented tree shown by `EXPLAIN
/// ANALYZE`-style output; estimated rows print next to actual rows when
/// present.
pub fn render_profile(entries: &[OpProfile]) -> String {
    let mut out = String::new();
    for e in entries {
        out.push_str(&"  ".repeat(e.depth));
        // `spilled=` appears only when the operator actually spilled, so
        // in-memory profiles read exactly as before the spill tier existed.
        let spilled = if e.rows_spilled > 0 {
            format!(" spilled={}", e.rows_spilled)
        } else {
            String::new()
        };
        // `time=` appears only when spans were collected, so profiles
        // taken with `collect_timing` off render exactly as before the
        // observability layer existed.
        let time = if e.wall_nanos > 0 {
            format!(" time={}", tmql_obs::human_duration_nanos(e.wall_nanos))
        } else {
            String::new()
        };
        match e.est_rows {
            Some(est) => out.push_str(&format!(
                "{} [rows={} est={} batches={}{spilled}{time}]\n",
                e.label,
                e.rows_out,
                crate::cost::format_rows(est),
                e.batches_out
            )),
            None => out.push_str(&format!(
                "{} [rows={} batches={}{spilled}{time}]\n",
                e.label, e.rows_out, e.batches_out
            )),
        }
    }
    out
}

/// Render the operator tree with per-operator output metrics (the
/// post-execution profile shown by `EXPLAIN`).
pub fn render_tree(root: &Node<'_>) -> String {
    render_profile(&collect_profile(root, None))
}

/// Partition-key function over equi-join keys: the seeded hash of the
/// evaluated key values, `None` for NULL keys (the caller drops them on
/// build sides and routes them to partition 0 elsewhere).
fn keys_part<'p>(keys: &'p [ScalarExpr]) -> PartFn<'p> {
    Box::new(move |r, env, seed| {
        Ok(
            op::with_row(env, r, |e| op::eval_keys(keys, e))?.map(|vals| {
                let mut h = spill::seed_hasher(seed);
                vals.hash(&mut h);
                h.finish()
            }),
        )
    })
}

/// Partition-key function over a row's output value (set operations
/// compare whole output values, so equal values must co-partition).
fn value_part() -> PartFn<'static> {
    Box::new(|r, _env, seed| {
        let mut h = spill::seed_hasher(seed);
        Plan::row_output_value(r).hash(&mut h);
        Ok(Some(h.finish()))
    })
}

/// Pop up to `n` rows off a carry buffer as a batch (releasing them from
/// the resident-row gauge), or `None` when the buffer is empty.
pub(crate) fn pop_carry(
    carry: &mut VecDeque<Record>,
    n: usize,
    ctx: &mut ExecContext<'_>,
) -> Option<Batch> {
    if carry.is_empty() {
        return None;
    }
    let k = n.min(carry.len());
    let rows: Vec<Record> = carry.drain(..k).collect();
    ctx.resident_release(rows.len());
    Some(Batch::new(rows))
}

/// The output side of an operator whose input batches expand into any
/// number of rows (joins, μ): expanded rows wait in a carry queue, which
/// is resident state, and leave in full batches, the last one partial.
#[derive(Default)]
struct Carry {
    rows: VecDeque<Record>,
    done: bool,
}

impl Carry {
    /// Drop queued rows and rewind (open / close).
    fn reset(&mut self, ctx: &mut ExecContext<'_>) {
        ctx.resident_release(self.rows.len());
        self.rows.clear();
        self.done = false;
    }

    /// Next batch: pull `input` and `expand` each of its batches until a
    /// full batch is queued or the input is exhausted.
    fn next_batch(
        &mut self,
        input: &mut Node<'_>,
        ctx: &mut ExecContext<'_>,
        mut expand: impl FnMut(Vec<Record>, &mut ExecContext<'_>) -> Result<Vec<Record>>,
    ) -> Result<Option<Batch>> {
        let n = ctx.batch_size();
        loop {
            if self.rows.len() >= n || (self.done && !self.rows.is_empty()) {
                return Ok(pop_carry(&mut self.rows, n, ctx));
            }
            if self.done {
                return Ok(None);
            }
            match input.pull(ctx)? {
                None => self.done = true,
                Some(b) => {
                    let out = expand(b.rows, ctx)?;
                    ctx.resident_acquire(out.len());
                    self.rows.extend(out);
                }
            }
        }
    }
}

/// The ordered index a plan expects on `table.attr`.
fn index_on<'c>(ctx: &ExecContext<'c>, table: &str, attr: &str) -> Result<&'c OrdIndex> {
    ctx.catalog.index_on(table, attr).ok_or_else(|| {
        tmql_model::ModelError::SchemaError(format!(
            "plan expects an index on {table}.{attr} but none exists"
        ))
    })
}

/// The candidate row positions of one index probe, streamed in ascending
/// position order through [`tmql_storage::Table::fetch_rows`] (consecutive
/// candidates coalesce into single page-friendly batch reads). A probe
/// returns a **superset** of the qualifying rows — int/float key promotion
/// and NaN totality are handled by widening, not by trusting the index —
/// so the full predicate is re-checked against every candidate, and only
/// non-empty batches are emitted.
#[derive(Default)]
pub(crate) struct Candidates {
    /// `None` until the first pull after `reset` probes.
    positions: Option<Vec<usize>>,
    cursor: usize,
}

impl Candidates {
    /// Forget the probe (open / close).
    pub(crate) fn reset(&mut self) {
        self.positions = None;
        self.cursor = 0;
    }

    /// Next batch of qualifying rows of `table`, bound to `var`; `probe`
    /// computes the positions on the first call.
    pub(crate) fn next_batch(
        &mut self,
        ctx: &mut ExecContext<'_>,
        (table, var, pred): (&str, &str, &ScalarExpr),
        probe: impl FnOnce(&mut ExecContext<'_>) -> Result<Vec<usize>>,
    ) -> Result<Option<Batch>> {
        if self.positions.is_none() {
            let positions = probe(ctx)?;
            ctx.metrics.index_probes += 1;
            ctx.metrics.index_hits += positions.len() as u64;
            self.positions = Some(positions);
        }
        let positions = self.positions.as_deref().unwrap_or_default();
        let t = ctx.catalog.table(table)?;
        while self.cursor < positions.len() {
            let end = (self.cursor + ctx.batch_size()).min(positions.len());
            let chunk = &positions[self.cursor..end];
            self.cursor = end;
            let mut rows = Vec::with_capacity(chunk.len());
            for row in t.fetch_rows(chunk)? {
                let r = Record::new([(var.to_string(), Value::Tuple(row))])?;
                ctx.metrics.comparisons += 1;
                if op::with_row(&mut ctx.env, &r, |e| eval_predicate(pred, e))? {
                    rows.push(r);
                }
            }
            if !rows.is_empty() {
                return Ok(Some(Batch::new(rows)));
            }
        }
        Ok(None)
    }
}

/// Build the operator tree for a physical plan. Correlation bindings are
/// not part of the tree: every operator evaluates against the
/// [`ExecContext`]'s env, so one tree serves every outer row of an Apply.
pub fn build(plan: &PhysPlan) -> Node<'_> {
    match plan {
        PhysPlan::ScanTable { table, var } => Node::new(
            plan,
            ScanTableOp {
                table,
                var,
                pos: 0,
                carry: VecDeque::new(),
                exhausted: false,
            },
        ),
        PhysPlan::IndexScan {
            table,
            var,
            attr,
            eq,
            lo,
            hi,
            pred,
        } => Node::new(
            plan,
            IndexScanOp {
                table,
                var,
                attr,
                eq: eq.as_ref(),
                lo: lo.as_ref(),
                hi: hi.as_ref(),
                pred,
                cands: Candidates::default(),
            },
        ),
        PhysPlan::IndexNLJoin {
            left,
            right_table,
            right_var,
            attr,
            key,
            pred,
            kind,
        } => Node::new(
            plan,
            IndexNLJoinOp {
                left: build(left),
                right_table,
                right_var,
                attr,
                key,
                pred,
                kind,
                out: Carry::default(),
            },
        ),
        PhysPlan::ScanExpr { expr, var } => Node::new(
            plan,
            ScanExprOp {
                expr,
                var,
                items: None,
                overflow: None,
                overflow_reader: None,
            },
        ),
        PhysPlan::Filter { input, pred } => Node::new(
            plan,
            FilterOp {
                child: build(input),
                pred,
            },
        ),
        PhysPlan::Map { input, expr, var } => {
            DistinctOp::node(plan, build(input), RowFn::Map { expr, var })
        }
        PhysPlan::Project { input, vars } => DistinctOp::node(
            plan,
            build(input),
            RowFn::Project(vars.iter().map(String::as_str).collect()),
        ),
        PhysPlan::Extend { input, expr, var } => Node::new(
            plan,
            ExtendOp {
                child: build(input),
                expr,
                var,
            },
        ),
        PhysPlan::Unnest {
            input,
            expr,
            elem_var,
            drop_vars,
        } => Node::new(
            plan,
            UnnestOp {
                child: build(input),
                expr,
                elem_var,
                drop_vars,
                out: Carry::default(),
            },
        ),
        PhysPlan::NlJoin {
            left,
            right,
            pred,
            kind,
        } => Node::new(
            plan,
            NlJoinOp {
                left: build(left),
                right: build(right),
                pred,
                kind,
                inner: None,
                out: Carry::default(),
            },
        ),
        PhysPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
            kind,
        } => Node::new(
            plan,
            HashJoinOp {
                left: build(left),
                right: build(right),
                left_keys,
                right_keys,
                residual: residual.as_ref(),
                kind,
                // Build rows are partition state; probe rows drive output.
                // NULL build keys never match: drop them before they hit
                // disk. NULL probe keys go to partition 0, where they probe
                // empty and take the kind's dangling path.
                grace: Grace::new(
                    vec![
                        Side {
                            part: keys_part(right_keys),
                            drop_nullkey: true,
                        },
                        Side {
                            part: keys_part(left_keys),
                            drop_nullkey: false,
                        },
                    ],
                    0..1,
                    1..2,
                ),
                table: None,
                built: false,
                out: Carry::default(),
            },
        ),
        PhysPlan::MergeJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
            kind,
        } => Breaker::node(
            plan,
            vec![
                (build(left), keys_part(left_keys)),
                (build(right), keys_part(right_keys)),
            ],
            Box::new(move |ins, env, m| {
                merge::join(
                    &ins[0],
                    &ins[1],
                    left_keys,
                    right_keys,
                    residual.as_ref(),
                    kind,
                    env,
                    m,
                )
            }),
        ),
        PhysPlan::Nest {
            input,
            keys,
            value,
            label,
            star,
        } => Breaker::node(
            plan,
            // Groups co-partition by the hash of the grouping fields.
            vec![(
                build(input),
                Box::new(move |r, _env, seed| {
                    let mut h = spill::seed_hasher(seed);
                    for k in keys {
                        r.get(k)?.hash(&mut h);
                    }
                    Ok(Some(h.finish()))
                }),
            )],
            Box::new(move |ins, env, m| group::nest(&ins[0], keys, value, label, *star, env, m)),
        ),
        PhysPlan::GroupAgg {
            input,
            keys,
            aggs,
            var,
        } => Breaker::node(
            plan,
            vec![(
                build(input),
                Box::new(move |r, env, seed| {
                    let mut h = spill::seed_hasher(seed);
                    op::with_row(env, r, |e| {
                        for (_, ke) in keys {
                            eval(ke, e)?.hash(&mut h);
                        }
                        Ok(())
                    })?;
                    Ok(Some(h.finish()))
                }),
            )],
            Box::new(move |ins, env, m| group::group_agg(&ins[0], keys, aggs, var, env, m)),
        ),
        PhysPlan::SetOp {
            kind,
            left,
            right,
            var,
        } => Breaker::node(
            plan,
            // Equal output values co-partition, so per-partition
            // union/intersect/except concatenate to the global result.
            vec![(build(left), value_part()), (build(right), value_part())],
            Box::new(move |ins, _env, m| group::set_op(*kind, &ins[0], &ins[1], var, m)),
        ),
        PhysPlan::Apply {
            input,
            subquery,
            label,
            bindings,
        } => Node::new(
            plan,
            crate::op::apply::ApplyOp::new(
                build(input),
                build(subquery),
                label,
                bindings.as_deref(),
            ),
        ),
        PhysPlan::Materialize { input } => {
            Node::new(plan, crate::op::apply::MaterializeOp::new(build(input)))
        }
        PhysPlan::HashProbe {
            table,
            var,
            attr,
            key,
            pred,
        } => Node::new(
            plan,
            crate::op::apply::HashProbeOp::new(table, var, attr, key, pred),
        ),
    }
}

// ---------------------------------------------------------------------------
// Streaming leaves
// ---------------------------------------------------------------------------

/// Cursor scan over a stored table; borrows one batch at a time via
/// [`tmql_storage::Table::batch`], never cloning the whole extension.
///
/// In-memory tables scan serially: a worker would only copy rows, and a
/// wave costs more than the copy. A disk-backed table with
/// [`ExecContext::threads`] > 1 scans morsel-driven: each refill issues
/// one wave of `threads` consecutive row ranges (morsels) to scoped
/// workers, which fault their pages in concurrently through the
/// latch-based buffer pool, and gathers the results in range order into a
/// carry queue, so emitted rows keep the exact serial order. Morsels are
/// `⌈batch_size / threads⌉` rows each, so a wave holds roughly **one**
/// batch in flight regardless of the worker count: `peak_resident_rows`
/// stays bounded by `O(batch_size)` instead of growing as
/// `threads × batch_size`.
struct ScanTableOp<'p> {
    table: &'p str,
    var: &'p str,
    pos: usize,
    carry: VecDeque<Record>,
    exhausted: bool,
}

/// Rows `start..start + n` of `table`, each bound to `var`.
fn scan_rows(table: &Table, var: &str, start: usize, n: usize) -> Result<Vec<Record>> {
    table
        .batch(start, n)?
        .into_iter()
        .map(|row| Record::new([(var.to_string(), Value::Tuple(row))]))
        .collect()
}

impl Operator for ScanTableOp<'_> {
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.pos = 0;
        ctx.resident_release(self.carry.len());
        self.carry.clear();
        self.exhausted = false;
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        let n = ctx.batch_size();
        let threads = ctx.threads();
        let t = ctx.catalog.table(self.table)?;
        if threads <= 1 || !t.is_disk_backed() {
            let rows = scan_rows(t, self.var, self.pos, n)?;
            if rows.is_empty() {
                return Ok(None);
            }
            self.pos += rows.len();
            ctx.metrics.rows_scanned += rows.len() as u64;
            return Ok(Some(Batch::new(rows)));
        }
        loop {
            if let Some(b) = pop_carry(&mut self.carry, n, ctx) {
                return Ok(Some(b));
            }
            if self.exhausted {
                return Ok(None);
            }
            // One wave: `threads` consecutive morsels totalling about one
            // batch, gathered in order.
            let var = self.var;
            let m = n.div_ceil(threads).max(1);
            let starts: Vec<usize> = (0..threads).map(|i| self.pos + i * m).collect();
            let results = exchange::scatter(threads, starts, |start| scan_rows(t, var, start, m));
            for res in results {
                let rows = res?;
                if rows.len() < m {
                    self.exhausted = true;
                }
                self.pos += rows.len();
                ctx.metrics.rows_scanned += rows.len() as u64;
                ctx.resident_acquire(rows.len());
                self.carry.extend(rows);
                if self.exhausted {
                    break;
                }
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        ctx.resident_release(self.carry.len());
        self.carry.clear();
    }
}

/// Index-backed selection: probe the secondary index on `table.attr` for
/// the candidate row positions once at first pull, then stream them as
/// [`Candidates`].
struct IndexScanOp<'p> {
    table: &'p str,
    var: &'p str,
    attr: &'p str,
    eq: Option<&'p ScalarExpr>,
    lo: Option<&'p ScalarExpr>,
    hi: Option<&'p ScalarExpr>,
    pred: &'p ScalarExpr,
    cands: Candidates,
}

impl Operator for IndexScanOp<'_> {
    fn open(&mut self, _ctx: &mut ExecContext<'_>) -> Result<()> {
        self.cands.reset();
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        let (table, attr, eq, lo, hi) = (self.table, self.attr, self.eq, self.lo, self.hi);
        self.cands
            .next_batch(ctx, (table, self.var, self.pred), |ctx| {
                let idx = index_on(ctx, table, attr)?;
                let env = &mut ctx.env;
                Ok(match eq {
                    Some(eq) => idx.probe_eq(&eval(eq, env)?),
                    None => {
                        let lo = lo.map(|e| eval(e, env)).transpose()?;
                        let hi = hi.map(|e| eval(e, env)).transpose()?;
                        idx.probe_range(lo.as_ref(), hi.as_ref())
                    }
                })
            })
    }

    fn close(&mut self, _ctx: &mut ExecContext<'_>) {
        self.cands.reset();
    }
}

/// Iterate a set expression (correlated or constant): the set value is one
/// evaluation, buffered and re-emitted in batches. The buffered set is
/// resident state (it counts toward [`Metrics::peak_resident_rows`]);
/// under a memory budget only the first budget-many elements stay in
/// memory and the overflow spills to a run that streams back after the
/// buffer drains.
struct ScanExprOp<'p> {
    expr: &'p ScalarExpr,
    var: &'p str,
    items: Option<VecDeque<Value>>,
    overflow: Option<SpillFile>,
    overflow_reader: Option<RunReader>,
}

impl ScanExprOp<'_> {
    fn release(&mut self, ctx: &mut ExecContext<'_>) {
        if let Some(items) = self.items.take() {
            ctx.resident_release(items.len());
        }
        self.overflow = None;
        self.overflow_reader = None;
    }
}

impl Operator for ScanExprOp<'_> {
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.release(ctx);
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        if self.items.is_none() && self.overflow.is_none() {
            let set = eval(self.expr, &mut ctx.env)?;
            let mut items: VecDeque<Value> = set.as_set()?.iter().cloned().collect();
            if ctx.over_budget(items.len()) {
                // Keep a budget's worth resident; the tail goes to disk
                // as ready-to-emit rows.
                let keep = ctx
                    .memory_budget_rows()
                    .expect("over_budget implies a budget");
                let mut w = ctx.spill_runs(1)?.pop().expect("one run requested");
                for item in items.drain(keep..) {
                    w.write(&Record::new([(self.var.to_string(), item)])?)?;
                }
                ctx.metrics.rows_spilled += w.rows();
                ctx.metrics.spill_partitions += 1;
                self.overflow = Some(w.finish()?);
            }
            ctx.resident_acquire(items.len());
            self.items = Some(items);
        }
        if let Some(items) = self.items.as_mut() {
            if !items.is_empty() {
                let k = ctx.batch_size().min(items.len());
                let mut rows = Vec::with_capacity(k);
                for _ in 0..k {
                    let item = items.pop_front().expect("k <= len");
                    rows.push(Record::new([(self.var.to_string(), item)])?);
                }
                ctx.resident_release(k);
                ctx.metrics.rows_scanned += rows.len() as u64;
                return Ok(Some(Batch::new(rows)));
            }
        }
        // Memory drained: stream the spilled tail, if any.
        let Some(file) = self.overflow.as_ref() else {
            return Ok(None);
        };
        if self.overflow_reader.is_none() {
            self.overflow_reader = Some(file.reader()?);
        }
        let reader = self.overflow_reader.as_mut().expect("opened above");
        let rows = reader.read_batch(ctx.batch_size())?;
        if rows.is_empty() {
            return Ok(None);
        }
        ctx.metrics.rows_scanned += rows.len() as u64;
        Ok(Some(Batch::new(rows)))
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.release(ctx);
    }
}

// ---------------------------------------------------------------------------
// Streaming unary operators
// ---------------------------------------------------------------------------

/// Streaming σ: one predicate evaluation (= one `comparisons` tick) per
/// input row.
struct FilterOp<'p> {
    child: Node<'p>,
    pred: &'p ScalarExpr,
}

impl Operator for FilterOp<'_> {
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.child.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        loop {
            let Some(b) = self.child.pull(ctx)? else {
                return Ok(None);
            };
            let mut out = Vec::new();
            for row in b.rows {
                ctx.metrics.comparisons += 1;
                let keep = op::with_row(&mut ctx.env, &row, |e| eval_predicate(self.pred, e))?;
                if keep {
                    out.push(row);
                }
            }
            if !out.is_empty() {
                return Ok(Some(Batch::new(out)));
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.child.close(ctx);
    }

    fn children(&self) -> Vec<&Node<'_>> {
        vec![&self.child]
    }
}

/// The per-row transform of a [`DistinctOp`].
enum RowFn<'p> {
    /// Generalized projection to a single binding: evaluate `expr` and
    /// bind it to `var`.
    Map { expr: &'p ScalarExpr, var: &'p str },
    /// π onto a variable subset.
    Project(Vec<&'p str>),
}

/// Streaming Map / Project: transform each row, then emit it unless an
/// equal row was emitted before. The set of distinct records seen is the
/// only resident memory; under a memory budget it spills via
/// [`SpillDedup`], deferring emission of the overflow to a partitioned
/// drain after the input is exhausted.
struct DistinctOp<'p> {
    child: Node<'p>,
    row_fn: RowFn<'p>,
    dedup: SpillDedup,
    sealed: bool,
}

impl<'p> DistinctOp<'p> {
    fn node(plan: &'p PhysPlan, child: Node<'p>, row_fn: RowFn<'p>) -> Node<'p> {
        Node::new(
            plan,
            DistinctOp {
                child,
                row_fn,
                dedup: SpillDedup::new(),
                sealed: false,
            },
        )
    }
}

impl Operator for DistinctOp<'_> {
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.dedup.reset(ctx);
        self.sealed = false;
        self.child.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        loop {
            if self.sealed {
                return self.dedup.next_deferred(ctx);
            }
            let Some(b) = self.child.pull(ctx)? else {
                self.dedup.seal(ctx)?;
                self.sealed = true;
                continue;
            };
            let mut out = Vec::new();
            for row in b.rows {
                let rec = match &self.row_fn {
                    RowFn::Map { expr, var } => {
                        let v = op::with_row(&mut ctx.env, &row, |e| eval(expr, e))?;
                        Record::new([(var.to_string(), v)])?
                    }
                    RowFn::Project(vars) => row.project(vars)?,
                };
                if let Some(rec) = self.dedup.offer(rec, ctx)? {
                    out.push(rec);
                }
            }
            if !out.is_empty() {
                return Ok(Some(Batch::new(out)));
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.dedup.reset(ctx);
        self.child.close(ctx);
    }

    fn children(&self) -> Vec<&Node<'_>> {
        vec![&self.child]
    }
}

/// Streaming binding extension (no dedup: input rows stay distinct).
struct ExtendOp<'p> {
    child: Node<'p>,
    expr: &'p ScalarExpr,
    var: &'p str,
}

impl Operator for ExtendOp<'_> {
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.child.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        let Some(b) = self.child.pull(ctx)? else {
            return Ok(None);
        };
        let mut out = Vec::with_capacity(b.len());
        for row in b.rows {
            let v = op::with_row(&mut ctx.env, &row, |e| eval(self.expr, e))?;
            out.push(row.extend_field(self.var, v)?);
        }
        Ok(Some(Batch::new(out)))
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.child.close(ctx);
    }

    fn children(&self) -> Vec<&Node<'_>> {
        vec![&self.child]
    }
}

/// Streaming μ: each input batch expands independently; a [`Carry`] caps
/// the emitted batch size despite per-row fan-out.
struct UnnestOp<'p> {
    child: Node<'p>,
    expr: &'p ScalarExpr,
    elem_var: &'p str,
    drop_vars: &'p [String],
    out: Carry,
}

impl Operator for UnnestOp<'_> {
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.out.reset(ctx);
        self.child.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        self.out.next_batch(&mut self.child, ctx, |rows, ctx| {
            group::unnest(
                &rows,
                self.expr,
                self.elem_var,
                self.drop_vars,
                &mut ctx.env,
            )
        })
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.out.reset(ctx);
        self.child.close(ctx);
    }

    fn children(&self) -> Vec<&Node<'_>> {
        vec![&self.child]
    }
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

/// The materialized inner side of a nested-loop join: resident, or — past
/// the memory budget — a single on-disk run replayed per outer block.
enum NlInner {
    Mem(Vec<Record>),
    Spilled(SpillFile),
}

/// Nested-loop join: materializes the inner (right) operand once, streams
/// the outer (left) operand batch-at-a-time. The materialized inner side
/// counts toward [`Metrics::peak_resident_rows`]; under a memory budget
/// it spills to a run instead, and each outer batch block-joins against
/// the run streamed back chunk-at-a-time ([`nl::join_chunk`] /
/// [`nl::finish_block`] carry per-row match state across chunks, so
/// semi/anti/outer/nest semantics survive the chunking).
struct NlJoinOp<'p> {
    left: Node<'p>,
    right: Node<'p>,
    pred: &'p ScalarExpr,
    kind: &'p JoinKind,
    inner: Option<NlInner>,
    out: Carry,
}

impl NlJoinOp<'_> {
    fn release_inner(&mut self, ctx: &mut ExecContext<'_>) {
        if let Some(NlInner::Mem(r)) = self.inner.take() {
            ctx.resident_release(r.len());
        }
    }

    /// Drain the right child, tracking residency as it accumulates; once
    /// the buffer exceeds the budget, move it (and the rest of the
    /// stream) into one spill run.
    fn materialize_inner(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        let mut rows: Vec<Record> = Vec::new();
        let mut writer = None;
        while let Some(b) = self.right.pull(ctx)? {
            match writer.as_mut() {
                None => {
                    ctx.resident_acquire(b.len());
                    rows.extend(b.rows);
                    if ctx.over_budget(rows.len()) {
                        let mut w = ctx.spill_runs(1)?.pop().expect("one run requested");
                        for r in &rows {
                            w.write(r)?;
                        }
                        ctx.resident_release(rows.len());
                        rows.clear();
                        writer = Some(w);
                    }
                }
                Some(w) => {
                    for r in &b.rows {
                        w.write(r)?;
                    }
                }
            }
        }
        self.inner = Some(match writer {
            None => NlInner::Mem(rows),
            Some(w) => {
                ctx.metrics.rows_spilled += w.rows();
                ctx.metrics.spill_partitions += 1;
                NlInner::Spilled(w.finish()?)
            }
        });
        Ok(())
    }
}

impl Operator for NlJoinOp<'_> {
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.release_inner(ctx);
        self.out.reset(ctx);
        self.left.open(ctx)?;
        self.right.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        if self.inner.is_none() {
            self.materialize_inner(ctx)?;
        }
        let inner = self.inner.as_ref().expect("materialized above");
        let (pred, kind) = (self.pred, self.kind);
        self.out.next_batch(&mut self.left, ctx, |left, ctx| {
            let file = match inner {
                NlInner::Mem(right) => {
                    return nl::join(&left, right, pred, kind, &mut ctx.env, &mut ctx.metrics)
                }
                NlInner::Spilled(file) => file,
            };
            // Block nested loop: replay the run in batch-sized chunks
            // against this outer block.
            let mut state = nl::BlockState::new(left.len(), kind);
            let mut out = Vec::new();
            let mut reader = file.reader()?;
            loop {
                let chunk = reader.read_batch(ctx.batch_size())?;
                if chunk.is_empty() {
                    break;
                }
                ctx.resident_acquire(chunk.len());
                let res = nl::join_chunk(
                    &left,
                    &chunk,
                    pred,
                    kind,
                    &mut ctx.env,
                    &mut ctx.metrics,
                    &mut state,
                    &mut out,
                );
                ctx.resident_release(chunk.len());
                res?;
            }
            nl::finish_block(&left, kind, &mut state, &mut out)?;
            Ok(out)
        })
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.release_inner(ctx);
        self.out.reset(ctx);
        self.left.close(ctx);
        self.right.close(ctx);
    }

    fn children(&self) -> Vec<&Node<'_>> {
        vec![&self.left, &self.right]
    }
}

/// Index nested-loop join: the inner table is never scanned — for each
/// outer row the join key is evaluated and the secondary index on
/// `right_table.attr` probed for candidate inner positions, which are
/// fetched and run through the shared nested-loop match/emit kernel
/// ([`nl::join_chunk`] + [`nl::finish_block`] with a one-row outer
/// block). Probes return equality-candidate **supersets** (int/float
/// promotion, NaN totality), and the kernel re-evaluates the full join
/// predicate per pair, so results match `NlJoin` exactly for every
/// [`JoinKind`] — semi/anti membership rewrites become per-row probes.
struct IndexNLJoinOp<'p> {
    left: Node<'p>,
    right_table: &'p str,
    right_var: &'p str,
    attr: &'p str,
    key: &'p ScalarExpr,
    pred: &'p ScalarExpr,
    kind: &'p JoinKind,
    out: Carry,
}

impl Operator for IndexNLJoinOp<'_> {
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.out.reset(ctx);
        self.left.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        let (table, var, pred, kind) = (self.right_table, self.right_var, self.pred, self.kind);
        let (attr, key) = (self.attr, self.key);
        self.out.next_batch(&mut self.left, ctx, |left, ctx| {
            let idx = index_on(ctx, table, attr)?;
            let t = ctx.catalog.table(table)?;
            let mut out = Vec::new();
            for l in &left {
                let k = op::with_row(&mut ctx.env, l, |e| eval(key, e))?;
                let positions = idx.probe_eq(&k);
                ctx.metrics.index_probes += 1;
                ctx.metrics.index_hits += positions.len() as u64;
                let mut state = nl::BlockState::new(1, kind);
                let outer = std::slice::from_ref(l);
                // Candidates stream in position-ascending chunks so one
                // wide probe (a hot key) never materializes more than a
                // batch at a time.
                for chunk in positions.chunks(ctx.batch_size()) {
                    let inner = t
                        .fetch_rows(chunk)?
                        .into_iter()
                        .map(|row| Record::new([(var.to_string(), Value::Tuple(row))]))
                        .collect::<Result<Vec<_>>>()?;
                    nl::join_chunk(
                        outer,
                        &inner,
                        pred,
                        kind,
                        &mut ctx.env,
                        &mut ctx.metrics,
                        &mut state,
                        &mut out,
                    )?;
                }
                nl::finish_block(outer, kind, &mut state, &mut out)?;
            }
            Ok(out)
        })
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.out.reset(ctx);
        self.left.close(ctx);
    }

    fn children(&self) -> Vec<&Node<'_>> {
        vec![&self.left]
    }
}

/// Hash join: the build side (right) is the pipeline breaker; the probe
/// side (left) streams. Under a memory budget the build switches to
/// **grace hash**: both sides hash-partition to spill files on the join
/// key, then the [`Grace`] driver joins each partition independently (an
/// in-memory build over the partition's build rows, probed by its probe
/// run).
struct HashJoinOp<'p> {
    left: Node<'p>,
    right: Node<'p>,
    left_keys: &'p [ScalarExpr],
    right_keys: &'p [ScalarExpr],
    residual: Option<&'p ScalarExpr>,
    kind: &'p JoinKind,
    /// Sides: build (0), probe (1).
    grace: Grace<'p>,
    table: Option<hash::HashTable>,
    built: bool,
    out: Carry,
}

impl HashJoinOp<'_> {
    /// Release the build table, the carry and every grace partition.
    fn close_state(&mut self, ctx: &mut ExecContext<'_>) {
        if let Some(t) = self.table.take() {
            ctx.resident_release(t.len());
        }
        self.out.reset(ctx);
        self.grace.reset(ctx);
    }

    /// Drain the build side into an in-memory table, or — past the budget
    /// — partition both sides and engage the grace driver.
    fn build_side(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        match spill::drain_or_spill(&mut self.right, ctx, self.grace.side(0))? {
            Drained::Mem(r) => {
                let n_in = r.len();
                let table = hash::build(r, self.right_keys, &mut ctx.env, &mut ctx.metrics)?;
                // `build` *moves* the drained rows (already counted by the
                // drain) into the table; only the NULL-key rows it drops
                // leave resident state.
                ctx.resident_release(n_in - table.len());
                self.table = Some(table);
            }
            Drained::Spilled(build_runs) => {
                let probe_runs = spill::spill_stream(&mut self.left, ctx, self.grace.side(1))?;
                self.grace.engage(vec![build_runs, probe_runs]);
            }
        }
        Ok(())
    }
}

impl Operator for HashJoinOp<'_> {
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.close_state(ctx);
        self.built = false;
        self.left.open(ctx)?;
        self.right.open(ctx)
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        if !self.built {
            self.built = true;
            self.build_side(ctx)?;
        }
        let (left_keys, right_keys) = (self.left_keys, self.right_keys);
        let (residual, kind) = (self.residual, self.kind);
        let Some(table) = self.table.as_ref() else {
            let kernel = |runs: &[SpillFile], env: &mut Env, m: &mut Metrics| {
                let table = hash::build(runs[0].reader()?.read_all()?, right_keys, env, m)?;
                let probe = runs[1].reader()?.read_all()?;
                hash::probe(&probe, &table, left_keys, residual, kind, env, m)
            };
            return self.grace.next_batch(&kernel, ctx);
        };
        // In-memory path: stream probe batches from the left child.
        self.out.next_batch(&mut self.left, ctx, |rows, ctx| {
            hash::probe(
                &rows,
                table,
                left_keys,
                residual,
                kind,
                &mut ctx.env,
                &mut ctx.metrics,
            )
        })
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.close_state(ctx);
        self.left.close(ctx);
        self.right.close(ctx);
    }

    fn children(&self) -> Vec<&Node<'_>> {
        vec![&self.left, &self.right]
    }
}

// ---------------------------------------------------------------------------
// Pipeline breakers (generic over the materialized kernel)
// ---------------------------------------------------------------------------

/// Materialized kernel of a breaker: every input's rows in, in input
/// order. `Fn + Sync` so a wave can run it concurrently over several spill
/// partitions — all mutable state (env, metrics) comes in through the
/// arguments.
type Kernel<'p> =
    Box<dyn Fn(&[Vec<Record>], &mut Env, &mut Metrics) -> Result<Vec<Record>> + Sync + 'p>;

/// A pipeline breaker over one or two inputs: drains them, runs a
/// materialized kernel (ν / ν* / GROUP BY over one input; sort-merge join
/// or set operation over two), then re-emits the result in batches.
///
/// Under a memory budget each input partitions on a key that co-locates
/// every interacting row (grouping keys, equi-join keys, whole output
/// values for set operations), and the [`Grace`] driver runs the kernel
/// per partition; per-partition outputs concatenate to the in-memory
/// result (up to emission order, which set semantics absorbs). The budget
/// bounds the inputs' *combined* state, so two individually fitting
/// inputs still spill when their sum overflows; an input already buffered
/// in memory is then partitioned post hoc so the pairing stays aligned.
struct Breaker<'p> {
    inputs: Vec<Node<'p>>,
    kernel: Kernel<'p>,
    grace: Grace<'p>,
    drained: bool,
}

impl<'p> Breaker<'p> {
    /// A breaker over `inputs`, each with its partition-key function.
    fn node(
        plan: &'p PhysPlan,
        inputs: Vec<(Node<'p>, PartFn<'p>)>,
        kernel: Kernel<'p>,
    ) -> Node<'p> {
        let (inputs, sides): (Vec<_>, Vec<_>) = inputs
            .into_iter()
            .map(|(input, part)| {
                let side = Side {
                    part,
                    drop_nullkey: false,
                };
                (input, side)
            })
            .unzip();
        let all = 0..sides.len();
        Node::new(
            plan,
            Breaker {
                inputs,
                kernel,
                grace: Grace::new(sides, all.clone(), all),
                drained: false,
            },
        )
    }

    /// Drain every input, then run the kernel in memory or hand the
    /// partitioned inputs to the grace driver.
    fn drain_inputs(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        let mut drained = Vec::with_capacity(self.inputs.len());
        for (i, input) in self.inputs.iter_mut().enumerate() {
            drained.push(spill::drain_or_spill(input, ctx, self.grace.side(i))?);
        }
        let in_mem: usize = drained
            .iter()
            .map(|d| match d {
                Drained::Mem(rows) => rows.len(),
                Drained::Spilled(_) => 0,
            })
            .sum();
        if drained.iter().all(|d| matches!(d, Drained::Mem(_))) && !ctx.over_budget(in_mem) {
            let inputs: Vec<Vec<Record>> = drained
                .into_iter()
                .map(|d| match d {
                    Drained::Mem(rows) => rows,
                    Drained::Spilled(_) => unreachable!("all inputs are in memory"),
                })
                .collect();
            let out = (self.kernel)(&inputs, &mut ctx.env, &mut ctx.metrics)?;
            ctx.resident_acquire(out.len());
            ctx.resident_release(in_mem);
            self.grace.hold(out);
            return Ok(());
        }
        let mut runs = Vec::with_capacity(drained.len());
        for (i, d) in drained.into_iter().enumerate() {
            runs.push(match d {
                Drained::Spilled(files) => files,
                Drained::Mem(rows) => {
                    let n = rows.len();
                    let files = spill::spill_rows(rows, ctx, self.grace.side(i))?;
                    ctx.resident_release(n);
                    files
                }
            });
        }
        self.grace.engage(runs);
        Ok(())
    }
}

impl Operator for Breaker<'_> {
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.grace.reset(ctx);
        self.drained = false;
        for input in &mut self.inputs {
            input.open(ctx)?;
        }
        Ok(())
    }

    fn next_batch(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        if !self.drained {
            self.drained = true;
            self.drain_inputs(ctx)?;
        }
        let kernel = &self.kernel;
        let run_kernel = |runs: &[SpillFile], env: &mut Env, m: &mut Metrics| {
            let inputs = runs
                .iter()
                .map(|run| run.reader()?.read_all())
                .collect::<Result<Vec<_>>>()?;
            kernel(&inputs, env, m)
        };
        self.grace.next_batch(&run_kernel, ctx)
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) {
        self.grace.reset(ctx);
        for input in &mut self.inputs {
            input.close(ctx);
        }
    }

    fn children(&self) -> Vec<&Node<'_>> {
        self.inputs.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecConfig;
    use crate::exec::ExecContext;
    use tmql_algebra::ScalarExpr as E;
    use tmql_storage::{table::int_table, Catalog};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let rows: Vec<Vec<i64>> = (0..10).map(|i| vec![i, i % 3]).collect();
        cat.register(int_table(
            "X",
            &["a", "b"],
            &rows.iter().map(Vec::as_slice).collect::<Vec<_>>(),
        ))
        .unwrap();
        cat
    }

    fn scan_filter() -> PhysPlan {
        PhysPlan::Filter {
            input: Box::new(PhysPlan::ScanTable {
                table: "X".into(),
                var: "x".into(),
            }),
            pred: E::cmp(tmql_algebra::CmpOp::Gt, E::path("x", &["a"]), E::lit(3i64)),
        }
    }

    #[test]
    fn batches_respect_batch_size() {
        let cat = catalog();
        let plan = PhysPlan::ScanTable {
            table: "X".into(),
            var: "x".into(),
        };
        // In-memory tables scan serially at any thread count, so the
        // exact shape is pinned: full batches then the rest.
        for threads in [1, 4] {
            let config = ExecConfig::default().batch_size(3).threads(threads);
            let mut ctx = ExecContext::with_config(&cat, &config);
            let mut root = build(&plan);
            root.open(&mut ctx).unwrap();
            let mut sizes = Vec::new();
            while let Some(b) = root.pull(&mut ctx).unwrap() {
                assert!(!b.is_empty(), "operators never emit empty batches");
                sizes.push(b.len());
            }
            root.close(&mut ctx);
            assert_eq!(sizes, vec![3, 3, 3, 1], "threads={threads}");
            assert_eq!(ctx.metrics.batches_emitted, 4, "threads={threads}");
            assert_eq!(ctx.metrics.rows_scanned, 10, "threads={threads}");
        }
    }

    #[test]
    fn per_op_stats_show_in_profile_tree() {
        let cat = catalog();
        let plan = scan_filter();
        let mut ctx = ExecContext::with_config(&cat, &ExecConfig::default().batch_size(4));
        let mut root = build(&plan);
        let rows = root.run(&mut ctx).unwrap();
        assert_eq!(rows.len(), 6);
        let tree = render_tree(&root);
        assert!(tree.contains("Filter [rows=6"), "{tree}");
        assert!(tree.contains("Scan(X) [rows=10"), "{tree}");
    }

    #[test]
    fn resident_gauge_returns_to_zero_after_close() {
        let cat = catalog();
        // A breaker (Nest) plus dedup state (Map): both must release.
        let plan = PhysPlan::Nest {
            input: Box::new(PhysPlan::Map {
                input: Box::new(PhysPlan::ScanTable {
                    table: "X".into(),
                    var: "x".into(),
                }),
                expr: E::path("x", &["b"]),
                var: "v".into(),
            }),
            keys: vec!["v".into()],
            value: E::var("v"),
            label: "vs".into(),
            star: false,
        };
        let mut ctx = ExecContext::with_config(&cat, &ExecConfig::default().batch_size(2));
        let mut root = build(&plan);
        let _ = root.run(&mut ctx).unwrap();
        assert!(
            ctx.metrics.peak_resident_rows > 0,
            "breaker state was tracked"
        );
        assert_eq!(ctx.resident_rows(), 0, "close released everything");
    }
}
