//! Larger-than-memory execution: partitioned spilling for pipeline
//! breakers.
//!
//! When [`crate::ExecConfig::memory_budget_rows`] is set, every pipeline
//! breaker bounds its resident state with the classic grace discipline:
//! rows are hash-partitioned by the operator's key into
//! [`SPILL_FANOUT`]-way on-disk runs ([`tmql_storage::spill`]), and each
//! partition is then processed independently — a partition holds every row
//! that could possibly interact (equal keys, equal group keys, equal
//! values), so per-partition results concatenate to the global result.
//! A partition that still exceeds the budget is **recursively
//! repartitioned** with a fresh hash seed, up to
//! [`MAX_REPARTITION_DEPTH`]; past that (pathological skew: one key
//! carrying more rows than the whole budget) the partition is processed in
//! memory anyway — correctness first, the gauge records the overshoot.
//!
//! Three entry points spill a breaker's input:
//!
//! * [`drain_or_spill`] — accumulate a child's stream in memory, switching
//!   to partitioned spill the moment the budget is crossed (hash-join
//!   builds, grouping inputs, set-op / sort-merge operands);
//! * [`spill_stream`] / [`spill_rows`] — partition unconditionally (the
//!   probe side of a grace hash join; an already-materialized operand
//!   whose sibling spilled);
//! * [`SpillDedup`] — the hybrid dedup used by Map / Project: streams
//!   distinct rows while the seen-set fits, and degrades to a two-file
//!   (seen, candidate) partitioned dedup when it does not.
//!
//! One driver, [`Grace`], then processes the partitions of every spilled
//! breaker: each breaker supplies only its per-side [`Side`]s and a
//! per-partition kernel.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::ops::Range;

use tmql_algebra::Env;
use tmql_model::{Record, Result};
use tmql_storage::spill::{RunWriter, SpillFile};

use crate::exec::ExecContext;
use crate::metrics::Metrics;
use crate::op::exchange;
use crate::op::operator::{pop_carry, Batch, Node};

/// Number of partitions per spill pass. 8-way: a breaker at `k×` the
/// budget lands partitions at `k/8 ×`, so one pass absorbs overshoots up
/// to 8× and recursion handles the rest.
pub const SPILL_FANOUT: usize = 8;

/// Maximum recursive repartitioning depth. With [`SPILL_FANOUT`] = 8 this
/// gives up to `8^4 = 4096` effective partitions before skew is accepted.
pub const MAX_REPARTITION_DEPTH: usize = 4;

/// Partition-key function of one operator: the hash of the row's
/// partitioning key under the given seed, or `None` when the key is NULL
/// (the [`Side`] decides whether NULL-key rows are dropped or routed to
/// partition 0 so they stay together).
pub type PartFn<'p> = Box<dyn Fn(&Record, &mut Env, u64) -> Result<Option<u64>> + 'p>;

/// One input side of a partitioned breaker.
pub struct Side<'p> {
    /// How the side's rows hash to partitions.
    pub part: PartFn<'p>,
    /// Drop NULL-key rows on the way to disk (hash-join build sides, where
    /// they never match) instead of routing them to partition 0.
    pub drop_nullkey: bool,
}

/// A hasher mixing in a recursion-level seed, so repartitioning a skewed
/// partition redistributes rows instead of reproducing the same split.
pub fn seed_hasher(seed: u64) -> DefaultHasher {
    let mut h = DefaultHasher::new();
    h.write_u64(0x746d_716c ^ seed.rotate_left(17));
    h
}

/// Hash a whole record under a seed (partitioning key for dedup state,
/// where the row itself is the key).
pub fn hash_record(rec: &Record, seed: u64) -> u64 {
    let mut h = seed_hasher(seed);
    rec.hash(&mut h);
    h.finish()
}

/// Route one record into the partition its hash selects, counting the
/// spill traffic.
fn route(
    writers: &mut [RunWriter],
    side: &Side<'_>,
    rec: &Record,
    seed: u64,
    ctx: &mut ExecContext<'_>,
) -> Result<()> {
    let idx = match (side.part)(rec, &mut ctx.env, seed)? {
        Some(h) => (h % writers.len() as u64) as usize,
        None if side.drop_nullkey => return Ok(()),
        None => 0,
    };
    writers[idx].write(rec)?;
    ctx.metrics.rows_spilled += 1;
    Ok(())
}

/// Seal a set of partition writers, counting the non-empty ones. The
/// returned files keep their positions (callers pair build/probe
/// partitions by index), including empty ones.
fn finish_runs(writers: Vec<RunWriter>, ctx: &mut ExecContext<'_>) -> Result<Vec<SpillFile>> {
    let mut out = Vec::with_capacity(writers.len());
    for w in writers {
        let f = w.finish()?;
        if !f.is_empty() {
            ctx.metrics.spill_partitions += 1;
        }
        out.push(f);
    }
    Ok(out)
}

/// Outcome of [`drain_or_spill`].
pub enum Drained {
    /// The input fit in the budget. The rows are **already counted** in
    /// the resident gauge; the caller releases them when done.
    Mem(Vec<Record>),
    /// The input overflowed and was hash-partitioned to disk (seed 0).
    /// Nothing is resident.
    Spilled(Vec<SpillFile>),
}

/// Drain `child` to completion, buffering in memory while the budget
/// allows and switching to [`SPILL_FANOUT`]-way partitioned spill (seed 0)
/// the moment it does not. Without a budget this is a plain materializing
/// drain.
pub fn drain_or_spill(
    child: &mut Node<'_>,
    ctx: &mut ExecContext<'_>,
    side: &Side<'_>,
) -> Result<Drained> {
    let mut buf: Vec<Record> = Vec::new();
    let mut writers: Option<Vec<RunWriter>> = None;
    while let Some(b) = child.pull(ctx)? {
        match writers.as_mut() {
            None => {
                ctx.resident_acquire(b.len());
                buf.extend(b.rows);
                if ctx.over_budget(buf.len()) {
                    let mut ws = ctx.spill_runs(SPILL_FANOUT)?;
                    let n = buf.len();
                    for r in buf.drain(..) {
                        route(&mut ws, side, &r, 0, ctx)?;
                    }
                    ctx.resident_release(n);
                    writers = Some(ws);
                }
            }
            Some(ws) => {
                for r in b.rows {
                    route(ws, side, &r, 0, ctx)?;
                }
            }
        }
    }
    match writers {
        None => Ok(Drained::Mem(buf)),
        Some(ws) => Ok(Drained::Spilled(finish_runs(ws, ctx)?)),
    }
}

/// Drain `child` straight into partitions (seed 0), buffering nothing —
/// the probe side of a grace hash join.
pub fn spill_stream(
    child: &mut Node<'_>,
    ctx: &mut ExecContext<'_>,
    side: &Side<'_>,
) -> Result<Vec<SpillFile>> {
    let mut ws = ctx.spill_runs(SPILL_FANOUT)?;
    while let Some(b) = child.pull(ctx)? {
        for r in b.rows {
            route(&mut ws, side, &r, 0, ctx)?;
        }
    }
    finish_runs(ws, ctx)
}

/// Partition an already-materialized row vector (seed 0). The caller is
/// responsible for releasing the rows' resident accounting.
pub fn spill_rows(
    rows: Vec<Record>,
    ctx: &mut ExecContext<'_>,
    side: &Side<'_>,
) -> Result<Vec<SpillFile>> {
    let mut ws = ctx.spill_runs(SPILL_FANOUT)?;
    for r in &rows {
        route(&mut ws, side, r, 0, ctx)?;
    }
    finish_runs(ws, ctx)
}

/// Re-split one oversized partition with a fresh seed (skew recovery).
/// Reads the run back batch-at-a-time, so memory stays at one batch.
fn repartition(
    file: SpillFile,
    ctx: &mut ExecContext<'_>,
    side: &Side<'_>,
    seed: u64,
) -> Result<Vec<SpillFile>> {
    let mut ws = ctx.spill_runs(SPILL_FANOUT)?;
    let mut reader = file.reader()?;
    loop {
        let batch = reader.read_batch(ctx.batch_size())?;
        if batch.is_empty() {
            break;
        }
        for r in &batch {
            route(&mut ws, side, r, seed, ctx)?;
        }
    }
    finish_runs(ws, ctx)
}

// ---------------------------------------------------------------------------
// The grace driver
// ---------------------------------------------------------------------------

/// Total rows of `runs[sides]`.
fn rows_of(runs: &[SpillFile], sides: &Range<usize>) -> u64 {
    runs[sides.clone()].iter().map(SpillFile::rows).sum()
}

/// The partition loop every spilled breaker shares: hash join, ν, GROUP
/// BY, sort-merge join, set operations and dedup.
///
/// A partition is one spill run per side (paired by position) plus its
/// repartitioning depth. The driver pops partitions in order and:
///
/// * **repartitions** one whose `sized_by` sides exceed the budget with
///   the seed `depth`, up to [`MAX_REPARTITION_DEPTH`], pushing the
///   sub-partitions back to the front so order is preserved;
/// * **skips** one whose `driven_by` sides are empty (it cannot produce
///   output);
/// * otherwise adds it to a **wave** of at most `ctx.threads()`
///   partitions whose summed `sized_by` rows fit the budget (always at
///   least one), runs the breaker's kernel once per partition through
///   [`exchange::scatter`], merges the workers' [`Metrics`] and queues the
///   outputs in partition order for emission.
///
/// `threads = 1` is a wave of width one, so the serial and parallel paths
/// are the same code. A wave's partition state counts in the resident
/// gauge while the wave runs; its outputs count until they are emitted.
pub struct Grace<'p> {
    sides: Vec<Side<'p>>,
    sized_by: Range<usize>,
    driven_by: Range<usize>,
    /// Partitions still to process (`None` until the breaker spills).
    queue: Option<VecDeque<(Vec<SpillFile>, usize)>>,
    /// Rows ready to emit, already counted in the resident gauge.
    ready: VecDeque<Record>,
}

impl<'p> Grace<'p> {
    /// A driver over `sides`. The rows of the `sized_by` sides are a
    /// partition's resident size (they decide "oversize" and charge the
    /// wave budget); a partition whose `driven_by` sides hold no rows is
    /// skipped.
    pub fn new(sides: Vec<Side<'p>>, sized_by: Range<usize>, driven_by: Range<usize>) -> Self {
        Grace {
            sides,
            sized_by,
            driven_by,
            queue: None,
            ready: VecDeque::new(),
        }
    }

    /// Side `i`, for spilling its input.
    pub fn side(&self, i: usize) -> &Side<'p> {
        &self.sides[i]
    }

    /// Start the partition loop over the sides' seed-0 runs (one vector
    /// per side, paired by position).
    pub fn engage(&mut self, runs: Vec<Vec<SpillFile>>) {
        self.queue = Some(transpose(runs).into_iter().map(|p| (p, 1)).collect());
    }

    /// Queue rows for emission; the caller has already counted them in the
    /// resident gauge.
    pub fn hold(&mut self, rows: Vec<Record>) {
        self.ready.extend(rows);
    }

    /// Release held rows and drop every partition (open / close).
    pub fn reset(&mut self, ctx: &mut ExecContext<'_>) {
        ctx.resident_release(self.ready.len());
        self.ready.clear();
        self.queue = None;
    }

    /// Next batch of held or partition output, running waves of `kernel`
    /// as needed; `None` once every partition is done.
    pub fn next_batch<K>(&mut self, kernel: &K, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>>
    where
        K: Fn(&[SpillFile], &mut Env, &mut Metrics) -> Result<Vec<Record>> + Sync,
    {
        loop {
            if let Some(b) = pop_carry(&mut self.ready, ctx.batch_size(), ctx) {
                return Ok(Some(b));
            }
            let Some(queue) = self.queue.as_mut() else {
                return Ok(None);
            };
            let mut wave: Vec<Vec<SpillFile>> = Vec::new();
            let mut wave_rows: u64 = 0;
            while wave.len() < ctx.threads() {
                let Some((runs, depth)) = queue.pop_front() else {
                    break;
                };
                let size = rows_of(&runs, &self.sized_by);
                if ctx.over_budget(size as usize) && depth < MAX_REPARTITION_DEPTH && size > 1 {
                    let mut split = Vec::with_capacity(runs.len());
                    for (run, side) in runs.into_iter().zip(&self.sides) {
                        split.push(repartition(run, ctx, side, depth as u64)?);
                    }
                    for sub in transpose(split).into_iter().rev() {
                        queue.push_front((sub, depth + 1));
                    }
                    continue;
                }
                if rows_of(&runs, &self.driven_by) == 0 {
                    continue;
                }
                if !wave.is_empty() && ctx.over_budget((wave_rows + size) as usize) {
                    queue.push_front((runs, depth));
                    break;
                }
                wave_rows += size;
                wave.push(runs);
            }
            if wave.is_empty() {
                self.queue = None;
                return Ok(None);
            }
            ctx.resident_acquire(wave_rows as usize);
            // Each worker evaluates against its own copy of the
            // correlation bindings.
            let base_env = &ctx.env;
            let results = exchange::scatter(ctx.threads(), wave, |runs| {
                let mut env = base_env.clone();
                let mut m = Metrics::new();
                kernel(&runs, &mut env, &mut m).map(|out| (out, m))
            });
            ctx.resident_release(wave_rows as usize);
            for res in results {
                let (rows, m) = res?;
                ctx.metrics += m;
                ctx.resident_acquire(rows.len());
                self.ready.extend(rows);
            }
        }
    }
}

/// Turn per-side partition vectors into per-partition side vectors.
fn transpose(runs: Vec<Vec<SpillFile>>) -> Vec<Vec<SpillFile>> {
    let mut parts: Vec<Vec<SpillFile>> = Vec::new();
    for side in runs {
        parts.resize_with(side.len(), Vec::new);
        for (part, run) in parts.iter_mut().zip(side) {
            part.push(run);
        }
    }
    parts
}

// ---------------------------------------------------------------------------
// Spillable dedup (Map / Project seen-sets)
// ---------------------------------------------------------------------------

/// Hybrid streaming/spilling dedup state.
///
/// While the distinct-set fits the budget, [`SpillDedup::offer`] behaves
/// like a streaming `BTreeSet::insert`: the first occurrence of a row is
/// returned for immediate emission. On overflow the operator degrades to a
/// breaker: the seen-set is spilled into per-partition "seen" runs (these
/// rows were **already emitted** and must be suppressed later), every
/// further candidate goes to a paired "candidate" run, and after
/// [`SpillDedup::seal`] the [`Grace`] driver dedups each partition's
/// candidates against its seen-set and emits the new distinct rows.
pub struct SpillDedup {
    seen: BTreeSet<Record>,
    writers: Option<DedupWriters>,
    grace: Grace<'static>,
}

struct DedupWriters {
    seen_parts: Vec<RunWriter>,
    cand_parts: Vec<RunWriter>,
}

/// Whole-record partitioning: dedup's key is the row itself.
fn dedup_side() -> Side<'static> {
    Side {
        part: Box::new(|r, _env, seed| Ok(Some(hash_record(r, seed)))),
        drop_nullkey: false,
    }
}

/// Dedup one (seen, candidates) partition: the candidates not yet seen,
/// each once.
fn dedup_kernel(runs: &[SpillFile], _env: &mut Env, _m: &mut Metrics) -> Result<Vec<Record>> {
    let mut seen: BTreeSet<Record> = runs[0].reader()?.read_all()?.into_iter().collect();
    let mut out = Vec::new();
    for r in runs[1].reader()?.read_all()? {
        if !seen.contains(&r) {
            seen.insert(r.clone());
            out.push(r);
        }
    }
    Ok(out)
}

impl Default for SpillDedup {
    fn default() -> Self {
        SpillDedup {
            seen: BTreeSet::new(),
            writers: None,
            // Both runs count as partition state; only candidates emit.
            grace: Grace::new(vec![dedup_side(), dedup_side()], 0..2, 1..2),
        }
    }
}

impl SpillDedup {
    /// Fresh, empty dedup state (streaming mode).
    pub fn new() -> SpillDedup {
        SpillDedup::default()
    }

    /// Offer a candidate row. Returns `Some(row)` when the row is new and
    /// can be emitted immediately (streaming mode); `None` when it is a
    /// duplicate or was deferred to a spill partition.
    pub fn offer(&mut self, rec: Record, ctx: &mut ExecContext<'_>) -> Result<Option<Record>> {
        if let Some(w) = self.writers.as_mut() {
            route(&mut w.cand_parts, self.grace.side(1), &rec, 0, ctx)?;
            return Ok(None);
        }
        if self.seen.contains(&rec) {
            return Ok(None);
        }
        if ctx.over_budget(self.seen.len() + 1) {
            // Overflow: spill the emitted set, defer this and all further
            // candidates.
            let seen_parts = ctx.spill_runs(SPILL_FANOUT)?;
            let cand_parts = ctx.spill_runs(SPILL_FANOUT)?;
            let mut w = DedupWriters {
                seen_parts,
                cand_parts,
            };
            let n = self.seen.len();
            for r in std::mem::take(&mut self.seen) {
                route(&mut w.seen_parts, self.grace.side(0), &r, 0, ctx)?;
            }
            ctx.resident_release(n);
            route(&mut w.cand_parts, self.grace.side(1), &rec, 0, ctx)?;
            self.writers = Some(w);
            return Ok(None);
        }
        ctx.resident_acquire(1);
        self.seen.insert(rec.clone());
        Ok(Some(rec))
    }

    /// Input exhausted: seal the spill writers (if any) and hand the
    /// partitions to the drain phase.
    pub fn seal(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        if let Some(w) = self.writers.take() {
            let seen_files = finish_runs(w.seen_parts, ctx)?;
            let cand_files = finish_runs(w.cand_parts, ctx)?;
            self.grace.engage(vec![seen_files, cand_files]);
        }
        Ok(())
    }

    /// Next batch of deferred distinct rows from the drain phase; `None`
    /// when the drain is complete (immediately in streaming mode, where
    /// nothing was deferred).
    pub fn next_deferred(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<Batch>> {
        self.grace.next_batch(&dedup_kernel, ctx)
    }

    /// Release all resident accounting and drop every spill artifact
    /// (open/close path of the owning operator).
    pub fn reset(&mut self, ctx: &mut ExecContext<'_>) {
        ctx.resident_release(self.seen.len());
        self.seen.clear();
        self.writers = None;
        self.grace.reset(ctx);
    }
}
