//! The closed loop: one client issues the next operation only after the
//! previous one returned, and every result is checked.

use std::collections::BTreeSet;
use std::time::Instant;

use tmql::{
    Catalog, Database, Estimator, EstimatorCostModel, Metrics, Plan, QueryOptions, TmqlError,
    Value, WalActivity,
};
use tmql_exec::ExecConfig;
use tmql_storage::PoolStats;

use crate::fixture::{side_table, Fixture, References, SIDE_TABLE};

/// The pipeline stages the traced run times, in `Database::run_pipeline`
/// order. The calls do not nest, so each span is a self time.
pub const STAGES: [&str; 7] = [
    "lang.parse_us",
    "lang.typecheck_us",
    "translate.translate_us",
    "core.optimize_us",
    "exec.lower_us",
    "exec.estimate_us",
    "exec.execute_us",
];

/// Work counters recorded per read statement: the executor's `Metrics`,
/// the result size, and the buffer-pool deltas around the statement.
pub const COUNTERS: [&str; 18] = [
    "exec.rows_scanned",
    "exec.comparisons",
    "exec.hash_build_rows",
    "exec.hash_probes",
    "exec.rows_sorted",
    "exec.subquery_invocations",
    "exec.apply_invocations",
    "exec.apply_cache_hits",
    "exec.peak_resident_rows",
    "exec.rows_spilled",
    "exec.spill_partitions",
    "exec.index_probes",
    "exec.total_work",
    "exec.result_rows",
    "storage.pool_hits",
    "storage.pool_misses",
    "storage.pool_evictions",
    "storage.pool_writebacks",
];

/// Index of a counter in [`COUNTERS`].
pub fn counter(name: &str) -> usize {
    COUNTERS
        .iter()
        .position(|c| *c == name)
        .unwrap_or_else(|| panic!("unknown counter {name}"))
}

fn counter_values(m: &Metrics, rows: usize, before: PoolStats, after: PoolStats) -> [u64; 18] {
    [
        m.rows_scanned,
        m.comparisons,
        m.hash_build_rows,
        m.hash_probes,
        m.rows_sorted,
        m.subquery_invocations,
        m.apply_invocations,
        m.apply_cache_hits,
        m.peak_resident_rows,
        m.rows_spilled,
        m.spill_partitions,
        m.index_probes,
        m.total_work(),
        rows as u64,
        after.hits - before.hits,
        after.misses - before.misses,
        after.evictions - before.evictions,
        after.writebacks - before.writebacks,
    ]
}

/// Logical operators counted in the optimized plans: the paper's decision.
pub const PLAN_NODES: [&str; 7] = [
    "core.plan.semijoin",
    "core.plan.antijoin",
    "core.plan.nestjoin",
    "core.plan.outerjoin",
    "core.plan.nest",
    "core.plan.groupagg",
    "core.plan.apply",
];

/// Count [`PLAN_NODES`] in a plan.
pub fn plan_nodes(plan: &Plan) -> [u64; 7] {
    let mut out = [0u64; 7];
    let mut stack = vec![plan];
    while let Some(p) = stack.pop() {
        let slot = match p {
            Plan::SemiJoin { .. } => Some(0),
            Plan::AntiJoin { .. } => Some(1),
            Plan::NestJoin { .. } => Some(2),
            Plan::LeftOuterJoin { .. } => Some(3),
            Plan::Nest { .. } => Some(4),
            Plan::GroupAgg { .. } => Some(5),
            Plan::Apply { .. } => Some(6),
            _ => None,
        };
        if let Some(i) = slot {
            out[i] += 1;
        }
        stack.extend(p.children());
    }
    out
}

/// Per-statement accumulator of one counter vector.
#[derive(Debug, Clone)]
pub struct CounterAcc {
    /// Executions folded in.
    pub n: u64,
    /// Sums.
    pub sum: [u64; 18],
    /// Minimum per counter.
    pub min: [u64; 18],
    /// Maximum per counter.
    pub max: [u64; 18],
}

impl Default for CounterAcc {
    fn default() -> Self {
        CounterAcc {
            n: 0,
            sum: [0; 18],
            min: [u64::MAX; 18],
            max: [0; 18],
        }
    }
}

impl CounterAcc {
    fn add(&mut self, v: &[u64; 18]) {
        self.n += 1;
        for (i, &x) in v.iter().enumerate() {
            self.sum[i] += x;
            self.min[i] = self.min[i].min(x);
            self.max[i] = self.max[i].max(x);
        }
    }

    /// Mean of counter `i` over this statement's executions.
    pub fn mean(&self, i: usize) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum[i] as f64 / self.n as f64
        }
    }
}

/// Everything one statement accumulated over the run.
#[derive(Debug, Clone, Default)]
pub struct StmtStats {
    /// Untraced `query_with` latencies, µs.
    pub latencies_us: Vec<f64>,
    /// Process CPU time spent inside those `query_with` calls, ns.
    pub cpu_ns: u64,
    /// Work counters over every execution (traced or not).
    pub counters: CounterAcc,
    /// Optimized plan of the first successful `query_with`.
    pub plan: Option<Plan>,
    /// Worst per-operator q-error seen.
    pub max_qerror: f64,
}

/// Timings and WAL deltas of the write transactions.
#[derive(Debug, Clone, Default)]
pub struct TxnStats {
    /// Whole BEGIN..COMMIT latencies, µs.
    pub latencies_us: Vec<f64>,
    /// Process CPU time spent inside the transactions, ns.
    pub cpu_ns: u64,
    /// Summed `begin`, `replace`, `commit` times, µs.
    pub part_us: [f64; 3],
    /// Summed WAL bytes appended.
    pub wal_bytes: u64,
    /// Summed WAL fsyncs.
    pub wal_syncs: u64,
    /// Summed checkpoints.
    pub checkpoints: u64,
}

/// The result of one closed-loop run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Per statement, in fixture order.
    pub stmts: Vec<StmtStats>,
    /// Write transactions.
    pub txns: TxnStats,
    /// Complete passes over the statement mix.
    pub passes: u64,
    /// Operations attempted (reads and transactions).
    pub attempted: u64,
    /// Operations that errored or returned a wrong result.
    pub failed: u64,
    /// Traced executions whose plan or result differed from `query_with`.
    pub fidelity_failures: u64,
    /// Wall time of the measured loop, seconds.
    pub wall_secs: f64,
    /// First few failure messages.
    pub errors: Vec<String>,
    /// Spans of the traced executions, in order.
    pub spans: Vec<Span>,
}

impl Outcome {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }
}

/// One recorded span: a whole traced statement (`stage = None`, which
/// also covers building the result set) or one stage call inside it.
/// Spans of one statement share `request`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Traced statement sequence number.
    pub request: u64,
    /// Statement index in the fixture.
    pub stmt: usize,
    /// Index into [`STAGES`], or `None` for the statement span (the parent
    /// of its stage spans).
    pub stage: Option<usize>,
    /// Start, ns since the loop started.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
}

/// How long to run.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Until the first pass boundary after this much time.
    Seconds(f64),
    /// Exactly this many passes.
    Passes(u64),
}

/// Type information for the checker, as the facade supplies it.
struct CatalogTypes<'a>(&'a Catalog);

impl tmql_algebra::typing::TableTypes for CatalogTypes<'_> {
    fn row_ty(&self, table: &str) -> tmql_model::Result<tmql::Ty> {
        self.0.row_ty(table)
    }
}

/// What one traced execution produced.
struct Traced {
    optimized: Plan,
    values: BTreeSet<Value>,
    metrics: Metrics,
    /// Stage boundaries; `marks[8]` follows the result-set collection.
    marks: [Instant; 9],
}

/// `Database::run_pipeline`, stage by stage, with a span around each call
/// into a layer's crate.
fn run_traced(db: &Database, src: &str, opts: QueryOptions) -> Result<Traced, TmqlError> {
    let cat = db.catalog();
    let mut marks = [Instant::now(); 9];
    let ast = tmql_lang::parse_query(src)?;
    marks[1] = Instant::now();
    if opts.typecheck {
        tmql_lang::check_query(&ast, &CatalogTypes(cat))?;
    }
    marks[2] = Instant::now();
    let extensions: BTreeSet<String> = cat.table_names().map(str::to_string).collect();
    let translated = tmql_translate::translate_query(&ast, &extensions)?;
    marks[3] = Instant::now();
    let optimizer = tmql_core::Optimizer {
        strategy: opts.strategy,
        apply_rules: opts.apply_rules,
    };
    let model = EstimatorCostModel(
        Estimator::with_budget(cat, opts.memory_budget_rows).with_threads(opts.threads),
    );
    let optimized = optimizer.optimize_with(translated, Some(&model));
    marks[4] = Instant::now();
    let config = ExecConfig {
        join_algo: opts.join_algo,
        batch_size: opts.batch_size,
        memory_budget_rows: opts.memory_budget_rows,
        threads: opts.threads.max(1),
        apply_cache: opts.apply_cache,
        collect_timing: opts.collect_timing,
    };
    let phys = tmql_exec::lower(&optimized, cat, &config)?;
    marks[5] = Instant::now();
    let est = Estimator::new(cat).exec_order_rows_phys(&phys);
    marks[6] = Instant::now();
    let mut ctx = tmql_exec::ExecContext::with_config(cat, &config);
    let (rows, _ops) =
        tmql_exec::execute_collect(&phys, &mut ctx, &tmql_algebra::Env::new(), Some(&est))?;
    marks[7] = Instant::now();
    let values = rows.iter().map(Plan::row_output_value).collect();
    marks[8] = Instant::now();
    Ok(Traced {
        optimized,
        values,
        metrics: ctx.metrics,
        marks,
    })
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used, all threads (exited ones included), in
/// ns. Unlike wall time it leaves out time the host's hypervisor gave to
/// other guests (steal).
fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, which the crate-level `compile_error!`
    // requires), and `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

fn pool(db: &Database) -> PoolStats {
    db.catalog().pool_stats().unwrap_or_default()
}

fn wal(db: &Database) -> WalActivity {
    db.catalog().wal_activity().unwrap_or_default()
}

/// One BEGIN / replace / COMMIT of the write-side table, then a read-back
/// of the committed version.
fn write_txn(db: &mut Database, version: u64, rows: usize, out: &mut Outcome) {
    let before = wal(db);
    let table = side_table(version, rows);
    let cpu = process_cpu_ns();
    let t0 = Instant::now();
    let result = (|| -> Result<[Instant; 3], TmqlError> {
        db.begin()?;
        let t1 = Instant::now();
        db.catalog_mut().replace(table)?;
        let t2 = Instant::now();
        db.commit()?;
        Ok([t1, t2, Instant::now()])
    })();
    let cpu = process_cpu_ns() - cpu;
    let [t1, t2, t3] = match result {
        Ok(t) => t,
        Err(e) => {
            if db.in_transaction() {
                let _ = db.rollback();
            }
            out.fail(format!("write transaction {version}: {e}"));
            return;
        }
    };
    let after = wal(db);
    let tx = &mut out.txns;
    tx.latencies_us.push((t3 - t0).as_secs_f64() * 1e6);
    tx.cpu_ns += cpu;
    tx.part_us[0] += (t1 - t0).as_secs_f64() * 1e6;
    tx.part_us[1] += (t2 - t1).as_secs_f64() * 1e6;
    tx.part_us[2] += (t3 - t2).as_secs_f64() * 1e6;
    tx.wal_bytes += after.bytes_appended_total - before.bytes_appended_total;
    tx.wal_syncs += after.syncs_total - before.syncs_total;
    tx.checkpoints += after.checkpoints_total - before.checkpoints_total;
    if let Err(e) = check_side_table(db, version, rows) {
        out.fail(format!("write transaction {version}: {e}"));
    }
}

fn check_side_table(db: &Database, version: u64, rows: usize) -> Result<(), String> {
    if db.in_transaction() {
        return Err("transaction still open after COMMIT".into());
    }
    let cat = db.catalog();
    let table = cat.table(SIDE_TABLE).map_err(|e| e.to_string())?;
    let got: BTreeSet<i64> = table
        .rows_vec()
        .map_err(|e| e.to_string())?
        .iter()
        .filter_map(|r| r.get("b").and_then(Value::as_int).ok())
        .collect();
    let first = version as i64 * rows as i64;
    let want: BTreeSet<i64> = (first..first + rows as i64).collect();
    let stats_rows = cat.stats(SIDE_TABLE).map(|s| s.cardinality);
    if got != want || stats_rows != Some(rows) {
        return Err(format!(
            "read-back of {SIDE_TABLE} does not show version {version} ({} rows, stats {stats_rows:?})",
            got.len()
        ));
    }
    Ok(())
}

/// Run the closed loop over `fixture`. In a traced run, odd passes go
/// through the stage-by-stage pipeline and even passes through
/// `Database::query_with`, so both see the same statements under the same
/// database state; an untraced run uses `query_with` only.
pub fn run(fixture: &mut Fixture, refs: &References, budget: Budget, traced: bool) -> Outcome {
    let opts = fixture.config.query_options();
    let n = fixture.statements.len();
    let write_every = fixture.config.write_every.max(1);
    let side_rows = fixture.config.side_rows;
    let mut out = Outcome {
        stmts: vec![StmtStats::default(); n],
        ..Outcome::default()
    };
    let mut version = 0u64;
    let start = Instant::now();
    let mut pass = 0u64;
    loop {
        let done = match budget {
            Budget::Seconds(s) => start.elapsed().as_secs_f64() >= s,
            Budget::Passes(p) => pass >= p,
        };
        if done {
            break;
        }
        let traced_pass = traced && pass % 2 == 1;
        for i in 0..n {
            let st = &fixture.statements[i];
            let db = fixture.db(st.target);
            let stats = &mut out.stmts[i];
            out.attempted += 1;
            let pool_before = pool(db);
            if traced_pass {
                match run_traced(db, &st.src, opts) {
                    Ok(tr) => {
                        let v = counter_values(&tr.metrics, tr.values.len(), pool_before, pool(db));
                        stats.counters.add(&v);
                        let m = &tr.marks;
                        let at = |t: Instant| (t - start).as_nanos() as u64;
                        let request = out.spans.len() as u64 / 8;
                        for stage in 0..7 {
                            out.spans.push(Span {
                                request,
                                stmt: i,
                                stage: Some(stage),
                                start_ns: at(m[stage]),
                                dur_ns: (m[stage + 1] - m[stage]).as_nanos() as u64,
                            });
                        }
                        out.spans.push(Span {
                            request,
                            stmt: i,
                            stage: None,
                            start_ns: at(m[0]),
                            dur_ns: (m[8] - m[0]).as_nanos() as u64,
                        });
                        let same_plan = stats.plan.as_ref() == Some(&tr.optimized);
                        if !same_plan || tr.values != refs.results[i] {
                            out.fidelity_failures += 1;
                            let msg = format!(
                                "traced `{}`: plan matches query_with: {same_plan}, result matches reference: {}",
                                st.name,
                                tr.values == refs.results[i]
                            );
                            out.fail(msg);
                        }
                    }
                    Err(e) => out.fail(format!("traced `{}`: {e}", st.name)),
                }
            } else {
                let cpu = process_cpu_ns();
                let t = Instant::now();
                let r = db.query_with(&st.src, opts);
                let elapsed = t.elapsed();
                let cpu = process_cpu_ns() - cpu;
                match r {
                    Ok(r) => {
                        let v = counter_values(&r.metrics, r.len(), pool_before, pool(db));
                        stats.counters.add(&v);
                        stats.latencies_us.push(elapsed.as_secs_f64() * 1e6);
                        stats.cpu_ns += cpu;
                        stats.max_qerror = stats.max_qerror.max(r.max_qerror());
                        if stats.plan.is_none() {
                            stats.plan = Some(r.optimized);
                        }
                        if r.values != refs.results[i] {
                            out.fail(format!(
                                "`{}`: {} rows, reference has {}",
                                st.name,
                                r.values.len(),
                                refs.results[i].len()
                            ));
                        }
                    }
                    Err(e) => out.fail(format!("`{}`: {e}", st.name)),
                }
            }
            if (pass * n as u64 + i as u64 + 1) % write_every as u64 == 0 {
                version += 1;
                out.attempted += 1;
                write_txn(&mut fixture.main, version, side_rows, &mut out);
            }
        }
        pass += 1;
    }
    out.passes = pass;
    out.wall_secs = start.elapsed().as_secs_f64();
    out
}
