//! Workload configurations, the timed set-up, and the reference results.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

use tmql::{Database, QueryOptions, Record, Table, Ty, UnnestStrategy, Value};
use tmql_workload::gen::{gen_company, gen_rs, gen_xy, gen_xyz, GenConfig};

use crate::corpus::{disk_corpus, nested_corpus, Statement, Target};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The corpus over 16-row in-memory tables: fixed per-statement costs.
    TinyNested,
    /// The corpus over 4096-row in-memory tables: the data plane.
    BulkNested,
    /// Nested reads, a point lookup and a scan on a disk-backed database
    /// larger than its pool, with write transactions in between.
    DiskMixed,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::TinyNested,
        Workload::BulkNested,
        Workload::DiskMixed,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TinyNested => "tiny-nested",
            Workload::BulkNested => "bulk-nested",
            Workload::DiskMixed => "disk-mixed",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The sizes the workload runs at.
    pub fn config(self) -> Config {
        let base = Config {
            rows: 16,
            depts: 16,
            emps: 16,
            disk: None,
            write_every: 8,
            side_rows: 32,
        };
        match self {
            Workload::TinyNested => base,
            Workload::BulkNested => Config {
                rows: 4096,
                depts: 512,
                emps: 4096,
                ..base
            },
            Workload::DiskMixed => Config {
                rows: 4096,
                depts: 0,
                emps: 0,
                disk: Some(Disk {
                    pool_pages: 8,
                    memory_budget_rows: 1024,
                }),
                write_every: 2,
                ..base
            },
        }
    }
}

/// Disk-backed settings.
#[derive(Debug, Clone, Copy)]
pub struct Disk {
    /// Buffer-pool capacity in 8 KiB pages.
    pub pool_pages: usize,
    /// `QueryOptions::memory_budget` of every read.
    pub memory_budget_rows: usize,
}

/// The sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Cardinality of `X`/`Y`, `R`/`S` and the Section 8 `X`/`Y`/`Z`.
    pub rows: usize,
    /// `DEPT` rows (0: no company tables).
    pub depts: usize,
    /// `EMP` rows.
    pub emps: usize,
    /// Disk-backed (`Some`) or in-memory (`None`).
    pub disk: Option<Disk>,
    /// One write transaction runs after this many reads.
    pub write_every: usize,
    /// Rows of the table each write transaction replaces.
    pub side_rows: usize,
}

impl Config {
    /// The options every timed read runs with: the defaults a user gets,
    /// plus the memory budget on the disk workload.
    pub fn query_options(&self) -> QueryOptions {
        match self.disk {
            Some(d) => QueryOptions::default().memory_budget(d.memory_budget_rows),
            None => QueryOptions::default(),
        }
    }

    /// Whether nested-loop is an affordable reference for the statements
    /// where it is quadratic (`Q2`, Section 8).
    fn quadratic_nl_ok(&self) -> bool {
        self.rows.max(self.depts) * self.rows.max(self.emps) <= 1 << 16
    }

    fn gen(&self, seed: u64) -> GenConfig {
        GenConfig {
            outer: self.rows,
            inner: self.rows,
            seed,
            ..GenConfig::default()
        }
    }
}

/// Name of the table the write transactions replace. No read touches it,
/// so the reference results stay valid across writes.
pub const SIDE_TABLE: &str = "T";

/// Version `version` of the write-side table: `T(a, b)` with
/// `b = version * rows + a`, so a read-back identifies the version.
pub fn side_table(version: u64, rows: usize) -> Table {
    let mut t = Table::new(
        SIDE_TABLE,
        vec![("a".into(), Ty::Int), ("b".into(), Ty::Int)],
    );
    for a in 0..rows as i64 {
        let b = version as i64 * rows as i64 + a;
        let rec = Record::new([
            ("a".to_string(), Value::Int(a)),
            ("b".to_string(), Value::Int(b)),
        ])
        .expect("distinct labels");
        t.insert(rec).expect("valid row");
    }
    t
}

/// A 64-bit mix of the seed (splitmix64), for choices derived from it.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A set-up workload, ready for its first statement.
pub struct Fixture {
    /// The sizes.
    pub config: Config,
    /// Main database (receives the writes).
    pub main: Database,
    /// The Section 8 database (in-memory workloads only).
    pub section8: Option<Database>,
    /// The read statements, in round-robin order.
    pub statements: Vec<Statement>,
    /// Wall time of each set-up repetition, in seconds.
    pub setup_secs: Vec<f64>,
    /// Open time of each set-up, in milliseconds: the reopen of the page
    /// file with recovery (disk), or `Database::from_catalog` (memory).
    pub open_ms: Vec<f64>,
    /// Logical bytes of the user data: every row's record encoding.
    pub logical_bytes: u64,
    /// Page file of the disk workload.
    pub db_path: Option<PathBuf>,
}

impl Fixture {
    /// The database a statement runs against.
    pub fn db(&self, target: Target) -> &Database {
        match target {
            Target::Main => &self.main,
            Target::Section8 => self.section8.as_ref().expect("section 8 database"),
        }
    }
}

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn copy_tables(db: &mut Database, from: &tmql::Catalog, names: &[&str]) -> Res<()> {
    for name in names {
        db.register_table(from.table(name).map_err(err)?.clone())
            .map_err(err)?;
    }
    Ok(())
}

/// Generate and register the in-memory databases (main, Section 8).
/// Also returns the time `Database::from_catalog` took for both, in
/// milliseconds: the in-memory counterpart of opening a file.
fn build_memory(cfg: &Config, seed: u64) -> Res<(Database, Database, f64)> {
    let g = cfg.gen(seed);
    let (xy, xyz) = (gen_xy(&g), gen_xyz(&g));
    let t = Instant::now();
    let mut main = Database::from_catalog(xy);
    let s8 = Database::from_catalog(xyz);
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    copy_tables(&mut main, &gen_rs(&g), &["R", "S"])?;
    let company = gen_company(&GenConfig {
        outer: cfg.depts,
        inner: cfg.emps,
        ..g
    });
    copy_tables(&mut main, &company, &["EMP", "DEPT"])?;
    main.register_table(side_table(0, cfg.side_rows))
        .map_err(err)?;
    Ok((main, s8, open_ms))
}

/// Generate the disk workload's data, write it into a fresh database at
/// `path`, index `Y.b`, close it and reopen it. Returns the reopened
/// database and the reopen time in milliseconds.
fn build_disk(cfg: &Config, disk: Disk, seed: u64, path: &Path) -> Res<(Database, f64)> {
    let cat = gen_xy(&cfg.gen(seed));
    {
        let mut db = Database::open_with(path, disk.pool_pages).map_err(err)?;
        copy_tables(&mut db, &cat, &["X", "Y"])?;
        db.register_table(side_table(0, cfg.side_rows))
            .map_err(err)?;
        db.create_index("Y", "b").map_err(err)?;
    }
    let t = Instant::now();
    let db = Database::open_with(path, disk.pool_pages).map_err(err)?;
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    let recovery = db
        .recovery_report()
        .ok_or("reopened database is not disk-backed")?;
    if !recovery.is_clean() {
        return Err(format!("fresh database needed recovery: {recovery:?}"));
    }
    Ok((db, open_ms))
}

fn logical_bytes(cat: &tmql::Catalog) -> Res<u64> {
    let mut total = 0u64;
    for name in cat.table_names() {
        for rec in cat.table(name).map_err(err)?.rows_vec().map_err(err)? {
            total += tmql_storage::spill::encode_record(&rec).len() as u64;
        }
    }
    Ok(total)
}

/// Repeat a set-up at least `MIN_REPS` times (more while the total stays
/// under `MIN_TOTAL_SECS`), so its median is steady; the last repetition's
/// state is kept.
const MIN_REPS: usize = 5;
const MAX_REPS: usize = 1000;
const MIN_TOTAL_SECS: f64 = 0.5;

fn more_reps(times: &[f64]) -> bool {
    let n = times.len();
    n < MIN_REPS || (n < MAX_REPS && times.iter().sum::<f64>() < MIN_TOTAL_SECS)
}

/// Run the workload's set-up (timed, repeated) inside `dir`, which must
/// exist and be empty.
pub fn setup(cfg: Config, seed: u64, dir: &Path) -> Res<Fixture> {
    let mut setup_secs = Vec::new();
    let mut open_ms = Vec::new();
    let mut state = None;
    while more_reps(&setup_secs) {
        drop(state.take()); // close the previous repetition first
        let t = Instant::now();
        let built = match cfg.disk {
            None => {
                let (main, s8, ms) = build_memory(&cfg, seed)?;
                open_ms.push(ms);
                (main, Some(s8), None)
            }
            Some(disk) => {
                let rep_dir = dir.join("db");
                if rep_dir.exists() {
                    std::fs::remove_dir_all(&rep_dir).map_err(err)?;
                }
                std::fs::create_dir(&rep_dir).map_err(err)?;
                let path = rep_dir.join("bench.tmdb");
                let (db, ms) = build_disk(&cfg, disk, seed, &path)?;
                open_ms.push(ms);
                (db, None, Some(path))
            }
        };
        setup_secs.push(t.elapsed().as_secs_f64());
        state = Some(built);
    }
    let (main, section8, db_path) = state.expect("at least one set-up");
    // Measured on in-memory data so the disk workload's pool stays as the
    // set-up left it.
    let logical_bytes = match cfg.disk {
        None => logical_bytes(main.catalog())?,
        Some(_) => {
            let mut cat = gen_xy(&cfg.gen(seed));
            cat.register(side_table(0, cfg.side_rows)).map_err(err)?;
            logical_bytes(&cat)?
        }
    };
    let statements = match cfg.disk {
        Some(_) => {
            let matched = (cfg.rows * 3 / 4).max(1) as u64;
            disk_corpus((mix(seed, 1) % matched) as i64, (mix(seed, 2) % 16) as i64)
        }
        None => nested_corpus(),
    };
    let statements = shuffled(statements, seed);
    Ok(Fixture {
        config: cfg,
        main,
        section8,
        statements,
        setup_secs,
        open_ms,
        logical_bytes,
        db_path,
    })
}

/// The round-robin order: a seed-driven permutation of the statements.
fn shuffled(mut v: Vec<Statement>, seed: u64) -> Vec<Statement> {
    for i in (1..v.len()).rev() {
        let j = (mix(seed, 100 + i as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// Strategies tried, in order, for a reference where nested-loop is
/// quadratic and the tables are large: the first whose plan differs from
/// the default plan is used. Each is a correct rewrite (only Kim's is
/// bug-compatible, and it is not here).
const FALLBACK_REFERENCES: [UnnestStrategy; 4] = [
    UnnestStrategy::GanskiWong,
    UnnestStrategy::NestJoin,
    UnnestStrategy::Muralikrishna,
    UnnestStrategy::Optimal,
];

/// Reference results, computed once outside the timed set-up on freshly
/// generated **in-memory** databases, serially (`threads = 1`), without a
/// memory budget. The strategy is nested-loop, except where that is
/// quadratic at this size (see [`FALLBACK_REFERENCES`]); never the default
/// cost-based path.
pub struct References {
    /// Expected result set of each statement (same order as the fixture).
    pub results: Vec<BTreeSet<Value>>,
    /// Strategy each reference was computed with.
    pub strategies: Vec<UnnestStrategy>,
    /// Statements whose reference plan differs from the default plan.
    pub independent_plans: usize,
    /// Seconds each reference took to compute.
    pub secs: Vec<f64>,
}

/// Compute the [`References`] of a fixture's statements.
pub fn references(fixture: &Fixture, seed: u64) -> Res<References> {
    let cfg = &fixture.config;
    let (main, s8) = match cfg.disk {
        None => {
            let (main, s8, _) = build_memory(cfg, seed)?;
            (main, Some(s8))
        }
        Some(_) => (Database::from_catalog(gen_xy(&cfg.gen(seed))), None),
    };
    let mut results = Vec::with_capacity(fixture.statements.len());
    let mut independent_plans = 0;
    let mut secs = Vec::new();
    let mut strategies = Vec::new();
    for st in &fixture.statements {
        let t = Instant::now();
        let db = match st.target {
            Target::Main => &main,
            Target::Section8 => s8.as_ref().expect("section 8 database"),
        };
        let plan = |opts: QueryOptions| {
            db.plan_with(&st.src, opts)
                .map(|(_, optimized)| optimized)
                .map_err(|e| format!("planning `{}` failed: {e}", st.name))
        };
        let default_plan = plan(cfg.query_options())?;
        let serial = QueryOptions::default().threads(1).query_log(false);
        let mut strategy = UnnestStrategy::NestedLoop;
        if st.quadratic_nl && !cfg.quadratic_nl_ok() {
            strategy = FALLBACK_REFERENCES[0];
            for s in FALLBACK_REFERENCES {
                if plan(serial.strategy(s))? != default_plan {
                    strategy = s;
                    break;
                }
            }
        }
        let r = db
            .query_with(&st.src, serial.strategy(strategy))
            .map_err(|e| format!("reference for `{}` failed: {e}", st.name))?;
        if r.optimized != default_plan {
            independent_plans += 1;
        }
        results.push(r.values);
        strategies.push(strategy);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok(References {
        results,
        strategies,
        independent_plans,
        secs,
    })
}
