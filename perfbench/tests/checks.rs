//! The benchmark's own checks, at small sizes: the counts the program
//! makes deterministically repeat exactly across two runs, the traced
//! pipeline measures the same program as `Database::query_with`, only the
//! disk workload reaches the spill, pool and WAL layers, the environment
//! guard refuses to run, and a run leaves no scratch files behind.

use std::path::PathBuf;

use tmql_perfbench::fixture::{self, Config, Disk, Workload};
use tmql_perfbench::run::{self, plan_nodes, Budget, Outcome, COUNTERS};

/// Counts that depend on how the worker threads interleave page requests
/// (and so on the pool's eviction order): reported with their spread, not
/// compared exactly. `exec.total_work` includes `pool_misses`.
const SCHEDULING_DEPENDENT: [&str; 5] = [
    "exec.total_work",
    "storage.pool_hits",
    "storage.pool_misses",
    "storage.pool_evictions",
    "storage.pool_writebacks",
];

fn small(workload: Workload) -> Config {
    match workload {
        Workload::DiskMixed => Config {
            rows: 256,
            disk: Some(Disk {
                pool_pages: 4,
                memory_budget_rows: 32,
            }),
            ..workload.config()
        },
        _ => Config {
            rows: 16,
            depts: 8,
            emps: 16,
            ..workload.config()
        },
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_small(workload: Workload, seed: u64, passes: u64, traced: bool, tag: &str) -> Outcome {
    let dir = scratch(tag);
    let cfg = small(workload);
    let mut fx = fixture::setup(cfg, seed, &dir).unwrap();
    let refs = fixture::references(&fx, seed).unwrap();
    let out = run::run(&mut fx, &refs, Budget::Passes(passes), traced);
    drop(fx);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(out.failed, 0, "{}: {:?}", workload.name(), out.errors);
    assert_eq!(out.passes, passes);
    out
}

#[test]
fn deterministic_counts_repeat_exactly() {
    for workload in [Workload::TinyNested, Workload::DiskMixed] {
        let name = workload.name();
        let a = run_small(workload, 7, 3, false, &format!("{name}-a"));
        let b = run_small(workload, 7, 3, false, &format!("{name}-b"));
        for (i, counter) in COUNTERS.iter().enumerate() {
            let sums = |o: &Outcome| {
                o.stmts
                    .iter()
                    .map(|s| s.counters.sum[i])
                    .collect::<Vec<_>>()
            };
            if SCHEDULING_DEPENDENT.contains(counter) {
                let (x, y) = (sums(&a).iter().sum::<u64>(), sums(&b).iter().sum::<u64>());
                let spread = x.abs_diff(y) as f64 / x.max(y).max(1) as f64;
                println!(
                    "{name}: {counter} is scheduling-dependent: {x} vs {y} (spread {spread:.4})"
                );
            } else {
                assert_eq!(sums(&a), sums(&b), "{name}: {counter} differs between runs");
            }
        }
        let plans = |o: &Outcome| {
            o.stmts
                .iter()
                .map(|s| plan_nodes(s.plan.as_ref().unwrap()))
                .collect::<Vec<_>>()
        };
        assert_eq!(plans(&a), plans(&b), "{name}: optimized plans differ");
        assert_eq!(a.txns.latencies_us.len(), b.txns.latencies_us.len());
        assert_eq!(
            a.txns.wal_bytes, b.txns.wal_bytes,
            "{name}: WAL bytes differ"
        );
        assert_eq!(
            a.txns.wal_syncs, b.txns.wal_syncs,
            "{name}: WAL syncs differ"
        );
        assert_eq!(
            a.txns.checkpoints, b.txns.checkpoints,
            "{name}: checkpoints differ"
        );
    }
}

#[test]
fn traced_pipeline_matches_query_with() {
    for workload in [Workload::TinyNested, Workload::DiskMixed] {
        let out = run_small(workload, 3, 2, true, &format!("{}-traced", workload.name()));
        assert_eq!(out.fidelity_failures, 0);
        // Pass 1 is traced: one statement span plus seven stage spans for
        // every statement of the mix.
        assert_eq!(out.spans.len(), out.stmts.len() * 8);
        assert!(out
            .stmts
            .iter()
            .all(|s| s.plan.is_some() && !s.latencies_us.is_empty()));
    }
}

#[test]
fn only_the_disk_workload_reaches_spill_pool_and_wal() {
    let count = |o: &Outcome, name: &str| -> u64 {
        let i = run::counter(name);
        o.stmts.iter().map(|s| s.counters.sum[i]).sum()
    };
    let tiny = run_small(Workload::TinyNested, 5, 1, false, "tiny-layers");
    let disk = run_small(Workload::DiskMixed, 5, 1, false, "disk-layers");
    for name in [
        "exec.rows_spilled",
        "exec.spill_partitions",
        "storage.pool_misses",
    ] {
        assert_eq!(count(&tiny, name), 0, "tiny-nested {name}");
        assert!(count(&disk, name) > 0, "disk-mixed {name}");
    }
    assert!(
        count(&disk, "exec.index_probes") > 0,
        "the point lookup probes the index"
    );
    assert_eq!(tiny.txns.wal_bytes, 0);
    assert!(disk.txns.wal_bytes > 0 && disk.txns.wal_syncs > 0);
}

#[test]
fn benchmark_json_names_every_reported_metric() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).unwrap();
    let dir = scratch("names");
    let mut fx = fixture::setup(small(Workload::TinyNested), 1, &dir).unwrap();
    let refs = fixture::references(&fx, 1).unwrap();
    let out = run::run(&mut fx, &refs, Budget::Passes(2), true);
    let e2e = tmql_perfbench::report::end_to_end(&fx, &out);
    let layers = tmql_perfbench::report::per_layer(&fx, &out);
    drop(fx);
    std::fs::remove_dir_all(&dir).unwrap();
    for m in e2e.iter().chain(&layers) {
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(json.matches("\"better\"").count(), e2e.len() + layers.len());
}

#[test]
fn refuses_to_run_under_a_guarded_variable() {
    let dir = scratch("guard");
    for var in tmql_perfbench::GUARDED_ENV {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(["--workload", "tiny-nested", "--seconds", "1"])
            .env(var, "1")
            .current_dir(&dir)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{var}");
        assert!(out.stdout.is_empty(), "{var}: printed a result");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_run_removes_its_scratch_files() {
    let dir = scratch("cleanup");
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args([
        "--workload",
        "disk-mixed",
        "--seed",
        "2",
        "--seconds",
        "0.1",
    ])
    .current_dir(&dir);
    for var in tmql_perfbench::GUARDED_ENV {
        cmd.env_remove(var);
    }
    let out = cmd.output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().unwrap();
    assert!(last.starts_with("{\"correct\": true, "), "{last}");
    assert!(
        !dir.join(".bench_tmp").exists(),
        "the run directory was left behind"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
