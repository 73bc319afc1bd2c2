//! # tmql-perfbench — the repository benchmark
//!
//! Runs one workload in a single process with one client in a closed
//! loop (the next operation starts when the previous one returned),
//! checks every result against a reference computed once during set-up,
//! and reports end-to-end metrics (untraced) or per-layer metrics (traced:
//! the facade's pipeline called stage by stage). See `README.md` for the
//! workloads, the metrics and which layer metric should move which
//! end-to-end metric.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads CLOCK_PROCESS_CPUTIME_ID through the 64-bit Linux timespec layout");

pub mod corpus;
pub mod fixture;
pub mod report;
pub mod run;

/// Environment variables that change the program under test; the
/// benchmark refuses to run while any of them is set.
pub const GUARDED_ENV: [&str; 5] = [
    "TMQL_THREADS",
    "TMQL_TEST_POOL_PAGES",
    "TMQL_WAL_CHECKPOINT_BYTES",
    "TMQL_QUERY_LOG",
    "TMQL_SLOW_QUERY_MICROS",
];

/// The guarded variables that are set.
pub fn guarded_env_set() -> Vec<&'static str> {
    GUARDED_ENV
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect()
}
