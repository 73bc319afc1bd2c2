//! Turning an [`Outcome`] into named metrics.

use crate::corpus::Class;
use crate::fixture::Fixture;
use crate::run::{counter, Outcome, COUNTERS, PLAN_NODES, STAGES};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        // `+ 0.0` turns an empty sum's -0.0 into 0.0.
        value: if value.is_finite() { value + 0.0 } else { 0.0 },
        unit,
    }
}

/// Linear-interpolated quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The median over the statements in `class` (all when `None`) of each
/// statement's median latency. Pooling the samples instead would put the
/// median of a mix with an even number of statements in the gap between
/// two statements' costs, where it is set by the slowest sample of one and
/// the fastest of the other.
fn statement_p50(fx: &Fixture, out: &Outcome, class: Option<Class>) -> f64 {
    let medians: Vec<f64> = fx
        .statements
        .iter()
        .zip(&out.stmts)
        .filter(|(st, s)| class.map_or(true, |c| st.class == c) && !s.latencies_us.is_empty())
        .map(|(_, s)| quantile(&s.latencies_us, 0.5))
        .collect();
    quantile(&medians, 0.5)
}

/// Process CPU time per untraced read of the statements in `class` (all
/// when `None`), µs.
fn cpu_per_read(fx: &Fixture, out: &Outcome, class: Option<Class>) -> f64 {
    let (cpu_ns, reads) = fx
        .statements
        .iter()
        .zip(&out.stmts)
        .filter(|(st, _)| class.map_or(true, |c| st.class == c))
        .fold((0u64, 0usize), |(ns, n), (_, s)| {
            (ns + s.cpu_ns, n + s.latencies_us.len())
        });
    ratio(cpu_ns as f64 / 1e3, reads as f64)
}

/// The end-to-end metrics, from the untraced executions: CPU time per
/// operation, set-up time and memory. Wall-clock latencies are
/// [`facade_metrics`] without a bound: CPU steal on a shared virtual
/// machine moves them by up to a third between runs, while CPU time leaves
/// steal out.
pub fn end_to_end(fx: &Fixture, out: &Outcome) -> Vec<Metric> {
    let tx = &out.txns;
    vec![
        metric("cpu_us_per_read", cpu_per_read(fx, out, None), "us"),
        metric(
            "flat_cpu_us_per_read",
            cpu_per_read(fx, out, Some(Class::Flat)),
            "us",
        ),
        metric(
            "nest_cpu_us_per_read",
            cpu_per_read(fx, out, Some(Class::Nest)),
            "us",
        ),
        metric(
            "cpu_us_per_txn",
            ratio(tx.cpu_ns as f64 / 1e3, tx.latencies_us.len() as f64),
            "us",
        ),
        metric("setup_s", quantile(&fx.setup_secs, 0.5), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// What a user sees as wall-clock time at the facade's `query_with`
/// boundary: medians, tails and throughput. `facade.qps` is reads per
/// second of engine time (read latencies plus the share of
/// write-transaction time that falls to untraced reads).
fn facade_metrics(fx: &Fixture, out: &Outcome) -> Vec<Metric> {
    let all: Vec<f64> = out
        .stmts
        .iter()
        .flat_map(|s| s.latencies_us.iter().copied())
        .collect();
    let reads_all: u64 = out.stmts.iter().map(|s| s.counters.n).sum();
    let tx = &out.txns.latencies_us;
    let txn_us: f64 = tx.iter().sum();
    let engine_us = all.iter().sum::<f64>() + txn_us * ratio(all.len() as f64, reads_all as f64);
    let p50 = |class| statement_p50(fx, out, class);
    vec![
        metric(
            "facade.qps",
            ratio(all.len() as f64 * 1e6, engine_us),
            "1/s",
        ),
        metric("facade.latency_p50_us", p50(None), "us"),
        metric("facade.latency_p95_us", quantile(&all, 0.95), "us"),
        metric("facade.flat_p50_us", p50(Some(Class::Flat)), "us"),
        metric("facade.nest_p50_us", p50(Some(Class::Nest)), "us"),
        metric("facade.txn_p50_us", quantile(tx, 0.5), "us"),
        metric("facade.txn_p95_us", quantile(tx, 0.95), "us"),
    ]
}

/// Whether a per-layer metric comes from the traced passes only.
pub fn needs_trace(name: &str) -> bool {
    STAGES.contains(&name)
        || matches!(
            name,
            "facade.unattributed_us" | "trace.overhead_pct" | "exec.execute_ns_per_row_scanned"
        )
}

/// Per-statement mean of counter `name`, summed over the mix: the count
/// one pass over the statements makes.
fn per_pass(out: &Outcome, name: &str) -> f64 {
    let i = counter(name);
    out.stmts.iter().map(|s| s.counters.mean(i)).sum()
}

fn file_len(path: Option<std::path::PathBuf>) -> f64 {
    path.and_then(|p| std::fs::metadata(p).ok())
        .map_or(0.0, |m| m.len() as f64)
}

/// The per-layer metrics. Stage times are each statement's median, averaged
/// over the mix; counts are per pass over the mix; write-path numbers are
/// per transaction.
pub fn per_layer(fx: &Fixture, out: &Outcome) -> Vec<Metric> {
    let mut m = facade_metrics(fx, out);
    let n = out.stmts.len().max(1) as f64;
    // Per statement: median self time of each stage and of the whole
    // traced statement, in µs, from the recorded spans.
    let mut samples = vec![vec![Vec::new(); STAGES.len() + 1]; out.stmts.len()];
    for sp in &out.spans {
        samples[sp.stmt][sp.stage.unwrap_or(STAGES.len())].push(sp.dur_ns as f64 / 1e3);
    }
    let medians: Vec<Vec<f64>> = samples
        .iter()
        .map(|per| per.iter().map(|v| quantile(v, 0.5)).collect())
        .collect();
    let traced = |i: &usize| !samples[*i][STAGES.len()].is_empty();
    m.extend((0..STAGES.len()).map(|k| {
        let sum: f64 = (0..out.stmts.len())
            .filter(traced)
            .map(|i| medians[i][k])
            .sum();
        metric(STAGES[k], sum / n, "us")
    }));

    // Statements seen both ways: untraced `query_with` against the stages
    // (unattributed facade time) and against the whole traced statement
    // (tracing overhead).
    let both: Vec<usize> = (0..out.stmts.len())
        .filter(traced)
        .filter(|i| !out.stmts[*i].latencies_us.is_empty())
        .collect();
    let untraced_us: f64 = both
        .iter()
        .map(|&i| quantile(&out.stmts[i].latencies_us, 0.5))
        .sum();
    let stage_sum_us: f64 = both
        .iter()
        .map(|&i| medians[i][..STAGES.len()].iter().sum::<f64>())
        .sum();
    let traced_us: f64 = both.iter().map(|&i| medians[i][STAGES.len()]).sum();
    m.push(metric(
        "facade.unattributed_us",
        (untraced_us - stage_sum_us) / n,
        "us",
    ));
    m.push(metric(
        "trace.overhead_pct",
        100.0 * ratio(traced_us - untraced_us, untraced_us),
        "%",
    ));
    let exec_ns: f64 = (0..out.stmts.len())
        .filter(traced)
        .map(|i| medians[i][6] * 1e3)
        .sum();
    m.push(metric(
        "exec.execute_ns_per_row_scanned",
        ratio(exec_ns, per_pass(out, "exec.rows_scanned")),
        "ns",
    ));

    let mut nodes = [0u64; 7];
    for plan in out.stmts.iter().filter_map(|s| s.plan.as_ref()) {
        for (acc, c) in nodes.iter_mut().zip(crate::run::plan_nodes(plan)) {
            *acc += c;
        }
    }
    for (name, c) in PLAN_NODES.iter().zip(nodes) {
        m.push(metric(name, c as f64, "count"));
    }

    for name in [
        "exec.rows_scanned",
        "exec.comparisons",
        "exec.hash_build_rows",
        "exec.hash_probes",
        "exec.rows_sorted",
        "exec.subquery_invocations",
        "exec.apply_invocations",
    ] {
        m.push(metric(name, per_pass(out, name), "count"));
    }
    let peak = out
        .stmts
        .iter()
        .map(|s| s.counters.max[counter("exec.peak_resident_rows")])
        .max()
        .unwrap_or(0);
    m.push(metric("exec.peak_resident_rows", peak as f64, "rows"));
    for name in [
        "exec.rows_spilled",
        "exec.spill_partitions",
        "exec.index_probes",
    ] {
        m.push(metric(name, per_pass(out, name), "count"));
    }
    let hits = per_pass(out, "exec.apply_cache_hits");
    m.push(metric(
        "exec.apply_cache_hit_rate",
        ratio(hits, hits + per_pass(out, "exec.apply_invocations")),
        "ratio",
    ));
    m.push(metric(
        "exec.work_per_result_row",
        ratio(
            per_pass(out, "exec.total_work"),
            per_pass(out, "exec.result_rows"),
        ),
        "ratio",
    ));
    let qerr = out.stmts.iter().map(|s| s.max_qerror).fold(0.0, f64::max);
    m.push(metric("exec.max_qerror", qerr, "ratio"));

    let pool_hits = per_pass(out, "storage.pool_hits");
    let pool_misses = per_pass(out, "storage.pool_misses");
    m.push(metric(
        "storage.pool_hit_rate",
        ratio(pool_hits, pool_hits + pool_misses),
        "ratio",
    ));
    for name in [
        "storage.pool_misses",
        "storage.pool_evictions",
        "storage.pool_writebacks",
    ] {
        m.push(metric(name, per_pass(out, name), "count"));
    }

    let tx = &out.txns;
    let txns = tx.latencies_us.len() as f64;
    m.push(metric("storage.begin_us", ratio(tx.part_us[0], txns), "us"));
    m.push(metric(
        "storage.replace_us",
        ratio(tx.part_us[1], txns),
        "us",
    ));
    m.push(metric(
        "storage.commit_us",
        ratio(tx.part_us[2], txns),
        "us",
    ));
    m.push(metric(
        "storage.wal_bytes_per_txn",
        ratio(tx.wal_bytes as f64, txns),
        "B",
    ));
    m.push(metric(
        "storage.wal_syncs_per_txn",
        ratio(tx.wal_syncs as f64, txns),
        "count",
    ));
    m.push(metric(
        "storage.checkpoints",
        ratio(tx.checkpoints as f64, txns),
        "1/txn",
    ));

    m.push(metric("storage.open_ms", quantile(&fx.open_ms, 0.5), "ms"));
    let file = file_len(fx.db_path.clone());
    let wal = file_len(fx.db_path.as_ref().map(|p| tmql_storage::Wal::path_for(p)));
    m.push(metric("storage.file_bytes", file, "B"));
    m.push(metric("storage.wal_bytes", wal, "B"));
    m.push(metric(
        "storage.space_amp",
        ratio(file + wal, fx.logical_bytes as f64),
        "ratio",
    ));
    m
}

/// Counters that differed between executions of one statement (they
/// depend on worker scheduling or on state earlier operations left), with
/// their largest spread relative to that statement's mean.
pub fn varying_counters(out: &Outcome) -> Vec<(&'static str, f64)> {
    (0..COUNTERS.len())
        .filter_map(|i| {
            let spread = out
                .stmts
                .iter()
                .filter(|s| s.counters.n > 0 && s.counters.max[i] != s.counters.min[i])
                .map(|s| {
                    (s.counters.max[i] - s.counters.min[i]) as f64 / s.counters.mean(i).max(1.0)
                })
                .fold(None, |acc: Option<f64>, x| {
                    Some(acc.map_or(x, |a| a.max(x)))
                });
            spread.map(|s| (COUNTERS[i], s))
        })
        .collect()
}
