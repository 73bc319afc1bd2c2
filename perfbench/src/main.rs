//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report and, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`).

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use tmql_perfbench::fixture::{self, Workload};
use tmql_perfbench::report::{self, Metric};
use tmql_perfbench::run::{self, Budget, Outcome, STAGES};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!(
                    "unknown workload `{value}` (expected one of: {})",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A per-run scratch directory for the page file, the WAL and spill
/// files; removed when dropped, on success and on failure alike.
struct RunDir(PathBuf);

impl RunDir {
    fn create(workload: Workload, seed: u64) -> std::io::Result<RunDir> {
        let root = Path::new(".bench_tmp");
        std::fs::create_dir_all(root)?;
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = root.join(format!(
            "{}-{seed}-{}-{nanos}",
            workload.name(),
            std::process::id()
        ));
        // `create_dir` fails if the directory exists: never reuse state.
        std::fs::create_dir(&dir)?;
        Ok(RunDir(std::fs::canonicalize(dir)?))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave the parent only if other runs still use it.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for m in metrics {
        println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// Write the traced run's spans as JSON lines (kept in memory during the
/// run).
fn write_spans(args: &Args, fx: &fixture::Fixture, out: &Outcome) -> std::io::Result<PathBuf> {
    let dir = Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{}.jsonl", args.workload.name()));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in &out.spans {
        let name = s.stage.map_or("facade.statement", |k| STAGES[k]);
        let parent = if s.stage.is_some() {
            "statement"
        } else {
            "none"
        };
        writeln!(
            w,
            "{{\"request\": {}, \"statement\": \"{}\", \"span\": \"{}\", \"parent\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}}}",
            s.request, fx.statements[s.stmt].name, name.trim_end_matches("_us"), parent, s.start_ns, s.dur_ns
        )?;
    }
    w.flush()?;
    Ok(path)
}

fn bench(args: &Args, dir: &Path) -> Result<(), String> {
    let cfg = args.workload.config();
    let mut fx = fixture::setup(cfg, args.seed, dir)?;
    let refs = fixture::references(&fx, args.seed)?;
    let opts = cfg.query_options();
    println!(
        "# run workload={} seed={} seconds={} trace={} nproc={} default_threads={} threads={} \
         pool_pages={} memory_budget_rows={} rows={} depts={} emps={} write_every={} side_rows={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        tmql::default_threads(),
        opts.threads,
        cfg.disk.map_or("none".into(), |d| d.pool_pages.to_string()),
        opts.memory_budget_rows
            .map_or("none".into(), |b| b.to_string()),
        cfg.rows,
        cfg.depts,
        cfg.emps,
        cfg.write_every,
        cfg.side_rows,
    );
    println!(
        "# setup reps={} median_s={:.6}; references: {} statements, {} with a plan other than the default",
        fx.setup_secs.len(),
        report::quantile(&fx.setup_secs, 0.5),
        refs.results.len(),
        refs.independent_plans,
    );
    for ((st, strategy), s) in fx.statements.iter().zip(&refs.strategies).zip(&refs.secs) {
        println!(
            "# reference {} strategy={} secs={s:.3}",
            st.name,
            strategy.name()
        );
    }
    let out = run::run(&mut fx, &refs, Budget::Seconds(args.seconds), args.trace);
    for e in &out.errors {
        eprintln!("error: {e}");
        println!("# error: {e}");
    }
    let reads: usize = out.stmts.iter().map(|s| s.latencies_us.len()).sum();
    println!(
        "# loop passes={} reads_untraced={} txns={} wall_s={:.3} fidelity_failures={}",
        out.passes,
        reads,
        out.txns.latencies_us.len(),
        out.wall_secs,
        out.fidelity_failures
    );
    for (st, s) in fx.statements.iter().zip(&out.stmts) {
        println!(
            "# statement {:<16} class={:<5} n={:<5} p50_us={:.1}",
            st.name,
            format!("{:?}", st.class).to_lowercase(),
            s.latencies_us.len(),
            report::quantile(&s.latencies_us, 0.5)
        );
    }
    for (name, spread) in report::varying_counters(&out) {
        println!("# varies-between-executions {name} max_relative_spread={spread:.4}");
    }
    let e2e = report::end_to_end(&fx, &out);
    let layers = report::per_layer(&fx, &out);
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "{:<36} {:>16.4} ratio ({}/{})",
        "error_rate", error_rate, out.failed, out.attempted
    );
    if args.trace {
        print_metrics("end-to-end (untraced passes of this traced run)", &e2e);
        print_metrics("per-layer", &layers);
        match write_spans(args, &fx, &out) {
            Ok(p) => println!("# spans written to {}", p.display()),
            Err(e) => println!("# spans not written: {e}"),
        }
    } else {
        let counts: Vec<Metric> = layers
            .iter()
            .filter(|m| !report::needs_trace(&m.name))
            .cloned()
            .collect();
        print_metrics(
            "per-layer counts (untraced run; stage times need --trace 1)",
            &counts,
        );
        print_metrics("end-to-end", &e2e);
    }
    let metrics = if args.trace { &layers } else { &e2e };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        json_metrics(metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let set = tmql_perfbench::guarded_env_set();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run: {} set (each changes the program under test)",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let dir = match RunDir::create(args.workload, args.seed) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: cannot create the run directory: {e}");
            return ExitCode::from(1);
        }
    };
    // Spill files go under the run directory too. Set before any thread
    // starts.
    std::env::set_var("TMPDIR", &dir.0);
    let result = std::panic::catch_unwind(|| bench(&args, &dir.0));
    drop(dir);
    match result {
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(e)) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
        Err(_) => ExitCode::from(1),
    }
}
