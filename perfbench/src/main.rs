//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table3-cold --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads (see `perfbench/README.md`): `table3-cold`, `table3-warm`
//! and `fhe-exec`. Each is a closed loop with one client: set-up, then
//! passes over the workload's programs until `--seconds` would be
//! exceeded (at least one). `--trace 0` prints the end-to-end metrics;
//! `--trace 1` adds one traced pass and prints the per-layer metrics.
//! The last stdout line is the result object; the full report (metadata,
//! failures, every metric and, when traced, the spans) is written to
//! `perfbench/out/`.

mod fhe_exec;
mod report;
mod table3;
mod trace;

use fhe_exec::{FheExec, FheLayer};
use rand::{Rng, SeedableRng};
use report::{median, quantile, usage, Report};
use std::process::ExitCode;
use std::time::Instant;
use table3::{CacheDir, Layers, Suite, PROGRAMS};
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["table3-cold", "table3-warm", "fhe-exec"];

/// Set-up repetitions for `table3-cold` (building the seven programs),
/// taken once before the passes and once after them; `setup_s` is the
/// median of both batches. The build takes milliseconds, so a single
/// batch would sample the host's speed at one instant only.
const COLD_SETUP_REPS: usize = 15;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    fill_cache: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args =
        Args { workload: String::new(), seed: 0, seconds: 0.0, trace: false, fill_cache: false };
    let mut i = 0;
    while i < argv.len() {
        let value = || argv.get(i + 1).cloned().ok_or(format!("{} needs a value", argv[i]));
        match argv[i].as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--fill-cache" => {
                args.fill_cache = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    if !args.fill_cache && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// Runs passes until starting another would overrun `seconds` (judged by
/// the last pass's wall time, identity checks included); at least one.
/// Returns each pass's timed seconds.
fn measure(seconds: f64, mut pass: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut timed = Vec::new();
    loop {
        let t = Instant::now();
        timed.push(pass());
        let last = t.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last > seconds {
            return timed;
        }
    }
}

/// The seed's permutation of the seven programs (Fisher–Yates).
fn program_order(seed: u64) -> Vec<usize> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..PROGRAMS.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

/// First line of a command's stdout, if it runs and succeeds. Git does
/// not look above the directory that holds the benchmark, so an export
/// that is not a git checkout reports `unavailable`, not an enclosing
/// repository's commit.
fn command_line(program: &str, args: &[&str]) -> String {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = manifest.parent().unwrap_or(manifest);
    std::process::Command::new(program)
        .args(args)
        .current_dir(root)
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unavailable".to_string())
}

fn host_metadata(report: &mut Report, args: &Args) {
    report.meta("workload", &args.workload);
    report.meta("seed", args.seed);
    report.meta("seconds", args.seconds);
    report.meta("traced", args.trace);
    report.meta("cores", std::thread::available_parallelism().map_or(1, |n| n.get()));
    report.meta("compile_threads", f1_compiler::par::compile_threads());
    report.meta("F1_PAR_LIMBS", std::env::var("F1_PAR_LIMBS").unwrap_or_else(|_| "unset".into()));
    report.meta("rustc", command_line("rustc", &["--version"]));
    report.meta("git_commit", command_line("git", &["rev-parse", "HEAD"]));
    report.meta(
        "f1_model",
        "f1_cycles are simulated cycles of an unvalidated model: the repo holds only the \
         paper's speedups, so no absolute-time error is claimed",
    );
}

/// Where reports (and the warm workload's cache directory) go:
/// `perfbench/out/`, ignored by git.
fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What a workload run produced, before it becomes metrics.
struct Outcome {
    setup_s: f64,
    passes: Vec<f64>,
    traced: Option<(Tracer, f64)>,
    table3: Option<Layers>,
    fhe: Option<FheLayer>,
}

/// Builds the suite `reps` times, recording each build's seconds, and
/// returns the last build.
fn timed_builds(order: &[usize], reps: usize, times: &mut Vec<f64>) -> Vec<table3::Prog> {
    let mut progs = Vec::new();
    for _ in 0..reps {
        drop(std::mem::take(&mut progs));
        let t = Instant::now();
        progs = table3::build(order);
        times.push(t.elapsed().as_secs_f64());
    }
    progs
}

fn run_table3(args: &Args, report: &mut Report, warm: bool) -> Result<Outcome, String> {
    let order = program_order(args.seed);
    let names: Vec<&str> = order.iter().map(|&i| PROGRAMS[i].0).collect();
    report.meta("program_order", names.join(","));
    let mut builds = Vec::new();
    let progs = timed_builds(&order, if warm { 1 } else { COLD_SETUP_REPS }, &mut builds);
    let mut suite = Suite::new(progs, args.trace);
    let mut fill_s = 0.0;
    let _cache = if warm {
        let dir = CacheDir::fresh(out_dir().join(format!("cache-{}", std::process::id())))
            .map_err(|e| format!("cannot create the cache directory: {e}"))?;
        std::env::set_var("F1_CACHE_DIR", &dir.0);
        fill_s = suite.fill(&dir.0, args.trace, report)?;
        Some(dir)
    } else {
        None
    };
    let passes = measure(args.seconds, || {
        if warm {
            suite.warm_pass(None, report)
        } else {
            suite.cold_pass(report)
        }
    });
    if !warm {
        timed_builds(&order, COLD_SETUP_REPS, &mut builds);
    }
    let traced = args.trace.then(|| {
        let mut tr = Tracer::new();
        let wall = if warm {
            suite.warm_pass(Some(&mut tr), report)
        } else {
            suite.cold_pass_traced(&mut tr, report)
        };
        (tr, wall)
    });
    let setup_s = median(&builds) + fill_s;
    Ok(Outcome { setup_s, passes, traced, table3: Some(suite.layers), fhe: None })
}

fn run_fhe(args: &Args, report: &mut Report) -> Outcome {
    let (mut exec, setup_s) = FheExec::setup(args.seed);
    let passes = measure(args.seconds, || exec.pass(report));
    let traced = args.trace.then(|| {
        let mut tr = Tracer::new();
        let wall = exec.pass_traced(&mut tr, report);
        (tr, wall)
    });
    Outcome { setup_s, passes, traced, table3: None, fhe: Some(exec.layer) }
}

/// The per-layer metrics, every one on every workload: a layer the
/// workload does not exercise reports 0.
fn per_layer(report: &mut Report, out: &Outcome, tr: &Tracer, traced_wall: f64) {
    let none = Layers::default();
    let t3 = out.table3.as_ref().unwrap_or(&none);
    for (key, _, _) in PROGRAMS {
        let st = t3.stats.get(key).copied().unwrap_or_default();
        let m = [
            ("ir.optimize_s", tr.total("ir.optimize", key), "s"),
            ("expand.s", tr.total("expand", key), "s"),
            ("expand.instrs", st.instrs as f64, "count"),
            ("movement.s", tr.total("movement", key), "s"),
            ("movement.events", st.events as f64, "count"),
            ("movement.traffic_mb", st.traffic_mb, "MB"),
            ("movement.useful_traffic_ratio", st.useful_traffic_ratio, "ratio"),
            ("cycle.s", tr.total("cycle", key), "s"),
            ("cycle.fu_util", st.fu_util, "ratio"),
            ("cycle.hbm_busy_frac", st.hbm_busy_frac, "ratio"),
            ("checker.s", tr.total("checker", key), "s"),
            ("checker.entries", st.entries as f64, "count"),
            ("cache.load_s", tr.total("cache.load", key), "s"),
            ("f1_cycles", st.makespan as f64, "cycles"),
        ];
        for (name, value, unit) in m {
            report.metric(format!("{name}.{key}"), value, unit);
        }
    }
    report.metric("cache.store_s", t3.cache_store_s, "s");
    report.metric("cache.entry_mb", t3.cache_entry_mb, "MB");
    report.metric("cache.hits", t3.hits as f64, "count");
    report.metric("cache.misses", t3.misses as f64, "count");

    let fhe = out.fhe.as_ref();
    let sum = |name: &str| tr.durations(name).iter().sum::<f64>();
    let muls = tr.durations("fhe.mul");
    let mul_q = |q: f64| if muls.is_empty() { 0.0 } else { quantile(&muls, q) * 1e3 };
    report.metric("fhe.keygen_s", fhe.map_or(0.0, |f| f.keygen_s), "s");
    report.metric("fhe.encrypt_s", sum("fhe.encrypt"), "s");
    report.metric("fhe.decrypt_s", sum("fhe.decrypt"), "s");
    for op in ["mul", "aut", "mul_plain", "mod_switch", "add"] {
        report.metric(format!("fhe.op_s.{op}"), sum(&format!("fhe.{op}")), "s");
    }
    report.metric("fhe.mul_p50_ms", mul_q(0.5), "ms");
    report.metric("fhe.mul_p99_ms", mul_q(0.99), "ms");
    report.metric("fhe.hom_ops", fhe.map_or(0.0, |f| f.hom_ops as f64), "count");
    report.metric("fhe.noise_bits", fhe.map_or(0.0, |f| f.noise_bits), "bits");

    let by_layer = tr.self_by_layer();
    for layer in ["ir", "expand", "movement", "cycle", "checker", "cache", "fhe"] {
        report.metric(format!("{layer}.self_s"), by_layer.get(layer).copied().unwrap_or(0.0), "s");
    }
    report.metric("trace.wall_s", traced_wall, "s");
    report.metric("trace.unattributed_s", by_layer.get("program").copied().unwrap_or(0.0), "s");
    report.metric("trace.overhead_s", traced_wall - median(&out.passes), "s");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.fill_cache {
        table3::fill_child(args.trace);
        return ExitCode::SUCCESS;
    }
    let mut report = Report::default();
    host_metadata(&mut report, &args);
    let outcome = match args.workload.as_str() {
        "fhe-exec" => Ok(run_fhe(&args, &mut report)),
        w => run_table3(&args, &mut report, w == "table3-warm"),
    };
    let out = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (own, children) = (usage(false), usage(true));
    report.meta("passes_s", format!("{:?}", out.passes));
    report.meta("cpu_user_s", own.user_s);
    report.meta("cpu_sys_s", own.sys_s);
    report.meta("child_process_peak_rss_mb", children.peak_rss_mb);
    match &out.traced {
        None => {
            report.metric("setup_s", out.setup_s, "s");
            report.metric("wall_s", median(&out.passes), "s");
            report.metric("peak_rss_mb", own.peak_rss_mb, "MB");
        }
        Some((tr, wall)) => per_layer(&mut report, &out, tr, *wall),
    }

    for (k, v) in &report.meta {
        println!("[perfbench] {k}: {v}");
    }
    if let Some(layers) = &out.table3 {
        for (key, st) in &layers.stats {
            println!("[perfbench] simulated f1_cycles.{key}: {}", st.makespan);
        }
    }
    let dir = out_dir();
    let file = dir.join(format!(
        "{}-seed{}{}.json",
        args.workload,
        args.seed,
        if args.trace { "-trace" } else { "" }
    ));
    let doc = report.document(out.traced.as_ref().map(|(tr, _)| tr.to_json()));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&file, doc)) {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
