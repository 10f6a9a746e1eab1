//! Compile-time benchmark: per-pass wall-clock over the benchmark
//! suite, a synthetic stress program ~10× the largest benchmark, the
//! schedule cache's cold/hit cost, and serial-vs-parallel determinism.
//!
//! ```text
//! cargo run -p f1-bench --release --bin bench_compile            # full scale
//! cargo run ... --bin bench_compile -- --quick --check           # CI smoke
//! ```
//!
//! Flags:
//!
//! * `--quick` — run at the reduced `F1_SCALE` default (8) with a small
//!   stress program; without it the suite runs at full scale.
//! * `--check` — enforce the regression gates (exit 1 on violation).
//! * `--out PATH` — where to write the JSON report (default
//!   `BENCH_compile.json`).
//! * `--fingerprints PATH` — additionally write just the per-benchmark
//!   schedule fingerprints (stable across runs; CI diffs two runs'
//!   files to prove cross-process cache coherence).
//! * `--expect-hit` — serve every benchmark compile from the schedule
//!   cache, failing if any misses; re-verifies each cached schedule
//!   with the stream checker. Skips the timing-only sections.
//! * `--schema-ref PATH` — compare this run's JSON key set against a
//!   reference report (the committed `BENCH_compile.json`); exit 1 on
//!   schema drift.
//!
//! Timings are wall-clock and machine-dependent; the *gates* are chosen
//! to hold on any multi-core runner (and the hardest ones —
//! byte-identical parallel schedules, ≥10× cache-hit speedup — are
//! machine-independent by construction). The committed
//! `BENCH_compile.json` records a full-scale run; the seed baseline it
//! gates pass 3 against was measured at commit 82ebae9 on the same
//! machine that produced the committed report.

use f1_arch::ArchConfig;
use f1_bench::bench_scale_or;
use f1_compiler::cache::{self, CacheStatus};
use f1_compiler::dsl::Program;
use f1_compiler::expand::{self, ExpandOptions};
use f1_compiler::ir::{FheProgram, Scheme};
use f1_compiler::par::with_compile_threads;
use f1_compiler::{cycle, movement};
use f1_workloads::all_benchmarks;
use std::time::Instant;

/// Pass-3 wall-clock on the largest full-scale benchmark at the growth
/// seed (commit 82ebae9), before this module's scheduler rework — the
/// denominator of the ≥2× pass-3 gate.
const SEED_PASS3_S: f64 = 11.16;
const SEED_BENCH: &str = "Logistic Regression";
const SEED_SOURCE: &str = "measured at commit 82ebae9, F1_SCALE=1, single-threaded";

/// FNV-1a accumulator fed by `Debug` formatting — the repo's schedule
/// fingerprint idiom (`fnv64(format!("{:?}", ..))`), but streamed so
/// the stress program's multi-million-entry schedule never has to
/// materialize as one giant string.
struct FnvWriter(u64);

impl std::fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn fnv_debug(x: &impl std::fmt::Debug) -> u64 {
    use std::fmt::Write;
    let mut w = FnvWriter(0xcbf2_9ce4_8422_2325);
    write!(w, "{x:?}").expect("fnv writer is infallible");
    w.0
}

struct PassTimes {
    name: String,
    instrs: usize,
    values: usize,
    events: usize,
    expand_s: f64,
    movement_s: f64,
    cycle_s: f64,
    makespan: u64,
    fingerprint: u64,
}

impl PassTimes {
    fn total_s(&self) -> f64 {
        self.expand_s + self.movement_s + self.cycle_s
    }
}

/// Times the three passes separately and fingerprints the emitted
/// schedule. Also returns the artifacts for cache seeding.
fn time_passes(
    name: &str,
    program: &Program,
    arch: &ArchConfig,
) -> (PassTimes, (expand::Expanded, movement::MovePlan, cycle::CycleSchedule)) {
    let opts = ExpandOptions { machine: Some(arch.clone()), ..Default::default() };
    let t0 = Instant::now();
    let ex = expand::expand(program, &opts);
    let t1 = t0.elapsed().as_secs_f64();
    let plan = movement::schedule(&ex, arch);
    let t2 = t0.elapsed().as_secs_f64();
    let cs = cycle::schedule(&ex, &plan, arch);
    let t3 = t0.elapsed().as_secs_f64();
    let pt = PassTimes {
        name: name.to_string(),
        instrs: ex.dfg.instrs().len(),
        values: ex.dfg.values().len(),
        events: plan.events.len(),
        expand_s: t1,
        movement_s: t2 - t1,
        cycle_s: t3 - t2,
        makespan: cs.makespan,
        fingerprint: fnv_debug(&cs.schedule),
    };
    (pt, (ex, plan, cs))
}

/// Builds the synthetic stress program as a rolled loop region of
/// square → rotate → add steps, with the trip count calibrated (via two
/// cheap truncation compiles) so the unrolled expanded-DFG instruction
/// count lands near `target_instrs`.
fn stress_program(n: usize, l: usize, target_instrs: usize, arch: &ArchConfig) -> FheProgram {
    let chain = |trips: u32| {
        let mut p = FheProgram::new(n, Scheme::Bgv);
        let acc = p.input(l);
        let t = p.begin_repeat();
        let m = p.square(acc);
        let r = p.aut(m, 9);
        let acc2 = p.add(r, m);
        p.end_repeat(t, trips, vec![(acc, acc2)], vec![]);
        p.output(acc2);
        p
    };
    let opts = ExpandOptions { machine: Some(arch.clone()), ..Default::default() };
    let instrs_at = |trips: u32| {
        let (opt, _) = chain(trips).unroll().optimize();
        expand::expand(&opt.lower().program, &opts).dfg.instrs().len()
    };
    let base = instrs_at(8);
    let probe = instrs_at(12);
    let per_trip = (probe.saturating_sub(base) / 4).max(1);
    // The floor of 18 extra trips only matters for tiny targets; it
    // stays so the committed stress size (and its fingerprint) holds.
    let trips = 8 + (target_instrs.saturating_sub(base) / per_trip).max(18) as u32;
    chain(trips)
}

fn json_num(x: f64) -> String {
    format!("{x:.4}")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let opt =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned();
    let quick = flag("--quick");
    let check = flag("--check");
    let expect_hit = flag("--expect-hit");
    let out_path = opt("--out").unwrap_or_else(|| "BENCH_compile.json".to_string());
    let fingerprints_path = opt("--fingerprints");
    let schema_ref = opt("--schema-ref");

    let scale = if quick { bench_scale_or(8) } else { bench_scale_or(1) };
    let arch = ArchConfig::f1_default();
    let benches = all_benchmarks(scale);
    let cores = rayon::current_num_threads();
    println!(
        "bench_compile: scale 1/{scale}, {cores} core(s){}",
        if quick { ", quick" } else { "" }
    );

    // --- Per-benchmark pass timings (single-threaded for stable
    // numbers), seeding the schedule cache as we go. With --expect-hit
    // every compile must instead be served from the cache.
    let mut rows: Vec<PassTimes> = Vec::new();
    let mut misses = 0usize;
    println!(
        "\n{:<30} {:>9} {:>9} {:>8} {:>8} {:>8} {:>8}",
        "benchmark", "instrs", "events", "expand", "movemnt", "cycle", "total"
    );
    for b in &benches {
        if expect_hit {
            let t0 = Instant::now();
            let ((ex, _plan, cs), status) = cache::compile_cached(&b.program, &arch);
            let load_s = t0.elapsed().as_secs_f64();
            if status != CacheStatus::Hit {
                misses += 1;
            }
            // A deserialized schedule is only trusted after the stream
            // checker re-verifies it.
            let makespan = f1_sim::check_streams(&ex, &cs, &arch);
            rows.push(PassTimes {
                name: b.name.to_string(),
                instrs: ex.dfg.instrs().len(),
                values: ex.dfg.values().len(),
                events: 0,
                expand_s: 0.0,
                movement_s: 0.0,
                cycle_s: 0.0,
                makespan,
                fingerprint: fnv_debug(&cs.schedule),
            });
            println!(
                "{:<30} {:>9} {:>9} {:>35.2}s  ({})",
                b.name,
                ex.dfg.instrs().len(),
                "-",
                load_s,
                if status == CacheStatus::Hit { "cache hit" } else { "CACHE MISS" }
            );
            continue;
        }
        let (pt, (ex, plan, cs)) =
            with_compile_threads(1, || time_passes(b.name, &b.program, &arch));
        if let Err(e) = cache::store_dsl(&b.program, &arch, (&ex, &plan, &cs)) {
            eprintln!("[bench_compile] cache seed failed for {}: {e}", b.name);
        }
        println!(
            "{:<30} {:>9} {:>9} {:>7.2}s {:>7.2}s {:>7.2}s {:>7.2}s",
            pt.name,
            pt.instrs,
            pt.events,
            pt.expand_s,
            pt.movement_s,
            pt.cycle_s,
            pt.total_s()
        );
        rows.push(pt);
    }
    let serial_suite_s: f64 = rows.iter().map(|r| r.total_s()).sum();

    // --- Parallel re-run: same suite with the intra-compile parallel
    // regions enabled. Schedules must be byte-identical (fingerprints);
    // the wall-clock ratio is the suite speedup.
    let par_threads = cores.max(2);
    let mut parallel_suite_s = 0.0f64;
    let mut fingerprints_equal = true;
    if !expect_hit {
        for (b, serial_row) in benches.iter().zip(&rows) {
            let (pt, _) =
                with_compile_threads(par_threads, || time_passes(b.name, &b.program, &arch));
            parallel_suite_s += pt.total_s();
            if pt.fingerprint != serial_row.fingerprint {
                fingerprints_equal = false;
                eprintln!(
                    "[bench_compile] PARALLEL DIVERGENCE on {}: {:016x} != {:016x}",
                    b.name, pt.fingerprint, serial_row.fingerprint
                );
            }
        }
        println!(
            "\nparallel ({par_threads} threads): suite {:.2}s vs serial {:.2}s ({:.2}x), schedules {}",
            parallel_suite_s,
            serial_suite_s,
            serial_suite_s / parallel_suite_s.max(1e-9),
            if fingerprints_equal { "byte-identical" } else { "DIVERGED" }
        );
    }

    // --- Stress program: ~10× the largest benchmark's expanded size at
    // full scale (~2× in quick mode, to keep CI smoke fast), built as a
    // rolled loop region and compiled flat: unroll, optimize, lower, then
    // the three scheduling passes, all single-threaded.
    let mut stress: Option<PassTimes> = None;
    if !expect_hit {
        let largest = rows.iter().max_by_key(|r| r.instrs).expect("suite is non-empty");
        let factor = if quick { 2 } else { 10 };
        let (n, l) = (1 << 10, 6);
        let sp = stress_program(n, l, largest.instrs * factor, &arch);
        let trips = sp.repeats()[0].trips;
        let lowered = with_compile_threads(1, || sp.unroll().optimize().0.lower());
        let (pt, _) =
            with_compile_threads(1, || time_passes("synthetic-stress", &lowered.program, &arch));
        println!(
            "stress ({}x largest, {} trips): {} instrs  expand {:.2}s  movement {:.2}s  cycle {:.2}s",
            factor, trips, pt.instrs, pt.expand_s, pt.movement_s, pt.cycle_s
        );
        stress = Some(pt);
    }

    // --- Cache cold vs hit on the largest benchmark.
    let largest_idx = (0..rows.len()).max_by_key(|&i| rows[i].instrs).expect("suite is non-empty");
    let largest_bench = &benches[largest_idx];
    cache::evict_dsl(&largest_bench.program, &arch);
    let t0 = Instant::now();
    let (_, cold_status) = cache::compile_cached(&largest_bench.program, &arch);
    let cold_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let ((hit_ex, _, hit_cs), hit_status) = cache::compile_cached(&largest_bench.program, &arch);
    let hit_s = t0.elapsed().as_secs_f64();
    let hit_fingerprint = fnv_debug(&hit_cs.schedule);
    f1_sim::check_streams(&hit_ex, &hit_cs, &arch);
    let cache_ok = cold_status == CacheStatus::Miss
        && hit_status == CacheStatus::Hit
        && hit_fingerprint == rows[largest_idx].fingerprint;
    let cache_speedup = cold_s / hit_s.max(1e-9);
    println!(
        "cache ({}): cold {:.2}s, hit {:.3}s ({:.1}x), artifacts {}",
        largest_bench.name,
        cold_s,
        hit_s,
        cache_speedup,
        if cache_ok { "verified" } else { "MISMATCH" }
    );

    // --- Gates.
    let pass3_s = rows[largest_idx].cycle_s;
    let pass3_speedup = SEED_PASS3_S / pass3_s.max(1e-9);
    let pass3_enforced = !quick && !expect_hit && scale == 1;
    let pass3_pass = !pass3_enforced || pass3_speedup >= 2.0;
    let cache_required = if quick { 2.0 } else { 10.0 };
    let cache_pass = cache_ok && cache_speedup >= cache_required;
    let par_enforced = !expect_hit && cores >= 4;
    let par_speedup = serial_suite_s / parallel_suite_s.max(1e-9);
    let par_pass = !par_enforced || par_speedup >= 1.8;
    let hits_pass = !expect_hit || misses == 0;

    // --- JSON report.
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"f1-bench-compile-v3\",\n");
    out.push_str(&format!("  \"scale\": {scale},\n"));
    out.push_str(&format!("  \"cores\": {cores},\n"));
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str("  \"benchmarks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"instrs\": {}, \"values\": {}, \"events\": {}, \
             \"expand_s\": {}, \"movement_s\": {}, \"cycle_s\": {}, \"total_s\": {}, \
             \"makespan\": {}, \"fingerprint\": \"{:016x}\"}}{}\n",
            r.name,
            r.instrs,
            r.values,
            r.events,
            json_num(r.expand_s),
            json_num(r.movement_s),
            json_num(r.cycle_s),
            json_num(r.total_s()),
            r.makespan,
            r.fingerprint,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    match &stress {
        Some(r) => out.push_str(&format!(
            "  \"stress\": {{\"name\": \"{}\", \"instrs\": {}, \"values\": {}, \"events\": {}, \
             \"expand_s\": {}, \"movement_s\": {}, \"cycle_s\": {}, \"total_s\": {}, \
             \"makespan\": {}, \"fingerprint\": \"{:016x}\"}},\n",
            r.name,
            r.instrs,
            r.values,
            r.events,
            json_num(r.expand_s),
            json_num(r.movement_s),
            json_num(r.cycle_s),
            json_num(r.total_s()),
            r.makespan,
            r.fingerprint
        )),
        None => out.push_str("  \"stress\": null,\n"),
    }
    out.push_str(&format!(
        "  \"cache\": {{\"benchmark\": \"{}\", \"cold_s\": {}, \"hit_s\": {}, \"speedup\": {}, \
         \"verified\": {}}},\n",
        largest_bench.name,
        json_num(cold_s),
        json_num(hit_s),
        json_num(cache_speedup),
        cache_ok
    ));
    out.push_str(&format!(
        "  \"parallel\": {{\"threads\": {par_threads}, \"serial_suite_s\": {}, \
         \"parallel_suite_s\": {}, \"speedup\": {}, \"fingerprints_equal\": {}}},\n",
        json_num(serial_suite_s),
        json_num(parallel_suite_s),
        json_num(par_speedup),
        fingerprints_equal
    ));
    out.push_str(&format!(
        "  \"seed_baseline\": {{\"benchmark\": \"{SEED_BENCH}\", \"pass3_s\": {SEED_PASS3_S}, \
         \"source\": \"{SEED_SOURCE}\"}},\n"
    ));
    out.push_str("  \"gates\": {\n");
    out.push_str(&format!(
        "    \"pass3_speedup_vs_seed\": {{\"required\": 2.0, \"actual\": {}, \"enforced\": {}, \"pass\": {}}},\n",
        json_num(pass3_speedup),
        pass3_enforced,
        pass3_pass
    ));
    out.push_str(&format!(
        "    \"cache_hit_speedup\": {{\"required\": {}, \"actual\": {}, \"enforced\": true, \"pass\": {}}},\n",
        json_num(cache_required),
        json_num(cache_speedup),
        cache_pass
    ));
    out.push_str(&format!(
        "    \"parallel_fingerprints_equal\": {{\"enforced\": {}, \"pass\": {}}},\n",
        !expect_hit, fingerprints_equal
    ));
    out.push_str(&format!(
        "    \"parallel_suite_speedup\": {{\"required\": 1.8, \"actual\": {}, \"enforced\": {}, \"pass\": {}}},\n",
        json_num(par_speedup),
        par_enforced,
        par_pass
    ));
    out.push_str(&format!(
        "    \"cache_hits\": {{\"enforced\": {}, \"pass\": {}}}\n",
        expect_hit, hits_pass
    ));
    out.push_str("  }\n");
    out.push_str("}\n");
    std::fs::write(&out_path, &out).expect("failed to write bench_compile JSON");
    println!("wrote {out_path}");

    if let Some(fp_path) = &fingerprints_path {
        let mut fp = String::new();
        for r in &rows {
            fp.push_str(&format!(
                "{} {:016x} {}\n",
                r.name.replace(' ', "_"),
                r.fingerprint,
                r.makespan
            ));
        }
        std::fs::write(fp_path, fp).expect("failed to write fingerprints file");
        println!("wrote {fp_path}");
    }

    // --- Schema diff vs the committed report: the key *set* must match
    // (values are machine-dependent; the shape is the contract).
    if let Some(ref_path) = &schema_ref {
        let reference = std::fs::read_to_string(ref_path)
            .unwrap_or_else(|e| panic!("cannot read schema reference {ref_path}: {e}"));
        let keys = |s: &str| -> Vec<String> {
            let mut ks: Vec<String> = s
                .split('"')
                .skip(1)
                .step_by(2)
                .zip(s.split('"').skip(2).step_by(2))
                .filter(|(_, after)| after.trim_start().starts_with(':'))
                .map(|(k, _)| k.to_string())
                .collect();
            ks.sort();
            ks.dedup();
            ks
        };
        let (got, want) = (keys(&out), keys(&reference));
        if got != want {
            let missing: Vec<_> = want.iter().filter(|k| !got.contains(k)).collect();
            let extra: Vec<_> = got.iter().filter(|k| !want.contains(k)).collect();
            eprintln!("SCHEMA DRIFT vs {ref_path}: missing {missing:?}, extra {extra:?}");
            std::process::exit(1);
        }
        println!("schema matches {ref_path}");
    }

    if check {
        let mut failed = Vec::new();
        if !pass3_pass {
            failed.push(format!("pass3_speedup_vs_seed ({pass3_speedup:.2} < 2.0)"));
        }
        if !cache_pass {
            failed.push(format!("cache_hit_speedup ({cache_speedup:.2} < {cache_required})"));
        }
        if !fingerprints_equal {
            failed.push("parallel_fingerprints_equal".to_string());
        }
        if !par_pass {
            failed.push(format!("parallel_suite_speedup ({par_speedup:.2} < 1.8)"));
        }
        if !hits_pass {
            failed.push(format!("cache_hits ({misses} miss(es) under --expect-hit)"));
        }
        if !failed.is_empty() {
            eprintln!("GATE FAILURES: {}", failed.join(", "));
            std::process::exit(1);
        }
        println!("all enforced gates pass");
    }
}
