//! The `table3-cold` and `table3-warm` workloads: the seven Table 3
//! programs at full size, compiled from their `FheProgram`s and verified
//! by the `f1-sim` checker, either cold (`compile_fhe`, no cache) or
//! warm (`compile_fhe_cached` from a cache that set-up fills).

use crate::report::{panic_message, Report};
use crate::trace::Tracer;
use f1_arch::ArchConfig;
use f1_compiler::cache::{self, CacheStatus};
use f1_compiler::expand::{self, Expanded};
use f1_compiler::movement::{self, MovePlan};
use f1_compiler::{cycle, CycleSchedule, ExpandOptions, FheProgram};
use f1_isa::FuType;
use f1_workloads::{benchmarks, Benchmark};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// A full-size benchmark builder (the argument is the width divisor).
type Builder = fn(usize) -> Benchmark;

/// Metric suffix, Table 3 row name (as in `BENCH_compile.json`), builder.
pub const PROGRAMS: [(&str, &str, Builder); 7] = [
    ("lola_cifar_uw", "LoLa-CIFAR Unencryp. Wghts.", benchmarks::lola_cifar_uw),
    ("lola_mnist_uw", "LoLa-MNIST Unencryp. Wghts.", benchmarks::lola_mnist_uw),
    ("lola_mnist_ew", "LoLa-MNIST Encryp. Wghts.", benchmarks::lola_mnist_ew),
    ("logreg", "Logistic Regression", benchmarks::logistic_regression),
    ("db_lookup", "DB Lookup", benchmarks::db_lookup),
    ("bgv_boot", "BGV Bootstrapping", benchmarks::bgv_bootstrapping),
    ("ckks_boot", "CKKS Bootstrapping", benchmarks::ckks_bootstrapping),
];

/// One program of the suite, built at full size (`F1_SCALE=1`).
pub struct Prog {
    pub key: &'static str,
    pub row: &'static str,
    pub fhe: FheProgram,
}

/// Builds the programs in the given order (indices into [`PROGRAMS`]).
pub fn build(order: &[usize]) -> Vec<Prog> {
    order
        .iter()
        .map(|&i| {
            let (key, row, builder) = PROGRAMS[i];
            Prog { key, row, fhe: builder(1).fhe }
        })
        .collect()
}

/// Schedule properties read off the artifacts, outside any timed region.
#[derive(Clone, Copy, Default)]
pub struct Stats {
    pub instrs: usize,
    pub events: usize,
    pub traffic_mb: f64,
    pub useful_traffic_ratio: f64,
    pub fu_util: f64,
    pub hbm_busy_frac: f64,
    pub entries: usize,
    pub makespan: u64,
}

impl Stats {
    fn of(ex: &Expanded, plan: &MovePlan, cs: &CycleSchedule, arch: &ArchConfig) -> Self {
        let makespan = cs.makespan.max(1);
        let busy: u64 =
            cs.schedule.compute.iter().flatten().map(|e| arch.occupancy(e.fu, ex.dfg.n)).sum();
        let fus: usize =
            FuType::ALL.iter().map(|&f| arch.fus_per_cluster(f)).sum::<usize>() * arch.clusters;
        let total = plan.traffic.total();
        Stats {
            instrs: ex.dfg.instrs().len(),
            events: plan.events.len(),
            traffic_mb: total as f64 / 1e6,
            useful_traffic_ratio: plan.traffic.compulsory() as f64 / total.max(1) as f64,
            fu_util: busy as f64 / (fus as u64 * makespan) as f64,
            hbm_busy_frac: cs.counters.hbm_channel_busy_cycles as f64
                / (arch.hbm_channels.max(1) as u64 * makespan) as f64,
            entries: cs.schedule.entry_count(),
            makespan: cs.makespan,
        }
    }
}

/// Schedule identity: FNV-1a folded over 8-byte words of the static
/// schedule's serialized bytes (the serializer is deterministic, so equal
/// schedules give equal bytes). A fraction of [`fingerprint`]'s cost,
/// which is why every hit can afford it; it still runs outside timing.
fn identity(cs: &CycleSchedule) -> u64 {
    let bytes = serde::to_bytes(&cs.schedule);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for c in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..c.len()].copy_from_slice(c);
        h ^= u64::from_le_bytes(word);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ bytes.len() as u64
}

/// The repo's schedule fingerprint: FNV-1a over the `Debug` rendering of
/// the static schedule, streamed (the value `BENCH_compile.json`
/// records). Costs seconds on the largest programs, so only traced runs
/// compute it, once per program, for the committed comparison.
fn fingerprint(cs: &CycleSchedule) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
            Ok(())
        }
    }
    use std::fmt::Write;
    let mut w = Fnv(0xcbf2_9ce4_8422_2325);
    write!(w, "{:?}", cs.schedule).expect("fnv writer is infallible");
    w.0
}

/// The makespan and fingerprint `BENCH_compile.json` records for a
/// Table 3 row, if the file is present and lists it.
fn committed(row: &str) -> Option<(u64, String)> {
    let text = std::fs::read_to_string("BENCH_compile.json").ok()?;
    let line = text.lines().find(|l| l.contains(&format!("\"name\": \"{row}\"")))?;
    let field = |k: &str| {
        let rest = &line[line.find(&format!("\"{k}\": "))? + k.len() + 4..];
        Some(rest[..rest.find([',', '}'])?].trim_matches('"').to_string())
    };
    Some((field("makespan")?.parse().ok()?, field("fingerprint")?))
}

/// Per-layer data a table3 workload hands to the report.
#[derive(Default)]
pub struct Layers {
    pub stats: BTreeMap<&'static str, Stats>,
    pub cache_store_s: f64,
    pub cache_entry_mb: f64,
    pub hits: usize,
    pub misses: usize,
}

/// Per-run state: the suite, the first identity seen per program, and
/// the per-layer data.
pub struct Suite {
    progs: Vec<Prog>,
    arch: ArchConfig,
    /// Reference `(makespan, identity)` per program: the set-up compile
    /// (warm) or the first pass (cold).
    reference: BTreeMap<&'static str, (u64, u64)>,
    /// Whether to compare each program once with `BENCH_compile.json`
    /// (traced runs only: the `Debug` fingerprint costs seconds).
    compare_committed: bool,
    compared: BTreeSet<&'static str>,
    pub layers: Layers,
}

impl Suite {
    pub fn new(progs: Vec<Prog>, compare_committed: bool) -> Self {
        Self {
            progs,
            arch: ArchConfig::f1_default(),
            reference: BTreeMap::new(),
            compare_committed,
            compared: BTreeSet::new(),
            layers: Layers::default(),
        }
    }

    /// Records a verified schedule's identity. The first one per program
    /// becomes the reference; any later one must match it in makespan and
    /// identity. In traced runs, also notes (for information) whether it
    /// matches the committed `BENCH_compile.json` entry.
    fn identify(&mut self, p: usize, cs: &CycleSchedule, report: &mut Report) {
        let key = self.progs[p].key;
        let id = (cs.makespan, identity(cs));
        match self.reference.get(key) {
            Some(&(m, h)) if (m, h) != id => report.fail(
                key,
                format!(
                    "schedule identity changed: makespan {} identity {:016x}, expected {m} {h:016x}",
                    id.0, id.1
                ),
            ),
            Some(_) => {}
            None => {
                self.reference.insert(key, id);
            }
        }
        if self.compare_committed && !self.compared.contains(key) {
            self.note_committed(p, cs.makespan, fingerprint(cs), report);
        }
    }

    /// Notes whether `(makespan, fingerprint)` equals the committed
    /// `BENCH_compile.json` entry (informational: a scheduler change may
    /// move it).
    fn note_committed(&mut self, p: usize, makespan: u64, fingerprint: u64, report: &mut Report) {
        let (key, row) = (self.progs[p].key, self.progs[p].row);
        self.compared.insert(key);
        let note = match committed(row) {
            Some((m, f)) => format!(
                "makespan {} fingerprint {}",
                if m == makespan { "equal" } else { "differs" },
                if f == format!("{fingerprint:016x}") { "equal" } else { "differs" }
            ),
            None => "no committed entry".to_string(),
        };
        report.meta(format!("committed.{key}"), note);
    }

    /// One untraced cold pass: `compile_fhe` then `check_schedule` per
    /// program. Returns the timed seconds (identity checks excluded).
    pub fn cold_pass(&mut self, report: &mut Report) -> f64 {
        let mut timed = 0.0;
        for p in 0..self.progs.len() {
            let arch = &self.arch;
            let fhe = &self.progs[p].fhe;
            let t = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| {
                let (_lowered, _opt, ex, plan, cs) = f1_compiler::compile_fhe(fhe, arch);
                let sim = f1_sim::check_schedule(&ex, &plan, &cs, arch);
                (sim.makespan, ex, plan, cs)
            }));
            timed += t.elapsed().as_secs_f64();
            self.finish(p, out, report);
        }
        timed
    }

    /// One traced cold pass: optimize+lower, the three passes and the
    /// checker, each in its own span.
    pub fn cold_pass_traced(&mut self, tr: &mut Tracer, report: &mut Report) -> f64 {
        let start = tr.spans().len();
        for p in 0..self.progs.len() {
            let arch = &self.arch;
            let (key, fhe) = (self.progs[p].key, &self.progs[p].fhe);
            let depth = tr.depth();
            let out = catch_unwind(AssertUnwindSafe(|| {
                tr.span("program", key, |tr| {
                    let lowered = tr.span("ir.optimize", key, |_| {
                        let unrolled;
                        let flat = if fhe.repeats().is_empty() {
                            fhe
                        } else {
                            unrolled = fhe.unroll();
                            &unrolled
                        };
                        flat.optimize().0.lower()
                    });
                    let opts = ExpandOptions { machine: Some(arch.clone()), ..Default::default() };
                    let ex = tr.span("expand", key, |_| expand::expand(&lowered.program, &opts));
                    let plan = tr.span("movement", key, |_| movement::schedule(&ex, arch));
                    let cs = tr.span("cycle", key, |_| cycle::schedule(&ex, &plan, arch));
                    let sim =
                        tr.span("checker", key, |_| f1_sim::check_schedule(&ex, &plan, &cs, arch));
                    (sim.makespan, ex, plan, cs)
                })
            }));
            tr.close_to(depth);
            self.finish(p, out, report);
        }
        program_span_seconds(tr, start)
    }

    /// Books one program's outcome: a caught panic is a failure; a
    /// verified makespan must equal the schedule's own.
    fn finish(
        &mut self,
        p: usize,
        out: std::thread::Result<(u64, Expanded, MovePlan, CycleSchedule)>,
        report: &mut Report,
    ) {
        report.attempted += 1;
        let key = self.progs[p].key;
        match out {
            Err(payload) => report.fail(key, panic_message(&*payload)),
            Ok((verified, ex, plan, cs)) => {
                if verified != cs.makespan {
                    report.fail(
                        key,
                        format!(
                            "checker verified {verified} cycles, schedule claims {}",
                            cs.makespan
                        ),
                    );
                }
                let stats = Stats::of(&ex, &plan, &cs, &self.arch);
                self.layers.stats.insert(key, stats);
                drop((ex, plan));
                self.identify(p, &cs, report);
            }
        }
    }

    /// Warm set-up: a child process fills the fresh cache directory (so
    /// the compile's memory peak stays out of this process's high-water
    /// mark). Each fill's identity becomes the reference the hits must
    /// reproduce. With `traced`, the child also times an uncached compile
    /// of each program so the store share can be split out, and reports
    /// its `Debug` fingerprint for the committed comparison. Returns the
    /// summed fill seconds (the cache part of `setup_s`).
    pub fn fill(&mut self, dir: &Path, traced: bool, report: &mut Report) -> Result<f64, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let out = Command::new(exe)
            .args(["--fill-cache", "--trace", if traced { "1" } else { "0" }])
            .env("F1_CACHE_DIR", dir)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start the cache-fill process: {e}"))?;
        if !out.status.success() {
            return Err(format!("cache-fill process exited with {}", out.status));
        }
        let mut fill_s = 0.0;
        let mut reported = vec![false; self.progs.len()];
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            let f: Vec<&str> = line.split('\t').collect();
            let Some(p) = self.progs.iter().position(|p| f.get(1) == Some(&p.key)) else {
                continue;
            };
            let key = self.progs[p].key;
            reported[p] = true;
            match f[0] {
                "fill" if f.len() == 7 => {
                    let num = |i: usize| f[i].parse::<f64>().unwrap_or(f64::NAN);
                    fill_s += num(2);
                    if traced {
                        self.layers.cache_store_s += num(2) - num(3);
                    }
                    let makespan = f[4].parse().unwrap_or(0);
                    let hex = |i: usize| u64::from_str_radix(f[i], 16).ok();
                    self.reference.insert(key, (makespan, hex(5).unwrap_or(0)));
                    if let Some(fp) = hex(6) {
                        self.note_committed(p, makespan, fp, report);
                    }
                }
                _ => report.fail(key, format!("cache fill: {}", f[2..].join(" "))),
            }
        }
        for (p, reported) in self.progs.iter().zip(reported) {
            if !reported {
                return Err(format!("cache-fill process reported nothing for {}", p.key));
            }
            let path = cache::fhe_entry_path(&p.fhe, &self.arch, &None);
            self.layers.cache_entry_mb +=
                std::fs::metadata(path).map(|m| m.len() as f64 / 1e6).unwrap_or(0.0);
        }
        Ok(fill_s)
    }

    /// One warm pass: `compile_fhe_cached` (which must hit) then
    /// `check_streams` per program, each in a span when traced.
    pub fn warm_pass(&mut self, mut tr: Option<&mut Tracer>, report: &mut Report) -> f64 {
        let start = tr.as_ref().map_or(0, |t| t.spans().len());
        let mut timed = 0.0;
        for p in 0..self.progs.len() {
            let arch = &self.arch;
            let (key, fhe) = (self.progs[p].key, &self.progs[p].fhe);
            let depth = tr.as_ref().map_or(0, |t| t.depth());
            let t = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| {
                maybe_span(tr.as_deref_mut(), "program", key, |mut tr| {
                    let ((_l, _o, ex, plan, cs), status) =
                        maybe_span(tr.as_deref_mut(), "cache.load", key, |_| {
                            cache::compile_fhe_cached(fhe, arch, None)
                        });
                    let verified =
                        maybe_span(tr, "checker", key, |_| f1_sim::check_streams(&ex, &cs, arch));
                    (status, (verified, ex, plan, cs))
                })
            }));
            timed += t.elapsed().as_secs_f64();
            if let Some(tr) = tr.as_deref_mut() {
                tr.close_to(depth);
            }
            let out = out.map(|(status, artifacts)| {
                match status {
                    CacheStatus::Hit => self.layers.hits += 1,
                    CacheStatus::Miss => {
                        self.layers.misses += 1;
                        report.fail(key, "cache miss on a warm pass");
                    }
                }
                artifacts
            });
            self.finish(p, out, report);
        }
        match tr {
            Some(tr) => program_span_seconds(tr, start),
            None => timed,
        }
    }
}

/// Runs `f` in a span when tracing, bare otherwise.
fn maybe_span<R>(
    tr: Option<&mut Tracer>,
    name: &'static str,
    program: &'static str,
    f: impl FnOnce(Option<&mut Tracer>) -> R,
) -> R {
    match tr {
        Some(tr) => tr.span(name, program, |tr| f(Some(tr))),
        None => f(None),
    }
}

/// Total duration of the `program` spans recorded since span `start`.
fn program_span_seconds(tr: &Tracer, start: usize) -> f64 {
    tr.spans()[start..].iter().filter(|s| s.name == "program").map(|s| s.seconds()).sum()
}

/// The cache-fill child: compiles every program through
/// `compile_fhe_cached` into `$F1_CACHE_DIR` (which must be empty) and
/// prints one tab-separated line per program:
/// `fill <key> <fill_s> <compile_s> <makespan> <identity> <fingerprint>`,
/// or `fail <key> <message>`. `compile_s` (an uncached compile of the same
/// program) and the `Debug` fingerprint are computed only when `traced`;
/// otherwise they read `0` and `-`.
pub fn fill_child(traced: bool) {
    let arch = ArchConfig::f1_default();
    for prog in build(&(0..PROGRAMS.len()).collect::<Vec<_>>()) {
        let out = catch_unwind(AssertUnwindSafe(|| {
            let t = Instant::now();
            let ((_l, _o, _ex, _plan, cs), status) =
                cache::compile_fhe_cached(&prog.fhe, &arch, None);
            let fill_s = t.elapsed().as_secs_f64();
            assert_eq!(status, CacheStatus::Miss, "set-up found an entry in a fresh cache");
            let compile_s = if traced {
                let t = Instant::now();
                drop(f1_compiler::compile_fhe(&prog.fhe, &arch));
                t.elapsed().as_secs_f64()
            } else {
                0.0
            };
            let fp = if traced { format!("{:016x}", fingerprint(&cs)) } else { "-".into() };
            (fill_s, compile_s, cs.makespan, identity(&cs), fp)
        }));
        match out {
            Ok((fill_s, compile_s, makespan, id, fp)) => {
                println!("fill\t{}\t{fill_s}\t{compile_s}\t{makespan}\t{id:016x}\t{fp}", prog.key)
            }
            Err(e) => {
                println!("fail\t{}\t{}", prog.key, panic_message(&*e).replace(['\n', '\t'], " "))
            }
        }
    }
}

/// The benchmark-owned cache directory: created empty, removed on drop.
pub struct CacheDir(pub PathBuf);

impl CacheDir {
    pub fn fresh(path: PathBuf) -> std::io::Result<Self> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }
}

impl Drop for CacheDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
