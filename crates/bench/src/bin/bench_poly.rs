//! Software polynomial-stack microbenchmarks with a tracked JSON trajectory.
//!
//! Times the hot kernels of the CPU baseline — forward/inverse NTT (lazy
//! and retained-reference), negacyclic multiplication, decomposition
//! key-switching (the output-limb-major kernel and a faithful
//! reconstruction of the pre-lazy-reduction allocation-heavy
//! formulation), and a full BGV
//! homomorphic multiply — at paper sizes, and writes `BENCH_poly.json`
//! so every PR has a recorded perf trajectory.
//!
//! ```text
//! cargo run -p f1-bench --release --bin bench_poly            # full suite
//! F1_BENCH_QUICK=1 cargo run ... --bin bench_poly             # CI smoke
//! cargo run ... --bin bench_poly -- --check BENCH_poly.json   # regression gate
//! ```
//!
//! `--check <file>` compares the fresh run against a previously committed
//! JSON: it fails (exit 1) if any matching kernel regressed by more than
//! 1.5x, and always enforces the lazy-vs-reference speedup floor (NTT and
//! key-switch must be ≥ 2x faster than the pre-PR kernels).

use f1_fhe::bgv::{KeySet, Plaintext};
use f1_fhe::keys::SecretKey;
use f1_fhe::keyswitch::{DecompHint, KsScratch};
use f1_fhe::params::BgvParams;
use f1_modarith::{primes, Modulus};
use f1_poly::ntt::NttTables;
use f1_poly::rns::{Domain, RnsContext, RnsPoly};
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Minimum wall time per timed sample, so fast kernels batch iterations.
const SAMPLE_TARGET_S: f64 = 0.01;

/// One measured kernel data point.
struct Record {
    kernel: &'static str,
    n: usize,
    level: usize,
    ns_per_op: f64,
}

impl Record {
    fn throughput(&self) -> f64 {
        1e9 / self.ns_per_op
    }
    fn key(&self) -> (String, usize, usize) {
        (self.kernel.to_string(), self.n, self.level)
    }
}

/// Times `f`, returning the median per-iteration nanoseconds across
/// `samples` samples (each sample batches iterations to ~10 ms).
fn time_ns(samples: usize, mut f: impl FnMut()) -> f64 {
    // Warm-up and per-iteration estimate.
    let start = Instant::now();
    f();
    let once = start.elapsed().as_secs_f64().max(1e-9);
    let iters = ((SAMPLE_TARGET_S / once) as u64).clamp(1, 1 << 20);
    let mut per_iter = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        per_iter.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    per_iter.sort_by(|a, b| a.total_cmp(b));
    per_iter[per_iter.len() / 2]
}

/// The pre-PR key-switch formulation, reconstructed faithfully for the
/// before/after record: strict (non-lazy) butterflies for every transform,
/// per-digit allocation of the lift, `truncate_level` clones of both hint
/// rows, and operator-chaining (`u0 = u0.add(&lifted.mul(&row))`) instead
/// of fused in-place accumulation.
fn keyswitch_pre_pr(hint: &DecompHint, x: &RnsPoly) -> (RnsPoly, RnsPoly) {
    let l = x.level();
    let ctx = x.context().clone();
    let n = x.n();
    // y = [INTT_reference(x[i])].
    let mut y = x.clone();
    for i in 0..l {
        ctx.tables(i).inverse_reference(y.limb_mut(i));
    }
    y.assume_domain(Domain::Coefficient);
    let mut u0 = RnsPoly::zero_ntt_at_level(&ctx, l);
    let mut u1 = u0.clone();
    for i in 0..l {
        let mi = *ctx.modulus(i);
        let mut lifted = RnsPoly::zero_at_level(&ctx, l);
        for j in 0..l {
            if j == i {
                lifted.limb_mut(j).copy_from_slice(x.limb(i));
                continue;
            }
            let mj = *ctx.modulus(j);
            for c in 0..n {
                let v = mj.reduce_i64(mi.center(y.limb(i)[c]));
                lifted.limb_mut(j)[c] = v;
            }
            ctx.tables(j).forward_reference(lifted.limb_mut(j));
        }
        lifted.assume_domain(Domain::Ntt);
        let row0 = hint.row(i).0.truncate_level(l);
        let row1 = hint.row(i).1.truncate_level(l);
        u0 = u0.add(&lifted.mul(&row0));
        u1 = u1.add(&lifted.mul(&row1));
    }
    (u0, u1)
}

fn bench_ntt(records: &mut Vec<Record>, samples: usize, sizes: &[usize]) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF1);
    for &n in sizes {
        let q = primes::ntt_friendly_primes(n, 30, 1)[0];
        let m = Modulus::new(q);
        let tables = NttTables::new(n, m);
        let a: Vec<u32> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let b: Vec<u32> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let mut buf = a.clone();
        records.push(Record {
            kernel: "ntt_forward",
            n,
            level: 1,
            ns_per_op: time_ns(samples, || {
                buf.copy_from_slice(&a);
                tables.forward(&mut buf);
            }),
        });
        records.push(Record {
            kernel: "ntt_forward_ref",
            n,
            level: 1,
            ns_per_op: time_ns(samples, || {
                buf.copy_from_slice(&a);
                tables.forward_reference(&mut buf);
            }),
        });
        let mut a_hat = a.clone();
        tables.forward(&mut a_hat);
        records.push(Record {
            kernel: "ntt_inverse",
            n,
            level: 1,
            ns_per_op: time_ns(samples, || {
                buf.copy_from_slice(&a_hat);
                tables.inverse(&mut buf);
            }),
        });
        records.push(Record {
            kernel: "ntt_inverse_ref",
            n,
            level: 1,
            ns_per_op: time_ns(samples, || {
                buf.copy_from_slice(&a_hat);
                tables.inverse_reference(&mut buf);
            }),
        });
        records.push(Record {
            kernel: "negacyclic_mul",
            n,
            level: 1,
            ns_per_op: time_ns(samples, || {
                let _ = tables.negacyclic_mul(&a, &b);
            }),
        });
    }
}

fn bench_keyswitch(records: &mut Vec<Record>, samples: usize, points: &[(usize, usize)]) {
    for &(n, l) in points {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x4B5);
        let ctx = RnsContext::for_ring(n, 30, l);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let target = sk.s_squared_at_level(l);
        let hint = DecompHint::generate(&sk, &target, l, 65537, 8, &mut rng);
        let x = RnsPoly::random_at_level(&ctx, l, &mut rng).to_ntt();
        let mut scratch = KsScratch::default();
        records.push(Record {
            kernel: "keyswitch",
            n,
            level: l,
            ns_per_op: time_ns(samples, || {
                let _ = hint.apply_with_scratch(&x, &mut scratch);
            }),
        });
        records.push(Record {
            kernel: "keyswitch_pre_pr",
            n,
            level: l,
            ns_per_op: time_ns(samples, || {
                let _ = keyswitch_pre_pr(&hint, &x);
            }),
        });
    }
}

fn bench_bgv_mul(records: &mut Vec<Record>, samples: usize, points: &[(usize, usize)]) {
    for &(n, l) in points {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB6);
        let params = BgvParams::test_small(n, l);
        let keys = KeySet::generate(&params, &mut rng);
        let m1 = Plaintext::from_coeffs(&params, &[3, 1, 4]);
        let m2 = Plaintext::from_coeffs(&params, &[1, 5]);
        let ct1 = keys.encrypt(&m1, &mut rng);
        let ct2 = keys.encrypt(&m2, &mut rng);
        let mut scratch = KsScratch::default();
        records.push(Record {
            kernel: "bgv_mul",
            n,
            level: l,
            ns_per_op: time_ns(samples, || {
                let _ = ct1.mul_with_scratch(&ct2, keys.relin_hint(), &mut scratch);
            }),
        });
    }
}

fn write_json(path: &str, records: &[Record], quick: bool) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"f1-bench-poly-v1\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"host_threads\": {},\n", rayon::current_num_threads()));
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"n\": {}, \"level\": {}, \"ns_per_op\": {:.1}, \"throughput_ops_per_s\": {:.1}}}{comma}\n",
            r.kernel, r.n, r.level, r.ns_per_op, r.throughput()
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

/// Parses records out of a previously emitted `BENCH_poly.json` (one
/// record object per line, the exact format [`write_json`] produces).
fn parse_json(text: &str) -> Vec<(String, usize, usize, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with("{\"kernel\":") {
            continue;
        }
        let field = |key: &str| -> Option<&str> {
            let pat = format!("\"{key}\": ");
            let start = line.find(&pat)? + pat.len();
            let rest = &line[start..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            Some(rest[..end].trim().trim_matches('"'))
        };
        if let (Some(k), Some(n), Some(l), Some(ns)) =
            (field("kernel"), field("n"), field("level"), field("ns_per_op"))
        {
            if let (Ok(n), Ok(l), Ok(ns)) = (n.parse(), l.parse(), ns.parse()) {
                out.push((k.to_string(), n, l, ns));
            }
        }
    }
    out
}

/// Enforces the lazy-vs-reference speedup floor on a fresh run: the
/// rewritten kernels must hold ≥ `min_ratio`x over the retained pre-PR
/// kernels. Returns failure descriptions.
fn check_speedup_floor(records: &[Record], min_ratio: f64) -> Vec<String> {
    let pairs = [
        ("ntt_forward", "ntt_forward_ref"),
        ("ntt_inverse", "ntt_inverse_ref"),
        ("keyswitch", "keyswitch_pre_pr"),
    ];
    let mut failures = Vec::new();
    for (new, old) in pairs {
        for r_new in records.iter().filter(|r| r.kernel == new) {
            let Some(r_old) = records
                .iter()
                .find(|r| r.kernel == old && r.n == r_new.n && r.level == r_new.level)
            else {
                continue;
            };
            let ratio = r_old.ns_per_op / r_new.ns_per_op;
            if ratio < min_ratio {
                failures.push(format!(
                    "{new} n={} L={}: only {ratio:.2}x over {old} (need >= {min_ratio}x)",
                    r_new.n, r_new.level
                ));
            }
        }
    }
    failures
}

fn main() {
    let quick = std::env::var("F1_BENCH_QUICK").map(|v| v != "0").unwrap_or(false);
    let args: Vec<String> = std::env::args().collect();
    let check_path =
        args.iter().position(|a| a == "--check").and_then(|i| args.get(i + 1)).cloned();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_poly.json".to_string());

    let samples = if quick { 5 } else { 15 };
    let ntt_sizes: &[usize] = if quick { &[1 << 13] } else { &[1 << 13, 1 << 14] };
    // (2^14, 17) is the DB Lookup point the repository benchmark's
    // `fhe-exec` workload runs at.
    let ks_points: &[(usize, usize)] = if quick {
        &[(1 << 13, 4)]
    } else {
        &[(1 << 13, 4), (1 << 13, 16), (1 << 14, 8), (1 << 14, 17)]
    };
    let mul_points: &[(usize, usize)] =
        if quick { &[(1 << 13, 4)] } else { &[(1 << 13, 4), (1 << 14, 8), (1 << 14, 17)] };

    // Read the committed reference BEFORE running (and before `--out`
    // overwrites it, which is the normal CI flow).
    let reference_text = check_path.as_ref().map(|path| {
        std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read reference {path}: {e}"))
    });

    let mut records = Vec::new();
    println!("Polynomial-stack microbenchmarks (quick={quick}, samples={samples})\n");
    bench_ntt(&mut records, samples, ntt_sizes);
    bench_keyswitch(&mut records, samples, ks_points);
    bench_bgv_mul(&mut records, samples, mul_points);

    println!("{:<20} {:>8} {:>6} {:>14} {:>16}", "kernel", "n", "L", "ns/op", "ops/s");
    for r in &records {
        println!(
            "{:<20} {:>8} {:>6} {:>14.1} {:>16.1}",
            r.kernel,
            r.n,
            r.level,
            r.ns_per_op,
            r.throughput()
        );
    }

    write_json(&out_path, &records, quick).expect("failed to write benchmark JSON");
    println!("\nwrote {out_path}");

    let mut failed = false;
    let floor_failures = check_speedup_floor(&records, 2.0);
    if floor_failures.is_empty() {
        println!("speedup floor: all rewritten kernels >= 2x over pre-PR kernels");
    } else {
        for f in &floor_failures {
            println!("SPEEDUP FLOOR FAILED: {f}");
        }
        failed = true;
    }

    if let (Some(path), Some(text)) = (check_path, reference_text) {
        let reference = parse_json(&text);
        assert!(!reference.is_empty(), "reference {path} holds no parseable records");
        // Host-speed normalization: the pre-PR kernels (`*_ref`,
        // `keyswitch_pre_pr`) are frozen code, so their current/reference
        // ratio measures how fast *this host* is relative to the machine
        // that recorded the JSON, not any code change. Scaling the 1.5x
        // gate by their median ratio keeps the check meaningful when CI
        // runs on different hardware than the committed reference.
        let mut probe_ratios: Vec<f64> = Vec::new();
        for (k, n, l, ref_ns) in &reference {
            if !(k.ends_with("_ref") || k == "keyswitch_pre_pr") {
                continue;
            }
            if let Some(cur) = records.iter().find(|r| r.key() == (k.clone(), *n, *l)) {
                probe_ratios.push(cur.ns_per_op / ref_ns);
            }
        }
        probe_ratios.sort_by(|a, b| a.total_cmp(b));
        let host_scale =
            if probe_ratios.is_empty() { 1.0 } else { probe_ratios[probe_ratios.len() / 2] };
        println!("host-speed scale vs reference machine: {host_scale:.2}x (from frozen kernels)");
        let mut compared = 0usize;
        for (k, n, l, ref_ns) in reference {
            let Some(cur) = records.iter().find(|r| r.key() == (k.clone(), n, l)) else {
                continue;
            };
            compared += 1;
            let ratio = cur.ns_per_op / (ref_ns * host_scale);
            if ratio > 1.5 {
                println!(
                    "REGRESSION: {k} n={n} L={l}: {:.1} ns vs host-normalized reference {:.1} ns ({ratio:.2}x)",
                    cur.ns_per_op,
                    ref_ns * host_scale
                );
                failed = true;
            }
        }
        println!("regression check vs {path}: {compared} kernels compared");
    }

    if failed {
        std::process::exit(1);
    }
}
