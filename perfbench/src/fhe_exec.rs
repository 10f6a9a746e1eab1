//! The `fhe-exec` workload: DB Lookup at its Table 3 parameters
//! (N = 2^14, L = 17, 64 entries) executed on real software BGV through
//! `BgvExecutor`, checked against a plaintext reference the benchmark
//! computes itself.

use crate::report::{median, panic_message, Report};
use crate::trace::Tracer;
use f1_compiler::dsl::{CtId, HomOp, Program};
use f1_fhe::bgv::{Ciphertext, Plaintext};
use f1_fhe::params::BgvParams;
use f1_modarith::Modulus;
use f1_sim::BgvExecutor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const N: usize = 1 << 14;
const L: usize = 17;
const ENTRIES: usize = 64;
const KEY: &str = "db_lookup";

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The measured per-layer figures of the `fhe` layer.
#[derive(Default)]
pub struct FheLayer {
    pub keygen_s: f64,
    pub hom_ops: usize,
    pub noise_bits: f64,
}

pub struct FheExec {
    seed: u64,
    params: BgvParams,
    program: Program,
    exec: BgvExecutor,
    inputs: HashMap<CtId, Plaintext>,
    plains: HashMap<CtId, Plaintext>,
    expected: Plaintext,
    pub layer: FheLayer,
}

/// Query and key plaintexts are seed-drawn monomials `c·X^e`, values are
/// dense seed-drawn polynomials: the squaring chain stays sparse, so the
/// schoolbook plaintext reference is cheap, while the masked values
/// exercise every coefficient.
struct Data {
    query: Plaintext,
    keys: Vec<Plaintext>,
    values: Vec<Plaintext>,
}

fn draw(params: &BgvParams, rng: &mut StdRng) -> Data {
    let t = params.plaintext_modulus;
    let monomial = |rng: &mut StdRng| {
        let mut c = vec![0u64; N];
        c[rng.gen_range(0..N)] = rng.gen_range(1..t);
        Plaintext::from_coeffs(params, &c)
    };
    let query = monomial(rng);
    let keys = (0..ENTRIES).map(|_| monomial(rng)).collect();
    let values = (0..ENTRIES)
        .map(|_| {
            Plaintext::from_coeffs(params, &(0..N).map(|_| rng.gen_range(0..t)).collect::<Vec<_>>())
        })
        .collect();
    Data { query, keys, values }
}

/// DB Lookup evaluated directly in the plaintext ring `Z_t[X]/(X^N + 1)`
/// from the definition in `benchmarks::db_lookup`, never through the
/// compiler: per entry `(query + key)^16 · value`, summed, then
/// `inner_sum` over 64 slots by rotations `σ_{3^(2^j)}` and adds.
fn reference(d: &Data, params: &BgvParams) -> Plaintext {
    let mut acc: Option<Plaintext> = None;
    for (key, value) in d.keys.iter().zip(&d.values) {
        let mut eq = d.query.ring_add(key);
        for _ in 0..4 {
            eq = eq.ring_mul(&eq);
        }
        let hit = eq.ring_mul(value);
        acc = Some(match acc {
            Some(a) => a.ring_add(&hit),
            None => hit,
        });
    }
    let mut x = acc.expect("at least one entry");
    let m = Modulus::new(params.plaintext_modulus as u32);
    for j in 0..ENTRIES.trailing_zeros() {
        let k = f1_poly::automorphism::rotation_exponent(1 << j, N);
        let a: Vec<u32> = x.coeffs().iter().map(|&c| c as u32).collect();
        let rotated: Vec<u64> =
            f1_poly::automorphism::apply_coeff(&a, k, &m).into_iter().map(u64::from).collect();
        x = x.ring_add(&Plaintext::from_coeffs(params, &rotated));
    }
    x
}

impl FheExec {
    /// Builds the program, the parameter chain and the keys, and draws
    /// the inputs, [`SETUP_REPS`] times; returns the last set-up and the
    /// median set-up seconds. The reference is computed afterwards,
    /// outside the set-up timing.
    pub fn setup(seed: u64) -> (Self, f64) {
        let mut times = Vec::new();
        let mut built = None;
        for _ in 0..SETUP_REPS {
            drop(built.take());
            let t = Instant::now();
            let lowered = f1_workloads::benchmarks::db_lookup(1).fhe.optimize().0.lower();
            let params = BgvParams::test_small(N, L);
            let mut rng = StdRng::seed_from_u64(seed);
            let kt = Instant::now();
            let exec = BgvExecutor::new(params.clone(), &lowered.program, &mut rng);
            let keygen_s = kt.elapsed().as_secs_f64();
            let data = draw(&params, &mut rng);
            let inputs = lowered
                .ct_inputs
                .iter()
                .map(|&(ordinal, id)| {
                    let pt =
                        if ordinal == 0 { &data.query } else { &data.keys[ordinal as usize - 1] };
                    (id, pt.clone())
                })
                .collect();
            let plains = lowered
                .pt_inputs
                .iter()
                .map(|&(ordinal, id)| (id, data.values[ordinal as usize].clone()))
                .collect();
            times.push(t.elapsed().as_secs_f64());
            built = Some((lowered.program, params, exec, inputs, plains, data, keygen_s));
        }
        let (program, params, exec, inputs, plains, data, keygen_s) = built.expect("set-up ran");
        let expected = reference(&data, &params);
        let layer = FheLayer { keygen_s, ..Default::default() };
        let setup = Self { seed, params, program, exec, inputs, plains, expected, layer };
        (setup, median(&times))
    }

    /// Checks one decrypted output against the reference; records noise.
    fn finish(&mut self, out: std::thread::Result<(Plaintext, f64, usize)>, report: &mut Report) {
        report.attempted += 1;
        match out {
            Err(payload) => report.fail(KEY, panic_message(&*payload)),
            Ok((got, noise, hom_ops)) => {
                self.layer.noise_bits = noise;
                self.layer.hom_ops = hom_ops;
                if let Some(i) = (0..N).find(|&i| got.coeff(i) != self.expected.coeff(i)) {
                    report.fail(
                        KEY,
                        format!(
                            "decrypted coefficient {i} is {}, reference {} (noise {noise:.1} bits)",
                            got.coeff(i),
                            self.expected.coeff(i)
                        ),
                    );
                }
            }
        }
    }

    /// One untraced pass through `BgvExecutor::run` (encrypt, evaluate,
    /// decrypt) plus the comparison.
    pub fn pass(&mut self, report: &mut Report) -> f64 {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5EED);
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| {
            let run = self.exec.run(&self.program, &self.inputs, &self.plains, &mut rng);
            (run.outputs[0].clone(), run.output_noise[0], run.hom_ops)
        }));
        let timed = t.elapsed().as_secs_f64();
        self.finish(out, report);
        timed
    }

    /// One traced pass: the executor's loop, driven from here so every
    /// ciphertext operation gets its own span.
    pub fn pass_traced(&mut self, tr: &mut Tracer, report: &mut Report) -> f64 {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5EED);
        let (keys, params, program) = (self.exec.keys(), &self.params, &self.program);
        let (inputs, plains) = (&self.inputs, &self.plains);
        let depth = tr.depth();
        let start = tr.spans().len();
        let out = catch_unwind(AssertUnwindSafe(|| {
            tr.span("program", KEY, |tr| {
                let zero = Plaintext::from_coeffs(params, &[]);
                let mut cts: HashMap<CtId, Ciphertext> = HashMap::new();
                let mut pts: HashMap<CtId, Plaintext> = HashMap::new();
                for (idx, op) in program.ops().iter().enumerate() {
                    let id = CtId(idx as u32);
                    match op {
                        HomOp::Input { level } => {
                            let m = inputs.get(&id).unwrap_or(&zero);
                            let ct = tr.span("fhe.encrypt", KEY, |_| {
                                keys.encrypt_at_level(m, *level, &mut rng)
                            });
                            cts.insert(id, ct);
                        }
                        HomOp::PlainInput { .. } => {
                            pts.insert(id, plains.get(&id).unwrap_or(&zero).clone());
                        }
                        _ => {}
                    }
                }
                let mut hom_ops = 0;
                for (idx, op) in program.ops().iter().enumerate() {
                    let id = CtId(idx as u32);
                    let r = match op {
                        HomOp::Input { .. } | HomOp::PlainInput { .. } => continue,
                        HomOp::Add { a, b } => tr.span("fhe.add", KEY, |_| cts[a].add(&cts[b])),
                        HomOp::AddPlain { a, p } => {
                            tr.span("fhe.add", KEY, |_| cts[a].add_plain(&pts[p], params))
                        }
                        HomOp::Mul { a, b } => {
                            tr.span("fhe.mul", KEY, |_| cts[a].mul(&cts[b], keys.relin_hint()))
                        }
                        HomOp::MulPlain { a, p } => {
                            tr.span("fhe.mul_plain", KEY, |_| cts[a].mul_plain(&pts[p], params))
                        }
                        HomOp::Aut { a, k } => tr.span("fhe.aut", KEY, |_| {
                            cts[a].automorphism(*k, keys.rotation_hint(*k))
                        }),
                        HomOp::ModSwitch { a } => {
                            tr.span("fhe.mod_switch", KEY, |_| cts[a].mod_switch_down())
                        }
                    };
                    hom_ops += 1;
                    cts.insert(id, r);
                }
                let out = &cts[&program.outputs()[0]];
                let noise = tr.span("fhe.noise", KEY, |_| keys.decrypt_noise(out));
                let got = tr.span("fhe.decrypt", KEY, |_| keys.decrypt(out));
                (got, noise, hom_ops)
            })
        }));
        tr.close_to(depth);
        self.finish(out, report);
        tr.spans()[start..].iter().filter(|s| s.name == "program").map(|s| s.seconds()).sum()
    }
}
