//! The `FheProgram` IR — a typed, scheme-aware frontend above [`crate::dsl`].
//!
//! The DSL of Listing 2 is deliberately thin: untyped ciphertext handles
//! and exactly the homomorphic operations pass 1 expands. Real workloads
//! want more — scheme-specific typing (BGV levels, CKKS scales, GSW
//! depth), plaintext *constants* the compiler can fold, and redundancy
//! elimination before the expensive key-switch expansion multiplies every
//! homomorphic op into hundreds of vector instructions. This module is
//! that layer:
//!
//! * [`FheProgram`] is simultaneously the circuit **builder** (typed
//!   `input`/`mul`/`rotate`/... methods that check levels and scales at
//!   construction time) and the **normalized IR**: a flat SSA node list
//!   whose value ids ([`IrId`]) are dense indices in creation order —
//!   stable and deterministic by construction, never derived from hash
//!   iteration.
//! * [`passes`] implements the optimization pipeline — constant folding,
//!   rotation/automorphism dedup, common-subexpression elimination,
//!   key-switch hoisting and dead-code elimination (see
//!   [`FheProgram::optimize`]).
//! * [`lower`] translates the (optimized) IR 1:1 into a
//!   [`crate::dsl::Program`] for the three scheduling passes, carrying a
//!   table of folded plaintext constants for functional execution.
//!
//! The pipeline is therefore: **frontend → IR passes → DFG → pass 1/2/3**
//! (Fig 3, with the IR inserted where the paper's "homomorphic-operation
//! compiler" consumes its input program).

pub mod lower;
pub mod passes;
pub mod rescale;

use serde::{Deserialize, Serialize};

pub use lower::Lowered;
pub use passes::OptStats;
pub use rescale::{NoisePolicy, RescaleStats};

/// Identifies one value (node) in an [`FheProgram`].
///
/// Ids are dense indices into the node list in creation order; every
/// pass renumbers survivors in that same order, so ids are deterministic
/// for a given builder call sequence — no hash-iteration order anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct IrId(pub u32);

/// The FHE scheme a program is typed against (§2.5: at the instruction
/// level all three compile to the same vector operations; the scheme
/// governs frontend *typing* — what the builder accepts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// BGV: exact modular arithmetic, level-typed modulus chain.
    Bgv,
    /// CKKS: approximate arithmetic; additionally tracks a scale (in
    /// units of the base scaling factor Δ) that rescaling consumes.
    Ckks,
    /// GSW: no modulus chain — `mod_switch` is rejected, multiplicative
    /// depth is tracked instead (the bootstrapping building block, §2.5).
    Gsw,
}

impl Scheme {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::Bgv => "BGV",
            Scheme::Ckks => "CKKS",
            Scheme::Gsw => "GSW",
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The type of one IR value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValType {
    /// Plaintext operand (one polynomial) vs ciphertext (two).
    pub plain: bool,
    /// RNS limbs (BGV/CKKS modulus-chain position; constant for GSW).
    pub level: usize,
    /// CKKS scale in units of Δ (0 for BGV/GSW). Rescaling decrements,
    /// saturating at 1 — the benchmarks follow the paper in treating a
    /// `mod_switch` as "rescale and renormalize to Δ".
    pub scale: u32,
    /// Multiplicative depth consumed so far (diagnostics; typing for GSW).
    pub depth: u32,
}

/// One IR operation. Operands always reference earlier nodes (SSA,
/// acyclic by construction).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FheOp {
    /// An encrypted input. `ordinal` is the input's position among all
    /// ciphertext inputs (stable across passes — the binding key for
    /// functional execution, never merged by CSE).
    CtInput {
        /// RNS limbs at entry.
        level: usize,
        /// Position among ciphertext inputs at build time.
        ordinal: u32,
    },
    /// An unencrypted runtime input (the cheap multiplicand of §2.1).
    PtInput {
        /// RNS limbs at entry.
        level: usize,
        /// Position among plaintext inputs at build time.
        ordinal: u32,
    },
    /// A plaintext constant known at compile time (coefficients of the
    /// plaintext polynomial; scalars are single-element). Constants are
    /// foldable and CSE-mergeable, unlike runtime inputs.
    Constant {
        /// Plaintext coefficients (reduced mod t when bound).
        coeffs: Vec<u64>,
        /// RNS limbs the constant is encoded at.
        level: usize,
    },
    /// Homomorphic addition (ciphertext + ciphertext).
    Add(IrId, IrId),
    /// Addition of a plaintext operand.
    AddPlain(IrId, IrId),
    /// Homomorphic multiplication (tensor + relinearization key-switch).
    Mul(IrId, IrId),
    /// Multiplication by a plaintext operand (no key-switch).
    MulPlain(IrId, IrId),
    /// Automorphism `σ_k` + key-switch (rotations use `k = 3^amount`).
    Aut {
        /// Ciphertext operand.
        a: IrId,
        /// Automorphism exponent (odd, `< 2N`).
        k: usize,
    },
    /// Modulus switch / CKKS rescale one level down.
    ModSwitch(IrId),
}

impl FheOp {
    /// Operand ids, in order.
    pub fn operands(&self) -> Vec<IrId> {
        match self {
            FheOp::CtInput { .. } | FheOp::PtInput { .. } | FheOp::Constant { .. } => vec![],
            FheOp::Add(a, b) | FheOp::Mul(a, b) | FheOp::AddPlain(a, b) | FheOp::MulPlain(a, b) => {
                vec![*a, *b]
            }
            FheOp::Aut { a, .. } | FheOp::ModSwitch(a) => vec![*a],
        }
    }

    /// Whether this op performs a key switch when lowered (the expensive
    /// class: each becomes hundreds of vector instructions at depth).
    pub fn is_keyswitch(&self) -> bool {
        matches!(self, FheOp::Mul(..) | FheOp::Aut { .. })
    }
}

/// One IR node: an operation plus the type of the value it produces.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// The operation.
    pub op: FheOp,
    /// Type of the produced value.
    pub ty: ValType,
}

/// Affine per-iteration stepping of one node inside a [`RepeatSpec`]
/// body: at iteration `i` (0-based) the stepped field sits at its
/// iteration-0 value plus `i * delta`. Ordinals and levels step on
/// `CtInput`/`PtInput` nodes; automorphism exponents step on `Aut`
/// (mod 2N). Everything a loop body varies per iteration — which
/// plaintext it consumes, what level it enters at, how far it rotates —
/// is one of these three affine channels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeStep {
    /// Per-iteration input-ordinal increment (`CtInput`/`PtInput`).
    pub d_ordinal: i64,
    /// Per-iteration input-level increment (`CtInput`/`PtInput`;
    /// usually 0, or -1 for bodies that descend the modulus chain).
    pub d_level: i64,
    /// Per-iteration automorphism-exponent increment (`Aut` only),
    /// applied modulo 2N.
    pub d_k: i64,
}

/// A rolled loop region: `trips` repetitions of the body nodes
/// `[start, start+len)`, materialized once. The body is ordinary IR —
/// iteration 0 *is* the region — and iterations `i > 0` are defined by
/// substitution: loop-carried operands re-bind to the previous
/// iteration's clone, and [`NodeStep`]-stepped fields move affinely in
/// `i`. [`FheProgram::unroll`] performs that expansion (with full type
/// re-inference per iteration); [`crate::compile_fhe`] unrolls before
/// any pass runs, so a region is only a compact way to build a program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepeatSpec {
    /// First body node.
    pub start: u32,
    /// Body length in nodes (>= 1).
    pub len: u32,
    /// Trip count (>= 1); iteration 0 is the materialized body itself.
    pub trips: u32,
    /// Loop-carried values as `(init, out)` pairs: iteration 0 reads
    /// `init` (a pre-region value) wherever the body names it;
    /// iteration `i > 0` reads iteration `i-1`'s clone of `out`.
    /// Region-referencing nodes after the loop — and outputs — read the
    /// *last* iteration's clone.
    pub carries: Vec<(IrId, IrId)>,
    /// Affine per-iteration field steps, keyed by body node id.
    pub steps: Vec<(IrId, NodeStep)>,
}

/// Token returned by [`FheProgram::begin_repeat`] marking where a rolled
/// region's body starts; consumed by [`FheProgram::end_repeat`].
#[derive(Debug)]
pub struct RepeatToken {
    start: u32,
}

impl RepeatToken {
    /// Consumes the token, so one region cannot be closed twice.
    fn into_start(self) -> u32 {
        self.start
    }
}

/// A typed, scheme-aware FHE program: the circuit builder and the
/// normalized SSA IR in one. See the module docs for the pipeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FheProgram {
    /// Ring dimension.
    pub n: usize,
    scheme: Scheme,
    /// Enforce CKKS scale equality on additions (off by default: the
    /// paper's benchmarks rescale at multiplication boundaries only).
    strict_scale: bool,
    nodes: Vec<Node>,
    outputs: Vec<IrId>,
    next_ct_ordinal: u32,
    next_pt_ordinal: u32,
    /// Rolled loop regions, in ascending, non-overlapping node order.
    /// Part of the serialized form: the cache key hashes the program as
    /// written, so a rolled program and its unrolling are distinct keys.
    repeats: Vec<RepeatSpec>,
}

impl FheProgram {
    /// Creates an empty program over ring dimension `n`, typed for
    /// `scheme`.
    pub fn new(n: usize, scheme: Scheme) -> Self {
        assert!(n.is_power_of_two(), "ring dimension must be a power of two");
        Self {
            n,
            scheme,
            strict_scale: false,
            nodes: Vec::new(),
            outputs: Vec::new(),
            next_ct_ordinal: 0,
            next_pt_ordinal: 0,
            repeats: Vec::new(),
        }
    }

    /// Enables strict CKKS scale checking: additions assert equal scales.
    pub fn with_strict_scale(mut self) -> Self {
        self.strict_scale = true;
        self
    }

    /// The program's scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Whether strict CKKS scale checking is enabled.
    pub fn strict_scale(&self) -> bool {
        self.strict_scale
    }

    fn push(&mut self, op: FheOp, ty: ValType) -> IrId {
        let id = IrId(self.nodes.len() as u32);
        debug_assert!(op.operands().iter().all(|o| (o.0 as usize) < self.nodes.len()));
        self.nodes.push(Node { op, ty });
        id
    }

    fn ty(&self, v: IrId) -> ValType {
        self.nodes[v.0 as usize].ty
    }

    fn ct(&self, v: IrId, what: &str) -> ValType {
        let t = self.ty(v);
        assert!(!t.plain, "{what}: operand {v:?} must be a ciphertext");
        t
    }

    fn pt(&self, v: IrId, what: &str) -> ValType {
        let t = self.ty(v);
        assert!(t.plain, "{what}: operand {v:?} must be a plaintext");
        t
    }

    fn join_levels(&self, a: ValType, b: ValType) -> usize {
        assert_eq!(
            a.level, b.level,
            "operand levels differ ({} vs {}); insert mod_switch",
            a.level, b.level
        );
        a.level
    }

    /// Recomputes the type `op` produces from its operands' types,
    /// applying exactly the builder's typing rules. Shared by the
    /// builder methods and [`Self::unroll`]'s per-iteration
    /// re-inference, so an unrolled clone is typed precisely as if it
    /// had been built by hand.
    fn infer_ty(&self, op: &FheOp) -> ValType {
        let base_scale = if self.scheme == Scheme::Ckks { 1 } else { 0 };
        match op {
            FheOp::CtInput { level, .. } => {
                assert!(*level >= 1);
                ValType { plain: false, level: *level, scale: base_scale, depth: 0 }
            }
            FheOp::PtInput { level, .. } | FheOp::Constant { level, .. } => {
                assert!(*level >= 1);
                ValType { plain: true, level: *level, scale: base_scale, depth: 0 }
            }
            FheOp::Add(a, b) => {
                let (ta, tb) = (self.ty(*a), self.ty(*b));
                if ta.plain && tb.plain {
                    let (ta, tb) = (self.pt(*a, "const op"), self.pt(*b, "const op"));
                    let level = self.join_levels(ta, tb);
                    ValType { plain: true, level, scale: ta.scale.max(tb.scale), depth: 0 }
                } else {
                    let (ta, tb) = (self.ct(*a, "add"), self.ct(*b, "add"));
                    let level = self.join_levels(ta, tb);
                    if self.strict_scale && self.scheme == Scheme::Ckks {
                        assert_eq!(ta.scale, tb.scale, "CKKS scales differ on add; rescale first");
                    }
                    ValType {
                        plain: false,
                        level,
                        scale: ta.scale.max(tb.scale),
                        depth: ta.depth.max(tb.depth),
                    }
                }
            }
            FheOp::Mul(a, b) => {
                let (ta, tb) = (self.ty(*a), self.ty(*b));
                if ta.plain && tb.plain {
                    let (ta, tb) = (self.pt(*a, "const op"), self.pt(*b, "const op"));
                    let level = self.join_levels(ta, tb);
                    ValType { plain: true, level, scale: ta.scale.max(tb.scale), depth: 0 }
                } else {
                    let (ta, tb) = (self.ct(*a, "mul"), self.ct(*b, "mul"));
                    let level = self.join_levels(ta, tb);
                    ValType {
                        plain: false,
                        level,
                        scale: ta.scale + tb.scale,
                        depth: ta.depth.max(tb.depth) + 1,
                    }
                }
            }
            FheOp::AddPlain(a, p) => {
                let ta = self.ct(*a, "add_plain");
                let tp = self.pt(*p, "add_plain");
                let level = self.join_plain_level(ta, tp);
                ValType { level, ..ta }
            }
            FheOp::MulPlain(a, p) => {
                let ta = self.ct(*a, "mul_plain");
                let tp = self.pt(*p, "mul_plain");
                let level = self.join_plain_level(ta, tp);
                ValType { plain: false, level, scale: ta.scale + tp.scale, depth: ta.depth }
            }
            FheOp::Aut { a, k } => {
                assert!(k % 2 == 1 && *k < 2 * self.n, "invalid automorphism exponent {k}");
                self.ct(*a, "aut")
            }
            FheOp::ModSwitch(a) => {
                assert!(self.scheme != Scheme::Gsw, "GSW has no modulus chain to switch");
                let ta = self.ct(*a, "mod_switch");
                assert!(ta.level >= 2, "cannot switch below level 1");
                if self.strict_scale && self.scheme == Scheme::Ckks {
                    assert!(
                        ta.scale >= 2,
                        "CKKS rescale at scale 1 saturates (burns a level for no scale reduction)"
                    );
                }
                let scale =
                    if self.scheme == Scheme::Ckks { ta.scale.saturating_sub(1).max(1) } else { 0 };
                ValType { level: ta.level - 1, scale, ..ta }
            }
        }
    }

    /// Declares an encrypted input with `level` RNS limbs.
    pub fn input(&mut self, level: usize) -> IrId {
        assert!(level >= 1);
        let ordinal = self.next_ct_ordinal;
        self.next_ct_ordinal += 1;
        let scale = if self.scheme == Scheme::Ckks { 1 } else { 0 };
        self.push(
            FheOp::CtInput { level, ordinal },
            ValType { plain: false, level, scale, depth: 0 },
        )
    }

    /// Declares an unencrypted runtime input.
    pub fn plain_input(&mut self, level: usize) -> IrId {
        assert!(level >= 1);
        let ordinal = self.next_pt_ordinal;
        self.next_pt_ordinal += 1;
        let scale = if self.scheme == Scheme::Ckks { 1 } else { 0 };
        self.push(
            FheOp::PtInput { level, ordinal },
            ValType { plain: true, level, scale, depth: 0 },
        )
    }

    /// Declares a plaintext constant with the given coefficients, encoded
    /// at `level`. Unlike [`Self::plain_input`], constants participate in
    /// constant folding and CSE.
    pub fn constant(&mut self, coeffs: &[u64], level: usize) -> IrId {
        assert!(level >= 1);
        let scale = if self.scheme == Scheme::Ckks { 1 } else { 0 };
        self.push(
            FheOp::Constant { coeffs: coeffs.to_vec(), level },
            ValType { plain: true, level, scale, depth: 0 },
        )
    }

    /// A scalar constant (degree-0 plaintext).
    pub fn scalar(&mut self, value: u64, level: usize) -> IrId {
        self.constant(&[value], level)
    }

    /// Homomorphic addition. Both operands must be ciphertexts at the
    /// same level (and, under [`Self::with_strict_scale`], the same CKKS
    /// scale) — or both plaintext constants, which fold at compile time.
    pub fn add(&mut self, a: IrId, b: IrId) -> IrId {
        let (ta, tb) = (self.ty(a), self.ty(b));
        if ta.plain && tb.plain {
            return self.plain_pair_op(a, b, true);
        }
        let op = FheOp::Add(a, b);
        let ty = self.infer_ty(&op);
        self.push(op, ty)
    }

    /// Checks a ciphertext/plaintext level pair. Plaintexts only need to
    /// *cover* the ciphertext level: an RNS plaintext encoded at level
    /// `l >= level` contains every residue of the ciphertext's chain
    /// prefix, so the backend simply ignores its top limbs. (Requiring
    /// equality would force duplicating `PtInput` ordinals whenever a
    /// rescale pass moves the consuming ciphertext down a level.)
    fn join_plain_level(&self, ct: ValType, pt: ValType) -> usize {
        assert!(
            pt.level >= ct.level,
            "plaintext level {} does not cover ciphertext level {}",
            pt.level,
            ct.level
        );
        ct.level
    }

    /// Adds a plaintext operand (runtime input or constant) to a
    /// ciphertext. The plaintext may sit at a *higher* level — its excess
    /// limbs are ignored; the result takes the ciphertext's level.
    pub fn add_plain(&mut self, a: IrId, p: IrId) -> IrId {
        let op = FheOp::AddPlain(a, p);
        let ty = self.infer_ty(&op);
        self.push(op, ty)
    }

    /// Homomorphic multiplication (tensor + relinearization).
    pub fn mul(&mut self, a: IrId, b: IrId) -> IrId {
        let (ta, tb) = (self.ty(a), self.ty(b));
        if ta.plain && tb.plain {
            return self.plain_pair_op(a, b, false);
        }
        let op = FheOp::Mul(a, b);
        let ty = self.infer_ty(&op);
        self.push(op, ty)
    }

    /// Squares a ciphertext (sugar for `mul(a, a)`).
    pub fn square(&mut self, a: IrId) -> IrId {
        self.mul(a, a)
    }

    /// Multiplication by a plaintext operand (no key-switch). As with
    /// [`Self::add_plain`], the plaintext's level only needs to cover the
    /// ciphertext's; the result takes the ciphertext's level.
    pub fn mul_plain(&mut self, a: IrId, p: IrId) -> IrId {
        let op = FheOp::MulPlain(a, p);
        let ty = self.infer_ty(&op);
        self.push(op, ty)
    }

    /// A compile-time operation between two plaintext values: legal only
    /// when both are constants (so constant folding can evaluate it —
    /// runtime plain x plain compute has no lowering). Foldability is
    /// validated here so an unloweringable op (u64 overflow, non-scalar
    /// constant product) fails fast at the construction site instead of
    /// deep inside `lower()`.
    fn plain_pair_op(&mut self, a: IrId, b: IrId, is_add: bool) -> IrId {
        let (ta, tb) = (self.pt(a, "const op"), self.pt(b, "const op"));
        let constant = |p: &Self, v: IrId| match &p.nodes[v.0 as usize].op {
            FheOp::Constant { coeffs, .. } => Some(coeffs.clone()),
            _ => None,
        };
        let (ca, cb) = (constant(self, a), constant(self, b));
        let (ca, cb) = match (ca, cb) {
            (Some(x), Some(y)) => (x, y),
            _ => panic!("plaintext-plaintext arithmetic requires compile-time constants"),
        };
        let foldable = if is_add {
            passes::fold_add(&ca, &cb).is_some()
        } else {
            passes::fold_mul_scalar(&ca, &cb).is_some()
        };
        assert!(
            foldable,
            "constant {} has no lowering (u64 overflow or non-scalar constant product)",
            if is_add { "add" } else { "mul" }
        );
        let _ = self.join_levels(ta, tb);
        let op = if is_add { FheOp::Add(a, b) } else { FheOp::Mul(a, b) };
        let ty = self.infer_ty(&op);
        self.push(op, ty)
    }

    /// Homomorphic rotation by `amount` slots: automorphism with
    /// exponent `3^amount mod 2N`.
    pub fn rotate(&mut self, a: IrId, amount: usize) -> IrId {
        let two_n = 2 * self.n;
        let mut k = 1usize;
        for _ in 0..amount {
            k = k * 3 % two_n;
        }
        self.aut(a, k)
    }

    /// Homomorphic automorphism with an explicit exponent.
    pub fn aut(&mut self, a: IrId, k: usize) -> IrId {
        let op = FheOp::Aut { a, k };
        let ty = self.infer_ty(&op);
        self.push(op, ty)
    }

    /// Modulus switch (BGV) / rescale (CKKS) one level down. Rejected
    /// for GSW, which has no modulus chain.
    ///
    /// A CKKS rescale at scale 1 *saturates*: the scale cannot drop below
    /// one Δ, so the op burns a level without buying scale headroom.
    /// Under [`Self::with_strict_scale`] that is rejected outright; in
    /// lax programs the `scale::saturated-rescale` lint flags it.
    pub fn mod_switch(&mut self, a: IrId) -> IrId {
        let op = FheOp::ModSwitch(a);
        let ty = self.infer_ty(&op);
        self.push(op, ty)
    }

    /// CKKS-flavored alias for [`Self::mod_switch`].
    pub fn rescale(&mut self, a: IrId) -> IrId {
        self.mod_switch(a)
    }

    /// The `innerSum` idiom of Listing 2: `log2(count)` rotate-and-add
    /// steps that leave every slot holding the sum.
    pub fn inner_sum(&mut self, mut x: IrId, count: usize) -> IrId {
        assert!(count.is_power_of_two());
        for i in 0..count.trailing_zeros() {
            let r = self.rotate(x, 1 << i);
            x = self.add(x, r);
        }
        x
    }

    /// Marks a value as a program output (must be a ciphertext).
    pub fn output(&mut self, x: IrId) {
        self.ct(x, "output");
        self.outputs.push(x);
    }

    /// Opens a rolled loop region. Build the body (one iteration) with
    /// the ordinary typed builder methods, then close it with
    /// [`Self::end_repeat`]. Iteration 0 *is* the body you build;
    /// values the body computes are also the values later code (or the
    /// loop itself, through carries) references — after unrolling they
    /// re-bind to the last iteration's clones.
    pub fn begin_repeat(&mut self) -> RepeatToken {
        RepeatToken { start: self.nodes.len() as u32 }
    }

    /// Closes the rolled region opened by `token`, registering it as
    /// `trips` repetitions with the given loop-carried values and
    /// affine per-iteration steps (see [`RepeatSpec`]).
    ///
    /// # Panics
    ///
    /// Panics when the region is malformed: empty body, zero trips,
    /// carries whose `init` is not a pre-region value or whose `out` is
    /// not a body value (or whose plain/cipher kinds differ), steps
    /// that target non-body nodes or fields the node kind does not
    /// have, or body inputs left unstepped (every `CtInput`/`PtInput`
    /// built inside the body must carry a `d_ordinal != 0` step when
    /// `trips > 1`, otherwise distinct iterations would alias one
    /// runtime binding).
    pub fn end_repeat(
        &mut self,
        token: RepeatToken,
        trips: u32,
        carries: Vec<(IrId, IrId)>,
        steps: Vec<(IrId, NodeStep)>,
    ) {
        let start = token.into_start();
        let end = self.nodes.len() as u32;
        assert!(end > start, "end_repeat: empty body");
        assert!(trips >= 1, "end_repeat: trips must be >= 1");
        let in_body = |v: IrId| v.0 >= start && v.0 < end;
        for &(init, out) in &carries {
            assert!(init.0 < start, "carry init {init:?} must precede the region");
            assert!(in_body(out), "carry out {out:?} must be a body value");
            assert_eq!(
                self.ty(init).plain,
                self.ty(out).plain,
                "carry ({init:?}, {out:?}) mixes plaintext and ciphertext"
            );
        }
        for &(id, st) in &steps {
            assert!(in_body(id), "step target {id:?} must be a body value");
            match &self.nodes[id.0 as usize].op {
                FheOp::CtInput { .. } | FheOp::PtInput { .. } => {
                    assert_eq!(st.d_k, 0, "d_k step on input node {id:?}");
                }
                FheOp::Aut { .. } => {
                    assert_eq!((st.d_ordinal, st.d_level), (0, 0), "input step on Aut node {id:?}");
                }
                other => panic!("steps only apply to inputs and automorphisms, not {other:?}"),
            }
        }
        // Every input declared inside the body must be ordinal-stepped:
        // otherwise each unrolled iteration would carry the same ordinal
        // and alias one runtime binding.
        if trips > 1 {
            for i in start..end {
                let is_input = matches!(
                    self.nodes[i as usize].op,
                    FheOp::CtInput { .. } | FheOp::PtInput { .. }
                );
                if is_input {
                    let stepped = steps.iter().any(|&(id, st)| id.0 == i && st.d_ordinal != 0);
                    assert!(stepped, "body input node {i} needs a d_ordinal != 0 step");
                }
            }
        }
        // Reserve the ordinal ranges the stepped iterations will occupy,
        // so inputs declared after the loop don't collide with them.
        for &(id, st) in &steps {
            let claim = |ordinal: u32, next: &mut u32| {
                let last = ordinal as i64 + st.d_ordinal * (trips as i64 - 1);
                let hi = (ordinal as i64).max(last);
                assert!(last >= 0, "stepped ordinal underflows");
                *next = (*next).max(hi as u32 + 1);
            };
            match self.nodes[id.0 as usize].op {
                FheOp::CtInput { ordinal, .. } => claim(ordinal, &mut self.next_ct_ordinal),
                FheOp::PtInput { ordinal, .. } => claim(ordinal, &mut self.next_pt_ordinal),
                _ => {}
            }
        }
        self.repeats.push(RepeatSpec { start, len: end - start, trips, carries, steps });
    }

    /// Rolled loop regions, in ascending node order.
    pub fn repeats(&self) -> &[RepeatSpec] {
        &self.repeats
    }

    /// Unrolls every rolled region into flat IR. Equivalent to having
    /// built each iteration by hand: clones are re-typed from their
    /// operands per iteration, carried operands re-bind to the previous
    /// iteration's clone, and stepped fields move affinely in the
    /// iteration index. On a repeat-free program this is an identity
    /// copy.
    pub fn unroll(&self) -> FheProgram {
        self.unroll_map().0
    }

    /// [`Self::unroll`], also returning the id map: `map[v]` is where
    /// rolled-program value `v` lives in the unrolled program (body
    /// values map to their *last*-iteration clone). Use it to keep
    /// building an epilogue on the unrolled form from handles obtained
    /// while building rolled.
    pub fn unroll_map(&self) -> (FheProgram, Vec<IrId>) {
        let mut cur = self.clone();
        let mut map: Vec<IrId> = (0..self.nodes.len() as u32).map(IrId).collect();
        while !cur.repeats.is_empty() {
            let (next, m) = cur.unroll_one();
            for slot in map.iter_mut() {
                *slot = m[slot.0 as usize];
            }
            cur = next;
        }
        (cur, map)
    }

    /// Expands the first repeat region; later regions shift in place.
    fn unroll_one(&self) -> (FheProgram, Vec<IrId>) {
        let rep = self.repeats[0].clone();
        let (start, len, trips) = (rep.start as usize, rep.len as usize, rep.trips as usize);
        let mut q = FheProgram::new(self.n, self.scheme);
        q.strict_scale = self.strict_scale;
        let mut map: Vec<IrId> = Vec::with_capacity(self.nodes.len());
        // Prefix and iteration 0: verbatim.
        for i in 0..start + len {
            q.nodes.push(self.nodes[i].clone());
            map.push(IrId(i as u32));
        }
        let mut step_of: Vec<Option<NodeStep>> = vec![None; len];
        for &(id, st) in &rep.steps {
            step_of[id.0 as usize - start] = Some(st);
        }
        // Iterations 1..trips: clone with carry substitution, affine
        // stepping, and full type re-inference.
        let mut iter_map: Vec<IrId> = (start..start + len).map(|i| IrId(i as u32)).collect();
        let two_n = 2 * self.n as i64;
        for it in 1..trips {
            let prev = iter_map.clone();
            for j in 0..len {
                let src = &self.nodes[start + j];
                let mut op = match step_of[j] {
                    Some(st) => Self::step_op(&src.op, st, it as i64, two_n),
                    None => src.op.clone(),
                };
                op = Self::remap_op(&op, |o| {
                    let oi = o.0 as usize;
                    if oi >= start && oi < start + len {
                        // Same-iteration reference (SSA: always earlier
                        // in the body, so already cloned this trip).
                        iter_map[oi - start]
                    } else if let Some(c) = rep.carries.iter().position(|&(init, _)| init == o) {
                        // Loop-carried: previous iteration's out.
                        prev[rep.carries[c].1 .0 as usize - start]
                    } else {
                        // Loop-invariant pre-region value.
                        map[oi]
                    }
                });
                let ty = q.infer_ty(&op);
                let id = IrId(q.nodes.len() as u32);
                q.nodes.push(Node { op, ty });
                iter_map[j] = id;
            }
        }
        map[start..start + len].copy_from_slice(&iter_map[..len]);
        // Suffix: remap region references to the last iteration and
        // re-infer types (bodies may change the carried values' levels).
        for i in start + len..self.nodes.len() {
            let src = &self.nodes[i];
            let op = Self::remap_op(&src.op, |o| map[o.0 as usize]);
            let ty = match op {
                FheOp::CtInput { .. } | FheOp::PtInput { .. } | FheOp::Constant { .. } => src.ty,
                _ => q.infer_ty(&op),
            };
            map.push(IrId(q.nodes.len() as u32));
            q.nodes.push(Node { op, ty });
        }
        q.outputs = self.outputs.iter().map(|&o| map[o.0 as usize]).collect();
        // Later repeat regions are contiguous suffix copies: shift them.
        for r in &self.repeats[1..] {
            q.repeats.push(RepeatSpec {
                start: map[r.start as usize].0,
                len: r.len,
                trips: r.trips,
                carries: r
                    .carries
                    .iter()
                    .map(|&(a, b)| (map[a.0 as usize], map[b.0 as usize]))
                    .collect(),
                steps: r.steps.iter().map(|&(a, s)| (map[a.0 as usize], s)).collect(),
            });
        }
        // Input ordinal counters: cover everything materialized.
        let (mut ct, mut pt) = (self.next_ct_ordinal, self.next_pt_ordinal);
        for n in &q.nodes {
            match n.op {
                FheOp::CtInput { ordinal, .. } => ct = ct.max(ordinal + 1),
                FheOp::PtInput { ordinal, .. } => pt = pt.max(ordinal + 1),
                _ => {}
            }
        }
        q.next_ct_ordinal = ct;
        q.next_pt_ordinal = pt;
        (q, map)
    }

    /// Applies `st` at iteration `it` to a steppable op.
    fn step_op(op: &FheOp, st: NodeStep, it: i64, two_n: i64) -> FheOp {
        let step_u32 = |v: u32, d: i64| -> u32 {
            let s = v as i64 + d * it;
            assert!(s >= 0, "stepped ordinal underflows at iteration {it}");
            s as u32
        };
        let step_level = |v: usize, d: i64| -> usize {
            let s = v as i64 + d * it;
            assert!(s >= 1, "stepped level underflows at iteration {it}");
            s as usize
        };
        match op {
            FheOp::CtInput { level, ordinal } => FheOp::CtInput {
                level: step_level(*level, st.d_level),
                ordinal: step_u32(*ordinal, st.d_ordinal),
            },
            FheOp::PtInput { level, ordinal } => FheOp::PtInput {
                level: step_level(*level, st.d_level),
                ordinal: step_u32(*ordinal, st.d_ordinal),
            },
            FheOp::Aut { a, k } => {
                FheOp::Aut { a: *a, k: (*k as i64 + st.d_k * it).rem_euclid(two_n) as usize }
            }
            other => other.clone(),
        }
    }

    /// Rewrites `op`'s operands through `f`.
    fn remap_op(op: &FheOp, f: impl Fn(IrId) -> IrId) -> FheOp {
        match op {
            FheOp::CtInput { .. } | FheOp::PtInput { .. } | FheOp::Constant { .. } => op.clone(),
            FheOp::Add(a, b) => FheOp::Add(f(*a), f(*b)),
            FheOp::AddPlain(a, b) => FheOp::AddPlain(f(*a), f(*b)),
            FheOp::Mul(a, b) => FheOp::Mul(f(*a), f(*b)),
            FheOp::MulPlain(a, b) => FheOp::MulPlain(f(*a), f(*b)),
            FheOp::Aut { a, k } => FheOp::Aut { a: f(*a), k: *k },
            FheOp::ModSwitch(a) => FheOp::ModSwitch(f(*a)),
        }
    }

    /// All nodes, in id order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// A node by id.
    pub fn node(&self, v: IrId) -> &Node {
        &self.nodes[v.0 as usize]
    }

    /// Program outputs, in declaration order.
    pub fn outputs(&self) -> &[IrId] {
        &self.outputs
    }

    /// Mutable access to a node, bypassing the builder's typing rules.
    /// Exists so the static analyzer's tests can construct ill-typed IR
    /// that the safe builder refuses to produce; never use it to build
    /// real programs.
    #[doc(hidden)]
    pub fn raw_node_mut(&mut self, v: IrId) -> &mut Node {
        &mut self.nodes[v.0 as usize]
    }

    /// Appends a node with an arbitrary claimed type and no SSA check.
    /// Test-only escape hatch; see [`FheProgram::raw_node_mut`].
    #[doc(hidden)]
    pub fn raw_push(&mut self, op: FheOp, ty: ValType) -> IrId {
        let id = IrId(self.nodes.len() as u32);
        self.nodes.push(Node { op, ty });
        id
    }

    /// Marks `x` as an output without the ciphertext check. Test-only
    /// escape hatch; see [`FheProgram::raw_node_mut`].
    #[doc(hidden)]
    pub fn raw_output(&mut self, x: IrId) {
        self.outputs.push(x);
    }

    /// Level of a value.
    pub fn level_of(&self, v: IrId) -> usize {
        self.ty(v).level
    }

    /// CKKS scale of a value (units of Δ; 0 outside CKKS).
    pub fn scale_of(&self, v: IrId) -> u32 {
        self.ty(v).scale
    }

    /// Multiplicative depth consumed by a value.
    pub fn depth_of(&self, v: IrId) -> u32 {
        self.ty(v).depth
    }

    /// Number of key-switching operations (Mul/Aut) — the expansion-cost
    /// drivers the optimization passes try to reduce.
    pub fn keyswitch_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.op.is_keyswitch()).count()
    }

    /// Validates SSA (operands reference earlier nodes) and typing
    /// invariants; returns the node count.
    ///
    /// # Panics
    ///
    /// Panics on violation.
    pub fn validate(&self) -> usize {
        for (i, node) in self.nodes.iter().enumerate() {
            for o in node.op.operands() {
                assert!((o.0 as usize) < i, "node {i} uses a later value {o:?}");
            }
        }
        for &o in &self.outputs {
            assert!((o.0 as usize) < self.nodes.len(), "unknown output {o:?}");
            assert!(!self.ty(o).plain, "plain output {o:?}");
        }
        let mut prev_end = 0u32;
        for r in &self.repeats {
            assert!(r.len >= 1 && r.trips >= 1, "degenerate repeat {r:?}");
            assert!(r.start >= prev_end, "overlapping repeat regions");
            let end = r.start + r.len;
            assert!(end as usize <= self.nodes.len(), "repeat region out of bounds");
            for &(init, out) in &r.carries {
                assert!(init.0 < r.start && out.0 >= r.start && out.0 < end, "bad carry in {r:?}");
            }
            for &(id, _) in &r.steps {
                assert!(id.0 >= r.start && id.0 < end, "step outside region in {r:?}");
            }
            prev_end = end;
        }
        self.nodes.len()
    }

    /// Runs the full optimization pipeline to a fixpoint: constant
    /// folding → rotation dedup → CSE → key-switch hoisting → CSE → DCE,
    /// iterated (bounded) until the node count stabilizes. Returns the
    /// optimized program and per-pass statistics. Deterministic: passes
    /// iterate the node list in id order only.
    pub fn optimize(&self) -> (FheProgram, OptStats) {
        assert!(
            self.repeats.is_empty(),
            "optimize() operates on flat IR; call unroll() first (compile_fhe does this \
             automatically)"
        );
        passes::optimize(self)
    }

    /// Lowers this program 1:1 into a [`crate::dsl::Program`] for the
    /// scheduling passes (usually after [`Self::optimize`]).
    pub fn lower(&self) -> Lowered {
        assert!(
            self.repeats.is_empty(),
            "lower() operates on flat IR; call unroll() first (compile_fhe does this \
             automatically)"
        );
        lower::lower(self)
    }

    /// Builds the 4×16K matrix-vector multiply of Listing 2 at level `l`
    /// on the typed frontend (mirrors
    /// [`crate::dsl::Program::listing2_matvec`]).
    pub fn listing2_matvec(n: usize, l: usize, rows: usize) -> Self {
        let mut p = Self::new(n, Scheme::Bgv);
        let m_rows: Vec<IrId> = (0..rows).map(|_| p.input(l)).collect();
        let v = p.input(l);
        for &row in &m_rows {
            let prod = p.mul(row, v);
            let sum = p.inner_sum(prod, n);
            p.output(sum);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_builder_tracks_levels_and_depth() {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let x = p.input(4);
        let y = p.input(4);
        let m = p.mul(x, y);
        assert_eq!(p.level_of(m), 4);
        assert_eq!(p.depth_of(m), 1);
        let d = p.mod_switch(m);
        assert_eq!(p.level_of(d), 3);
        let m2 = p.square(d);
        assert_eq!(p.depth_of(m2), 2);
        p.output(m2);
        assert_eq!(p.validate(), 5);
    }

    #[test]
    #[should_panic(expected = "levels differ")]
    fn level_mismatch_is_rejected() {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let x = p.input(3);
        let y = p.input(2);
        p.add(x, y);
    }

    #[test]
    fn ckks_scale_tracking() {
        let mut p = FheProgram::new(1 << 10, Scheme::Ckks);
        let x = p.input(4);
        assert_eq!(p.scale_of(x), 1);
        let sq = p.square(x);
        assert_eq!(p.scale_of(sq), 2, "mul adds scales");
        let r = p.rescale(sq);
        assert_eq!(p.scale_of(r), 1, "rescale consumes one Δ");
        assert_eq!(p.level_of(r), 3);
    }

    #[test]
    #[should_panic(expected = "scales differ")]
    fn strict_ckks_rejects_mismatched_scales() {
        let mut p = FheProgram::new(1 << 10, Scheme::Ckks).with_strict_scale();
        let x = p.input(4);
        let sq = p.square(x); // scale 2
        p.add(sq, x); // scale 2 vs 1
    }

    #[test]
    #[should_panic(expected = "no modulus chain")]
    fn gsw_rejects_mod_switch() {
        let mut p = FheProgram::new(1 << 10, Scheme::Gsw);
        let x = p.input(2);
        p.mod_switch(x);
    }

    #[test]
    fn gsw_tracks_external_product_depth() {
        let mut p = FheProgram::new(1 << 10, Scheme::Gsw);
        let x = p.input(2);
        let y = p.input(2);
        let m1 = p.mul(x, y);
        let m2 = p.mul(m1, y);
        assert_eq!(p.depth_of(m2), 2);
    }

    #[test]
    fn constants_are_typed_plaintexts() {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let x = p.input(2);
        let c = p.scalar(3, 2);
        let m = p.mul_plain(x, c);
        p.output(m);
        assert!(p.node(c).ty.plain);
        assert_eq!(p.validate(), 3);
    }

    #[test]
    #[should_panic(expected = "compile-time constants")]
    fn runtime_plain_pair_compute_is_rejected() {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let a = p.plain_input(2);
        let b = p.plain_input(2);
        p.add(a, b); // no lowering exists for runtime plain x plain
    }

    #[test]
    fn rotations_use_3_pow_k() {
        let mut p = FheProgram::new(1024, Scheme::Bgv);
        let x = p.input(2);
        let r = p.rotate(x, 2);
        match &p.node(r).op {
            FheOp::Aut { k, .. } => assert_eq!(*k, 9),
            other => panic!("expected Aut, got {other:?}"),
        }
    }

    #[test]
    fn ids_are_dense_creation_order() {
        let mut p = FheProgram::new(1024, Scheme::Bgv);
        let a = p.input(2);
        let b = p.input(2);
        let s = p.add(a, b);
        assert_eq!((a, b, s), (IrId(0), IrId(1), IrId(2)));
    }

    /// `trips` iterations of square → aut → add, rolled.
    fn rolled_chain(l: usize, trips: u32) -> FheProgram {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let acc = p.input(l);
        let t = p.begin_repeat();
        let m = p.square(acc);
        let r = p.aut(m, 9);
        let acc2 = p.add(r, m);
        p.end_repeat(t, trips, vec![(acc, acc2)], vec![]);
        p.output(acc2);
        p
    }

    /// The same chain built by hand.
    fn flat_chain(l: usize, trips: u32) -> FheProgram {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let mut acc = p.input(l);
        for _ in 0..trips {
            let m = p.square(acc);
            let r = p.aut(m, 9);
            acc = p.add(r, m);
        }
        p.output(acc);
        p
    }

    #[test]
    fn unroll_matches_handwritten_chain() {
        for trips in [1u32, 2, 7] {
            let rolled = rolled_chain(6, trips);
            assert_eq!(rolled.validate(), 4);
            let flat = flat_chain(6, trips);
            let un = rolled.unroll();
            assert_eq!(un.nodes(), flat.nodes());
            assert_eq!(un.outputs(), flat.outputs());
            assert!(un.repeats().is_empty());
        }
    }

    #[test]
    fn unroll_is_identity_without_repeats() {
        let p = FheProgram::listing2_matvec(1 << 10, 4, 2);
        let (un, map) = p.unroll_map();
        assert_eq!(un.nodes(), p.nodes());
        assert_eq!(un.outputs(), p.outputs());
        assert!(map.iter().enumerate().all(|(i, v)| v.0 as usize == i));
    }

    #[test]
    fn unroll_steps_ordinals_levels_and_retypes() {
        // CKKS Horner step: mul by z, rescale, add a fresh plaintext —
        // level drops and the plaintext ordinal advances per iteration.
        let trips = 4u32;
        let l = 8usize;
        // Rolled version.
        let mut p = FheProgram::new(1 << 10, Scheme::Ckks);
        let acc0 = p.input(l);
        let t = p.begin_repeat();
        let m = p.square(acc0);
        let m = p.rescale(m);
        let c = p.plain_input(l - 1);
        let acc = p.add_plain(m, c);
        p.end_repeat(
            t,
            trips,
            vec![(acc0, acc)],
            vec![(c, NodeStep { d_ordinal: 1, d_level: -1, d_k: 0 })],
        );
        p.output(acc);
        // Handwritten version.
        let mut q = FheProgram::new(1 << 10, Scheme::Ckks);
        let mut hacc = q.input(l);
        for _ in 0..trips {
            let hm = q.square(hacc);
            let hm = q.rescale(hm);
            let hc = q.plain_input(q.level_of(hm));
            hacc = q.add_plain(hm, hc);
        }
        q.output(hacc);
        let un = p.unroll();
        assert_eq!(un.nodes(), q.nodes());
        assert_eq!(un.outputs(), q.outputs());
        // Post-loop ordinal allocation continues past the stepped range.
        let mut p2 = p.clone();
        let late = p2.plain_input(2);
        match p2.node(late).op {
            FheOp::PtInput { ordinal, .. } => assert_eq!(ordinal, trips),
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unroll_remaps_epilogue_to_last_iteration() {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let acc0 = p.input(5);
        let inv = p.input(5); // loop-invariant, used inside the body
        let t = p.begin_repeat();
        let m = p.mul(acc0, inv);
        p.end_repeat(t, 3, vec![(acc0, m)], vec![]);
        let epi = p.mod_switch(m); // epilogue reads the carried value
        p.output(epi);
        let (un, map) = p.unroll_map();
        // 2 inputs + 3 muls + 1 mod_switch.
        assert_eq!(un.nodes().len(), 6);
        assert_eq!(map[m.0 as usize], IrId(4), "body value maps to last clone");
        match un.node(IrId(5)).op {
            FheOp::ModSwitch(a) => assert_eq!(a, IrId(4)),
            ref other => panic!("{other:?}"),
        }
        assert_eq!(un.depth_of(IrId(4)), 3, "depth re-inferred per iteration");
        assert_eq!(un.outputs(), &[IrId(5)]);
    }

    #[test]
    fn aut_exponents_step_affinely() {
        let mut p = FheProgram::new(1 << 4, Scheme::Bgv); // 2N = 32
        let acc0 = p.input(3);
        let t = p.begin_repeat();
        let r = p.aut(acc0, 3);
        let s = p.add(r, r);
        p.end_repeat(t, 4, vec![(acc0, s)], vec![(r, NodeStep { d_k: 2, ..NodeStep::default() })]);
        p.output(s);
        let un = p.unroll();
        let ks: Vec<usize> = un
            .nodes()
            .iter()
            .filter_map(|n| match n.op {
                FheOp::Aut { k, .. } => Some(k),
                _ => None,
            })
            .collect();
        assert_eq!(ks, vec![3, 5, 7, 9]);
    }

    #[test]
    #[should_panic(expected = "needs a d_ordinal")]
    fn unstepped_body_input_is_rejected() {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let acc0 = p.input(4);
        let t = p.begin_repeat();
        let x = p.input(4);
        let s = p.add(acc0, x);
        p.end_repeat(t, 3, vec![(acc0, s)], vec![]);
    }

    #[test]
    #[should_panic(expected = "operates on flat IR")]
    fn optimize_rejects_rolled_programs() {
        let p = rolled_chain(6, 4);
        let _ = p.optimize();
    }

    #[test]
    fn matvec_mirror_matches_dsl_shape() {
        let p = FheProgram::listing2_matvec(1 << 14, 16, 4);
        let muls = p.nodes().iter().filter(|n| matches!(n.op, FheOp::Mul(..))).count();
        let auts = p.nodes().iter().filter(|n| matches!(n.op, FheOp::Aut { .. })).count();
        assert_eq!(muls, 4);
        assert_eq!(auts, 4 * 14);
        assert_eq!(p.outputs().len(), 4);
    }
}
