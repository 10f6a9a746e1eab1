//! The instruction-level dataflow graph (Fig 3's "Instruction DFG").
//!
//! Values are single residue polynomials (`RVec`s); instructions are the
//! vector operations F1's functional units implement. The graph is in SSA
//! form — each value has exactly one producer (or none, for inputs loaded
//! from memory) — and is acyclic by construction because instructions may
//! only reference already-registered values.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identifies a value (one `RVec`) in a [`Dfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ValueId(pub u32);

/// Identifies an instruction in a [`Dfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct InstrId(pub u32);

/// The vector operations F1's functional units implement (§3, §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VectorOp {
    /// Element-wise modular addition.
    Add,
    /// Element-wise modular subtraction (executes on the adder FU).
    Sub,
    /// Element-wise modular multiplication.
    Mul,
    /// Multiplication by a scalar constant (modular multiplier with one
    /// broadcast operand; used by modulus-switch corrections and
    /// plaintext-scalar operations).
    ScalarMul,
    /// Scalar multiply-accumulate `dst = src0 + c * src1` (decomposed into
    /// Mul + Add by the scheduler; kept fused in the DFG for compactness).
    ScalarMulAdd,
    /// Forward NTT (limb-local; §5.2's four-step unit).
    Ntt,
    /// Inverse NTT.
    Intt,
    /// Automorphism `σ_k` (§5.1's column/transpose/row unit).
    Aut {
        /// The automorphism exponent (odd, `< 2N`).
        k: usize,
    },
    /// Copy/move (realized by the network + register files, but counted
    /// as an instruction when materializing a value under a new id).
    Copy,
}

impl VectorOp {
    /// The functional-unit class that executes this operation.
    pub fn fu_type(&self) -> crate::streams::FuType {
        use crate::streams::FuType;
        match self {
            VectorOp::Add | VectorOp::Sub | VectorOp::Copy => FuType::Add,
            VectorOp::Mul | VectorOp::ScalarMul | VectorOp::ScalarMulAdd => FuType::Mul,
            VectorOp::Ntt | VectorOp::Intt => FuType::Ntt,
            VectorOp::Aut { .. } => FuType::Aut,
        }
    }

    /// Number of input operands.
    pub fn arity(&self) -> usize {
        match self {
            VectorOp::Add | VectorOp::Sub | VectorOp::Mul => 2,
            VectorOp::ScalarMulAdd => 2,
            VectorOp::ScalarMul
            | VectorOp::Ntt
            | VectorOp::Intt
            | VectorOp::Aut { .. }
            | VectorOp::Copy => 1,
        }
    }
}

/// What a value is, for the data-movement accounting of Fig 9a.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ValueKind {
    /// A residue vector of a key-switch hint (streamed from memory,
    /// heavily reused; the dominant traffic class, §2.4).
    KeySwitchHint,
    /// A program input (ciphertext or plaintext residue vector).
    Input,
    /// An intermediate produced by computation.
    Intermediate,
    /// A program output (must be stored to memory at the end).
    Output,
}

/// Metadata for one value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ValueInfo {
    /// The value's id.
    pub id: ValueId,
    /// Traffic class.
    pub kind: ValueKind,
    /// Size in bytes (4·N for a full residue vector).
    pub bytes: u64,
}

/// One vector instruction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Instruction {
    /// The instruction's id (index into the DFG's instruction list).
    pub id: InstrId,
    /// The operation.
    pub op: VectorOp,
    /// Input values, in operand order.
    pub inputs: Vec<ValueId>,
    /// The single produced value.
    pub output: ValueId,
    /// Global order priority assigned by the homomorphic-operation
    /// compiler (§4.2): lower = earlier in the reuse-maximizing order.
    pub priority: u64,
}

/// The instruction-level dataflow graph.
///
/// Producer/user relations are dense `Vec`s indexed by [`ValueId`] (ids
/// are allocated densely by construction): the schedulers touch them
/// several times per instruction and hashing dominated the passes at
/// full benchmark scale.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Dfg {
    /// Ring dimension: every value is an `N`-element residue vector.
    pub n: usize,
    values: Vec<ValueInfo>,
    instrs: Vec<Instruction>,
    /// producer[v] = instruction that writes v (None for graph inputs).
    producer: Vec<Option<InstrId>>,
    /// users[v] = instructions that read v, in creation order.
    users: Vec<Vec<InstrId>>,
    /// Values that must be written back to memory.
    outputs: Vec<ValueId>,
}

impl Dfg {
    /// Creates an empty graph over ring dimension `n`.
    pub fn new(n: usize) -> Self {
        Self { n, ..Default::default() }
    }

    /// Registers a new value of the given kind and returns its id.
    pub fn add_value(&mut self, kind: ValueKind) -> ValueId {
        let id = ValueId(self.values.len() as u32);
        self.values.push(ValueInfo { id, kind, bytes: 4 * self.n as u64 });
        self.producer.push(None);
        self.users.push(Vec::new());
        id
    }

    /// Adds an instruction producing a fresh intermediate value.
    ///
    /// # Panics
    ///
    /// Panics if the operand count does not match the op's arity or an
    /// input id is unknown.
    pub fn add_instr(&mut self, op: VectorOp, inputs: Vec<ValueId>, priority: u64) -> ValueId {
        assert_eq!(inputs.len(), op.arity(), "operand count mismatch for {op:?}");
        for &v in &inputs {
            assert!((v.0 as usize) < self.values.len(), "unknown input value {v:?}");
        }
        let out = self.add_value(ValueKind::Intermediate);
        let id = InstrId(self.instrs.len() as u32);
        for &v in &inputs {
            self.users[v.0 as usize].push(id);
        }
        self.producer[out.0 as usize] = Some(id);
        self.instrs.push(Instruction { id, op, inputs, output: out, priority });
        out
    }

    /// Marks a value as a program output.
    pub fn mark_output(&mut self, v: ValueId) {
        if let Some(info) = self.values.get_mut(v.0 as usize) {
            if info.kind == ValueKind::Intermediate {
                info.kind = ValueKind::Output;
            }
        }
        self.outputs.push(v);
    }

    /// All values.
    pub fn values(&self) -> &[ValueInfo] {
        &self.values
    }

    /// Metadata for a value.
    pub fn value(&self, v: ValueId) -> &ValueInfo {
        &self.values[v.0 as usize]
    }

    /// All instructions, in creation order.
    pub fn instrs(&self) -> &[Instruction] {
        &self.instrs
    }

    /// An instruction by id.
    pub fn instr(&self, i: InstrId) -> &Instruction {
        &self.instrs[i.0 as usize]
    }

    /// The producing instruction of a value, if any (inputs have none).
    pub fn producer(&self, v: ValueId) -> Option<InstrId> {
        self.producer[v.0 as usize]
    }

    /// The instructions consuming a value.
    pub fn users(&self, v: ValueId) -> &[InstrId] {
        &self.users[v.0 as usize]
    }

    /// Program outputs.
    pub fn outputs(&self) -> &[ValueId] {
        &self.outputs
    }

    /// Whether a value is live after an instruction (has users with a
    /// larger id) — helper for the schedulers' replacement policies.
    pub fn dead_after(&self, v: ValueId, i: InstrId) -> bool {
        !self.outputs.contains(&v) && self.users(v).iter().all(|&u| u <= i)
    }

    /// Total bytes of all values of a kind (for the compulsory-traffic
    /// accounting of Fig 9a).
    pub fn bytes_of_kind(&self, kind: ValueKind) -> u64 {
        self.values.iter().filter(|v| v.kind == kind).map(|v| v.bytes).sum()
    }

    /// Operation histogram (diagnostics; also drives the CPU baseline's
    /// per-op cost accounting).
    pub fn op_counts(&self) -> HashMap<&'static str, usize> {
        let mut h = HashMap::new();
        for i in &self.instrs {
            let key = match i.op {
                VectorOp::Add => "add",
                VectorOp::Sub => "sub",
                VectorOp::Mul => "mul",
                VectorOp::ScalarMul => "scalar_mul",
                VectorOp::ScalarMulAdd => "scalar_mul_add",
                VectorOp::Ntt => "ntt",
                VectorOp::Intt => "intt",
                VectorOp::Aut { .. } => "aut",
                VectorOp::Copy => "copy",
            };
            *h.entry(key).or_insert(0) += 1;
        }
        h
    }

    /// Critical-path depth of every instruction: the weighted longest
    /// path from the instruction to any sink, where `weight(i)` is the
    /// contribution of instruction `i` itself (e.g. its exposed latency).
    /// The cycle-level scheduler ranks ready instructions by this (§4.4:
    /// longest dependence chains first). Runs in O(V + E) because
    /// instructions are topologically ordered by construction.
    pub fn critical_depths(&self, weight: &dyn Fn(&Instruction) -> u64) -> Vec<u64> {
        let mut depth = vec![0u64; self.instrs.len()];
        for instr in self.instrs.iter().rev() {
            let below =
                self.users(instr.output).iter().map(|u| depth[u.0 as usize]).max().unwrap_or(0);
            depth[instr.id.0 as usize] = weight(instr) + below;
        }
        depth
    }

    /// Validates SSA and acyclicity invariants; returns instruction count.
    ///
    /// # Panics
    ///
    /// Panics on violation (this is a checker, mirroring the paper's
    /// validation-style simulator, §7).
    pub fn validate(&self) -> usize {
        for instr in &self.instrs {
            for &v in &instr.inputs {
                if let Some(p) = self.producer(v) {
                    assert!(p < instr.id, "instruction {:?} uses value produced later", instr.id);
                }
            }
        }
        self.instrs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_graph() -> (Dfg, ValueId, ValueId, ValueId) {
        let mut g = Dfg::new(1024);
        let a = g.add_value(ValueKind::Input);
        let b = g.add_value(ValueKind::Input);
        let h = g.add_value(ValueKind::KeySwitchHint);
        (g, a, b, h)
    }

    #[test]
    fn ssa_and_users() {
        let (mut g, a, b, h) = tiny_graph();
        let s = g.add_instr(VectorOp::Add, vec![a, b], 0);
        let p = g.add_instr(VectorOp::Mul, vec![s, h], 1);
        let t = g.add_instr(VectorOp::Ntt, vec![p], 2);
        g.mark_output(t);
        assert_eq!(g.validate(), 3);
        assert_eq!(g.users(s).len(), 1);
        assert_eq!(g.producer(t), Some(InstrId(2)));
        assert_eq!(g.producer(a), None);
        assert_eq!(g.outputs(), &[t]);
        assert_eq!(g.value(t).kind, ValueKind::Output);
    }

    #[test]
    fn arity_checked() {
        let (mut g, a, _, _) = tiny_graph();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.add_instr(VectorOp::Add, vec![a], 0);
        }));
        assert!(r.is_err(), "Add with one operand must panic");
    }

    #[test]
    fn value_sizes_follow_ring() {
        let g = Dfg::new(16384);
        let mut g = g;
        let v = g.add_value(ValueKind::Input);
        assert_eq!(g.value(v).bytes, 64 * 1024, "one RVec at N=16K is 64 KB (§2.4)");
    }

    #[test]
    fn dead_after_accounting() {
        let (mut g, a, b, _) = tiny_graph();
        let s = g.add_instr(VectorOp::Add, vec![a, b], 0);
        let t = g.add_instr(VectorOp::Ntt, vec![s], 1);
        g.mark_output(t);
        assert!(g.dead_after(s, InstrId(1)));
        assert!(!g.dead_after(s, InstrId(0)));
        assert!(!g.dead_after(t, InstrId(1)), "outputs are never dead");
    }

    #[test]
    fn op_histogram() {
        let (mut g, a, b, h) = tiny_graph();
        let s = g.add_instr(VectorOp::Add, vec![a, b], 0);
        let m = g.add_instr(VectorOp::Mul, vec![s, h], 1);
        let _ = g.add_instr(VectorOp::Aut { k: 3 }, vec![m], 2);
        let counts = g.op_counts();
        assert_eq!(counts["add"], 1);
        assert_eq!(counts["mul"], 1);
        assert_eq!(counts["aut"], 1);
    }

    #[test]
    fn critical_depths_follow_longest_path() {
        let (mut g, a, b, h) = tiny_graph();
        let s = g.add_instr(VectorOp::Add, vec![a, b], 0); // depth: w(add)+w(mul)+w(ntt)
        let p = g.add_instr(VectorOp::Mul, vec![s, h], 1);
        let t = g.add_instr(VectorOp::Ntt, vec![p], 2);
        g.mark_output(t);
        let w = |i: &Instruction| match i.op {
            VectorOp::Add => 4u64,
            VectorOp::Mul => 8,
            VectorOp::Ntt => 100,
            _ => 1,
        };
        let d = g.critical_depths(&w);
        assert_eq!(d, vec![112, 108, 100]);
    }

    #[test]
    fn kind_byte_totals() {
        let (mut g, _, _, _) = tiny_graph();
        let _ = g.add_value(ValueKind::KeySwitchHint);
        assert_eq!(g.bytes_of_kind(ValueKind::KeySwitchHint), 2 * 4 * 1024);
        assert_eq!(g.bytes_of_kind(ValueKind::Input), 2 * 4 * 1024);
    }
}
