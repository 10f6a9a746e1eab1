//! # f1-compiler — F1's static scheduling compiler (§4)
//!
//! F1 is statically scheduled: the compiler decides the exact cycle of
//! every operation and data transfer (§3). This crate implements the full
//! stack of Fig 3, fronted by a typed IR:
//!
//! 0. [`ir`] — the `FheProgram` frontend: a typed, scheme-aware circuit
//!    builder (BGV/CKKS/GSW, level/scale/depth tracking, plaintext
//!    constants) over a normalized SSA IR with dense deterministic ids,
//!    plus the optimization pipeline (constant folding, rotation dedup,
//!    CSE, key-switch hoisting, DCE) that runs *before* key-switch
//!    expansion multiplies every homomorphic op by ~100×.
//! 1. [`dsl`] — the high-level FHE DSL of Listing 2 (`Program`), the
//!    scheduler-facing homomorphic-op list the IR lowers into.
//! 2. [`expand`] — the homomorphic-operation compiler (§4.2): orders
//!    homomorphic operations to maximize key-switch-hint reuse, chooses
//!    between key-switching implementations, and translates each
//!    operation into residue-vector instructions (Listing 1's expansion).
//! 3. [`movement`] — the off-chip data movement scheduler (§4.3): greedy
//!    priority scheduling against a scratchpad model with Belady-style
//!    furthest-reuse eviction, emitting a residency event script whose
//!    allocations carry the byte lineage of the space they reuse.
//! 4. [`cycle`] — the cycle-level scheduler (§4.4): a resource-explicit
//!    list scheduler over the event graph that ranks instructions by
//!    critical-path depth, overlaps loads/spills/refetches with compute
//!    on the HBM-channel timelines, gates consumers on refetch
//!    completion, models FU/crossbar/register-file occupancy, and emits
//!    per-component static streams whose resident set provably fits the
//!    scratchpad at every cycle.
//! 5. [`csr`] — the Goodman–Hsu register-pressure-aware baseline
//!    scheduler used by the Table 5 sensitivity study.
//!
//! Because schedules are fully static, the cycle-level scheduler doubles
//! as the performance model (§4.4 "our scheduler also doubles as a
//! performance measurement tool").

#![forbid(unsafe_code)]
// Index loops intentionally mirror the per-element/cluster/slot loops structure of the
// hardware they model; iterator rewrites obscure that correspondence.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod analysis;
pub mod cache;
pub mod csr;
pub mod cycle;
pub mod dsl;
pub mod expand;
pub mod ir;
pub mod movement;
pub mod par;

pub use analysis::{AnalysisReport, Analyzer, Diagnostic, Severity};
pub use cycle::CycleSchedule;
pub use dsl::{CtId, HomOp, Program};
pub use expand::{ExpandOptions, Expanded, KeySwitchChoice};
pub use ir::{
    FheProgram, IrId, Lowered, NodeStep, NoisePolicy, OptStats, RepeatSpec, RescaleStats, Scheme,
};
pub use movement::MovePlan;

/// Compiles a DSL program end-to-end with default options, returning the
/// expanded DFG, the data-movement plan and the cycle-level schedule.
/// The target architecture informs pass 1's key-switch cost model (§4.2)
/// as well as the two scheduling passes.
pub fn compile(
    program: &Program,
    arch: &f1_arch::ArchConfig,
) -> (Expanded, MovePlan, CycleSchedule) {
    let timing = std::env::var("F1_TIMING").is_ok();
    let t0 = std::time::Instant::now();
    let opts = ExpandOptions { machine: Some(arch.clone()), ..Default::default() };
    let expanded = expand::expand(program, &opts);
    let t1 = t0.elapsed();
    let plan = movement::schedule(&expanded, arch);
    let t2 = t0.elapsed();
    let cycles = cycle::schedule(&expanded, &plan, arch);
    if timing {
        eprintln!(
            "[timing]   expand {:>6.2}s  movement {:>6.2}s  cycle {:>6.2}s  ({} instrs, {} values, {} events)",
            t1.as_secs_f64(),
            (t2 - t1).as_secs_f64(),
            (t0.elapsed() - t2).as_secs_f64(),
            expanded.dfg.instrs().len(),
            expanded.dfg.values().len(),
            plan.events.len()
        );
    }
    (expanded, plan, cycles)
}

/// Compiles a typed [`FheProgram`] end-to-end: optimize (IR passes) →
/// lower → the three scheduling passes of [`compile`]. Returns the
/// lowering (with its constant table and input maps), the optimization
/// statistics, and the usual pass outputs.
pub fn compile_fhe(
    program: &FheProgram,
    arch: &f1_arch::ArchConfig,
) -> (Lowered, OptStats, Expanded, MovePlan, CycleSchedule) {
    compile_fhe_with(program, arch, None)
}

/// [`compile_fhe`] with opt-in automatic noise management: when `policy`
/// is set, [`ir::rescale::insert_rescales`] reflows the program (drops
/// hand-placed mod-switches, re-derives placement under the policy, and
/// re-proves typing + noise margins) before the optimizer runs.
pub fn compile_fhe_with(
    program: &FheProgram,
    arch: &f1_arch::ArchConfig,
    policy: Option<NoisePolicy>,
) -> (Lowered, OptStats, Expanded, MovePlan, CycleSchedule) {
    // Rolled loop regions unroll here: every pass below this point sees
    // flat IR, as F1's control-flow-free schedule requires (§3).
    let unrolled;
    let program = if program.repeats().is_empty() {
        program
    } else {
        unrolled = program.unroll();
        &unrolled
    };
    let managed;
    let program = match policy {
        Some(policy) => {
            let (m, _stats) = ir::rescale::insert_rescales(program, policy);
            managed = m;
            &managed
        }
        None => program,
    };
    let (optimized, stats) = program.optimize();
    let lowered = optimized.lower();
    let (expanded, plan, cycles) = compile(&lowered.program, arch);
    (lowered, stats, expanded, plan, cycles)
}
