//! Rolled-vs-handwritten equivalence at the IR level: unrolling a
//! `Repeat` region must reproduce, node for node, the program a user
//! would get by writing the same body out `trips` times by hand — same
//! nodes, types, ordinals, outputs and ordinal counters (the two
//! programs' `Debug` renderings are identical) — and the unrolled
//! program must pass `validate()`. `compile_fhe` unrolls before any pass
//! runs, so this is the whole contract a rolled region has to keep.

use f1::compiler::ir::{FheProgram, IrId, NodeStep, Scheme};
use proptest::prelude::*;

const N: usize = 1 << 10;

/// Appends one loop body to `p` and returns its last value. Each opcode
/// byte appends one node (or an input plus the node consuming it)
/// reading earlier body values. `it` is the iteration being written: the
/// rolled build passes 0 and records the per-iteration `steps`; the
/// handwritten build passes each iteration index and applies the same
/// steps itself. With `descend` the body first mod-switches the carried
/// value, so every iteration runs one level lower and its inputs step
/// their level by -1.
fn body(
    p: &mut FheProgram,
    ops: &[u8],
    acc: IrId,
    inv: Option<IrId>,
    descend: bool,
    it: usize,
    steps: &mut Vec<(IrId, NodeStep)>,
) -> IrId {
    let kind = |op: u8| op % 6;
    let ct_inputs = ops.iter().filter(|&&op| kind(op) == 4).count() as i64;
    let pt_inputs = ops.iter().filter(|&&op| kind(op) == 5).count() as i64;
    let d_level = if descend { -1 } else { 0 };
    let mut vals = if descend { vec![p.mod_switch(acc)] } else { vec![acc] };
    vals.extend(inv);
    for &op in ops {
        let a = vals[(op as usize / 8) % vals.len()];
        let b = vals[(op as usize / 64) % vals.len()];
        let level = p.level_of(a);
        let v = match kind(op) {
            0 => p.square(a),
            1 => {
                let k = [3, 5, 9][(op as usize / 4) % 3];
                let d_k = [0, 2, 4][(op as usize / 16) % 3];
                let r = p.aut(a, (k + it * d_k) % (2 * N));
                if d_k != 0 {
                    steps.push((r, NodeStep { d_k: d_k as i64, ..NodeStep::default() }));
                }
                r
            }
            2 => p.add(a, b),
            3 => p.mul(a, b),
            4 => {
                let x = p.input(level);
                steps.push((x, NodeStep { d_ordinal: ct_inputs, d_level, d_k: 0 }));
                p.add(a, x)
            }
            _ => {
                let c = p.plain_input(level);
                steps.push((c, NodeStep { d_ordinal: pt_inputs, d_level, d_k: 0 }));
                p.mul_plain(a, c)
            }
        };
        vals.push(v);
    }
    *vals.last().expect("vals is non-empty")
}

/// The carried value's entry level: enough for `trips` descending
/// iterations, a fixed 6 otherwise.
fn entry_level(trips: u32, descend: bool) -> usize {
    if descend {
        trips as usize + 2
    } else {
        6
    }
}

/// The body as one `Repeat` region of `trips` iterations. Without
/// `descend`, a loop-invariant input defined before the region is also
/// readable from the body.
fn rolled_program(ops: &[u8], trips: u32, descend: bool) -> FheProgram {
    let mut p = FheProgram::new(N, Scheme::Bgv);
    let acc = p.input(entry_level(trips, descend));
    let inv = (!descend).then(|| p.input(entry_level(trips, descend)));
    let t = p.begin_repeat();
    let mut steps = Vec::new();
    let last = body(&mut p, ops, acc, inv, descend, 0, &mut steps);
    p.end_repeat(t, trips, vec![(acc, last)], steps);
    p.output(last);
    p
}

/// The same body written out `trips` times by hand.
fn handwritten_program(ops: &[u8], trips: u32, descend: bool) -> FheProgram {
    let mut p = FheProgram::new(N, Scheme::Bgv);
    let mut acc = p.input(entry_level(trips, descend));
    let inv = (!descend).then(|| p.input(entry_level(trips, descend)));
    for it in 0..trips as usize {
        acc = body(&mut p, ops, acc, inv, descend, it, &mut Vec::new());
    }
    p.output(acc);
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn unrolled_region_matches_handwritten_body(
        ops in proptest::collection::vec(0u8..=255, 1..8),
        trips in 1u32..40,
        descend in 0u8..2,
    ) {
        let descend = descend == 1;
        let rolled = rolled_program(&ops, trips, descend);
        rolled.validate();
        let unrolled = rolled.unroll();
        unrolled.validate();
        prop_assert!(unrolled.repeats().is_empty());
        prop_assert_eq!(
            format!("{unrolled:?}"),
            format!("{:?}", handwritten_program(&ops, trips, descend)),
            "{} trips, descend {}, ops {:?}", trips, descend, ops
        );
    }
}
