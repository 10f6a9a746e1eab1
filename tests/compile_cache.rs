//! Serialization and schedule-cache regression tests: compiled
//! artifacts must survive serialization byte-for-byte, deserialized
//! schedules must still satisfy the checker and replay bit-identically,
//! and a corrupted cache entry must fall back to a fresh compile — the
//! cache can cost time, never correctness.

use f1::arch::ArchConfig;
use f1::compiler::cache::{self, CacheStatus};
use f1::compiler::{CycleSchedule, Expanded, MovePlan, Program};
use proptest::prelude::*;

fn fingerprint(cs: &CycleSchedule) -> String {
    format!("{:?}", cs.schedule)
}

/// A random small program (mirrors `proptest_pipeline`'s generator).
fn arb_program() -> impl Strategy<Value = Program> {
    proptest::collection::vec(0u8..5, 1..20).prop_map(|choices| {
        let mut p = Program::new(1 << 10);
        let mut cts = vec![p.input(4), p.input(4)];
        let mut idx = 0usize;
        for c in choices {
            let a = cts[idx % cts.len()];
            let b = cts[(idx / 2) % cts.len()];
            idx += 1;
            let lvl_a = p.level_of(a);
            let lvl_b = p.level_of(b);
            let new = match c {
                0 if lvl_a == lvl_b => p.add(a, b),
                1 if lvl_a == lvl_b => p.mul(a, b),
                2 => p.aut(a, 3),
                3 => p.rotate(a, 1 + idx % 4),
                4 if lvl_a >= 2 => p.mod_switch(a),
                _ => p.aut(a, 5),
            };
            cts.push(new);
        }
        p.output(*cts.last().unwrap());
        p
    })
}

/// The two scratchpad sizes the round-trip property runs at: a 64 KB
/// pad (16 values at N = 1024 — evictions, refetches and writebacks
/// all over the streams) and the paper's 64 MB pad (nothing spills).
fn pads() -> [ArchConfig; 2] {
    let mut tiny = ArchConfig::f1_default();
    tiny.scratchpad_banks = 1;
    tiny.bank_bytes = 64 * 1024;
    [tiny, ArchConfig::f1_default()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn artifacts_round_trip_and_replay_bit_for_bit(p in arb_program()) {
        for arch in pads() {
            let (ex, plan, cs) = f1::compiler::compile(&p, &arch);
            let bytes = serde::to_bytes(&(&ex, &plan, &cs));
            let (ex2, plan2, cs2): (Expanded, MovePlan, CycleSchedule) =
                serde::from_bytes(&bytes).expect("artifacts must deserialize");
            // Byte-identical round trip: re-serializing the decoded
            // artifacts reproduces the exact bytes.
            prop_assert_eq!(&serde::to_bytes(&(&ex2, &plan2, &cs2)), &bytes);
            prop_assert_eq!(fingerprint(&cs), fingerprint(&cs2));
            // The deserialized schedule is checker-clean on its own.
            let report = f1::sim::check_schedule(&ex2, &plan2, &cs2, &arch);
            prop_assert!(report.makespan > 0);
            // And replays bit-for-bit against direct DFG evaluation.
            let inputs = f1::sim::mock_inputs(&ex2.dfg);
            let direct = f1::sim::eval_dfg(&ex2.dfg, &inputs);
            let replayed = f1::sim::replay_schedule(&ex2.dfg, &cs2, &arch, &inputs);
            for out in ex2.output_values.iter().flatten() {
                prop_assert_eq!(&replayed[out], &direct[out], "output {:?} differs", out);
            }
        }
    }
}

/// One sequential test owns `F1_CACHE_DIR` for this binary (env vars
/// are process-global; splitting these stages into parallel #[test]s
/// would race on it).
#[test]
fn cache_hits_reuse_and_corruption_falls_back() {
    let dir = std::env::temp_dir().join(format!("f1-cache-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("F1_CACHE_DIR", &dir);
    let arch = ArchConfig::f1_default();
    let p = Program::listing2_matvec(1 << 12, 4, 3);

    // Cold: miss, computes and stores.
    let ((_, _, cs_cold), st) = cache::compile_cached(&p, &arch);
    assert_eq!(st, CacheStatus::Miss);
    let reference = fingerprint(&cs_cold);

    // Warm: hit, byte-identical streams, checker-clean.
    let ((ex_hit, plan_hit, cs_hit), st) = cache::compile_cached(&p, &arch);
    assert_eq!(st, CacheStatus::Hit);
    assert_eq!(fingerprint(&cs_hit), reference);
    f1::sim::check_schedule(&ex_hit, &plan_hit, &cs_hit, &arch);

    let entry = cache::dsl_entry_path(&p, &arch);
    assert!(entry.exists(), "cache entry must exist after a miss");

    // Bit-flip deep in the payload: the entry must be rejected (payload
    // checksum) and the compile must fall back fresh — same schedule.
    let mut bytes = std::fs::read(&entry).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&entry, &bytes).unwrap();
    let ((_, _, cs), st) = cache::compile_cached(&p, &arch);
    assert_eq!(st, CacheStatus::Miss, "corrupted entry must not hit");
    assert_eq!(fingerprint(&cs), reference);

    // The fallback rewrote a good entry; corrupt again by truncation.
    let bytes = std::fs::read(&entry).unwrap();
    std::fs::write(&entry, &bytes[..bytes.len() / 3]).unwrap();
    let ((_, _, cs), st) = cache::compile_cached(&p, &arch);
    assert_eq!(st, CacheStatus::Miss, "truncated entry must not hit");
    assert_eq!(fingerprint(&cs), reference);

    // Garbage that is not even a header.
    std::fs::write(&entry, b"not a cache artifact").unwrap();
    let ((_, _, cs), st) = cache::compile_cached(&p, &arch);
    assert_eq!(st, CacheStatus::Miss);
    assert_eq!(fingerprint(&cs), reference);

    // After all that abuse the rewritten entry hits again.
    let ((_, _, cs), st) = cache::compile_cached(&p, &arch);
    assert_eq!(st, CacheStatus::Hit);
    assert_eq!(fingerprint(&cs), reference);

    // Distinct arch → distinct key: no false sharing.
    let small = ArchConfig::f1_default().with_scratchpad_mb(4);
    let ((_, _, _), st) = cache::compile_cached(&p, &small);
    assert_eq!(st, CacheStatus::Miss, "a different arch must not hit the same entry");

    let _ = std::fs::remove_dir_all(&dir);
}
