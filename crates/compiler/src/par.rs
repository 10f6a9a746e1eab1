//! Compile-time parallelism policy.
//!
//! The scheduling passes themselves are serial. Parallelism lives one
//! level up, in the bins that compile or analyze several benchmarks at
//! once (`table3_benchmarks`, `analyze`): each benchmark is independent,
//! so those loops fan out across [`compile_threads`] threads, and their
//! outputs are assembled in benchmark order. One knob — the
//! `F1_PAR_COMPILE` environment variable, mirroring `F1_PAR_LIMBS` in
//! `f1-poly` — sets their width; `F1_PAR_COMPILE=1` runs them serially.

/// The number of threads the per-benchmark loops may use.
///
/// Resolution order: the `F1_PAR_COMPILE` environment variable, then the
/// host's available parallelism. Always at least 1.
///
/// # Panics
///
/// Panics if `F1_PAR_COMPILE` is set but not a positive integer, so typos
/// (or `0`) fail loudly instead of silently changing the build.
pub fn compile_threads() -> usize {
    match std::env::var("F1_PAR_COMPILE") {
        Ok(s) => s
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| panic!("F1_PAR_COMPILE must be a positive integer, got {s:?}")),
        Err(_) => rayon::current_num_threads().max(1),
    }
}
