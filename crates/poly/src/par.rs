//! Limb-level parallelism for RNS kernels.
//!
//! RNS limbs are embarrassingly parallel: every NTT, lift, or element-wise
//! pass touches one limb independently (the same independence F1 exploits
//! by issuing one instruction per residue polynomial). [`par_limbs`] runs a
//! per-limb closure across scoped threads — backed by the offline `rayon`
//! shim (`std::thread::scope` underneath) — and falls back to a serial loop
//! whenever the work is too small to pay for thread spawns, so results are
//! bit-identical either way.

/// Minimum per-limb element count before threads are worth spawning: below
/// this an `N`-point NTT is far cheaper than a thread launch.
const MIN_PAR_N: usize = 4096;

/// Returns the thread count to use for `limbs` limbs of `n` elements each:
/// 1 (serial) when parallelism is disabled via `F1_PAR_LIMBS=0|1`, the host
/// is single-core, or the work is too small.
fn limb_threads(limbs: usize, n: usize) -> usize {
    if limbs < 2 || n < MIN_PAR_N {
        return 1;
    }
    // A malformed F1_PAR_LIMBS panics (crate::env policy); 0 and 1 both
    // mean "serial".
    let cap = crate::env::parse_env_or("F1_PAR_LIMBS", rayon::current_num_threads()).max(1);
    cap.min(limbs)
}

/// Applies `f(limb_index, limb_slice)` to every `n`-element limb of the
/// flat limb-major buffer `data`, in parallel when profitable.
///
/// `f` must be safe to run concurrently on distinct limbs (it receives
/// disjoint `&mut` slices, so only shared captured state needs `Sync`).
/// Limbs are distributed in contiguous groups, one scoped thread per group.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `n`.
pub fn par_limbs<F>(data: &mut [u32], n: usize, f: F)
where
    F: Fn(usize, &mut [u32]) + Sync,
{
    assert!(n > 0 && data.len().is_multiple_of(n), "buffer must hold whole limbs");
    run_grouped(data.chunks_exact_mut(n), n, &f);
}

/// [`par_limbs`] over two equally shaped buffers at once:
/// `f(limb_index, a_limb, b_limb)` gets limb `i` of both, for kernels that
/// produce two outputs per limb (the key-switch's `u0` and `u1`).
///
/// # Panics
///
/// Panics if the buffers differ in length or do not hold whole limbs.
pub fn par_limb_pairs<F>(a: &mut [u32], b: &mut [u32], n: usize, f: F)
where
    F: Fn(usize, &mut [u32], &mut [u32]) + Sync,
{
    assert!(n > 0 && a.len().is_multiple_of(n), "buffer must hold whole limbs");
    assert_eq!(a.len(), b.len(), "paired buffers must have the same shape");
    let pairs = a.chunks_exact_mut(n).zip(b.chunks_exact_mut(n));
    run_grouped(pairs, n, &|i, (x, y)| f(i, x, y));
}

/// Runs `f(index, item)` over per-limb items of `n` elements each:
/// serially when [`limb_threads`] says so, else in contiguous groups, one
/// scoped thread per group.
fn run_grouped<T, F>(items: impl ExactSizeIterator<Item = T>, n: usize, f: &F)
where
    T: Send,
    F: Fn(usize, T) + Sync,
{
    let limbs = items.len();
    let threads = limb_threads(limbs, n);
    let mut items = items.enumerate();
    if threads <= 1 {
        items.for_each(|(i, item)| f(i, item));
        return;
    }
    let per_group = limbs.div_ceil(threads);
    rayon::scope(|s| loop {
        let group: Vec<(usize, T)> = items.by_ref().take(per_group).collect();
        if group.is_empty() {
            break;
        }
        s.spawn(move || group.into_iter().for_each(|(i, item)| f(i, item)));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_small_inputs_work() {
        let mut data = vec![0u32; 6];
        par_limbs(&mut data, 2, |i, limb| limb.iter_mut().for_each(|x| *x = i as u32));
        assert_eq!(data, vec![0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn parallel_path_matches_serial() {
        let n = MIN_PAR_N;
        let limbs = 5;
        let mut par = vec![0u32; limbs * n];
        par_limbs(&mut par, n, |i, limb| {
            for (j, x) in limb.iter_mut().enumerate() {
                *x = (i * n + j) as u32;
            }
        });
        let want: Vec<u32> = (0..(limbs * n) as u32).collect();
        assert_eq!(par, want);
        let (mut a, mut b) = (vec![0u32; limbs * n], vec![0u32; limbs * n]);
        par_limb_pairs(&mut a, &mut b, n, |i, x, y| {
            for (j, (x, y)) in x.iter_mut().zip(y.iter_mut()).enumerate() {
                *x = (i * n + j) as u32;
                *y = !*x;
            }
        });
        assert_eq!(a, want);
        assert!(a.iter().zip(&b).all(|(x, y)| *y == !*x));
    }

    #[test]
    #[should_panic(expected = "whole limbs")]
    fn rejects_ragged_buffers() {
        let mut data = vec![0u32; 7];
        par_limbs(&mut data, 2, |_, _| {});
    }
}
