//! Approximate K-splitters (paper §5.1, Theorem 5).
//!
//! Find `K − 1` elements `s_1 ≤ … ≤ s_{K-1}` of `S` such that every induced
//! partition `S ∩ (s_{i-1}, s_i]` has size in `[a, b]`.
//!
//! * **Right-grounded** (`b ≥ N`): take `aK` arbitrary elements `S'` and
//!   return the `1/K`-quantile of `S'` — `O((1 + aK/B)·lg_{M/B}(K/B))`
//!   I/Os, *sublinear* when `aK ≪ N`.
//! * **Left-grounded** (`a = 0`): multi-select the ranks `i·b` for
//!   `i < ⌈N/b⌉`, pad with arbitrary further elements if fewer than
//!   `K − 1` — `O((N/B)·lg_{M/B}(N/(bB)))` I/Os.
//! * **Two-sided**: if `a ≥ N/2K` or `b ≤ 2N/K` the plain `1/K`-quantile
//!   works; otherwise split `S` into the `aK'` smallest (`S_low`, quantiled
//!   into `K'` parts of exactly `a`) and the rest (`S_high`, quantiled into
//!   `K − K'` near-even parts), with `K' = ⌊(bK − N)/(b − a)⌋`.
//!
//! Duplicate keys: splitters are *elements* of `S`; with heavily duplicated
//! keys two splitters may carry equal keys, making some induced partitions
//! empty — legal only when `a = 0`. For `a ≥ 1` on duplicate-heavy inputs,
//! wrap records in [`emcore::Indexed`] to make keys distinct.

use emcore::{EmError, EmFile, Record, Result};
use emselect::{multi_select_segs, multi_select_with, split_at_rank, MsOptions, Partition};

use crate::spec::{Groundedness, ProblemSpec};

/// Options threaded through to the selection machinery.
pub type SplitOptions = MsOptions;

/// Find approximate K-splitters for `spec` on `input`. Dispatches on the
/// spec's groundedness. Returns the `K − 1` splitters in ascending key
/// order.
pub fn approx_splitters<T: Record>(input: &EmFile<T>, spec: &ProblemSpec) -> Result<Vec<T>> {
    approx_splitters_with(input, spec, SplitOptions::default())
}

/// [`approx_splitters`] with explicit selection options.
pub fn approx_splitters_with<T: Record>(
    input: &EmFile<T>,
    spec: &ProblemSpec,
    opts: SplitOptions,
) -> Result<Vec<T>> {
    check_input(input, spec)?;
    if spec.k == 1 {
        return Ok(Vec::new());
    }
    let stats = input.ctx().stats().clone();
    let phase = stats.phase_guard("approx-splitters");
    let r = match spec.groundedness() {
        Groundedness::RightGrounded => right_grounded(input, spec, opts),
        Groundedness::LeftGrounded => left_grounded(input, spec, opts),
        Groundedness::TwoSided => two_sided(input, spec, opts),
    };
    drop(phase);
    let mut splitters = r?;
    splitters.sort_unstable_by_key(|a| a.key());
    debug_assert_eq!(splitters.len(), (spec.k - 1) as usize);
    Ok(splitters)
}

pub(crate) fn check_input<T: Record>(input: &EmFile<T>, spec: &ProblemSpec) -> Result<()> {
    if input.len() != spec.n {
        return Err(EmError::config(format!(
            "spec says N = {} but input has {} records",
            spec.n,
            input.len()
        )));
    }
    Ok(())
}

/// Copy the first `count` records of `input` into a fresh file
/// (`O(1 + count/B)` reads + writes). The paper's "take `aK` arbitrary
/// elements".
fn take_prefix<T: Record>(input: &EmFile<T>, count: u64) -> Result<EmFile<T>> {
    let ctx = input.ctx().clone();
    let mut w = ctx.writer::<T>()?;
    let mut r = input.reader()?;
    let mut taken = 0u64;
    while taken < count {
        match r.next()? {
            Some(x) => {
                w.push(x)?;
                taken += 1;
            }
            None => {
                return Err(EmError::config(format!(
                    "prefix of {count} requested from file of {} records",
                    input.len()
                )))
            }
        }
    }
    w.finish()
}

/// Right-grounded: `b ≥ N`. Sublinear in `N` whenever `aK = o(N)`.
fn right_grounded<T: Record>(
    input: &EmFile<T>,
    spec: &ProblemSpec,
    opts: SplitOptions,
) -> Result<Vec<T>> {
    // a = 0 still needs K−1 distinct elements; sample with an effective
    // a of 1 (partitions only need to be nonempty below, i.e. ≥ a = 0,
    // which any K−1 splitters satisfy).
    let a = spec.a.max(1);
    let sample = take_prefix(input, a * spec.k)?;
    let ranks: Vec<u64> = (1..spec.k).map(|i| i * a).collect();
    multi_select_with(&sample, &ranks, opts)
}

/// Left-grounded: `a = 0`.
fn left_grounded<T: Record>(
    input: &EmFile<T>,
    spec: &ProblemSpec,
    opts: SplitOptions,
) -> Result<Vec<T>> {
    let n = spec.n;
    let b = spec.b;
    let k_needed = (spec.k - 1) as usize;
    let kp = n.div_ceil(b); // K' = ⌈N/b⌉ partitions of size ≤ b
    let core_ranks: Vec<u64> = (1..kp).map(|i| i * b).collect();
    let mut splitters = multi_select_with(input, &core_ranks, opts)?;
    if splitters.len() < k_needed {
        // Pad with "arbitrary distinct elements of S" (paper §5.1): scan
        // from the front collecting keys distinct from the core splitters
        // and from each other. Adding splitters only refines partitions,
        // so every size stays ≤ b; since a = 0, any refinement is legal.
        // Typical cost: O(1 + K/B) reads.
        let missing = k_needed - splitters.len();
        let taken: std::collections::BTreeSet<T::Key> = splitters.iter().map(|s| s.key()).collect();
        let _charge = input.ctx().mem().try_charge(
            (taken.len() + missing) * (T::WORDS + 1),
            "splitter padding set",
        )?;
        let mut pads: Vec<T> = Vec::with_capacity(missing);
        let mut pad_keys = std::collections::BTreeSet::new();
        let mut r = input.reader()?;
        while pads.len() < missing {
            match r.next()? {
                Some(x) => {
                    let key = x.key();
                    if !taken.contains(&key) && pad_keys.insert(key) {
                        pads.push(x);
                    }
                }
                None => {
                    return Err(EmError::config(format!(
                        "input has fewer than {} distinct keys; the K-splitters \
                         instance is infeasible",
                        k_needed + 1
                    )))
                }
            }
        }
        splitters.extend(pads);
    }
    Ok(splitters)
}

/// Two-sided: `0 < a ≤ N/K ≤ b < N`.
fn two_sided<T: Record>(
    input: &EmFile<T>,
    spec: &ProblemSpec,
    opts: SplitOptions,
) -> Result<Vec<T>> {
    if spec.quantile_suffices() {
        return multi_select_with(input, &spec.quantile_ranks(), opts);
    }
    let k = spec.k;
    let kp = spec.k_prime();
    if kp == 0 || kp >= k {
        // Degenerate corner (tiny K): the quantile is always feasible.
        return multi_select_with(input, &spec.quantile_ranks(), opts);
    }
    // For K within one base case, the whole splitter set is expressible as
    // K − 1 *global* ranks (the S_low quantiles are the ranks i·a, the
    // S_high quantiles the ranks aK' + i·|S_high|/(K−K')) — one
    // multi-selection call, no physical split. The explicit S_low/S_high
    // split is kept for large K, where selecting the K'−1 low splitters
    // from the aK'-element S_low (instead of all of S) is what achieves
    // the (aK/B)·lg_{M/B}(K/B) term.
    let kh = k - kp;
    let high_n = spec.n - spec.a * kp;
    let m = emselect::base_case_capacity::<T>(input.ctx(), &opts);
    if ((k - 1) as usize) <= 2 * m || spec.a * k * 8 > spec.n {
        let mut ranks: Vec<u64> = (1..=kp).map(|i| i * spec.a).collect();
        ranks.extend((1..kh).map(|i| spec.a * kp + (i * high_n) / kh));
        return multi_select_with(input, &ranks, opts);
    }
    let (low, high, boundary) = split_lowest(input, spec.a * kp)?;
    debug_assert_eq!(low.len(), spec.a * kp);
    debug_assert_eq!(high.len(), high_n);
    debug_assert!(
        high_n >= spec.a * kh && high_n <= spec.b * kh,
        "|S_high| = {high_n} outside [a(K-K'), b(K-K')] = [{}, {}]",
        spec.a * kh,
        spec.b * kh
    );

    let ctx = input.ctx().clone();
    let mut out = Vec::with_capacity((k - 1) as usize);
    // s_1..s_{K'-1}: the 1/K'-quantile of S_low → partitions of exactly a.
    if kp > 1 {
        let ranks: Vec<u64> = (1..kp).map(|i| i * spec.a).collect();
        out.extend(multi_select_segs(&ctx, low.segments(), &ranks, opts)?);
    }
    // s_{K'}: the largest element of S_low = the rank-aK' element of S.
    out.push(boundary);
    // s_{K'+1}..s_{K-1}: the 1/(K-K')-quantile of S_high.
    if kh > 1 {
        let ranks: Vec<u64> = (1..kh).map(|i| (i * high_n) / kh).collect();
        out.extend(multi_select_segs(&ctx, high.segments(), &ranks, opts)?);
    }
    Ok(out)
}

/// Split `input` into (`count` smallest records, the rest, the maximum
/// record of the low side) in `O(N/B)` I/Os via
/// [`emselect::split_at_rank`] (adoption-based: roughly one sampling pass
/// plus one distribution pass). Exact under duplicate keys.
pub(crate) fn split_lowest<T: Record>(
    input: &EmFile<T>,
    count: u64,
) -> Result<(Partition<T>, Partition<T>, T)> {
    split_at_rank(input, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_splitters;
    use emcore::{EmConfig, EmContext};

    fn strict_ctx() -> EmContext {
        EmContext::new_in_memory_strict(EmConfig::tiny())
    }

    fn shuffled(n: u64, seed: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n).collect();
        let mut s = seed;
        for i in (1..v.len()).rev() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            v.swap(i, j);
        }
        v
    }

    fn check(n: u64, k: u64, a: u64, b: u64, seed: u64) {
        let c = strict_ctx();
        let spec = ProblemSpec::new(n, k, a, b).unwrap();
        let f = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(n, seed)))
            .unwrap();
        let sp = approx_splitters(&f, &spec).unwrap();
        assert_eq!(sp.len(), (k - 1) as usize);
        let report = verify_splitters(&f, &sp, &spec).unwrap();
        assert!(report.ok, "sizes {:?} violate {spec}", report.sizes);
    }

    #[test]
    fn right_grounded_small_a() {
        check(5000, 8, 2, 5000, 1);
        check(5000, 8, 100, 5000, 2);
    }

    #[test]
    fn right_grounded_max_a() {
        check(4000, 8, 500, 4000, 3); // a = N/K
    }

    #[test]
    fn right_grounded_a_zero() {
        check(3000, 5, 0, 3000, 4);
    }

    #[test]
    fn left_grounded_various_b() {
        check(4000, 8, 0, 500, 5); // b = N/K
        check(4000, 8, 0, 1000, 6);
        check(4000, 8, 0, 2000, 7); // b = N/2: K' = 2, heavy padding
    }

    #[test]
    fn left_grounded_padding_needed() {
        // K = 16 but ⌈N/b⌉ = 4: 12 padded splitters
        check(4000, 16, 0, 1000, 8);
    }

    #[test]
    fn two_sided_easy_quantile() {
        check(4000, 8, 400, 700, 9); // a ≥ N/2K
        check(4000, 8, 1, 600, 10); // b ≤ 2N/K
    }

    #[test]
    fn two_sided_hard_case() {
        check(4000, 8, 2, 3000, 11);
        check(4000, 8, 10, 2500, 12);
        check(8000, 16, 3, 3900, 13);
    }

    #[test]
    fn k_equals_one_no_splitters() {
        let c = strict_ctx();
        let spec = ProblemSpec::new(100, 1, 0, 100).unwrap();
        let f = EmFile::from_slice(&c, &shuffled(100, 14)).unwrap();
        assert!(approx_splitters(&f, &spec).unwrap().is_empty());
    }

    #[test]
    fn wrong_input_length_rejected() {
        let c = strict_ctx();
        let spec = ProblemSpec::new(100, 4, 0, 100).unwrap();
        let f = EmFile::from_slice(&c, &shuffled(50, 15)).unwrap();
        assert!(approx_splitters(&f, &spec).is_err());
    }

    #[test]
    fn right_grounded_is_sublinear() {
        // The headline phenomenon of Theorem 1/5: for small a the cost is
        // far below a full scan of N.
        let c = EmContext::new_in_memory(EmConfig::medium()); // B = 64
        let n = 500_000u64;
        let f = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(n, 16)))
            .unwrap();
        let spec = ProblemSpec::new(n, 16, 4, n).unwrap();
        let before = c.stats().snapshot();
        let sp = approx_splitters(&f, &spec).unwrap();
        let ios = c.stats().snapshot().since(&before).total_ios();
        let full_scan = n.div_ceil(64);
        assert!(
            ios < full_scan / 10,
            "right-grounded splitters took {ios} I/Os; full scan is {full_scan}"
        );
        let report = c
            .stats()
            .paused(|| verify_splitters(&f, &sp, &spec))
            .unwrap();
        assert!(report.ok, "sizes {:?}", report.sizes);
    }

    #[test]
    fn split_lowest_exact_with_duplicates() {
        let c = strict_ctx();
        let data: Vec<u64> = vec![5, 5, 5, 5, 1, 9, 5, 5];
        let f = EmFile::from_slice(&c, &data).unwrap();
        let (low, high, boundary) = split_lowest(&f, 4).unwrap();
        assert_eq!(low.len(), 4);
        assert_eq!(high.len(), 4);
        assert_eq!(boundary, 5);
        let lv = low.to_vec().unwrap();
        assert!(lv.iter().all(|&x| x <= 5));
        assert!(lv.contains(&1));
    }

    #[test]
    fn two_sided_with_duplicate_keys_indexed() {
        // Heavy duplicates break value-distinct splitters; Indexed fixes it.
        use emcore::Indexed;
        let c = strict_ctx();
        let n = 3000u64;
        let data: Vec<Indexed<u64>> = (0..n).map(|i| Indexed::new(i % 10, i)).collect();
        let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let spec = ProblemSpec::new(n, 6, 2, 2500).unwrap();
        let sp = approx_splitters(&f, &spec).unwrap();
        let report = verify_splitters(&f, &sp, &spec).unwrap();
        assert!(report.ok, "sizes {:?}", report.sizes);
    }
}
