//! Approximate K-partitioning (paper §5.2, Theorem 6).
//!
//! Physically divide `S` into `K` ordered partitions with sizes in
//! `[a, b]`, output as a list of files in order (the paper's linked list).
//!
//! * **Right-grounded** (`b ≥ N`): take the `a(K−1)` smallest elements,
//!   multi-partition them into `K − 1` parts of exactly `a`; the rest is
//!   `P_K` — `O(N/B + (aK/B)·lg_{M/B} min{K, aK/B})` I/Os.
//! * **Left-grounded** (`a = 0`): multi-partition into `⌈N/b⌉` parts of
//!   size `b` (last partial), pad with empty partitions —
//!   `O((N/B)·lg_{M/B} min{N/b, N/B})` I/Os.
//! * **Two-sided**: in the easy case (`a ≥ N/2K` or `b ≤ 2N/K`, or
//!   `K' ∉ (0, K)`) any sizes in `[a, b]` will do, so
//!   [`multi_partition_within`] chooses them after its first distribution
//!   level, mostly at bucket ends, and reads again only the buckets a cut
//!   falls inside. Without slack (`b − a ≤ 1`) or in memory it keeps the
//!   exact quantile cuts. Otherwise it mirrors the two-sided splitters
//!   algorithm with multi-selection replaced by multi-partition, at the
//!   fixed sizes `[a × K'] ++ near-even`.

use emcore::{EmFile, Record, Result};
use emselect::{
    multi_partition_segs, multi_partition_with, multi_partition_within, MpOptions, Partition,
};

use crate::spec::{Groundedness, ProblemSpec};
use crate::splitters::{check_input, split_lowest};

/// Options threaded through to the partitioning machinery.
pub type PartitionOptions = MpOptions;

/// The result of approximate K-partitioning: `K` ordered partitions,
/// each a segment list ([`Partition`]) — the paper's linked-list output.
pub type Partitioning<T> = Vec<Partition<T>>;

/// `k` sizes of `⌊n/k⌋` or `⌈n/k⌉`, via the quantile-rank differences.
fn near_even(n: u64, k: u64) -> Vec<u64> {
    let mut sizes = Vec::with_capacity(k as usize);
    let mut prev = 0u64;
    for i in 1..=k {
        let r = (i * n) / k;
        sizes.push(r - prev);
        prev = r;
    }
    sizes
}

/// The fixed partition sizes for `spec`: what the recoverable path
/// ([`crate::recover`]) realises with its binary split tree, and what
/// [`approx_partitioning_with`] realises for every spec except a two-sided
/// one that [`multi_partition_within`] serves with `b − a ≥ 2` on an input
/// larger than memory. There these near-even sizes are the fallback its
/// cut choice is measured against. Every size is in `[a, b]` (zeros only
/// when `a = 0`); `sizes_match_target_sizes` in this module's tests pins
/// which specs keep them.
pub(crate) fn target_sizes(spec: &ProblemSpec) -> Vec<u64> {
    match spec.groundedness() {
        Groundedness::RightGrounded => {
            let mut sizes = vec![spec.a; (spec.k - 1) as usize];
            sizes.push(spec.n - spec.a * (spec.k - 1));
            sizes
        }
        Groundedness::LeftGrounded => {
            let kp = spec.n.div_ceil(spec.b).max(1);
            let mut sizes = vec![spec.b; kp as usize];
            *sizes.last_mut().expect("kp ≥ 1") = spec.n - (kp - 1) * spec.b;
            sizes.resize(spec.k as usize, 0);
            sizes
        }
        Groundedness::TwoSided => {
            let k = spec.k;
            if spec.quantile_suffices() {
                return near_even(spec.n, k);
            }
            let kp = spec.k_prime();
            if kp == 0 || kp >= k {
                near_even(spec.n, k)
            } else {
                let mut sizes = vec![spec.a; kp as usize];
                sizes.extend(near_even(spec.n - spec.a * kp, k - kp));
                sizes
            }
        }
    }
}

/// Approximate K-partitioning of `input` under `spec`. Dispatches on the
/// spec's groundedness. Multi-partition samples its splitters as
/// [`PartitionOptions::default`] does, from stratified blocks; pass
/// [`emselect::SplitterStrategy::Deterministic`] to
/// [`approx_partitioning_with`] for the paper's deterministic sampler.
pub fn approx_partitioning<T: Record>(
    input: &EmFile<T>,
    spec: &ProblemSpec,
) -> Result<Partitioning<T>> {
    approx_partitioning_with(input, spec, PartitionOptions::default())
}

/// [`approx_partitioning`] with explicit options.
pub fn approx_partitioning_with<T: Record>(
    input: &EmFile<T>,
    spec: &ProblemSpec,
    opts: PartitionOptions,
) -> Result<Partitioning<T>> {
    check_input(input, spec)?;
    let stats = input.ctx().stats().clone();
    let phase = stats.phase_guard("approx-partitioning");
    let r = match spec.groundedness() {
        Groundedness::RightGrounded => right_grounded(input, spec, opts),
        Groundedness::LeftGrounded => left_grounded(input, spec, opts),
        Groundedness::TwoSided => two_sided(input, spec, opts),
    };
    drop(phase);
    let parts = r?;
    debug_assert_eq!(parts.len(), spec.k as usize);
    Ok(parts)
}

/// Right-grounded: `b ≥ N`. One multi-partition call with sizes
/// `[a, …, a, N − a(K−1)]`.
///
/// The paper phrases this as "take the `a(K−1)` smallest elements, then
/// multi-partition them"; with the pruned recursion + segment adoption of
/// [`multi_partition_with`] the direct call has exactly that cost profile:
/// buckets beyond rank `a(K−1)` contain no boundary and are adopted in
/// `O(1)`, so the work concentrates on the `aK`-prefix —
/// `O(N/B + (aK/B)·lg_{M/B} min{K, aK/B})`.
fn right_grounded<T: Record>(
    input: &EmFile<T>,
    spec: &ProblemSpec,
    opts: PartitionOptions,
) -> Result<Partitioning<T>> {
    let k = spec.k;
    let mut sizes = vec![spec.a; (k - 1) as usize];
    sizes.push(spec.n - spec.a * (k - 1));
    multi_partition_with(input, &sizes, opts)
}

/// Left-grounded: `a = 0`.
fn left_grounded<T: Record>(
    input: &EmFile<T>,
    spec: &ProblemSpec,
    opts: PartitionOptions,
) -> Result<Partitioning<T>> {
    let n = spec.n;
    let b = spec.b;
    let kp = n.div_ceil(b).max(1);
    let mut sizes = vec![b; kp as usize];
    *sizes.last_mut().expect("kp ≥ 1") = n - (kp - 1) * b;
    let mut parts = multi_partition_with(input, &sizes, opts)?;
    while parts.len() < spec.k as usize {
        parts.push(Partition::empty());
    }
    Ok(parts)
}

/// Two-sided: `0 < a ≤ N/K ≤ b < N`.
fn two_sided<T: Record>(
    input: &EmFile<T>,
    spec: &ProblemSpec,
    opts: PartitionOptions,
) -> Result<Partitioning<T>> {
    // Any sizes in [a, b] will do: choose them where the first level
    // already cut the input.
    let within = || {
        let segs = std::slice::from_ref(input);
        multi_partition_within(input.ctx(), segs, spec.k, spec.a, spec.b, opts)
    };
    if spec.quantile_suffices() {
        return within();
    }
    let k = spec.k;
    let kp = spec.k_prime();
    if kp == 0 || kp >= k {
        return within();
    }
    // One combined multi-partition with sizes [a × K'] ++
    // near_even(N − aK', K − K') realises the same output as the paper's
    // S_low/S_high split without the extra rank-selection and routing
    // scans. The explicit split is kept only where it wins: many
    // partitions (K beyond a couple of distribution levels) *and* a
    // genuinely small low side (aK ≪ N), which is when the
    // (aK/B)·lg min{K, aK/B} term beats re-scanning everything.
    // Read the live budget: under a squeeze the two-sided cutoff shifts
    // toward the explicit-split path, bounding the recursion frontier.
    let f = emselect::max_distribution_fanout_now::<T>(input.ctx());
    if (k as usize) <= 2 * f || spec.a * k * 8 > spec.n {
        let kh = k - kp;
        let mut sizes = vec![spec.a; kp as usize];
        sizes.extend(near_even(spec.n - spec.a * kp, kh));
        return multi_partition_with(input, &sizes, opts);
    }
    let (low, high, _) = split_lowest(input, spec.a * kp)?;
    let kh = k - kp;
    let high_n = high.len();
    debug_assert!(high_n >= spec.a * kh && high_n <= spec.b * kh);
    let ctx = input.ctx().clone();
    let mut parts = multi_partition_segs(&ctx, low.segments(), &vec![spec.a; kp as usize], opts)?;
    parts.extend(multi_partition_segs(
        &ctx,
        high.segments(),
        &near_even(high_n, kh),
        opts,
    )?);
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_partitioning;
    use emcore::{EmConfig, EmContext, SplitMix64};
    use workloads::{generate, Workload};

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
        let data = shuffled(n, seed);
        let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let parts = approx_partitioning(&f, &spec).unwrap();
        let report = c
            .stats()
            .paused(|| verify_partitioning(&parts, &spec))
            .unwrap();
        assert!(report.ok, "{spec}: {:?}", report);
        // multiset preservation
        let mut all: Vec<u64> = Vec::new();
        for p in &parts {
            all.extend(c.stats().paused(|| p.to_vec()).unwrap());
        }
        all.sort_unstable();
        let mut want = data;
        want.sort_unstable();
        assert_eq!(all, want);
    }

    #[test]
    fn right_grounded_cases() {
        check(4000, 8, 10, 4000, 21);
        check(4000, 8, 500, 4000, 22); // aK = N: exact partitioning
        check(4000, 8, 0, 4000, 23); // empty front partitions
    }

    #[test]
    fn left_grounded_cases() {
        check(4000, 8, 0, 500, 24); // b = N/K
        check(4000, 8, 0, 900, 25);
        check(4000, 8, 0, 4000, 26); // b = N → single real partition + empties... (right-grounded wins dispatch? a=0 → left)
    }

    #[test]
    fn two_sided_cases() {
        check(4000, 8, 450, 600, 27); // quantile easy case
        check(4000, 8, 2, 3000, 28); // hard case
        check(4000, 8, 10, 2500, 29);
        check(8000, 16, 3, 3900, 30);
    }

    #[test]
    fn exact_balanced_spec() {
        check(4096, 16, 256, 256, 31); // a = b = N/K
    }

    #[test]
    fn k_one_whole_input() {
        let c = strict_ctx();
        let spec = ProblemSpec::new(100, 1, 0, 100).unwrap();
        let f = EmFile::from_slice(&c, &shuffled(100, 32)).unwrap();
        let parts = approx_partitioning(&f, &spec).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].len(), 100);
    }

    #[test]
    fn sizes_match_target_sizes() {
        // target_sizes is what the recoverable path realises. The dispatch
        // realises exactly these too, except where they are near-even for a
        // two-sided spec with b − a ≥ 2 on an input larger than memory:
        // there the sizes are chosen after the first level and need only
        // lie in [a, b].
        for &(n, k, a, b, seed, fixed) in &[
            (4000, 8, 10, 4000, 41, true),  // right-grounded
            (4000, 8, 0, 900, 42, true),    // left-grounded (with empty padding)
            (4000, 8, 450, 600, 43, false), // two-sided, quantile easy
            (4000, 8, 2, 3000, 44, true),   // two-sided, hard
            (8000, 16, 3, 3900, 45, true),  // two-sided, split-lowest regime
            (4096, 16, 256, 256, 46, true), // exact
            (4001, 8, 500, 501, 48, true),  // near_even(4001, 8), b − a = 1
            (100, 1, 0, 100, 47, true),     // K = 1
        ] {
            let c = strict_ctx();
            let spec = ProblemSpec::new(n, k, a, b).unwrap();
            let f = c
                .stats()
                .paused(|| EmFile::from_slice(&c, &shuffled(n, seed)))
                .unwrap();
            let parts = approx_partitioning(&f, &spec).unwrap();
            let got: Vec<u64> = parts.iter().map(|p| p.len()).collect();
            if fixed {
                assert_eq!(got, target_sizes(&spec), "{spec}");
            } else {
                assert_eq!(got.len() as u64, k, "{spec}");
                assert_eq!(got.iter().sum::<u64>(), n, "{spec}");
                assert!(got.iter().all(|s| (a..=b).contains(s)), "{spec}: {got:?}");
            }
        }
        assert_eq!(
            ProblemSpec::near_even(4001, 8).unwrap(),
            ProblemSpec::new(4001, 8, 500, 501).unwrap()
        );
    }

    #[test]
    fn slack_cuts_verify_repeat_and_cost_no_more_than_fixed_sizes() {
        // Random geometries and quantile-sufficient specs with b − a ≥ 2:
        // the sizes chosen after the first level verify, keep the
        // multiset, stay within M, repeat on a second run, and never cost
        // more than partitioning at the fixed near-even sizes.
        let mut rng = SplitMix64::new(0x51AC);
        for draw in 0..24u64 {
            let n = 2_000 + rng.below(58_001);
            let block = 4 + rng.below(61) as usize;
            let m = block * (16 + rng.below(49) as usize);
            let cfg = EmConfig::new(m, block).unwrap();
            let probe = EmContext::new_in_memory_strict(cfg);
            let f = emselect::max_distribution_fanout_now::<u64>(&probe)
                .min(emselect::max_deterministic_fanout_n::<u64>(&probe, n))
                .max(2) as u64;
            let k = 2 + rng.below(3 * f - 1);
            let (a, b) = if rng.below(2) == 0 {
                // a ≥ N/2K: b free above ⌈N/K⌉.
                let lo = n.div_ceil(2 * k);
                let a = lo + rng.below(n / k - lo + 1);
                let b = n.div_ceil(k).max(a + 2) + rng.below(4 * n / k);
                (a, b.min(n - 1))
            } else {
                // b ≤ 2N/K (and below N when K = 2): a free below ⌊N/K⌋.
                let b = (n.div_ceil(k) + rng.below(2 * n / k - n.div_ceil(k) + 1)).min(n - 1);
                (1 + rng.below((n / k).min(b - 2)), b)
            };
            let spec = ProblemSpec::new(n, k, a, b).unwrap();
            assert!(spec.quantile_suffices() && b - a >= 2, "{spec}");
            assert_eq!(spec.groundedness(), Groundedness::TwoSided, "{spec}");
            let keys = if draw % 2 == 0 {
                Workload::UniformPerm
            } else {
                Workload::FewDistinct {
                    values: 2 + rng.below(64),
                }
            };
            let data = generate(keys, n, draw);
            let opts = if draw % 4 < 2 {
                PartitionOptions::default()
            } else {
                PartitionOptions {
                    strategy: emselect::SplitterStrategy::Deterministic,
                    fanout_override: None,
                }
            };
            let what = format!("draw {draw} (M={m}, B={block}, {spec}, {keys:?})");
            // Partition a fresh copy of the input; returns sizes and I/Os.
            let run = |fixed: bool| -> (Vec<u64>, u64) {
                let c = EmContext::new_in_memory_strict(cfg);
                let file = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
                let before = c.stats().snapshot();
                let parts = if fixed {
                    multi_partition_with(&file, &target_sizes(&spec), opts)
                } else {
                    approx_partitioning_with(&file, &spec, opts)
                }
                .unwrap_or_else(|e| panic!("{what}: {e}"));
                let ios = c.stats().snapshot().since(&before).total_ios();
                assert!(c.mem().peak() <= m, "{what}: peak {}", c.mem().peak());
                let report = c
                    .stats()
                    .paused(|| verify_partitioning(&parts, &spec))
                    .unwrap();
                assert!(report.ok, "{what}: {report:?}");
                let mut all = Vec::new();
                for p in &parts {
                    all.extend(c.stats().paused(|| p.to_vec()).unwrap());
                }
                all.sort_unstable();
                let mut want = data.clone();
                want.sort_unstable();
                assert!(all == want, "{what}: multiset");
                (report.sizes, ios)
            };
            let (sizes, ios) = run(false);
            assert_eq!(run(false).0, sizes, "{what}: second run");
            let (_, fixed_ios) = run(true);
            assert!(
                ios <= fixed_ios,
                "{what}: {ios} I/Os, {fixed_ios} at the fixed sizes"
            );
        }
    }

    #[test]
    fn right_grounded_cost_scales_with_ak_not_n() {
        // For small aK, only the split scan is linear; the partitioning of
        // S' is tiny. Compare against full sort-level work.
        let c = EmContext::new_in_memory(EmConfig::medium());
        let n = 200_000u64;
        let f = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(n, 33)))
            .unwrap();
        let spec = ProblemSpec::new(n, 8, 16, n).unwrap();
        let before = c.stats().snapshot();
        let parts = approx_partitioning(&f, &spec).unwrap();
        let ios = c.stats().snapshot().since(&before).total_ios();
        let scan = n.div_ceil(64);
        assert!(
            ios <= 10 * scan,
            "right-grounded partitioning took {ios} I/Os = {:.1} scans",
            ios as f64 / scan as f64
        );
        let report = c
            .stats()
            .paused(|| verify_partitioning(&parts, &spec))
            .unwrap();
        assert!(report.ok);
    }
}
