//! The paper's motivating applications (§1), packaged as APIs.
//!
//! * [`equi_depth_histogram`] — "the bucket boundaries of an equi-depth
//!   histogram of K buckets correspond to the output of the approximate
//!   K-splitters problem"; relaxing the depth makes it cheaper, sometimes
//!   sublinear.
//! * [`balanced_loads`] — "distributing S onto a number K of machines for
//!   parallel processing"; a roughly balanced distribution is cheaper than
//!   a perfectly balanced one.

use emcore::{EmError, EmFile, Record, Result};

use crate::partitioning::{approx_partitioning, Partitioning};
use crate::spec::ProblemSpec;
use crate::splitters::approx_splitters;

/// A (nearly) equi-depth histogram: `buckets[i]` covers keys in
/// `(boundaries[i-1], boundaries[i]]` and holds `counts[i]` records, with
/// every count in `[a, b]`.
#[derive(Debug, Clone)]
pub struct EquiDepthHistogram<K> {
    /// Upper key boundary of each bucket except the last (`K − 1` values).
    pub boundaries: Vec<K>,
    /// Records per bucket (`K` values).
    pub counts: Vec<u64>,
}

/// Build a nearly equi-depth histogram with `k` buckets whose depths may
/// deviate from `n/k` by the factor `slack ≥ 0`: depths are constrained to
/// `[⌊(n/k)/(1+slack)⌋, ⌈(n/k)·(1+slack)⌉]`. `slack = 0` is the exact
/// equi-depth histogram (the `1/K`-quantile); larger slack is cheaper.
///
/// The returned counts come from one verification scan (charged).
pub fn equi_depth_histogram<T: Record>(
    input: &EmFile<T>,
    k: u64,
    slack: f64,
) -> Result<EquiDepthHistogram<T::Key>> {
    if !(0.0..=1e6).contains(&slack) {
        return Err(EmError::config("slack must be a nonnegative factor"));
    }
    let n = input.len();
    let target = n as f64 / k as f64;
    let a = (target / (1.0 + slack)).floor() as u64;
    let b = ((target * (1.0 + slack)).ceil() as u64).min(n).max(1);
    let spec = ProblemSpec::new(n, k, a.min(n / k), b.max(n.div_ceil(k)))?;
    let splitters = approx_splitters(input, &spec)?;
    // Count bucket depths with one scan.
    let mut counts = vec![0u64; k as usize];
    let mut r = input.reader()?;
    while let Some(x) = r.next()? {
        let j = splitters.partition_point(|s| s.key() < x.key());
        counts[j] += 1;
    }
    Ok(EquiDepthHistogram {
        boundaries: splitters.iter().map(|s| s.key()).collect(),
        counts,
    })
}

/// Distribute `input` onto `k` "machines" such that machine loads stay
/// within `[⌊(n/k)/(1+slack)⌋, ⌈(n/k)·(1+slack)⌉]` records, preserving
/// order between machines (machine `i` holds smaller keys than machine
/// `i+1`). `slack = 0` is a perfectly balanced distribution.
pub fn balanced_loads<T: Record>(input: &EmFile<T>, k: u64, slack: f64) -> Result<Partitioning<T>> {
    let n = input.len();
    let target = n as f64 / k as f64;
    let a = ((target / (1.0 + slack)).floor() as u64).min(n / k);
    let b = (((target * (1.0 + slack)).ceil() as u64).max(n.div_ceil(k))).min(n);
    let spec = ProblemSpec::new(n, k, a, b)?;
    approx_partitioning(input, &spec)
}

/// The `k` largest records of `input` as a [`emselect::Partition`] (unordered
/// within), in `O(N/B)` I/Os via one exact rank split.
pub fn top_k<T: Record>(input: &EmFile<T>, k: u64) -> Result<emselect::Partition<T>> {
    let n = input.len();
    if k > n {
        return Err(EmError::config(format!("top-{k} of only {n} records")));
    }
    if k == 0 {
        return Ok(emselect::Partition::empty());
    }
    if k == n {
        let ctx = input.ctx().clone();
        let mut w = ctx.writer::<T>()?;
        emselect::stream_into(input, |x| w.push(x))?;
        return Ok(emselect::Partition::from_file(w.finish()?));
    }
    let (_low, high, _) = emselect::split_at_rank(input, n - k)?;
    Ok(high)
}

/// The `k` smallest records of `input` as a [`emselect::Partition`], in `O(N/B)`.
pub fn bottom_k<T: Record>(input: &EmFile<T>, k: u64) -> Result<emselect::Partition<T>> {
    let n = input.len();
    if k > n {
        return Err(EmError::config(format!("bottom-{k} of only {n} records")));
    }
    if k == 0 {
        return Ok(emselect::Partition::empty());
    }
    if k == n {
        let ctx = input.ctx().clone();
        let mut w = ctx.writer::<T>()?;
        emselect::stream_into(input, |x| w.push(x))?;
        return Ok(emselect::Partition::from_file(w.finish()?));
    }
    let (low, _high, _) = emselect::split_at_rank(input, k)?;
    Ok(low)
}

/// The median record (lower median for even `N`) in `O(N/B)` I/Os.
pub fn median<T: Record>(input: &EmFile<T>) -> Result<T> {
    let n = input.len();
    if n == 0 {
        return Err(EmError::config("median of an empty file"));
    }
    emselect::select_rank(input, n.div_ceil(2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use emcore::{EmConfig, EmContext};

    fn ctx() -> EmContext {
        EmContext::new_in_memory(EmConfig::tiny())
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

    #[test]
    fn histogram_exact_depth() {
        let c = ctx();
        let f = EmFile::from_slice(&c, &shuffled(1000, 60)).unwrap();
        let h = equi_depth_histogram(&f, 4, 0.0).unwrap();
        assert_eq!(h.counts, vec![250, 250, 250, 250]);
        assert_eq!(h.boundaries.len(), 3);
        assert!(h.boundaries.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn histogram_with_slack_within_bounds() {
        let c = ctx();
        let n = 2000u64;
        let f = EmFile::from_slice(&c, &shuffled(n, 61)).unwrap();
        let h = equi_depth_histogram(&f, 8, 0.5).unwrap();
        assert_eq!(h.counts.iter().sum::<u64>(), n);
        let lo = (250.0_f64 / 1.5).floor() as u64;
        let hi = (250.0_f64 * 1.5).ceil() as u64;
        for &cnt in &h.counts {
            assert!(cnt >= lo && cnt <= hi, "depth {cnt} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn balanced_loads_zero_slack_is_exact() {
        let c = ctx();
        let n = 1200u64;
        let f = EmFile::from_slice(&c, &shuffled(n, 62)).unwrap();
        let loads = balanced_loads(&f, 6, 0.0).unwrap();
        assert_eq!(loads.len(), 6);
        for l in &loads {
            assert_eq!(l.len(), 200);
        }
    }

    #[test]
    fn top_and_bottom_k() {
        let c = ctx();
        let n = 2000u64;
        let f = EmFile::from_slice(&c, &shuffled(n, 64)).unwrap();
        let top = top_k(&f, 10).unwrap();
        let mut tv = top.to_vec().unwrap();
        tv.sort_unstable();
        assert_eq!(tv, (1990..2000).collect::<Vec<u64>>());
        let bot = bottom_k(&f, 3).unwrap();
        let mut bv = bot.to_vec().unwrap();
        bv.sort_unstable();
        assert_eq!(bv, vec![0, 1, 2]);
        assert!(top_k(&f, 0).unwrap().is_empty());
        assert_eq!(top_k(&f, n).unwrap().len(), n);
        assert!(top_k(&f, n + 1).is_err());
    }

    #[test]
    fn median_selects_middle() {
        let c = ctx();
        let f = EmFile::from_slice(&c, &shuffled(1001, 65)).unwrap();
        assert_eq!(median(&f).unwrap(), 500);
        let g = EmFile::from_slice(&c, &shuffled(1000, 66)).unwrap();
        assert_eq!(median(&g).unwrap(), 499); // lower median
        let e = c.create_file::<u64>().unwrap();
        assert!(median(&e).is_err());
    }

    #[test]
    fn top_k_is_linear_io() {
        let c = EmContext::new_in_memory(EmConfig::medium());
        let n = 200_000u64;
        let data = shuffled(n, 67);
        let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let before = c.stats().snapshot();
        let top = top_k(&f, 100).unwrap();
        let ios = c.stats().snapshot().since(&before).total_ios();
        assert_eq!(top.len(), 100);
        let scan = n.div_ceil(64);
        assert!(ios <= 5 * scan, "top-k took {ios} I/Os");
    }

    #[test]
    fn balanced_loads_slack_reduces_io() {
        let n = 60_000u64;
        let run = |slack: f64| -> u64 {
            let c = EmContext::new_in_memory(EmConfig::medium());
            let f = c
                .stats()
                .paused(|| EmFile::from_slice(&c, &shuffled(n, 63)))
                .unwrap();
            let before = c.stats().snapshot();
            let loads = balanced_loads(&f, 16, slack).unwrap();
            assert_eq!(loads.iter().map(|l| l.len()).sum::<u64>(), n);
            c.stats().snapshot().since(&before).total_ios()
        };
        let exact = run(0.0);
        let loose = run(0.9);
        assert!(
            loose <= exact,
            "slack should not cost more: exact {exact}, loose {loose}"
        );
    }
}
