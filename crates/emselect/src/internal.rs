//! In-memory selection primitives.
//!
//! These are the base cases of every external recursion. Once a subproblem
//! fits in memory, CPU work is free in the EM model but not in wall time,
//! so the base cases cut by selection rather than sorting, through one
//! kernel: [`partition_at_ranks`] places every requested rank in place, and
//! [`multi_select_in_mem`] reads its answers off it. `median_of_five` is the
//! subgroup step of the intermixed-selection scan (paper §4.1, after
//! [BFPRT 1973]).

use std::cmp::Ordering;

use emcore::Record;

/// The element with 1-based rank `rank` among `data` (by key), computed
/// in place via introselect. Panics if `rank` is out of `[1, data.len()]`.
pub fn select_rank_in_mem<T: Record>(data: &mut [T], rank: u64) -> T {
    assert!(
        rank >= 1 && rank <= data.len() as u64,
        "rank {rank} out of range [1, {}]",
        data.len()
    );
    let idx = (rank - 1) as usize;
    let (_, kth, _) = data.select_nth_unstable_by(idx, |a, b| a.key().cmp(&b.key()));
    *kth
}

/// The elements at several 1-based `ranks` (sorted ascending; duplicates
/// allowed) among `data`. Rearranges `data` by recursive halving (select
/// the middle rank, recurse into both sides; `O(n·lg k)` comparisons) and
/// reads each answer off its final position.
pub fn multi_select_in_mem<T: Record>(data: &mut [T], ranks: &[u64]) -> Vec<T> {
    partition_at_ranks(data, ranks);
    ranks.iter().map(|&r| data[(r - 1) as usize]).collect()
}

/// Rearrange `data` in place so that for every 1-based rank `r` in
/// `ranks` (sorted ascending; duplicates allowed), `data[r − 1]` holds the
/// record of rank `r` by key, with keys `≤` its key to its left and `≥` to
/// its right. Cutting `data` at those positions therefore gives exactly the
/// multi-partition at `ranks`, without sorting inside the pieces.
///
/// Recursive halving: select the middle rank, then recurse into the two
/// sides. `O(n·lg k)` comparisons. Panics if a rank is outside
/// `[1, data.len()]`.
pub(crate) fn partition_at_ranks<T: Record>(data: &mut [T], ranks: &[u64]) {
    partition_at_ranks_by(data, ranks, &mut |a: &T, b: &T| a.key().cmp(&b.key()));
}

/// [`partition_at_ranks`] under an explicit order `cmp` (the
/// comparison-counting kernels of [`crate::internal_bounds`] pass a
/// counting one).
pub(crate) fn partition_at_ranks_by<T, F>(data: &mut [T], ranks: &[u64], cmp: &mut F)
where
    F: FnMut(&T, &T) -> Ordering,
{
    if let (Some(&lo), Some(&hi)) = (ranks.first(), ranks.last()) {
        assert!(
            lo >= 1 && hi <= data.len() as u64,
            "ranks [{lo}, {hi}] out of range [1, {}]",
            data.len()
        );
    }
    debug_assert!(ranks.windows(2).all(|w| w[0] <= w[1]), "ranks ascending");
    partition_rec(data, ranks, 0, cmp);
}

fn partition_rec<T, F>(data: &mut [T], ranks: &[u64], rank_offset: u64, cmp: &mut F)
where
    F: FnMut(&T, &T) -> Ordering,
{
    if ranks.is_empty() {
        return;
    }
    let mid = ranks.len() / 2;
    let r = ranks[mid];
    let local = (r - rank_offset) as usize; // 1-based within `data`
    let (lo, _, hi) = data.select_nth_unstable_by(local - 1, &mut *cmp);
    // Every rank equal to r is answered by the element just placed.
    let lo_end = ranks[..mid].partition_point(|&x| x < r);
    let hi_start = mid + ranks[mid..].partition_point(|&x| x <= r);
    partition_rec(lo, &ranks[..lo_end], rank_offset, cmp);
    partition_rec(hi, &ranks[hi_start..], rank_offset + local as u64, cmp);
}

/// Median (lower median for even sizes) of at most five records, by key.
/// Panics on an empty slice.
pub fn median_of_five<T: Record>(group: &[T]) -> T {
    assert!(!group.is_empty() && group.len() <= 5);
    let mut tmp: [Option<T>; 5] = [None; 5];
    for (i, r) in group.iter().enumerate() {
        tmp[i] = Some(*r);
    }
    let slice = &mut tmp[..group.len()];
    slice.sort_unstable_by(|a, b| {
        a.as_ref()
            .expect("present")
            .key()
            .cmp(&b.as_ref().expect("present").key())
    });
    slice[(group.len() - 1) / 2].expect("present")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_rank_basics() {
        let mut v: Vec<u64> = vec![5, 1, 4, 2, 3];
        assert_eq!(select_rank_in_mem(&mut v, 1), 1);
        let mut v2 = v.clone();
        assert_eq!(select_rank_in_mem(&mut v2, 3), 3);
        let mut v3 = v.clone();
        assert_eq!(select_rank_in_mem(&mut v3, 5), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn select_rank_zero_panics() {
        let mut v: Vec<u64> = vec![1];
        select_rank_in_mem(&mut v, 0);
    }

    #[test]
    fn select_rank_with_duplicates() {
        let mut v: Vec<u64> = vec![2, 2, 2, 1, 1];
        assert_eq!(select_rank_in_mem(&mut v, 1), 1);
        let mut v2: Vec<u64> = vec![2, 2, 2, 1, 1];
        assert_eq!(select_rank_in_mem(&mut v2, 3), 2);
    }

    #[test]
    fn multi_select_all_ranks() {
        let data: Vec<u64> = vec![9, 3, 7, 1, 5];
        let ranks: Vec<u64> = (1..=5).collect();
        let mut work = data.clone();
        let got = multi_select_in_mem(&mut work, &ranks);
        assert_eq!(got, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn multi_select_sparse_ranks() {
        let data: Vec<u64> = (0..1000).map(|i| (i * 48271) % 10007).collect();
        let ranks = vec![1, 17, 500, 999, 1000];
        let mut work = data.clone();
        let got = multi_select_in_mem(&mut work, &ranks);
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let want: Vec<u64> = ranks.iter().map(|&r| sorted[(r - 1) as usize]).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn multi_select_duplicate_ranks() {
        let mut v: Vec<u64> = vec![4, 2, 1, 3];
        let got = multi_select_in_mem(&mut v, &[2, 2, 2]);
        assert_eq!(got, vec![2, 2, 2]);
    }

    #[test]
    fn multi_select_empty_ranks() {
        let mut v: Vec<u64> = vec![1, 2];
        assert!(multi_select_in_mem(&mut v, &[]).is_empty());
    }

    #[test]
    fn multi_select_matches_sort_randomised() {
        let mut seed = 12345u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        for trial in 0..50 {
            let n = 1 + (next() % 200) as usize;
            let data: Vec<u64> = (0..n).map(|_| next() % 50).collect();
            let k = 1 + (next() % 10) as usize;
            let mut ranks: Vec<u64> = (0..k).map(|_| 1 + next() % n as u64).collect();
            ranks.sort_unstable();
            let mut sorted = data.clone();
            sorted.sort_unstable();
            let want: Vec<u64> = ranks.iter().map(|&r| sorted[(r - 1) as usize]).collect();
            let mut work = data.clone();
            let got = multi_select_in_mem(&mut work, &ranks);
            assert_eq!(got, want, "trial {trial}, n {n}, ranks {ranks:?}");
        }
    }

    /// Check [`partition_at_ranks`] against a sorted oracle: each
    /// `data[r − 1]` is the rank-`r` key, keys to its left are `≤` and to
    /// its right `≥`, and `data` is still a permutation of its input.
    fn check_partition_at_ranks(input: &[u64], ranks: &[u64]) {
        let mut sorted = input.to_vec();
        sorted.sort_unstable();
        let mut data = input.to_vec();
        partition_at_ranks(&mut data, ranks);
        // Running maxima from the left and minima from the right check
        // every prefix and suffix in linear time.
        let n = data.len();
        let mut pre_max = vec![0u64; n + 1];
        let mut suf_min = vec![u64::MAX; n + 1];
        for i in 0..n {
            pre_max[i + 1] = pre_max[i].max(data[i]);
            suf_min[n - 1 - i] = suf_min[n - i].min(data[n - 1 - i]);
        }
        for &r in ranks {
            let i = (r - 1) as usize;
            let k = data[i];
            assert_eq!(k, sorted[i], "rank {r} of {n}");
            assert!(pre_max[i] <= k, "prefix of rank {r}");
            assert!(suf_min[i + 1] >= k, "suffix of rank {r}");
        }
        let mut back = data.clone();
        back.sort_unstable();
        assert_eq!(back, sorted, "multiset");
        let mut work = input.to_vec();
        let want: Vec<u64> = ranks.iter().map(|&r| sorted[(r - 1) as usize]).collect();
        assert_eq!(multi_select_in_mem(&mut work, ranks), want);
    }

    #[test]
    fn partition_at_ranks_matches_sorted_oracle() {
        let mut rng = emcore::SplitMix64::new(0x5EED);
        let mut lens = vec![0usize, 1, 2, 3, 5_000];
        lens.extend((0..40).map(|_| rng.below(5_001) as usize));
        for &n in &lens {
            // Distinct keys, then few distinct keys.
            for distinct in [true, false] {
                let input: Vec<u64> = (0..n)
                    .map(|i| {
                        if distinct {
                            (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        } else {
                            rng.below(4)
                        }
                    })
                    .collect();
                let n = n as u64;
                let mut sets: Vec<Vec<u64>> = vec![Vec::new()];
                if n > 0 {
                    let mut random: Vec<u64> =
                        (0..1 + rng.below(20)).map(|_| 1 + rng.below(n)).collect();
                    random.extend([1, n, 1 + rng.below(n)]);
                    let dup = random[0];
                    random.extend([dup, dup]); // repeated ranks
                    random.sort_unstable();
                    sets.push(random);
                    sets.push(vec![1 + rng.below(n)]); // a single rank
                    sets.push(vec![1]);
                    sets.push(vec![n]);
                    sets.push((1..=n).collect()); // every rank
                }
                for ranks in &sets {
                    check_partition_at_ranks(&input, ranks);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn partition_at_ranks_rejects_rank_zero() {
        partition_at_ranks(&mut [3u64, 1, 2], &[0, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn partition_at_ranks_rejects_rank_past_the_end() {
        partition_at_ranks(&mut [3u64, 1, 2], &[2, 4]);
    }

    #[test]
    fn median_of_five_all_sizes() {
        assert_eq!(median_of_five(&[7u64]), 7);
        assert_eq!(median_of_five(&[2u64, 1]), 1); // upper? (len-1)/2 = 0 → lower median
        assert_eq!(median_of_five(&[3u64, 1, 2]), 2);
        assert_eq!(median_of_five(&[4u64, 1, 3, 2]), 2);
        assert_eq!(median_of_five(&[5u64, 4, 3, 2, 1]), 3);
    }

    #[test]
    #[should_panic]
    fn median_of_empty_panics() {
        median_of_five::<u64>(&[]);
    }
}
