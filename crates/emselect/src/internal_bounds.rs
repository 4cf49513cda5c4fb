//! Internal-memory multi-selection and multi-partition with comparison
//! counting.
//!
//! The paper's §1.2–1.3 contrast the external-memory situation with RAM:
//! in internal memory, multi-selection and multi-partition have *exactly*
//! the same complexity — both demand `Θ(N lg K)` comparisons (multi-select
//! lower bound by Kaligosi–Mehlhorn–Munro–Sanders [7]; multi-partition by
//! the information-theoretic argument of the paper's Lemma 5) — whereas in
//! EM they separate. This module makes that contrast measurable: exact
//! comparison counts for both problems, used by experiment EX-IM.

use std::cell::Cell;

use crate::internal::partition_at_ranks_by;

/// A comparison counter threaded through the algorithms below.
#[derive(Debug, Default)]
pub struct CmpCounter {
    count: Cell<u64>,
}

impl CmpCounter {
    /// Fresh counter.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn cmp<K: Ord>(&self, a: &K, b: &K) -> std::cmp::Ordering {
        self.count.set(self.count.get() + 1);
        a.cmp(b)
    }

    /// Comparisons recorded so far.
    pub fn count(&self) -> u64 {
        self.count.get()
    }
}

/// In-RAM multi-selection by recursive halving around the middle target
/// rank (`ranks` ascending, 1-based, within `[1, data.len()]`), counting
/// every key comparison. Returns the selected values.
///
/// `O(N lg K)` comparisons — optimal by \[7\].
pub fn multi_select_counting<K: Ord + Copy>(
    data: &mut [K],
    ranks: &[u64],
    cmp: &CmpCounter,
) -> Vec<K> {
    multi_partition_counting(data, ranks, cmp);
    ranks.iter().map(|&r| data[(r - 1) as usize]).collect()
}

/// In-RAM multi-partition by recursive halving: rearranges `data` so that
/// the element ranges split exactly at the given ascending interior
/// `ranks`, counting every key comparison. (The classical lower bound —
/// paper Lemma 5's internal-memory analogue — is `Ω(N lg K)`, matched
/// here.) The same kernel as the base cases' `partition_at_ranks`.
pub fn multi_partition_counting<K: Ord + Copy>(data: &mut [K], ranks: &[u64], cmp: &CmpCounter) {
    partition_at_ranks_by(data, ranks, &mut |a: &K, b: &K| cmp.cmp(a, b));
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn counting_select_correct() {
        let mut data = shuffled(1000, 1);
        let cmp = CmpCounter::new();
        let ranks = vec![1, 250, 500, 1000];
        let got = multi_select_counting(&mut data, &ranks, &cmp);
        assert_eq!(got, vec![0, 249, 499, 999]);
        assert!(cmp.count() > 0);
    }

    #[test]
    fn counting_partition_correct() {
        let mut data = shuffled(1000, 2);
        let cmp = CmpCounter::new();
        multi_partition_counting(&mut data, &[250, 500, 750], &cmp);
        for (i, chunk) in data.chunks(250).enumerate() {
            let lo = (i as u64) * 250;
            assert!(chunk.iter().all(|&x| x >= lo && x < lo + 250));
        }
    }

    #[test]
    fn comparisons_scale_with_n_lg_k() {
        // Both problems: comparisons / (N·lg K) stays bounded as K grows.
        let n = 50_000u64;
        for k in [2u64, 8, 64, 512] {
            let ranks: Vec<u64> = (1..=k).map(|i| (i * n) / k).collect();
            let interior: Vec<u64> = ranks[..(k - 1) as usize].to_vec();

            let mut d1 = shuffled(n, 3);
            let c1 = CmpCounter::new();
            let _ = multi_select_counting(&mut d1, &ranks, &c1);

            let mut d2 = shuffled(n, 3);
            let c2 = CmpCounter::new();
            multi_partition_counting(&mut d2, &interior, &c2);

            let denom = n as f64 * (k as f64).log2().max(1.0);
            let r1 = c1.count() as f64 / denom;
            let r2 = c2.count() as f64 / denom;
            assert!(r1 < 6.0, "select K={k}: ratio {r1}");
            assert!(r2 < 6.0, "partition K={k}: ratio {r2}");
            // And the two track each other within a small constant — the
            // paper's "exactly the same complexity" remark.
            let rel = r1 / r2;
            assert!(
                (0.2..=5.0).contains(&rel),
                "K={k}: select/partition comparison ratio {rel}"
            );
        }
    }

    #[test]
    fn counter_counts() {
        let c = CmpCounter::new();
        assert_eq!(c.cmp(&1, &2), std::cmp::Ordering::Less);
        assert_eq!(c.cmp(&2, &2), std::cmp::Ordering::Equal);
        assert_eq!(c.count(), 2);
    }
}
