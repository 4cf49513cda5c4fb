//! Problem specifications for approximate K-splitters / K-partitioning.

use emcore::{EmError, Result};

/// Which of the paper's parameter regimes a spec falls in (§1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Groundedness {
    /// `a == 0`: only the upper size bound binds.
    LeftGrounded,
    /// `b >= N`: only the lower size bound binds.
    RightGrounded,
    /// `0 < a` and `b < N`: both bounds bind.
    TwoSided,
}

/// An instance of the approximate K-splitters / K-partitioning problem:
/// divide `n` elements into `k` ordered partitions, every one of size in
/// `[a, b]`.
///
/// Feasibility (enforced at construction): `1 ≤ k ≤ n`, `a ≤ b`, and
/// `a·k ≤ n ≤ b·k` — the integer form of the paper's `a ≤ N/K ≤ b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProblemSpec {
    /// Input size `N`.
    pub n: u64,
    /// Number of partitions `K`.
    pub k: u64,
    /// Minimum partition size `a`.
    pub a: u64,
    /// Maximum partition size `b`.
    pub b: u64,
}

impl ProblemSpec {
    /// Start building a spec for `n` records in `k` partitions. Size
    /// bounds default to the unconstrained `[0, n]`; set them with
    /// [`ProblemSpecBuilder::min_size`] / [`ProblemSpecBuilder::max_size`].
    /// [`ProblemSpecBuilder::build`] applies the same validation as
    /// [`ProblemSpec::new`], with the four parameters named instead of
    /// positional:
    ///
    /// ```
    /// use apsplit::ProblemSpec;
    /// let spec = ProblemSpec::builder(100_000, 16)
    ///     .min_size(4)
    ///     .max_size(100_000)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(spec, ProblemSpec::new(100_000, 16, 4, 100_000).unwrap());
    /// ```
    pub fn builder(n: u64, k: u64) -> ProblemSpecBuilder {
        ProblemSpecBuilder { n, k, a: 0, b: n }
    }

    /// Validate and construct a spec.
    pub fn new(n: u64, k: u64, a: u64, b: u64) -> Result<Self> {
        if k == 0 {
            return Err(EmError::config("K must be at least 1"));
        }
        if k > n {
            return Err(EmError::config(format!("K = {k} exceeds N = {n}")));
        }
        if a > b {
            return Err(EmError::config(format!("a = {a} > b = {b}")));
        }
        if a.checked_mul(k).is_none_or(|ak| ak > n) {
            return Err(EmError::config(format!(
                "infeasible: a·K = {a}·{k} > N = {n}"
            )));
        }
        if b.checked_mul(k).is_some_and(|bk| bk < n) {
            return Err(EmError::config(format!(
                "infeasible: b·K = {b}·{k} < N = {n}"
            )));
        }
        Ok(Self { n, k, a, b })
    }

    /// The tightest always-feasible balanced spec: `a = ⌊N/K⌋`,
    /// `b = ⌈N/K⌉`. For any `1 ≤ k ≤ n` this passes [`ProblemSpec::new`]'s
    /// feasibility check (`⌊n/k⌋·k ≤ n ≤ ⌈n/k⌉·k`) and always satisfies
    /// [`ProblemSpec::quantile_suffices`] (`2·⌊n/k⌋·k ≥ n` whenever
    /// `n ≥ k`), and `b − a ≤ 1` leaves no sizes to choose, so
    /// partitioning resolves to exact `1/K`-quantile cuts — the spec a
    /// shard builder wants: near-even shards with no slack to negotiate.
    pub fn near_even(n: u64, k: u64) -> Result<Self> {
        if k == 0 {
            return Err(EmError::config("K must be at least 1"));
        }
        Self::new(n, k, n / k, n.div_ceil(k))
    }

    /// A perfectly balanced spec: `a = b = N/K` (requires `K | N`).
    pub fn exact(n: u64, k: u64) -> Result<Self> {
        if k == 0 || !n.is_multiple_of(k) {
            return Err(EmError::config(format!(
                "exact spec needs K | N; got N = {n}, K = {k}"
            )));
        }
        Self::new(n, k, n / k, n / k)
    }

    /// Which regime this spec is in.
    pub fn groundedness(&self) -> Groundedness {
        if self.a == 0 {
            Groundedness::LeftGrounded
        } else if self.b >= self.n {
            Groundedness::RightGrounded
        } else {
            Groundedness::TwoSided
        }
    }

    /// The paper's two-sided "easy case" test (§5.1): `a ≥ N/2K` or
    /// `b ≤ 2N/K`, where a plain `1/K`-quantile already satisfies `[a, b]`.
    pub fn quantile_suffices(&self) -> bool {
        2 * self.a * self.k >= self.n || self.b * self.k <= 2 * self.n
    }

    /// The two-sided split point `K' = ⌊(bK − N)/(b − a)⌋` (§5.1).
    /// Only meaningful when `!quantile_suffices()` (which implies a < b).
    pub fn k_prime(&self) -> u64 {
        debug_assert!(self.b > self.a);
        (self.b * self.k - self.n) / (self.b - self.a)
    }

    /// Ranks of the `1/K`-quantile of `n` records: `⌊i·n/k⌋` for
    /// `i = 1..k`, whose consecutive differences are `⌊n/k⌋` or `⌈n/k⌉` —
    /// always within `[a, b]` for a feasible spec.
    pub fn quantile_ranks(&self) -> Vec<u64> {
        (1..self.k).map(|i| (i * self.n) / self.k).collect()
    }
}

/// Named-parameter construction of a [`ProblemSpec`]; see
/// [`ProblemSpec::builder`].
#[derive(Debug, Clone, Copy)]
pub struct ProblemSpecBuilder {
    n: u64,
    k: u64,
    a: u64,
    b: u64,
}

impl ProblemSpecBuilder {
    /// Minimum partition size `a` (default `0`: unconstrained below).
    pub fn min_size(mut self, a: u64) -> Self {
        self.a = a;
        self
    }

    /// Maximum partition size `b` (default `n`: unconstrained above).
    pub fn max_size(mut self, b: u64) -> Self {
        self.b = b;
        self
    }

    /// Validate and construct the spec (same feasibility rules as
    /// [`ProblemSpec::new`]).
    pub fn build(self) -> Result<ProblemSpec> {
        ProblemSpec::new(self.n, self.k, self.a, self.b)
    }
}

impl std::fmt::Display for ProblemSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "N={} K={} [a={}, b={}] ({:?})",
            self.n,
            self.k,
            self.a,
            self.b,
            self.groundedness()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feasible_specs() {
        assert!(ProblemSpec::new(100, 4, 20, 30).is_ok());
        assert!(ProblemSpec::new(100, 4, 25, 25).is_ok());
        assert!(ProblemSpec::new(100, 4, 0, 100).is_ok());
    }

    #[test]
    fn infeasible_specs() {
        assert!(ProblemSpec::new(100, 4, 26, 30).is_err()); // aK > N
        assert!(ProblemSpec::new(100, 4, 10, 24).is_err()); // bK < N
        assert!(ProblemSpec::new(100, 4, 30, 20).is_err()); // a > b
        assert!(ProblemSpec::new(100, 0, 0, 100).is_err());
        assert!(ProblemSpec::new(3, 4, 0, 3).is_err()); // K > N
    }

    #[test]
    fn groundedness_classification() {
        assert_eq!(
            ProblemSpec::new(100, 4, 0, 50).unwrap().groundedness(),
            Groundedness::LeftGrounded
        );
        assert_eq!(
            ProblemSpec::new(100, 4, 5, 100).unwrap().groundedness(),
            Groundedness::RightGrounded
        );
        assert_eq!(
            ProblemSpec::new(100, 4, 5, 50).unwrap().groundedness(),
            Groundedness::TwoSided
        );
        // b > N also counts as right-grounded
        assert_eq!(
            ProblemSpec::new(100, 4, 5, 1000).unwrap().groundedness(),
            Groundedness::RightGrounded
        );
    }

    #[test]
    fn quantile_suffices_cases() {
        // a = 20 ≥ 100/8 = 12.5 → quantile suffices
        assert!(ProblemSpec::new(100, 4, 20, 50)
            .unwrap()
            .quantile_suffices());
        // b = 30 ≤ 2·100/4 = 50 → quantile suffices
        assert!(ProblemSpec::new(100, 4, 1, 30).unwrap().quantile_suffices());
        // a = 1 < 12.5, b = 99 > 50 → hard case
        assert!(!ProblemSpec::new(100, 4, 1, 99).unwrap().quantile_suffices());
    }

    #[test]
    fn k_prime_in_range() {
        let s = ProblemSpec::new(1000, 10, 2, 900).unwrap();
        assert!(!s.quantile_suffices());
        let kp = s.k_prime();
        assert!(kp >= 1 && kp < s.k, "K' = {kp}");
    }

    #[test]
    fn quantile_ranks_diffs_bounded() {
        let s = ProblemSpec::new(103, 4, 25, 26).unwrap();
        let ranks = s.quantile_ranks();
        assert_eq!(ranks.len(), 3);
        let mut prev = 0;
        for &r in ranks.iter().chain(std::iter::once(&103)) {
            let d = r - prev;
            assert!((25..=26).contains(&d), "diff {d}");
            prev = r;
        }
    }

    #[test]
    fn builder_matches_positional_and_defaults_are_unconstrained() {
        assert_eq!(
            ProblemSpec::builder(100, 4)
                .min_size(20)
                .max_size(30)
                .build()
                .unwrap(),
            ProblemSpec::new(100, 4, 20, 30).unwrap()
        );
        // Defaults: a = 0, b = n (left-grounded, always feasible for k ≤ n).
        let s = ProblemSpec::builder(100, 4).build().unwrap();
        assert_eq!(s, ProblemSpec::new(100, 4, 0, 100).unwrap());
        // Validation still applies.
        assert!(ProblemSpec::builder(100, 4).min_size(26).build().is_err());
    }

    #[test]
    fn near_even_always_feasible_and_quantile_sufficient() {
        for n in 1..200u64 {
            for k in 1..=n.min(32) {
                let s = ProblemSpec::near_even(n, k).unwrap_or_else(|e| {
                    panic!("near_even({n}, {k}) must be feasible: {e}");
                });
                assert_eq!((s.a, s.b), (n / k, n.div_ceil(k)));
                assert!(s.quantile_suffices(), "near_even({n}, {k})");
                // Quantile cut differences all land in [a, b].
                let mut prev = 0;
                for &r in s.quantile_ranks().iter().chain(std::iter::once(&n)) {
                    let d = r - prev;
                    assert!((s.a..=s.b).contains(&d), "near_even({n}, {k}): diff {d}");
                    prev = r;
                }
            }
        }
        assert!(ProblemSpec::near_even(100, 0).is_err());
        assert!(ProblemSpec::near_even(3, 8).is_err(), "K > N stays typed");
    }

    #[test]
    fn exact_requires_divisibility() {
        assert!(ProblemSpec::exact(100, 4).is_ok());
        assert!(ProblemSpec::exact(100, 3).is_err());
    }

    #[test]
    fn display_contains_fields() {
        let s = ProblemSpec::new(100, 4, 5, 50).unwrap();
        let d = format!("{s}");
        assert!(d.contains("N=100") && d.contains("TwoSided"));
    }
}
