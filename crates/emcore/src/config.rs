//! External-memory model parameters.
//!
//! The classical I/O model of Aggarwal and Vitter: a machine with an internal
//! memory of `M` items and a disk formatted into blocks of `B` items, with
//! `M >= 2B`. One I/O transfers one block between disk and memory.
//!
//! Throughout this workspace `M` and `B` count *words*, as in the paper. A
//! record of type `T` is `T::WORDS` words wide, so a block holds
//! [`EmConfig::block_records_for_width`] records and memory
//! `M / T::WORDS` of them (`EmContext::mem_records`). Words and records
//! coincide only for one-word types such as `u64`.

use crate::error::{EmError, Result};

/// Parameters of the external-memory model: memory capacity `M` and block
/// size `B`, both counted in words (records only for one-word types).
///
/// Invariants enforced at construction:
/// * `B >= 1`
/// * `M >= 2 * B` (the model's minimum: at least two blocks fit in memory)
///
/// The geometry is validated by [`EmConfig::new`]; workers, the block
/// cache and device latency are set with the `with_*` methods:
///
/// ```
/// use emcore::EmConfig;
///
/// let cfg = EmConfig::new(65536, 1024)
///     .unwrap()
///     .with_workers(4)
///     .with_cache_blocks(32);
/// assert_eq!(cfg.blocks_in_mem(), 64);
/// assert_eq!(cfg.workers(), 4);
/// assert_eq!(cfg.cache_blocks(), 32);
/// assert!(EmConfig::new(8, 16).is_err(), "M < 2B is rejected");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmConfig {
    mem_capacity: usize,
    block_size: usize,
    workers: usize,
    cache_blocks: usize,
    device_latency_us: u64,
}

impl EmConfig {
    /// Create a configuration with memory capacity `m` and block size `b`,
    /// one worker, and the block cache disabled. Use the `with_*` methods
    /// to enable parallelism or caching.
    ///
    /// The `EM_TEST_WORKERS` environment variable, when set to an integer
    /// ≥ 1, overrides the *default* worker count. This is a CI hook: the
    /// parallel sort is I/O-identical to the sequential one, so the whole
    /// test suite is run twice — at `workers = 1` and `workers = 4` — and
    /// must pass unchanged. An explicit [`EmConfig::with_workers`] always
    /// wins over the variable.
    ///
    /// # Errors
    ///
    /// Returns [`EmError::Config`] if `b == 0` or `m < 2 * b`.
    pub fn new(m: usize, b: usize) -> Result<Self> {
        if b == 0 {
            return Err(EmError::config("block size B must be at least 1"));
        }
        if m < 2 * b {
            return Err(EmError::config(format!(
                "memory capacity M={m} must be at least 2B={}",
                2 * b
            )));
        }
        let workers = std::env::var("EM_TEST_WORKERS")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&w: &usize| w >= 1)
            .unwrap_or(1);
        Ok(Self {
            mem_capacity: m,
            block_size: b,
            workers,
            cache_blocks: 0,
            device_latency_us: 0,
        })
    }

    /// This configuration with `workers` worker threads (clamped to ≥ 1).
    /// Parallel algorithms (e.g. `emsort`'s parallel external sort) split
    /// their work across this many threads; `workers = 1` is the sequential
    /// fast path and reproduces single-threaded I/O counts exactly.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// This configuration with a buffer-pool block cache of `cache_blocks`
    /// blocks (`0` disables the cache — the default, which keeps every
    /// logical I/O physical).
    pub fn with_cache_blocks(mut self, cache_blocks: usize) -> Self {
        self.cache_blocks = cache_blocks;
        self
    }

    /// Worker threads available to parallel algorithms (≥ 1).
    #[inline]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Buffer-pool capacity in blocks; `0` means the cache is disabled.
    #[inline]
    pub fn cache_blocks(&self) -> usize {
        self.cache_blocks
    }

    /// This configuration with a simulated per-transfer device latency of
    /// `us` microseconds on the disk backend (`0` — the default — disables
    /// the throttle).
    ///
    /// The disk backend normally lands in the OS page cache, so a "block
    /// transfer" costs a memcpy and wall-clock time says nothing about how
    /// the algorithm would behave against a device where a transfer takes
    /// tens of microseconds. With a nonzero latency every *physical* disk
    /// block transfer additionally sleeps this long, making wall-clock a
    /// faithful proxy for the I/O model: overlapped transfers (prefetch /
    /// write-behind threads) genuinely reclaim the latency, and block-cache
    /// hits — which do no physical transfer — genuinely avoid it. Logical
    /// and physical I/O *counts* are unaffected.
    ///
    /// Note `std::thread::sleep` granularity puts a floor (typically
    /// 50–100 µs) under the effective latency; treat small values as "at
    /// least this much".
    pub fn with_device_latency_us(mut self, us: u64) -> Self {
        self.device_latency_us = us;
        self
    }

    /// Simulated device latency per physical disk transfer, in
    /// microseconds; `0` means transfers run at page-cache speed.
    #[inline]
    pub fn device_latency_us(&self) -> u64 {
        self.device_latency_us
    }

    /// A small configuration convenient for unit tests: `M = 256`, `B = 16`.
    pub fn tiny() -> Self {
        Self::new(256, 16).expect("static config is valid")
    }

    /// A medium simulation configuration: `M = 4096`, `B = 64`.
    ///
    /// With these defaults `M/B = 64`, so a single level of merging or
    /// distribution covers a factor-64 size range — small enough that
    /// multi-level behaviour is observable at laptop-scale `N`.
    pub fn medium() -> Self {
        Self::new(4096, 64).expect("static config is valid")
    }

    /// Memory capacity `M` in words.
    #[inline]
    pub fn mem_capacity(&self) -> usize {
        self.mem_capacity
    }

    /// Block size `B` in words.
    #[inline]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// `M/B`: the number of blocks that fit in memory.
    #[inline]
    pub fn blocks_in_mem(&self) -> usize {
        self.mem_capacity / self.block_size
    }

    /// Maximum fan-in for multiway merging (and fan-out for distribution):
    /// `max(2, M/B - 2)`, reserving one block for the opposite stream and one
    /// block of slack for bookkeeping.
    #[inline]
    pub fn fan_in(&self) -> usize {
        (self.blocks_in_mem().saturating_sub(2)).max(2)
    }

    /// Number of `B`-word blocks needed to store `n` one-word records (a
    /// `T::WORDS`-wide record packs [`EmConfig::block_records_for_width`]
    /// to a block).
    #[inline]
    pub fn blocks_for(&self, n: u64) -> u64 {
        n.div_ceil(self.block_size as u64)
    }

    /// Records of width `words` that fit in one `B`-word block (at least
    /// one: a record wider than a block still moves as one unit under the
    /// indivisibility assumption).
    #[inline]
    pub fn block_records_for_width(&self, words: usize) -> usize {
        (self.block_size / words.max(1)).max(1)
    }

    /// `log_{M/B}(x)`, clamped below at 1 — the paper's `lg_{M/B} x`
    /// convention (`lg_x y = max(1, log_x y)`).
    pub fn lg_mb(&self, x: f64) -> f64 {
        let base = (self.blocks_in_mem() as f64).max(2.0);
        if x <= base {
            1.0
        } else {
            x.ln() / base.ln()
        }
    }

    /// The scanning bound `n/B` in I/Os (as a float, for bound formulas).
    pub fn scan_bound(&self, n: u64) -> f64 {
        n as f64 / self.block_size as f64
    }
}

impl std::fmt::Display for EmConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "EM(M={}, B={}, M/B={}",
            self.mem_capacity,
            self.block_size,
            self.blocks_in_mem()
        )?;
        if self.workers > 1 {
            write!(f, ", W={}", self.workers)?;
        }
        if self.cache_blocks > 0 {
            write!(f, ", cache={}", self.cache_blocks)?;
        }
        if self.device_latency_us > 0 {
            write!(f, ", lat={}µs", self.device_latency_us)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_config() {
        let c = EmConfig::new(1024, 32).unwrap();
        assert_eq!(c.mem_capacity(), 1024);
        assert_eq!(c.block_size(), 32);
        assert_eq!(c.blocks_in_mem(), 32);
        assert_eq!(c.fan_in(), 30);
    }

    #[test]
    fn rejects_zero_block() {
        assert!(EmConfig::new(16, 0).is_err());
    }

    #[test]
    fn rejects_small_memory() {
        assert!(EmConfig::new(31, 16).is_err());
        assert!(EmConfig::new(32, 16).is_ok());
    }

    #[test]
    fn fan_in_never_below_two() {
        let c = EmConfig::new(32, 16).unwrap();
        assert_eq!(c.fan_in(), 2);
    }

    #[test]
    fn blocks_for_rounds_up() {
        let c = EmConfig::new(64, 16).unwrap();
        assert_eq!(c.blocks_for(0), 0);
        assert_eq!(c.blocks_for(1), 1);
        assert_eq!(c.blocks_for(16), 1);
        assert_eq!(c.blocks_for(17), 2);
    }

    #[test]
    fn lg_mb_clamps_at_one() {
        let c = EmConfig::new(1024, 32).unwrap(); // M/B = 32
        assert_eq!(c.lg_mb(2.0), 1.0);
        assert_eq!(c.lg_mb(32.0), 1.0);
        assert!((c.lg_mb(1024.0) - 2.0).abs() < 1e-9);
    }

    /// What `EmConfig::new` should default `workers` to, honouring the
    /// `EM_TEST_WORKERS` CI hook so these tests pass under both suite runs.
    fn env_default_workers() -> usize {
        std::env::var("EM_TEST_WORKERS")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&w: &usize| w >= 1)
            .unwrap_or(1)
    }

    #[test]
    fn display_mentions_parameters() {
        let c = EmConfig::tiny().with_workers(1);
        let s = format!("{c}");
        assert!(s.contains("M=256"));
        assert!(s.contains("B=16"));
        assert!(!s.contains("W="), "workers hidden at default: {s}");
        let p = format!("{}", c.with_workers(4).with_cache_blocks(8));
        assert!(p.contains("W=4") && p.contains("cache=8"), "{p}");
    }

    #[test]
    fn defaults_sequential_uncached() {
        let c = EmConfig::new(1024, 32).unwrap();
        assert_eq!(c.workers(), env_default_workers());
        assert_eq!(c.cache_blocks(), 0);
    }

    #[test]
    fn with_workers_clamps_to_one() {
        let c = EmConfig::tiny().with_workers(0);
        assert_eq!(c.workers(), 1);
    }

    #[test]
    fn builder_round_trips() {
        // `EmConfig::new` validates the geometry and the `with_*` setters
        // fill in the rest: what they set is what the getters return.
        let c = EmConfig::new(256, 16)
            .unwrap()
            .with_workers(3)
            .with_cache_blocks(5)
            .with_device_latency_us(7);
        assert_eq!(c.mem_capacity(), 256);
        assert_eq!(c.block_size(), 16);
        assert_eq!(c.workers(), 3);
        assert_eq!(c.cache_blocks(), 5);
        assert_eq!(c.device_latency_us(), 7);
        // Geometry validation still applies.
        assert!(EmConfig::new(8, 16).is_err());
        // `medium` is the same geometry (normalise the env-sensitive
        // worker default on both sides).
        assert_eq!(
            EmConfig::new(4096, 64).unwrap().with_workers(1),
            EmConfig::medium().with_workers(1)
        );
    }
}
