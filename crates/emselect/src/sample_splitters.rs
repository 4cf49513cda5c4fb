//! Approximate even splitters in linear I/Os.
//!
//! This is the workspace's stand-in for the Hu et al.\[6\] black box the
//! paper invokes in §4.2: a routine that, given `S` of size `n`, returns
//! `f − 1` splitters whose induced buckets all have size `O(n/f)`, in
//! `O(n/B)` I/Os.
//!
//! Three strategies (compared in ablation experiment EX-A1):
//!
//! * **Deterministic** multi-level regular sampling: sort memory-loads,
//!   keep every `ρ`-th element, recurse on the sample until it fits in
//!   memory, then pick evenly. Rank error after `L` levels is at most
//!   `ρ·L·n/C` (`C` = load capacity), so every bucket is within `n/f ±
//!   2·ρ·L·n/C`; the guarantee `bucket ≤ 2n/f` holds whenever
//!   `f ≤ C/(4·ρ·L)`. [`max_deterministic_fanout`] is that bound at
//!   `ρ = SAMPLE_RHO`. This makes the deterministic base-case capacity of
//!   Theorem 4 `Θ(M/log(N/M))` rather than `Θ(M)`; see DESIGN.md
//!   "substitutions". Each call thins only as finely as its `f` needs: `ρ`
//!   is the coarsest power of two `≥ SAMPLE_RHO` for which `f ≤ C/(4·ρ·L)`
//!   still holds, so a fan-out well below the maximum writes a sparser
//!   sample over fewer levels under the same guarantee. The default of
//!   [`SplitterStrategy`], so multi-selection (`MsOptions`), the rank
//!   split (`split_at_rank`) and the splitter algorithms use it: they have
//!   no partition pass that would make a bad sample merely slower.
//! * **Stratified** block sampling: an input that fits one load `C` is
//!   loaded whole, as above; a larger one has its blocks cut into
//!   `s = ⌊C / records-per-block⌋` equal strata, and one seeded uniformly
//!   chosen block of each is read — `s` reads, no writes, no sort. The
//!   strategy of `MpOptions::default()`: multi-partition is exact whatever
//!   its splitters are, and a bad sample costs it only I/O.
//! * **Randomized** reservoir sampling: one scan keeps a uniform sample of
//!   `min(C/2, 16·f·ln n)` records; even picks from the sample give
//!   buckets `≤ 2n/f` w.h.p. for `f` up to `Θ(M)`.
//!
//! All three pick their `f − 1` evenly spaced splitters by in-place
//! selection (`partition_at_ranks`), not by sorting the sample, and read
//! their input a block slice (or a block) at a time.
//!
//! The sampled strategies carry no worst-case bound, so the one
//! distribution level that multi-partition, `split_at_rank` and the pruned
//! multi-selection engine share applies one fallback rule,
//! `SplitterStrategy::for_piece`: a piece that a level over `n` records
//! at fan-out `f` leaves larger than the deterministic guarantee `2n/f`
//! (a bucket, or a side of the three-way split around a dominant key) is
//! sampled deterministically from there down. An input that defeats the
//! sample then costs at most one extra distribution pass per level.
//!
//! All entry points come in two flavours: over a single [`EmFile`] and
//! over a *segment list* (`&[EmFile<T>]`, as produced by
//! [`crate::Partition`]) — the latter avoids flattening partitions before
//! scanning them.

use emcore::SplitMix64;
use emcore::{EmContext, EmError, EmFile, Record, Result};

use crate::internal::multi_select_in_mem;
use crate::partition_out::{load_segs, segs_len, ChainReader};

/// The finest per-level thinning factor of the deterministic strategy,
/// and the one [`max_deterministic_fanout`] assumes. A call thins by the
/// coarsest power of two `≥ SAMPLE_RHO` its fan-out allows.
pub const SAMPLE_RHO: usize = 4;

/// How splitters are sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitterStrategy {
    /// Multi-level regular sampling; worst-case bucket guarantee, smaller
    /// maximum fan-out.
    #[default]
    Deterministic,
    /// Reservoir sampling with the given seed; `Θ(M)` fan-out with
    /// high-probability bucket guarantee.
    Randomized {
        /// RNG seed (experiments are reproducible bit-for-bit).
        seed: u64,
    },
    /// One block from each of `⌊C / records-per-block⌋` equal strata of an
    /// input larger than one load `C`, drawn with a fixed seed: that many
    /// reads, no writes and no bucket guarantee.
    Stratified,
}

impl SplitterStrategy {
    /// The strategy for a piece of `piece` records that a distribution
    /// level over `n` records at fan-out `f` left behind: deterministic
    /// once the piece is larger than the deterministic guarantee `2n/f`,
    /// this strategy otherwise.
    pub(crate) fn for_piece(self, piece: u64, n: u64, f: usize) -> Self {
        if piece.saturating_mul(f as u64) > 2 * n {
            SplitterStrategy::Deterministic
        } else {
            self
        }
    }
}

/// In-memory load capacity used by sampling, in records. Reserves four
/// block buffers of `T`: sampling's own reader and writer, plus up to two
/// persistent buffers a caller (e.g. multi-partition's output sink) may
/// hold across the call.
fn load_capacity<T: Record>(ctx: &EmContext) -> usize {
    let cfg = ctx.config();
    ctx.mem_records::<T>()
        .saturating_sub(4 * cfg.block_records_for_width(T::WORDS))
        .max(cfg.block_size())
}

/// Number of sampling levels the deterministic strategy needs for `n`
/// records with load capacity `cap`, thinning by `rho` per level.
fn levels(n: u64, cap: usize, rho: usize) -> usize {
    let mut lv = 0;
    let mut m = n;
    while m > cap as u64 {
        m /= rho as u64;
        lv += 1;
    }
    lv.max(1)
}

/// The thinning factor the deterministic strategy uses for fan-out `f`
/// over `n` records: the coarsest power of two `ρ ≥ SAMPLE_RHO` for which
/// `f ≤ C/(4·ρ·L(ρ))` still holds, so every bucket keeps the `≤ 2n/f`
/// guarantee with the fewest sample writes. `ρ·L(ρ)` never falls as `ρ`
/// doubles, so the first `ρ` that fails ends the search. When even
/// `SAMPLE_RHO` fails (`f` above [`max_deterministic_fanout`]'s formula)
/// it is `SAMPLE_RHO`.
fn sample_rho(f: usize, n: u64, cap: usize) -> usize {
    let fits = |rho: usize| f <= cap / (4 * rho * levels(n, cap, rho));
    let mut rho = SAMPLE_RHO;
    while rho * 2 <= cap && fits(rho * 2) {
        rho *= 2;
    }
    rho
}

/// Largest fan-out for which the deterministic strategy guarantees every
/// bucket `≤ 2n/f`: `f ≤ C/(4·ρ·L)` where `L = ceil(log_ρ(n/C))`.
pub fn max_deterministic_fanout<T: Record>(file: &EmFile<T>) -> usize {
    max_deterministic_fanout_n::<T>(file.ctx(), file.len())
}

/// [`max_deterministic_fanout`] from an explicit input size.
pub fn max_deterministic_fanout_n<T: Record>(ctx: &EmContext, n: u64) -> usize {
    let cap = load_capacity::<T>(ctx);
    if n <= cap as u64 {
        // Everything fits in memory: splitters are exact, any fan-out works
        // (bounded by the number of records).
        return cap.max(2);
    }
    let lv = levels(n, cap, SAMPLE_RHO);
    (cap / (4 * SAMPLE_RHO * lv)).max(2)
}

/// Find `f − 1` splitters of `input` such that every induced bucket
/// `(s_{j-1}, s_j]` has at most `≈ 2n/f` records (guaranteed for the
/// deterministic strategy when `f ≤ max_deterministic_fanout`, w.h.p. for
/// the randomized one, and not at all for the stratified one, whose
/// buckets are only as even as its sampled blocks). Costs `O(n/B)` I/Os,
/// and `O(M/B)` for the stratified strategy. The splitters are returned in
/// ascending key order as whole records.
pub fn sample_splitters<T: Record>(
    input: &EmFile<T>,
    f: usize,
    strategy: SplitterStrategy,
) -> Result<Vec<T>> {
    sample_splitters_segs(input.ctx(), std::slice::from_ref(input), f, strategy)
}

/// [`sample_splitters`] over a segment list.
pub fn sample_splitters_segs<T: Record>(
    ctx: &EmContext,
    segs: &[EmFile<T>],
    f: usize,
    strategy: SplitterStrategy,
) -> Result<Vec<T>> {
    if f < 2 {
        return Err(EmError::config(format!("fan-out must be ≥ 2, got {f}")));
    }
    if segs_len(segs) == 0 {
        return Ok(Vec::new());
    }
    let _phase = ctx.stats().phase_guard("sample-splitters");
    match strategy {
        SplitterStrategy::Deterministic => deterministic(ctx, segs, f),
        SplitterStrategy::Randomized { seed } => randomized(ctx, segs, f, seed),
        SplitterStrategy::Stratified => stratified(ctx, segs, f),
    }
}

/// The `f − 1` evenly spaced records of `sample`, found by selection:
/// splitter `i` (`i = 1..f`) is the record of rank `max(1, ⌊i·n/f⌋)`. `f`
/// is first capped at `max(n, 2)`.
fn pick_even<T: Record>(sample: &mut [T], f: usize) -> Vec<T> {
    let n = sample.len() as u64;
    let f = (f as u64).min(n.max(2));
    let ranks: Vec<u64> = (1..f).map(|i| (i * n / f).max(1)).collect();
    multi_select_in_mem(sample, &ranks)
}

fn deterministic<T: Record>(ctx: &EmContext, segs: &[EmFile<T>], f: usize) -> Result<Vec<T>> {
    let cap = load_capacity::<T>(ctx);
    let rho = sample_rho(f, segs_len(segs), cap);

    // Level 0 reads the borrowed segments; subsequent levels own their
    // sample files.
    let mut current: Option<EmFile<T>> = None;
    loop {
        let level = match &current {
            None => segs,
            Some(fl) => std::slice::from_ref(fl),
        };
        if segs_len(level) <= cap as u64 {
            // Load and pick evenly.
            let mut sample = load_segs(ctx, level, "splitter final sample")?;
            return Ok(pick_even(&mut sample, f));
        }
        // One reduction level: sort chunks of `cap`, keep every ρ-th.
        let mut load = ctx.try_tracked_vec::<T>(cap, "splitter sample chunk")?;
        let mut w = ctx.writer::<T>()?;
        let mut r = ChainReader::new(level);
        loop {
            load.clear();
            if r.read_into(&mut load, cap)? == 0 {
                break;
            }
            load.sort_unstable_by_key(|a| a.key());
            for &x in load.iter().skip(rho - 1).step_by(rho) {
                w.push(x)?;
            }
            if load.len() < cap {
                break;
            }
        }
        drop(r);
        drop(load);
        current = Some(w.finish()?);
    }
}

/// Seed of the stratified sampler: the blocks it reads are reproducible
/// bit-for-bit.
const STRATIFIED_SEED: u64 = 0x5A3D_2014_0623_0001;

/// Splitters from one seeded block per stratum: an input that fits the
/// load capacity `C` is loaded whole; otherwise its `nb` blocks, across
/// the segment list, are cut into `s = ⌊C / records-per-block⌋ < nb` equal
/// strata, one uniformly chosen block of each is read, and the sample of
/// at most `C` records is picked evenly.
fn stratified<T: Record>(ctx: &EmContext, segs: &[EmFile<T>], f: usize) -> Result<Vec<T>> {
    let n = segs_len(segs);
    let cap = load_capacity::<T>(ctx);
    if n <= cap as u64 {
        let mut sample = load_segs(ctx, segs, "splitter final sample")?;
        return Ok(pick_even(&mut sample, f));
    }
    let per_block = ctx.config().block_records_for_width(T::WORDS);
    let nb: u64 = segs.iter().map(|s| s.num_blocks()).sum();
    let s = (cap / per_block) as u64;
    // Each level draws its own blocks: the seed is mixed with the input size.
    let mut rng = SplitMix64::new(STRATIFIED_SEED ^ n);
    let mut sample = ctx.try_tracked_vec::<T>(s as usize * per_block, "splitter strata sample")?;
    let mut block = ctx.try_tracked_vec::<T>(per_block, "splitter strata block")?;
    let (mut seg, mut seg_start) = (0, 0u64);
    for i in 0..s {
        let lo = i * nb / s;
        let pick = lo + rng.below((i + 1) * nb / s - lo);
        while pick >= seg_start + segs[seg].num_blocks() {
            seg_start += segs[seg].num_blocks();
            seg += 1;
        }
        segs[seg].read_block_into(pick - seg_start, &mut block)?;
        sample.try_extend_from_slice(&block)?;
    }
    Ok(pick_even(&mut sample, f))
}

fn randomized<T: Record>(
    ctx: &EmContext,
    segs: &[EmFile<T>],
    f: usize,
    seed: u64,
) -> Result<Vec<T>> {
    let n = segs_len(segs);
    let cap = load_capacity::<T>(ctx);
    let target = ((16.0 * f as f64 * (n.max(2) as f64).ln()) as usize)
        .clamp(f, cap / 2)
        .max(2);
    let mut rng = SplitMix64::new(seed);
    let mut reservoir = ctx.try_tracked_vec::<T>(target, "splitter reservoir")?;
    let mut r = ChainReader::new(segs);
    let mut seen = r.read_into(&mut reservoir, target)? as u64;
    r.for_each_slice(|chunk| {
        for &x in chunk {
            seen += 1;
            let j = rng.below(seen) as usize;
            if j < target {
                reservoir[j] = x;
            }
        }
        Ok(())
    })?;
    drop(r);
    Ok(pick_even(&mut reservoir, f))
}

/// Iterated-refinement deterministic splitters: two sampling rounds reach
/// fan-outs far beyond [`max_deterministic_fanout`], up to `Θ(M)`.
///
/// Round 1 finds `f₀ − 1` splitters and distributes the input into `f₀`
/// buckets (`≤ 2n/f₀` each); round 2 samples each bucket independently for
/// `f₁ − 1` sub-splitters (`≤ 2·bucket/f₁` each), giving `f₀·f₁` buckets of
/// size `≤ 4n/(f₀·f₁)`. Since each round's cap is `Θ(M/log(N/M))`, the
/// product reaches `Θ((M/log)²) ≫ M` — in practice limited only by the
/// memory needed to hold the splitters themselves (`≤ M/4` words here).
///
/// This is the workspace's closest realisation of the Hu et al.\[6\]
/// `Θ(M)`-splitter black box (paper §4.2): it restores the base-case
/// capacity `m = Θ(M)` of Theorem 4 for the intermixed engine, at the cost
/// of one extra distribution pass (`+2` scans), keeping the total `O(n/B)`.
pub fn refined_splitters<T: Record>(
    ctx: &EmContext,
    segs: &[EmFile<T>],
    f_target: usize,
) -> Result<Vec<T>> {
    let n = segs_len(segs);
    if n == 0 {
        return Ok(Vec::new());
    }
    // The refined splitter array must stay memory-resident for the caller:
    // cap its footprint at M/4 words.
    let store_cap = (ctx.mem_budget() / (4 * T::WORDS)).max(4);
    let f_target = f_target.clamp(2, store_cap);
    let f0 = crate::level::level_fanout::<T>(ctx, n);
    if f_target <= f0 {
        return sample_splitters_segs(ctx, segs, f_target, SplitterStrategy::Deterministic);
    }
    let _phase = ctx.stats().phase_guard("refined-splitters");
    let round1 = sample_splitters_segs(ctx, segs, f0, SplitterStrategy::Deterministic)?;
    let buckets = crate::distribute::distribute_segs(ctx, segs, &round1)?;
    let f1 = f_target.div_ceil(f0).max(2);
    let mut out = Vec::with_capacity(f0 * f1);
    for (i, bucket) in buckets.iter().enumerate() {
        if !bucket.is_empty() {
            let f1_eff = f1.min(max_deterministic_fanout_n::<T>(ctx, bucket.len()).max(2));
            out.extend(sample_splitters_segs(
                ctx,
                std::slice::from_ref(bucket),
                f1_eff,
                SplitterStrategy::Deterministic,
            )?);
        }
        if i + 1 < buckets.len() {
            out.push(round1[i]);
        }
    }
    // Sub-splitters are within-bucket ascending and buckets are ordered,
    // but defensively enforce global order (ties across equal keys).
    out.sort_unstable_by_key(|a| a.key());
    Ok(out)
}

/// Count the number of records of `input` falling into each of the `f`
/// buckets `(-∞, s_1], (s_1, s_2], …, (s_{f-2}, s_{f-1}], (s_{f-1}, ∞)`
/// induced by `splitters` (ascending). One scan; the splitter array is
/// charged to memory for its duration.
pub fn count_buckets<T: Record>(input: &EmFile<T>, splitters: &[T]) -> Result<Vec<u64>> {
    count_buckets_segs(input.ctx(), std::slice::from_ref(input), splitters)
}

/// [`count_buckets`] over a segment list.
pub fn count_buckets_segs<T: Record>(
    ctx: &EmContext,
    segs: &[EmFile<T>],
    splitters: &[T],
) -> Result<Vec<u64>> {
    let _charge = ctx
        .mem()
        .try_charge(splitters.len() * T::WORDS, "bucket-count splitters")?;
    let mut counts = vec![0u64; splitters.len() + 1];
    ChainReader::new(segs).for_each_slice(|chunk| {
        for x in chunk {
            counts[bucket_of(splitters, &x.key())] += 1;
        }
        Ok(())
    })?;
    Ok(counts)
}

/// The bucket index of `key` among ascending `splitters`: the number of
/// splitters strictly smaller than `key` (so bucket `j` receives keys in
/// `(s_{j-1}, s_j]`, matching the paper's partition convention).
#[inline]
pub fn bucket_of<T: Record>(splitters: &[T], key: &T::Key) -> usize {
    splitters.partition_point(|s| s.key() < *key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use emcore::{EmConfig, EmContext, KeyValue};

    fn ctx() -> EmContext {
        EmContext::new_in_memory_strict(EmConfig::tiny()) // M=256, B=16
    }

    fn shuffled(n: u64) -> Vec<u64> {
        // Fixed-seed Fisher-Yates via LCG for determinism.
        let mut v: Vec<u64> = (0..n).collect();
        let mut s = 99u64;
        for i in (1..v.len()).rev() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            v.swap(i, j);
        }
        v
    }

    fn check_buckets(input: &EmFile<u64>, splitters: &[u64], f: usize, slack: f64) {
        let counts = count_buckets(input, splitters).unwrap();
        assert_eq!(counts.len(), splitters.len() + 1);
        let n = input.len() as f64;
        let bound = slack * n / f as f64 + 1.0;
        for (j, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) <= bound,
                "bucket {j} has {c} records > bound {bound} (n={n}, f={f})"
            );
        }
        assert_eq!(counts.iter().sum::<u64>(), input.len());
    }

    #[test]
    fn bucket_of_convention() {
        let sp: Vec<u64> = vec![10, 20, 30];
        assert_eq!(bucket_of(&sp, &5), 0);
        assert_eq!(bucket_of(&sp, &10), 0); // key ≤ s_1 → bucket 0
        assert_eq!(bucket_of(&sp, &11), 1);
        assert_eq!(bucket_of(&sp, &20), 1);
        assert_eq!(bucket_of(&sp, &30), 2);
        assert_eq!(bucket_of(&sp, &31), 3);
    }

    #[test]
    fn deterministic_small_input_exact() {
        let c = ctx();
        let f = EmFile::from_slice(&c, &shuffled(100)).unwrap();
        let sp = sample_splitters(&f, 4, SplitterStrategy::Deterministic).unwrap();
        assert_eq!(sp.len(), 3);
        // exact quartiles of 0..100 ranks 25,50,75 → values 24,49,74
        assert_eq!(sp, vec![24, 49, 74]);
    }

    #[test]
    fn deterministic_large_input_bucket_guarantee() {
        let c = ctx();
        let n = 20_000u64;
        let data = shuffled(n);
        let file = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let fmax = max_deterministic_fanout(&file);
        assert!(fmax >= 2, "fmax = {fmax}");
        let sp = sample_splitters(&file, fmax, SplitterStrategy::Deterministic).unwrap();
        assert_eq!(sp.len(), fmax - 1);
        check_buckets(&file, &sp, fmax, 2.0);
    }

    #[test]
    fn deterministic_is_linear_io() {
        let c = ctx();
        let n = 40_000u64;
        let file = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(n)))
            .unwrap();
        let before = c.stats().snapshot();
        let f = max_deterministic_fanout(&file);
        let _ = sample_splitters(&file, f, SplitterStrategy::Deterministic).unwrap();
        let ios = c.stats().snapshot().since(&before).total_ios();
        let scan = n.div_ceil(16);
        // reduction levels cost a geometric series: < 2 scans read + 1/3 write
        assert!(
            ios <= 3 * scan,
            "sampling took {ios} I/Os, more than 3 scans ({scan} each)"
        );
    }

    /// Inputs the bucket guarantee must hold on: a permutation, sorted,
    /// reversed, organ-pipe (every key twice) and few-distinct (about 25
    /// copies of each key).
    fn families(n: u64) -> Vec<(&'static str, Vec<u64>)> {
        let mut rng = SplitMix64::new(n);
        vec![
            ("uniform", shuffled(n)),
            ("sorted", (0..n).collect()),
            ("reversed", (0..n).rev().collect()),
            ("organ-pipe", (0..n).map(|i| i.min(n - 1 - i)).collect()),
            ("few-distinct", (0..n).map(|_| rng.below(n / 25)).collect()),
        ]
    }

    #[test]
    fn derived_rho_keeps_the_bucket_guarantee() {
        let c = EmContext::new_in_memory_strict(EmConfig::medium()); // M=4096, B=64
        let n = 100_000u64;
        for (name, data) in families(n) {
            let file = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
            let fmax = max_deterministic_fanout(&file);
            assert_eq!(fmax, 80);
            for f in [2, 3, 8, fmax / 2, fmax] {
                let sp = sample_splitters(&file, f, SplitterStrategy::Deterministic).unwrap();
                assert_eq!(sp.len(), f - 1, "{name}, f = {f}");
                assert!(sp.windows(2).all(|w| w[0] <= w[1]), "{name}, f = {f}");
                check_buckets(&file, &sp, f, 2.0);
            }
        }
    }

    #[test]
    fn rho_is_the_coarsest_that_keeps_the_guarantee() {
        let cap = 65_536 - 4 * 1_024; // perf's geometry: M = 65,536, B = 1,024
        let n = 1_000_000u64;
        // The distribution fan-out (60) samples with one level at ρ = 256.
        assert_eq!(sample_rho(60, n, cap), 256);
        assert_eq!(levels(n, cap, 256), 1);
        // At the deterministic maximum the bound leaves no room: ρ = 4.
        assert_eq!(cap / (4 * SAMPLE_RHO * levels(n, cap, SAMPLE_RHO)), 1_280);
        assert_eq!(sample_rho(1_280, n, cap), SAMPLE_RHO);
        assert_eq!(sample_rho(5_000, n, cap), SAMPLE_RHO);
        for f in [2usize, 3, 8, 60, 640, 1_280] {
            let rho = sample_rho(f, n, cap);
            assert!(rho.is_power_of_two() && rho >= SAMPLE_RHO);
            // The guarantee holds at ρ and fails at 2ρ.
            assert!(f <= cap / (4 * rho * levels(n, cap, rho)), "f = {f}");
            assert!(f > cap / (8 * rho * levels(n, cap, 2 * rho)), "f = {f}");
        }
    }

    #[test]
    fn sampling_at_perf_geometry_costs_what_the_fanout_needs() {
        // M = 65,536 and B = 1,024 records, N = 1,000,000: 977 blocks.
        let c = EmContext::new_in_memory_strict(EmConfig::new(65_536, 1_024).unwrap());
        let file = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(1_000_000)))
            .unwrap();
        let ios = |f: usize| {
            let before = c.stats().snapshot();
            let sp = sample_splitters(&file, f, SplitterStrategy::Deterministic).unwrap();
            let ios = c.stats().snapshot().since(&before).total_ios();
            check_buckets(&file, &sp, f, 2.0);
            ios
        };
        // f = 60, one level at ρ = 256: read 977 blocks, write and read
        // back a 3,906-record sample (4 blocks each way). Thinning by
        // ρ = 4 over three levels cost 1,623.
        assert_eq!(ios(60), 985);
        // At the maximum fan-out ρ stays 4: the three-level cost.
        assert_eq!(max_deterministic_fanout(&file), 1_280);
        assert_eq!(ios(1_280), 1_623);
    }

    #[test]
    fn load_capacity_reserves_blocks_of_the_record() {
        // Four blocks of `KeyValue` are 4·B/2 records: 128 − 32 = 96 at
        // M = 256, B = 16, and 32,768 − 2,048 = 30,720 at M = 65,536,
        // B = 1,024. One-word records lose 4·B as before.
        assert_eq!(load_capacity::<KeyValue>(&ctx()), 96);
        assert_eq!(load_capacity::<u64>(&ctx()), 192);
        let (m, b) = (65_536, 1_024);
        let c = EmContext::new_in_memory_strict(EmConfig::new(m, b).unwrap());
        assert_eq!(load_capacity::<KeyValue>(&c), 30_720);
        // Multi-partition samples at that load (60 strata of 512 records,
        // or 30,720-record chunks) and stays within M in strict mode.
        let n = 100_000u64;
        let data: Vec<KeyValue> = shuffled(n)
            .into_iter()
            .map(|k| KeyValue { key: k, value: !k })
            .collect();
        let sizes = vec![n / 8; 8];
        for strategy in [
            SplitterStrategy::Stratified,
            SplitterStrategy::Deterministic,
        ] {
            let c = EmContext::new_in_memory_strict(EmConfig::new(m, b).unwrap());
            let file = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
            let opts = crate::MpOptions {
                strategy,
                fanout_override: None,
            };
            let parts = crate::multi_partition_with(&file, &sizes, opts).unwrap();
            for (i, p) in parts.iter().enumerate() {
                let mut v = c.stats().paused(|| p.to_vec()).unwrap();
                v.sort_unstable_by_key(|r| r.key);
                let lo = i as u64 * n / 8;
                let want: Vec<KeyValue> = (lo..lo + n / 8)
                    .map(|k| KeyValue { key: k, value: !k })
                    .collect();
                assert!(v == want, "{strategy:?}: partition {i}");
            }
            assert!(c.mem().peak() <= m, "{strategy:?}: peak {}", c.mem().peak());
        }
    }

    #[test]
    fn randomized_bucket_guarantee() {
        let c = ctx();
        let n = 20_000u64;
        let file = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(n)))
            .unwrap();
        for seed in [1u64, 7, 42] {
            let f = 8;
            let sp = sample_splitters(&file, f, SplitterStrategy::Randomized { seed }).unwrap();
            assert_eq!(sp.len(), f - 1);
            check_buckets(&file, &sp, f, 2.5);
        }
    }

    #[test]
    fn randomized_single_scan() {
        let c = ctx();
        let n = 10_000u64;
        let file = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(n)))
            .unwrap();
        let before = c.stats().snapshot();
        let _ = sample_splitters(&file, 8, SplitterStrategy::Randomized { seed: 3 }).unwrap();
        let d = c.stats().snapshot().since(&before);
        assert_eq!(d.reads, n.div_ceil(16));
        assert_eq!(d.writes, 0);
    }

    #[test]
    fn sorted_input_splitters() {
        let c = ctx();
        let data: Vec<u64> = (0..5000).collect();
        let file = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let f = max_deterministic_fanout(&file);
        let sp = sample_splitters(&file, f, SplitterStrategy::Deterministic).unwrap();
        check_buckets(&file, &sp, f, 2.0);
        // splitters ascending
        assert!(sp.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn duplicate_heavy_input() {
        let c = ctx();
        let data: Vec<u64> = (0..5000u64).map(|i| i % 3).collect();
        let file = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        // No bucket guarantee possible with 3 distinct keys; just sanity.
        let sp = sample_splitters(&file, 4, SplitterStrategy::Deterministic).unwrap();
        assert_eq!(sp.len(), 3);
        let counts = count_buckets(&file, &sp).unwrap();
        assert_eq!(counts.iter().sum::<u64>(), 5000);
    }

    #[test]
    fn empty_input_no_splitters() {
        let c = ctx();
        let file = c.create_file::<u64>().unwrap();
        let sp = sample_splitters(&file, 8, SplitterStrategy::Deterministic).unwrap();
        assert!(sp.is_empty());
    }

    #[test]
    fn fanout_below_two_rejected() {
        let c = ctx();
        let file = EmFile::from_slice(&c, &[1u64, 2]).unwrap();
        assert!(sample_splitters(&file, 1, SplitterStrategy::Deterministic).is_err());
    }

    #[test]
    fn fanout_larger_than_input() {
        let c = ctx();
        let file = EmFile::from_slice(&c, &[3u64, 1, 2]).unwrap();
        let sp = sample_splitters(&file, 10, SplitterStrategy::Deterministic).unwrap();
        // f clamps to n; still ascending and within data
        assert!(!sp.is_empty());
        assert!(sp.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn max_fanout_monotone_reasonable() {
        let c = ctx();
        let small = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(100)))
            .unwrap();
        let big = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(100_000)))
            .unwrap();
        assert!(max_deterministic_fanout(&small) >= max_deterministic_fanout(&big));
        assert!(max_deterministic_fanout(&big) >= 2);
    }

    #[test]
    fn refined_reaches_beyond_single_round_cap() {
        let c = EmContext::new_in_memory(EmConfig::medium()); // M=4096, B=64
        let n = 100_000u64;
        let file = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(n)))
            .unwrap();
        let f0 = max_deterministic_fanout(&file);
        let target = 4 * f0;
        let sp = refined_splitters(&c, std::slice::from_ref(&file), target).unwrap();
        assert!(
            sp.len() + 1 >= 2 * f0,
            "refined fan-out {} should exceed single-round cap {f0}",
            sp.len() + 1
        );
        assert!(sp.windows(2).all(|w| w[0] <= w[1]));
        // Bucket guarantee ≤ 4n/f'.
        let counts = count_buckets(&file, &sp).unwrap();
        let f_eff = counts.len() as f64;
        let bound = 4.0 * n as f64 / f_eff + 1.0;
        for (j, &cnt) in counts.iter().enumerate() {
            assert!(
                (cnt as f64) <= bound,
                "bucket {j}: {cnt} > {bound} (f' = {f_eff})"
            );
        }
        assert_eq!(counts.iter().sum::<u64>(), n);
    }

    #[test]
    fn refined_is_linear_io() {
        let c = EmContext::new_in_memory(EmConfig::medium());
        let n = 100_000u64;
        let file = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(n)))
            .unwrap();
        let before = c.stats().snapshot();
        let f0 = max_deterministic_fanout(&file);
        let _ = refined_splitters(&c, std::slice::from_ref(&file), 8 * f0).unwrap();
        let ios = c.stats().snapshot().since(&before).total_ios();
        let scan = n.div_ceil(64);
        // round-1 sampling (~1.7) + distribute (2) + per-bucket sampling (~1.7)
        assert!(
            ios <= 7 * scan,
            "refined sampling took {ios} I/Os = {:.1} scans",
            ios as f64 / scan as f64
        );
    }

    #[test]
    fn refined_small_target_delegates() {
        let c = ctx();
        let file = EmFile::from_slice(&c, &shuffled(100)).unwrap();
        let sp = refined_splitters(&c, std::slice::from_ref(&file), 4).unwrap();
        assert_eq!(sp, vec![24, 49, 74]);
    }

    #[test]
    fn refined_empty_input() {
        let c = ctx();
        let file = c.create_file::<u64>().unwrap();
        assert!(refined_splitters(&c, std::slice::from_ref(&file), 64)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn segmented_input_matches_single_file() {
        let c = ctx();
        let data = shuffled(3000);
        let whole = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let seg_a = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &data[..1000]))
            .unwrap();
        let seg_b = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &data[1000..]))
            .unwrap();
        let segs = vec![seg_a, seg_b];
        let sp1 = sample_splitters(&whole, 4, SplitterStrategy::Deterministic).unwrap();
        let sp2 = sample_splitters_segs(&c, &segs, 4, SplitterStrategy::Deterministic).unwrap();
        assert_eq!(sp1, sp2, "segmentation must not change the sample");
        let c1 = count_buckets(&whole, &sp1).unwrap();
        let c2 = count_buckets_segs(&c, &segs, &sp1).unwrap();
        assert_eq!(c1, c2);
    }
}
