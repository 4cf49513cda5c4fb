//! Multi-selection (paper Theorem 4): report the elements of `S` at `K`
//! given ranks in `O((N/B)·lg_{M/B}(K/B))` I/Os.
//!
//! Structure follows §4.2:
//!
//! * **Base case `K ≤ m`** — two engines (see [`MsBaseCase`]):
//!   * *Pruned* (default): find `f − 1` even splitters in linear I/Os,
//!     distribute, drop the rank-free buckets (free), recurse into the
//!     rank-carrying ones. `O(n/B)` whenever `K` is within the feasible
//!     distribution fan-out, with small constants.
//!   * *Intermixed* (the paper's §4.2 construction, verbatim): find
//!     `Θ(m)` splitters via the two-round refined sampler
//!     ([`crate::sample_splitters::refined_splitters`], restoring the
//!     paper's `m = Θ(M)` capacity), count bucket sizes in one scan, then
//!     build the `K`-intermixed instance — the group of rank `r_i` is the
//!     content of the bucket containing `r_i` with residual target
//!     `t_i = r_i − (|P_1| + … + |P_{j-1}|)` — and finish with
//!     [`crate::intermixed_select`] in `O(|D|/B)`.
//! * **General case `K > m`** — multi-partition `S` at every `m`-th target
//!   rank into `g = ceil(K/m)` partitions (`O((N/B)·lg_{M/B} g)` I/Os),
//!   then run the base case inside each partition's segments (`O(N/B)`
//!   total, no flattening).

use emcore::{EmContext, EmError, EmFile, Record, Result, Tagged};

use crate::intermixed::{intermixed_select, max_groups};
use crate::level::{distribute_level, fits_in_memory, level_fanout};
use crate::multi_partition::multi_partition_at_ranks;
use crate::partition_out::{load_segs, segs_len, ChainReader};
use crate::sample_splitters::{
    bucket_of, count_buckets_segs, max_deterministic_fanout_n, refined_splitters, SplitterStrategy,
};

/// Which engine finishes a base case (`K ≤ m` ranks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MsBaseCase {
    /// Pruned distribution (default): distribute only rank-carrying
    /// buckets and recurse; `O(n/B · (1 + K/f))` with small constants.
    /// On duplicate-dominated inputs a level splits three ways around the
    /// dominant key and answers the ranks among its equals from one record.
    #[default]
    Pruned,
    /// The paper's §4.2 construction verbatim: build the intermixed
    /// instance `D` and run [`intermixed_select`]. Required asymptotically
    /// when the group count exceeds the feasible distribution fan-out
    /// (`L = Θ(M)` vs `f = Θ(M/B)` in the paper's parameterisation);
    /// selectable here for faithfulness tests and ablations.
    Intermixed,
}

/// Options for multi-selection (ablation hooks).
#[derive(Debug, Clone, Copy, Default)]
pub struct MsOptions {
    /// Splitter sampling strategy of the base case's distribution levels.
    /// A piece that a level leaves larger than `2n/f` is sampled
    /// deterministically from there down, whatever the strategy. The
    /// general case's multi-partition samples as
    /// [`crate::MpOptions::default`] does.
    pub strategy: SplitterStrategy,
    /// Override the base-case group capacity `m` (testing/ablation);
    /// clamped to `[1, max_groups]`.
    pub base_capacity_override: Option<usize>,
    /// Base-case engine.
    pub base_case: MsBaseCase,
}

/// The base-case capacity `m`: how many ranks one linear-I/O base case can
/// handle. For the pruned engine `m = max(M'/6, 8)`, where `M'` is the
/// live budget in words (its bookkeeping is about three words per rank,
/// so a governor squeeze narrows the base case); for the paper-faithful
/// intermixed engine `m` is [`crate::max_groups`], the `Θ(M/w)` groups one
/// intermixed selection can run. `base_capacity_override` replaces `m`,
/// clamped to `[1, max_groups]`. It does not depend on the input size.
pub fn base_case_capacity<T: Record>(ctx: &EmContext, opts: &MsOptions) -> usize {
    let groups_cap = max_groups::<T>(ctx.config());
    let m = match opts.base_case {
        // Pruned bookkeeping is ~3 words per rank; cap well inside the
        // *live* budget, so a governor squeeze narrows the base case.
        MsBaseCase::Pruned => (ctx.mem_budget() / 6).max(8),
        // With refined (two-round) splitters the base case reaches the
        // paper's m = Θ(M): the intermixed instance |D| ≤ K·4n/f' stays
        // O(n) because f' = 4·groups_cap splitters are available.
        MsBaseCase::Intermixed => groups_cap,
    };
    let m = opts
        .base_capacity_override
        .map_or(m, |o| o.clamp(1, groups_cap));
    m.max(1)
}

/// Report the element of rank `ranks[i]` (1-based) of `input`, for every
/// `i`. Ranks may be in any order and may repeat; the output matches the
/// input order. Errors on ranks outside `[1, N]` or an empty input with
/// nonempty ranks.
pub fn multi_select<T: Record>(input: &EmFile<T>, ranks: &[u64]) -> Result<Vec<T>> {
    multi_select_with(input, ranks, MsOptions::default())
}

/// [`multi_select`] with explicit options.
pub fn multi_select_with<T: Record>(
    input: &EmFile<T>,
    ranks: &[u64],
    opts: MsOptions,
) -> Result<Vec<T>> {
    multi_select_segs(input.ctx(), std::slice::from_ref(input), ranks, opts)
}

/// [`multi_select`] over a segment list (e.g. a [`crate::Partition`]'s
/// segments) — avoids flattening multi-segment inputs before selecting.
pub fn multi_select_segs<T: Record>(
    ctx: &EmContext,
    segs: &[EmFile<T>],
    ranks: &[u64],
    opts: MsOptions,
) -> Result<Vec<T>> {
    if ranks.is_empty() {
        return Ok(Vec::new());
    }
    let ctx = ctx.clone();
    let n = segs_len(segs);
    for &r in ranks {
        if r == 0 || r > n {
            return Err(EmError::config(format!("rank {r} out of range [1, {n}]")));
        }
    }
    // Synthetic charge for consuming the caller's rank list.
    ctx.stats()
        .charge_reads((ranks.len() as u64).div_ceil(ctx.config().block_size() as u64));

    // Sorted, deduplicated working set.
    let mut sorted: Vec<u64> = ranks.to_vec();
    sorted.sort_unstable();
    sorted.dedup();

    let phase = ctx.stats().phase_guard("multi-select");
    let answers = multi_select_sorted(&ctx, segs, &sorted, &opts);
    drop(phase);
    let answers = answers?;

    // Map back to the caller's order.
    let out = ranks
        .iter()
        .map(|r| {
            let i = sorted.binary_search(r).expect("rank present");
            answers[i]
        })
        .collect();
    Ok(out)
}

/// [`multi_select_segs`] restricted to a rank window: `segs` hold the
/// elements of global ranks `(offset, offset + segs_len]` of some larger
/// dataset, and `ranks` are *global* ranks that must fall inside that
/// window. Used by serving layers that keep a pivot skeleton: a query
/// rank known to land in a segment is answered by selecting only within
/// it, at the segment's (smaller) linear cost. Answers come back in the
/// caller's order and are identical to selecting the same global ranks
/// on the full dataset.
pub fn multi_select_window<T: Record>(
    ctx: &EmContext,
    segs: &[EmFile<T>],
    offset: u64,
    ranks: &[u64],
    opts: MsOptions,
) -> Result<Vec<T>> {
    let n = segs_len(segs);
    let mut local = Vec::with_capacity(ranks.len());
    for &r in ranks {
        if r <= offset || r > offset.saturating_add(n) {
            return Err(EmError::config(format!(
                "global rank {r} outside segment window ({}, {}]",
                offset,
                offset + n
            )));
        }
        local.push(r - offset);
    }
    multi_select_segs(ctx, segs, &local, opts)
}

/// Core: `sorted` is ascending and distinct; `segs` is the input as a
/// segment list (single-element for a plain file).
fn multi_select_sorted<T: Record>(
    ctx: &EmContext,
    segs: &[EmFile<T>],
    sorted: &[u64],
    opts: &MsOptions,
) -> Result<Vec<T>> {
    let k = sorted.len();
    let m = base_case_capacity::<T>(ctx, opts);
    if k <= m {
        return base_case(ctx, segs, sorted, opts);
    }
    if opts.base_case == MsBaseCase::Pruned && opts.base_capacity_override.is_none() {
        // The pruned engine scales past the in-memory rank cap by keeping
        // the rank list itself in external memory: each recursion node
        // holds only a (start, end, offset) view of the sorted rank file
        // (rank ranges split contiguously across buckets), so no boundary
        // multi-partition prepass is needed.
        let mut w = ctx.writer::<u64>()?;
        for &r in sorted {
            w.push(r)?;
        }
        let rank_file = w.finish()?;
        let mut out = Vec::with_capacity(k);
        pruned_select_external(ctx, segs, &rank_file, 0, k as u64, 0, opts, &mut out)?;
        return Ok(out);
    }
    // General case: partition at every m-th target rank. Multi-partition
    // takes a single input file; flatten multi-segment inputs first (one
    // linear pass, only on this rare path).
    let flattened;
    let input = if segs.len() == 1 {
        &segs[0]
    } else {
        let mut w = ctx.writer::<T>()?;
        ChainReader::new(segs).for_each_slice(|chunk| w.push_all(chunk))?;
        flattened = w.finish()?;
        &flattened
    };
    let g = k.div_ceil(m);
    let boundaries: Vec<u64> = (1..g).map(|i| sorted[i * m - 1]).collect();
    let parts = multi_partition_at_ranks(input, &boundaries)?;
    debug_assert_eq!(parts.len(), g);
    let mut out = Vec::with_capacity(k);
    let mut prev_bound = 0u64;
    for (i, part) in parts.iter().enumerate() {
        let lo = i * m;
        let hi = ((i + 1) * m).min(k);
        let local: Vec<u64> = sorted[lo..hi].iter().map(|&r| r - prev_bound).collect();
        // The base case scans the partition's segments directly — no
        // flattening copy.
        out.extend(base_case(ctx, part.segments(), &local, opts)?);
        prev_bound += part.len();
    }
    Ok(out)
}

/// Base case (`K ≤ m` ranks, all 1-based within `input`, sorted and
/// distinct). Dispatches to the engine selected by
/// [`MsOptions::base_case`]; see [`MsBaseCase`] for the trade-off.
fn base_case<T: Record>(
    ctx: &EmContext,
    segs: &[EmFile<T>],
    ranks: &[u64],
    opts: &MsOptions,
) -> Result<Vec<T>> {
    if ranks.is_empty() {
        return Ok(Vec::new());
    }
    let n = segs_len(segs);
    debug_assert!(ranks.iter().all(|&r| r >= 1 && r <= n));
    if fits_in_memory::<T>(ctx, n) {
        let mut buf = load_segs(ctx, segs, "multi-select base buffer")?;
        return Ok(crate::internal::multi_select_in_mem(&mut buf, ranks));
    }

    match opts.base_case {
        MsBaseCase::Pruned => pruned_select(ctx, segs, ranks, opts),
        MsBaseCase::Intermixed => intermixed_base_case(ctx, segs, ranks, opts),
    }
}

/// The paper's §4.2 base case, verbatim: find Θ(m) splitters, count the
/// buckets, materialise the intermixed instance `D` (an element joins one
/// group per rank routed to its bucket), and finish with
/// [`intermixed_select`] in `O(|D|/B)`.
fn intermixed_base_case<T: Record>(
    ctx: &EmContext,
    segs: &[EmFile<T>],
    ranks: &[u64],
    _opts: &MsOptions,
) -> Result<Vec<T>> {
    let _phase = ctx.stats().phase_guard("multi-select/intermixed-base");
    // Θ(m) splitters of this partition in linear I/Os — the two-round
    // refined sampler keeps the instance |D| ≤ K·4n/f' at O(n) for
    // K up to the paper's m = Θ(M).
    let f = (4 * ranks.len()).max(max_deterministic_fanout_n::<T>(ctx, segs_len(segs)));
    let splitters = refined_splitters(ctx, segs, f)?;
    // The splitter array stays memory-resident for the rest of the base case.
    let _splitter_charge = ctx
        .mem()
        .try_charge(splitters.len() * T::WORDS, "base-case splitters")?;
    let counts = count_buckets_segs(ctx, segs, &splitters)?;
    let nb = counts.len();

    // Cumulative bucket sizes (memory-resident, Θ(m) words).
    let _cum_charge = ctx.try_charge_words(nb + 1, "bucket prefix sums")?;
    let mut cum = Vec::with_capacity(nb + 1);
    cum.push(0u64);
    for &c in &counts {
        cum.push(cum.last().unwrap() + c);
    }

    // For each rank, its bucket and in-bucket residual target.
    let _rank_charge = ctx.try_charge_words(2 * ranks.len(), "rank routing")?;
    let mut bucket_of_rank = Vec::with_capacity(ranks.len());
    let mut targets = Vec::with_capacity(ranks.len());
    for &r in ranks {
        // bucket j with cum[j] < r ≤ cum[j+1]
        let j = cum.partition_point(|&c| c < r) - 1;
        bucket_of_rank.push(j);
        targets.push(r - cum[j]);
    }

    // Materialise D: an element of bucket j joins group i for every rank i
    // routed to bucket j. (`bucket_of_rank` is ascending, so the groups of
    // a bucket form a contiguous index range.)
    let mut w = ctx.writer::<Tagged<T>>()?;
    {
        let mut r = ChainReader::new(segs);
        while let Some(x) = r.next()? {
            let j = bucket_of(&splitters, &x.key());
            let lo = bucket_of_rank.partition_point(|&b| b < j);
            let hi = bucket_of_rank.partition_point(|&b| b <= j);
            for i in lo..hi {
                w.push(Tagged::new(x, i as u32))?;
            }
        }
    }
    let d = w.finish()?;
    drop(splitters);

    intermixed_select(d, &targets)
}

/// Pruned-distribution selection for `K ≪ f` ranks: per level, find the
/// piece of every rank, drop the rank-free pieces (freeing storage costs no
/// I/O) and recurse into the rest. The active volume shrinks to
/// `≤ K · max_bucket ≤ 2Kn/f` per level, a geometric series, so the total is
/// `O(n/B)`.
fn pruned_select<T: Record>(
    ctx: &EmContext,
    segs: &[EmFile<T>],
    ranks: &[u64],
    opts: &MsOptions,
) -> Result<Vec<T>> {
    let n = segs_len(segs);
    // Trace-only span covering this whole recursion level (including the
    // per-piece recursive calls below), so traces show the tree depth.
    let _level = ctx
        .stats()
        .trace_span(|| format!("pruned n={n} k={}", ranks.len()));
    if fits_in_memory::<T>(ctx, n) {
        let mut buf = load_segs(ctx, segs, "pruned-select base buffer")?;
        return Ok(crate::internal::multi_select_in_mem(&mut buf, ranks));
    }
    let phase = ctx.stats().phase_guard("multi-select/pruned");
    let pieces = distribute_level(ctx, segs, level_fanout::<T>(ctx, n), opts.strategy)?;
    drop(phase);
    // Ranks are ascending and pieces ordered: each piece takes a run.
    let mut out = Vec::with_capacity(ranks.len());
    for piece in pieces {
        let lo = ranks.partition_point(|&r| r <= piece.start);
        let hi = ranks.partition_point(|&r| r <= piece.end());
        if lo == hi {
            continue; // rank-free: dropped here, storage freed
        }
        if piece.equal {
            out.extend(std::iter::repeat_n(any_record(&piece.file)?, hi - lo));
            continue;
        }
        let local: Vec<u64> = ranks[lo..hi].iter().map(|&r| r - piece.start).collect();
        let opts = MsOptions {
            strategy: piece.strategy,
            ..*opts
        };
        out.extend(pruned_select(
            ctx,
            std::slice::from_ref(&piece.file),
            &local,
            &opts,
        )?);
    }
    Ok(out)
}

/// The answer to every rank inside an equal slab: its first record (one
/// read).
fn any_record<T: Record>(slab: &EmFile<T>) -> Result<T> {
    slab.reader()?
        .next()?
        .ok_or_else(|| EmError::config("equal slab unexpectedly empty"))
}

/// Pruned selection with an *external* rank list: `rank_file[lo..hi)` are
/// the (sorted, distinct) global target ranks of this node, already offset
/// by `offset` (i.e. local rank = stored rank − offset). Because ranks are
/// sorted and pieces are ordered, each piece receives a contiguous
/// subrange of the rank file — recursion passes `(lo, hi, offset)` views,
/// never holding more than two blocks of ranks in memory.
#[allow(clippy::too_many_arguments)]
fn pruned_select_external<T: Record>(
    ctx: &EmContext,
    segs: &[EmFile<T>],
    rank_file: &EmFile<u64>,
    lo: u64,
    hi: u64,
    offset: u64,
    opts: &MsOptions,
    out: &mut Vec<T>,
) -> Result<()> {
    debug_assert!(lo < hi);
    let k = hi - lo;
    let n = segs_len(segs);
    // Trace-only span per recursion node (covers the recursive calls too).
    let _level = ctx.stats().trace_span(|| format!("pruned-ext n={n} k={k}"));
    // Few enough ranks: load this node's rank range and use the in-memory
    // rank machinery. The slice is held across the levels below, which
    // leave their caller two blocks of `T`: it gets no more, and its
    // reader is closed first.
    let slice_cap = 2 * ctx.config().block_records_for_width(T::WORDS) * T::WORDS;
    if k <= slice_cap as u64 {
        let mut ranks = ctx.try_tracked_words::<u64>(k as usize, "external rank slice")?;
        let mut r = rank_file.reader_at(lo)?;
        for _ in 0..k {
            let v = r
                .next()?
                .ok_or_else(|| EmError::config("rank range exceeds rank file"))?;
            ranks.push(v - offset);
        }
        drop(r);
        out.extend(base_case(ctx, segs, &ranks, opts)?);
        return Ok(());
    }
    // Many ranks on records that fit in memory: load them once and answer
    // the rank range in slices of `slice_cap`, streamed from the rank file.
    // Selecting a slice leaves the records above its last rank in the
    // suffix past it, which is where the next slice's ranks fall.
    if fits_in_memory::<T>(ctx, n) {
        let mut buf = load_segs(ctx, segs, "pruned-select base buffer")?;
        let mut ranks = ctx.try_tracked_words::<u64>(slice_cap, "external rank slice")?;
        let mut r = rank_file.reader_at(lo)?;
        let mut done = 0u64;
        for start in (lo..hi).step_by(slice_cap) {
            ranks.clear();
            for _ in start..hi.min(start + slice_cap as u64) {
                let v = r
                    .next()?
                    .ok_or_else(|| EmError::config("rank range exceeds rank file"))?;
                ranks.push(v - offset - done);
            }
            let suffix = &mut buf[done as usize..];
            out.extend(crate::internal::multi_select_in_mem(suffix, &ranks));
            done += ranks.last().copied().unwrap_or(0);
        }
        return Ok(());
    }
    // Many ranks on a large input: one distribution level, then route the
    // rank range to pieces by streaming it once.
    debug_assert!(k <= n);
    let pieces = distribute_level(ctx, segs, level_fanout::<T>(ctx, n), opts.strategy)?;
    let mut ranges: Vec<(u64, u64, usize)> = Vec::new();
    {
        let mut r = rank_file.reader_at(lo)?;
        let mut cursor = lo;
        for (j, piece) in pieces.iter().enumerate() {
            let upper = offset + piece.end(); // global ranks ≤ upper fall in piece j
            let start = cursor;
            while cursor < hi {
                match r.peek()? {
                    Some(v) if v <= upper => {
                        r.next()?;
                        cursor += 1;
                    }
                    _ => break,
                }
            }
            if cursor > start {
                ranges.push((start, cursor, j));
            }
        }
        debug_assert_eq!(cursor, hi, "every rank routed to a piece");
    }
    for (start, end, j) in ranges {
        let piece = &pieces[j];
        if piece.equal {
            out.extend(std::iter::repeat_n(
                any_record(&piece.file)?,
                (end - start) as usize,
            ));
            continue;
        }
        let opts = MsOptions {
            strategy: piece.strategy,
            ..*opts
        };
        pruned_select_external(
            ctx,
            std::slice::from_ref(&piece.file),
            rank_file,
            start,
            end,
            offset + piece.start,
            &opts,
            out,
        )?;
    }
    Ok(())
}

/// The element of 1-based rank `rank` of `input` in `O(N/B)` I/Os.
pub fn select_rank<T: Record>(input: &EmFile<T>, rank: u64) -> Result<T> {
    Ok(multi_select(input, &[rank])?[0])
}

/// The `(1/q)`-quantiles of `input`: the elements of ranks
/// `round(i·N/q)` for `i = 1..q-1` (the bucket boundaries of a `q`-bucket
/// equi-depth histogram).
pub fn quantiles<T: Record>(input: &EmFile<T>, q: u64) -> Result<Vec<T>> {
    let n = input.len();
    if q < 1 {
        return Err(EmError::config("quantile count must be ≥ 1"));
    }
    if q == 1 || n == 0 {
        return Ok(Vec::new());
    }
    let ranks: Vec<u64> = (1..q).map(|i| ((i * n) / q).max(1)).collect();
    multi_select(input, &ranks)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn in_memory_path() {
        let c = strict_ctx();
        let f = EmFile::from_slice(&c, &shuffled(60, 1)).unwrap();
        let got = multi_select(&f, &[1, 30, 60]).unwrap();
        assert_eq!(got, vec![0, 29, 59]);
    }

    #[test]
    fn base_case_external_path() {
        let c = strict_ctx();
        let n = 5000u64;
        let f = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(n, 2)))
            .unwrap();
        let ranks = vec![1, 1000, 2500, 4999, 5000];
        let got = multi_select(&f, &ranks).unwrap();
        let want: Vec<u64> = ranks.iter().map(|&r| r - 1).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn general_case_many_ranks() {
        let c = strict_ctx();
        let n = 20_000u64;
        let f = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(n, 3)))
            .unwrap();
        // K far above the tiny config's base capacity
        let k = 200u64;
        let ranks: Vec<u64> = (1..=k).map(|i| i * (n / k)).collect();
        let got = multi_select(&f, &ranks).unwrap();
        let want: Vec<u64> = ranks.iter().map(|&r| r - 1).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn unsorted_and_duplicate_ranks() {
        let c = strict_ctx();
        let f = EmFile::from_slice(&c, &shuffled(1000, 4)).unwrap();
        let ranks = vec![500, 1, 500, 999, 2];
        let got = multi_select(&f, &ranks).unwrap();
        assert_eq!(got, vec![499, 0, 499, 998, 1]);
    }

    #[test]
    fn rank_out_of_range_rejected() {
        let c = strict_ctx();
        let f = EmFile::from_slice(&c, &[1u64, 2, 3]).unwrap();
        assert!(multi_select(&f, &[0]).is_err());
        assert!(multi_select(&f, &[4]).is_err());
    }

    #[test]
    fn empty_ranks_ok() {
        let c = strict_ctx();
        let f = EmFile::from_slice(&c, &[1u64]).unwrap();
        assert!(multi_select(&f, &[]).unwrap().is_empty());
    }

    #[test]
    fn duplicate_keys_in_data() {
        let c = strict_ctx();
        let data: Vec<u64> = (0..3000u64).map(|i| i % 5).collect();
        let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let ranks = vec![1, 600, 601, 1500, 3000];
        let got = multi_select(&f, &ranks).unwrap();
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let want: Vec<u64> = ranks.iter().map(|&r| sorted[(r - 1) as usize]).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn randomized_strategy_matches() {
        let c = strict_ctx();
        let n = 8000u64;
        let f = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(n, 5)))
            .unwrap();
        let ranks: Vec<u64> = vec![7, 77, 777, 7777];
        let got = multi_select_with(
            &f,
            &ranks,
            MsOptions {
                strategy: SplitterStrategy::Randomized { seed: 99 },
                base_capacity_override: None,
                base_case: MsBaseCase::default(),
            },
        )
        .unwrap();
        let want: Vec<u64> = ranks.iter().map(|&r| r - 1).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn select_rank_single() {
        let c = strict_ctx();
        let f = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(4000, 6)))
            .unwrap();
        assert_eq!(select_rank(&f, 2000).unwrap(), 1999);
        assert_eq!(select_rank(&f, 1).unwrap(), 0);
        assert_eq!(select_rank(&f, 4000).unwrap(), 3999);
    }

    #[test]
    fn quantiles_equi_depth() {
        let c = strict_ctx();
        let n = 1000u64;
        let f = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(n, 7)))
            .unwrap();
        let q = quantiles(&f, 4).unwrap();
        assert_eq!(q, vec![249, 499, 749]);
        assert!(quantiles(&f, 1).unwrap().is_empty());
    }

    #[test]
    fn small_base_capacity_override_still_correct() {
        let c = strict_ctx();
        let n = 6000u64;
        let f = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(n, 8)))
            .unwrap();
        let ranks: Vec<u64> = (1..=30).map(|i| i * 200).collect();
        let got = multi_select_with(
            &f,
            &ranks,
            MsOptions {
                strategy: SplitterStrategy::Deterministic,
                base_capacity_override: Some(3),
                base_case: MsBaseCase::default(),
            },
        )
        .unwrap();
        let want: Vec<u64> = ranks.iter().map(|&r| r - 1).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn external_rank_path_correct() {
        // K far beyond the in-memory rank cap at the tiny config forces
        // the external-rank pruned recursion.
        let c = strict_ctx();
        let n = 4000u64;
        let f = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(n, 77)))
            .unwrap();
        let k = 500u64;
        let ranks: Vec<u64> = (1..=k).map(|i| (i * n) / k).collect();
        let got = multi_select(&f, &ranks).unwrap();
        let want: Vec<u64> = ranks.iter().map(|&r| r - 1).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn external_rank_path_clustered_ranks() {
        let c = strict_ctx();
        let n = 4000u64;
        let f = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(n, 78)))
            .unwrap();
        // 300 ranks all inside a narrow window.
        let ranks: Vec<u64> = (0..300u64).map(|i| 1700 + i).collect();
        let got = multi_select(&f, &ranks).unwrap();
        let want: Vec<u64> = ranks.iter().map(|&r| r - 1).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn external_rank_path_duplicate_dominated() {
        let c = strict_ctx();
        let n = 4000u64;
        let data: Vec<u64> = (0..n).map(|i| if i % 10 == 0 { i } else { 7 }).collect();
        let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let k = 400u64;
        let ranks: Vec<u64> = (1..=k).map(|i| (i * n) / k).collect();
        let got = multi_select(&f, &ranks).unwrap();
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let want: Vec<u64> = ranks.iter().map(|&r| sorted[(r - 1) as usize]).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn external_rank_leaves_stay_within_memory() {
        // 4,096 ranks at M = 4,096 words go to a rank file; every leaf of
        // the external recursion holds its rank slice across the levels
        // below it, which leave their caller two blocks.
        let (m, n) = (4_096, 200_000u64);
        let c = EmContext::new_in_memory_strict(EmConfig::medium());
        assert_eq!(c.mem_budget(), m);
        let f = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(n, 79)))
            .unwrap();
        let ranks: Vec<u64> = (1..=4_096u64).map(|i| i * n / 4_097).collect();
        let got = multi_select(&f, &ranks).unwrap();
        let want: Vec<u64> = ranks.iter().map(|&r| r - 1).collect();
        assert_eq!(got, want);
        assert!(c.mem().peak() <= m, "peak {}", c.mem().peak());
    }

    #[test]
    fn window_select_matches_full_select() {
        let c = strict_ctx();
        let n = 3000u64;
        let data = shuffled(n, 11);
        let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let mut sorted = data.clone();
        sorted.sort_unstable();
        // Cut out the exact rank window (1000, 2000] as its own segment.
        let window: Vec<u64> = sorted[1000..2000].to_vec();
        let seg = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &window))
            .unwrap();
        let ranks = vec![1500u64, 1001, 2000, 1500];
        let got = multi_select_window(
            &c,
            std::slice::from_ref(&seg),
            1000,
            &ranks,
            MsOptions::default(),
        )
        .unwrap();
        let want = multi_select(&f, &ranks).unwrap();
        assert_eq!(got, want);
        // Out-of-window global ranks are rejected.
        for bad in [1000u64, 2001, 0] {
            assert!(multi_select_window(
                &c,
                std::slice::from_ref(&seg),
                1000,
                &[bad],
                MsOptions::default()
            )
            .is_err());
        }
    }

    #[test]
    fn linear_io_for_small_k() {
        // Theorem 4's headline: for K ≤ m the cost is O(N/B) — a bounded
        // number of scans, NOT the sort bound.
        let c = EmContext::new_in_memory(EmConfig::medium());
        let n = 200_000u64;
        let f = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(n, 9)))
            .unwrap();
        let before = c.stats().snapshot();
        let ranks = vec![n / 4, n / 2, 3 * n / 4];
        let _ = multi_select(&f, &ranks).unwrap();
        let ios = c.stats().snapshot().since(&before).total_ios();
        let scan = n.div_ceil(64);
        assert!(
            ios <= 30 * scan,
            "multi-select of 3 ranks took {ios} I/Os = {:.1} scans",
            ios as f64 / scan as f64
        );
    }
}
