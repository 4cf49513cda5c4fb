//! Multi-partition: split `S` into `K` ordered partitions of *given sizes*.
//!
//! The problem reviewed in the paper's §1.2: given `σ_1, …, σ_K` with
//! `Σσ_i = N`, produce partitions `P_1, …, P_K` with `|P_i| = σ_i` and
//! every element of `P_i` smaller than every element of `P_j` for `i < j`.
//! Solvable in `O((N/B)·lg_{M/B} K)` I/Os [Aggarwal & Vitter 1988], which
//! is optimal (paper Lemma 5).
//!
//! Implementation: recursive distribution. Each level finds `f − 1`
//! approximate even splitters ([`crate::sample_splitters`]; by default from
//! one seeded block per stratum, `O(M/B)` I/Os), distributes into `f`
//! buckets, and routes the target boundary ranks to buckets. A piece that a
//! level leaves larger than `2n/f` is sampled deterministically from there
//! down, so a sample that misjudges the input costs at most one extra
//! distribution pass per level. Buckets containing no interior
//! rank lie inside a single output partition and are emitted verbatim;
//! the rest recurse on geometrically smaller inputs. Memory-resident
//! subproblems finish by selection, not sorting: the load is read a block
//! at a time, `partition_at_ranks` places its local boundary
//! ranks in place, and the output sink cuts it there, so records inside a
//! partition stay unordered. Inputs dominated by one key
//! value (which no splitter set can spread) fall back to a three-way
//! split around that value; the `equal` slab is emitted directly since
//! its records are mutually interchangeable.
//!
//! Cost: `O(n/B)` per level times `O(1 + lg_{M/B} min{K, n/B})` levels.
//! Output partitions are [`Partition`] segment lists (the paper's linked
//! list), so a rank-free bucket is adopted as partition content in `O(1)`
//! — distribution levels cost exactly one read + one write pass.

use emcore::{EmContext, EmError, EmFile, Record, Result, Writer};

use crate::internal::partition_at_ranks;
use crate::level::{distribute_level, fits_in_memory, level_fanout};
use crate::partition_out::{load_segs, segs_len, ChainReader, Partition};
use crate::sample_splitters::SplitterStrategy;

/// Options controlling multi-partition (ablation hooks).
#[derive(Debug, Clone, Copy)]
pub struct MpOptions {
    /// Splitter sampling strategy. A piece that a level leaves larger than
    /// `2n/f` is sampled deterministically from there down, whatever the
    /// strategy.
    pub strategy: SplitterStrategy,
    /// Cap the distribution fan-out below the memory-feasible maximum
    /// (EX-A2 sweeps this). `None` = use the maximum.
    pub fanout_override: Option<usize>,
}

impl Default for MpOptions {
    /// Stratified sampling, at the maximum fan-out.
    fn default() -> Self {
        MpOptions {
            strategy: SplitterStrategy::Stratified,
            fanout_override: None,
        }
    }
}

/// Partition `input` into `sizes.len()` ordered partitions with exactly the
/// given sizes (`Σ sizes = input.len()`, zeros allowed). Returns one
/// [`Partition`] per requested size, in order — the paper's "linked list"
/// output.
pub fn multi_partition<T: Record>(input: &EmFile<T>, sizes: &[u64]) -> Result<Vec<Partition<T>>> {
    multi_partition_with(input, sizes, MpOptions::default())
}

/// [`multi_partition`] with explicit options.
pub fn multi_partition_with<T: Record>(
    input: &EmFile<T>,
    sizes: &[u64],
    opts: MpOptions,
) -> Result<Vec<Partition<T>>> {
    multi_partition_segs(input.ctx(), std::slice::from_ref(input), sizes, opts)
}

/// [`multi_partition`] over a segment list (e.g. a [`Partition`]'s
/// segments) — avoids flattening multi-segment inputs first.
pub fn multi_partition_segs<T: Record>(
    ctx: &EmContext,
    segs: &[EmFile<T>],
    sizes: &[u64],
    opts: MpOptions,
) -> Result<Vec<Partition<T>>> {
    let n = segs_len(segs);
    if sizes.is_empty() {
        return Err(EmError::config("multi-partition needs at least one size"));
    }
    let total: u64 = sizes.iter().sum();
    if total != n {
        return Err(EmError::config(format!(
            "partition sizes sum to {total}, input has {n} records"
        )));
    }
    let ctx = ctx.clone();
    // Synthetic charge for consuming the caller's size list (DESIGN.md,
    // model-fidelity notes).
    ctx.stats()
        .charge_reads((sizes.len() as u64).div_ceil(ctx.config().block_size() as u64));

    // Cumulative boundaries; the interior ones are the recursion's targets.
    let mut bounds = Vec::with_capacity(sizes.len());
    let mut acc = 0u64;
    for &s in sizes {
        acc += s;
        bounds.push(acc);
    }
    let mut interior: Vec<u64> = bounds[..bounds.len() - 1]
        .iter()
        .copied()
        .filter(|&r| r > 0 && r < n)
        .collect();
    interior.dedup();

    let _phase = ctx.stats().phase_guard("multi-partition");
    let mut sink = PartitionSink::new(&ctx, bounds)?;
    mp_rec(&ctx, MpInput::Borrowed(segs), &interior, &mut sink, &opts)?;
    let out = sink.finish()?;
    Ok(out)
}

/// Partition at explicit interior boundary *ranks* (strictly increasing,
/// in `(0, N)`): returns `ranks.len() + 1` partitions where partition `i`
/// holds the records of global ranks `(r_{i-1}, r_i]`.
pub fn multi_partition_at_ranks<T: Record>(
    input: &EmFile<T>,
    ranks: &[u64],
) -> Result<Vec<Partition<T>>> {
    let n = input.len();
    let mut sizes = Vec::with_capacity(ranks.len() + 1);
    let mut prev = 0u64;
    for &r in ranks {
        if r <= prev || r >= n {
            return Err(EmError::config(format!(
                "boundary ranks must be strictly increasing inside (0, {n}); got {r} after {prev}"
            )));
        }
        sizes.push(r - prev);
        prev = r;
    }
    sizes.push(n - prev);
    multi_partition(input, &sizes)
}

enum MpInput<'a, T: Record> {
    Borrowed(&'a [EmFile<T>]),
    Owned(EmFile<T>),
}

impl<T: Record> MpInput<'_, T> {
    fn segs(&self) -> &[EmFile<T>] {
        match self {
            MpInput::Borrowed(s) => s,
            MpInput::Owned(f) => std::slice::from_ref(f),
        }
    }
}

fn mp_rec<T: Record>(
    ctx: &EmContext,
    d: MpInput<'_, T>,
    ranks: &[u64], // strictly increasing, in (0, n): *local* boundary ranks
    sink: &mut PartitionSink<T>,
    opts: &MpOptions,
) -> Result<()> {
    let n = segs_len(d.segs());
    if n == 0 {
        return Ok(());
    }
    if ranks.is_empty() {
        // Whole input lies inside one output partition. Owned intermediates
        // are adopted as segments for free; borrowed inputs are streamed.
        return match d {
            MpInput::Owned(f) => sink.adopt_file(f),
            MpInput::Borrowed(segs) => {
                for f in segs {
                    sink.stream_file(f)?;
                }
                Ok(())
            }
        };
    }
    if fits_in_memory::<T>(ctx, n) {
        // Only the cuts need an order: select the boundary ranks in place
        // and stream the load through the sink, which cuts at them.
        let mut buf = load_segs(ctx, d.segs(), "multi-partition base case")?;
        partition_at_ranks(&mut buf, ranks);
        return sink.push_slice(&buf);
    }

    let fmax = level_fanout::<T>(ctx, n);
    let f = opts.fanout_override.map_or(fmax, |o| o.clamp(2, fmax));
    let pieces = distribute_level(ctx, d.segs(), f, opts.strategy)?;
    drop(d); // free the intermediate input before recursing
    for piece in pieces {
        let local = shift_ranks(ranks, piece.start, piece.file.len());
        if local.is_empty() {
            // No partition boundary strictly inside: the whole piece
            // becomes a segment of the current partition at zero I/O cost.
            sink.adopt_file(piece.file)?;
        } else if piece.equal {
            // Its records are interchangeable, so every cut is valid:
            // stream it through the boundary cuts.
            sink.stream_file(&piece.file)?;
        } else {
            let opts = MpOptions {
                strategy: piece.strategy,
                ..*opts
            };
            mp_rec(ctx, MpInput::Owned(piece.file), &local, sink, &opts)?;
        }
    }
    Ok(())
}

/// The ranks falling strictly inside `(offset, offset + size)`, shifted to
/// be local to that range.
fn shift_ranks(ranks: &[u64], offset: u64, size: u64) -> Vec<u64> {
    let lo = ranks.partition_point(|&r| r <= offset);
    // For an empty range (`size == 0`, possible when a three-way split
    // leaves a side bucket empty) a rank equal to `offset` makes the two
    // partition points cross (`lo > hi`); clamp — nothing is strictly
    // inside an empty range.
    let hi = ranks.partition_point(|&r| r < offset + size).max(lo);
    ranks[lo..hi].iter().map(|&r| r - offset).collect()
}

/// Routes an ordered stream of records and whole files into per-partition
/// segment lists, cutting at the given cumulative boundaries.
struct PartitionSink<T: Record> {
    ctx: EmContext,
    bounds: Vec<u64>,
    cur: usize,
    written: u64,
    /// Open streaming writer for the current partition (lazily created).
    buf: Option<Writer<T>>,
    /// Completed segments of the current partition.
    segs: Vec<EmFile<T>>,
    done: Vec<Partition<T>>,
}

impl<T: Record> PartitionSink<T> {
    fn new(ctx: &EmContext, bounds: Vec<u64>) -> Result<Self> {
        let mut s = Self {
            ctx: ctx.clone(),
            bounds,
            cur: 0,
            written: 0,
            buf: None,
            segs: Vec::new(),
            done: Vec::new(),
        };
        s.advance()?; // leading zero-size partitions
        Ok(s)
    }

    /// Append records in order, cutting them at every partition boundary
    /// they cross.
    fn push_slice(&mut self, mut recs: &[T]) -> Result<()> {
        while !recs.is_empty() {
            let Some(&bound) = self.bounds.get(self.cur) else {
                return Err(EmError::config(
                    "partition sink: pushed past the final boundary",
                ));
            };
            // `advance` has moved past every boundary already reached, so
            // the current partition has room for at least one record.
            let room = (bound - self.written).min(recs.len() as u64) as usize;
            let (head, rest) = recs.split_at(room);
            let w = match self.buf.as_mut() {
                Some(w) => w,
                None => self.buf.insert(self.ctx.writer::<T>()?),
            };
            w.push_all(head)?;
            self.written += room as u64;
            recs = rest;
            self.advance()?;
        }
        Ok(())
    }

    /// Adopt a whole file as a segment of the current partition — `O(1)`,
    /// no I/O. The file must fit inside the current partition (guaranteed
    /// for rank-free buckets, which never straddle a boundary).
    fn adopt_file(&mut self, file: EmFile<T>) -> Result<()> {
        if file.is_empty() {
            return Ok(());
        }
        let end = self.written + file.len();
        debug_assert!(
            self.cur < self.bounds.len() && end <= self.bounds[self.cur],
            "adopted file straddles a partition boundary"
        );
        self.flush_buf()?;
        self.segs.push(file);
        self.written = end;
        self.advance()
    }

    /// Stream a file a block at a time through the boundary cuts (used for
    /// borrowed rank-free inputs and the interchangeable equal slab).
    fn stream_file(&mut self, file: &EmFile<T>) -> Result<()> {
        ChainReader::new(std::slice::from_ref(file)).for_each_slice(|chunk| self.push_slice(chunk))
    }

    fn flush_buf(&mut self) -> Result<()> {
        if let Some(w) = self.buf.take() {
            if w.is_empty() {
                return Ok(());
            }
            self.segs.push(w.finish()?);
        }
        Ok(())
    }

    fn advance(&mut self) -> Result<()> {
        while self.cur < self.bounds.len() && self.written == self.bounds[self.cur] {
            self.flush_buf()?;
            let segs = std::mem::take(&mut self.segs);
            self.done.push(Partition::from_segments(segs));
            self.cur += 1;
        }
        Ok(())
    }

    fn finish(self) -> Result<Vec<Partition<T>>> {
        if self.cur != self.bounds.len() {
            return Err(EmError::config(format!(
                "partition sink finished early: {} of {} records routed",
                self.written,
                self.bounds.last().copied().unwrap_or(0)
            )));
        }
        Ok(self.done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        base_case_capacity, distribute_segs, multi_select_segs, sample_splitters_segs,
        split_at_rank_segs, MsOptions,
    };
    use emcore::{EmConfig, EmContext};

    fn ctx() -> EmContext {
        EmContext::new_in_memory_strict(EmConfig::tiny())
    }

    #[test]
    fn shift_ranks_tolerates_empty_bucket_at_rank_boundary() {
        // A three-way split can leave a side bucket empty; a rank landing
        // exactly on that bucket's offset used to cross the partition
        // points and panic on the slice.
        assert!(shift_ranks(&[409], 409, 0).is_empty());
        assert!(shift_ranks(&[409], 409, 1).is_empty());
        assert_eq!(shift_ranks(&[409], 408, 2), vec![1]);
    }

    fn shuffled(n: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n).collect();
        let mut s = 7u64;
        for i in (1..v.len()).rev() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            v.swap(i, j);
        }
        v
    }

    fn check_partitions(parts: &[Partition<u64>], sizes: &[u64]) {
        assert_eq!(parts.len(), sizes.len());
        let mut prev_max: Option<u64> = None;
        for (i, p) in parts.iter().enumerate() {
            assert_eq!(p.len(), sizes[i], "partition {i} size");
            if p.is_empty() {
                continue;
            }
            let v = p.to_vec().unwrap();
            let mn = *v.iter().min().unwrap();
            let mx = *v.iter().max().unwrap();
            if let Some(pm) = prev_max {
                assert!(mn >= pm, "partition {i} min {mn} < previous max {pm}");
            }
            prev_max = Some(mx + 1); // strict keys in these tests
        }
    }

    #[test]
    fn equal_sizes_small() {
        let c = ctx();
        let data = shuffled(100);
        let f = EmFile::from_slice(&c, &data).unwrap();
        let parts = multi_partition(&f, &[25, 25, 25, 25]).unwrap();
        check_partitions(&parts, &[25, 25, 25, 25]);
        // Exact contents of partition 0: values 0..25
        let mut p0 = parts[0].to_vec().unwrap();
        p0.sort_unstable();
        assert_eq!(p0, (0..25).collect::<Vec<u64>>());
    }

    #[test]
    fn equal_sizes_large_multilevel() {
        let c = ctx();
        let n = 30_000u64;
        let data = shuffled(n);
        let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let k = 8u64;
        let sizes = vec![n / k; k as usize];
        let parts = multi_partition(&f, &sizes).unwrap();
        check_partitions(&parts, &sizes);
    }

    #[test]
    fn uneven_sizes() {
        let c = ctx();
        let n = 5000u64;
        let f = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(n)))
            .unwrap();
        let sizes = vec![1, 4000, 9, 990];
        let parts = multi_partition(&f, &sizes).unwrap();
        check_partitions(&parts, &sizes);
        assert_eq!(parts[0].to_vec().unwrap(), vec![0]);
    }

    #[test]
    fn zero_sizes_produce_empty_partitions() {
        let c = ctx();
        let f = EmFile::from_slice(&c, &shuffled(50)).unwrap();
        let sizes = vec![0, 25, 0, 0, 25, 0];
        let parts = multi_partition(&f, &sizes).unwrap();
        check_partitions(&parts, &sizes);
    }

    #[test]
    fn single_partition_is_copy() {
        let c = ctx();
        let f = EmFile::from_slice(&c, &shuffled(40)).unwrap();
        let parts = multi_partition(&f, &[40]).unwrap();
        assert_eq!(parts.len(), 1);
        let mut v = parts[0].to_vec().unwrap();
        v.sort_unstable();
        assert_eq!(v, (0..40).collect::<Vec<u64>>());
    }

    #[test]
    fn size_sum_mismatch_rejected() {
        let c = ctx();
        let f = EmFile::from_slice(&c, &[1u64, 2, 3]).unwrap();
        assert!(multi_partition(&f, &[1, 1]).is_err());
        assert!(multi_partition(&f, &[]).is_err());
    }

    #[test]
    fn at_ranks_convention() {
        let c = ctx();
        let f = EmFile::from_slice(&c, &shuffled(100)).unwrap();
        let parts = multi_partition_at_ranks(&f, &[10, 60]).unwrap();
        check_partitions(&parts, &[10, 50, 40]);
        assert!(multi_partition_at_ranks(&f, &[0]).is_err());
        assert!(multi_partition_at_ranks(&f, &[100]).is_err());
        assert!(multi_partition_at_ranks(&f, &[5, 5]).is_err());
    }

    #[test]
    fn all_equal_keys_terminates() {
        let c = ctx();
        let data = vec![7u64; 3000];
        let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let parts = multi_partition(&f, &[1000, 1000, 1000]).unwrap();
        for p in &parts {
            assert_eq!(p.len(), 1000);
            assert!(p.to_vec().unwrap().iter().all(|&x| x == 7));
        }
    }

    #[test]
    fn duplicate_dominated_input_terminates() {
        let c = ctx();
        // 90% the value 5, rest spread
        let mut data: Vec<u64> = vec![5; 2700];
        data.extend(0..300u64);
        // interleave deterministically
        let mut s = 3u64;
        for i in (1..data.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            data.swap(i, (s >> 33) as usize % (i + 1));
        }
        let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let parts = multi_partition(&f, &[1500, 1500]).unwrap();
        let p0 = parts[0].to_vec().unwrap();
        let p1 = parts[1].to_vec().unwrap();
        assert_eq!(p0.len(), 1500);
        assert_eq!(p1.len(), 1500);
        let max0 = p0.iter().max().unwrap();
        let min1 = p1.iter().min().unwrap();
        assert!(max0 <= min1);
    }

    /// Input shapes that a block sample can misjudge, with `per_block`
    /// records to a block: random keys, few distinct keys, three keys,
    /// sorted, reversed, sorted blocks in shuffled block order,
    /// block-periodic (block `i` draws from key range `i mod 16`) and one
    /// dominant key.
    fn shape(i: u64, n: u64, per_block: u64, rng: &mut emcore::SplitMix64) -> Vec<u64> {
        match i % 8 {
            0 => (0..n).map(|_| rng.next_u64()).collect(),
            1 => (0..n).map(|_| rng.below(1 + n / 64)).collect(),
            2 => (0..n).map(|_| rng.below(3)).collect(),
            3 => (0..n).collect(),
            4 => (0..n).rev().collect(),
            5 => {
                let mut order: Vec<u64> = (0..n.div_ceil(per_block)).collect();
                for j in (1..order.len()).rev() {
                    order.swap(j, rng.below(j as u64 + 1) as usize);
                }
                order
                    .iter()
                    .flat_map(|&blk| blk * per_block..((blk + 1) * per_block).min(n))
                    .collect()
            }
            6 => {
                let span = n / 16 + 1;
                (0..n)
                    .map(|j| (j / per_block % 16) * span + rng.below(span))
                    .collect()
            }
            _ => (0..n)
                .map(|_| match rng.below(10) {
                    0 => rng.below(n),
                    _ => n / 2,
                })
                .collect(),
        }
    }

    /// Every rank recursion on one draw: multi-partition at random sizes,
    /// `split_at_rank_segs` at a random cut and `multi_select_segs` at the
    /// partition boundaries (on odd draws with more ranks than one base
    /// case takes, so the rank list goes external), each under both
    /// sampling strategies on a fresh strict context.
    #[test]
    fn random_geometries_partition_exactly() {
        let mut rng = emcore::SplitMix64::new(0xB10C);
        for trial in 0..48u64 {
            let b = [8usize, 16, 32, 64][rng.below(4) as usize];
            let m = b * [16usize, 32, 64][rng.below(3) as usize];
            let n = if trial % 4 == 3 {
                1 + rng.below(2 * b as u64)
            } else {
                1 + rng.below(12 * m as u64)
            };
            // Every fourth draw is a one- or two-block input; shifting the
            // shape by `trial / 4` gives each shape large draws too.
            let data = shape(trial / 4 + trial % 4, n, b as u64, &mut rng);
            // Sizes from random cuts: repeated cuts and cuts at 0 or n
            // leave empty partitions.
            let k = 1 + rng.below(40);
            let mut cuts: Vec<u64> = (1..k).map(|_| rng.below(n + 1)).collect();
            cuts.sort_unstable();
            cuts.push(n);
            let mut prev = 0;
            let mut sizes: Vec<u64> = cuts
                .iter()
                .map(|&c| {
                    let s = c - prev;
                    prev = c;
                    s
                })
                .collect();
            sizes.insert(rng.below(k + 1) as usize, 0);
            // The input as one to three segments, possibly one empty.
            let mut bounds = vec![0, n];
            bounds.extend((0..rng.below(3)).map(|_| rng.below(n + 1)));
            bounds.sort_unstable();
            let mut sorted = data.clone();
            sorted.sort_unstable();
            let split_cut = 1 + rng.below(n);
            let mut ranks: Vec<u64> = cuts.iter().copied().filter(|&r| r > 0).collect();
            if trial % 2 == 1 {
                let c = EmContext::new_in_memory_strict(EmConfig::new(m, b).unwrap());
                let extra =
                    (base_case_capacity::<u64>(&c, &MsOptions::default()) as u64 + 1).min(n);
                ranks.extend((0..extra).map(|i| 1 + i * n / extra));
            }
            // A fresh strict context holding the input's segments.
            let fresh = || {
                let c = EmContext::new_in_memory_strict(EmConfig::new(m, b).unwrap());
                let segs: Vec<EmFile<u64>> = bounds
                    .windows(2)
                    .map(|w| {
                        let chunk = &data[w[0] as usize..w[1] as usize];
                        c.stats().paused(|| EmFile::from_slice(&c, chunk)).unwrap()
                    })
                    .collect();
                (c, segs)
            };
            // The keys of a segment list, sorted, read without charge.
            let sorted_keys = |c: &EmContext, segs: &[EmFile<u64>]| {
                let mut v = Vec::new();
                c.stats()
                    .paused(|| {
                        ChainReader::new(segs).for_each_slice(|chunk| {
                            v.extend_from_slice(chunk);
                            Ok(())
                        })
                    })
                    .unwrap();
                v.sort_unstable();
                v
            };
            // Partition under `opts`; returns the I/Os it took.
            let run = |opts: MpOptions| -> u64 {
                let (c, segs) = fresh();
                let before = c.stats().snapshot();
                let parts = multi_partition_segs(&c, &segs, &sizes, opts).unwrap();
                let ios = c.stats().snapshot().since(&before).total_ios();
                // Each partition holds exactly its slice of the sorted
                // input: sizes, cross-partition order and the multiset in
                // one check.
                let what = format!("trial {trial} (M={m}, B={b}, n={n}, {:?})", opts.strategy);
                assert_eq!(parts.len(), sizes.len());
                let mut lo = 0usize;
                for (i, (p, &size)) in parts.iter().zip(&sizes).enumerate() {
                    assert_eq!(p.len(), size, "{what}: partition {i} size");
                    let hi = lo + size as usize;
                    let v = sorted_keys(&c, p.segments());
                    assert!(v[..] == sorted[lo..hi], "{what}: partition {i} keys");
                    lo = hi;
                }
                assert_eq!(lo as u64, n);
                assert!(c.mem().peak() <= m, "{what}: peak {}", c.mem().peak());
                ios
            };
            let deterministic = run(MpOptions {
                strategy: SplitterStrategy::Deterministic,
                fanout_override: None,
            });
            let stratified = run(MpOptions::default());
            assert!(
                stratified <= 2 * deterministic,
                "trial {trial} (M={m}, B={b}, n={n}): stratified {stratified} I/Os, \
                 deterministic {deterministic}"
            );
            for strategy in [
                SplitterStrategy::Deterministic,
                SplitterStrategy::Stratified,
            ] {
                let what = format!("trial {trial} (M={m}, B={b}, n={n}, {strategy:?})");
                let (c, segs) = fresh();
                let cut = split_cut as usize;
                let (low, high, boundary) = split_at_rank_segs(&c, &segs, split_cut, strategy)
                    .unwrap_or_else(|e| panic!("{what}: split at {cut}: {e}"));
                assert!(
                    sorted_keys(&c, low.segments())[..] == sorted[..cut],
                    "{what}: low side of {cut}"
                );
                assert!(
                    sorted_keys(&c, high.segments())[..] == sorted[cut..],
                    "{what}: high side of {cut}"
                );
                assert_eq!(boundary, sorted[cut - 1], "{what}: boundary of {cut}");
                assert!(c.mem().peak() <= m, "{what}: split peak {}", c.mem().peak());

                let (c, segs) = fresh();
                let opts = MsOptions {
                    strategy,
                    ..MsOptions::default()
                };
                let got = multi_select_segs(&c, &segs, &ranks, opts)
                    .unwrap_or_else(|e| panic!("{what}: {} ranks: {e}", ranks.len()));
                for (&r, &x) in ranks.iter().zip(&got) {
                    assert_eq!(x, sorted[r as usize - 1], "{what}: rank {r}");
                }
                assert!(
                    c.mem().peak() <= m,
                    "{what}: select peak {}",
                    c.mem().peak()
                );
            }
        }
    }

    #[test]
    fn oversized_piece_is_sampled_deterministically() {
        // Sorted blocks in shuffled order: a sampled block stands for one
        // narrow key range, so the gaps between sampled blocks leave some
        // buckets far larger than 2n/f. At M = 2,048 and B = 64 a piece
        // that large also exceeds the load capacity (1,792 records), so a
        // deterministic sample of it writes its thinned sample, and a
        // stratified one writes nothing.
        let (m, b) = (2_048, 64);
        let n = 24_000u64;
        let data = shape(5, n, b as u64, &mut emcore::SplitMix64::new(4));
        let input = |c: &EmContext| c.stats().paused(|| EmFile::from_slice(c, &data)).unwrap();

        // The first level, replayed as `mp_rec` runs it on a context of its
        // own, leaves a piece above 2n/f.
        let replay = EmContext::new_in_memory_strict(EmConfig::new(m, b).unwrap());
        let file = input(&replay);
        let segs = std::slice::from_ref(&file);
        let f = level_fanout::<u64>(&replay, n);
        assert_eq!(f, 28);
        let before = replay.stats().snapshot();
        let sp = sample_splitters_segs(&replay, segs, f, SplitterStrategy::Stratified).unwrap();
        let sampled = replay.stats().snapshot().since(&before);
        assert_eq!(
            (sampled.reads, sampled.writes),
            (28, 0),
            "one block per stratum"
        );
        let buckets = distribute_segs(&replay, segs, &sp).unwrap();
        let largest = buckets.iter().map(|b| b.len()).max().unwrap();
        assert_eq!(largest, 5_312);
        assert!(largest * f as u64 > 2 * n && largest > 1_792);

        // The recursion samples that piece deterministically: sampling
        // writes, which only the deterministic sampler does. With 64
        // partitions of 375 every piece that large holds a boundary.
        let c = EmContext::new_in_memory_strict(EmConfig::new(m, b).unwrap());
        let file = input(&c);
        let sizes = vec![n / 64; 64];
        let parts = multi_partition(&file, &sizes).unwrap();
        let sampling = c
            .stats()
            .phase_totals()
            .into_iter()
            .find(|(name, _)| name == "sample-splitters")
            .map(|(_, io)| io)
            .unwrap();
        assert!(sampling.writes > 0, "sampling I/O {sampling:?}");
        assert!(c.mem().peak() <= m, "peak {}", c.mem().peak());
        let mut sorted = data.clone();
        sorted.sort_unstable();
        for (i, p) in parts.iter().enumerate() {
            let mut v = c.stats().paused(|| p.to_vec()).unwrap();
            v.sort_unstable();
            let lo = i * 375;
            assert!(v[..] == sorted[lo..lo + 375], "partition {i}");
        }
    }

    #[test]
    fn io_scales_with_log_k() {
        // For fixed N, I/O should grow roughly with lg K, not linearly in K.
        let n = 40_000u64;
        let measure = |k: u64| -> u64 {
            let c = EmContext::new_in_memory(EmConfig::tiny());
            let f = c
                .stats()
                .paused(|| EmFile::from_slice(&c, &shuffled(n)))
                .unwrap();
            let sizes = vec![n / k; k as usize];
            let before = c.stats().snapshot();
            let _ = multi_partition(&f, &sizes).unwrap();
            c.stats().snapshot().since(&before).total_ios()
        };
        let io2 = measure(2);
        let io64 = measure(64);
        // 64 partitions needs more work than 2 but far less than 32x.
        assert!(io64 > io2, "io64={io64} io2={io2}");
        assert!(io64 < io2 * 8, "io64={io64} io2={io2}");
    }

    #[test]
    fn output_preserves_multiset() {
        let c = ctx();
        let data: Vec<u64> = (0..4000u64).map(|i| i % 97).collect();
        let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let parts = multi_partition(&f, &[1000, 1000, 1000, 1000]).unwrap();
        let mut all: Vec<u64> = Vec::new();
        for p in &parts {
            all.extend(p.to_vec().unwrap());
        }
        let mut want = data.clone();
        want.sort_unstable();
        all.sort_unstable();
        assert_eq!(all, want);
        // Boundaries respect the order under ≤ (ties may straddle a cut):
        // each partition's min is at least the previous partition's max.
        let mut prev_max: Option<u64> = None;
        for p in &parts {
            let v = p.to_vec().unwrap();
            let mn = *v.iter().min().unwrap();
            if let Some(pm) = prev_max {
                assert!(mn >= pm, "min {mn} < previous max {pm}");
            }
            prev_max = Some(*v.iter().max().unwrap());
        }
    }
}
