//! Exact rank split: divide `S` into its `count` smallest records and the
//! rest, in `O(n/B)` I/Os.
//!
//! The workhorse behind the two-sided algorithms' `S_low`/`S_high` split
//! (paper §5.1–5.2) and the §3 reduction's residue cuts. One distribution
//! level routes everything into `f` buckets; every bucket left of the cut
//! is adopted into the low [`Partition`] (O(1), no I/O), every bucket
//! right of it into the high one, and only the single boundary bucket
//! recurses — so the total cost telescopes to `O(n/B)` with roughly one
//! sample pass plus one distribution pass. A boundary bucket that fits in
//! memory is loaded a block at a time and cut with one in-place selection
//! (`select_nth_unstable`), not a sort. On an input one key value
//! dominates, the level splits three ways around it and a cut among the
//! equal records is made by position.

use emcore::{EmContext, EmError, EmFile, Record, Result};

use crate::internal::select_rank_in_mem;
use crate::level::{distribute_level, fits_in_memory, level_fanout};
use crate::partition_out::{load_segs, segs_len, ChainReader, Partition};
use crate::sample_splitters::SplitterStrategy;

/// Split `input` into `(low, high, boundary)` where `low` holds exactly
/// the `count` smallest records, `high` the rest, and `boundary` is the
/// maximum record of `low` (the element of rank `count`).
///
/// Duplicate keys are handled exactly: records whose key equals the
/// boundary's are routed low until the quota is met.
pub fn split_at_rank<T: Record>(
    input: &EmFile<T>,
    count: u64,
) -> Result<(Partition<T>, Partition<T>, T)> {
    split_at_rank_segs(
        input.ctx(),
        std::slice::from_ref(input),
        count,
        SplitterStrategy::Deterministic,
    )
}

/// [`split_at_rank`] over a segment list, with an explicit sampling
/// strategy.
pub fn split_at_rank_segs<T: Record>(
    ctx: &EmContext,
    segs: &[EmFile<T>],
    count: u64,
    strategy: SplitterStrategy,
) -> Result<(Partition<T>, Partition<T>, T)> {
    let n = segs_len(segs);
    if count == 0 || count > n {
        return Err(EmError::config(format!(
            "split rank {count} out of range [1, {n}]"
        )));
    }
    let _phase = ctx.stats().phase_guard("split-at-rank");
    split_rec(ctx, segs, count, strategy)
}

fn split_rec<T: Record>(
    ctx: &EmContext,
    segs: &[EmFile<T>],
    count: u64,
    strategy: SplitterStrategy,
) -> Result<(Partition<T>, Partition<T>, T)> {
    let n = segs_len(segs);
    debug_assert!(count >= 1 && count <= n);
    if fits_in_memory::<T>(ctx, n) {
        // In-memory: select, then write the two sides exactly.
        let mut buf = load_segs(ctx, segs, "rank-split base buffer")?;
        let boundary = select_rank_in_mem(&mut buf, count);
        let idx = (count - 1) as usize;
        let mut low = ctx.writer::<T>()?;
        low.push_all(&buf[..=idx])?;
        let mut high = ctx.writer::<T>()?;
        high.push_all(&buf[idx + 1..])?;
        return Ok((
            Partition::from_file(low.finish()?),
            Partition::from_file(high.finish()?),
            boundary,
        ));
    }

    // Adopt every piece but the one holding the cut; only that one is read.
    let pieces = distribute_level(ctx, segs, level_fanout::<T>(ctx, n), strategy)?;
    let mut low = Partition::empty();
    let mut high = Partition::empty();
    let mut boundary: Option<T> = None;
    for piece in pieces {
        if piece.start >= count {
            high.push_segment(piece.file);
        } else if piece.end() < count {
            low.push_segment(piece.file);
        } else if piece.end() == count {
            // Cut aligns with the piece's right edge: the boundary is the
            // piece's max record (one scan of this piece only).
            let mut mx: Option<T> = None;
            ChainReader::new(std::slice::from_ref(&piece.file)).for_each_slice(|chunk| {
                for &x in chunk {
                    if mx.is_none_or(|m| x.key() >= m.key()) {
                        mx = Some(x);
                    }
                }
                Ok(())
            })?;
            boundary = mx;
            low.push_segment(piece.file);
        } else if piece.equal {
            // The cut lands among interchangeable records: split the slab
            // by position.
            let (l, h, b) = cut_slab(ctx, &piece.file, count - piece.start)?;
            low.push_segment(l);
            high.push_segment(h);
            boundary = Some(b);
        } else {
            let local = count - piece.start;
            let (l, h, b) = split_rec(
                ctx,
                std::slice::from_ref(&piece.file),
                local,
                piece.strategy,
            )?;
            for seg in l.into_segments() {
                low.push_segment(seg);
            }
            for seg in h.into_segments() {
                high.push_segment(seg);
            }
            boundary = Some(b);
        }
    }
    Ok((low, high, boundary.expect("cut piece processed")))
}

/// The first `quota` records of `slab` and the rest, in one read and one
/// write pass, with the last record of the first part.
fn cut_slab<T: Record>(
    ctx: &EmContext,
    slab: &EmFile<T>,
    quota: u64,
) -> Result<(EmFile<T>, EmFile<T>, T)> {
    let mut low = ctx.writer::<T>()?;
    let mut high = ctx.writer::<T>()?;
    let mut taken = 0u64;
    let mut last: Option<T> = None;
    let mut r = slab.reader()?;
    while let Some(x) = r.next()? {
        if taken < quota {
            low.push(x)?;
            taken += 1;
            last = Some(x);
        } else {
            high.push(x)?;
        }
    }
    Ok((low.finish()?, high.finish()?, last.expect("quota ≥ 1")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{distribute_segs, sample_splitters_segs};
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

    fn check(data: &[u64], count: u64) {
        let c = strict_ctx();
        let f = c.stats().paused(|| EmFile::from_slice(&c, data)).unwrap();
        let (low, high, boundary) = split_at_rank(&f, count).unwrap();
        assert_eq!(low.len(), count);
        assert_eq!(high.len(), data.len() as u64 - count);
        let lv = low.to_vec().unwrap();
        let hv = high.to_vec().unwrap();
        let mut sorted = data.to_vec();
        sorted.sort_unstable();
        assert_eq!(boundary, sorted[(count - 1) as usize]);
        assert!(lv.iter().all(|&x| x <= boundary));
        assert!(hv.iter().all(|&x| x >= boundary));
        let mut all: Vec<u64> = lv.into_iter().chain(hv).collect();
        all.sort_unstable();
        assert_eq!(all, sorted);
    }

    #[test]
    fn small_in_memory() {
        check(&[5, 1, 4, 2, 3], 2);
        check(&[5, 1, 4, 2, 3], 5);
        check(&[7], 1);
    }

    #[test]
    fn large_external() {
        let data = shuffled(20_000, 3);
        check(&data, 1);
        check(&data, 7_777);
        check(&data, 20_000);
    }

    #[test]
    fn duplicates_exact_quota() {
        let mut data = vec![5u64; 5000];
        data.extend(0..100u64);
        data.extend(std::iter::repeat_n(900u64, 100));
        check(&data, 2600);
        check(&data, 100); // cut right at the end of the smalls
        check(&data, 101); // first equal
    }

    #[test]
    fn all_equal() {
        let data = vec![9u64; 3000];
        check(&data, 1500);
        check(&data, 1);
        check(&data, 3000);
    }

    #[test]
    fn out_of_range_rejected() {
        let c = strict_ctx();
        let f = EmFile::from_slice(&c, &[1u64, 2]).unwrap();
        assert!(split_at_rank(&f, 0).is_err());
        assert!(split_at_rank(&f, 3).is_err());
    }

    #[test]
    fn linear_io_with_adoption() {
        let c = EmContext::new_in_memory(EmConfig::medium());
        let n = 200_000u64;
        let f = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(n, 9)))
            .unwrap();
        let before = c.stats().snapshot();
        let _ = split_at_rank(&f, n / 3).unwrap();
        let ios = c.stats().snapshot().since(&before).total_ios();
        let scan = n.div_ceil(64);
        // Roughly: sample (~1.7 scans) + distribute (2 scans) + boundary
        // bucket recursion (small).
        assert!(
            ios <= 5 * scan,
            "split took {ios} I/Os = {:.2} scans",
            ios as f64 / scan as f64
        );
    }

    #[test]
    fn oversized_boundary_bucket_is_sampled_deterministically() {
        // Sorted blocks in shuffled block order: one stratified level
        // leaves a bucket far above 2n/f. At M = 2,048 and B = 64 it also
        // exceeds the load capacity (1,792 records), so a deterministic
        // sample of it writes its thinned sample, and a stratified one
        // writes nothing.
        let (m, b) = (2_048, 64u64);
        let n = 24_000u64;
        let data: Vec<u64> = shuffled(n / b, 4)
            .into_iter()
            .flat_map(|blk| blk * b..(blk + 1) * b)
            .collect();
        let fresh = || {
            let c = EmContext::new_in_memory_strict(EmConfig::new(m, b as usize).unwrap());
            let file = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
            (c, file)
        };

        // The first level, replayed as `split_rec` runs it: the cut is put
        // in the middle of its largest bucket.
        let (replay, file) = fresh();
        let segs = std::slice::from_ref(&file);
        let f = level_fanout::<u64>(&replay, n);
        let sp = sample_splitters_segs(&replay, segs, f, SplitterStrategy::Stratified).unwrap();
        let buckets = distribute_segs(&replay, segs, &sp).unwrap();
        let (j, largest) = buckets
            .iter()
            .map(|b| b.len())
            .enumerate()
            .max_by_key(|&(_, len)| len)
            .unwrap();
        assert!(
            largest * f as u64 > 2 * n && largest > 1_792,
            "{largest} of f = {f}"
        );
        let count = buckets[..j].iter().map(|b| b.len()).sum::<u64>() + largest / 2;

        // Its recursion samples deterministically: sampling writes.
        let (c, file) = fresh();
        let (low, high, boundary) = split_at_rank_segs(
            &c,
            std::slice::from_ref(&file),
            count,
            SplitterStrategy::Stratified,
        )
        .unwrap();
        let sampling = c
            .stats()
            .phase_totals()
            .into_iter()
            .find(|(name, _)| name == "sample-splitters")
            .map(|(_, io)| io)
            .unwrap();
        assert!(sampling.writes > 0, "sampling I/O {sampling:?}");
        assert!(c.mem().peak() <= m, "peak {}", c.mem().peak());
        assert_eq!(boundary, count - 1);
        let mut lv = low.to_vec().unwrap();
        let mut hv = high.to_vec().unwrap();
        lv.sort_unstable();
        hv.sort_unstable();
        assert!(lv.into_iter().eq(0..count));
        assert!(hv.into_iter().eq(count..n));
    }

    #[test]
    fn segmented_input() {
        let c = strict_ctx();
        let data = shuffled(5000, 4);
        let a = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &data[..2000]))
            .unwrap();
        let b = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &data[2000..]))
            .unwrap();
        let segs = vec![a, b];
        let (low, high, boundary) =
            split_at_rank_segs(&c, &segs, 1234, SplitterStrategy::Deterministic).unwrap();
        assert_eq!(low.len(), 1234);
        assert_eq!(high.len(), 5000 - 1234);
        assert_eq!(boundary, 1233);
    }
}
