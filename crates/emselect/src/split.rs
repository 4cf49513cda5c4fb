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
//! (`select_nth_unstable`), not a sort.

use emcore::{EmContext, EmError, EmFile, Record, Result};

use crate::distribute::{distribute_segs, max_distribution_fanout_now, three_way_split};
use crate::internal::select_rank_in_mem;
use crate::partition_out::{load_segs, segs_len, ChainReader, Partition};
use crate::sample_splitters::{
    max_deterministic_fanout_n, sample_splitters_segs, SplitterStrategy,
};

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
    let block = ctx.config().block_size();
    let mem_cap = (ctx.mem_records::<T>() / 2).max(block);

    if n as usize <= mem_cap {
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

    let f = max_deterministic_fanout_n::<T>(ctx, n)
        .min(max_distribution_fanout_now::<T>(ctx))
        .max(2);
    let splitters = sample_splitters_segs(ctx, segs, f, strategy)?;
    let buckets = distribute_segs(ctx, segs, &splitters)?;
    drop(splitters);

    // Locate the bucket containing the cut.
    let mut cum = 0u64;
    let mut j = buckets.len(); // bucket index holding rank `count`
    let mut cum_before = 0u64;
    for (i, b) in buckets.iter().enumerate() {
        if cum < count && count <= cum + b.len() {
            j = i;
            cum_before = cum;
        }
        cum += b.len();
    }
    debug_assert!(j < buckets.len(), "cut bucket must exist");

    if buckets[j].len() == n {
        // One key value dominates; split exactly with a three-way pass.
        return dominant_split(ctx, &buckets[j], count);
    }

    // Recurse only inside the boundary bucket; adopt everything else.
    let mut low = Partition::empty();
    let mut high = Partition::empty();
    let mut boundary: Option<T> = None;
    for (i, bucket) in buckets.into_iter().enumerate() {
        if i < j {
            low.push_segment(bucket);
        } else if i > j {
            high.push_segment(bucket);
        } else {
            let local = count - cum_before;
            if local == bucket.len() {
                // Cut aligns with the bucket's right edge: the boundary is
                // the bucket's max record (one scan of this bucket only).
                let mut mx: Option<T> = None;
                ChainReader::new(std::slice::from_ref(&bucket)).for_each_slice(|chunk| {
                    for &x in chunk {
                        if mx.is_none_or(|m| x.key() >= m.key()) {
                            mx = Some(x);
                        }
                    }
                    Ok(())
                })?;
                boundary = mx;
                low.push_segment(bucket);
            } else {
                let strategy = strategy.for_piece(bucket.len(), n, f);
                let (l, h, b) = split_rec(ctx, std::slice::from_ref(&bucket), local, strategy)?;
                for seg in l.into_segments() {
                    low.push_segment(seg);
                }
                for seg in h.into_segments() {
                    high.push_segment(seg);
                }
                boundary = Some(b);
            }
        }
    }
    Ok((low, high, boundary.expect("cut bucket processed")))
}

/// Exact split of a single-value-dominated file: one counting pass plus
/// one quota-routing pass.
fn dominant_split<T: Record>(
    ctx: &EmContext,
    file: &EmFile<T>,
    count: u64,
) -> Result<(Partition<T>, Partition<T>, T)> {
    // Probe for the dominant key: most frequent key of the first block.
    let mut probe = ctx.try_tracked_vec::<T>(file.block_capacity(), "split pivot probe")?;
    file.read_block_into(0, &mut probe)?;
    let mut keys: Vec<T::Key> = probe.iter().map(|r| r.key()).collect();
    keys.sort_unstable();
    let mut pivot = keys[0];
    let mut best_run = 0usize;
    let mut i = 0usize;
    while i < keys.len() {
        let mut k = i;
        while k < keys.len() && keys[k] == keys[i] {
            k += 1;
        }
        if k - i > best_run {
            best_run = k - i;
            pivot = keys[i];
        }
        i = k;
    }
    drop(probe);

    let (less, equal, greater) = three_way_split(file, pivot)?;
    let nl = less.len();
    let ne = equal.len();
    if count <= nl {
        // The cut lies inside `less`: recurse there; `equal ∪ greater` all high.
        let (low, mut high, b) = split_rec(
            ctx,
            std::slice::from_ref(&less),
            count,
            SplitterStrategy::Deterministic,
        )?;
        high.push_segment(equal);
        high.push_segment(greater);
        return Ok((low, high, b));
    }
    if count <= nl + ne {
        // The cut lands among the equals: split the equal slab by position.
        let quota = count - nl;
        let mut lw = ctx.writer::<T>()?;
        let mut hw = ctx.writer::<T>()?;
        let mut taken = 0u64;
        let mut sample_equal: Option<T> = None;
        let mut r = equal.reader()?;
        while let Some(x) = r.next()? {
            if taken < quota {
                lw.push(x)?;
                taken += 1;
                sample_equal = Some(x);
            } else {
                hw.push(x)?;
            }
        }
        let mut low = Partition::from_file(less);
        low.push_segment(lw.finish()?);
        let mut high = Partition::from_file(hw.finish()?);
        high.push_segment(greater);
        return Ok((low, high, sample_equal.expect("quota ≥ 1")));
    }
    // The cut lies inside `greater`.
    let local = count - nl - ne;
    let (glow, ghigh, b) = split_rec(
        ctx,
        std::slice::from_ref(&greater),
        local,
        SplitterStrategy::Deterministic,
    )?;
    let mut low = Partition::from_file(less);
    low.push_segment(equal);
    for seg in glow.into_segments() {
        low.push_segment(seg);
    }
    Ok((low, ghigh, b))
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
        let f = max_deterministic_fanout_n::<u64>(&replay, n)
            .min(max_distribution_fanout_now::<u64>(&replay));
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
