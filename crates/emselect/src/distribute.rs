//! One-pass distribution of a file into buckets around splitters.
//!
//! The write half of distribution sort [Aggarwal & Vitter 1988]: one reader
//! plus `f` buffered writers route every record to its bucket in a single
//! scan (`2·n/B` I/Os counting the writes). Memory: `(f + 1)` block buffers
//! plus the `f − 1` memory-resident splitters, which caps the fan-out at
//! [`max_distribution_fanout`].

use emcore::{EmConfig, EmContext, EmError, EmFile, Record, Result, Writer};

use crate::partition_out::ChainReader;
use crate::sample_splitters::bucket_of;

/// Largest distribution fan-out that fits the memory budget for record
/// type `T`: `f` writer block buffers + 1 reader block buffer + `f`
/// memory-resident splitter records must total at most `M` words. A block
/// buffer holds [`EmConfig::block_records_for_width`] records, so it costs
/// `B` words when the record width divides `B`.
pub fn max_distribution_fanout<T: Record>(config: EmConfig) -> usize {
    fanout_for_budget::<T>(config, config.mem_capacity())
}

/// [`max_distribution_fanout`] against the *live* budget of `ctx` rather
/// than the static configuration: a governor squeeze narrows the feasible
/// fan-out (and with it the per-pass splitter count `L`), so distribution
/// passes started after the squeeze use fewer, coarser buckets.
pub fn max_distribution_fanout_now<T: Record>(ctx: &EmContext) -> usize {
    fanout_for_budget::<T>(ctx.config(), ctx.mem_budget())
}

fn fanout_for_budget<T: Record>(config: EmConfig, budget: usize) -> usize {
    let block_words = config.block_records_for_width(T::WORDS) * T::WORDS;
    let per_bucket = block_words + T::WORDS;
    // Reserve the scan reader's buffer plus two persistent caller-side
    // buffers (e.g. a partition sink's open writer held across the call).
    ((budget.saturating_sub(3 * block_words)) / per_bucket).max(2)
}

/// Distribute `input` into `splitters.len() + 1` bucket files: bucket `j`
/// receives keys in `(s_{j-1}, s_j]`. Splitters must be ascending.
///
/// Returns the bucket files in order; their lengths are the exact bucket
/// sizes.
pub fn distribute<T: Record>(input: &EmFile<T>, splitters: &[T]) -> Result<Vec<EmFile<T>>> {
    distribute_segs(input.ctx(), std::slice::from_ref(input), splitters)
}

/// [`distribute`] over a segment list.
pub fn distribute_segs<T: Record>(
    ctx: &EmContext,
    segs: &[EmFile<T>],
    splitters: &[T],
) -> Result<Vec<EmFile<T>>> {
    let f = splitters.len() + 1;
    // Validate against the static model bound; the live budget governs the
    // fan-out *chosen* by callers, while admission of an already-chosen
    // fan-out is enforced by the tracked buffer charges below.
    let fmax = max_distribution_fanout::<T>(ctx.config());
    if f > fmax {
        return Err(EmError::config(format!(
            "distribution fan-out {f} exceeds memory-feasible maximum {fmax}"
        )));
    }
    debug_assert!(
        splitters.windows(2).all(|w| w[0].key() <= w[1].key()),
        "splitters must be ascending"
    );
    let _phase = ctx.stats().phase_guard("distribute");
    let _splitter_charge = ctx
        .mem()
        .try_charge(splitters.len() * T::WORDS, "distribution splitters")?;
    let mut writers: Vec<Writer<T>> = (0..f).map(|_| ctx.writer::<T>()).collect::<Result<_>>()?;
    ChainReader::new(segs).for_each_slice(|chunk| {
        for &x in chunk {
            writers[bucket_of(splitters, &x.key())].push(x)?;
        }
        Ok(())
    })?;
    let mut out = Vec::with_capacity(f);
    for w in writers {
        out.push(w.finish()?);
    }
    Ok(out)
}

/// Split `input` into three files `(less, equal, greater)` relative to
/// `pivot` in one scan. The fallback of every distribution level of the
/// rank recursions (multi-partition, [`crate::split_at_rank`],
/// [`crate::multi_select`]) on inputs where a single key value dominates
/// (no splitter set can spread those).
pub fn three_way_split<T: Record>(
    input: &EmFile<T>,
    pivot: T::Key,
) -> Result<(EmFile<T>, EmFile<T>, EmFile<T>)> {
    three_way_split_segs(input.ctx(), std::slice::from_ref(input), pivot)
}

/// [`three_way_split`] over a segment list.
pub fn three_way_split_segs<T: Record>(
    ctx: &EmContext,
    segs: &[EmFile<T>],
    pivot: T::Key,
) -> Result<(EmFile<T>, EmFile<T>, EmFile<T>)> {
    let mut less = ctx.writer::<T>()?;
    let mut equal = ctx.writer::<T>()?;
    let mut greater = ctx.writer::<T>()?;
    ChainReader::new(segs).for_each_slice(|chunk| {
        for &x in chunk {
            match x.key().cmp(&pivot) {
                std::cmp::Ordering::Less => less.push(x)?,
                std::cmp::Ordering::Equal => equal.push(x)?,
                std::cmp::Ordering::Greater => greater.push(x)?,
            }
        }
        Ok(())
    })?;
    Ok((less.finish()?, equal.finish()?, greater.finish()?))
}

/// Stream-copy a file into a writer-like sink function (`ceil(n/B)` reads
/// plus the sink's writes).
pub fn stream_into<T: Record>(
    input: &EmFile<T>,
    mut push: impl FnMut(T) -> Result<()>,
) -> Result<()> {
    let mut r = input.reader()?;
    while let Some(x) = r.next()? {
        push(x)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use emcore::{EmConfig, EmContext, KeyValue};

    fn ctx() -> EmContext {
        EmContext::new_in_memory_strict(EmConfig::tiny())
    }

    #[test]
    fn distributes_by_ranges() {
        let c = ctx();
        let data: Vec<u64> = (0..100).rev().collect();
        let f = EmFile::from_slice(&c, &data).unwrap();
        let splitters: Vec<u64> = vec![24, 49, 74];
        let buckets = distribute(&f, &splitters).unwrap();
        assert_eq!(buckets.len(), 4);
        let sizes: Vec<u64> = buckets.iter().map(|b| b.len()).collect();
        assert_eq!(sizes, vec![25, 25, 25, 25]);
        // bucket 1 = (24, 49]
        let mut b1 = buckets[1].to_vec().unwrap();
        b1.sort_unstable();
        assert_eq!(b1, (25..=49).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_buckets_allowed() {
        let c = ctx();
        let f = EmFile::from_slice(&c, &[100u64, 101, 102]).unwrap();
        let buckets = distribute(&f, &[5u64, 10]).unwrap();
        assert_eq!(buckets[0].len(), 0);
        assert_eq!(buckets[1].len(), 0);
        assert_eq!(buckets[2].len(), 3);
    }

    #[test]
    fn boundary_keys_go_left() {
        let c = ctx();
        let f = EmFile::from_slice(&c, &[10u64, 10, 11]).unwrap();
        let buckets = distribute(&f, &[10u64]).unwrap();
        assert_eq!(buckets[0].len(), 2); // key == splitter → left bucket (s_{j-1}, s_j]
        assert_eq!(buckets[1].len(), 1);
    }

    #[test]
    fn fanout_cap_enforced() {
        let c = ctx();
        let f = EmFile::from_slice(&c, &[1u64]).unwrap();
        let fmax = max_distribution_fanout::<u64>(c.config());
        let too_many: Vec<u64> = (0..fmax as u64 + 1).collect();
        assert!(distribute(&f, &too_many).is_err());
    }

    #[test]
    fn fanout_formula_fits_strict_memory() {
        let c = ctx();
        let fmax = max_distribution_fanout::<u64>(c.config());
        let n = 2000u64;
        let data: Vec<u64> = (0..n).rev().collect();
        let file = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let splitters: Vec<u64> = (1..fmax as u64).map(|i| i * n / fmax as u64).collect();
        // Must not panic in strict mode.
        let buckets = distribute(&file, &splitters).unwrap();
        assert_eq!(buckets.iter().map(|b| b.len()).sum::<u64>(), n);
    }

    #[test]
    fn wide_record_fanout_counts_a_block_as_its_words() {
        // A writer holds 8 `KeyValue`s (16 words) at M = 256, B = 16:
        // (256 − 3·16) / (16 + 2) = 11 buckets, not (256 − 3·32) / 34 = 4.
        let c = ctx();
        let fmax = max_distribution_fanout::<KeyValue>(c.config());
        assert_eq!(fmax, 11);
        let n = 2000u64;
        let data: Vec<KeyValue> = (0..n)
            .rev()
            .map(|k| KeyValue { key: k, value: k })
            .collect();
        let file = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let splitters: Vec<KeyValue> = (1..fmax as u64)
            .map(|i| KeyValue {
                key: i * n / fmax as u64,
                value: 0,
            })
            .collect();
        c.mem().reset_peak();
        let buckets = distribute(&file, &splitters).unwrap();
        assert_eq!(buckets.len(), 11);
        assert_eq!(buckets.iter().map(|b| b.len()).sum::<u64>(), n);
        assert!(c.mem().peak() <= 256, "peak {}", c.mem().peak());
    }

    #[test]
    fn distribution_io_is_two_scans() {
        let c = ctx();
        let n = 1600u64; // 100 blocks
        let data: Vec<u64> = (0..n).collect();
        let file = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let before = c.stats().snapshot();
        let buckets = distribute(&file, &[799u64]).unwrap();
        let d = c.stats().snapshot().since(&before);
        assert_eq!(d.reads, 100);
        // writes: each bucket is 800 records = 50 blocks
        assert_eq!(d.writes, 100);
        assert_eq!(buckets[0].len(), 800);
    }

    #[test]
    fn three_way_split_partitions() {
        let c = ctx();
        let data: Vec<u64> = vec![5, 1, 5, 9, 5, 0, 7];
        let f = EmFile::from_slice(&c, &data).unwrap();
        let (l, e, g) = three_way_split(&f, 5).unwrap();
        let mut lv = l.to_vec().unwrap();
        lv.sort_unstable();
        assert_eq!(lv, vec![0, 1]);
        assert_eq!(e.to_vec().unwrap(), vec![5, 5, 5]);
        let mut gv = g.to_vec().unwrap();
        gv.sort_unstable();
        assert_eq!(gv, vec![7, 9]);
    }
}
