//! One distribution level [Aggarwal & Vitter 1988], the step shared by the
//! rank recursions: multi-partition (§1.2, Lemma 5), the exact rank split
//! behind §5's `S_low`/`S_high`, and pruned multi-selection (Theorem 4),
//! with its ranks in memory or in a file.
//!
//! A level samples `f − 1` splitters and distributes its input into `f`
//! ordered buckets. When one bucket receives all `n` records, no splitter
//! set can spread the input (one key value dominates it), so the level
//! splits that bucket three ways around the most frequent key of its first
//! block. The `equal` slab's records share one key and are interchangeable:
//! a recursion cuts it anywhere or answers any rank inside it with any of
//! its records. Every piece carries the sampling strategy a recursion into
//! it uses: the level's, or `Deterministic` once the piece is larger than
//! the `2n/f` the deterministic sampler guarantees (`SplitterStrategy::for_piece`).
//!
//! A recursion keeps only its in-memory base case (`fits_in_memory`),
//! how it routes its ranks to the pieces, and what a piece becomes.

use emcore::{EmContext, EmFile, Record, Result};

use crate::distribute::{distribute_segs, max_distribution_fanout_now, three_way_split};
use crate::partition_out::segs_len;
use crate::sample_splitters::{
    max_deterministic_fanout_n, sample_splitters_segs, SplitterStrategy,
};

/// Whether `n` records are finished in memory: half the live budget leaves
/// room for the caller's rank arrays and block buffers, and a block always
/// fits.
pub(crate) fn fits_in_memory<T: Record>(ctx: &EmContext, n: u64) -> bool {
    n <= (ctx.mem_records::<T>() / 2).max(ctx.config().block_size()) as u64
}

/// The fan-out of a level over `n` records: as many buckets as the live
/// budget can write at once, capped where the deterministic sampler still
/// guarantees buckets of at most `2n/f` records.
pub(crate) fn level_fanout<T: Record>(ctx: &EmContext, n: u64) -> usize {
    max_distribution_fanout_now::<T>(ctx)
        .min(max_deterministic_fanout_n::<T>(ctx, n))
        .max(2)
}

/// One ordered piece of a level.
pub(crate) struct Piece<T: Record> {
    pub(crate) file: EmFile<T>,
    /// Records of the level in the pieces before this one.
    pub(crate) start: u64,
    /// The equal slab of a three-way split: one key throughout.
    pub(crate) equal: bool,
    /// How a recursion into this piece samples its splitters.
    pub(crate) strategy: SplitterStrategy,
}

impl<T: Record> Piece<T> {
    /// Records of the level up to and including this piece.
    pub(crate) fn end(&self) -> u64 {
        self.start + self.file.len()
    }
}

/// Sample `f − 1` splitters of `segs` with `strategy`, distribute, and
/// return the ordered pieces, falling back to a three-way split when one
/// bucket holds everything. Costs one sample plus one distribution pass,
/// and one more pass for the fallback.
pub(crate) fn distribute_level<T: Record>(
    ctx: &EmContext,
    segs: &[EmFile<T>],
    f: usize,
    strategy: SplitterStrategy,
) -> Result<Vec<Piece<T>>> {
    let n = segs_len(segs);
    let splitters = sample_splitters_segs(ctx, segs, f, strategy)?;
    let mut files = distribute_segs(ctx, segs, &splitters)?;
    drop(splitters);
    let mut equal = None;
    if let Some(j) = files.iter().position(|b| b.len() == n) {
        let full = files.swap_remove(j);
        let (less, eq, greater) = three_way_split(&full, dominant_key(&full)?)?;
        files = vec![less, eq, greater];
        equal = Some(1);
    }
    let mut start = 0;
    Ok(files
        .into_iter()
        .enumerate()
        .map(|(i, file)| {
            let piece = Piece {
                start,
                equal: equal == Some(i),
                strategy: strategy.for_piece(file.len(), n, f),
                file,
            };
            start = piece.end();
            piece
        })
        .collect())
}

/// The most frequent key of `file`'s first block. Any key present makes
/// the three-way split progress; the dominant one makes it progress most.
fn dominant_key<T: Record>(file: &EmFile<T>) -> Result<T::Key> {
    let ctx = file.ctx();
    let mut probe = ctx.try_tracked_vec::<T>(file.block_capacity(), "dominant key probe")?;
    file.read_block_into(0, &mut probe)?;
    let mut keys: Vec<T::Key> = probe.iter().map(|r| r.key()).collect();
    keys.sort_unstable();
    let mut best = &keys[..1];
    for run in keys.chunk_by(|a, b| a == b) {
        if run.len() > best.len() {
            best = run;
        }
    }
    Ok(best[0])
}
