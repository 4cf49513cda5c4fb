//! Tournament (loser) tree for multiway merging.
//!
//! `k` key-sorted sources feed a complete binary tree whose internal nodes
//! remember the *loser* of each match, so extracting a record and
//! replaying its leaf-to-root path costs `⌈lg k⌉` comparisons.
//!
//! The kernel keeps everything the replay touches in one array of nodes:
//!
//! * An internal node holds the losing *record* itself, with the position
//!   of its source — not an index into a separate array of heads. The
//!   winner travels up the path in a local and lands in slot 0, from where
//!   the next [`LoserTree::pop`] takes it.
//! * A match compares `(key, position)` pairs, and the replay moves the
//!   pairs with selects rather than data-dependent branches. Positions
//!   follow the order of the sources, so equal keys leave in source order
//!   and every merge is deterministic and stable.
//! * The tree spans live sources only, so no node ever holds an
//!   "exhausted" marker that a match would have to test. When a source
//!   runs dry it leaves the tree, and the tree is rebuilt in `O(k)` from
//!   the `k − 1` losers in its nodes — at most once per source.
//!
//! The node array holds `k` records and `k` positions, inside the
//! `k·(T::WORDS + 2)` words that [`LoserTree::with_tracking`] charges.

use std::hint::select_unpredictable;

use emcore::{EmError, MemCharge, MemoryTracker, Reader, Record, Result};

/// A pull-based source of records, the input of a [`LoserTree`].
pub trait Source<T: Record> {
    /// Produce the next record, or `None` when exhausted.
    fn pull(&mut self) -> Result<Option<T>>;
}

impl<T: Record> Source<T> for Reader<'_, T> {
    fn pull(&mut self) -> Result<Option<T>> {
        self.next()
    }
}

/// A source over an in-memory slice (used for tests and for merging
/// memory-resident runs).
pub struct SliceSource<'a, T> {
    data: &'a [T],
    pos: usize,
}

impl<'a, T> SliceSource<'a, T> {
    /// Wrap a slice as a source.
    pub fn new(data: &'a [T]) -> Self {
        Self { data, pos: 0 }
    }
}

impl<T: Record> Source<T> for SliceSource<'_, T> {
    fn pull(&mut self) -> Result<Option<T>> {
        let rec = self.data.get(self.pos).copied();
        self.pos += usize::from(rec.is_some());
        Ok(rec)
    }
}

/// A record in the tree, with the position of the live source it came
/// from.
#[derive(Clone, Copy)]
struct Node<T> {
    rec: T,
    pos: usize,
}

impl<T: Record> Node<T> {
    /// Whether `self` leaves before `other`: a smaller key, or an equal key
    /// from an earlier source. The non-short-circuit `|` and `&` keep the
    /// test free of branches.
    #[inline(always)]
    fn beats(&self, other: &Self) -> bool {
        let (a, b) = (self.rec.key(), other.rec.key());
        (a < b) | ((a == b) & (self.pos < other.pos))
    }

    /// `a` if `pick_a`, else `b`, without a branch. Selecting field by
    /// field keeps a multi-word record in registers; a select of the whole
    /// node compiles to a detour through the stack.
    #[inline(always)]
    fn select(pick_a: bool, a: Self, b: Self) -> Self {
        Self {
            rec: select_unpredictable(pick_a, a.rec, b.rec),
            pos: select_unpredictable(pick_a, a.pos, b.pos),
        }
    }
}

/// The slot that holds leaf `pos` while a tree of `k` leaves is built:
/// the internal node whose right subtree has that leaf as its leftmost
/// leaf, or slot 0 for the leftmost leaf of the whole tree. Every leaf is
/// the leftmost leaf of exactly one such subtree, so this maps the `k`
/// leaves onto slots `0..k` one to one, and [`play`] reads each leaf
/// before it writes the slot that held it.
#[inline]
fn build_slot(k: usize, pos: usize) -> usize {
    // Leaf `pos` is node `k + pos`; climb while it is a left child.
    let top = (k + pos) >> (k + pos).trailing_zeros();
    top / 2
}

/// Play the matches of the subtree under node `n` of a `k`-leaf tree:
/// store each match's loser in its node and return the subtree's winner.
/// Leaves are read from their [`build_slot`]s.
fn play<T: Record>(nodes: &mut [Node<T>], k: usize, n: usize) -> Node<T> {
    if n >= k {
        return nodes[build_slot(k, n - k)];
    }
    let left = play(nodes, k, 2 * n);
    let right = play(nodes, k, 2 * n + 1);
    let (winner, loser) = if right.beats(&left) {
        (right, left)
    } else {
        (left, right)
    };
    nodes[n] = loser;
    winner
}

/// Loser tree over `k` sources. Yields records in nondecreasing key order,
/// assuming every source is itself key-sorted; equal keys leave in source
/// order.
///
/// Its state (`k` records and `k` positions) is metered against the
/// context if constructed via [`LoserTree::with_tracking`].
pub struct LoserTree<T: Record, S: Source<T>> {
    /// The live sources in their original order: a node's `pos` indexes
    /// this.
    live: Vec<S>,
    /// `nodes[0]` is the winner, the next record out. For `1 ≤ n < k`,
    /// `nodes[n]` is the loser of the match at internal node `n`, whose
    /// children are nodes `2n` and `2n + 1`; leaf `p` is node `k + p`.
    /// Empty once every source has run dry.
    nodes: Vec<Node<T>>,
    /// Sources that have run dry, kept (with their buffers and charges)
    /// for as long as the tree lives.
    dry: Vec<S>,
    _charge: Option<MemCharge>,
}

impl<T: Record, S: Source<T>> LoserTree<T, S> {
    /// Build the tree, pulling the first record of every source.
    pub fn new(sources: Vec<S>) -> Result<Self> {
        Self::build(sources, None)
    }

    /// Build the tree, charging its `O(k)` bookkeeping words to `mem`.
    pub fn with_tracking(sources: Vec<S>, mem: &MemoryTracker) -> Result<Self> {
        let k = sources.len();
        let charge = mem.try_charge(k * (T::WORDS + 2), "loser tree state")?;
        Self::build(sources, Some(charge))
    }

    fn build(sources: Vec<S>, charge: Option<MemCharge>) -> Result<Self> {
        if sources.is_empty() {
            return Err(EmError::config("loser tree needs at least one source"));
        }
        let mut live = Vec::with_capacity(sources.len());
        let mut nodes = Vec::with_capacity(sources.len());
        let mut dry = Vec::new();
        for mut source in sources {
            match source.pull()? {
                Some(rec) => {
                    nodes.push(Node {
                        rec,
                        pos: live.len(),
                    });
                    live.push(source);
                }
                None => dry.push(source),
            }
        }
        let mut tree = Self {
            live,
            nodes,
            dry,
            _charge: charge,
        };
        tree.rebuild();
        Ok(tree)
    }

    /// Rebuild the tree from `nodes`, which must hold the head of every
    /// live source exactly once, in any order: move each head to its
    /// [`build_slot`], then play every match bottom-up. `O(k)`, in place.
    fn rebuild(&mut self) {
        let k = self.nodes.len();
        if k == 0 {
            return;
        }
        for s in 0..k {
            // Each swap moves one head to its final slot.
            loop {
                let t = build_slot(k, self.nodes[s].pos);
                if t == s {
                    break;
                }
                self.nodes.swap(s, t);
            }
        }
        self.nodes[0] = play(&mut self.nodes, k, 1);
    }

    /// Extract the smallest head record, refilling from its source.
    ///
    /// A failed refill leaves the tree as it was, record included.
    pub fn pop(&mut self) -> Result<Option<T>> {
        let Some(&Node { rec: out, pos }) = self.nodes.first() else {
            return Ok(None);
        };
        match self.live[pos].pull()? {
            Some(rec) => self.replay(Node { rec, pos }),
            None => self.retire(pos),
        }
        Ok(Some(out))
    }

    /// Replay the path from the leaf of `cand`'s source to the root: at
    /// each node the smaller of the stored loser and the candidate moves
    /// on, and the other stays.
    #[inline]
    fn replay(&mut self, mut cand: Node<T>) {
        let mut n = (self.nodes.len() + cand.pos) / 2;
        while n > 0 {
            let stored = self.nodes[n];
            let swap = stored.beats(&cand);
            self.nodes[n] = Node::select(swap, cand, stored);
            cand = Node::select(swap, stored, cand);
            n /= 2;
        }
        self.nodes[0] = cand;
    }

    /// Source `pos` ran dry as its last record left: take it out of the
    /// tree and rebuild over the `k − 1` heads in the internal nodes. The
    /// positions after `pos` shift down by one, so they keep source order.
    #[cold]
    fn retire(&mut self, pos: usize) {
        self.nodes.swap_remove(0);
        for node in &mut self.nodes {
            node.pos -= usize::from(node.pos > pos);
        }
        self.dry.push(self.live.remove(pos));
        self.rebuild();
    }

    /// Number of sources not yet exhausted.
    pub fn live_sources(&self) -> usize {
        self.live.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emcore::{EmConfig, EmContext, EmFile, KeyValue, SplitMix64};

    fn drain<T: Record, S: Source<T>>(mut lt: LoserTree<T, S>) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(x) = lt.pop().unwrap() {
            out.push(x);
        }
        out
    }

    #[test]
    fn merges_two_sorted_streams() {
        let a = vec![1u64, 3, 5, 7];
        let b = vec![2u64, 4, 6, 8];
        let lt = LoserTree::new(vec![SliceSource::new(&a), SliceSource::new(&b)]).unwrap();
        assert_eq!(drain(lt), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn merges_single_stream() {
        let a = vec![5u64, 6, 7];
        let lt = LoserTree::new(vec![SliceSource::new(&a)]).unwrap();
        assert_eq!(drain(lt), vec![5, 6, 7]);
    }

    #[test]
    fn merges_many_uneven_streams() {
        let streams: Vec<Vec<u64>> = vec![
            vec![10, 20, 30],
            vec![],
            vec![5],
            vec![1, 2, 3, 4, 100],
            vec![15, 25],
            vec![],
        ];
        let sources: Vec<_> = streams.iter().map(|s| SliceSource::new(&s[..])).collect();
        let lt = LoserTree::new(sources).unwrap();
        let got = drain(lt);
        let mut want: Vec<u64> = streams.concat();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn handles_duplicates_deterministically() {
        let a = vec![1u64, 1, 1];
        let b = vec![1u64, 1];
        let lt = LoserTree::new(vec![SliceSource::new(&a), SliceSource::new(&b)]).unwrap();
        assert_eq!(drain(lt), vec![1, 1, 1, 1, 1]);
    }

    #[test]
    fn all_empty_streams() {
        let a: Vec<u64> = vec![];
        let b: Vec<u64> = vec![];
        let lt = LoserTree::new(vec![SliceSource::new(&a), SliceSource::new(&b)]).unwrap();
        assert_eq!(lt.live_sources(), 0);
        assert!(drain(lt).is_empty());
    }

    #[test]
    fn zero_streams_rejected() {
        let r = LoserTree::<u64, SliceSource<'_, u64>>::new(vec![]);
        assert!(r.is_err());
    }

    #[test]
    fn non_power_of_two_widths() {
        for k in 1..=9usize {
            let streams: Vec<Vec<u64>> = (0..k)
                .map(|i| (0..5).map(|j| (j * k + i) as u64).collect())
                .collect();
            let sources: Vec<_> = streams.iter().map(|s| SliceSource::new(&s[..])).collect();
            let lt = LoserTree::new(sources).unwrap();
            let got = drain(lt);
            let want: Vec<u64> = (0..5 * k as u64).collect();
            assert_eq!(got, want, "k = {k}");
        }
    }

    #[test]
    fn tracking_charges_memory() {
        let mem = emcore::MemoryTracker::new(1000, true);
        let a = vec![1u64];
        let lt = LoserTree::with_tracking(vec![SliceSource::new(&a)], &mem).unwrap();
        assert!(mem.current() > 0);
        drop(lt);
        assert_eq!(mem.current(), 0);
    }

    #[test]
    fn build_slots_map_leaves_one_to_one() {
        for k in 1..=200usize {
            let mut seen = vec![false; k];
            for pos in 0..k {
                let s = build_slot(k, pos);
                assert!(s < k && !seen[s], "k = {k}, leaf {pos} -> slot {s}");
                seen[s] = true;
            }
        }
    }

    #[test]
    fn live_sources_counts_down_as_sources_run_dry() {
        let runs: [&[u64]; 4] = [&[1, 5], &[], &[2], &[3, 4, 6]];
        let mut lt = LoserTree::new(runs.iter().map(|r| SliceSource::new(r)).collect()).unwrap();
        let mut live = vec![lt.live_sources()];
        while lt.pop().unwrap().is_some() {
            live.push(lt.live_sources());
        }
        // Out: 1 2 3 4 5 6; a source leaves with its last record.
        assert_eq!(live, vec![3, 3, 2, 2, 2, 1, 0]);
    }

    /// A source that fails once, at its `fail_at`-th pull.
    struct Flaky<'a> {
        inner: SliceSource<'a, u64>,
        pulls: usize,
        fail_at: usize,
    }

    impl Source<u64> for Flaky<'_> {
        fn pull(&mut self) -> Result<Option<u64>> {
            self.pulls += 1;
            if self.pulls == self.fail_at {
                return Err(EmError::config("injected pull failure"));
            }
            self.inner.pull()
        }
    }

    #[test]
    fn a_failed_refill_loses_no_record() {
        let (a, b) = (vec![1u64, 3, 5], vec![2u64, 4, 6]);
        let sources = vec![
            Flaky {
                inner: SliceSource::new(&a),
                pulls: 0,
                fail_at: 2,
            },
            Flaky {
                inner: SliceSource::new(&b),
                pulls: 0,
                fail_at: usize::MAX,
            },
        ];
        let mut lt = LoserTree::new(sources).unwrap();
        assert!(lt.pop().is_err());
        let mut out = Vec::new();
        while let Some(x) = lt.pop().unwrap() {
            out.push(x);
        }
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6]);
    }

    // ---- Property loop against a stable-sort oracle ----

    /// Records the loop merges: a key drawn by the case's key shape, and a
    /// tag naming where the record came from.
    trait Tag: Record + PartialEq {
        fn make(key: u64, run: usize, idx: usize) -> Self;
    }

    impl Tag for u64 {
        fn make(key: u64, _run: usize, _idx: usize) -> Self {
            key
        }
    }

    /// Two words: the key, and `(run, index)` in the second word, so a
    /// tie that leaves out of run order is visible in the output.
    impl Tag for KeyValue {
        fn make(key: u64, run: usize, idx: usize) -> Self {
            KeyValue {
                key,
                value: ((run as u64) << 32) | idx as u64,
            }
        }
    }

    /// `k` sorted runs: lengths of 0, 1 or up to a few blocks of `block`
    /// records, keys distinct, few-distinct or all equal.
    fn draw_runs<T: Tag>(rng: &mut SplitMix64, k: usize, block: usize) -> Vec<Vec<T>> {
        let shape = rng.below(3);
        (0..k)
            .map(|run| {
                let len = match rng.below(4) {
                    0 => 0,
                    1 => 1,
                    _ => rng.below(4 * block as u64 + 1) as usize,
                };
                let mut keys: Vec<u64> = (0..len)
                    .map(|_| match shape {
                        0 => rng.next_u64(),
                        1 => rng.below(4),
                        _ => 7,
                    })
                    .collect();
                keys.sort_unstable();
                keys.iter()
                    .enumerate()
                    .map(|(idx, &key)| T::make(key, run, idx))
                    .collect()
            })
            .collect()
    }

    /// The oracle: every run concatenated in run order, then stably sorted
    /// by key — equal keys keep run order.
    fn oracle<T: Record>(runs: &[Vec<T>]) -> Vec<T> {
        let mut all = runs.concat();
        all.sort_by_key(|r| r.key());
        all
    }

    /// Widths 1..=70, plus a few more draws at the powers of two.
    fn widths() -> impl Iterator<Item = usize> {
        (1..=70).chain([1, 2, 4, 8, 16, 32, 64])
    }

    fn slices_match_oracle<T: Tag>(seed: u64) {
        let mut rng = SplitMix64::new(seed);
        let mem = MemoryTracker::new(1 << 20, true);
        for k in widths() {
            let runs = draw_runs::<T>(&mut rng, k, 16);
            let sources = runs.iter().map(|r| SliceSource::new(&r[..])).collect();
            let tree = LoserTree::with_tracking(sources, &mem).unwrap();
            assert_eq!(mem.current(), k * (T::WORDS + 2));
            assert_eq!(drain(tree), oracle(&runs), "k = {k}, seed {seed:#x}");
            assert_eq!(mem.current(), 0, "tree charge released on drop");
        }
    }

    #[test]
    fn slice_merges_match_a_stable_sort() {
        slices_match_oracle::<u64>(0x105e7);
        slices_match_oracle::<KeyValue>(0x105e8);
    }

    fn files_match_oracle<T: Tag>(ctx: &EmContext, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        let block = ctx.config().block_records_for_width(T::WORDS);
        assert!(crate::max_merge_fan_in::<T>(ctx.config()) >= 70);
        for k in widths() {
            let runs = draw_runs::<T>(&mut rng, k, block);
            let files: Vec<EmFile<T>> = runs
                .iter()
                .map(|r| EmFile::from_slice(ctx, r).unwrap())
                .collect();
            let merged = crate::merge_once(ctx, &files).unwrap();
            assert!(ctx.mem().peak() <= ctx.config().mem_capacity());
            assert_eq!(
                merged.to_vec().unwrap(),
                oracle(&runs),
                "k = {k}, seed {seed:#x}"
            );
            let mut sorted = crate::SortedRuns::new(ctx, files);
            let mut stream = sorted.stream(0).unwrap();
            let mut out = Vec::new();
            while let Some(x) = stream.next().unwrap() {
                out.push(x);
            }
            drop(stream);
            assert_eq!(out, oracle(&runs), "stream, k = {k}, seed {seed:#x}");
            drop(sorted);
            assert_eq!(ctx.mem().current(), 0, "merge charges released");
        }
    }

    #[test]
    fn file_merges_match_a_stable_sort_on_both_backends() {
        // Every width up to 70 fits one merge of either record type.
        let cfg = EmConfig::new(4096, 16).unwrap();
        let mem = EmContext::new_in_memory_strict(cfg);
        files_match_oracle::<u64>(&mem, 0xf11e5);
        files_match_oracle::<KeyValue>(&mem, 0xf11e6);
        // The directory backend has no strict meter; the peak check in
        // `files_match_oracle` holds it to the same budget.
        let disk = EmContext::new_on_disk_temp(cfg).unwrap();
        files_match_oracle::<u64>(&disk, 0xf11e7);
        files_match_oracle::<KeyValue>(&disk, 0xf11e8);
    }
}
