//! Multiway merging of sorted runs.
//!
//! One pass loop merges consecutive groups of runs with a loser tree
//! ([`MergeStream`]). Its last pass either writes the sorted output file
//! ([`merge_runs`], what `external_sort` does) or is handed to the caller
//! as a stream ([`SortedRuns::stream`]) that is pulled record by record —
//! the sorted file is then never written, and never read back.

use std::sync::Mutex;

use emcore::{EmConfig, EmContext, EmError, EmFile, Reader, Record, Result};

use crate::loser_tree::LoserTree;
use crate::parallel::merge_once_prefetch;

/// Largest merge fan-in that fits the memory budget for record type `T`:
/// `k` reader block buffers + one writer block buffer + `O(k)` loser-tree
/// state must total at most `M` words. A block buffer holds `B` words
/// whatever the record width, so this is `⌊(M − B)/(B + T::WORDS + 2)⌋`
/// (at least 2).
pub fn max_merge_fan_in<T: Record>(config: EmConfig) -> usize {
    max_fan_in_for_budget::<T>(config, config.mem_capacity())
}

/// [`max_merge_fan_in`] against the *live* budget of `ctx` rather than the
/// static configuration: when the memory governor has squeezed `M` mid-job,
/// this shrinks accordingly, and merge passes started after the squeeze use
/// the narrower fan-in.
pub fn max_merge_fan_in_now<T: Record>(ctx: &EmContext) -> usize {
    max_fan_in_for_budget::<T>(ctx.config(), ctx.mem_budget())
}

/// The fan-in of the next merge group: `fan_in` clamped to `[2, what the
/// live budget admits once `reserve` words are set aside for the
/// caller's own buffers]`.
fn group_fan_in<T: Record>(ctx: &EmContext, fan_in: usize, reserve: usize) -> usize {
    let budget = ctx.mem_budget().saturating_sub(reserve);
    fan_in.clamp(2, max_fan_in_for_budget::<T>(ctx.config(), budget))
}

fn max_fan_in_for_budget<T: Record>(config: EmConfig, budget: usize) -> usize {
    let block_words = config.block_size();
    let per_stream = block_words + T::WORDS + 2; // reader buffer + tree slot
    (budget.saturating_sub(block_words) / per_stream).max(2)
}

/// A `k`-way merge of sorted runs, pulled one record at a time. Holds one
/// block buffer per run plus `O(k)` loser-tree state, all charged.
pub struct MergeStream<'a, T: Record> {
    /// `None` when there is nothing to merge.
    tree: Option<LoserTree<T, Reader<'a, T>>>,
}

impl<'a, T: Record> MergeStream<'a, T> {
    /// Open a reader on every run and build the loser tree over them.
    pub(crate) fn open(ctx: &EmContext, runs: &'a [EmFile<T>]) -> Result<Self> {
        if runs.is_empty() {
            return Ok(Self { tree: None });
        }
        let readers: Vec<_> = runs.iter().map(|r| r.reader()).collect::<Result<_>>()?;
        let tree = LoserTree::with_tracking(readers, ctx.mem())?;
        Ok(Self { tree: Some(tree) })
    }

    /// The next record in key order, or `None` once every run is drained.
    /// Equal keys come out in run order.
    // Fallible streaming, deliberately not Iterator (whose `next` cannot
    // surface `EmError`).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<T>> {
        match &mut self.tree {
            Some(tree) => tree.pop(),
            None => Ok(None),
        }
    }
}

/// Sorted runs waiting for their last merge pass: what
/// [`crate::RunWriter::finish`] returns, or runs a caller formed itself.
pub struct SortedRuns<T: Record> {
    ctx: EmContext,
    runs: Vec<EmFile<T>>,
}

impl<T: Record> SortedRuns<T> {
    /// Wrap `runs`, each of which must already be sorted by key.
    pub fn new(ctx: &EmContext, runs: Vec<EmFile<T>>) -> Self {
        Self {
            ctx: ctx.clone(),
            runs,
        }
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether there are no runs (no records).
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Give up the runs themselves.
    pub fn into_runs(self) -> Vec<EmFile<T>> {
        self.runs
    }

    /// The last merge pass as a stream. First, merge passes — the same
    /// ones [`merge_runs`] runs — bring the run count down to a fan-in
    /// that fits the live budget once `reserve` words are set aside for
    /// the buffers the caller holds while it drains (its own readers and
    /// writers). Those passes are charged to the `sort/merge` phase;
    /// draining is charged to whatever phase the caller has open.
    ///
    /// Draining costs one read per run block. Compared with merging into
    /// a file and scanning it, that saves the output's writes and its
    /// re-read: `2·ceil(N/B)` I/Os whenever the runs fit one merge.
    pub fn stream(&mut self, reserve: usize) -> Result<MergeStream<'_, T>> {
        let fan_in = self.ctx.config().fan_in();
        if self.runs.len() > group_fan_in::<T>(&self.ctx, fan_in, reserve) {
            let _phase = self.ctx.stats().phase_guard("sort/merge");
            merge_passes(&self.ctx, &mut self.runs, fan_in, reserve, true, 1)?;
        }
        MergeStream::open(&self.ctx, &self.runs)
    }
}

/// Merge up to `fan_in` sorted runs into one sorted file using a loser
/// tree. Memory: one block buffer per input run + one output buffer +
/// `O(k)` tree state — within `M` for `k ≤ M/B − 2`.
pub fn merge_once<T: Record>(ctx: &EmContext, runs: &[EmFile<T>]) -> Result<EmFile<T>> {
    let mut merged = MergeStream::open(ctx, runs)?;
    let mut w = ctx.writer::<T>()?;
    while let Some(x) = merged.next()? {
        w.push(x)?;
    }
    w.finish()
}

/// Merge an arbitrary number of sorted runs into a single sorted file by
/// repeated passes of as many runs as the live budget admits.
///
/// Each pass reads and writes every record once (`2·ceil(N/B)` I/Os), and
/// `ceil(log_k(#runs))` passes are needed at fan-in `k` — the classical
/// `O((N/B)·lg_{M/B}(N/B))` sort bound when runs come from run formation.
/// The fan-in is re-read from [`max_merge_fan_in_now`] for every group,
/// so a governor squeeze narrows the groups after it (more passes, same
/// output) instead of busting the budget.
pub fn merge_runs<T: Record>(ctx: &EmContext, runs: Vec<EmFile<T>>) -> Result<EmFile<T>> {
    merge_into_one(ctx, runs, usize::MAX, 1)
}

/// [`merge_runs`] with groups of at most `fan_in` runs, merged on up to
/// `workers` threads.
pub(crate) fn merge_into_one<T: Record>(
    ctx: &EmContext,
    mut runs: Vec<EmFile<T>>,
    fan_in: usize,
    workers: usize,
) -> Result<EmFile<T>> {
    if runs.is_empty() {
        return ctx.create_file::<T>();
    }
    merge_passes(ctx, &mut runs, fan_in, 0, false, workers)?;
    runs.pop()
        .ok_or_else(|| EmError::config("merge pass produced no output run"))
}

/// How one group is merged into one file.
type MergeFn<T> = fn(&EmContext, &[EmFile<T>]) -> Result<EmFile<T>>;

/// The merge-pass loop: the one place a sort cuts its merge groups. Each
/// pass merges consecutive groups of `fan_in` runs (re-clamped to what the
/// live budget admits once `reserve` words are set aside). Passes repeat
/// until one run is left — or, when `streamed` (the last pass will be
/// pulled by the caller), until the runs fit one such group.
///
/// Up to `workers` threads take a pass's groups in order, each group cut
/// when it is taken, so the groups, the output and its I/Os are the same
/// at every worker count. A pass of one group stays on the calling thread.
fn merge_passes<T: Record>(
    ctx: &EmContext,
    runs: &mut Vec<EmFile<T>>,
    fan_in: usize,
    reserve: usize,
    streamed: bool,
    workers: usize,
) -> Result<()> {
    let target = || {
        if streamed {
            group_fan_in::<T>(ctx, fan_in, reserve)
        } else {
            1
        }
    };
    // Prefetch and write-behind threads pay only when a transfer has
    // latency to hide; against a page-cache-speed backend their channel
    // handoffs are pure overhead.
    let merge: MergeFn<T> = if workers > 1 && ctx.config().device_latency_us() > 0 {
        merge_once_prefetch
    } else {
        merge_once
    };
    // Worker threads pin their spans under the phase open on this thread:
    // the tracer resolves parents per thread.
    let parent = ctx.stats().current_span_id();
    while runs.len() > target() {
        let threads = workers.min(runs.len().div_ceil(group_fan_in::<T>(ctx, fan_in, reserve)));
        // The runs not yet taken, and the index of the next group.
        let todo = Mutex::new((std::mem::take(runs).into_iter(), 0usize));
        let work = |traced: bool| -> Result<Vec<(usize, Vec<EmFile<T>>)>> {
            let mut done = Vec::new();
            loop {
                let (i, group) = {
                    let mut todo = todo.lock().expect("no thread panics while cutting a group");
                    let (rest, next) = &mut *todo;
                    // The clamp is re-read per *group*, so a squeeze landing
                    // mid-pass narrows the very next group, not just the
                    // next pass.
                    let fan = group_fan_in::<T>(ctx, fan_in, reserve);
                    *next += 1;
                    (*next - 1, rest.by_ref().take(fan).collect::<Vec<_>>())
                };
                if group.is_empty() {
                    return Ok(done);
                }
                let _unit = (traced && group.len() > 1).then(|| {
                    ctx.stats()
                        .trace_span_under(parent, || format!("unit/merge-group#{i}"))
                });
                let mut out = Vec::new();
                merge_group_adaptive(ctx, group, merge, &mut out)?;
                done.push((i, out));
            }
        };
        let mut merged = if threads == 1 {
            work(false)?
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads).map(|_| s.spawn(|| work(true))).collect();
                let mut merged = Vec::new();
                for h in handles {
                    let done = h
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                    merged.extend(done?);
                }
                Ok::<_, EmError>(merged)
            })?
        };
        merged.sort_unstable_by_key(|&(i, _)| i);
        *runs = merged.into_iter().flat_map(|(_, out)| out).collect();
    }
    Ok(())
}

/// Merge `group` into `out`, splitting the group in half and retrying when
/// the reader buffers no longer fit a freshly squeezed budget. The halves
/// land in the current pass's output and are merged by a later pass, so
/// the result is identical — just more passes. Only a budget too small for
/// even a 2-way merge surfaces the typed error. A lone run — the leftover
/// of a pass, or half of a split group of three — moves to the next pass
/// unmerged: merging it alone would copy every block for nothing.
fn merge_group_adaptive<T: Record>(
    ctx: &EmContext,
    mut group: Vec<EmFile<T>>,
    merge: MergeFn<T>,
    out: &mut Vec<EmFile<T>>,
) -> Result<()> {
    if group.len() == 1 {
        out.extend(group);
        return Ok(());
    }
    match merge(ctx, &group) {
        Ok(f) => {
            out.push(f);
            Ok(())
        }
        Err(EmError::MemoryExceeded { .. }) if group.len() > 2 => {
            let right = group.split_off(group.len() / 2);
            merge_group_adaptive(ctx, group, merge, out)?;
            merge_group_adaptive(ctx, right, merge, out)
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emcore::{EmConfig, KeyValue};

    fn ctx() -> EmContext {
        EmContext::new_in_memory_strict(EmConfig::tiny()) // M=256, B=16, fan_in=14
    }

    fn run_of(ctx: &EmContext, data: &[u64]) -> EmFile<u64> {
        let mut v = data.to_vec();
        v.sort_unstable();
        EmFile::from_slice(ctx, &v).unwrap()
    }

    #[test]
    fn merge_once_two_runs() {
        let c = ctx();
        let a = run_of(&c, &[1, 3, 5]);
        let b = run_of(&c, &[2, 4, 6]);
        let m = merge_once(&c, &[a, b]).unwrap();
        assert_eq!(m.to_vec().unwrap(), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn merge_runs_many_passes() {
        let c = ctx();
        // 30 runs with fan-in 14 → 2 passes (30 → 3 → 1)
        let runs: Vec<EmFile<u64>> = (0..30)
            .map(|i| {
                run_of(
                    &c,
                    &(0..20).map(|j| (j * 30 + i) as u64).collect::<Vec<_>>(),
                )
            })
            .collect();
        let m = merge_runs(&c, runs).unwrap();
        assert_eq!(m.len(), 600);
        assert!(crate::is_sorted(&m).unwrap());
        assert_eq!(m.to_vec().unwrap(), (0..600u64).collect::<Vec<_>>());
    }

    #[test]
    fn merge_empty_run_list() {
        let c = ctx();
        let m = merge_runs::<u64>(&c, vec![]).unwrap();
        assert!(m.is_empty());
    }

    #[test]
    fn merge_single_run_is_identity() {
        let c = ctx();
        let a = run_of(&c, &[4, 2, 9]);
        let m = merge_runs(&c, vec![a]).unwrap();
        assert_eq!(m.to_vec().unwrap(), vec![2, 4, 9]);
    }

    #[test]
    fn two_word_merges_take_the_fan_in_m_admits() {
        // M = 256, B = 16 words. A `KeyValue` block holds 8 records, which
        // is still 16 words, so (256 − 16) / (16 + 2 + 2) = 12 runs fit one
        // merge: 12 reader blocks, a writer block and 12 × 4 words of tree
        // state are exactly M.
        let cfg = EmConfig::tiny();
        assert_eq!(max_merge_fan_in::<KeyValue>(cfg), 12);
        for (k, one_pass) in [(12u64, true), (13, false)] {
            let c = ctx();
            let runs: Vec<EmFile<KeyValue>> = (0..k)
                .map(|i| {
                    let recs: Vec<KeyValue> = (0..20)
                        .map(|j| KeyValue {
                            key: j * k + i,
                            value: i,
                        })
                        .collect();
                    EmFile::from_slice(&c, &recs).unwrap()
                })
                .collect();
            let in_blocks: u64 = runs.iter().map(|r| r.num_blocks()).sum();
            c.mem().reset_peak();
            let before = c.stats().snapshot();
            let m = merge_runs(&c, runs).unwrap();
            let d = c.stats().snapshot().since(&before);
            assert!(c.mem().peak() <= cfg.mem_capacity(), "k = {k}");
            let keys: Vec<u64> = m.to_vec().unwrap().iter().map(|r| r.key).collect();
            assert_eq!(keys, (0..20 * k).collect::<Vec<_>>(), "k = {k}");
            // One pass reads each input block once; a second pass also
            // reads the first pass's output.
            assert_eq!(d.reads == in_blocks, one_pass, "k = {k}: {} reads", d.reads);
        }
    }

    #[test]
    fn small_fan_in_more_passes_more_io() {
        let c1 = ctx();
        let c2 = ctx();
        let mk = |c: &EmContext| -> Vec<EmFile<u64>> {
            (0..16)
                .map(|i| run_of(c, &(0..16).map(|j| (j * 16 + i) as u64).collect::<Vec<_>>()))
                .collect()
        };
        let r1 = mk(&c1);
        let r2 = mk(&c2);
        let s1 = c1.stats().snapshot();
        let s2 = c2.stats().snapshot();
        let m1 = merge_into_one(&c1, r1, 2, 1).unwrap(); // 4 passes
        let m2 = merge_into_one(&c2, r2, 14, 1).unwrap(); // 2 passes
        assert_eq!(m1.to_vec().unwrap(), m2.to_vec().unwrap());
        let io1 = c1.stats().snapshot().since(&s1).total_ios();
        let io2 = c2.stats().snapshot().since(&s2).total_ios();
        assert!(
            io1 > io2,
            "fan-in 2 ({io1} I/Os) should cost more than fan-in 14 ({io2})"
        );
    }
}
