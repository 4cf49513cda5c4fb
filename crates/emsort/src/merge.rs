//! Multiway merging of sorted runs.
//!
//! One pass loop ([`merge_runs_with_fan_in`]) merges consecutive groups of
//! runs with a loser tree ([`MergeStream`]). Its last pass either writes
//! the sorted output file ([`merge_runs`], what `external_sort` does) or
//! is handed to the caller as a stream ([`SortedRuns::stream`]) that is
//! pulled record by record — the sorted file is then never written, and
//! never read back.

use emcore::{EmConfig, EmContext, EmError, EmFile, Reader, Record, Result};

use crate::loser_tree::LoserTree;

/// Largest merge fan-in that fits the memory budget for record type `T`:
/// `k` reader block buffers + one writer block buffer + `O(k)` loser-tree
/// state must total at most `M` words.
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
    let block_words = config.block_size() * T::WORDS;
    let per_stream = block_words + T::WORDS + 2; // reader buffer + tree slot
    ((budget.saturating_sub(block_words)) / per_stream).max(2)
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
            merge_passes(&self.ctx, &mut self.runs, fan_in, reserve, true)?;
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
/// repeated `fan_in`-way passes.
///
/// Each pass reads and writes every record once (`2·ceil(N/B)` I/Os), and
/// `ceil(log_{fan_in}(#runs))` passes are needed — the classical
/// `O((N/B)·lg_{M/B}(N/B))` sort bound when runs come from run formation.
pub fn merge_runs<T: Record>(ctx: &EmContext, mut runs: Vec<EmFile<T>>) -> Result<EmFile<T>> {
    merge_runs_with_fan_in(ctx, &mut runs, usize::MAX)
}

/// [`merge_runs`] with an explicit fan-in (exposed for the fan-in ablation
/// experiment EX-A2). `fan_in` is re-clamped to `[2, max_merge_fan_in_now]`
/// at every pass boundary, so a governor squeeze between passes narrows the
/// fan-in of subsequent passes (more passes, same output) instead of
/// busting the budget.
pub fn merge_runs_with_fan_in<T: Record>(
    ctx: &EmContext,
    runs: &mut Vec<EmFile<T>>,
    fan_in: usize,
) -> Result<EmFile<T>> {
    if runs.is_empty() {
        return ctx.create_file::<T>();
    }
    merge_passes(ctx, runs, fan_in, 0, false)?;
    runs.pop()
        .ok_or_else(|| EmError::config("merge pass produced no output run"))
}

/// The merge-pass loop. Each pass merges consecutive groups of `fan_in`
/// runs (re-clamped to what the live budget admits once `reserve` words
/// are set aside). Passes repeat until one run is left — or, when
/// `streamed` (the last pass will be pulled by the caller), until the
/// runs fit one such group.
fn merge_passes<T: Record>(
    ctx: &EmContext,
    runs: &mut Vec<EmFile<T>>,
    fan_in: usize,
    reserve: usize,
    streamed: bool,
) -> Result<()> {
    let target = || {
        if streamed {
            group_fan_in::<T>(ctx, fan_in, reserve)
        } else {
            1
        }
    };
    while runs.len() > target() {
        let mut next: Vec<EmFile<T>> = Vec::new();
        let mut iter = std::mem::take(runs).into_iter();
        loop {
            // The clamp is re-read per *group*, so a squeeze landing
            // mid-pass narrows the very next group, not just the next
            // pass.
            let fan = group_fan_in::<T>(ctx, fan_in, reserve);
            let group: Vec<EmFile<T>> = iter.by_ref().take(fan).collect();
            match group.len() {
                0 => break,
                // A lone leftover run moves to the next pass unmerged —
                // merging it alone would copy every block for nothing.
                1 => {
                    next.extend(group);
                    break;
                }
                _ => merge_group_adaptive(ctx, group, &mut next)?,
            }
        }
        *runs = next;
    }
    Ok(())
}

/// Merge `group` into `out`, splitting the group in half and retrying when
/// the reader buffers no longer fit a freshly squeezed budget. The halves
/// land in the current pass's output and are merged by a later pass, so
/// the result is identical — just more passes. Only a budget too small for
/// even a 2-way merge surfaces the typed error.
fn merge_group_adaptive<T: Record>(
    ctx: &EmContext,
    mut group: Vec<EmFile<T>>,
    out: &mut Vec<EmFile<T>>,
) -> Result<()> {
    if group.len() == 1 {
        out.extend(group);
        return Ok(());
    }
    match merge_once(ctx, &group) {
        Ok(f) => {
            out.push(f);
            Ok(())
        }
        Err(EmError::MemoryExceeded { .. }) if group.len() > 2 => {
            let right = group.split_off(group.len() / 2);
            merge_group_adaptive(ctx, group, out)?;
            merge_group_adaptive(ctx, right, out)
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emcore::EmConfig;

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
    fn small_fan_in_more_passes_more_io() {
        let c1 = ctx();
        let c2 = ctx();
        let mk = |c: &EmContext| -> Vec<EmFile<u64>> {
            (0..16)
                .map(|i| run_of(c, &(0..16).map(|j| (j * 16 + i) as u64).collect::<Vec<_>>()))
                .collect()
        };
        let mut r1 = mk(&c1);
        let mut r2 = mk(&c2);
        let s1 = c1.stats().snapshot();
        let s2 = c2.stats().snapshot();
        let m1 = merge_runs_with_fan_in(&c1, &mut r1, 2).unwrap(); // 4 passes
        let m2 = merge_runs_with_fan_in(&c2, &mut r2, 14).unwrap(); // 2 passes
        assert_eq!(m1.to_vec().unwrap(), m2.to_vec().unwrap());
        let io1 = c1.stats().snapshot().since(&s1).total_ios();
        let io2 = c2.stats().snapshot().since(&s2).total_ios();
        assert!(
            io1 > io2,
            "fan-in 2 ({io1} I/Os) should cost more than fan-in 14 ({io2})"
        );
    }
}
