//! Crash-recoverable external merge sort.
//!
//! [`external_sort`](crate::external_sort) loses all work when an I/O fails
//! terminally mid-sort: its runs live in local variables of a call that just
//! unwound. This module factors the sort into an explicit, checkpointed
//! state machine — a [`SortManifest`] — so a crash (a
//! [`emcore::FaultKind::Fatal`] fault, surfacing as
//! [`emcore::EmError::Crashed`]) loses at most one *work unit*: the sorted
//! run being formed, or the merge group being merged.
//!
//! ## Structure
//!
//! The sort is a sequence of work units, and the manifest is checkpointed
//! after every one:
//!
//! 1. **Run formation** (unit = one sorted run of ≈ `M` records): the
//!    manifest records how many input records have been consumed into
//!    completed runs. A crash mid-run drops only that run's partial output
//!    (its temporary file is deleted as the writer unwinds) and resume
//!    restarts from `consumed`.
//! 2. **Merge passes** (unit = one fan-in-sized merge group): completed
//!    group outputs accumulate in the manifest; the input runs of a group
//!    are only released *after* its output is durably complete, so a crash
//!    mid-merge keeps every input run and resume re-merges just that group.
//!    When a level's runs are exhausted the outputs become the next level's
//!    runs (the per-level checkpoint).
//!
//! ## Durability
//!
//! Every checkpoint commits the manifest to a [`emcore::Journal`] named
//! `sort-manifest` (atomically, checksummed — see `emcore::journal`), and
//! every file the manifest references is marked
//! [`persistent`](emcore::EmFile::set_persistent) so it outlives its
//! handle. On a directory-backed context this makes an interrupted sort
//! resumable **across processes**: a fresh context over the same directory
//! can [`SortManifest::load`] the journal, reopen every run file, sweep
//! orphaned temporaries of the crashed attempt, and drive the sort to
//! completion via [`emcore::run_recoverable`] + [`SortJob`]. In-process
//! recovery uses the live manifest value directly.
//!
//! Journal commits are host-side metadata writes, charged to
//! [`emcore::Counters::journal_writes`] — not block I/Os. I/O spent
//! re-executing the one interrupted unit on resume is additionally counted
//! in [`emcore::Counters::redone_ios`].
//!
//! ## Example: crash and resume
//!
//! ```
//! use emcore::{run_recoverable, EmConfig, EmContext, EmFile, EmError, FaultPlan};
//! use emsort::{SortJob, SortManifest};
//!
//! let ctx = EmContext::new_in_memory(EmConfig::tiny());
//! let data: Vec<u64> = (0..1000).rev().collect();
//! let input = EmFile::from_slice(&ctx, &data).unwrap();
//!
//! let plan = FaultPlan::new(0).fatal_at(150); // crash mid-sort
//! ctx.install_fault_plan(plan.clone());
//!
//! let mut manifest = SortManifest::new(&ctx, None);
//! let crashed = run_recoverable(&ctx, &mut SortJob::new(&input, &mut manifest));
//! assert!(matches!(crashed, Err(EmError::Crashed)));
//!
//! plan.clear_crash(); // "restart the machine"
//! let sorted = run_recoverable(&ctx, &mut SortJob::new(&input, &mut manifest)).unwrap();
//! assert_eq!(sorted.to_vec().unwrap(), (0..1000u64).collect::<Vec<_>>());
//! ```

use emcore::{
    run_recoverable, EmContext, EmError, EmFile, InputId, LedgerDoc, Manifest, Record,
    RecoverableJob, Result, WorkLedger,
};

use crate::merge::{max_merge_fan_in, merge_once};
use crate::runs::working_capacity;

/// Name of the sort's checkpoint journal within its backing store.
pub const SORT_JOURNAL: &str = "sort-manifest";

/// Checkpointed state of a recoverable external sort. Owns every completed
/// run; survives any number of failed resume attempts, and (on the
/// directory backend) process restarts via [`SortManifest::load`].
#[derive(Debug)]
pub struct SortManifest<T: Record> {
    ledger: WorkLedger,
    /// Input records consumed into *completed* runs.
    consumed: u64,
    /// Run formation finished.
    formed: bool,
    /// Sorted runs of the current merge level still awaiting merging.
    runs: Vec<EmFile<T>>,
    /// Completed merge outputs of the current level.
    next: Vec<EmFile<T>>,
    /// Merge fan-in (clamped to the memory budget at construction).
    fan_in: usize,
}

impl<T: Record> Manifest for SortManifest<T> {
    type Record = T;

    fn ledger(&self) -> &WorkLedger {
        &self.ledger
    }

    fn ledger_mut(&mut self) -> &mut WorkLedger {
        &mut self.ledger
    }

    fn write_state(&self, doc: &mut LedgerDoc) {
        doc.push_num("consumed", self.consumed);
        doc.push_num("formed", self.formed.into());
        doc.push_num("fan_in", self.fan_in as u64);
        doc.push_files("runs", &self.runs);
        doc.push_files("next", &self.next);
    }
}

impl<T: Record> SortManifest<T> {
    /// A fresh manifest: nothing consumed, nothing formed. `fan_in` is
    /// clamped to `[2, max_merge_fan_in]`; `None` means the maximum.
    pub fn new(ctx: &EmContext, fan_in: Option<usize>) -> Self {
        let max = max_merge_fan_in::<T>(ctx.config());
        Self {
            ledger: WorkLedger::new(ctx, SORT_JOURNAL, None),
            consumed: 0,
            formed: false,
            runs: Vec::new(),
            next: Vec::new(),
            fan_in: fan_in.unwrap_or(max).clamp(2, max),
        }
    }

    /// Reload an interrupted sort from `ctx`'s backing directory via
    /// [`WorkLedger::load`] (which sweeps the crashed attempt's orphans)
    /// and reopen every run file. Returns `Ok(None)` when no journal
    /// exists; requires a directory-backed context.
    pub fn load(ctx: &EmContext) -> Result<Option<Self>> {
        let Some((ledger, doc)) = WorkLedger::load(ctx, SORT_JOURNAL)? else {
            return Ok(None);
        };
        Ok(Some(Self {
            ledger,
            consumed: doc.num("consumed")?,
            formed: doc.num("formed")? != 0,
            runs: doc.open(ctx, "runs")?,
            next: doc.open(ctx, "next")?,
            fan_in: usize::try_from(doc.num("fan_in")?)
                .map_err(|_| EmError::config("sort-manifest: fan_in overflows usize"))?
                .max(2),
        }))
    }

    /// Sorted runs currently held (current level + completed outputs).
    pub fn num_runs(&self) -> usize {
        self.runs.len() + self.next.len()
    }
}

/// The checkpointed external sort as a [`RecoverableJob`]: drive it with
/// [`emcore::run_recoverable`]. Borrows the input and its manifest for the
/// duration of one resume attempt; build a fresh job value per attempt.
#[derive(Debug)]
pub struct SortJob<'a, T: Record> {
    input: &'a EmFile<T>,
    manifest: &'a mut SortManifest<T>,
}

impl<'a, T: Record> SortJob<'a, T> {
    /// A job that sorts `input`, checkpointing through `manifest`.
    pub fn new(input: &'a EmFile<T>, manifest: &'a mut SortManifest<T>) -> Self {
        Self { input, manifest }
    }
}

impl<T: Record> RecoverableJob for SortJob<'_, T> {
    type Output = EmFile<T>;

    fn ledger(&mut self) -> &mut WorkLedger {
        &mut self.manifest.ledger
    }

    fn input(&self) -> InputId {
        InputId::of(self.input)
    }

    fn drive(&mut self, ctx: &EmContext) -> Result<EmFile<T>> {
        let stats = ctx.stats().clone();

        // Phase 1: run formation, resumable at `consumed` records.
        if !self.manifest.formed {
            let phase = stats.phase_guard("sort/run-formation");
            let r = form_remaining_runs(self.input, self.manifest, ctx);
            drop(phase);
            r?;
        }

        // Phase 2: merge passes, resumable at merge-group granularity.
        let phase = stats.phase_guard("sort/merge");
        let r = merge_remaining(self.manifest, ctx);
        drop(phase);
        let out = r?;
        self.manifest.ledger.finish()?;
        // The output leaves the manifest's custody: normal drop semantics.
        out.set_persistent(false);
        Ok(out)
    }
}

/// Sort `input` with checkpointing — semantically identical to
/// [`crate::external_sort`] (load-sort runs), but any recoverable failure
/// leaves a resumable [`SortManifest`] behind via [`SortJob`] +
/// [`emcore::run_recoverable`]. For a one-shot call the manifest is
/// internal; keep your own manifest to survive failures.
pub fn external_sort_recoverable<T: Record>(input: &EmFile<T>) -> Result<EmFile<T>> {
    let ctx = input.ctx().clone();
    let mut manifest = SortManifest::new(&ctx, None);
    run_recoverable(&ctx, &mut SortJob::new(input, &mut manifest))
}

fn form_remaining_runs<T: Record>(
    input: &EmFile<T>,
    manifest: &mut SortManifest<T>,
    ctx: &EmContext,
) -> Result<()> {
    let b = ctx.config().block_records_for_width(T::WORDS);
    while manifest.consumed < input.len() {
        // Budget re-read per work unit: a governor squeeze between
        // checkpoints shrinks the next unit instead of failing the job,
        // and a unit interrupted by MemoryExceeded is redone whole on
        // resume (bounded rework: at most one unit).
        let mut w = ctx.writer::<T>()?;
        let (mut load, cap) = ctx.try_tracked_vec_halving::<T>(
            working_capacity::<T>(ctx),
            b,
            "recoverable run formation load buffer",
        )?;
        let unit = manifest
            .ledger
            .begin_unit(ctx, |cp| format!("unit/run#{cp}"));
        // A fresh positioned reader each unit: a crashed unit must not
        // leave reader state behind, and positioning costs ≤ 1 extra I/O.
        let mut reader = input.reader_at(manifest.consumed)?;
        while load.len() < cap {
            match reader.next()? {
                Some(x) => load.push(x),
                None => break,
            }
        }
        if load.is_empty() {
            break;
        }
        load.sort_unstable_by_key(|r| r.key());
        w.push_all(&load)?;
        let run = w.finish()?;
        // ---- checkpoint: the run is fully on storage ----
        manifest.consumed += run.len();
        manifest.runs.push(run);
        manifest.checkpoint(Vec::new())?;
        manifest.ledger.end_unit(unit);
    }
    manifest.formed = true;
    manifest.checkpoint(Vec::new())?;
    Ok(())
}

fn merge_remaining<T: Record>(
    manifest: &mut SortManifest<T>,
    ctx: &EmContext,
) -> Result<EmFile<T>> {
    loop {
        if manifest.runs.is_empty() {
            match manifest.next.len() {
                0 => return ctx.create_file::<T>(), // empty input
                1 => return manifest.next.pop().ok_or_else(level_underflow),
                // ---- checkpoint: level complete, outputs become inputs ----
                _ => {
                    manifest.runs = std::mem::take(&mut manifest.next);
                    manifest.checkpoint(Vec::new())?;
                }
            }
            continue;
        }
        if manifest.runs.len() == 1 {
            if manifest.next.is_empty() {
                return manifest.runs.pop().ok_or_else(level_underflow);
            }
            // A lone leftover run moves to the next pass unmerged — merging
            // it alone would copy every block for nothing.
            let run = manifest.runs.pop().ok_or_else(level_underflow)?;
            manifest.next.push(run);
            manifest.checkpoint(Vec::new())?;
            continue;
        }
        let g = manifest.fan_in.min(manifest.runs.len());
        let unit = manifest
            .ledger
            .begin_unit(ctx, |cp| format!("unit/merge#{cp}"));
        // Merge the group *before* releasing its inputs: a crash inside
        // merge_once drops only the partial output file, and the manifest
        // still owns every input run for the redo.
        let merged = merge_once(ctx, &manifest.runs[..g])?;
        manifest.next.push(merged);
        // ---- checkpoint: group complete; its input runs are released ----
        let retired = manifest.runs.drain(..g).collect();
        manifest.checkpoint(retired)?;
        manifest.ledger.end_unit(unit);
    }
}

fn level_underflow() -> EmError {
    EmError::config("sort manifest invariant violated: empty level")
}

#[cfg(test)]
mod tests {
    use super::*;
    use emcore::{EmConfig, EmContext, FaultPlan, RetryPolicy};

    fn ctx() -> EmContext {
        EmContext::new_in_memory_strict(EmConfig::tiny()) // M=256, B=16
    }

    /// The canonical resume idiom: drive the job via `run_recoverable`.
    fn resume(f: &EmFile<u64>, m: &mut SortManifest<u64>) -> Result<EmFile<u64>> {
        let c = f.ctx().clone();
        run_recoverable(&c, &mut SortJob::new(f, m))
    }

    fn shuffled(n: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n).collect();
        let mut rng = emcore::SplitMix64::new(0xfeed);
        rng.shuffle(&mut v);
        v
    }

    #[test]
    fn recoverable_sort_matches_plain_sort_fault_free() {
        let c = ctx();
        let data = shuffled(3000);
        let f = EmFile::from_slice(&c, &data).unwrap();
        let sorted = external_sort_recoverable(&f).unwrap();
        let mut want = data;
        want.sort_unstable();
        assert_eq!(sorted.to_vec().unwrap(), want);
        // No crash ⇒ no rework; checkpoints did happen.
        let stats = c.stats().snapshot();
        assert_eq!(stats.redone_ios, 0);
        assert!(stats.journal_writes > 0);
    }

    #[test]
    fn fault_free_io_cost_matches_plain_sort_shape() {
        // Same run structure as external_sort ⇒ same merge levels; the only
        // extra I/Os allowed are ≤ 1 positioning read per formed run.
        let c1 = ctx();
        let c2 = ctx();
        let data = shuffled(2000);
        let f1 = c1
            .stats()
            .paused(|| EmFile::from_slice(&c1, &data))
            .unwrap();
        let f2 = c2
            .stats()
            .paused(|| EmFile::from_slice(&c2, &data))
            .unwrap();
        let _ = crate::external_sort(&f1).unwrap();
        let _ = external_sort_recoverable(&f2).unwrap();
        let plain = c1.stats().snapshot().total_ios();
        let recov = c2.stats().snapshot().total_ios();
        let runs = 2000u64.div_ceil(224); // working capacity at tiny config
        assert!(
            recov <= plain + runs,
            "recoverable {recov} vs plain {plain} (+{runs} positioning allowance)"
        );
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let c = ctx();
        let f = c.create_file::<u64>().unwrap();
        assert!(external_sort_recoverable(&f).unwrap().is_empty());
        let g = EmFile::from_slice(&c, &[9u64, 1]).unwrap();
        assert_eq!(
            external_sort_recoverable(&g).unwrap().to_vec().unwrap(),
            vec![1, 9]
        );
    }

    #[test]
    fn crash_then_resume_completes() {
        let c = ctx();
        let data = shuffled(1500);
        let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let plan = FaultPlan::new(0).fatal_at(40);
        c.install_fault_plan(plan.clone());
        let mut m = SortManifest::new(&c, None);
        assert!(matches!(resume(&f, &mut m), Err(EmError::Crashed)));
        assert!(!m.ledger().is_done());
        assert!(
            m.ledger().checkpoints() > 0,
            "work before the crash was kept"
        );
        plan.clear_crash();
        let sorted = resume(&f, &mut m).unwrap();
        assert!(m.ledger().is_done());
        let mut want = data;
        want.sort_unstable();
        assert_eq!(sorted.to_vec().unwrap(), want);
        // The interrupted unit was redone and accounted.
        let stats = c.stats().snapshot();
        assert!(stats.redone_ios > 0, "redone work must be accounted");
        assert!(
            stats.redone_ios <= m.ledger().max_unit_ios(),
            "rework {} exceeds one unit {}",
            stats.redone_ios,
            m.ledger().max_unit_ios()
        );
    }

    #[test]
    fn transient_faults_handled_by_retries_inside_sort() {
        let c = EmContext::new_in_memory(EmConfig::tiny());
        let plan = FaultPlan::new(3).transient_rate(0.05);
        c.install_fault_plan(plan.clone());
        c.set_retry_policy(RetryPolicy::retries(10));
        let data = shuffled(2000);
        // Materialise as an oracle so input staging neither consumes the
        // fault schedule nor counts I/O.
        let f = c.oracle(|| EmFile::from_slice(&c, &data)).unwrap();
        let sorted = external_sort_recoverable(&f).unwrap();
        let mut want = data;
        want.sort_unstable();
        assert_eq!(c.oracle(|| sorted.to_vec()).unwrap(), want);
        let stats = c.stats().snapshot();
        assert_eq!(stats.retries, plan.injected().transient_total());
        assert!(stats.retries > 0);
    }

    #[test]
    fn completed_manifest_rejects_reuse() {
        let c = ctx();
        let f = EmFile::from_slice(&c, &[3u64, 1, 2]).unwrap();
        let mut m = SortManifest::new(&c, None);
        let _ = resume(&f, &mut m).unwrap();
        assert!(matches!(resume(&f, &mut m), Err(EmError::Config(_))));
    }

    #[test]
    fn manifest_rejects_wrong_input() {
        let c = ctx();
        let f = EmFile::from_slice(&c, &shuffled(600)).unwrap();
        let plan = FaultPlan::new(0).fatal_at(20);
        c.install_fault_plan(plan.clone());
        let mut m = SortManifest::new(&c, None);
        assert!(resume(&f, &mut m).is_err());
        plan.clear_crash();
        c.clear_fault_plan();
        let other = EmFile::from_slice(&c, &[1u64, 2, 3]).unwrap();
        assert!(matches!(resume(&other, &mut m), Err(EmError::Config(_))));
        // The right input still resumes fine.
        let sorted = resume(&f, &mut m).unwrap();
        assert_eq!(sorted.len(), 600);
    }

    #[test]
    fn journal_persisted_and_cleaned_on_disk() {
        let c = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        let data = shuffled(1200);
        let f = EmFile::from_slice(&c, &data).unwrap();
        let meta = c.backing_dir().unwrap().join("sort-manifest.journal");
        let plan = FaultPlan::new(0).fatal_at(200);
        c.install_fault_plan(plan.clone());
        let mut m = SortManifest::new(&c, None);
        assert!(resume(&f, &mut m).is_err());
        let doc = std::fs::read_to_string(&meta).expect("journal exists after crash");
        assert!(doc.starts_with("emjournal v2 sort-manifest"));
        assert!(doc.contains("consumed"));
        plan.clear_crash();
        let _ = resume(&f, &mut m).unwrap();
        assert!(!meta.exists(), "journal removed after completion");
    }

    #[test]
    fn image_roundtrips_through_journal_encoding() {
        let c = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        let f = EmFile::from_slice(&c, &shuffled(1000)).unwrap();
        f.set_persistent(true);
        let plan = FaultPlan::new(0).fatal_at(150);
        c.install_fault_plan(plan.clone());
        let mut m = SortManifest::new(&c, Some(3));
        assert!(resume(&f, &mut m).is_err());
        let loaded = SortManifest::<u64>::load(&c).unwrap().unwrap();
        assert_eq!(loaded.describe(), m.describe());
        assert_eq!(loaded.ledger().input(), Some(InputId::of(&f)));
        assert_eq!(loaded.num_runs(), m.num_runs());
        assert!(loaded.num_runs() > 0 && loaded.fan_in == 3);
        f.set_persistent(false);
    }

    #[test]
    fn describe_reports_progress() {
        let c = ctx();
        let m = SortManifest::<u64>::new(&c, Some(4));
        let d = m.describe();
        assert!(d.contains("consumed 0"));
        assert!(d.contains("fan_in 4"));
    }
}
