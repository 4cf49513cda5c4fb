//! Crash-recoverable multi-selection.
//!
//! [`crate::multi_select`] (paper Theorem 4) loses all work when a fatal
//! fault unwinds it mid-recursion. This module wraps the same algorithm in
//! a checkpointed [`MultiSelectManifest`] committed to a durable
//! [`emcore::Journal`], so a crash redoes at most one in-flight *work
//! unit* and every already-found splitter element survives.
//!
//! ## Work units
//!
//! The recursion of `multi_select_with` decomposes into:
//!
//! 1. **Partition prepass** (one unit; only when `K > m`): multi-partition
//!    the input at every `m`-th target rank into `g = ⌈K/m⌉` partitions.
//!    The partitions' segment files are journaled (and marked persistent)
//!    once the whole prepass is complete; a crash inside it redoes the
//!    prepass (its partial temporaries unwind).
//! 2. **Per-group base case** (one unit each): group `i` selects its ≤ `m`
//!    residual ranks inside partition `i`'s segments. The found elements
//!    are journaled — hex-encoded through their [`Record`] byte encoding —
//!    and the group's partition is released only *after* its answers are
//!    durable.
//!
//! Journal commits charge [`emcore::Counters::journal_writes`]; I/O spent
//! redoing an interrupted unit is additionally counted in
//! [`emcore::Counters::redone_ios`].
//!
//! ## Example: crash and resume
//!
//! ```
//! use emcore::{run_recoverable, EmConfig, EmContext, EmError, EmFile, FaultPlan};
//! use emselect::{MsOptions, MultiSelectJob, MultiSelectManifest};
//!
//! let ctx = EmContext::new_in_memory(EmConfig::tiny());
//! let data: Vec<u64> = (0..4000).rev().collect();
//! let input = EmFile::from_slice(&ctx, &data).unwrap();
//! let ranks: Vec<u64> = (1..=10).map(|i| i * 400).collect();
//!
//! let plan = FaultPlan::new(0).fatal_at(300);
//! ctx.install_fault_plan(plan.clone());
//! let mut opts = MsOptions::default();
//! opts.base_capacity_override = Some(3); // force several groups
//! let mut m = MultiSelectManifest::new(&input, &ranks, opts).unwrap();
//! assert!(matches!(
//!     run_recoverable(&ctx, &mut MultiSelectJob::new(&input, &mut m)),
//!     Err(EmError::Crashed)
//! ));
//! plan.clear_crash();
//! let got = run_recoverable(&ctx, &mut MultiSelectJob::new(&input, &mut m)).unwrap();
//! let want: Vec<u64> = ranks.iter().map(|&r| r - 1).collect();
//! assert_eq!(got, want);
//! ```

use emcore::{
    run_recoverable, EmContext, EmError, EmFile, InputId, LedgerDoc, Manifest, Record,
    RecoverableJob, Result, WorkLedger,
};

use crate::multi_partition::multi_partition_at_ranks;
use crate::multi_select::{base_case_capacity, multi_select_segs, MsOptions};
use crate::partition_out::{segs_len, Partition};

/// Name of the multi-selection checkpoint journal within its backing store.
pub const MULTI_SELECT_JOURNAL: &str = "multi-select-manifest";

/// Checkpointed state of a recoverable multi-selection. Owns the prepass
/// partitions of groups not yet selected; survives any number of failed
/// resume attempts.
#[derive(Debug)]
pub struct MultiSelectManifest<T: Record> {
    ledger: WorkLedger,
    opts: MsOptions,
    /// Caller's rank list, in caller order (the output order).
    ranks: Vec<u64>,
    /// Sorted, deduplicated working ranks.
    sorted: Vec<u64>,
    /// Base-case group capacity at construction.
    m: usize,
    /// Number of rank groups `g = ⌈K/m⌉`.
    groups: usize,
    /// The partition prepass (unit 0) has completed (vacuously true when
    /// `g ≤ 1`).
    partitioned: bool,
    /// Per-group partitions (empty before the prepass and after release).
    parts: Vec<Partition<T>>,
    /// Global-rank offset of each group's partition.
    offsets: Vec<u64>,
    /// Found elements for groups `0..next_group`, in sorted-rank order.
    answers: Vec<T>,
    next_group: usize,
}

impl<T: Record> Manifest for MultiSelectManifest<T> {
    type Record = T;

    fn ledger(&self) -> &WorkLedger {
        &self.ledger
    }

    fn ledger_mut(&mut self) -> &mut WorkLedger {
        &mut self.ledger
    }

    /// Partition segments per group (released groups are empty); answers
    /// as one hex payload of their record bytes.
    fn write_state(&self, doc: &mut LedgerDoc) {
        doc.push_num("m", self.m as u64);
        doc.push_num("partitioned", self.partitioned.into());
        doc.push_num("next-group", self.next_group as u64);
        doc.push_nums("ranks", &self.ranks);
        doc.push_nums("offsets", &self.offsets);
        for p in &self.parts {
            doc.push_files("part", p.segments());
        }
        let mut bytes = vec![0u8; self.answers.len() * T::BYTES];
        for (a, buf) in self.answers.iter().zip(bytes.chunks_exact_mut(T::BYTES)) {
            a.write_bytes(buf);
        }
        doc.push_hex("answers", &bytes);
    }
}

impl<T: Record> MultiSelectManifest<T> {
    /// A fresh manifest for selecting `ranks` (1-based, any order,
    /// duplicates allowed) from `input`. Validates ranks against the input
    /// length and charges the synthetic read of the caller's rank list,
    /// mirroring [`crate::multi_select_with`].
    pub fn new(input: &EmFile<T>, ranks: &[u64], opts: MsOptions) -> Result<Self> {
        let ctx = input.ctx();
        let n = input.len();
        for &r in ranks {
            if r == 0 || r > n {
                return Err(EmError::config(format!("rank {r} out of range [1, {n}]")));
            }
        }
        ctx.stats()
            .charge_reads((ranks.len() as u64).div_ceil(ctx.config().block_size() as u64));
        let mut sorted: Vec<u64> = ranks.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let m = base_case_capacity::<T>(ctx, &opts);
        let groups = sorted.len().div_ceil(m.max(1));
        Ok(Self {
            ledger: WorkLedger::new(ctx, MULTI_SELECT_JOURNAL, Some(InputId::of(input))),
            opts,
            ranks: ranks.to_vec(),
            sorted,
            m,
            groups,
            // A single group (or no ranks) needs no prepass.
            partitioned: groups <= 1,
            parts: Vec::new(),
            offsets: vec![0],
            answers: Vec::new(),
            next_group: 0,
        })
    }

    /// Number of rank groups (`⌈K/m⌉`; each is one work unit, plus one
    /// prepass unit when there is more than one group).
    pub fn groups(&self) -> usize {
        self.groups
    }
}

/// The checkpointed multi-selection as a [`RecoverableJob`]: drive it with
/// [`emcore::run_recoverable`]. Borrows the input and its manifest for the
/// duration of one resume attempt; build a fresh job value per attempt.
#[derive(Debug)]
pub struct MultiSelectJob<'a, T: Record> {
    input: &'a EmFile<T>,
    manifest: &'a mut MultiSelectManifest<T>,
}

impl<'a, T: Record> MultiSelectJob<'a, T> {
    /// A job that selects `manifest`'s ranks from `input`.
    pub fn new(input: &'a EmFile<T>, manifest: &'a mut MultiSelectManifest<T>) -> Self {
        Self { input, manifest }
    }
}

impl<T: Record> RecoverableJob for MultiSelectJob<'_, T> {
    type Output = Vec<T>;

    fn ledger(&mut self) -> &mut WorkLedger {
        &mut self.manifest.ledger
    }

    fn input(&self) -> InputId {
        InputId::of(self.input)
    }

    fn drive(&mut self, ctx: &EmContext) -> Result<Vec<T>> {
        let _phase = ctx.stats().phase_guard("multi-select/recoverable");
        resume_inner(self.input, self.manifest, ctx)
    }
}

/// One-shot recoverable multi-selection with default options — semantically
/// identical to [`crate::multi_select`], with checkpointing overhead. Use
/// [`MultiSelectManifest::new`] + [`MultiSelectJob`] +
/// [`emcore::run_recoverable`] directly to keep the manifest across
/// failures.
pub fn multi_select_recoverable<T: Record>(input: &EmFile<T>, ranks: &[u64]) -> Result<Vec<T>> {
    let mut manifest = MultiSelectManifest::new(input, ranks, MsOptions::default())?;
    run_recoverable(input.ctx(), &mut MultiSelectJob::new(input, &mut manifest))
}

fn resume_inner<T: Record>(
    input: &EmFile<T>,
    manifest: &mut MultiSelectManifest<T>,
    ctx: &EmContext,
) -> Result<Vec<T>> {
    let k = manifest.sorted.len();
    let m = manifest.m;
    let g = manifest.groups;

    // Unit 0: partition prepass at every m-th target rank (only when the
    // rank set spans several groups).
    if !manifest.partitioned {
        let unit = manifest
            .ledger
            .begin_unit(ctx, |_| "unit/select-prepass#0".to_string());
        let boundaries: Vec<u64> = (1..g).map(|i| manifest.sorted[i * m - 1]).collect();
        let parts = multi_partition_at_ranks(input, &boundaries)?;
        debug_assert_eq!(parts.len(), g);
        // ---- checkpoint: all partitions durable, referenced by the journal ----
        let mut offsets = Vec::with_capacity(g);
        offsets.push(0);
        offsets.extend(boundaries);
        manifest.parts = parts;
        manifest.offsets = offsets;
        manifest.partitioned = true;
        manifest.checkpoint(Vec::new())?;
        manifest.ledger.end_unit(unit);
    }

    // Units 1..=g: per-group base-case selection.
    while manifest.next_group < g {
        let i = manifest.next_group;
        let unit = manifest
            .ledger
            .begin_unit(ctx, |cp| format!("unit/select-group#{cp}"));
        let lo = i * m;
        let hi = ((i + 1) * m).min(k);
        let offset = manifest.offsets[i];
        let local: Vec<u64> = manifest.sorted[lo..hi]
            .iter()
            .map(|&r| r - offset)
            .collect();
        let found = if g == 1 {
            multi_select_segs(ctx, std::slice::from_ref(input), &local, manifest.opts)?
        } else {
            debug_assert_eq!(segs_len(manifest.parts[i].segments()), {
                let end = manifest.offsets.get(i + 1).copied().unwrap_or(input.len());
                end - offset
            });
            multi_select_segs(ctx, manifest.parts[i].segments(), &local, manifest.opts)?
        };
        manifest.answers.extend(found);
        manifest.next_group += 1;
        // ---- checkpoint: the group's splitter elements are durable, and
        // only then is its partition released ----
        let retired = match manifest.parts.get_mut(i) {
            Some(part) => std::mem::replace(part, Partition::empty()).into_segments(),
            None => Vec::new(),
        };
        manifest.checkpoint(retired)?;
        manifest.ledger.end_unit(unit);
    }

    // Map answers (sorted-rank order) back to the caller's order.
    debug_assert_eq!(manifest.answers.len(), k);
    let out = manifest
        .ranks
        .iter()
        .map(|r| {
            let i = manifest.sorted.binary_search(r).expect("rank present");
            manifest.answers[i]
        })
        .collect();
    manifest.ledger.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use emcore::{EmConfig, FaultPlan};

    fn shuffled(n: u64, seed: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n).collect();
        emcore::SplitMix64::new(seed).shuffle(&mut v);
        v
    }

    /// The canonical resume idiom: drive the job via `run_recoverable`.
    fn resume(f: &EmFile<u64>, m: &mut MultiSelectManifest<u64>) -> Result<Vec<u64>> {
        let c = f.ctx().clone();
        run_recoverable(&c, &mut MultiSelectJob::new(f, m))
    }

    fn many_group_opts() -> MsOptions {
        MsOptions {
            base_capacity_override: Some(3),
            ..MsOptions::default()
        }
    }

    #[test]
    fn fault_free_matches_plain_multi_select() {
        let c = EmContext::new_in_memory_strict(EmConfig::tiny());
        let n = 6000u64;
        let f = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(n, 11)))
            .unwrap();
        let ranks: Vec<u64> = vec![4000, 7, 7, 1500, 3000, 5999, 420, 2222, 808, 1, 6000];
        let want = crate::multi_select(&f, &ranks).unwrap();
        let mut m = MultiSelectManifest::new(&f, &ranks, many_group_opts()).unwrap();
        let got = resume(&f, &mut m).unwrap();
        assert_eq!(got, want);
        assert!(m.ledger().is_done());
        assert!(m.groups() > 1, "override must force several groups");
        let stats = c.stats().snapshot();
        assert_eq!(stats.redone_ios, 0);
        assert!(stats.journal_writes as usize >= m.groups());
    }

    #[test]
    fn single_group_path() {
        let c = EmContext::new_in_memory_strict(EmConfig::tiny());
        let f = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(3000, 12)))
            .unwrap();
        let got = multi_select_recoverable(&f, &[1, 1500, 3000]).unwrap();
        assert_eq!(got, vec![0, 1499, 2999]);
    }

    #[test]
    fn empty_ranks_complete_immediately() {
        let c = EmContext::new_in_memory(EmConfig::tiny());
        let f = EmFile::from_slice(&c, &[5u64, 1]).unwrap();
        assert!(multi_select_recoverable(&f, &[]).unwrap().is_empty());
    }

    #[test]
    fn rank_out_of_range_rejected() {
        let c = EmContext::new_in_memory(EmConfig::tiny());
        let f = EmFile::from_slice(&c, &[1u64, 2, 3]).unwrap();
        assert!(MultiSelectManifest::new(&f, &[0], MsOptions::default()).is_err());
        assert!(MultiSelectManifest::new(&f, &[4], MsOptions::default()).is_err());
    }

    #[test]
    fn crash_and_resume_preserves_output_and_bounds_rework() {
        let c = EmContext::new_in_memory(EmConfig::tiny());
        let n = 5000u64;
        let data = shuffled(n, 13);
        let ranks: Vec<u64> = (1..=12).map(|i| i * 400).collect();
        // Fault-free reference.
        let want: Vec<u64> = ranks.iter().map(|&r| r - 1).collect();

        let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let plan = FaultPlan::new(0).fatal_at(250);
        c.install_fault_plan(plan.clone());
        let mut m = MultiSelectManifest::new(&f, &ranks, many_group_opts()).unwrap();
        let mut crashes = 0;
        let got = loop {
            match resume(&f, &mut m) {
                Ok(out) => break out,
                Err(EmError::Crashed) => {
                    crashes += 1;
                    assert!(crashes < 100);
                    plan.clear_crash();
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        };
        assert_eq!(got, want);
        assert_eq!(crashes, 1);
        let stats = c.stats().snapshot();
        assert!(stats.redone_ios > 0);
        assert!(
            stats.redone_ios <= m.ledger().max_unit_ios(),
            "rework {} vs unit bound {}",
            stats.redone_ios,
            m.ledger().max_unit_ios()
        );
    }

    #[test]
    fn completed_manifest_rejects_reuse_and_wrong_input() {
        let c = EmContext::new_in_memory(EmConfig::tiny());
        let f = EmFile::from_slice(&c, &shuffled(100, 14)).unwrap();
        let mut m = MultiSelectManifest::new(&f, &[50], MsOptions::default()).unwrap();
        let _ = resume(&f, &mut m).unwrap();
        assert!(matches!(resume(&f, &mut m), Err(EmError::Config(_))));
        let g = EmFile::from_slice(&c, &[1u64, 2]).unwrap();
        let mut m2 = MultiSelectManifest::new(&f, &[50], MsOptions::default()).unwrap();
        assert!(matches!(resume(&g, &mut m2), Err(EmError::Config(_))));
    }

    #[test]
    fn journal_cleaned_up_on_completion_disk() {
        let ranks: Vec<u64> = (1..=9).map(|i| i * 400).collect();
        // Measure a fault-free run's device-attempt count so the crash can
        // be planted near the end, i.e. after several checkpoints.
        let attempts = {
            let c = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
            let f = c
                .stats()
                .paused(|| EmFile::from_slice(&c, &shuffled(4000, 15)))
                .unwrap();
            let p = FaultPlan::new(0);
            c.install_fault_plan(p.clone());
            let mut m = MultiSelectManifest::new(&f, &ranks, many_group_opts()).unwrap();
            resume(&f, &mut m).unwrap();
            p.attempts()
        };

        let c = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        let f = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(4000, 15)))
            .unwrap();
        let meta = c
            .backing_dir()
            .unwrap()
            .join("multi-select-manifest.journal");
        let plan = FaultPlan::new(0).fatal_at(attempts - 5);
        c.install_fault_plan(plan.clone());
        let mut m = MultiSelectManifest::new(&f, &ranks, many_group_opts()).unwrap();
        assert!(resume(&f, &mut m).is_err());
        assert!(
            m.ledger().checkpoints() > 0,
            "crash planted after first checkpoint"
        );
        assert!(meta.exists(), "journal persisted after crash");
        plan.clear_crash();
        let got = resume(&f, &mut m).unwrap();
        assert_eq!(got.len(), ranks.len());
        assert!(!meta.exists(), "journal removed after completion");
    }
}
