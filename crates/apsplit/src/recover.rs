//! Crash-recoverable approximate K-partitioning.
//!
//! [`crate::approx_partitioning`] (paper §5.2, Theorem 6) builds its whole
//! output inside one recursion; a fatal fault unwinds everything. This
//! module realises the fixed partition sizes of
//! `partitioning::target_sizes` through a binary split tree whose every
//! step is checkpointed to a durable [`emcore::Journal`] in a
//! [`PartitionManifest`], so a crash redoes at most one in-flight split.
//! They are the sizes [`crate::approx_partitioning`] realises too, except
//! where it would take near-even sizes for a two-sided spec with
//! `b − a ≥ 2` on an input larger than memory: there it picks sizes in
//! `[a, b]` at its first distribution level's bucket ends, which a split
//! tree never sees, so this path keeps the fixed ones.
//!
//! ## Work units
//!
//! Let `cum` be the cumulative target sizes. The root work node covers
//! partitions `0..K`; each unit splits a node's segment list at the
//! cumulative boundary nearest its middle partition (one
//! [`emselect::split_at_rank_segs`] call, `O(len/B)` expected I/Os), making
//! the tree `O(lg K)` levels of `O(N/B)` total work each. A node's input
//! segments are released only **after** both children's segment lists are
//! durable in the journal; a completed partition's segments stay persistent
//! until the whole partitioning finishes. Zero-size partitions (left-
//! grounded padding, `a = 0` fronts) are materialised as empty without
//! I/O.
//!
//! Journal commits charge [`emcore::Counters::journal_writes`]; redone work
//! after a crash is additionally counted in
//! [`emcore::Counters::redone_ios`].
//!
//! ## Example: crash and resume
//!
//! ```
//! use apsplit::{PartitionJob, PartitionManifest, ProblemSpec};
//! use emcore::{run_recoverable, EmConfig, EmContext, EmError, EmFile, FaultPlan};
//!
//! let ctx = EmContext::new_in_memory(EmConfig::tiny());
//! let data: Vec<u64> = (0..4000).rev().collect();
//! let input = EmFile::from_slice(&ctx, &data).unwrap();
//! let spec = ProblemSpec::new(4000, 8, 450, 600).unwrap();
//!
//! let plan = FaultPlan::new(0).fatal_at(400);
//! ctx.install_fault_plan(plan.clone());
//! let mut m = PartitionManifest::new(&input, &spec).unwrap();
//! assert!(matches!(
//!     run_recoverable(&ctx, &mut PartitionJob::new(&input, &mut m)),
//!     Err(EmError::Crashed)
//! ));
//! plan.clear_crash();
//! let parts = run_recoverable(&ctx, &mut PartitionJob::new(&input, &mut m)).unwrap();
//! assert_eq!(parts.len(), 8);
//! assert_eq!(parts.iter().map(|p| p.len()).sum::<u64>(), 4000);
//! ```

use emcore::{
    run_recoverable, EmContext, EmFile, InputId, LedgerDoc, Manifest, Record, RecoverableJob,
    Result, WorkLedger,
};
use emselect::{split_at_rank_segs, Partition};

use crate::partitioning::{target_sizes, PartitionOptions, Partitioning};
use crate::spec::ProblemSpec;
use crate::splitters::check_input;

/// Name of the partitioning checkpoint journal within its backing store.
pub const PARTITION_JOURNAL: &str = "partition-manifest";

/// A pending node of the binary split tree: the records destined for
/// partitions `lo..=hi` (inclusive), physically held by `segs` — `None`
/// means the (borrowed, never released) root input.
#[derive(Debug)]
struct Node<T: Record> {
    lo: usize,
    hi: usize,
    segs: Option<Vec<EmFile<T>>>,
}

/// Checkpointed state of a recoverable approximate partitioning. Owns the
/// completed partitions and the pending split-tree nodes; survives any
/// number of failed [`PartitionJob`] attempts.
#[derive(Debug)]
pub struct PartitionManifest<T: Record> {
    ledger: WorkLedger,
    spec: ProblemSpec,
    opts: PartitionOptions,
    /// Cumulative target partition sizes (`cum[i]` = records in
    /// partitions `0..=i`).
    cum: Vec<u64>,
    /// Completed partitions by index.
    slots: Vec<Option<Partition<T>>>,
    /// Pending nodes, processed LIFO (leftmost-deepest first).
    work: Vec<Node<T>>,
}

impl<T: Record> Manifest for PartitionManifest<T> {
    type Record = T;

    fn ledger(&self) -> &WorkLedger {
        &self.ledger
    }

    fn ledger_mut(&mut self) -> &mut WorkLedger {
        &mut self.ledger
    }

    /// Completed partition `i` as file list `slot-<i>`; pending nodes, stack
    /// bottom first, as `node <lo> <hi>` plus their segments — the root
    /// reads the input, so it lists none and is marked `root`.
    fn write_state(&self, doc: &mut LedgerDoc) {
        let ProblemSpec { n, k, a, b, .. } = self.spec;
        doc.push_nums("spec", &[n, k, a, b]);
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(p) = slot {
                doc.push_files(&format!("slot-{i}"), p.segments());
            }
        }
        for nd in &self.work {
            let bounds = [nd.lo as u64, nd.hi as u64];
            match &nd.segs {
                Some(segs) => {
                    doc.push_nums("node", &bounds);
                    doc.push_files("node", segs);
                }
                None => doc.push_nums("root", &bounds),
            }
        }
    }
}

impl<T: Record> PartitionManifest<T> {
    /// A fresh manifest for partitioning `input` under `spec` with default
    /// options.
    pub fn new(input: &EmFile<T>, spec: &ProblemSpec) -> Result<Self> {
        Self::new_with(input, spec, PartitionOptions::default())
    }

    /// [`PartitionManifest::new`] with explicit options (only the splitter
    /// strategy is consulted).
    pub fn new_with(input: &EmFile<T>, spec: &ProblemSpec, opts: PartitionOptions) -> Result<Self> {
        check_input(input, spec)?;
        let sizes = target_sizes(spec);
        let k = sizes.len();
        debug_assert_eq!(k, spec.k as usize);
        let mut cum = Vec::with_capacity(k);
        let mut acc = 0u64;
        for s in &sizes {
            acc += s;
            cum.push(acc);
        }
        debug_assert_eq!(acc, spec.n);
        Ok(Self {
            ledger: WorkLedger::new(input.ctx(), PARTITION_JOURNAL, Some(InputId::of(input))),
            spec: *spec,
            opts,
            cum,
            slots: (0..k).map(|_| None).collect(),
            work: vec![Node {
                lo: 0,
                hi: k - 1,
                segs: None,
            }],
        })
    }
}

/// The checkpointed approximate partitioning as a [`RecoverableJob`]:
/// drive it with [`emcore::run_recoverable`]. Borrows the input and its
/// manifest for the duration of one resume attempt; build a fresh job
/// value per attempt.
#[derive(Debug)]
pub struct PartitionJob<'a, T: Record> {
    input: &'a EmFile<T>,
    manifest: &'a mut PartitionManifest<T>,
}

impl<'a, T: Record> PartitionJob<'a, T> {
    /// A job that partitions `input` per `manifest`'s problem spec.
    pub fn new(input: &'a EmFile<T>, manifest: &'a mut PartitionManifest<T>) -> Self {
        Self { input, manifest }
    }
}

impl<T: Record> RecoverableJob for PartitionJob<'_, T> {
    type Output = Partitioning<T>;

    fn ledger(&mut self) -> &mut WorkLedger {
        &mut self.manifest.ledger
    }

    fn input(&self) -> InputId {
        InputId::of(self.input)
    }

    fn drive(&mut self, ctx: &EmContext) -> Result<Partitioning<T>> {
        let phase = ctx.stats().phase_guard("approx-partitioning/recoverable");
        let r = resume_inner(self.input, self.manifest, ctx);
        drop(phase);
        r
    }
}

/// One-shot recoverable approximate partitioning with default options —
/// realises the fixed sizes of `partitioning::target_sizes` (see the
/// module docs for where [`crate::approx_partitioning`] departs from
/// them), with checkpointing overhead. Use [`PartitionManifest::new`] +
/// [`PartitionJob`] + [`emcore::run_recoverable`] directly to keep the
/// manifest across failures.
pub fn approx_partitioning_recoverable<T: Record>(
    input: &EmFile<T>,
    spec: &ProblemSpec,
) -> Result<Partitioning<T>> {
    let mut manifest = PartitionManifest::new(input, spec)?;
    run_recoverable(input.ctx(), &mut PartitionJob::new(input, &mut manifest))
}

fn resume_inner<T: Record>(
    input: &EmFile<T>,
    manifest: &mut PartitionManifest<T>,
    ctx: &EmContext,
) -> Result<Partitioning<T>> {
    let strategy = manifest.opts.strategy;
    while let Some(nd) = manifest.work.last() {
        let (lo, hi, is_root) = (nd.lo, nd.hi, nd.segs.is_none());
        let unit = manifest
            .ledger
            .begin_unit(ctx, |_| format!("split/{lo}-{hi}"));
        let start = if lo == 0 { 0 } else { manifest.cum[lo - 1] };
        let node_len = manifest.cum[hi] - start;

        if node_len == 0 {
            // Every covered partition is empty; no I/O.
            manifest.work.pop();
            for s in lo..=hi {
                manifest.slots[s] = Some(Partition::empty());
            }
            manifest.checkpoint(Vec::new())?;
            manifest.ledger.end_unit(unit);
            continue;
        }

        if lo == hi {
            // Leaf: the node's records *are* partition `lo`.
            let part = if is_root {
                // K = 1 (or a degenerate spec): materialise a copy so the
                // output owns its storage, like the non-recoverable path.
                let mut w = ctx.writer::<T>()?;
                let mut r = input.reader()?;
                while let Some(x) = r.next()? {
                    w.push(x)?;
                }
                Partition::from_file(w.finish()?)
            } else {
                let nd = manifest.work.last_mut().expect("non-empty work stack");
                Partition::from_segments(nd.segs.take().expect("non-root leaf"))
            };
            manifest.work.pop();
            manifest.slots[lo] = Some(part);
            // ---- checkpoint: partition `lo`'s segments are durable ----
            manifest.checkpoint(Vec::new())?;
            manifest.ledger.end_unit(unit);
            continue;
        }

        let mid = lo + (hi - lo) / 2;
        let cut = manifest.cum[mid] - start;

        if cut == 0 {
            // Partitions lo..=mid all have target size 0; no I/O.
            for s in lo..=mid {
                manifest.slots[s] = Some(Partition::empty());
            }
            manifest.work.last_mut().expect("non-empty").lo = mid + 1;
            manifest.checkpoint(Vec::new())?;
            manifest.ledger.end_unit(unit);
            continue;
        }
        if cut == node_len {
            // Partitions mid+1..=hi all have target size 0; no I/O.
            for s in mid + 1..=hi {
                manifest.slots[s] = Some(Partition::empty());
            }
            manifest.work.last_mut().expect("non-empty").hi = mid;
            manifest.checkpoint(Vec::new())?;
            manifest.ledger.end_unit(unit);
            continue;
        }

        // The real work unit: split this node's records at local rank
        // `cut` so partitions lo..=mid get the `cut` smallest.
        let (low, high) = {
            let nd = manifest.work.last().expect("non-empty work stack");
            let segs: &[EmFile<T>] = match &nd.segs {
                Some(v) => v,
                None => std::slice::from_ref(input),
            };
            let (low, high, _boundary) = split_at_rank_segs(ctx, segs, cut, strategy)?;
            (low, high)
        };
        let parent = manifest.work.pop().expect("non-empty work stack");
        manifest.work.push(Node {
            lo: mid + 1,
            hi,
            segs: Some(high.into_segments()),
        });
        manifest.work.push(Node {
            lo,
            hi: mid,
            segs: Some(low.into_segments()),
        });
        // ---- checkpoint: both children's segment lists are durable; only
        // then is the parent's (non-root) input released ----
        manifest.checkpoint(parent.segs.unwrap_or_default())?;
        manifest.ledger.end_unit(unit);
    }

    let parts: Partitioning<T> = manifest
        .slots
        .iter_mut()
        .map(|s| s.take().expect("all slots filled"))
        .collect();
    // Ownership moves to the caller: restore delete-on-drop semantics.
    for p in &parts {
        for s in p.segments() {
            s.set_persistent(false);
        }
    }
    manifest.ledger.finish()?;
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_partitioning;
    use emcore::{EmConfig, EmError, FaultPlan, SplitMix64};

    fn shuffled(n: u64, seed: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n).collect();
        SplitMix64::new(seed).shuffle(&mut v);
        v
    }

    /// The canonical resume idiom: drive the job via `run_recoverable`.
    fn resume(f: &EmFile<u64>, m: &mut PartitionManifest<u64>) -> Result<Partitioning<u64>> {
        let c = f.ctx().clone();
        run_recoverable(&c, &mut PartitionJob::new(f, m))
    }

    fn flat(parts: &[Partition<u64>]) -> Vec<u64> {
        let mut all = Vec::new();
        for p in parts {
            all.extend(p.to_vec().unwrap());
        }
        all
    }

    fn check_recoverable(n: u64, k: u64, a: u64, b: u64, seed: u64) {
        let c = EmContext::new_in_memory_strict(EmConfig::tiny());
        let spec = ProblemSpec::new(n, k, a, b).unwrap();
        let data = shuffled(n, seed);
        let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let parts = approx_partitioning_recoverable(&f, &spec).unwrap();
        let report = c
            .stats()
            .paused(|| verify_partitioning(&parts, &spec))
            .unwrap();
        assert!(report.ok, "{spec}: {report:?}");
        let sizes: Vec<u64> = parts.iter().map(|p| p.len()).collect();
        assert_eq!(sizes, crate::partitioning::target_sizes(&spec), "{spec}");
        let mut all = c.stats().paused(|| flat(&parts));
        all.sort_unstable();
        let mut want = data;
        want.sort_unstable();
        assert_eq!(all, want, "{spec}");
    }

    #[test]
    fn fault_free_all_groundedness_classes() {
        check_recoverable(4000, 8, 10, 4000, 51); // right-grounded
        check_recoverable(4000, 8, 0, 4000, 52); // right, a = 0
        check_recoverable(4000, 8, 0, 900, 53); // left-grounded
        check_recoverable(4000, 8, 450, 600, 54); // two-sided easy
        check_recoverable(4000, 8, 2, 3000, 55); // two-sided hard
        check_recoverable(4096, 16, 256, 256, 56); // exact
        check_recoverable(100, 1, 0, 100, 57); // K = 1 root leaf
    }

    #[test]
    fn fault_free_charges_journal_writes_no_redone() {
        let c = EmContext::new_in_memory(EmConfig::tiny());
        let spec = ProblemSpec::new(3000, 8, 300, 500).unwrap();
        let f = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(3000, 58)))
            .unwrap();
        let parts = approx_partitioning_recoverable(&f, &spec).unwrap();
        assert_eq!(parts.len(), 8);
        let stats = c.stats().snapshot();
        assert_eq!(stats.redone_ios, 0);
        assert!(stats.journal_writes > 0);
    }

    #[test]
    fn crash_and_resume_preserves_output_and_bounds_rework() {
        let n = 5000u64;
        let spec = ProblemSpec::new(n, 8, 100, 3000).unwrap();
        let data = shuffled(n, 59);
        // Fault-free reference output.
        let want = {
            let c = EmContext::new_in_memory(EmConfig::tiny());
            let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
            let parts = approx_partitioning_recoverable(&f, &spec).unwrap();
            c.stats().paused(|| flat(&parts))
        };

        let c = EmContext::new_in_memory(EmConfig::tiny());
        let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let plan = FaultPlan::new(0).fatal_at(300);
        c.install_fault_plan(plan.clone());
        let mut m = PartitionManifest::new(&f, &spec).unwrap();
        let mut crashes = 0;
        let parts = loop {
            match resume(&f, &mut m) {
                Ok(parts) => break parts,
                Err(EmError::Crashed) => {
                    crashes += 1;
                    assert!(crashes < 100);
                    plan.clear_crash();
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        };
        assert_eq!(crashes, 1);
        let got = c.stats().paused(|| flat(&parts));
        assert_eq!(got, want, "resumed output must equal fault-free output");
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
        let spec = ProblemSpec::new(200, 4, 20, 100).unwrap();
        let f = EmFile::from_slice(&c, &shuffled(200, 60)).unwrap();
        let mut m = PartitionManifest::new(&f, &spec).unwrap();
        let _ = resume(&f, &mut m).unwrap();
        assert!(matches!(resume(&f, &mut m), Err(EmError::Config(_))));
        let g = EmFile::from_slice(&c, &[1u64, 2]).unwrap();
        let mut m2 = PartitionManifest::new(&f, &spec).unwrap();
        assert!(matches!(resume(&g, &mut m2), Err(EmError::Config(_))));
    }

    #[test]
    fn journal_cleaned_up_on_completion_disk() {
        let c = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        let spec = ProblemSpec::new(4000, 8, 100, 3000).unwrap();
        let f = c
            .stats()
            .paused(|| EmFile::from_slice(&c, &shuffled(4000, 61)))
            .unwrap();
        let meta = c.backing_dir().unwrap().join("partition-manifest.journal");
        let plan = FaultPlan::new(0).fatal_at(600);
        c.install_fault_plan(plan.clone());
        let mut m = PartitionManifest::new(&f, &spec).unwrap();
        assert!(resume(&f, &mut m).is_err());
        assert_eq!(meta.exists(), m.ledger().checkpoints() > 0);
        plan.clear_crash();
        let parts = resume(&f, &mut m).unwrap();
        assert_eq!(parts.len(), 8);
        assert!(!meta.exists(), "journal removed after completion");
        let report = c
            .stats()
            .paused(|| verify_partitioning(&parts, &spec))
            .unwrap();
        assert!(report.ok);
    }
}
