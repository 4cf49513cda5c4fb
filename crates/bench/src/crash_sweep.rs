//! EX-RECOVERY: the crash-sweep campaign.
//!
//! For each recoverable job (external sort, multi-selection, approximate
//! partitioning, graph clustering) and each backend (memory, disk):
//!
//! 1. run fault-free to learn the device-attempt count, billed I/Os, and
//!    the output digest;
//! 2. inject a fatal fault at every device attempt index (stride-sampled
//!    once the count exceeds the points budget), resume after each crash,
//!    and check the **recovery invariants**: the resumed output equals the
//!    fault-free output exactly, total billed I/Os exceed the fault-free
//!    cost by at most one work unit ([`emcore::WorkLedger::max_unit_ios`]),
//!    `redone_ios` is within the same unit bound, and afterwards no slot
//!    of the block store is held by anything but the inputs and the output
//!    (and no journal temp file is left).
//!
//! Any violated invariant increments the `failures` column — the campaign
//! reports rather than panics, so one bad crash point does not hide the
//! rest of the sweep. The library tests (`tests/fault_recovery.rs`) run
//! the same invariants exhaustively at small `N` and assert zero failures.

use apsplit::{PartitionJob, PartitionManifest, ProblemSpec};
use emcore::{run_recoverable, EmConfig, EmContext, EmError, FaultPlan, Manifest, RecoverableJob};
use emgraph::{
    build_graph, edges_from_pairs, labels_digest, BuildOptions, ClusterJob, ClusterManifest,
};
use emselect::{MsOptions, MultiSelectJob, MultiSelectManifest, Partition};
use emsort::{SortJob, SortManifest};
use workloads::{materialize, rmat_edges, Workload};

use crate::graph::cluster_opts;
use crate::harness::{emit, fnum, Scale, Table};

const SEED: u64 = 20140623;

/// The recoverable jobs the campaign sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Recoverable external merge sort ([`emsort::SortJob`]).
    Sort,
    /// Recoverable multi-selection ([`emselect::MultiSelectJob`]).
    MultiSelect,
    /// Recoverable approximate partitioning ([`apsplit::PartitionJob`]).
    Partition,
    /// Recoverable label-propagation clustering ([`emgraph::ClusterJob`])
    /// of an R-MAT graph with `N / 4` raw edges.
    Cluster,
}

impl Algo {
    /// Table label.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Sort => "sort",
            Algo::MultiSelect => "multi-select",
            Algo::Partition => "partitioning",
            Algo::Cluster => "cluster",
        }
    }
}

/// Backing store under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Host-RAM blocks.
    Memory,
    /// A block store in a temporary directory (checksummed slots, real
    /// leaks).
    Disk,
}

impl Backend {
    /// Table label.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Memory => "memory",
            Backend::Disk => "disk",
        }
    }

    pub(crate) fn ctx(self, config: EmConfig) -> EmContext {
        match self {
            Backend::Memory => EmContext::new_in_memory(config),
            Backend::Disk => EmContext::new_on_disk_temp(config).expect("tempdir"),
        }
    }
}

/// One completed (possibly crash-and-resumed) run of a recoverable job.
pub(crate) struct RunOut {
    /// Digest of the full output contents, in order.
    pub(crate) digest: u64,
    /// Billed block I/Os of the job (input construction excluded).
    pub(crate) total_ios: u64,
    /// `Counters::redone_ios` delta.
    pub(crate) redone_ios: u64,
    /// Device attempts consumed (the crash-index space).
    pub(crate) attempts: u64,
    /// The manifest's largest completed work unit, in I/Os.
    pub(crate) max_unit_ios: u64,
    /// Crash→resume cycles needed.
    pub(crate) resumes: u64,
    /// Block-store slots held by no live file, plus `*.journal.tmp`
    /// files left behind (disk).
    pub(crate) leaked: u64,
}

impl RunOut {
    /// Extra billed I/Os over the fault-free run.
    pub(crate) fn rework(&self, clean: &RunOut) -> u64 {
        self.total_ios.saturating_sub(clean.total_ios)
    }

    /// The recovery invariants of a run crashed once, against the
    /// fault-free run: every violated one, described.
    pub(crate) fn violations(&self, clean: &RunOut) -> Vec<String> {
        let bound = self.max_unit_ios;
        let mut bad = Vec::new();
        if self.digest != clean.digest {
            bad.push("output differs from fault-free run".to_string());
        }
        if self.resumes != 1 {
            bad.push(format!("{} resumes (expected 1)", self.resumes));
        }
        if self.rework(clean) > bound {
            bad.push(format!(
                "rework {} exceeds unit bound {bound}",
                self.rework(clean)
            ));
        }
        if self.redone_ios > bound {
            bad.push(format!(
                "redone_ios {} exceeds unit bound {bound}",
                self.redone_ios
            ));
        }
        if self.leaked > 0 {
            bad.push(format!(
                "{} leaked slots or journal temp files",
                self.leaked
            ));
        }
        bad
    }
}

/// FNV-1a style digest of a value stream, in order.
pub(crate) fn digest(vals: impl IntoIterator<Item = u64>) -> u64 {
    vals.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of a partitioning: contents in order, with a marker at every
/// partition boundary.
fn digest_parts(parts: &[Partition<u64>]) -> u64 {
    digest(
        parts
            .iter()
            .flat_map(|p| std::iter::once(0xDEAD).chain(p.to_vec().expect("oracle read"))),
    )
}

/// Leaked-slot audit: slots of the block store that no file in `live`
/// (the inputs and the output) holds, slots neither held nor free, plus
/// leftover journal temp files. Zero on the memory backend by construction.
pub(crate) fn count_leaked(ctx: &EmContext, live: &[u64]) -> u64 {
    let u = ctx.slot_usage(live);
    let mut leaked = u.leaked() + u.slots.abs_diff(u.used + u.free);
    if let Some(dir) = ctx.backing_dir() {
        for entry in std::fs::read_dir(dir).expect("read backing dir") {
            let name = entry.expect("dir entry").file_name();
            if name.to_string_lossy().ends_with(".journal.tmp") {
                leaked += 1;
            }
        }
    }
    leaked
}

/// Drive `job` to completion, clearing each simulated crash of `plan` and
/// resuming. Returns the output and the number of crash→resume cycles;
/// `Err` describes a non-crash failure or a crash loop.
pub(crate) fn resume_until_done<J: RecoverableJob>(
    ctx: &EmContext,
    plan: &FaultPlan,
    job: &mut J,
) -> Result<(J::Output, u64), String> {
    let mut resumes = 0u64;
    loop {
        match run_recoverable(ctx, job) {
            Ok(out) => return Ok((out, resumes)),
            Err(EmError::Crashed) => {
                resumes += 1;
                if resumes > 50 {
                    return Err("crash loop did not terminate".into());
                }
                plan.clear_crash();
            }
            Err(e) => return Err(format!("unexpected error: {e}")),
        }
    }
}

/// Selection ranks used by the multi-select case: `k` evenly spaced.
fn select_ranks(n: u64) -> Vec<u64> {
    (1..=12u64).map(|i| i * n / 12).filter(|&r| r > 0).collect()
}

/// Problem spec used by the partitioning case: a two-sided instance that
/// exercises both grounded fronts and near-even tails.
fn partition_spec(n: u64) -> ProblemSpec {
    ProblemSpec::new(n, 8, n / 10, n / 2).expect("feasible spec")
}

/// Run `algo` once on a fresh context, crashing at device attempt
/// `crash_at` (if any) and resuming until completion. The input is built
/// before the fault plan is installed, so crash indices count only the
/// job's own device attempts. `Err` carries a description of the non-crash
/// failure, if one occurs.
fn run_algo(
    algo: Algo,
    backend: Backend,
    config: EmConfig,
    n: u64,
    crash_at: Option<u64>,
) -> Result<RunOut, String> {
    let ctx = backend.ctx(config);
    let keys = || {
        ctx.stats()
            .paused(|| materialize(&ctx, Workload::UniformPerm, n, SEED))
            .map_err(|e| format!("materialize: {e}"))
    };
    let mut plan = FaultPlan::new(SEED);
    if let Some(i) = crash_at {
        plan = plan.fatal_at(i);
    }
    let arm = || {
        ctx.install_fault_plan(plan.clone());
        ctx.stats().snapshot()
    };

    let (before, digest, max_unit_ios, live, resumes) = match algo {
        Algo::Sort => {
            let input = keys()?;
            let before = arm();
            let mut m = SortManifest::new(&ctx, None);
            let (sorted, resumes) =
                resume_until_done(&ctx, &plan, &mut SortJob::new(&input, &mut m))?;
            let d = digest(ctx.oracle(|| sorted.to_vec()).expect("oracle read"));
            let live = vec![input.id(), sorted.id()];
            (before, d, m.ledger().max_unit_ios(), live, resumes)
        }
        Algo::MultiSelect => {
            let input = keys()?;
            let before = arm();
            // A small base-case capacity forces several groups, so the
            // checkpoint machinery is exercised even at sweep-sized N.
            let opts = MsOptions {
                base_capacity_override: Some(4),
                ..MsOptions::default()
            };
            let mut m = MultiSelectManifest::new(&input, &select_ranks(n), opts)
                .map_err(|e| format!("manifest: {e}"))?;
            let (found, resumes) =
                resume_until_done(&ctx, &plan, &mut MultiSelectJob::new(&input, &mut m))?;
            let d = digest(found);
            (
                before,
                d,
                m.ledger().max_unit_ios(),
                vec![input.id()],
                resumes,
            )
        }
        Algo::Partition => {
            let input = keys()?;
            let before = arm();
            let spec = partition_spec(n);
            let mut m =
                PartitionManifest::new(&input, &spec).map_err(|e| format!("manifest: {e}"))?;
            let (parts, resumes) =
                resume_until_done(&ctx, &plan, &mut PartitionJob::new(&input, &mut m))?;
            let d = ctx.oracle(|| digest_parts(&parts));
            let mut live = vec![input.id()];
            for p in &parts {
                live.extend(p.segments().iter().map(|s| s.id()));
            }
            (before, d, m.ledger().max_unit_ios(), live, resumes)
        }
        Algo::Cluster => {
            let build = |e| format!("graph build: {e}");
            let raw = edges_from_pairs(&ctx, &rmat_edges(8, n / 4, SEED)).map_err(build)?;
            let g = build_graph(&ctx, &raw, &BuildOptions::default()).map_err(build)?;
            let before = arm();
            let mut m = ClusterManifest::new(&ctx, &cluster_opts());
            let (c, resumes) = resume_until_done(&ctx, &plan, &mut ClusterJob::new(&g, &mut m))?;
            let d = ctx
                .oracle(|| labels_digest(&c.labels))
                .map_err(|e| format!("digest: {e}"))?;
            let live = vec![raw.id(), g.edges().id(), g.offsets().id(), c.labels.id()];
            (before, d, m.ledger().max_unit_ios(), live, resumes)
        }
    };

    let spent = ctx.stats().snapshot().since(&before);
    Ok(RunOut {
        digest,
        total_ios: spent.total_ios(),
        redone_ios: spent.redone_ios,
        attempts: plan.attempts(),
        max_unit_ios,
        resumes,
        leaked: count_leaked(&ctx, &live),
    })
}

/// The aggregated result of sweeping one `(algo, backend)` cell.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Algorithm swept.
    pub algo: Algo,
    /// Backend swept.
    pub backend: Backend,
    /// Input size.
    pub n: u64,
    /// Billed I/Os of the fault-free run.
    pub clean_ios: u64,
    /// Device attempts of the fault-free run (the crash-index space).
    pub clean_attempts: u64,
    /// Crash points actually injected.
    pub points: u64,
    /// Stride between injected points (1 = exhaustive).
    pub stride: u64,
    /// Largest observed single work unit, in I/Os.
    pub max_unit_ios: u64,
    /// Largest observed rework (`total - clean`) over all crash points.
    pub max_rework: u64,
    /// Mean rework over all crash points.
    pub mean_rework: f64,
    /// Crash points violating any recovery invariant.
    pub failures: u64,
}

/// Sweep one `(algo, backend)` cell: fault-free baseline, then a fatal
/// fault at every `stride`-th device attempt with full invariant checks.
/// `points_budget` bounds the number of injected crash points (use
/// `u64::MAX` for an exhaustive sweep).
pub fn sweep(algo: Algo, backend: Backend, n: u64, points_budget: u64) -> SweepOutcome {
    // The tiny configuration keeps every algorithm multi-unit at sweep
    // feasible N.
    let config = EmConfig::tiny();
    let clean = run_algo(algo, backend, config, n, None).expect("fault-free run");
    assert_eq!(clean.resumes, 0);

    let stride = clean.attempts.div_ceil(points_budget.max(1)).max(1);
    let mut points = 0u64;
    let mut failures = 0u64;
    let mut max_rework = 0u64;
    let mut rework_sum = 0u64;
    let mut max_unit = clean.max_unit_ios;

    let mut crash_at = 0u64;
    while crash_at < clean.attempts {
        points += 1;
        match run_algo(algo, backend, config, n, Some(crash_at)) {
            Err(e) => {
                eprintln!(
                    "[EX-RECOVERY] {}/{} @{crash_at}: {e}",
                    algo.name(),
                    backend.name()
                );
                failures += 1;
            }
            Ok(run) => {
                max_unit = max_unit.max(run.max_unit_ios);
                let rework = run.rework(&clean);
                max_rework = max_rework.max(rework);
                rework_sum += rework;
                let bad = run.violations(&clean);
                if !bad.is_empty() {
                    eprintln!(
                        "[EX-RECOVERY] {}/{} @{crash_at}: {}",
                        algo.name(),
                        backend.name(),
                        bad.join("; ")
                    );
                    failures += 1;
                }
            }
        }
        crash_at += stride;
    }

    SweepOutcome {
        algo,
        backend,
        n,
        clean_ios: clean.total_ios,
        clean_attempts: clean.attempts,
        points,
        stride,
        max_unit_ios: max_unit,
        max_rework,
        mean_rework: if points == 0 {
            0.0
        } else {
            rework_sum as f64 / points as f64
        },
        failures,
    }
}

/// EX-RECOVERY: crash-sweep every recoverable job on both backends
/// and tabulate the recovery invariants.
pub fn ex_recovery(scale: Scale) -> Table {
    let (n, budget) = match scale {
        Scale::Quick => (3000u64, 24u64),
        Scale::Full => (20_000u64, 200u64),
    };
    let mut t = Table::new(
        "EX-RECOVERY",
        &format!("crash-sweep campaign: fatal fault at every sampled I/O, then resume  [N={n}]"),
        &[
            "algo",
            "backend",
            "clean I/Os",
            "crash points",
            "stride",
            "max unit I/Os",
            "max rework",
            "mean rework",
            "failures",
        ],
    );
    for algo in [
        Algo::Sort,
        Algo::MultiSelect,
        Algo::Partition,
        Algo::Cluster,
    ] {
        for backend in [Backend::Memory, Backend::Disk] {
            let o = sweep(algo, backend, n, budget);
            t.row(vec![
                o.algo.name().into(),
                o.backend.name().into(),
                o.clean_ios.to_string(),
                o.points.to_string(),
                o.stride.to_string(),
                o.max_unit_ios.to_string(),
                o.max_rework.to_string(),
                fnum(o.mean_rework),
                o.failures.to_string(),
            ]);
        }
    }
    t.note("invariants per crash point: resumed output identical to the fault-free output, exactly one crash→resume cycle, rework and redone_ios each ≤ the largest completed work unit, zero leaked block-store slots and journal temp files");
    t.note("stride 1 = exhaustive (every device attempt); larger strides sample the attempt space uniformly under the points budget");
    t
}

/// Run the campaign and emit the table (used by the `crash_sweep` binary).
pub fn run_campaign(scale: Scale) -> Table {
    let t = ex_recovery(scale);
    emit(&t);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_sweep_sort_memory_tiny() {
        let o = sweep(Algo::Sort, Backend::Memory, 400, u64::MAX);
        assert_eq!(o.stride, 1, "tiny instance must sweep exhaustively");
        assert_eq!(o.failures, 0, "{o:?}");
        assert!(o.points > 0);
    }

    #[test]
    fn sampled_sweep_cluster_disk() {
        let o = sweep(Algo::Cluster, Backend::Disk, 400, 5);
        assert_eq!(o.failures, 0, "{o:?}");
        assert!(o.points > 0 && o.points <= 6);
    }

    #[test]
    fn sampled_sweep_partition_disk() {
        let o = sweep(Algo::Partition, Backend::Disk, 800, 6);
        assert_eq!(o.failures, 0, "{o:?}");
        assert!(o.points <= 7);
    }
}
