//! Crash-recoverable clustering: rounds checkpointed through the
//! shared [`WorkLedger`] so a crash redoes at most one round.
//!
//! The only algorithm state that must survive a crash is the current
//! label file — everything inside a round (window runs, mover and
//! admission files, the half-written next label file) is derived and
//! unwinds with the crash. The [`ClusterManifest`] therefore records
//! just `(round, labels file, moves history)` plus the option echo; the
//! ledger binds the input as `(edge file id, len, vertices)`, commits
//! after every completed round (the new labels file persistent before
//! the previous round's file is released), and [`ClusterManifest::load`]
//! resumes across processes on a directory-backed context,
//! garbage-collecting the crashed attempt's orphans.

use emcore::{
    run_recoverable, EmContext, EmError, EmFile, InputId, LedgerDoc, Manifest, RecoverableJob,
    Result, WorkLedger,
};

use crate::build::Graph;
use crate::cluster::{count_clusters, initial_labels, lp_round, ClusterOptions, Clustering};

/// Name of the clustering checkpoint journal within its backing store.
pub const CLUSTER_JOURNAL: &str = "graph-cluster";

/// Checkpointed state of a recoverable clustering run. One work unit =
/// one label-propagation round (unit 0 is the identity labeling).
#[derive(Debug)]
pub struct ClusterManifest {
    ledger: WorkLedger,
    /// The option echo — a journal must not replay with different
    /// parameters.
    rounds: u32,
    cap: u64,
    /// Completed rounds and their label file.
    round: u32,
    labels: Option<EmFile<u64>>,
    /// Vertices moved per completed round (a trailing 0 means the loop
    /// converged early and must not resume).
    moves: Vec<u64>,
}

impl Manifest for ClusterManifest {
    type Record = u64;

    fn ledger(&self) -> &WorkLedger {
        &self.ledger
    }

    fn ledger_mut(&mut self) -> &mut WorkLedger {
        &mut self.ledger
    }

    fn write_state(&self, doc: &mut LedgerDoc) {
        doc.push_num("rounds", self.rounds.into());
        doc.push_num("cap", self.cap);
        doc.push_num("round", self.round.into());
        doc.push_files("labels", self.labels.as_slice());
        doc.push_nums("moves", &self.moves);
    }
}

impl ClusterManifest {
    /// A fresh manifest for `opts`: no rounds completed.
    pub fn new(ctx: &EmContext, opts: &ClusterOptions) -> Self {
        Self {
            ledger: WorkLedger::new(ctx, CLUSTER_JOURNAL, None),
            rounds: opts.rounds,
            cap: opts.max_cluster_size,
            round: 0,
            labels: None,
            moves: Vec::new(),
        }
    }

    /// Reload an interrupted clustering from `ctx`'s backing directory via
    /// [`WorkLedger::load`] (which sweeps the crashed attempt's orphans)
    /// and reopen the checkpointed label file. Returns `Ok(None)` when no
    /// journal exists; requires a directory-backed context.
    pub fn load(ctx: &EmContext) -> Result<Option<Self>> {
        let Some((ledger, doc)) = WorkLedger::load(ctx, CLUSTER_JOURNAL)? else {
            return Ok(None);
        };
        let narrow = |v: u64| {
            u32::try_from(v).map_err(|_| EmError::config("graph-cluster: round count overflows"))
        };
        Ok(Some(Self {
            ledger,
            rounds: narrow(doc.num("rounds")?)?,
            cap: doc.num("cap")?,
            round: narrow(doc.num("round")?)?,
            labels: doc.open(ctx, "labels")?.pop(),
            moves: doc.nums("moves"),
        }))
    }

    /// Completed rounds so far.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Vertices moved per completed round.
    pub fn moves(&self) -> &[u64] {
        &self.moves
    }
}

/// The checkpointed clustering as a [`RecoverableJob`]: drive it with
/// [`emcore::run_recoverable`]. Borrows the graph and its manifest for
/// one resume attempt; build a fresh job value per attempt.
#[derive(Debug)]
pub struct ClusterJob<'a> {
    graph: &'a Graph,
    manifest: &'a mut ClusterManifest,
}

impl<'a> ClusterJob<'a> {
    /// A job that clusters `graph`, checkpointing through `manifest`.
    pub fn new(graph: &'a Graph, manifest: &'a mut ClusterManifest) -> Self {
        Self { graph, manifest }
    }
}

impl RecoverableJob for ClusterJob<'_> {
    type Output = Clustering;

    fn ledger(&mut self) -> &mut WorkLedger {
        &mut self.manifest.ledger
    }

    fn input(&self) -> InputId {
        InputId {
            vertices: Some(self.graph.vertices()),
            ..InputId::of(self.graph.edges())
        }
    }

    fn drive(&mut self, ctx: &EmContext) -> Result<Clustering> {
        let stats = ctx.stats().clone();
        let phase = stats.phase_guard("graph/cluster");
        let r = drive_rounds(ctx, self.graph, self.manifest);
        drop(phase);
        r
    }
}

fn drive_rounds(
    ctx: &EmContext,
    graph: &Graph,
    manifest: &mut ClusterManifest,
) -> Result<Clustering> {
    // The label array is the dominant RAM cost: hold one governor lease
    // for the whole run and re-read its grant every round, so a squeeze
    // between rounds shrinks the next round's window, never correctness.
    let floor = ctx
        .config()
        .block_size()
        .min(graph.vertices().max(1) as usize);
    let lease = ctx.governor().lease("graph-labels", floor, 2)?;

    // Unit 0: the identity labeling.
    if manifest.labels.is_none() {
        let unit = manifest
            .ledger
            .begin_unit(ctx, |_| "graph/round#0".to_string());
        manifest.labels = Some(initial_labels(ctx, graph.vertices())?);
        manifest.checkpoint(Vec::new())?;
        manifest.ledger.end_unit(unit);
    }

    // Units 1..: one round each, until the budget or convergence.
    while manifest.round < manifest.rounds && manifest.moves.last() != Some(&0) {
        let round = manifest.round + 1;
        let unit = manifest
            .ledger
            .begin_unit(ctx, |_| format!("graph/round#{round}"));
        let old = manifest.labels.as_ref().ok_or_else(missing_labels)?;
        let (next, moved) = lp_round(ctx, graph, old, manifest.cap, &lease)?;
        manifest.round = round;
        manifest.moves.push(moved);
        // ---- checkpoint: the new labels are durable; only then is the
        // previous round's file released ----
        let prev = manifest.labels.replace(next);
        manifest.checkpoint(prev.into_iter().collect())?;
        manifest.ledger.end_unit(unit);
    }

    // Finalize: read-only summary work after the last checkpoint — a
    // crash here redoes no round, so the labels stay in the manifest until
    // the summary I/O is done.
    let clusters = count_clusters(manifest.labels.as_ref().ok_or_else(missing_labels)?)?;
    let result = Clustering {
        rounds_run: manifest.round,
        moves: manifest.moves.clone(),
        clusters,
        labels: manifest.labels.take().ok_or_else(missing_labels)?,
    };
    manifest.ledger.finish()?;
    // The output leaves the manifest's custody: normal drop semantics.
    result.labels.set_persistent(false);
    Ok(result)
}

fn missing_labels() -> EmError {
    EmError::config("graph cluster invariant violated: missing label file")
}

/// Cluster `graph` with per-round checkpointing — the one-shot entry
/// point. For crash survival across attempts, keep your own manifest
/// and drive [`ClusterJob`] via [`emcore::run_recoverable`].
pub fn cluster(graph: &Graph, opts: &ClusterOptions) -> Result<Clustering> {
    let ctx = graph.edges().ctx().clone();
    let mut manifest = ClusterManifest::new(&ctx, opts);
    run_recoverable(&ctx, &mut ClusterJob::new(graph, &mut manifest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_graph, BuildOptions};
    use crate::cluster::labels_digest;
    use crate::edge::edges_from_pairs;
    use emcore::{EmConfig, EmContext, FaultPlan};

    fn graph_on(ctx: &EmContext, seed: u64, n: u64, m: usize) -> Graph {
        let mut rng = emcore::SplitMix64::new(seed);
        let pairs: Vec<(u64, u64)> = (0..m).map(|_| (rng.below(n), rng.below(n))).collect();
        let raw = edges_from_pairs(ctx, &pairs).unwrap();
        build_graph(ctx, &raw, &BuildOptions::default()).unwrap()
    }

    #[test]
    fn one_shot_cluster_reports_and_converges() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        // Two disjoint triangles: LP settles quickly.
        let raw =
            edges_from_pairs(&ctx, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).unwrap();
        let g = build_graph(&ctx, &raw, &BuildOptions::default()).unwrap();
        let c = cluster(&g, &ClusterOptions::default()).unwrap();
        assert!(c.rounds_run <= 8);
        assert_eq!(c.moves.last(), Some(&0), "converged");
        assert_eq!(c.labels.len(), 6);
        // Each triangle collapses to one label.
        let labels = c.labels.to_vec().unwrap();
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[3]);
        assert_eq!(c.clusters, 2);
    }

    #[test]
    fn crash_mid_round_resumes_with_bounded_rework() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let g = graph_on(&ctx, 5, 200, 2000);
        let opts = ClusterOptions {
            rounds: 4,
            max_cluster_size: 0,
        };
        // Reference run, fault-free.
        let want = cluster(&g, &opts).unwrap();
        let want_digest = labels_digest(&want.labels).unwrap();

        // Crash somewhere inside the round loop, then resume.
        let plan = FaultPlan::new(0).fatal_at(400);
        ctx.install_fault_plan(plan.clone());
        let mut manifest = ClusterManifest::new(&ctx, &opts);
        let crashed = run_recoverable(&ctx, &mut ClusterJob::new(&g, &mut manifest));
        assert!(matches!(crashed, Err(EmError::Crashed)));
        assert!(!manifest.ledger().is_done());
        plan.clear_crash();
        ctx.clear_fault_plan();
        let got = run_recoverable(&ctx, &mut ClusterJob::new(&g, &mut manifest)).unwrap();
        assert!(manifest.ledger().is_done());
        assert_eq!(labels_digest(&got.labels).unwrap(), want_digest);
        assert_eq!(got.moves, want.moves);
        // ≤ 1 redone round, by construction and by accounting.
        let stats = ctx.stats().snapshot();
        assert!(stats.redone_ios > 0, "redone work must be accounted");
        assert!(
            stats.redone_ios <= manifest.ledger().max_unit_ios(),
            "rework {} exceeds one round {}",
            stats.redone_ios,
            manifest.ledger().max_unit_ios()
        );
    }

    #[test]
    fn completed_manifest_rejects_reuse_and_wrong_input() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let g = graph_on(&ctx, 7, 50, 300);
        let opts = ClusterOptions {
            rounds: 2,
            max_cluster_size: 0,
        };
        let mut manifest = ClusterManifest::new(&ctx, &opts);
        let _ = run_recoverable(&ctx, &mut ClusterJob::new(&g, &mut manifest)).unwrap();
        assert!(matches!(
            run_recoverable(&ctx, &mut ClusterJob::new(&g, &mut manifest)),
            Err(EmError::Config(_))
        ));
        // A fresh manifest crashed against g must reject another graph.
        let plan = FaultPlan::new(0).fatal_at(100);
        ctx.install_fault_plan(plan.clone());
        let mut m2 = ClusterManifest::new(&ctx, &opts);
        assert!(run_recoverable(&ctx, &mut ClusterJob::new(&g, &mut m2)).is_err());
        plan.clear_crash();
        ctx.clear_fault_plan();
        let other = graph_on(&ctx, 8, 60, 400);
        assert!(matches!(
            run_recoverable(&ctx, &mut ClusterJob::new(&other, &mut m2)),
            Err(EmError::Config(_))
        ));
        let done = run_recoverable(&ctx, &mut ClusterJob::new(&g, &mut m2)).unwrap();
        assert_eq!(done.labels.len(), 50);
    }

    #[test]
    fn cross_process_resume_on_disk() {
        let dir = std::env::temp_dir().join(format!("emgraph-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let opts = ClusterOptions {
            rounds: 3,
            max_cluster_size: 16,
        };
        let (edges_id, edges_len, want_digest);
        {
            // "Process 1": build, start clustering, crash.
            let ctx = EmContext::new_on_disk(EmConfig::tiny(), &dir).unwrap();
            let g = graph_on(&ctx, 21, 120, 1200);
            g.edges().set_persistent(true);
            (edges_id, edges_len) = (g.edges().id(), g.edges().len());
            // Fault-free reference digest first, on a scratch context.
            let ctx2 = EmContext::new_in_memory(EmConfig::tiny());
            let g2 = graph_on(&ctx2, 21, 120, 1200);
            want_digest = labels_digest(&cluster(&g2, &opts).unwrap().labels).unwrap();

            let plan = FaultPlan::new(0).fatal_at(600);
            ctx.install_fault_plan(plan.clone());
            let mut manifest = ClusterManifest::new(&ctx, &opts);
            let r = run_recoverable(&ctx, &mut ClusterJob::new(&g, &mut manifest));
            assert!(matches!(r, Err(EmError::Crashed)));
        }
        {
            // "Process 2": fresh context over the same directory.
            let ctx = EmContext::new_on_disk(EmConfig::tiny(), &dir).unwrap();
            let mut manifest = ClusterManifest::load(&ctx)
                .unwrap()
                .expect("journal exists");
            let edges = ctx.open_file::<crate::Edge>(edges_id, edges_len).unwrap();
            let vertices = manifest.ledger().input().and_then(|i| i.vertices);
            let g = crate::rebind_graph(&ctx, edges, vertices.unwrap()).unwrap();
            let got = run_recoverable(&ctx, &mut ClusterJob::new(&g, &mut manifest)).unwrap();
            assert_eq!(labels_digest(&got.labels).unwrap(), want_digest);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn image_roundtrips_through_journal_encoding() {
        let ctx = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        let g = graph_on(&ctx, 9, 80, 600);
        let opts = ClusterOptions {
            rounds: 5,
            max_cluster_size: 12,
        };
        let plan = FaultPlan::new(0).fatal_at(500);
        ctx.install_fault_plan(plan.clone());
        let mut m = ClusterManifest::new(&ctx, &opts);
        let r = run_recoverable(&ctx, &mut ClusterJob::new(&g, &mut m));
        assert!(matches!(r, Err(EmError::Crashed)));
        assert!(m.round() > 0, "crash landed after a round");
        let loaded = ClusterManifest::load(&ctx).unwrap().unwrap();
        assert_eq!(loaded.describe(), m.describe());
        assert_eq!(loaded.moves(), m.moves());
        let input = loaded.ledger().input().unwrap();
        assert_eq!(input.vertices, Some(g.vertices()));
        assert_eq!((input.id, input.len), (g.edges().id(), g.edges().len()));
    }

    #[test]
    fn describe_reports_progress() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let m = ClusterManifest::new(
            &ctx,
            &ClusterOptions {
                rounds: 6,
                max_cluster_size: 10,
            },
        );
        let d = m.describe();
        assert!(d.contains("rounds 6"));
        assert!(d.contains("cap 10"));
    }
}
