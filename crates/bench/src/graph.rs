//! EX-GRAPH: the semi-external graph campaign.
//!
//! For each graph family (R-MAT power-law, 2-D grid) and each backend
//! (memory, disk) the campaign builds the canonical edge file, runs the
//! checkpointed label-propagation clustering, and checks the subsystem's
//! determinism and recovery contracts:
//!
//! 1. **Digest invariance** — the label digest is bit-identical across
//!    worker counts (1 vs 4) and across the memory and disk backends for
//!    the same generated graph;
//! 2. **Bounded crash rework** — a fatal fault injected mid-clustering
//!    resumes in exactly one crash→resume cycle, reproduces the fault-free
//!    digest, and both `redone_ios` and the extra billed I/Os stay within
//!    the largest completed work unit (≤ one round, by
//!    [`emcore::WorkLedger::max_unit_ios`]);
//! 3. **No leaks** — after clustering, the context holds only the input,
//!    the canonical graph, and the label file (no orphaned blocks or
//!    journal temp files);
//! 4. **Integration** — the clustering registers on a
//!    [`emserve::QueryServer`] (rank-`p` answers the cluster of the
//!    `p`-th vertex; the cluster-size dataset sums back to the vertex
//!    count), and degree/cluster bucketing realizes the exact near-even
//!    quantile cuts.
//!
//! Violations increment the `failures` column — the campaign reports
//! rather than panics, and the `graph_bench` binary exits nonzero when
//! any cell is sick (the CI graph-smoke gate).

use emcore::{EmConfig, EmContext, FaultPlan, Manifest};
use emgraph::{
    build_graph, cluster_buckets, degree_buckets, edges_from_pairs, labels_digest,
    register_cluster_sizes, register_clustering, BuildOptions, ClusterJob, ClusterManifest,
    ClusterOptions, Clustering, Graph,
};
use emserve::{QueryServer, QueryService, ServeOptions};
use workloads::{grid_edges, rmat_edges};

use crate::crash_sweep::{count_leaked, resume_until_done, Backend, RunOut};
use crate::harness::{emit, Scale, Table};

const SEED: u64 = 20140623;

/// The graph families the campaign sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKind {
    /// Seeded R-MAT: power-law degrees, duplicate edges, self-loops —
    /// the canonicalization stress case.
    Rmat,
    /// 2-D grid: bounded degree, bipartite (label propagation never
    /// converges, the round budget is the stop) — the streaming case.
    Grid,
}

impl GraphKind {
    /// Table label.
    pub fn name(self) -> &'static str {
        match self {
            GraphKind::Rmat => "rmat",
            GraphKind::Grid => "grid",
        }
    }

    /// The raw edge pairs for this family at `scale`.
    pub fn pairs(self, scale: Scale) -> Vec<(u64, u64)> {
        match (self, scale) {
            (GraphKind::Rmat, Scale::Quick) => rmat_edges(9, 4_000, SEED),
            (GraphKind::Rmat, Scale::Full) => rmat_edges(13, 60_000, SEED),
            (GraphKind::Grid, Scale::Quick) => grid_edges(24, 24),
            (GraphKind::Grid, Scale::Full) => grid_edges(128, 128),
        }
    }
}

/// The EM configuration every graph cell runs on: the tiny geometry
/// (`M = 256`, `B = 16`) keeps clustering multi-unit at campaign `N`.
fn graph_config(workers: usize) -> EmConfig {
    EmConfig::new(256, 16)
        .expect("valid bench config")
        .with_workers(workers)
}

pub(crate) fn cluster_opts() -> ClusterOptions {
    ClusterOptions {
        rounds: 6,
        max_cluster_size: 0,
    }
}

/// One completed (possibly crash-and-resumed) clustering of a generated
/// graph.
struct GraphRun {
    run: RunOut,
    vertices: u64,
    edges: u64,
    clusters: u64,
    rounds_run: u32,
}

/// Build + cluster `kind` once on a fresh context. The fault plan is
/// installed after the (non-recoverable) build, so `crash_at` indexes
/// device attempts of the clustering itself; crashes resume until
/// completion. `Err` carries a description of any non-crash failure.
fn run_once(
    kind: GraphKind,
    backend: Backend,
    workers: usize,
    scale: Scale,
    crash_at: Option<u64>,
) -> Result<GraphRun, String> {
    let ctx = backend.ctx(graph_config(workers));
    let raw = edges_from_pairs(&ctx, &kind.pairs(scale)).map_err(|e| format!("pairs: {e}"))?;
    let g = build_graph(&ctx, &raw, &BuildOptions::default()).map_err(|e| format!("build: {e}"))?;

    let mut plan = FaultPlan::new(SEED);
    if let Some(i) = crash_at {
        plan = plan.fatal_at(i);
    }
    ctx.install_fault_plan(plan.clone());
    let before = ctx.stats().snapshot();
    let mut manifest = ClusterManifest::new(&ctx, &cluster_opts());
    let (c, resumes) = resume_until_done(&ctx, &plan, &mut ClusterJob::new(&g, &mut manifest))?;
    let spent = ctx.stats().snapshot().since(&before);
    ctx.clear_fault_plan();

    let digest = ctx
        .oracle(|| labels_digest(&c.labels))
        .map_err(|e| format!("digest: {e}"))?;
    // Only the raw input, the canonical graph and the labels may remain.
    let live = [raw.id(), g.edges().id(), g.offsets().id(), c.labels.id()];
    let leaked = count_leaked(&ctx, &live);

    // Integration checks ride on the fault-free run only — a crashed run
    // has already proven what it set out to prove.
    if crash_at.is_none() {
        serve_check(&ctx, &c, g.vertices())?;
        bucket_check(&g, &c)?;
    }

    Ok(GraphRun {
        run: RunOut {
            digest,
            total_ios: spent.total_ios(),
            redone_ios: spent.redone_ios,
            attempts: plan.attempts(),
            max_unit_ios: manifest.ledger().max_unit_ios(),
            resumes,
            leaked,
        },
        vertices: g.vertices(),
        edges: g.num_edges(),
        clusters: c.clusters,
        rounds_run: c.rounds_run,
    })
}

/// Serve integration: the clustering registers as a rank-queryable
/// dataset and the size distribution sums back to the vertex count.
fn serve_check(ctx: &EmContext, c: &Clustering, vertices: u64) -> Result<(), String> {
    let err = |e| format!("serve: {e}");
    let mut server = QueryServer::<u64>::start(ctx, ServeOptions::default()).map_err(err)?;
    let n = register_clustering(&server, "graph-vc", c).map_err(err)?;
    if n != vertices {
        return Err(format!(
            "serve: registered {n} labels for {vertices} vertices"
        ));
    }
    let a = server
        .rank("graph-vc", vec![1, n])
        .map_err(err)?
        .wait()
        .map_err(err)?;
    if a.values[0] > a.values[1] {
        return Err("serve: rank answers out of order".into());
    }
    let k = register_cluster_sizes(&server, "graph-cs", &c.labels).map_err(err)?;
    if k != c.clusters {
        return Err(format!(
            "serve: {k} size records for {} clusters",
            c.clusters
        ));
    }
    let sizes = server
        .rank("graph-cs", (1..=k).collect())
        .map_err(err)?
        .wait()
        .map_err(err)?;
    let total: u64 = sizes.values.iter().sum();
    if total != vertices {
        return Err(format!(
            "serve: cluster sizes sum to {total}, not {vertices}"
        ));
    }
    server.shutdown().map_err(err).map(|_| ())
}

/// Bucketing integration: degree and cluster bucketing both realize the
/// exact near-even quantile cuts of the vertex set.
fn bucket_check(g: &Graph, c: &Clustering) -> Result<(), String> {
    let n = g.vertices();
    let k = 8u64.min(n.max(1));
    let want: Vec<u64> = (1..=k).map(|i| i * n / k - (i - 1) * n / k).collect();
    let by_degree = degree_buckets(g, k).map_err(|e| format!("degree buckets: {e}"))?;
    if by_degree.sizes() != want {
        return Err(format!(
            "degree buckets {:?} miss the quantile cuts {want:?}",
            by_degree.sizes()
        ));
    }
    let by_cluster = cluster_buckets(&c.labels, k).map_err(|e| format!("cluster buckets: {e}"))?;
    if by_cluster.sizes() != want {
        return Err(format!(
            "cluster buckets {:?} miss the quantile cuts {want:?}",
            by_cluster.sizes()
        ));
    }
    Ok(())
}

/// The aggregated result of one `(kind, backend)` campaign cell.
#[derive(Debug)]
pub struct GraphOutcome {
    /// Graph family.
    pub kind: GraphKind,
    /// Backend under test.
    pub backend: Backend,
    /// Vertex-id space of the canonical graph.
    pub vertices: u64,
    /// Canonical (deduplicated, symmetrized) edge count.
    pub edges: u64,
    /// Billed clustering I/Os of the fault-free run.
    pub clean_ios: u64,
    /// Rounds the fault-free run completed.
    pub rounds_run: u32,
    /// Clusters found.
    pub clusters: u64,
    /// FNV digest of the fault-free label file.
    pub digest: u64,
    /// Largest completed work unit over all runs, in I/Os.
    pub max_unit_ios: u64,
    /// Crash points injected.
    pub crash_points: u64,
    /// Largest observed `redone_ios` over all crash points.
    pub max_redone: u64,
    /// Checks violated in this cell.
    pub failures: u64,
}

/// Run one `(kind, backend)` cell: a fault-free baseline (with serve and
/// bucket integration checks), a 4-worker run that must reproduce the
/// baseline digest, and a crash at three points across the clustering's
/// attempt space, each resumed under the recovery invariants.
/// `expect_digest` pins the digest of a sibling cell (the cross-backend
/// invariance check).
pub fn graph_cell(
    kind: GraphKind,
    backend: Backend,
    scale: Scale,
    expect_digest: Option<u64>,
) -> GraphOutcome {
    let mut failures = 0u64;
    let mut fail = |msg: String| {
        eprintln!("[EX-GRAPH] {}/{}: {msg}", kind.name(), backend.name());
        failures += 1;
    };

    let graph = match run_once(kind, backend, 1, scale, None) {
        Ok(run) => run,
        Err(e) => {
            fail(format!("fault-free run: {e}"));
            return GraphOutcome {
                kind,
                backend,
                vertices: 0,
                edges: 0,
                clean_ios: 0,
                rounds_run: 0,
                clusters: 0,
                digest: 0,
                max_unit_ios: 0,
                crash_points: 0,
                max_redone: 0,
                failures,
            };
        }
    };
    let clean = &graph.run;
    if clean.resumes != 0 {
        fail(format!("{} resumes in the fault-free run", clean.resumes));
    }
    if clean.leaked != 0 {
        fail(format!(
            "{} leaked slots or journal temp files after the fault-free run",
            clean.leaked
        ));
    }
    if let Some(want) = expect_digest {
        if clean.digest != want {
            fail(format!(
                "digest {:016x} differs across backends from {want:016x}",
                clean.digest
            ));
        }
    }

    // Worker invariance: same graph, 4 workers, same digest.
    match run_once(kind, backend, 4, scale, None) {
        Err(e) => fail(format!("4-worker run: {e}")),
        Ok(GraphRun { run, .. }) => {
            if run.digest != clean.digest {
                fail(format!(
                    "digest {:016x} differs across worker counts from {:016x}",
                    run.digest, clean.digest
                ));
            }
        }
    }

    // Crash recovery: a fatal fault early, mid, and late in the
    // clustering's device-attempt space.
    let mut max_unit = clean.max_unit_ios;
    let mut max_redone = 0u64;
    let mut crash_points = 0u64;
    for crash_at in [
        clean.attempts / 5,
        clean.attempts / 2,
        (clean.attempts * 4 / 5).min(clean.attempts.saturating_sub(1)),
    ] {
        crash_points += 1;
        match run_once(kind, backend, 1, scale, Some(crash_at)) {
            Err(e) => fail(format!("crash @{crash_at}: {e}")),
            Ok(GraphRun { run, .. }) => {
                max_unit = max_unit.max(run.max_unit_ios);
                max_redone = max_redone.max(run.redone_ios);
                let bad = run.violations(clean);
                if !bad.is_empty() {
                    fail(format!("crash @{crash_at}: {}", bad.join("; ")));
                }
            }
        }
    }

    GraphOutcome {
        kind,
        backend,
        vertices: graph.vertices,
        edges: graph.edges,
        clean_ios: clean.total_ios,
        rounds_run: graph.rounds_run,
        clusters: graph.clusters,
        digest: clean.digest,
        max_unit_ios: max_unit,
        crash_points,
        max_redone,
        failures,
    }
}

/// EX-GRAPH: sweep both graph families on both backends and tabulate the
/// determinism, recovery, and integration checks.
pub fn ex_graph(scale: Scale) -> Table {
    let mut t = Table::new(
        "EX-GRAPH",
        "semi-external graph campaign: build, cluster, crash, serve",
        &[
            "graph",
            "backend",
            "V",
            "E",
            "clean I/Os",
            "rounds",
            "clusters",
            "digest",
            "max unit I/Os",
            "crash points",
            "max redone",
            "failures",
        ],
    );
    for kind in [GraphKind::Rmat, GraphKind::Grid] {
        let mut family_digest = None;
        for backend in [Backend::Memory, Backend::Disk] {
            let o = graph_cell(kind, backend, scale, family_digest);
            family_digest = family_digest.or(Some(o.digest));
            t.row(vec![
                o.kind.name().into(),
                o.backend.name().into(),
                o.vertices.to_string(),
                o.edges.to_string(),
                o.clean_ios.to_string(),
                o.rounds_run.to_string(),
                o.clusters.to_string(),
                format!("{:016x}", o.digest),
                o.max_unit_ios.to_string(),
                o.crash_points.to_string(),
                o.max_redone.to_string(),
                o.failures.to_string(),
            ]);
        }
    }
    t.note("per cell: label digest identical across 1 and 4 workers and across the memory/disk backends; three mid-clustering crashes each resume in one cycle with rework and redone_ios ≤ the largest completed round; no leaked block-store slots; clustering registers on the serve layer and bucketing hits the exact near-even quantile cuts");
    t.note("grid graphs are bipartite, so synchronous label propagation runs to the round budget by design; R-MAT converges or not depending on scale — either way the digest is the contract");
    t
}

/// Run the campaign, emit the table, and report whether every cell was
/// clean (used by the `graph_bench` binary and the CI graph-smoke gate).
pub fn run_graph(scale: Scale) -> (Table, bool) {
    let t = ex_graph(scale);
    emit(&t);
    let clean = t
        .rows
        .iter()
        .all(|row| row.last().map(String::as_str) == Some("0"));
    (t, clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_memory_cell_is_clean() {
        let o = graph_cell(GraphKind::Rmat, Backend::Memory, Scale::Quick, None);
        assert_eq!(o.failures, 0, "{o:?}");
        assert!(o.vertices > 0 && o.edges > 0);
        assert_eq!(o.crash_points, 3);
        assert!(o.max_redone <= o.max_unit_ios);
    }

    #[test]
    fn grid_disk_cell_matches_memory_digest() {
        let mem = graph_cell(GraphKind::Grid, Backend::Memory, Scale::Quick, None);
        assert_eq!(mem.failures, 0, "{mem:?}");
        let disk = graph_cell(
            GraphKind::Grid,
            Backend::Disk,
            Scale::Quick,
            Some(mem.digest),
        );
        assert_eq!(disk.failures, 0, "{disk:?}");
        assert_eq!(disk.digest, mem.digest);
        // Bipartite grid: the round budget is the stop.
        assert_eq!(mem.rounds_run, 6);
    }
}
