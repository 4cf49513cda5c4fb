//! The four workloads: inputs made from the seed, a set-up that puts them
//! into a fresh store, the timed job, and the check of its output.
//!
//! Every call into the library from a job runs inside a harness span named
//! `perf/<crate>/<function>`, so the traced rep can tell the harness's own
//! time from the library's.

use std::path::Path;
use std::time::Instant;

use apsplit::{approx_partitioning, verify_partitioning, Partitioning, ProblemSpec};
use emcore::{Counters, EmContext, EmError, EmFile, Result, SplitMix64};
use emgraph::{build_graph, cluster, edges_from_pairs, labels_digest};
use emgraph::{BuildOptions, ClusterOptions, Clustering, Edge};
use emserve::{Client, QueryServer, ServeOptions};
use emsort::external_sort;
use workloads::{generate, rmat_edges, zipf_query_ranks, Workload as Keys};

use crate::probes::{self, Probes};

/// Sizes of every workload. `FULL` is the benchmark; `SMOKE` is about
/// 1/128 of it, on a smaller machine so sorts still merge and partitions
/// still recurse.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Memory `M` and block size `B`, in records.
    pub m: usize,
    pub b: usize,
    /// Keys sorted by `sort` and partitioned by `partition`.
    pub keys: u64,
    /// Partitions `K` of `partition`.
    pub k: u64,
    /// Keys of the served dataset, and the queries per rep of
    /// `serve-zipf` that warm its index during set-up and that are timed.
    pub serve_keys: u64,
    pub warm_queries: usize,
    pub queries: usize,
    /// RMAT scale (`2^scale` vertices) and raw edges of `graph-rmat`.
    pub rmat_scale: u32,
    pub rmat_edges: u64,
}

pub const FULL: Scale = Scale {
    m: 65_536,
    b: 1_024,
    keys: 1_000_000,
    k: 64,
    serve_keys: 250_000,
    warm_queries: 480,
    queries: 240,
    rmat_scale: 16,
    rmat_edges: 100_000,
};

pub const SMOKE: Scale = Scale {
    m: 4_096,
    b: 64,
    keys: 15_625,
    k: 32,
    serve_keys: 7_813,
    warm_queries: 16,
    queries: 16,
    rmat_scale: 9,
    rmat_edges: 3_906,
};

/// Clients of `serve-zipf`, each a closed loop: it sends its next query
/// only after the previous answer arrived.
const CLIENTS: usize = 2;
/// Distinct hot ranks and Zipf exponent of a query stream.
const HOT_RANKS: u64 = 4096;
const ZIPF_S: f64 = 0.8;
/// Query streams drawn per seed; rep `i` replays stream `i % STREAMS`,
/// where the measured reps count from 0 (see `run` in `main.rs`). What a
/// stream costs depends on where its ranks fall, so a run's median over
/// many streams varies far less between seeds than one stream does.
const STREAMS: usize = 16;
/// Block-cache sizes: `serve-zipf` fits its whole dataset, `graph-rmat`
/// gets far less than its working set.
const SERVE_CACHE_BLOCKS: usize = 1024;
const GRAPH_CACHE_BLOCKS: usize = 64;
/// Label-propagation rounds of `graph-rmat`.
const ROUNDS: u32 = 6;
const DATASET: &str = "zipf";

/// What a check found.
#[derive(Debug, Default)]
pub struct Checked {
    /// Operations this rep attempted (1 for a batch job, one per query
    /// when serving) and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Why the first failure failed.
    pub error: Option<String>,
    /// Fingerprint of the output, for outputs that are the same in every
    /// rep of one seed (and in every run with that seed).
    pub digest: Option<u64>,
    /// Latency of each operation in ms, when an operation is smaller than
    /// the job (queries); empty when the job is the operation.
    pub op_ms: Vec<f64>,
    /// Blocks of the job's input, the divisor of `ios_per_block`.
    pub input_blocks: u64,
    /// Per-layer values only the workload can see.
    pub extra: Vec<(&'static str, f64)>,
}

impl Checked {
    fn one(ok: bool, error: impl FnOnce() -> String) -> Self {
        Checked {
            attempted: 1,
            failed: u64::from(!ok),
            error: (!ok).then(error),
            ..Checked::default()
        }
    }
}

/// One benchmark workload.
pub trait Workload {
    /// What set-up hands to the job.
    type Staged;
    /// What the job hands to the check.
    type Output;
    /// Block-cache size of the workload's context.
    fn cache_blocks(&self) -> usize;
    /// Records the job consumes (keys, queries or raw edges).
    fn input_records(&self) -> u64;
    /// Put the inputs of rep `rep` into the fresh store of `ctx` (timed as
    /// `setup_s`).
    fn setup(&self, ctx: &EmContext, rep: usize) -> Result<Self::Staged>;
    /// The timed part.
    fn job(&self, ctx: &EmContext, staged: Self::Staged) -> Result<Self::Output>;
    /// Check the output; `ios` is what the job charged.
    fn check(&self, ctx: &EmContext, out: Self::Output, ios: &Counters) -> Result<Checked>;
    /// Run the `emcore` probes with this workload's input as the payload.
    fn probe(&self, ctx: &EmContext, dir: &Path) -> Result<Probes>;
}

/// FNV-1a over a stream of words, the fingerprint `labels_digest` uses.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
        (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

// ---------------------------------------------------------------------------
// sort
// ---------------------------------------------------------------------------

/// External sort of a uniform random permutation of `0..N`.
pub struct Sort {
    keys: Vec<u64>,
}

impl Sort {
    pub fn new(scale: &Scale, seed: u64) -> Self {
        Sort {
            keys: generate(Keys::UniformPerm, scale.keys, seed),
        }
    }
}

impl Workload for Sort {
    type Staged = EmFile<u64>;
    type Output = (EmFile<u64>, EmFile<u64>);

    fn cache_blocks(&self) -> usize {
        0
    }

    fn input_records(&self) -> u64 {
        self.keys.len() as u64
    }

    fn setup(&self, ctx: &EmContext, _: usize) -> Result<EmFile<u64>> {
        EmFile::from_slice(ctx, &self.keys)
    }

    fn job(&self, ctx: &EmContext, input: EmFile<u64>) -> Result<Self::Output> {
        let _call = ctx.stats().phase_guard("perf/emsort/external_sort");
        let out = external_sort(&input)?;
        Ok((input, out))
    }

    fn check(&self, ctx: &EmContext, (input, out): Self::Output, _: &Counters) -> Result<Checked> {
        // The input is a permutation of 0..N, so its sorted order is known.
        let got = ctx.oracle(|| out.to_vec())?;
        let ok = got.len() == self.keys.len() && got.iter().zip(0u64..).all(|(&x, i)| x == i);
        let mut c = Checked::one(ok, || {
            format!(
                "sort output of {} keys is not 0..{} in order",
                got.len(),
                self.keys.len()
            )
        });
        c.digest = Some(fnv(got));
        c.input_blocks = input.num_blocks();
        Ok(c)
    }

    fn probe(&self, ctx: &EmContext, dir: &Path) -> Result<Probes> {
        probes::run(ctx, dir, &self.keys)
    }
}

// ---------------------------------------------------------------------------
// partition
// ---------------------------------------------------------------------------

/// Two-sided approximate K-partitioning of the same kind of input.
pub struct Partition {
    keys: Vec<u64>,
    spec: ProblemSpec,
}

impl Partition {
    pub fn new(scale: &Scale, seed: u64) -> Result<Self> {
        let n = scale.keys;
        Ok(Partition {
            keys: generate(Keys::UniformPerm, n, seed),
            spec: ProblemSpec::new(n, scale.k, n / (2 * scale.k), 2 * n / scale.k)?,
        })
    }
}

impl Workload for Partition {
    type Staged = EmFile<u64>;
    type Output = (EmFile<u64>, Partitioning<u64>);

    fn cache_blocks(&self) -> usize {
        0
    }

    fn input_records(&self) -> u64 {
        self.keys.len() as u64
    }

    fn setup(&self, ctx: &EmContext, _: usize) -> Result<EmFile<u64>> {
        EmFile::from_slice(ctx, &self.keys)
    }

    fn job(&self, ctx: &EmContext, input: EmFile<u64>) -> Result<Self::Output> {
        let _call = ctx.stats().phase_guard("perf/apsplit/approx_partitioning");
        let parts = approx_partitioning(&input, &self.spec)?;
        Ok((input, parts))
    }

    fn check(
        &self,
        ctx: &EmContext,
        (input, parts): Self::Output,
        ios: &Counters,
    ) -> Result<Checked> {
        let report = verify_partitioning(&parts, &self.spec)?;
        let mut c = Checked::one(report.ok, || {
            format!(
                "partitioning: {} size and {} order violations, total matches: {}",
                report.size_violations.len(),
                report.order_violations.len(),
                report.total_matches
            )
        });
        c.digest = Some(fnv(report.sizes.iter().copied()));
        c.input_blocks = input.num_blocks();
        let s = &self.spec;
        let bound = apsplit::bounds::partitioning_two_sided(ctx.config(), s.n, s.k, s.a, s.b);
        c.extra
            .push(("apsplit.io_bound_ratio", ios.logical_ios() as f64 / bound));
        Ok(c)
    }

    fn probe(&self, ctx: &EmContext, dir: &Path) -> Result<Probes> {
        probes::run(ctx, dir, &self.keys)
    }
}

// ---------------------------------------------------------------------------
// serve-zipf
// ---------------------------------------------------------------------------

/// Single-rank Zipf queries against a served permutation, from
/// `CLIENTS` closed-loop clients, timed once set-up has warmed the
/// server's splitter index with queries of the same mix. A stream's
/// logical I/O repeats exactly from rep to rep; different streams cost
/// different amounts.
pub struct Serve {
    keys: Vec<u64>,
    streams: Vec<Stream>,
}

/// One query stream, split per client into the warm-up part (sent during
/// set-up) and the timed part; both draw on the same hot ranks.
struct Stream {
    warm: Vec<Vec<u64>>,
    timed: Vec<Vec<u64>>,
}

/// Deal `ranks` round-robin to the clients.
fn per_client(ranks: &[u64]) -> Vec<Vec<u64>> {
    (0..CLIENTS)
        .map(|c| ranks.iter().skip(c).step_by(CLIENTS).copied().collect())
        .collect()
}

impl Serve {
    pub fn new(scale: &Scale, seed: u64) -> Self {
        let n = scale.serve_keys;
        let total = scale.warm_queries + scale.queries;
        let mut rng = SplitMix64::new(seed);
        let streams = (0..STREAMS)
            .map(|_| {
                let ranks = zipf_query_ranks(n, HOT_RANKS, ZIPF_S, total, rng.next_u64());
                let (warm, timed) = ranks.split_at(scale.warm_queries);
                Stream {
                    warm: per_client(warm),
                    timed: per_client(timed),
                }
            })
            .collect();
        Serve {
            keys: generate(Keys::UniformPerm, n, seed),
            streams,
        }
    }
}

/// What one client saw: per-query latency, and the queries that failed or
/// came back wrong.
pub struct ClientLog {
    ms: Vec<f64>,
    wrong: u64,
    error: Option<String>,
}

fn closed_loop(client: &Client<u64>, ranks: &[u64]) -> ClientLog {
    let mut log = ClientLog {
        ms: Vec::with_capacity(ranks.len()),
        wrong: 0,
        error: None,
    };
    for &r in ranks {
        let t = Instant::now();
        let got = client.query(DATASET, vec![r]).and_then(|t| t.wait());
        log.ms.push(t.elapsed().as_secs_f64() * 1e3);
        let error = match got {
            Ok(a) if !a.approx && a.values == [r - 1] => continue,
            Ok(a) => format!("rank {r}: got {a:?}"),
            Err(e) => format!("rank {r}: {e}"),
        };
        log.wrong += 1;
        log.error.get_or_insert(error);
    }
    log
}

/// Run one closed loop per client, concurrently.
fn drive(client: &Client<u64>, streams: &[Vec<u64>]) -> Vec<ClientLog> {
    std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .map(|ranks| {
                let client = client.clone();
                s.spawn(move || closed_loop(&client, ranks))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    })
}

impl Workload for Serve {
    /// The running server, a client, and the stream this rep replays.
    type Staged = (QueryServer<u64>, Client<u64>, usize);
    type Output = (QueryServer<u64>, Vec<ClientLog>);

    fn cache_blocks(&self) -> usize {
        SERVE_CACHE_BLOCKS
    }

    fn input_records(&self) -> u64 {
        self.streams[0].timed.iter().map(|s| s.len() as u64).sum()
    }

    fn setup(&self, ctx: &EmContext, rep: usize) -> Result<Self::Staged> {
        let server = QueryServer::<u64>::start(ctx, ServeOptions::default())?;
        let client = server.client()?;
        client.register(DATASET, self.keys.clone())?;
        let stream = rep % STREAMS;
        if let Some(e) = drive(&client, &self.streams[stream].warm)
            .into_iter()
            .find_map(|l| l.error)
        {
            return Err(EmError::config(format!("warm-up query: {e}")));
        }
        Ok((server, client, stream))
    }

    fn job(&self, _: &EmContext, (server, client, stream): Self::Staged) -> Result<Self::Output> {
        let logs = drive(&client, &self.streams[stream].timed);
        Ok((server, logs))
    }

    fn check(
        &self,
        ctx: &EmContext,
        (mut server, logs): Self::Output,
        _: &Counters,
    ) -> Result<Checked> {
        let report = server.shutdown()?;
        let wrong: u64 = logs.iter().map(|l| l.wrong).sum();
        let refused = report.failed + report.shed + report.degraded;
        let mut c = Checked {
            attempted: self.input_records(),
            failed: wrong.max(refused),
            error: logs.iter().find_map(|l| l.error.clone()).or_else(|| {
                (refused > 0).then(|| format!("server refused {refused} queries: {report:?}"))
            }),
            // Each answer is checked above; there is no output to fingerprint.
            digest: None,
            op_ms: logs.iter().flat_map(|l| l.ms.iter().copied()).collect(),
            input_blocks: ctx.config().blocks_for(self.keys.len() as u64),
            extra: Vec::new(),
        };
        let queries = report.queries.max(1) as f64;
        c.extra.push((
            "emserve.batch_occupancy_mean",
            report.queries as f64 / report.batches.max(1) as f64,
        ));
        c.extra
            .push(("emserve.index_hit_rate", report.index_hits as f64 / queries));
        Ok(c)
    }

    fn probe(&self, ctx: &EmContext, dir: &Path) -> Result<Probes> {
        probes::run(ctx, dir, &self.keys)
    }
}

// ---------------------------------------------------------------------------
// graph-rmat
// ---------------------------------------------------------------------------

/// Canonical graph build plus label-propagation clustering of an RMAT
/// graph, with a block cache far smaller than the edge file.
pub struct Graph {
    pairs: Vec<(u64, u64)>,
    /// Digest and rounds of the in-RAM reference clustering.
    expected: (u64, u32),
}

impl Graph {
    pub fn new(scale: &Scale, seed: u64) -> Self {
        let pairs = rmat_edges(scale.rmat_scale, scale.rmat_edges, seed);
        let (labels, rounds) = reference_clustering(&pairs, ROUNDS);
        Graph {
            expected: (fnv(labels), rounds),
            pairs,
        }
    }
}

/// Label propagation in RAM, with the rules `emgraph::cluster` documents:
/// symmetrized, deduplicated, loop-free edges; vertices `0..=max id`;
/// synchronous rounds in which a vertex takes the most frequent
/// round-start label of its neighbours (smallest label on ties) unless
/// its own label is as frequent; stop after a round that moved nothing.
fn reference_clustering(pairs: &[(u64, u64)], rounds: u32) -> (Vec<u64>, u32) {
    let n = pairs.iter().map(|&(s, d)| s.max(d) + 1).max().unwrap_or(0) as usize;
    let mut adj: Vec<(u64, u64)> = pairs
        .iter()
        .filter(|(s, d)| s != d)
        .flat_map(|&(s, d)| [(s, d), (d, s)])
        .collect();
    adj.sort_unstable();
    adj.dedup();
    let mut start = vec![0usize; n + 1];
    for &(s, _) in &adj {
        start[s as usize + 1] += 1;
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut labels: Vec<u64> = (0..n as u64).collect();
    let mut run = 0;
    let mut last_moved = None;
    let mut scratch = Vec::new();
    while run < rounds && last_moved != Some(0) {
        let mut next = labels.clone();
        for v in 0..n {
            scratch.clear();
            scratch.extend(
                adj[start[v]..start[v + 1]]
                    .iter()
                    .map(|&(_, d)| labels[d as usize]),
            );
            scratch.sort_unstable();
            let (mut best, mut best_count, mut own_count) = (labels[v], 0, 0);
            for group in scratch.chunk_by(|a, b| a == b) {
                if group.len() > best_count {
                    (best, best_count) = (group[0], group.len());
                }
                if group[0] == labels[v] {
                    own_count = group.len();
                }
            }
            if best_count > own_count {
                next[v] = best;
            }
        }
        last_moved = Some(next.iter().zip(&labels).filter(|(a, b)| a != b).count());
        labels = next;
        run += 1;
    }
    (labels, run)
}

impl Workload for Graph {
    type Staged = EmFile<Edge>;
    type Output = (EmFile<Edge>, Clustering, Counters);

    fn cache_blocks(&self) -> usize {
        GRAPH_CACHE_BLOCKS
    }

    fn input_records(&self) -> u64 {
        self.pairs.len() as u64
    }

    fn setup(&self, ctx: &EmContext, _: usize) -> Result<EmFile<Edge>> {
        edges_from_pairs(ctx, &self.pairs)
    }

    fn job(&self, ctx: &EmContext, raw: EmFile<Edge>) -> Result<Self::Output> {
        let graph = {
            let _call = ctx.stats().phase_guard("perf/emgraph/build_graph");
            build_graph(ctx, &raw, &BuildOptions::default())?
        };
        let before = ctx.stats().snapshot();
        let clustering = {
            let _call = ctx.stats().phase_guard("perf/emgraph/cluster");
            let opts = ClusterOptions {
                rounds: ROUNDS,
                max_cluster_size: 0,
            };
            cluster(&graph, &opts)?
        };
        let cluster_ios = ctx.stats().snapshot().since(&before);
        Ok((raw, clustering, cluster_ios))
    }

    fn check(
        &self,
        ctx: &EmContext,
        (raw, c, cluster_ios): Self::Output,
        _: &Counters,
    ) -> Result<Checked> {
        let digest = ctx.oracle(|| labels_digest(&c.labels))?;
        let (want_digest, want_rounds) = self.expected;
        let ok = digest == want_digest && c.rounds_run == want_rounds;
        let mut out = Checked::one(ok, || {
            format!(
                "clustering: digest {digest:016x} in {} rounds, reference {want_digest:016x} in {want_rounds}",
                c.rounds_run
            )
        });
        out.digest = Some(digest);
        out.input_blocks = raw.num_blocks();
        out.extra.push(("emgraph.rounds", f64::from(c.rounds_run)));
        out.extra.push((
            "emgraph.ios_per_round",
            cluster_ios.logical_ios() as f64 / f64::from(c.rounds_run.max(1)),
        ));
        Ok(out)
    }

    fn probe(&self, ctx: &EmContext, dir: &Path) -> Result<Probes> {
        let edges: Vec<Edge> = self
            .pairs
            .iter()
            .map(|&(src, dst)| Edge { src, dst })
            .collect();
        probes::run(ctx, dir, &edges)
    }
}
