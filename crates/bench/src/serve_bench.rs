//! EX-SERVE: amortized query cost in the serving layer (`emserve`).
//!
//! Two effects, both predicted by the paper's bound `B(N, K)` for selecting
//! `K` ranks together (Theorem 4) and by online multiselection:
//!
//! 1. **Coalescing** — answering a batch of `b` queries with one
//!    multi-select pass costs far less than `b` independent selections, so
//!    logical I/Os *per query* fall strictly as the batch size grows.
//! 2. **Index warmth** — with refinement on, every answered batch leaves a
//!    journaled pivot skeleton behind; replaying the same zipfian query mix
//!    against the warm index answers repeats from memory and recurses only
//!    into the narrowest known segment, costing strictly less than the
//!    cold pass.
//!
//! The experiment also re-checks the correctness contract end to end:
//! every batched answer must be bit-identical to a per-query
//! `emselect::multi_select` on the same data.

use emcore::{EmContext, EmFile};
use emserve::{QueryServer, ServeOptions};
use workloads::zipf_query_ranks;

use crate::harness::{bench_ctx, fnum, Scale, Table};

const SEED: u64 = 20140623;

/// Answer `queries` (one rank list per query) through a fresh server in
/// batches of `batch`, with or without index refinement. Returns the
/// answers, the logical I/Os spent answering (registration excluded), and
/// the server's index-hit count.
fn run_server(
    ctx: &EmContext,
    data: &[u64],
    queries: &[Vec<u64>],
    batch: usize,
    refine: bool,
) -> (Vec<Vec<u64>>, u64, u64) {
    let opts = ServeOptions {
        refine,
        ..Default::default()
    };
    let mut server = QueryServer::<u64>::start(ctx, opts).expect("server start");
    let client = server.client().expect("server running");
    client.register("ds", data.to_vec()).expect("register");
    let before = ctx.stats().snapshot();
    let mut answers = Vec::with_capacity(queries.len());
    for chunk in queries.chunks(batch.max(1)) {
        let tickets = client
            .submit_batch("ds", chunk.to_vec())
            .expect("submit batch");
        for t in tickets {
            answers.push(t.wait().expect("answer").into_values());
        }
    }
    let ios = ctx.stats().snapshot().since(&before).total_ios();
    drop(client);
    let report = server.shutdown().expect("clean shutdown");
    (answers, ios, report.index_hits)
}

/// EX-SERVE: amortized logical I/Os per query vs batch size and index
/// warmth, against a select-per-query baseline.
pub fn ex_serve(scale: Scale) -> Table {
    let n = scale.n() / 8;
    let nq = 64usize;
    let mut t = Table::new(
        "EX-SERVE",
        &format!("serving layer: amortized I/Os per query  [N={n}, {nq} queries]"),
        &[
            "mode",
            "batch",
            "refine",
            "queries",
            "I/Os",
            "I/Os per query",
            "index hits",
        ],
    );

    // A zipfian single-rank query mix: hot ranks repeat, like real
    // quantile traffic.
    let ranks = zipf_query_ranks(n, 16, 1.1, nq, SEED);
    let queries: Vec<Vec<u64>> = ranks.iter().map(|&r| vec![r]).collect();

    // Ground truth once, via plain per-query multi-select.
    let want: Vec<Vec<u64>> = {
        let ctx = bench_ctx();
        let data = workloads::generate(workloads::Workload::UniformPerm, n, SEED);
        let f = EmFile::from_slice(&ctx, &data).expect("materialize");
        queries
            .iter()
            .map(|q| emselect::multi_select(&f, q).expect("select"))
            .collect()
    };
    let data = workloads::generate(workloads::Workload::UniformPerm, n, SEED);

    // --- coalescing sweep, cold index each run, no refinement ---
    let mut per_query = Vec::new();
    for &batch in &[1usize, 4, 16] {
        let ctx = bench_ctx();
        let (answers, ios, hits) = run_server(&ctx, &data, &queries, batch, false);
        assert_eq!(
            answers, want,
            "batched answers must be bit-identical to per-query multi-select"
        );
        let ipq = ios as f64 / nq as f64;
        per_query.push(ipq);
        let mode = if batch == 1 {
            "select-per-query"
        } else {
            "coalesced"
        };
        t.row(vec![
            mode.into(),
            batch.to_string(),
            "no".into(),
            nq.to_string(),
            ios.to_string(),
            fnum(ipq),
            hits.to_string(),
        ]);
    }
    assert!(
        per_query.windows(2).all(|w| w[1] < w[0]),
        "amortized I/Os per query must fall strictly with batch size: {per_query:?}"
    );

    // --- index warmth: the same mix twice on one server, refinement on ---
    let ctx = bench_ctx();
    let opts = ServeOptions::default();
    let mut server = QueryServer::<u64>::start(&ctx, opts).expect("server start");
    let client = server.client().expect("server running");
    client.register("ds", data.clone()).expect("register");
    let pass =
        |label: &str| -> (u64, u64) {
            let before = ctx.stats().snapshot();
            let hits_before = client.report().expect("report").index_hits;
            for chunk in queries.chunks(4) {
                let tickets = client
                    .submit_batch("ds", chunk.to_vec())
                    .expect("submit batch");
                for (t, w) in tickets.into_iter().zip(chunk.iter().map(|q| {
                    want[queries.iter().position(|x| x == q).expect("query known")].clone()
                })) {
                    assert_eq!(t.wait().expect("answer").values, w, "{label}: wrong answer");
                }
            }
            let ios = ctx.stats().snapshot().since(&before).total_ios();
            let hits = client.report().expect("report").index_hits - hits_before;
            (ios, hits)
        };
    let (cold_ios, cold_hits) = pass("cold");
    let (warm_ios, warm_hits) = pass("warm");
    drop(client);
    server.shutdown().expect("clean shutdown");
    assert!(
        warm_ios < cold_ios,
        "warm splitter index must beat cold: warm {warm_ios} vs cold {cold_ios}"
    );
    for (mode, ios, hits) in [("cold", cold_ios, cold_hits), ("warm", warm_ios, warm_hits)] {
        t.row(vec![
            format!("index-{mode}"),
            "4".into(),
            "yes".into(),
            nq.to_string(),
            ios.to_string(),
            fnum(ios as f64 / nq as f64),
            hits.to_string(),
        ]);
    }

    t.note("coalesced batches answer b queries in one multi-select pass: B(N, b) ≪ b·B(N, 1)");
    t.note("the warm pass replays the identical zipfian mix against the refined pivot skeleton");
    t
}
