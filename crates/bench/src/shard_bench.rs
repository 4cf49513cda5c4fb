//! EX-SHARD: the sharded scale-out serving campaign.
//!
//! Splits one dataset across an 8-shard [`emserve::Router`] fleet
//! (splitter-partitioned stores, co-ranking scatter/gather) and drives it
//! with waves of concurrent clients, against the single-store
//! [`emserve::QueryServer`] baseline on the same data and query mix. The
//! campaign audits the shard layer's contract in-harness:
//!
//! * **bit-identity** — every exact answer from the fleet equals the
//!   one-store oracle's (the data is a shuffled permutation of `0..n`, so
//!   the element of rank `r` is `r − 1`);
//! * **conservation** — the fleet shares one metrics registry, and the
//!   end-to-end outcome histograms must hold exactly one sample per
//!   accepted sub-query across all shards:
//!   `family_total(em_serve_query_e2e_us) == merged.queries`;
//! * **typed failure** — no query may error under the clean schedule.
//!
//! Reported per cell: p50/p99 client-observed latency and amortized
//! logical I/Os per client query (build I/Os listed separately), so the
//! scatter/gather overhead of routing is visible against the one-store
//! baseline at equal concurrency.

use std::time::Instant;

use emcore::{EmConfig, EmContext, SplitMix64};
use emserve::{
    shard_fleet_in_memory, QueryServer, QueryService, Router, ServeOptions, ServiceTicket,
};

use crate::harness::{bench_config, Scale, Table};

const SEED: u64 = 20140624;

/// The audited result of one `(mode, clients)` cell.
#[derive(Debug)]
pub struct ShardOutcome {
    /// `"single"` (one [`QueryServer`]) or `"fleet"` (a [`Router`]).
    pub mode: &'static str,
    /// Shards behind the service (1 for the single-store baseline).
    pub shards: usize,
    /// Concurrent client threads driving the wave.
    pub clients: usize,
    /// Client-visible queries submitted.
    pub queries: u64,
    /// Exact answers received (each verified against the oracle).
    pub exact: u64,
    /// Exact answers that differed from the one-store oracle.
    pub mismatches: u64,
    /// Queries that failed or came back degraded under a clean schedule.
    pub errors: u64,
    /// Median client-observed answer latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile client-observed answer latency, microseconds.
    pub p99_us: u64,
    /// Logical I/Os spent building/registering the dataset.
    pub build_ios: u64,
    /// Logical I/Os spent answering the wave, summed across the fleet.
    pub query_ios: u64,
    /// Whether the e2e histograms conserve against the merged report.
    pub conserved: bool,
}

impl ShardOutcome {
    /// Bit-identical, error-free, and metrics-conserving.
    pub fn clean(&self) -> bool {
        self.mismatches == 0 && self.errors == 0 && self.conserved
    }

    /// Amortized logical I/Os per client query.
    pub fn ios_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.query_ios as f64 / self.queries as f64
        }
    }
}

/// The deterministic two-rank query a given `(client, step)` issues —
/// spread over the whole rank space so fleet queries routinely straddle
/// shard boundaries.
fn wave_ranks(client: usize, step: usize, n: u64) -> Vec<u64> {
    let h = client as u64 * 7919 + step as u64 * 613;
    vec![1 + (h * 2654435761 % n), 1 + ((h * 97 + 13) * 40503 % n)]
}

/// Drive `clients × per_client` queries against any service and audit
/// every answer against the permutation oracle. Returns the sorted
/// latency ladder (µs); mismatch/error counts land in `o`.
fn drive<S: QueryService<u64> + Sync>(
    svc: &S,
    clients: usize,
    per_client: usize,
    n: u64,
    o: &mut ShardOutcome,
) -> Vec<u64> {
    let results: Vec<(Vec<u64>, u64, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut lat = Vec::with_capacity(per_client);
                    let (mut exact, mut mismatches, mut errors) = (0u64, 0u64, 0u64);
                    for i in 0..per_client {
                        let ranks = wave_ranks(c, i, n);
                        let t0 = Instant::now();
                        let answer = svc.rank("ds", ranks.clone()).and_then(ServiceTicket::wait);
                        lat.push(t0.elapsed().as_micros() as u64);
                        match answer {
                            Ok(a) if !a.approx => {
                                exact += 1;
                                let want: Vec<u64> = ranks.iter().map(|&r| r - 1).collect();
                                if a.values != want {
                                    mismatches += 1;
                                }
                            }
                            Ok(_) | Err(_) => errors += 1,
                        }
                    }
                    (lat, exact, mismatches, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let mut lat = Vec::new();
    for (l, exact, mismatches, errors) in results {
        lat.extend(l);
        o.queries += per_client as u64;
        o.exact += exact;
        o.mismatches += mismatches;
        o.errors += errors;
    }
    lat.sort_unstable();
    lat
}

/// `p`-th percentile of a sorted ladder (nearest-rank).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p / 100.0).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn outcome(mode: &'static str, shards: usize, clients: usize) -> ShardOutcome {
    ShardOutcome {
        mode,
        shards,
        clients,
        queries: 0,
        exact: 0,
        mismatches: 0,
        errors: 0,
        p50_us: 0,
        p99_us: 0,
        build_ios: 0,
        query_ios: 0,
        conserved: false,
    }
}

/// One fleet cell: build an in-memory `shards`-way fleet, split the
/// dataset, drive the wave, audit, and check conservation over the
/// fleet-shared registry.
pub fn fleet_cell(shards: usize, clients: usize, n: u64, per_client: usize) -> ShardOutcome {
    let mut o = outcome("fleet", shards, clients);
    let config: EmConfig = bench_config();
    let (rc, scs) = shard_fleet_in_memory(config, shards);
    rc.metrics().set_enabled(true);
    let fleet_ios = |rc: &EmContext, scs: &[EmContext]| -> u64 {
        rc.stats().snapshot().total_ios()
            + scs
                .iter()
                .map(|c| c.stats().snapshot().total_ios())
                .sum::<u64>()
    };
    let mut router = Router::<u64>::start(&rc, &scs, ServeOptions::default()).expect("fleet start");

    let mut data: Vec<u64> = (0..n).collect();
    SplitMix64::new(SEED).shuffle(&mut data);
    let before = fleet_ios(&rc, &scs);
    router.register("ds", data).expect("shard build");
    o.build_ios = fleet_ios(&rc, &scs) - before;

    let before = fleet_ios(&rc, &scs);
    let lat = drive(&router, clients, per_client, n, &mut o);
    o.query_ios = fleet_ios(&rc, &scs) - before;
    o.p50_us = percentile(&lat, 50.0);
    o.p99_us = percentile(&lat, 99.0);

    // Conservation across the fleet: one e2e histogram sample per
    // accepted sub-query, on the registry every shard context shares.
    let merged = router.stats().expect("merged report");
    let snap = rc.metrics().snapshot(rc.clock().now_us());
    o.conserved = snap.family_total("em_serve_query_e2e_us") == merged.queries;
    assert!(
        o.conserved,
        "fleet e2e histograms must conserve: family_total={} merged.queries={}",
        snap.family_total("em_serve_query_e2e_us"),
        merged.queries
    );
    router.shutdown().expect("fleet shutdown");
    o
}

/// The single-store baseline cell: one [`QueryServer`] on one context,
/// same data, same wave, same audits — through the same
/// [`QueryService`] trait the fleet serves.
pub fn single_cell(clients: usize, n: u64, per_client: usize) -> ShardOutcome {
    let mut o = outcome("single", 1, clients);
    let ctx = EmContext::new_in_memory(bench_config());
    ctx.metrics().set_enabled(true);
    let mut server = QueryServer::<u64>::start(&ctx, ServeOptions::default()).expect("start");

    let mut data: Vec<u64> = (0..n).collect();
    SplitMix64::new(SEED).shuffle(&mut data);
    let before = ctx.stats().snapshot().total_ios();
    QueryService::register(&server, "ds", data).expect("register");
    o.build_ios = ctx.stats().snapshot().total_ios() - before;

    let before = ctx.stats().snapshot().total_ios();
    let lat = drive(&server, clients, per_client, n, &mut o);
    o.query_ios = ctx.stats().snapshot().total_ios() - before;
    o.p50_us = percentile(&lat, 50.0);
    o.p99_us = percentile(&lat, 99.0);

    let report = QueryService::<u64>::stats(&server).expect("report");
    let snap = ctx.metrics().snapshot(ctx.clock().now_us());
    o.conserved = snap.family_total("em_serve_query_e2e_us") == report.queries;
    assert!(
        o.conserved,
        "single-store e2e histograms must conserve: family_total={} report.queries={}",
        snap.family_total("em_serve_query_e2e_us"),
        report.queries
    );
    server.shutdown().expect("shutdown");
    o
}

/// EX-SHARD: single-store baseline vs an 8-shard fleet, at 1 and many
/// concurrent clients.
pub fn ex_shard(scale: Scale) -> Table {
    let (n, per_client) = match scale {
        Scale::Quick => (40_000u64, 16usize),
        Scale::Full => (400_000u64, 64usize),
    };
    let client_waves = [1usize, 8];
    let mut t = Table::new(
        "EX-SHARD",
        &format!(
            "sharded scale-out serving: 8-shard co-ranking router vs one-store baseline  [N={n}]"
        ),
        &[
            "mode",
            "shards",
            "clients",
            "queries",
            "exact",
            "mismatch",
            "errors",
            "p50_us",
            "p99_us",
            "build_ios",
            "query_ios",
            "ios/query",
            "conserved",
        ],
    );
    for &clients in &client_waves {
        for o in [
            single_cell(clients, n, per_client),
            fleet_cell(8, clients, n, per_client),
        ] {
            if !o.clean() {
                t.failed += 1;
                eprintln!("[EX-SHARD] sick cell: {o:?}");
            }
            t.row(vec![
                o.mode.into(),
                o.shards.to_string(),
                o.clients.to_string(),
                o.queries.to_string(),
                o.exact.to_string(),
                o.mismatches.to_string(),
                o.errors.to_string(),
                o.p50_us.to_string(),
                o.p99_us.to_string(),
                o.build_ios.to_string(),
                o.query_ios.to_string(),
                crate::harness::fnum(o.ios_per_query()),
                if o.conserved { "yes" } else { "NO" }.into(),
            ]);
        }
    }
    t.note("every exact answer is compared bit-for-bit against the one-store oracle (rank r of the shuffled permutation is r−1); any mismatch, error, or degraded answer under this clean schedule marks the cell sick");
    t.note("conservation is asserted in-harness per cell: family_total(em_serve_query_e2e_us) on the fleet-shared registry == merged ServeReport queries across all shards");
    t.note("build_ios counts the splitter-partitioned shard build (fleet) or plain registration (single); query_ios and ios/query cover only the client wave");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_cell_is_bit_identical_and_conserved() {
        let o = fleet_cell(8, 2, 4000, 4);
        assert!(o.clean(), "{o:?}");
        assert_eq!(o.queries, 8);
        assert_eq!(o.exact, 8);
    }

    #[test]
    fn single_cell_baseline_is_clean() {
        let o = single_cell(2, 4000, 4);
        assert!(o.clean(), "{o:?}");
        assert_eq!(o.queries, o.exact);
    }

    #[test]
    fn percentile_ladder_is_sane() {
        let lat = vec![1, 2, 3, 4, 100];
        assert_eq!(percentile(&lat, 50.0), 3);
        assert_eq!(percentile(&lat, 99.0), 100);
        assert_eq!(percentile(&[], 99.0), 0);
    }
}
