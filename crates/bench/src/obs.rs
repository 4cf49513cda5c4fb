//! EX-OBS: the live-observability campaign.
//!
//! Turns the metrics runtime loose on the two nastiest serve scenarios
//! the suite already has — the EX-CHAOS fatal fault storm and the
//! EX-SQUEEZE multi-tenant starvation — and audits the *instrumentation*
//! rather than the answers:
//!
//! * **Conservation** — every accepted query lands in exactly one
//!   end-to-end outcome histogram, so the `em_serve_query_e2e_us` family
//!   total equals [`emserve::ServeReport::queries`] and the batch
//!   occupancy count equals `ServeReport::batches`, even mid-storm.
//! * **Monotone percentiles** — for every histogram in every scrape,
//!   p50 ≤ p90 ≤ p99 ≤ p99.9 ≤ max.
//! * **Honest breaker gauge** — the `em_serve_breaker_state` gauge is
//!   seen Open while the device is crashed, returns to Closed after the
//!   heal, and the trip/restore counters match the server's report.
//! * **Warm beats cold** — with a throttled device, the p99 of the warm
//!   (index-hit) phase is *strictly* below the cold (selecting) phase,
//!   isolated via [`emcore::HistogramSnapshot::since`].
//!
//! A background [`emcore::Sampler`] scrapes the chaos cell live; the
//! campaign re-parses its JSONL series to prove the time-series pipeline
//! observes the breaker lifecycle. Like the other campaigns it reports
//! rather than panics: sick cells flip audit columns to `NO` and count as
//! failed cells of the table.

use std::time::Duration;

use emcore::{
    EmConfig, EmContext, FaultPlan, HistogramSnapshot, MetricSample, MetricsSnapshot, RetryPolicy,
    SplitMix64,
};
use emserve::{QueryOptions, QueryServer, ServeOptions, Ticket};

use crate::harness::{Scale, Table};

const SEED: u64 = 20140623;

/// How long a ticket may take before the campaign declares it hung.
const HANG_TIMEOUT: Duration = Duration::from_secs(20);

/// The end-to-end latency histogram family (one child per dataset ×
/// outcome).
const E2E: &str = "em_serve_query_e2e_us";

/// The audited result of one observability cell.
#[derive(Debug)]
pub struct ObsOutcome {
    /// Cell label.
    pub cell: &'static str,
    /// Queries the server reported accepting.
    pub queries: u64,
    /// Batches the server reported answering.
    pub batches: u64,
    /// Histogram counts conserve against the server's report.
    pub conserved: bool,
    /// Every histogram percentile ladder was monotone in every scrape.
    pub monotone: bool,
    /// Breaker gauge/counters told the same story as the report.
    pub breaker_ok: bool,
    /// p50 of the cell's exact end-to-end latency, µs (bucket floor).
    pub p50_us: u64,
    /// p99 of the cell's exact end-to-end latency, µs (bucket floor).
    pub p99_us: u64,
    /// p99 of the cold phase (warm-cold cell only; 0 elsewhere).
    pub cold_p99_us: u64,
    /// Cell-specific extra audits (degraded seen under starvation, warm
    /// strictly under cold, live series saw the breaker open, ...).
    pub extra_ok: bool,
}

impl ObsOutcome {
    /// Did the instrumentation uphold its contract in this cell?
    pub fn clean(&self) -> bool {
        self.conserved && self.monotone && self.breaker_ok && self.extra_ok
    }
}

fn outcome(cell: &'static str) -> ObsOutcome {
    ObsOutcome {
        cell,
        queries: 0,
        batches: 0,
        conserved: false,
        monotone: false,
        breaker_ok: false,
        p50_us: 0,
        p99_us: 0,
        cold_p99_us: 0,
        extra_ok: false,
    }
}

/// Every histogram in the snapshot has p50 ≤ p90 ≤ p99 ≤ p99.9 ≤ max.
fn percentiles_monotone(snap: &MetricsSnapshot) -> bool {
    snap.samples.iter().all(|s| match &s.hist {
        Some(h) if h.count() > 0 => {
            let ladder = [
                h.percentile(50.0),
                h.percentile(90.0),
                h.percentile(99.0),
                h.percentile(99.9),
                h.max(),
            ];
            ladder.windows(2).all(|w| w[0] <= w[1])
        }
        _ => true,
    })
}

/// Histogram counts vs the server's own counters: the e2e family total
/// must equal accepted queries and the occupancy count must equal
/// answered batches.
fn conserves(snap: &MetricsSnapshot, queries: u64, batches: u64) -> bool {
    let occupancy = snap
        .find("em_serve_batch_occupancy", &[])
        .and_then(|s| s.hist.as_ref())
        .map(|h| h.count())
        .unwrap_or(0);
    snap.family_total(E2E) == queries && occupancy == batches
}

/// The e2e histogram for one `(dataset, outcome)` child, empty when the
/// child has recorded nothing.
fn e2e_hist(snap: &MetricsSnapshot, ds: &str, outcome: &str) -> HistogramSnapshot {
    snap.find(E2E, &[("ds", ds), ("outcome", outcome)])
        .and_then(|s| s.hist.clone())
        .unwrap_or_default()
}

/// Resolve a ticket, ignoring its verdict (the chaos campaign audits
/// answers; this one audits the instrumentation around them).
fn drain(t: Ticket<u64>) {
    let _ = t.wait_timeout(HANG_TIMEOUT);
}

/// Chaos-with-scrape: a fatal fault storm with a live 2 ms sampler
/// attached, scraped mid-storm and after the heal. Audits conservation
/// under failure/shedding, monotone percentiles in *every* scrape, and
/// the breaker gauge's Open→Closed arc against the trip/restore
/// counters — both in direct snapshots and in the sampled series.
pub fn chaos_scrape_cell(n: u64) -> ObsOutcome {
    let mut o = outcome("chaos-scrape");
    let ctx = EmContext::new_in_memory(EmConfig::tiny());
    ctx.set_retry_policy(RetryPolicy::retries(4));
    ctx.metrics().set_enabled(true);

    let series_path =
        std::env::temp_dir().join(format!("em-obs-series-{}.jsonl", std::process::id()));
    let sampler = emcore::Sampler::to_file(
        ctx.metrics().clone(),
        ctx.clock(),
        Duration::from_millis(2),
        &series_path,
    )
    .expect("sampler start");

    let mut data: Vec<u64> = (0..n).collect();
    SplitMix64::new(SEED).shuffle(&mut data);
    let mut server = QueryServer::<u64>::start(
        &ctx,
        ServeOptions {
            breaker_threshold: 2,
            probe_cooldown: Duration::from_millis(5),
            ..Default::default()
        },
    )
    .expect("server start");
    let client = server.client().expect("server running");
    client.register("ds", data).expect("register");
    let warm: Vec<u64> = (1..8).map(|i| i * n / 8).collect();
    drain(client.query("ds", warm).expect("submit warm"));

    // The storm: a fatal device crash partway through, then fail-fast.
    let plan = FaultPlan::new(SEED).fatal_at(40);
    ctx.install_fault_plan(plan.clone());
    for chunk in (0..24u64)
        .map(|i| vec![1 + (i * 739) % n])
        .collect::<Vec<_>>()
        .chunks(8)
    {
        for t in client
            .submit_batch("ds", chunk.to_vec())
            .expect("submit storm batch")
        {
            drain(t);
        }
    }

    // Mid-storm scrape: the breaker must read tripped (Open, or HalfOpen
    // if a doomed probe is in flight), conservation must already hold,
    // and the exposition must carry the family.
    let mid = {
        let r = client.report().expect("mid report");
        let snap = ctx.metrics().snapshot(ctx.clock().now_us());
        let tripped = snap
            .find("em_serve_breaker_state", &[("ds", "ds")])
            .map(|s| s.value >= 1)
            .unwrap_or(false);
        let text = ctx.metrics().expose();
        (
            conserves(&snap, r.queries, r.batches) && percentiles_monotone(&snap),
            tripped && r.breaker_trips >= 1,
            text.contains("# TYPE em_serve_query_e2e_us summary")
                && text.contains("em_serve_breaker_state"),
        )
    };

    // Heal the device; the breaker probes its way closed.
    plan.clear_crash();
    plan.clear_specs();
    let t0 = std::time::Instant::now();
    loop {
        let t = client.query("ds", vec![n / 2]).expect("submit heal");
        match t.wait_timeout(HANG_TIMEOUT) {
            Ok(_) => break,
            Err(_) if t0.elapsed() < Duration::from_secs(10) => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
    ctx.clear_fault_plan();

    // An overload coda: zero-deadline rushes that shed or degrade — the
    // conservation law must absorb those outcomes too.
    let rush = QueryOptions {
        deadline: Some(Duration::ZERO),
        degraded: Some(true),
    };
    let queries: Vec<(Vec<u64>, QueryOptions)> = (0..16u64)
        .map(|i| (vec![1 + (i * 211 + 5) % n], rush))
        .collect();
    for t in client
        .submit_batch_with("ds", queries)
        .expect("submit overload batch")
    {
        drain(t);
    }

    let report = client.report().expect("final report");
    let snap = ctx.metrics().snapshot(ctx.clock().now_us());
    drop(client);
    server.shutdown().expect("clean shutdown");
    sampler.stop().expect("sampler stop");

    // Replay the sampled series: the live pipeline must have caught the
    // breaker open and seen it closed again by the final snapshot.
    let series = std::fs::read_to_string(&series_path).expect("read series");
    let _ = std::fs::remove_file(&series_path);
    let mut series_max_state = 0u64;
    let mut series_last_state = 0u64;
    let mut series_lines = 0u64;
    for line in series.lines().filter(|l| !l.trim().is_empty()) {
        let (_, s) = MetricSample::parse(line).expect("parse series line");
        series_lines += 1;
        if s.name == "em_serve_breaker_state" {
            series_max_state = series_max_state.max(s.value);
            series_last_state = s.value;
        }
    }

    o.queries = report.queries;
    o.batches = report.batches;
    o.conserved = mid.0 && conserves(&snap, report.queries, report.batches);
    o.monotone = percentiles_monotone(&snap);
    let trips = snap
        .find("em_serve_breaker_trips_total", &[("ds", "ds")])
        .map(|s| s.value)
        .unwrap_or(0);
    let restores = snap
        .find("em_serve_breaker_restores_total", &[("ds", "ds")])
        .map(|s| s.value)
        .unwrap_or(0);
    let closed_now = snap
        .find("em_serve_breaker_state", &[("ds", "ds")])
        .map(|s| s.value == 0)
        .unwrap_or(false);
    o.breaker_ok = mid.1
        && trips == report.breaker_trips
        && restores == report.breaker_restores
        && report.breaker_trips >= 1
        && closed_now
        && series_max_state >= 1
        && series_last_state == 0;
    let exact = e2e_hist(&snap, "ds", "exact");
    o.p50_us = exact.percentile(50.0);
    o.p99_us = exact.percentile(99.0);
    // Shed + degraded outcomes must be visible in their own children.
    let shed = e2e_hist(&snap, "ds", "shed").count();
    let degraded = e2e_hist(&snap, "ds", "degraded").count();
    o.extra_ok = mid.2 && shed == report.shed && degraded == report.degraded && series_lines > 0;
    o
}

/// Squeeze-with-scrape: multi-tenant starvation under a governor squeeze,
/// scraped mid-squeeze. Audits conservation across the degraded outcome,
/// and that the budget gauge tracks the squeeze and the restore.
pub fn squeeze_scrape_cell(n: u64) -> ObsOutcome {
    let mut o = outcome("squeeze-scrape");
    let config = EmConfig::medium();
    let ctx = EmContext::new_in_memory_strict(config);
    ctx.metrics().set_enabled(true);
    let full = config.mem_capacity();

    let mut server = QueryServer::<u64>::start(
        &ctx,
        ServeOptions {
            degraded: true,
            refine: true,
            lease_floor: 512,
            ..Default::default()
        },
    )
    .expect("server start");
    let client = server.client().expect("server running");
    let mut data: Vec<u64> = (1..=n).collect();
    SplitMix64::new(SEED).shuffle(&mut data);
    client.register("tenant", data).expect("register");
    let warm: Vec<u64> = (1..5).map(|i| i * n / 5).collect();
    drain(client.query("tenant", warm).expect("submit warm"));

    let wave = |salt: u64| {
        for q in 0..8u64 {
            let ranks = vec![1 + (q * 877 + salt * 397) % n];
            drain(client.query("tenant", ranks).expect("submit"));
        }
    };
    wave(1);

    // Squeeze M to an eighth and let a rival pin all but half a block:
    // every exact pass is starved, so the wave must go degraded.
    ctx.set_mem_budget(full / 8);
    let sliver = config.block_size() / 2;
    let rival = ctx
        .mem()
        .try_charge(ctx.mem().available().saturating_sub(sliver), "rival tenant")
        .expect("rival admission");
    wave(2);

    // Mid-squeeze scrape: the budget gauge must read the squeezed value
    // and conservation must hold with degraded answers in flight.
    let (mid_ok, budget_mid) = {
        let r = client.report().expect("mid report");
        let snap = ctx.metrics().snapshot(ctx.clock().now_us());
        let budget = snap
            .find("em_serve_mem_budget_words", &[])
            .map(|s| s.value)
            .unwrap_or(0);
        (
            conserves(&snap, r.queries, r.batches) && percentiles_monotone(&snap),
            budget,
        )
    };

    drop(rival);
    ctx.set_mem_budget(full);
    wave(3);

    let report = client.report().expect("final report");
    let snap = ctx.metrics().snapshot(ctx.clock().now_us());
    drop(client);
    server.shutdown().expect("clean shutdown");

    o.queries = report.queries;
    o.batches = report.batches;
    o.conserved = mid_ok && conserves(&snap, report.queries, report.batches);
    o.monotone = percentiles_monotone(&snap);
    // No faults here: the breaker story is "never tripped, gauge Closed".
    o.breaker_ok = report.breaker_trips == 0
        && snap
            .find("em_serve_breaker_state", &[("ds", "tenant")])
            .map(|s| s.value == 0)
            .unwrap_or(false);
    let exact = e2e_hist(&snap, "tenant", "exact");
    o.p50_us = exact.percentile(50.0);
    o.p99_us = exact.percentile(99.0);
    let degraded = e2e_hist(&snap, "tenant", "degraded").count();
    let budget_now = snap
        .find("em_serve_mem_budget_words", &[])
        .map(|s| s.value)
        .unwrap_or(0);
    o.extra_ok = degraded == report.degraded
        && report.degraded > 0
        && budget_mid == (full / 8) as u64
        && budget_now == full as u64;
    o
}

/// Warm-vs-cold: a throttled disk device makes cold (selecting) queries
/// pay real latency; repeating the same ranks hits stored boundaries at
/// zero I/O. [`HistogramSnapshot::since`] isolates the two phases from
/// one live histogram; warm p99 must land *strictly* below cold p99.
pub fn warm_cold_cell(n: u64, device_latency_us: u64) -> ObsOutcome {
    let mut o = outcome("warm-vs-cold");
    let config = EmConfig::medium().with_device_latency_us(device_latency_us);
    let ctx = EmContext::new_on_disk_temp(config).expect("tempdir");
    ctx.metrics().set_enabled(true);

    let mut server =
        QueryServer::<u64>::start(&ctx, ServeOptions::default()).expect("server start");
    let client = server.client().expect("server running");
    let mut data: Vec<u64> = (1..=n).collect();
    SplitMix64::new(SEED ^ 0xc01d).shuffle(&mut data);
    client.register("ds", data).expect("register");

    let rank_sets: Vec<Vec<u64>> = (0..12u64).map(|i| vec![1 + (i * 509 + 7) % n]).collect();
    let phase_hist =
        |snap: &MetricsSnapshot| -> HistogramSnapshot { e2e_hist(snap, "ds", "exact") };

    let base = ctx.metrics().snapshot(ctx.clock().now_us());
    for ranks in &rank_sets {
        drain(client.query("ds", ranks.clone()).expect("submit cold"));
    }
    let after_cold = ctx.metrics().snapshot(ctx.clock().now_us());
    for ranks in &rank_sets {
        drain(client.query("ds", ranks.clone()).expect("submit warm"));
    }
    let after_warm = ctx.metrics().snapshot(ctx.clock().now_us());

    let report = client.report().expect("final report");
    let snap = ctx.metrics().snapshot(ctx.clock().now_us());
    drop(client);
    server.shutdown().expect("clean shutdown");

    let cold = phase_hist(&after_cold).since(&phase_hist(&base));
    let warm = phase_hist(&after_warm).since(&phase_hist(&after_cold));
    o.queries = report.queries;
    o.batches = report.batches;
    o.conserved = conserves(&snap, report.queries, report.batches);
    o.monotone = percentiles_monotone(&base)
        && percentiles_monotone(&after_cold)
        && percentiles_monotone(&after_warm)
        && percentiles_monotone(&snap);
    o.breaker_ok = report.breaker_trips == 0;
    o.p50_us = warm.percentile(50.0);
    o.p99_us = warm.percentile(99.0);
    o.cold_p99_us = cold.percentile(99.0);
    // Both phases fully exact, warm answered from the index, and the
    // headline inequality: warm p99 strictly below cold p99.
    o.extra_ok = cold.count() == rank_sets.len() as u64
        && warm.count() == rank_sets.len() as u64
        && report.index_hits >= rank_sets.len() as u64
        && o.p99_us < o.cold_p99_us;
    o
}

/// EX-OBS: the three observability cells as a table.
pub fn ex_obs(scale: Scale) -> Table {
    let (n_chaos, n_squeeze, n_cold, latency_us) = match scale {
        Scale::Quick => (3_000u64, 8_000u64, 8_000u64, 150u64),
        Scale::Full => (20_000, 40_000, 40_000, 300),
    };
    let mut t = Table::new(
        "EX-OBS",
        "observability campaign: live scrapes audited against server ground truth",
        &[
            "cell",
            "queries",
            "batches",
            "conserved",
            "monotone",
            "breaker_ok",
            "p50_us",
            "p99_us",
            "cold_p99_us",
            "ok",
        ],
    );
    for o in [
        chaos_scrape_cell(n_chaos),
        squeeze_scrape_cell(n_squeeze),
        warm_cold_cell(n_cold, latency_us),
    ] {
        if !o.clean() {
            t.failed += 1;
            eprintln!("[EX-OBS] sick cell: {o:?}");
        }
        let yn = |b: bool| if b { "yes" } else { "NO" }.to_string();
        t.row(vec![
            o.cell.into(),
            o.queries.to_string(),
            o.batches.to_string(),
            yn(o.conserved),
            yn(o.monotone),
            yn(o.breaker_ok),
            o.p50_us.to_string(),
            o.p99_us.to_string(),
            o.cold_p99_us.to_string(),
            yn(o.clean()),
        ]);
    }
    t.note("conserved: e2e histogram family total == reported queries and occupancy count == reported batches, in mid-storm and final scrapes alike");
    t.note("monotone: p50 ≤ p90 ≤ p99 ≤ p99.9 ≤ max for every histogram in every scrape");
    t.note("breaker_ok: gauge seen Open while crashed and Closed after the heal; trip/restore counters equal the server report");
    t.note("warm-vs-cold: phases isolated from one live histogram via since(); warm p99 must be strictly below cold p99 under a throttled device");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_scrape_cell_is_clean() {
        let o = chaos_scrape_cell(1200);
        assert!(o.clean(), "{o:?}");
        assert!(o.queries > 0 && o.batches > 0, "{o:?}");
    }

    #[test]
    fn squeeze_scrape_cell_is_clean() {
        let o = squeeze_scrape_cell(4000);
        assert!(o.clean(), "{o:?}");
    }

    #[test]
    fn warm_cold_cell_separates_phases() {
        let o = warm_cold_cell(4000, 150);
        assert!(o.clean(), "{o:?}");
        assert!(o.p99_us < o.cold_p99_us, "{o:?}");
    }
}
