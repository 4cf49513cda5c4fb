//! EX-CHAOS: the serve-chaos campaign.
//!
//! Drives a live [`emserve::QueryServer`] through fault schedules
//! (transient, torn-write, corrupt-read, fatal) crossed with overload
//! (a wave of zero-deadline degraded-mode queries), on both backends, and
//! checks the serving layer's resilience contract:
//!
//! * **no hangs** — every submitted ticket resolves (answer or typed
//!   error) within a generous timeout; a timed-out ticket counts as hung;
//! * **exactness** — every answer not flagged `approx` is bit-identical
//!   to the unfaulted oracle;
//! * **honest bounds** — every `approx` answer's realized rank error is
//!   within its stated [`emserve::QueryAnswer::rank_error`] bound;
//! * **healing** — after the fault schedule is cleared, the server
//!   answers exactly again (breaker probes restore crashed datasets);
//! * **durability** — killing the process mid-refinement leaves a
//!   journaled catalog and splitter index that reopen cleanly and still
//!   answer exactly ([`reopen_after_kill`], directory backend).
//!
//! Like the crash sweep, the campaign reports rather than panics: bad
//! cells fill the `hung`/`mismatch`/`bound-viol` columns and count as
//! failed cells of the table, so one sick cell does not hide the rest.

use std::time::{Duration, Instant};

use emcore::{
    EmConfig, EmContext, EmError, FaultKind, FaultPlan, FaultSpec, RetryPolicy, SplitMix64, Trigger,
};
use emselect::MsOptions;
use emserve::{Catalog, QueryOptions, QueryServer, ServeOptions, SplitterIndex, Ticket};

use crate::crash_sweep::Backend;
use crate::harness::{Scale, Table};

const SEED: u64 = 20140623;

/// How long a ticket may take before the campaign declares it hung. Far
/// above any real batch latency at campaign scale — a trip of this wire
/// means a lost reply, not a slow one.
const HANG_TIMEOUT: Duration = Duration::from_secs(20);

/// The fault schedules the campaign crosses with overload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Independent 5% transient read/write failures.
    Transient,
    /// Every 19th write torn (prefix persisted, attempt failed).
    Torn,
    /// Every 31st read bit-flipped in flight. Only meaningful on the
    /// directory backend, whose block checksums detect the damage; the
    /// memory backend would corrupt silently, which no serving layer can
    /// observe.
    Corrupt,
    /// A fatal fault mid-storm: the device crashes, the breaker trips,
    /// and the campaign later heals the device and requires recovery.
    Fatal,
}

impl Schedule {
    /// Table label.
    pub fn name(self) -> &'static str {
        match self {
            Schedule::Transient => "transient",
            Schedule::Torn => "torn",
            Schedule::Corrupt => "corrupt",
            Schedule::Fatal => "fatal",
        }
    }

    fn plan(self) -> FaultPlan {
        match self {
            Schedule::Transient => FaultPlan::new(SEED).transient_rate(0.05),
            Schedule::Torn => FaultPlan::new(SEED).with(FaultSpec {
                trigger: Trigger::EveryNth(19),
                kind: FaultKind::TornWrite,
            }),
            Schedule::Corrupt => FaultPlan::new(SEED).with(FaultSpec {
                trigger: Trigger::EveryNth(31),
                kind: FaultKind::CorruptRead,
            }),
            Schedule::Fatal => FaultPlan::new(SEED).fatal_at(40),
        }
    }
}

/// The audited result of one `(schedule, backend, overload)` cell.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// Fault schedule driven.
    pub schedule: Schedule,
    /// Backend driven.
    pub backend: Backend,
    /// Whether the overload wave ran.
    pub overload: bool,
    /// Tickets submitted (storm + overload + heal checks).
    pub queries: u64,
    /// Exact answers received (all verified against the oracle).
    pub exact: u64,
    /// Degraded answers received (all verified against their bound).
    pub approx: u64,
    /// Typed errors received (quarantined, unhealthy, or shed).
    pub errors: u64,
    /// Tickets that failed to resolve within `HANG_TIMEOUT`.
    pub hung: u64,
    /// Exact answers that differed from the unfaulted oracle.
    pub mismatches: u64,
    /// Degraded answers whose realized rank error exceeded their bound.
    pub bound_violations: u64,
    /// Breaker trips observed by the server.
    pub breaker_trips: u64,
    /// Breaker restores (probe or live traffic) observed by the server.
    pub breaker_restores: u64,
    /// Whether the post-storm heal check answered exactly.
    pub healed: bool,
}

impl ChaosOutcome {
    /// No hung ticket, no oracle mismatch, no dishonest bound, healed.
    pub fn clean(&self) -> bool {
        self.hung == 0 && self.mismatches == 0 && self.bound_violations == 0 && self.healed
    }
}

/// Collect one ticket, auditing it against the oracle. The data is a
/// shuffled permutation of `0..n`, so the element of rank `r` is `r - 1`
/// and the realized rank of a returned value `v` is `v + 1`.
fn audit(ticket: Ticket<u64>, ranks: &[u64], o: &mut ChaosOutcome) {
    match ticket.wait_timeout(HANG_TIMEOUT) {
        Ok(a) if a.approx => {
            o.approx += 1;
            for (&r, &v) in ranks.iter().zip(&a.values) {
                if (v + 1).abs_diff(r) > a.rank_error {
                    o.bound_violations += 1;
                }
            }
        }
        Ok(a) => {
            o.exact += 1;
            let want: Vec<u64> = ranks.iter().map(|&r| r - 1).collect();
            if a.values != want {
                o.mismatches += 1;
            }
        }
        Err(EmError::DeadlineExceeded { .. }) => o.hung += 1,
        Err(_) => o.errors += 1,
    }
}

/// Drive one `(schedule, backend, overload)` cell: warm the index, run
/// two storm waves of coalesced batches under the fault schedule (healing
/// the device between waves for [`Schedule::Fatal`]), optionally an
/// overload wave of zero-deadline degraded queries, then clear the
/// schedule and require exact answers again.
pub fn chaos_cell(schedule: Schedule, backend: Backend, overload: bool, n: u64) -> ChaosOutcome {
    let mut o = ChaosOutcome {
        schedule,
        backend,
        overload,
        queries: 0,
        exact: 0,
        approx: 0,
        errors: 0,
        hung: 0,
        mismatches: 0,
        bound_violations: 0,
        breaker_trips: 0,
        breaker_restores: 0,
        healed: false,
    };
    let ctx = backend.ctx(EmConfig::tiny());
    ctx.set_retry_policy(RetryPolicy::retries(4));
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

    // Warm the skeleton with one clean refining batch, so degraded
    // answers exist during the storm.
    let warm: Vec<u64> = (1..8).map(|i| i * n / 8).collect();
    client
        .query("ds", warm)
        .expect("submit warm")
        .wait()
        .expect("warm answer");

    let plan = schedule.plan();
    ctx.install_fault_plan(plan.clone());

    // Two waves of 24 single-rank queries in pre-coalesced batches of 8.
    let submit_wave = |wave: u64, o: &mut ChaosOutcome| {
        let queries: Vec<Vec<u64>> = (0..24u64)
            .map(|i| vec![1 + (i * 739 + wave * 97) % n])
            .collect();
        for chunk in queries.chunks(8) {
            let tickets = client
                .submit_batch("ds", chunk.to_vec())
                .expect("submit storm batch");
            for (ranks, t) in chunk.iter().zip(tickets) {
                o.queries += 1;
                audit(t, ranks, o);
            }
        }
    };
    submit_wave(0, &mut o);

    if schedule == Schedule::Fatal {
        // The device comes back; the breaker must probe its way closed.
        plan.clear_crash();
        plan.clear_specs();
        let t0 = Instant::now();
        while let Ok(t) = client.query("ds", vec![n / 2]) {
            match t.wait_timeout(HANG_TIMEOUT) {
                Ok(_) => break,
                Err(_) if t0.elapsed() < Duration::from_secs(10) => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => break, // healed stays false via the check below
            }
        }
    }

    if overload {
        // A rush of already-expired queries in degraded mode: each must
        // resolve instantly with a skeleton answer and an honest bound.
        let rush = QueryOptions {
            deadline: Some(Duration::ZERO),
            degraded: Some(true),
        };
        let queries: Vec<(Vec<u64>, QueryOptions)> = (0..16u64)
            .map(|i| (vec![1 + (i * 211 + 5) % n], rush))
            .collect();
        let ranks: Vec<Vec<u64>> = queries.iter().map(|(r, _)| r.clone()).collect();
        let tickets = client
            .submit_batch_with("ds", queries)
            .expect("submit overload batch");
        for (ranks, t) in ranks.iter().zip(tickets) {
            o.queries += 1;
            audit(t, ranks, &mut o);
        }
    }

    submit_wave(1, &mut o);

    // Heal: clear the schedule entirely and require exact service.
    ctx.clear_fault_plan();
    let heal_ranks: Vec<u64> = vec![1, n / 3, n];
    let t0 = Instant::now();
    loop {
        let t = client.query("ds", heal_ranks.clone()).expect("submit heal");
        o.queries += 1;
        let before = (o.exact, o.mismatches);
        audit(t, &heal_ranks, &mut o);
        if o.exact > before.0 {
            o.healed = o.mismatches == before.1;
            break;
        }
        if t0.elapsed() > Duration::from_secs(10) {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    let report = client.report().expect("report");
    o.breaker_trips = report.breaker_trips;
    o.breaker_restores = report.breaker_restores;
    drop(client);
    server.shutdown().expect("clean shutdown");
    o
}

/// Kill the server mid-refinement (a fatal fault at device attempt
/// `crash_at` of a refining query, never healed) and verify that a fresh
/// context over the same directory reopens the journaled catalog and
/// splitter index cleanly and answers exactly. Returns `true` on success.
pub fn reopen_after_kill(crash_at: u64) -> bool {
    let dir = std::env::temp_dir().join(format!(
        "em-serve-chaos-reopen-{}-{crash_at}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let n = 2000u64;
    let mut data: Vec<u64> = (0..n).collect();
    SplitMix64::new(SEED).shuffle(&mut data);

    // --- process 1: register, warm, then die mid-refinement ---
    {
        let ctx = EmContext::new_on_disk(EmConfig::tiny(), &dir).expect("open store");
        let mut server =
            QueryServer::<u64>::start(&ctx, ServeOptions::default()).expect("server start");
        let client = server.client().expect("server running");
        client.register("ds", data).expect("register");
        client
            .query("ds", vec![n / 2])
            .expect("submit warm")
            .wait()
            .expect("warm answer");
        // Crash partway through the next refining batch and stay dead.
        ctx.install_fault_plan(FaultPlan::new(SEED).fatal_at(crash_at));
        let t = client
            .query("ds", vec![n / 4, 3 * n / 4])
            .expect("submit doomed");
        // The ticket must resolve (answer if the crash landed after the
        // batch, typed error otherwise) — never hang.
        if t.wait_timeout(HANG_TIMEOUT).is_err() {
            // expected for most crash points
        }
        drop(client);
        let _ = server.shutdown();
        // ctx dropped crashed: whatever the journals hold, holds.
    }

    // --- process 2: reopen and demand exact answers ---
    let ok = (|| -> Result<bool, EmError> {
        let ctx = EmContext::new_on_disk(EmConfig::tiny(), &dir)?;
        let cat = Catalog::open(&ctx)?;
        let Some(entry) = cat.entry("ds") else {
            return Ok(false);
        };
        if entry.len != n {
            return Ok(false);
        }
        let file = cat.open_dataset::<u64>("ds")?;
        let mut idx = SplitterIndex::open(&ctx, "ds", file)?;
        let ranks = vec![1, n / 4, n / 2, 3 * n / 4, n];
        let (got, _) = idx.answer(&ranks, MsOptions::default(), true)?;
        let want: Vec<u64> = ranks.iter().map(|&r| r - 1).collect();
        Ok(got == want)
    })()
    .unwrap_or(false);
    let _ = std::fs::remove_dir_all(&dir);
    ok
}

/// EX-CHAOS: fault schedules × overload × backends against a live server,
/// plus the mid-refinement kill-and-reopen audit.
pub fn ex_chaos(scale: Scale) -> Table {
    let n = match scale {
        Scale::Quick => 3000u64,
        Scale::Full => 20_000u64,
    };
    let mut t = Table::new(
        "EX-CHAOS",
        &format!("serve-chaos campaign: fault schedules × overload against a live server  [N={n}]"),
        &[
            "schedule",
            "backend",
            "overload",
            "queries",
            "exact",
            "approx",
            "errors",
            "hung",
            "mismatch",
            "bound-viol",
            "trips",
            "restores",
            "healed",
        ],
    );
    for schedule in [
        Schedule::Transient,
        Schedule::Torn,
        Schedule::Corrupt,
        Schedule::Fatal,
    ] {
        for backend in [Backend::Memory, Backend::Disk] {
            if schedule == Schedule::Corrupt && backend == Backend::Memory {
                continue; // silent bit flips: undetectable without checksums
            }
            for overload in [false, true] {
                let o = chaos_cell(schedule, backend, overload, n);
                if !o.clean() {
                    t.failed += 1;
                    eprintln!("[EX-CHAOS] sick cell: {o:?}");
                }
                t.row(vec![
                    o.schedule.name().into(),
                    o.backend.name().into(),
                    if o.overload { "yes" } else { "no" }.into(),
                    o.queries.to_string(),
                    o.exact.to_string(),
                    o.approx.to_string(),
                    o.errors.to_string(),
                    o.hung.to_string(),
                    o.mismatches.to_string(),
                    o.bound_violations.to_string(),
                    o.breaker_trips.to_string(),
                    o.breaker_restores.to_string(),
                    if o.healed { "yes" } else { "NO" }.into(),
                ]);
            }
        }
    }
    let mut reopen_ok = 0u64;
    let crash_points = [2u64, 6, 10, 14, 18];
    for &p in &crash_points {
        if reopen_after_kill(p) {
            reopen_ok += 1;
        } else {
            t.failed += 1;
            eprintln!("[EX-CHAOS] reopen after mid-refinement kill @{p} failed");
        }
    }
    t.note("every ticket must resolve within the hang timeout; exact answers are compared bit-for-bit against the unfaulted oracle; approx answers must honor their stated rank-error bound; after the schedule clears, the server must answer exactly again");
    t.note(format!(
        "mid-refinement kill-and-reopen audit (disk): {reopen_ok}/{} crash points reopened cleanly and answered exactly",
        crash_points.len()
    ));
    t.note("corrupt × memory is skipped: the memory backend has no block checksums, so an in-flight bit flip is silent — detection is a storage property, not a serving one");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_overload_cell_memory_is_clean() {
        let o = chaos_cell(Schedule::Transient, Backend::Memory, true, 1200);
        assert!(o.clean(), "{o:?}");
        assert!(o.approx >= 16, "overload wave must degrade, {o:?}");
        assert_eq!(o.queries, o.exact + o.approx + o.errors, "{o:?}");
    }

    #[test]
    fn fatal_cell_disk_trips_heals_and_stays_clean() {
        let o = chaos_cell(Schedule::Fatal, Backend::Disk, false, 1200);
        assert!(o.clean(), "{o:?}");
        assert!(o.breaker_trips >= 1, "fatal storm must trip, {o:?}");
        assert!(o.errors >= 1, "crashed batches must fail typed, {o:?}");
    }

    #[test]
    fn reopen_after_mid_refinement_kill_is_exact() {
        assert!(reopen_after_kill(6));
    }
}
