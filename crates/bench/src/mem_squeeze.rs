//! EX-SQUEEZE: the memory-squeeze campaign.
//!
//! Proves the memory governor's contract end to end: `M` is a *dynamic,
//! contended* resource and every algorithm degrades gracefully instead of
//! panicking when it shrinks. Three probes:
//!
//! * **Degradation curve** — external sort, multi-selection, and
//!   approximate partitioning run at static budgets of 100/75/50/25% of
//!   the configured `M`, on both backends (strict in-memory, lenient
//!   disk). Every cell must produce output bit-identical to the full-`M`
//!   oracle; I/O cost may only *grow* as the budget shrinks (shorter
//!   runs, narrower fan-in/fan-out — never a wrong answer).
//! * **Mid-run ratchet** — a governor thread squeezes the live budget to
//!   50% then 25% and restores it *while the algorithm runs*. Lenient
//!   backends must still match the oracle exactly; the strict backend may
//!   instead surface a typed [`EmError::MemoryExceeded`] (allocations
//!   past the admission point are genuinely over budget), which the
//!   campaign records — any other error, panic, or wrong answer is a
//!   failure.
//! * **Multi-tenant starvation** — a live [`emserve::QueryServer`] holds
//!   governor leases for three tenants; the budget is squeezed and a
//!   rival charge pins what remains. Every in-flight query must resolve
//!   with *zero errors*: starved tenants get honest degraded (skeleton)
//!   answers, and exact service resumes once the squeeze lifts.
//!
//! Like the crash sweep, the campaign reports rather than panics: bad
//! cells are tallied in a [`SqueezeOutcome`], and a campaign that breaks
//! the contract anywhere counts as one failed cell of its table.

use std::time::{Duration, Instant};

use apsplit::{approx_partitioning, verify_partitioning, ProblemSpec};
use emcore::{EmConfig, EmContext, EmError, EmFile, SplitMix64};
use emselect::multi_select;
use emserve::{QueryServer, ServeOptions, Ticket};
use emsort::external_sort;

use crate::crash_sweep::{digest, Algo, Backend};
use crate::harness::{Scale, Table};

const SEED: u64 = 20140623;

/// How long a serve ticket may take before the campaign declares it hung.
const HANG_TIMEOUT: Duration = Duration::from_secs(20);

/// Campaign verdict, one per run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SqueezeOutcome {
    /// Cells driven (algorithm runs + serve waves).
    pub cells: u64,
    /// Outputs that diverged from the full-budget oracle.
    pub mismatches: u64,
    /// Typed errors where the contract requires success (static budgets,
    /// lenient ratchets).
    pub unexpected: u64,
    /// Typed `MemoryExceeded` rejections that the contract *allows*
    /// (strict backend, mid-run ratchet) — informational.
    pub allowed_rejections: u64,
    /// Degradation-curve violations: I/O cost *fell* as the budget shrank.
    pub non_monotone: u64,
    /// Serve-cell failures: errored or hung queries, dishonest degraded
    /// bounds, missing lease gauges, or no degraded answer under
    /// guaranteed starvation.
    pub serve_failures: u64,
    /// Queries answered approximately because the exact pass ran out of
    /// budget (the starved tenant's experience) — must be nonzero.
    pub mem_degraded: u64,
}

impl SqueezeOutcome {
    /// Did every cell uphold the squeeze contract?
    pub fn clean(&self) -> bool {
        self.mismatches == 0
            && self.unexpected == 0
            && self.non_monotone == 0
            && self.serve_failures == 0
            && self.mem_degraded > 0
    }
}

/// Strict in-memory / lenient on-disk context for a squeeze cell. The
/// strict tracker turns budget violations into typed errors — exactly
/// what the campaign is hunting; the disk backend shows the lenient
/// (record-only) mode still *adapts* its sizing.
fn squeeze_ctx(backend: Backend, config: EmConfig) -> EmContext {
    match backend {
        Backend::Memory => EmContext::new_in_memory_strict(config),
        Backend::Disk => EmContext::new_on_disk_temp(config).expect("tempdir"),
    }
}

/// One algorithm run under the live budget: `Ok(digest)` or a typed
/// memory rejection. Any *other* error is propagated (campaign failure).
fn run_algo(
    algo: Algo,
    ctx: &EmContext,
    f: &EmFile<u64>,
    ranks: &[u64],
    spec: &ProblemSpec,
) -> Result<Option<u64>, EmError> {
    let r = match algo {
        Algo::Sort => external_sort(f).and_then(|s| {
            let out = ctx.oracle(|| s.to_vec())?;
            Ok(digest(out))
        }),
        Algo::MultiSelect => multi_select(f, ranks).map(digest),
        Algo::Partition => approx_partitioning(f, spec).and_then(|parts| {
            let rep = ctx.oracle(|| verify_partitioning(&parts, spec))?;
            // An invalid partitioning digests to a sentinel that can
            // never equal the oracle (which always verifies).
            if !rep.ok {
                return Ok(u64::MAX);
            }
            Ok(digest(parts.iter().map(|p| p.len())))
        }),
        // Clustering's label lease is squeezed by EX-GRAPH's own runs.
        Algo::Cluster => Err(EmError::config(
            "the squeeze campaign has no clustering cell",
        )),
    };
    match r {
        Ok(d) => Ok(Some(d)),
        Err(EmError::MemoryExceeded { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Drive one algorithm × backend through the static budget ladder and the
/// mid-run ratchet, filling `table` and `out`.
fn squeeze_cell(algo: Algo, backend: Backend, n: u64, table: &mut Table, out: &mut SqueezeOutcome) {
    let config = EmConfig::medium();
    let ctx = squeeze_ctx(backend, config);
    let full = config.mem_capacity();
    let strict = ctx.mem().is_strict();

    let mut data: Vec<u64> = (1..=n).collect();
    SplitMix64::new(SEED ^ n).shuffle(&mut data);
    let f = ctx
        .stats()
        .paused(|| EmFile::from_slice(&ctx, &data))
        .expect("materialize");
    // Ranks / spec for the selection and partitioning probes. The data is
    // a shuffled permutation of 1..=n, so answers are the ranks themselves.
    let ranks: Vec<u64> = (1..8).map(|i| i * n / 8).collect();
    let spec = ProblemSpec::new(n, 16, n / 64, n).expect("spec");

    let row = |budget_label: &str, ios: u64, ms: f64, verdict: &str, table: &mut Table| {
        table.row(vec![
            algo.name().into(),
            backend.name().into(),
            budget_label.into(),
            ios.to_string(),
            format!("{ms:.1}"),
            verdict.into(),
        ]);
    };

    // Static budget ladder: 100% first (the oracle), then descending.
    let mut oracle = 0u64;
    let mut ios_full = 0u64;
    let mut ios_quarter = 0u64;
    for pct in [100usize, 75, 50, 25] {
        out.cells += 1;
        ctx.set_mem_budget(full * pct / 100);
        let before = ctx.stats().snapshot();
        let t0 = Instant::now();
        let got = run_algo(algo, &ctx, &f, &ranks, &spec);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let ios = ctx.stats().snapshot().since(&before).total_ios();
        let verdict = match got {
            Ok(Some(d)) if pct == 100 => {
                oracle = d;
                ios_full = ios;
                "oracle"
            }
            Ok(Some(d)) if d == oracle => {
                if pct == 25 {
                    ios_quarter = ios;
                }
                "ok"
            }
            Ok(Some(_)) => {
                out.mismatches += 1;
                "MISMATCH"
            }
            Ok(None) => {
                // Static budgets down to 25% of `medium` are all far above
                // every algorithm's feasibility floor: a rejection here
                // means adaptivity failed.
                out.unexpected += 1;
                "REJECTED"
            }
            Err(_) => {
                out.unexpected += 1;
                "ERROR"
            }
        };
        row(&format!("{pct}%"), ios, ms, verdict, table);
    }
    // Monotone degradation: a quarter of the memory may cost more I/O,
    // never less (shorter runs / narrower fan-in ⇒ more passes).
    if ios_quarter < ios_full {
        out.non_monotone += 1;
        table.note(format!(
            "NON-MONOTONE: {}/{} cost fewer I/Os at 25% ({ios_quarter}) than 100% ({ios_full})",
            algo.name(),
            backend.name()
        ));
    }

    // Mid-run ratchet: squeeze to 50% then 25%, restore to full, while
    // the algorithm is in flight.
    out.cells += 1;
    ctx.set_mem_budget(full);
    let squeezer = {
        let ctx = ctx.clone();
        std::thread::spawn(move || {
            for w in [full / 2, full / 4, full / 2, full] {
                std::thread::sleep(Duration::from_millis(1));
                ctx.set_mem_budget(w);
            }
        })
    };
    let before = ctx.stats().snapshot();
    let t0 = Instant::now();
    let got = run_algo(algo, &ctx, &f, &ranks, &spec);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let ios = ctx.stats().snapshot().since(&before).total_ios();
    squeezer.join().expect("squeezer");
    let verdict = match got {
        Ok(Some(d)) if d == oracle => "ok",
        Ok(Some(_)) => {
            out.mismatches += 1;
            "MISMATCH"
        }
        Ok(None) if strict => {
            // A strict mid-run squeeze may land between a job's admission
            // point and a later allocation; the typed rejection is the
            // contract. Lenient backends must adapt instead.
            out.allowed_rejections += 1;
            "typed"
        }
        Ok(None) => {
            out.unexpected += 1;
            "REJECTED"
        }
        Err(_) => {
            out.unexpected += 1;
            "ERROR"
        }
    };
    row("ratchet", ios, ms, verdict, table);
    ctx.set_mem_budget(full);
}

/// Audit one serve ticket against the permutation oracle (rank `r` ↦ `r`).
fn audit_ticket(
    t: Ticket<u64>,
    ranks: &[u64],
    out: &mut SqueezeOutcome,
    exact: &mut u64,
    degraded: &mut u64,
) {
    match t.wait_timeout(HANG_TIMEOUT) {
        Ok(a) if a.approx => {
            *degraded += 1;
            for (&r, &v) in ranks.iter().zip(&a.values) {
                if v.abs_diff(r) > a.rank_error {
                    out.serve_failures += 1;
                }
            }
        }
        Ok(a) => {
            *exact += 1;
            if a.values != ranks {
                out.mismatches += 1;
            }
        }
        Err(_) => out.serve_failures += 1,
    }
}

/// The multi-tenant starvation cell: three leased datasets on one strict
/// context, a governor squeeze plus a rival charge pinning the remainder,
/// and a wave of queries that must all resolve — degraded, not errored.
fn serve_cell(n: u64, table: &mut Table, out: &mut SqueezeOutcome) {
    let config = EmConfig::medium();
    let ctx = EmContext::new_in_memory_strict(config);
    let full = config.mem_capacity();
    let mut server = QueryServer::<u64>::start(
        &ctx,
        ServeOptions {
            degraded: true,
            // Refinement keeps the skeleton warm: every exact batch adds
            // boundaries, which is what a starved tenant's degraded
            // answers are made of.
            refine: true,
            lease_floor: 512,
            lease_weight: 1,
            ..Default::default()
        },
    )
    .expect("server start");
    let client = server.client().expect("server running");

    let tenants = ["tenant-a", "tenant-b", "tenant-c"];
    let warm: Vec<u64> = (1..5).map(|i| i * n / 5).collect();
    for (i, t) in tenants.iter().enumerate() {
        let mut data: Vec<u64> = (1..=n).collect();
        SplitMix64::new(SEED + i as u64).shuffle(&mut data);
        client.register(t, data).expect("register tenant");
        // Warm the skeleton so degraded answers exist under starvation.
        let tk = client.query(t, warm.clone()).expect("submit warm");
        audit_ticket(tk, &warm, out, &mut 0, &mut 0);
    }

    // Each wave asks *fresh* ranks (salted by wave index): a repeated rank
    // is a stored-boundary hit the index answers exactly at zero I/O, which
    // would mask starvation instead of demonstrating the degraded path.
    let wave =
        |salt: u64, label: &str, out: &mut SqueezeOutcome, table: &mut Table| -> (u64, u64) {
            out.cells += 1;
            let (mut exact, mut degraded) = (0u64, 0u64);
            let t0 = Instant::now();
            for (i, t) in tenants.iter().enumerate() {
                for q in 0..4u64 {
                    let ranks = vec![1 + (q * 877 + i as u64 * 131 + salt * 397) % n];
                    let tk = client.query(t, ranks.clone()).expect("submit");
                    audit_ticket(tk, &ranks, out, &mut exact, &mut degraded);
                }
            }
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            table.row(vec![
                "serve".into(),
                "memory".into(),
                label.into(),
                format!("exact={exact}"),
                format!("{ms:.1}"),
                format!("degraded={degraded}"),
            ]);
            (exact, degraded)
        };

    // Full budget: everything exact.
    let (exact0, _) = wave(1, "full", out, table);
    if exact0 != 12 {
        out.serve_failures += 1;
    }

    // Squeeze `M` to an eighth and let a rival pin all but a sliver —
    // less than one block stays free, so every exact pass is starved.
    ctx.set_mem_budget(full / 8);
    let sliver = config.block_size() / 2;
    let rival = ctx
        .mem()
        .try_charge(ctx.mem().available().saturating_sub(sliver), "rival tenant")
        .expect("rival admission");
    let (_, degraded1) = wave(2, "starved", out, table);
    if degraded1 == 0 {
        // Guaranteed starvation must surface as degraded answers.
        out.serve_failures += 1;
    }

    // Lift the squeeze: exact service resumes on the same server.
    drop(rival);
    ctx.set_mem_budget(full);
    let (exact2, _) = wave(3, "restored", out, table);
    if exact2 != 12 {
        out.serve_failures += 1;
    }

    // The request channel must fully disconnect before shutdown joins the
    // scheduler: any live client sender keeps it serving.
    drop(client);
    let report = server.shutdown().expect("shutdown");
    out.mem_degraded += report.mem_degraded;
    if report.mem_degraded == 0 || report.failed > 0 {
        out.serve_failures += 1;
    }
    if report.leases != tenants.len() as u64
        || report.lease_floor_words != 512 * tenants.len() as u64
    {
        out.serve_failures += 1;
    }
    table.note(format!(
        "serve: {} queries, {} degraded on memory, {} failed; {} leases holding {} floor words",
        report.queries, report.mem_degraded, report.failed, report.leases, report.lease_floor_words
    ));
}

/// EX-SQUEEZE: the degradation curve, the mid-run ratchet and the
/// multi-tenant starvation cell as one table.
pub fn ex_squeeze(scale: Scale) -> Table {
    let n = match scale {
        Scale::Quick => 40_000,
        Scale::Full => 400_000,
    };
    let n_serve = match scale {
        Scale::Quick => 8_000,
        Scale::Full => 40_000,
    };
    let mut table = Table::new(
        "EX-SQUEEZE",
        "memory-squeeze campaign: digest-invariant degradation under a shrinking M",
        &["cell", "backend", "budget", "ios", "ms", "verdict"],
    );
    let mut out = SqueezeOutcome::default();
    for algo in [Algo::Sort, Algo::MultiSelect, Algo::Partition] {
        for backend in [Backend::Memory, Backend::Disk] {
            squeeze_cell(algo, backend, n, &mut table, &mut out);
        }
    }
    serve_cell(n_serve, &mut table, &mut out);
    table.note(format!(
        "{} cells: {} mismatches, {} unexpected rejections, {} allowed strict ratchet rejections, \
         {} non-monotone curves, {} serve failures, {} memory-degraded answers",
        out.cells,
        out.mismatches,
        out.unexpected,
        out.allowed_rejections,
        out.non_monotone,
        out.serve_failures,
        out.mem_degraded
    ));
    if !out.clean() {
        table.failed += 1;
        eprintln!("[EX-SQUEEZE] contract broken: {out:?}");
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_campaign_is_clean() {
        let table = ex_squeeze(Scale::Quick);
        // Clean includes "the starved tenant was answered degraded".
        assert_eq!(table.failed, 0, "{}", table.to_markdown());
        // 3 algos × 2 backends × (4 static + 1 ratchet) + 3 serve waves,
        // one row per cell.
        assert_eq!(table.rows.len(), 33);
    }
}
