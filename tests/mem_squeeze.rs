//! Mid-run memory-squeeze invariants (PR 7, EX-SQUEEZE contract):
//!
//! 1. **Digest invariance** — sort, multi-select, and approximate
//!    partitioning produce answers bit-identical to a fixed-`M` oracle
//!    while the governor ratchets the live budget down and back up, on
//!    both backends. A squeeze may change run lengths, merge fan-in, and
//!    distribution fan-out — never the output.
//! 2. **No panics, typed errors only** — strict-mode squeezes surface as
//!    [`EmError::MemoryExceeded`] at worst; every test here runs strict
//!    where the backend allows it.
//! 3. **Bounded rework** — a squeeze inside a crash-recoverable job that
//!    is then killed and resumed redoes at most one work unit.

use em_splitters::prelude::*;
use emcore::SplitMix64;
use emsort::SortManifest;

fn shuffled(n: u64, seed: u64) -> Vec<u64> {
    let mut v: Vec<u64> = (1..=n).collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..v.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

fn fnv(data: &[u64]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &x in data {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// The two backends: strict in-memory (budget violations reject) and
/// lenient on-disk (violations only recorded; sizing still adapts).
fn backends() -> Vec<EmContext> {
    let cfg = EmConfig::new(256, 16).unwrap();
    vec![
        EmContext::new_in_memory_strict(cfg),
        EmContext::new_on_disk_temp(cfg).unwrap(),
    ]
}

/// Ratchet the budget along `schedule` (words) with short sleeps in
/// between, ending back at the full configured budget.
fn ratchet(ctx: &EmContext, schedule: &[usize]) -> std::thread::JoinHandle<()> {
    let full = ctx.config().mem_capacity();
    let ctx = ctx.clone();
    let schedule = schedule.to_vec();
    std::thread::spawn(move || {
        for w in schedule {
            std::thread::sleep(std::time::Duration::from_millis(2));
            ctx.set_mem_budget(w);
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
        ctx.set_mem_budget(full);
    })
}

#[test]
fn sort_digest_invariant_under_static_squeeze_both_backends() {
    let n = 5_000u64;
    let data = shuffled(n, 11);
    let mut want = data.clone();
    want.sort_unstable();
    let oracle = fnv(&want);

    for ctx in backends() {
        let full = ctx.config().mem_capacity();
        for budget in [full, full / 2, full / 4, 3 * full / 4] {
            ctx.set_mem_budget(budget);
            let f = ctx
                .stats()
                .paused(|| EmFile::from_slice(&ctx, &data))
                .unwrap();
            let sorted = external_sort(&f).unwrap();
            let out = ctx.oracle(|| sorted.to_vec()).unwrap();
            assert_eq!(fnv(&out), oracle, "budget={budget}");
        }
        ctx.set_mem_budget(full);
    }
}

#[test]
fn sort_digest_invariant_under_midrun_ratchet() {
    let n = 30_000u64;
    let data = shuffled(n, 23);
    let mut want = data.clone();
    want.sort_unstable();
    let oracle = fnv(&want);

    for ctx in backends() {
        let full = ctx.config().mem_capacity();
        let f = ctx
            .stats()
            .paused(|| EmFile::from_slice(&ctx, &data))
            .unwrap();
        let h = ratchet(&ctx, &[full / 2, full / 4, full / 2]);
        let sorted = external_sort(&f).unwrap();
        h.join().unwrap();
        let out = ctx.oracle(|| sorted.to_vec()).unwrap();
        assert_eq!(fnv(&out), oracle);
        assert_eq!(ctx.mem_budget(), full, "budget restored after the run");
    }
}

#[test]
fn multi_select_answers_invariant_under_squeeze() {
    let n = 4_000u64;
    let data = shuffled(n, 31);
    let ranks = [1u64, 7, n / 3, n / 2, n - 1, n];

    for ctx in backends() {
        let full = ctx.config().mem_capacity();
        let f = ctx
            .stats()
            .paused(|| EmFile::from_slice(&ctx, &data))
            .unwrap();
        let oracle = multi_select(&f, &ranks).unwrap();
        assert_eq!(oracle, ranks.to_vec());

        // Static squeezes: the per-pass splitter count / fan-out narrows,
        // the answers must not move.
        for budget in [full / 2, full / 4] {
            ctx.set_mem_budget(budget);
            assert_eq!(multi_select(&f, &ranks).unwrap(), oracle, "budget={budget}");
        }
        ctx.set_mem_budget(full);

        // Mid-run ratchet (lenient backend only: selection allocates
        // mid-phase, so a strict mid-run squeeze may — correctly — reject
        // with a typed error rather than adapt).
        if !ctx.mem().is_strict() {
            let h = ratchet(&ctx, &[full / 2, full / 4]);
            for _ in 0..10 {
                assert_eq!(multi_select(&f, &ranks).unwrap(), oracle);
            }
            h.join().unwrap();
        }
    }
}

#[test]
fn apsplit_partitioning_valid_under_squeeze() {
    let n = 4_000u64;
    let data = shuffled(n, 47);

    for ctx in backends() {
        let full = ctx.config().mem_capacity();
        let f = ctx
            .stats()
            .paused(|| EmFile::from_slice(&ctx, &data))
            .unwrap();
        let spec = ProblemSpec::new(n, 8, 100, n).unwrap();

        let oracle_parts = approx_partitioning(&f, &spec).unwrap();
        assert!(verify_partitioning(&oracle_parts, &spec).unwrap().ok);
        let oracle_sizes: Vec<u64> = oracle_parts.iter().map(|p| p.len()).collect();

        // Half budget: the recursion frontier narrows, the output must
        // still verify against the spec.
        ctx.set_mem_budget(full / 2);
        let parts = approx_partitioning(&f, &spec).unwrap();
        let rep = verify_partitioning(&parts, &spec).unwrap();
        assert!(rep.ok, "budget={}: {rep:?}", full / 2);

        // Quarter budget (M = 4B) is below the algorithm's feasibility
        // floor (it needs several concurrent block buffers plus resident
        // splitters). The contract is a *typed* rejection — never a
        // panic; on the lenient backend it must still produce a valid
        // partitioning.
        ctx.set_mem_budget(full / 4);
        match approx_partitioning(&f, &spec) {
            Ok(parts) => {
                assert!(verify_partitioning(&parts, &spec).unwrap().ok);
            }
            Err(EmError::MemoryExceeded { .. }) => {
                assert!(ctx.mem().is_strict(), "lenient backend must not reject");
            }
            Err(e) => panic!("expected MemoryExceeded, got {e}"),
        }
        ctx.set_mem_budget(full);
        let again = approx_partitioning(&f, &spec).unwrap();
        assert_eq!(
            again.iter().map(|p| p.len()).collect::<Vec<_>>(),
            oracle_sizes,
            "restored budget reproduces the oracle partitioning"
        );
    }
}

#[test]
fn strict_starvation_is_a_typed_error_not_a_panic() {
    let ctx = EmContext::new_in_memory_strict(EmConfig::new(256, 16).unwrap());
    let data = shuffled(2_000, 5);
    let f = ctx
        .stats()
        .paused(|| EmFile::from_slice(&ctx, &data))
        .unwrap();

    // Pin most of the budget from a rival tenant, then ask for a sort:
    // it must come back as MemoryExceeded, never abort.
    let _rival = ctx.mem().try_charge(240, "rival tenant").unwrap();
    match external_sort(&f) {
        Err(EmError::MemoryExceeded { .. }) => {}
        Ok(_) => {
            // Also legal: the floor-sized (one block per buffer) degraded
            // path squeaked through. Either way: no panic.
        }
        Err(e) => panic!("expected MemoryExceeded, got {e}"),
    }
    drop(_rival);
    // With the rival gone the same context sorts fine.
    let sorted = external_sort(&f).unwrap();
    let mut want = data.clone();
    want.sort_unstable();
    assert_eq!(ctx.oracle(|| sorted.to_vec()).unwrap(), want);
}

#[test]
fn squeeze_inside_killed_job_resumes_with_bounded_rework() {
    let n = 2_000u64;
    let data = shuffled(n, 13);
    let mut want = data.clone();
    want.sort_unstable();

    // Oracle I/O cost of an unsqueezed, fault-free recoverable sort.
    let clean = EmContext::new_in_memory(EmConfig::new(256, 16).unwrap());
    let cf = clean
        .stats()
        .paused(|| EmFile::from_slice(&clean, &data))
        .unwrap();
    let mut cm = SortManifest::new(&clean, None);
    run_recoverable(&clean, &mut SortJob::new(&cf, &mut cm)).unwrap();
    let clean_ios = clean.stats().snapshot().total_ios();

    let ctx = EmContext::new_in_memory(EmConfig::new(256, 16).unwrap());
    let full = ctx.config().mem_capacity();
    let f = ctx
        .stats()
        .paused(|| EmFile::from_slice(&ctx, &data))
        .unwrap();

    // Squeeze mid-formation, then kill the job with a fatal fault.
    ctx.set_mem_budget(full / 4);
    let plan = FaultPlan::new(0).fatal_at(60);
    ctx.install_fault_plan(plan.clone());
    let mut manifest = SortManifest::new(&ctx, None);
    let first = run_recoverable(&ctx, &mut SortJob::new(&f, &mut manifest));
    assert!(matches!(first, Err(EmError::Crashed)), "got {first:?}");

    // Restore the budget and resume: completed units stay done (smaller,
    // squeezed runs are fine — the merge takes any run lengths), only the
    // interrupted unit is redone.
    plan.clear_crash();
    ctx.set_mem_budget(full);
    let sorted = run_recoverable(&ctx, &mut SortJob::new(&f, &mut manifest)).unwrap();
    assert_eq!(ctx.oracle(|| sorted.to_vec()).unwrap(), want);

    // Rework bound: squeezing to M/4 shrinks units, so the redone unit is
    // *smaller* than an unsqueezed one; total I/O stays within the clean
    // cost plus one full-size unit plus the squeezed formation overhead
    // (more, shorter runs => a few extra positioning reads and merge I/Os
    // for up to 4x as many runs).
    let total = ctx.stats().snapshot().total_ios();
    let unit_bound = 2 * n.div_ceil(16) + 2;
    assert!(
        total <= clean_ios + unit_bound + clean_ios,
        "{total} I/Os vs clean {clean_ios} + unit {unit_bound}"
    );
}

#[test]
fn governor_lease_fairness_under_contention() {
    let ctx = EmContext::new_in_memory_strict(EmConfig::new(4096, 16).unwrap());
    let gov = ctx.governor().clone();
    let a = gov.lease("tenant-a", 512, 3).unwrap();
    let b = gov.lease("tenant-b", 512, 1).unwrap();

    // Weighted fair shares: floor + weight-proportional surplus.
    let surplus = 4096 - 1024;
    assert_eq!(a.granted(), 512 + surplus * 3 / 4);
    assert_eq!(b.granted(), 512 + surplus / 4);

    // Squeeze: floors hold, surplus shrinks proportionally.
    ctx.set_mem_budget(2048);
    assert_eq!(a.granted(), 512 + 1024 * 3 / 4);
    assert_eq!(b.granted(), 512 + 1024 / 4);
    assert!(a.granted() + b.granted() <= 2048);

    // Admission control: a floor that no longer fits is denied, typed.
    match gov.lease("tenant-c", 2000, 1) {
        Err(EmError::MemoryExceeded { .. }) => {}
        other => panic!("expected admission denial, got {other:?}"),
    }
    ctx.set_mem_budget(4096);
    assert_eq!(gov.snapshot().denials, 1);
}
