//! Property tests for the fault-injection + recovery subsystem (seeded
//! deterministic loops; the workspace builds offline with no proptest).
//!
//! The three contracted properties of the crash-recoverable sort (the
//! multi-selection, partitioning and clustering sweeps below check the
//! same redo bound for the other recoverable jobs):
//!
//! 1. **Fault-schedule equivalence** — under any seeded fault schedule
//!    whose transients eventually succeed, the sorted output is identical
//!    to the fault-free run's.
//! 2. **Exact retry accounting** — `IoStats.retries` equals the number of
//!    injected transient faults, on both backends.
//! 3. **Bounded redo** — crash at *any* I/O index, then resume: the total
//!    I/O spent never exceeds the fault-free cost by more than one work
//!    unit (the largest single run formation or merge group).

use em_splitters::prelude::*;
use emcore::{EmError, FaultKind, FaultPlan, FaultSpec, InputId, RetryPolicy, SplitMix64, Trigger};
use emselect::{multi_select_recoverable, MsOptions, MultiSelectJob, MultiSelectManifest};
use emsort::{external_sort_recoverable, SortJob, SortManifest};

use apsplit::{approx_partitioning_recoverable, PartitionJob, PartitionManifest};

fn shuffled(n: u64, seed: u64) -> Vec<u64> {
    let mut v: Vec<u64> = (0..n).collect();
    SplitMix64::new(seed).shuffle(&mut v);
    v
}

/// Fault-free reference: same data, same config, no plan.
fn clean_sort(data: &[u64]) -> (Vec<u64>, u64) {
    let c = EmContext::new_in_memory(EmConfig::tiny());
    let f = c.stats().paused(|| EmFile::from_slice(&c, data)).unwrap();
    let out = external_sort_recoverable(&f).unwrap();
    let v = c.stats().paused(|| out.to_vec()).unwrap();
    (v, c.stats().snapshot().total_ios())
}

#[test]
fn any_recoverable_schedule_yields_identical_output_memory() {
    let mut master = SplitMix64::new(0xabcd_0001);
    for case in 0..24 {
        let n = 500 + master.below(2500);
        let data = shuffled(n, master.next_u64());
        let (want, _) = clean_sort(&data);

        let rate = 0.01 + master.unit() * 0.2; // up to heavy fault pressure
        let plan_seed = master.next_u64();
        let c = EmContext::new_in_memory(EmConfig::tiny());
        let plan = FaultPlan::new(plan_seed).transient_rate(rate);
        c.install_fault_plan(plan.clone());
        // Enough attempts that rate < 0.21 cannot exhaust them.
        c.set_retry_policy(RetryPolicy::retries(30));
        let f = c.oracle(|| EmFile::from_slice(&c, &data)).unwrap();

        let sorted = external_sort_recoverable(&f).unwrap();
        let got = c.oracle(|| sorted.to_vec()).unwrap();
        assert_eq!(got, want, "case {case}: n={n} rate={rate:.3}");

        let stats = c.stats().snapshot();
        assert_eq!(
            stats.retries,
            plan.injected().transient_total(),
            "case {case}: retries must equal injected transients"
        );
    }
}

#[test]
fn any_recoverable_schedule_yields_identical_output_disk() {
    let mut master = SplitMix64::new(0xabcd_0002);
    for case in 0..6 {
        let n = 400 + master.below(1600);
        let data = shuffled(n, master.next_u64());
        let (want, _) = clean_sort(&data);

        let rate = 0.02 + master.unit() * 0.1;
        let c = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        let plan = FaultPlan::new(master.next_u64()).transient_rate(rate);
        c.install_fault_plan(plan.clone());
        c.set_retry_policy(RetryPolicy::retries(30));
        let f = c.oracle(|| EmFile::from_slice(&c, &data)).unwrap();

        let sorted = external_sort_recoverable(&f).unwrap();
        let got = c.oracle(|| sorted.to_vec()).unwrap();
        assert_eq!(got, want, "case {case}: n={n} rate={rate:.3}");
        assert_eq!(
            c.stats().snapshot().retries,
            plan.injected().transient_total(),
            "case {case}"
        );
    }
}

#[test]
fn crash_at_any_io_plus_resume_bounds_redone_work() {
    // Exhaustive sweep: crash the sort at every possible I/O index, resume,
    // and check (a) the output is correct and (b) the redone work stays
    // under one work-unit of I/O.
    let n: u64 = 1000;
    let data = shuffled(n, 7);
    let (want, clean_ios) = clean_sort(&data);

    // Work-unit bound at EmConfig::tiny() for u64: run formation handles
    // cap = M − 2B = 224 records (14 blocks read + 14 written + 1
    // positioning read); a merge group re-reads and re-writes at most all
    // its input runs — here a single group of ceil(1000/224) = 5 runs,
    // i.e. the whole file: 63 reads + 63 writes. The largest unit is the
    // merge group.
    let unit_bound = 2 * n.div_ceil(16) + 2;

    for crash_at in 0..clean_ios {
        let c = EmContext::new_in_memory(EmConfig::tiny());
        let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let plan = FaultPlan::new(0).fatal_at(crash_at);
        c.install_fault_plan(plan.clone());

        let mut manifest = SortManifest::new(&c, None);
        let first = run_recoverable(&c, &mut SortJob::new(&f, &mut manifest));
        assert!(
            matches!(first, Err(EmError::Crashed)),
            "crash_at={crash_at}: expected a crash"
        );
        plan.clear_crash();
        let sorted = run_recoverable(&c, &mut SortJob::new(&f, &mut manifest)).unwrap();
        assert_eq!(
            c.oracle(|| sorted.to_vec()).unwrap(),
            want,
            "crash_at={crash_at}"
        );

        let total = c.stats().snapshot().total_ios();
        assert!(
            total <= clean_ios + unit_bound,
            "crash_at={crash_at}: {total} I/Os vs fault-free {clean_ios} + unit bound {unit_bound}"
        );
    }
}

#[test]
fn repeated_crashes_still_converge() {
    // Crash the sort several times at spread-out attempt indices, clearing
    // and resuming each time: the checkpoint structure must make monotone
    // progress and finish. (Crashes cannot recur *faster* than a work unit
    // completes — checkpoints are per run / per merge group, so a crash
    // period below one unit's I/O cost livelocks by construction. The
    // fault-plan attempt counter keeps advancing across resumes, so these
    // indices land in distinct resume episodes.)
    let n: u64 = 1500;
    let data = shuffled(n, 99);
    let (want, _) = clean_sort(&data);

    let c = EmContext::new_in_memory(EmConfig::tiny());
    let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
    let plan = FaultPlan::new(0)
        .fatal_at(50)
        .fatal_at(150)
        .fatal_at(300)
        .fatal_at(520);
    c.install_fault_plan(plan.clone());

    let mut manifest = SortManifest::new(&c, None);
    let mut crashes = 0;
    let sorted = loop {
        match run_recoverable(&c, &mut SortJob::new(&f, &mut manifest)) {
            Ok(out) => break out,
            Err(EmError::Crashed) => {
                crashes += 1;
                assert!(
                    crashes < 1000,
                    "sort does not converge under periodic crashes"
                );
                plan.clear_crash();
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    };
    assert!(
        crashes >= 2,
        "the schedule should actually interrupt the sort"
    );
    assert_eq!(c.oracle(|| sorted.to_vec()).unwrap(), want);
}

/// A seeded non-fatal fault plan mixing transient reads/writes, torn
/// writes, and (disk-detectable) in-flight read corruption.
fn noisy_plan(seed: u64, rate: f64) -> FaultPlan {
    FaultPlan::new(seed).transient_rate(rate).with(FaultSpec {
        trigger: Trigger::Rate(rate / 2.0),
        kind: FaultKind::TornWrite,
    })
}

#[test]
fn multi_select_under_transient_faults_matches_fault_free() {
    let mut master = SplitMix64::new(0xabcd_0003);
    for case in 0..12 {
        let n = 600 + master.below(2400);
        let data = shuffled(n, master.next_u64());
        let ranks: Vec<u64> = (1..=8).map(|i| i * n / 8).filter(|&r| r > 0).collect();

        // Fault-free reference (plain, non-recoverable algorithm).
        let want: Vec<u64> = {
            let c = EmContext::new_in_memory(EmConfig::tiny());
            let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
            multi_select(&f, &ranks).unwrap()
        };

        let rate = 0.01 + master.unit() * 0.1;
        let c = EmContext::new_in_memory(EmConfig::tiny());
        let plan = noisy_plan(master.next_u64(), rate);
        c.install_fault_plan(plan.clone());
        c.set_retry_policy(RetryPolicy::retries(30));
        let f = c.oracle(|| EmFile::from_slice(&c, &data)).unwrap();

        let got = multi_select_recoverable(&f, &ranks).unwrap();
        assert_eq!(got, want, "case {case}: n={n} rate={rate:.3}");

        let stats = c.stats().snapshot();
        assert_eq!(
            stats.retries,
            plan.injected().transient_total(),
            "case {case}: retries must equal injected transients (incl. torn)"
        );
        assert!(stats.journal_writes > 0, "case {case}");
        assert_eq!(stats.redone_ios, 0, "case {case}: no crash, no redo");
    }
}

#[test]
fn partitioning_under_transient_faults_matches_fault_free() {
    let mut master = SplitMix64::new(0xabcd_0004);
    for case in 0..8 {
        let n = 800 + master.below(2400);
        let data = shuffled(n, master.next_u64());
        let spec = ProblemSpec::new(n, 8, n / 10, n / 2).unwrap();

        // Fault-free recoverable reference (the recoverable path's sizes
        // are its own contract; compare like with like).
        let want: Vec<Vec<u64>> = {
            let c = EmContext::new_in_memory(EmConfig::tiny());
            let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
            let parts = approx_partitioning_recoverable(&f, &spec).unwrap();
            parts.iter().map(|p| p.to_vec().unwrap()).collect()
        };

        let rate = 0.01 + master.unit() * 0.08;
        let c = EmContext::new_in_memory(EmConfig::tiny());
        let plan = noisy_plan(master.next_u64(), rate);
        c.install_fault_plan(plan.clone());
        c.set_retry_policy(RetryPolicy::retries(30));
        let f = c.oracle(|| EmFile::from_slice(&c, &data)).unwrap();

        let parts = approx_partitioning_recoverable(&f, &spec).unwrap();
        let got: Vec<Vec<u64>> = c
            .oracle(|| parts.iter().map(|p| p.to_vec()).collect::<Result<_>>())
            .unwrap();
        assert_eq!(got, want, "case {case}: n={n} rate={rate:.3}");
        assert_eq!(
            c.stats().snapshot().retries,
            plan.injected().transient_total(),
            "case {case}"
        );
    }
}

#[test]
fn corrupt_reads_on_disk_surface_and_are_accounted() {
    // In-flight read corruption on the disk backend is caught by the block
    // checksum and cured by retry (the device payload is intact): output
    // stays correct and every detection is accounted in corrupt_reads.
    let c = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
    let data = shuffled(1200, 31);
    let f = c.oracle(|| EmFile::from_slice(&c, &data)).unwrap();
    let plan = FaultPlan::new(77).with(FaultSpec {
        trigger: Trigger::Rate(0.01),
        kind: FaultKind::CorruptRead,
    });
    c.install_fault_plan(plan.clone());
    c.set_retry_policy(RetryPolicy::retries(10));
    let ranks = [300, 600, 900];
    let got = multi_select_recoverable(&f, &ranks).unwrap();
    assert_eq!(got, vec![299, 599, 899]);
    let stats = c.stats().snapshot();
    assert_eq!(
        stats.corrupt_reads,
        plan.injected().corrupt_reads,
        "every injected read corruption must be detected and counted"
    );
}

/// Count fault-plan device attempts of one fault-free recoverable run
/// (the crash-index space for the sweeps below). The plan is installed
/// *after* the input is materialised, exactly as in the crash runs, so
/// indices line up.
fn count_attempts(data: &[u64], run: impl FnOnce(&EmContext, &EmFile<u64>)) -> u64 {
    let c = EmContext::new_in_memory(EmConfig::tiny());
    let f = c.stats().paused(|| EmFile::from_slice(&c, data)).unwrap();
    let plan = FaultPlan::new(0);
    c.install_fault_plan(plan.clone());
    run(&c, &f);
    plan.attempts()
}

#[test]
fn multi_select_crash_sweep_exhaustive() {
    let n: u64 = 500;
    let data = shuffled(n, 17);
    let ranks: Vec<u64> = vec![50, 125, 250, 375, 450, 499];
    let opts = MsOptions {
        base_capacity_override: Some(2), // many groups → many work units
        ..MsOptions::default()
    };
    let want: Vec<u64> = ranks.iter().map(|&r| r - 1).collect();

    let attempts = count_attempts(&data, |_, f| {
        let mut m = MultiSelectManifest::new(f, &ranks, opts).unwrap();
        assert_eq!(
            run_recoverable(f.ctx(), &mut MultiSelectJob::new(f, &mut m)).unwrap(),
            want
        );
    });

    for crash_at in 0..attempts {
        let c = EmContext::new_in_memory(EmConfig::tiny());
        let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let plan = FaultPlan::new(0).fatal_at(crash_at);
        c.install_fault_plan(plan.clone());
        let mut m = MultiSelectManifest::new(&f, &ranks, opts).unwrap();
        assert!(
            matches!(
                run_recoverable(&c, &mut MultiSelectJob::new(&f, &mut m)),
                Err(EmError::Crashed)
            ),
            "crash_at={crash_at}: expected a crash"
        );
        plan.clear_crash();
        let got = run_recoverable(&c, &mut MultiSelectJob::new(&f, &mut m)).unwrap();
        assert_eq!(got, want, "crash_at={crash_at}");
        let stats = c.stats().snapshot();
        assert!(
            stats.redone_ios <= m.ledger().max_unit_ios(),
            "crash_at={crash_at}: redone {} vs unit bound {}",
            stats.redone_ios,
            m.ledger().max_unit_ios()
        );
    }
}

#[test]
fn partitioning_crash_sweep_exhaustive() {
    let n: u64 = 600;
    let data = shuffled(n, 19);
    let spec = ProblemSpec::new(n, 6, 60, 300).unwrap();

    let want: Vec<Vec<u64>> = {
        let c = EmContext::new_in_memory(EmConfig::tiny());
        let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let parts = approx_partitioning_recoverable(&f, &spec).unwrap();
        parts.iter().map(|p| p.to_vec().unwrap()).collect()
    };
    let attempts = count_attempts(&data, |_, f| {
        approx_partitioning_recoverable(f, &spec).unwrap();
    });

    for crash_at in 0..attempts {
        let c = EmContext::new_in_memory(EmConfig::tiny());
        let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let plan = FaultPlan::new(0).fatal_at(crash_at);
        c.install_fault_plan(plan.clone());
        let mut m = PartitionManifest::new(&f, &spec).unwrap();
        assert!(
            matches!(
                run_recoverable(&c, &mut PartitionJob::new(&f, &mut m)),
                Err(EmError::Crashed)
            ),
            "crash_at={crash_at}: expected a crash"
        );
        plan.clear_crash();
        let parts = run_recoverable(&c, &mut PartitionJob::new(&f, &mut m)).unwrap();
        let got: Vec<Vec<u64>> = c
            .oracle(|| parts.iter().map(|p| p.to_vec()).collect::<Result<_>>())
            .unwrap();
        assert_eq!(got, want, "crash_at={crash_at}");
        let stats = c.stats().snapshot();
        assert!(
            stats.redone_ios <= m.ledger().max_unit_ios(),
            "crash_at={crash_at}: redone {} vs unit bound {}",
            stats.redone_ios,
            m.ledger().max_unit_ios()
        );
    }
}

/// Files in the block store outside `live`, slots they do not hold, plus
/// stale journal temp files.
fn orphans_on_disk(c: &EmContext, live: &[u64]) -> usize {
    let stray = c.list_file_ids().unwrap();
    let stray = stray.iter().filter(|id| !live.contains(id)).count();
    let stray = stray + c.slot_usage(live).leaked() as usize;
    let tmp = std::fs::read_dir(c.backing_dir().unwrap())
        .unwrap()
        .filter(|e| {
            let name = e.as_ref().unwrap().file_name();
            name.to_string_lossy().ends_with(".journal.tmp")
        })
        .count();
    stray + tmp
}

#[test]
fn cluster_crash_sweep_exhaustive() {
    cluster_crash_sweep(&rmat_edges(4, 40, 7));
}

#[test]
fn windowed_cluster_crash_sweep_exhaustive() {
    // 250 vertices at `EmConfig::tiny()`: every round after the first runs
    // three windows, and the passes before the last forward the edges past
    // their window, so the sweep crashes inside window passes, forward
    // files, runs and drains.
    let pairs = rmat_edges(8, 600, 7);
    let c = EmContext::new_in_memory(EmConfig::tiny());
    let ring = RingSink::new(0);
    c.set_trace_sink(Box::new(ring.clone()));
    let raw = edges_from_pairs(&c, &pairs).unwrap();
    let g = build_graph(&c, &raw, &BuildOptions::default()).unwrap();
    cluster(
        &g,
        &ClusterOptions {
            rounds: 3,
            max_cluster_size: 0,
        },
    )
    .unwrap();
    let report = TraceReport::from_events(&ring.events());
    let windows: Vec<_> = report
        .spans
        .iter()
        .filter(|s| s.name.starts_with("graph/window#"))
        .collect();
    assert!(
        windows.iter().any(|s| s.name == "graph/window#2"),
        "three windows"
    );
    // A pass after the first that reads fewer blocks than the edge file
    // streams a forward file.
    let edge_blocks = g.edges().num_blocks();
    assert!(windows
        .iter()
        .any(|s| s.name != "graph/window#0" && s.delta.reads < edge_blocks));
    cluster_crash_sweep(&pairs);
}

/// Crash a three-round clustering of `pairs` at every device attempt of
/// the fault-free run on disk: each crash resumes once, reproduces the
/// digest, redoes no more than the largest work unit and leaks no slot.
fn cluster_crash_sweep(pairs: &[(u64, u64)]) {
    let opts = ClusterOptions {
        rounds: 3,
        max_cluster_size: 0,
    };
    // Build the graph, then install the plan: crash indices count only the
    // clustering's own device attempts.
    let setup = |plan: &FaultPlan| {
        let c = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        let raw = edges_from_pairs(&c, pairs).unwrap();
        let g = build_graph(&c, &raw, &BuildOptions::default()).unwrap();
        c.install_fault_plan(plan.clone());
        (c, raw, g)
    };
    let clean = FaultPlan::new(0);
    let want = {
        let (c, _raw, g) = setup(&clean);
        let out = cluster(&g, &opts).unwrap();
        c.oracle(|| labels_digest(&out.labels)).unwrap()
    };
    let attempts = clean.attempts();
    assert!(attempts > 0);

    for crash_at in 0..attempts {
        let plan = FaultPlan::new(0).fatal_at(crash_at);
        let (c, raw, g) = setup(&plan);
        let mut m = ClusterManifest::new(&c, &opts);
        let mut resumes = 0;
        let got = loop {
            match run_recoverable(&c, &mut ClusterJob::new(&g, &mut m)) {
                Ok(out) => break out,
                Err(EmError::Crashed) => {
                    resumes += 1;
                    assert!(resumes < 10, "crash_at={crash_at}: crash loop");
                    plan.clear_crash();
                }
                Err(e) => panic!("crash_at={crash_at}: unexpected error: {e}"),
            }
        };
        assert_eq!(resumes, 1, "crash_at={crash_at}");
        let digest = c.oracle(|| labels_digest(&got.labels)).unwrap();
        assert_eq!(digest, want, "crash_at={crash_at}");
        let redone = c.stats().snapshot().redone_ios;
        assert!(
            redone <= m.ledger().max_unit_ios(),
            "crash_at={crash_at}: redone {redone} vs unit bound {}",
            m.ledger().max_unit_ios()
        );
        let live = [raw.id(), g.edges().id(), g.offsets().id(), got.labels.id()];
        assert_eq!(orphans_on_disk(&c, &live), 0, "crash_at={crash_at}");
    }
}

#[test]
fn sort_manifest_survives_process_restart_on_disk() {
    // Cross-process resume: crash a sort backed by a *fixed* directory,
    // drop every handle (simulating process death), reopen the directory
    // in a brand-new context, load the manifest from its journal, and
    // finish the sort. A planted orphan file in the block store, a slot
    // cut short at the store's end and a stale journal temp file must be
    // garbage-collected (or ignored) by the load.
    let mut dir = std::env::temp_dir();
    dir.push(format!("em-splitters-xproc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let n: u64 = 1200;
    let data = shuffled(n, 23);
    let mut want = data.clone();
    want.sort_unstable();

    // Phase 1: first "process" — crash mid-sort, after some checkpoints.
    let attempts = count_attempts(&data, |_, f| {
        external_sort_recoverable(f).unwrap();
    });
    let input_identity = {
        let c1 = EmContext::new_on_disk(EmConfig::tiny(), &dir).unwrap();
        let f = c1
            .stats()
            .paused(|| EmFile::from_slice(&c1, &data))
            .unwrap();
        f.set_persistent(true); // the input outlives this "process"
        let plan = FaultPlan::new(0).fatal_at(attempts * 2 / 3);
        c1.install_fault_plan(plan.clone());
        let mut m = SortManifest::new(&c1, None);
        assert!(matches!(
            run_recoverable(&c1, &mut SortJob::new(&f, &mut m)),
            Err(EmError::Crashed)
        ));
        assert!(
            m.ledger().checkpoints() > 0,
            "crash landed after checkpoints"
        );
        InputId::of(&f)
        // c1, f, m all drop here: the "process" dies.
    };
    assert!(
        dir.join("sort-manifest.journal").exists(),
        "journal must survive the first process"
    );

    // Plant garbage a real crash could leave behind: a file kept in the
    // store that no journal references, a slot cut short at the store's
    // end, and a torn journal commit.
    let stale = {
        let c = EmContext::new_on_disk(EmConfig::tiny(), &dir).unwrap();
        let f = EmFile::from_slice(&c, &[0xdead_u64; 40]).unwrap();
        f.set_persistent(true);
        f.id()
    };
    let store = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "store"))
        .expect("one block store");
    {
        use std::io::Write;
        let mut f = std::fs::File::options().append(true).open(&store).unwrap();
        f.write_all(b"stale block file").unwrap();
    }
    std::fs::write(dir.join("sort-manifest.journal.tmp"), b"torn commit").unwrap();

    // Phase 2: second "process" — reload from disk and finish.
    {
        let c2 = EmContext::new_on_disk(EmConfig::tiny(), &dir).unwrap();
        let mut m = SortManifest::load(&c2)
            .unwrap()
            .expect("journal present → manifest loads");
        assert_eq!(m.ledger().input(), Some(input_identity));
        let f2 = c2
            .open_file::<u64>(input_identity.id, input_identity.len)
            .unwrap();
        let listed = c2.list_file_ids().unwrap();
        assert!(
            !listed.contains(&stale),
            "orphan file must be garbage-collected on load: {listed:?}"
        );
        assert_eq!(
            c2.slot_usage(&listed).leaked(),
            0,
            "the orphan's slots must be freed on load"
        );
        assert!(
            !dir.join("sort-manifest.journal.tmp").exists(),
            "stale journal temp file must be garbage-collected on load"
        );
        let sorted = run_recoverable(&c2, &mut SortJob::new(&f2, &mut m)).unwrap();
        assert_eq!(c2.oracle(|| sorted.to_vec()).unwrap(), want);
        assert!(!dir.join("sort-manifest.journal").exists());
        f2.set_persistent(false); // let the input delete on drop
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corruption_on_disk_is_detected_not_wrong() {
    // Persistent corruption is not recoverable by retry — but it must
    // surface as EmError::Corrupt, never as silently wrong output.
    let c = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
    let data = shuffled(800, 21);
    let f = EmFile::from_slice(&c, &data).unwrap();
    c.install_fault_plan(FaultPlan::new(5).fail_nth(10, emcore::FaultKind::CorruptWrite));
    c.set_retry_policy(RetryPolicy::retries(3));
    match external_sort_recoverable(&f) {
        Ok(out) => {
            // The corrupt write hit a file that was later discarded wholesale
            // (e.g. a dropped run) — the output must still be right.
            let mut want = data.clone();
            want.sort_unstable();
            assert_eq!(c.oracle(|| out.to_vec()).unwrap(), want);
        }
        Err(EmError::Corrupt { .. }) => {
            assert!(c.stats().snapshot().corrupt_reads > 0);
        }
        Err(e) => panic!("expected success or Corrupt, got {e}"),
    }
}
