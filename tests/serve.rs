//! Integration tests for the serving layer (`emserve`): catalog and
//! splitter-index persistence across a simulated process restart, and
//! end-to-end agreement between the batched server and plain
//! per-query multi-selection.

use em_splitters::prelude::*;
use emcore::SplitMix64;
use emselect::MsOptions;

fn shuffled(n: u64, seed: u64) -> Vec<u64> {
    let mut v: Vec<u64> = (0..n).collect();
    SplitMix64::new(seed).shuffle(&mut v);
    v
}

/// Register datasets, answer (and thereby refine) through the splitter
/// index, drop every handle and the context — then reopen the same
/// directory with a fresh `EmContext` as a restarted process would.
/// The catalog, the index skeleton, and the answers must all survive.
#[test]
fn catalog_and_splitter_index_survive_process_restart() {
    let dir = std::env::temp_dir().join(format!("em-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let n = 5000u64;
    let data = shuffled(n, 0x5e12e);
    let ranks: Vec<u64> = vec![1, n / 4, n / 2, 3 * n / 4, n];
    let mut sorted = data.clone();
    sorted.sort_unstable();
    let want: Vec<u64> = ranks.iter().map(|&r| sorted[(r - 1) as usize]).collect();

    // --- process 1: register, answer, refine, drop everything ---
    let (first_answers, boundaries_before) = {
        let ctx = EmContext::new_on_disk(EmConfig::tiny(), &dir).unwrap();
        let f = EmFile::from_slice(&ctx, &data).unwrap();
        let g = EmFile::from_slice(&ctx, &[7u64, 3, 5]).unwrap();
        let mut cat = Catalog::open(&ctx).unwrap();
        cat.register("alpha", &f).unwrap();
        cat.register("beta", &g).unwrap();

        let mut idx = SplitterIndex::open(&ctx, "alpha", f).unwrap();
        let (ans, stats) = idx.answer(&ranks, MsOptions::default(), true).unwrap();
        assert_eq!(ans, want);
        assert_eq!(stats.index_hits, 0, "cold index answers nothing for free");
        let bounds = idx.boundaries();
        assert!(
            idx.num_segments() > 1,
            "refinement must split the unrefined segment"
        );
        (ans, bounds)
    };

    // --- process 2: a fresh context over the same directory ---
    let ctx = EmContext::new_on_disk(EmConfig::tiny(), &dir).unwrap();
    let cat = Catalog::open(&ctx).unwrap();
    assert_eq!(cat.names(), vec!["alpha".to_string(), "beta".to_string()]);
    let e = cat.entry("alpha").unwrap();
    assert_eq!((e.len, e.words), (n, 1));

    // The small dataset reads back bit-identically.
    let beta = cat.open_dataset::<u64>("beta").unwrap();
    assert_eq!(beta.to_vec().unwrap(), vec![7, 3, 5]);

    // The index skeleton reloaded: same boundaries, before any query.
    let alpha = cat.open_dataset::<u64>("alpha").unwrap();
    let mut idx = SplitterIndex::open(&ctx, "alpha", alpha).unwrap();
    assert_eq!(idx.boundaries(), boundaries_before);
    assert!(idx.num_segments() > 1, "skeleton survived the restart");

    // Re-asking the same ranks is pure boundary hits: zero logical I/O.
    ctx.stats().reset();
    let (ans, stats) = idx.answer(&ranks, MsOptions::default(), true).unwrap();
    assert_eq!(ans, first_answers);
    assert_eq!(stats.index_hits, ranks.len() as u64);
    assert_eq!(ctx.stats().snapshot().total_ios(), 0);

    // New ranks recurse only into known segments and still agree with the
    // ground truth.
    let fresh: Vec<u64> = vec![n / 8, n / 2 + 17, n - 3];
    let fresh_want: Vec<u64> = fresh.iter().map(|&r| sorted[(r - 1) as usize]).collect();
    let (ans, _) = idx.answer(&fresh, MsOptions::default(), true).unwrap();
    assert_eq!(ans, fresh_want);

    drop((idx, beta, cat));
    drop(ctx);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The full server stack on the directory backend: a coalesced batch
/// answered through the scheduler is bit-identical to per-query
/// `multi_select`, and a restarted server still knows the catalog.
#[test]
fn server_batches_match_plain_select_and_survive_restart() {
    let dir = std::env::temp_dir().join(format!("em-serve-server-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let n = 3000u64;
    let data = shuffled(n, 0xcafe);

    let queries: Vec<Vec<u64>> = vec![
        vec![1, n],
        vec![n / 2],
        vec![n / 3, 2 * n / 3, n / 5],
        vec![42, 42, 2718],
    ];

    // Ground truth per query via plain multi-select on a throwaway context.
    let want: Vec<Vec<u64>> = {
        let c = EmContext::new_in_memory(EmConfig::tiny());
        let f = EmFile::from_slice(&c, &data).unwrap();
        queries
            .iter()
            .map(|q| multi_select(&f, q).unwrap())
            .collect()
    };

    // Everything below speaks the transport-agnostic QueryService trait —
    // the same calls would drive a sharded Router unchanged.
    {
        let ctx = EmContext::new_on_disk(EmConfig::tiny(), &dir).unwrap();
        let mut server = QueryServer::<u64>::start(&ctx, ServeOptions::default()).unwrap();
        let svc: &dyn QueryService<u64> = &server;
        svc.register("ds", data.clone()).unwrap();
        let tickets = svc.rank_batch("ds", queries.clone()).unwrap();
        let got: Vec<Vec<u64>> = tickets
            .into_iter()
            .map(|t| t.wait().unwrap().into_values())
            .collect();
        assert_eq!(got, want, "batched answers must be bit-identical");
        let report = server.shutdown().unwrap();
        assert_eq!(report.queries as usize, queries.len());
        assert_eq!(report.batches, 1, "submit_batch coalesces into one pass");
    }

    // Restarted server: the dataset is already in the catalog, and the
    // warmed index makes exact repeats free of selection work.
    let ctx = EmContext::new_on_disk(EmConfig::tiny(), &dir).unwrap();
    let mut server = QueryServer::<u64>::start(&ctx, ServeOptions::default()).unwrap();
    let svc: &dyn QueryService<u64> = &server;
    assert_eq!(svc.dataset_len("ds").unwrap(), n);
    let got = svc.rank("ds", queries[0].clone()).unwrap().wait().unwrap();
    assert_eq!(got.values, want[0]);
    let report = svc.stats().unwrap();
    assert_eq!(
        report.index_hits as usize,
        queries[0].len(),
        "repeat ranks answered from the persisted skeleton"
    );
    server.shutdown().unwrap();
    drop(ctx);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Transient and corrupt faults injected during a coalesced batch are
/// absorbed by the retry-and-bisect path: every query still gets an
/// exact, bit-identical answer on the directory backend (where torn and
/// corrupt block writes are real on-disk events).
#[test]
fn faulty_batches_still_answer_exactly_on_disk() {
    use emcore::{FaultKind, FaultSpec, Trigger};
    let dir = std::env::temp_dir().join(format!("em-serve-faulty-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let n = 4000u64;
    let data = shuffled(n, 0xfau64);
    let mut sorted = data.clone();
    sorted.sort_unstable();

    let ctx = EmContext::new_on_disk(EmConfig::tiny(), &dir).unwrap();
    ctx.set_retry_policy(RetryPolicy::retries(4));
    let mut server = QueryServer::<u64>::start(&ctx, ServeOptions::default()).unwrap();
    let client = server.client().unwrap();
    client.register("ds", data).unwrap();

    // A storm of transient faults plus periodic corrupt reads.
    let plan = FaultPlan::new(11).transient_rate(0.03).with(FaultSpec {
        trigger: Trigger::EveryNth(37),
        kind: FaultKind::CorruptRead,
    });
    ctx.install_fault_plan(plan);

    let queries: Vec<Vec<u64>> = (0..6)
        .map(|i| vec![1 + i * 613 % n, 1 + (i * 1811 + 7) % n])
        .collect();
    let tickets = client.submit_batch("ds", queries.clone()).unwrap();
    for (ranks, t) in queries.iter().zip(tickets) {
        let a = t
            .wait_timeout(std::time::Duration::from_secs(30))
            .expect("faulted batch must still answer");
        assert!(!a.approx);
        let want: Vec<u64> = ranks.iter().map(|&r| sorted[(r - 1) as usize]).collect();
        assert_eq!(a.values, want, "ranks {ranks:?}");
    }
    ctx.clear_fault_plan();
    drop(client);
    server.shutdown().unwrap();
    drop(ctx);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fatal fault while serving one dataset must not take down the others:
/// the crashed dataset trips its breaker and fails fast with a typed
/// error, while a second dataset keeps answering exactly — and after the
/// device recovers, the background probe restores the first.
#[test]
fn fatal_fault_on_one_dataset_leaves_others_serving() {
    use std::time::{Duration, Instant};
    let ctx = EmContext::new_in_memory(EmConfig::tiny());
    let a = shuffled(2000, 1);
    let b = shuffled(2000, 2);
    let mut sorted_b = b.clone();
    sorted_b.sort_unstable();
    let mut server = QueryServer::<u64>::start(
        &ctx,
        ServeOptions {
            breaker_threshold: 2,
            probe_cooldown: Duration::from_millis(5),
            retry: RetryPolicy::NONE,
            ..Default::default()
        },
    )
    .unwrap();
    let client = server.client().unwrap();
    client.register("a", a).unwrap();
    client.register("b", b).unwrap();
    // Warm dataset b so its answers during the crash window are pure
    // boundary hits (zero device I/O — the crash cannot touch them).
    let warm_ranks = vec![500u64, 1000, 1500];
    client
        .query("b", warm_ranks.clone())
        .unwrap()
        .wait()
        .unwrap();

    // Crash the device and drive dataset a into its breaker.
    let plan = FaultPlan::new(0).fatal_at(0);
    ctx.install_fault_plan(plan.clone());
    for _ in 0..2 {
        let e = client.query("a", vec![10]).unwrap().wait().unwrap_err();
        assert!(e.is_fault(), "expected a fault error, got {e}");
    }
    let e = client.query("a", vec![10]).unwrap().wait().unwrap_err();
    assert!(
        matches!(e, EmError::Unhealthy { .. }),
        "breaker must fail fast, got {e}"
    );
    // Dataset b still serves its warmed ranks exactly.
    let got = client
        .query("b", warm_ranks.clone())
        .unwrap()
        .wait()
        .unwrap();
    let want: Vec<u64> = warm_ranks
        .iter()
        .map(|&r| sorted_b[(r - 1) as usize])
        .collect();
    assert_eq!(got.values, want, "healthy dataset unaffected");
    assert!(!got.approx);

    // Device recovers; the probe restores dataset a.
    plan.clear_crash();
    plan.clear_specs();
    let t0 = Instant::now();
    loop {
        match client.query("a", vec![10]).unwrap().wait() {
            Ok(ans) => {
                assert_eq!(ans.values.len(), 1);
                break;
            }
            Err(_) => {
                assert!(
                    t0.elapsed() < Duration::from_secs(10),
                    "probe never restored dataset a"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    drop(client);
    let report = server.shutdown().unwrap();
    assert!(report.breaker_trips >= 1);
    assert!(report.breaker_restores >= 1);
}

/// `Ticket::wait_timeout` never hangs the caller: a server wedged behind
/// a slow device yields a typed `DeadlineExceeded`, the ticket stays
/// usable, and killing the server mid-batch resolves (not hangs) every
/// outstanding ticket.
#[test]
fn wait_timeout_never_hangs_on_a_wedged_or_killed_server() {
    use std::time::Duration;
    let ctx = EmContext::new_in_memory(EmConfig::tiny().with_device_latency_us(800));
    let data = shuffled(3000, 3);
    let mut sorted = data.clone();
    sorted.sort_unstable();
    let mut server = QueryServer::<u64>::start(&ctx, ServeOptions::default()).unwrap();
    let client = server.client().unwrap();
    client.register("ds", data).unwrap();

    // Wedged: the cold-index select behind a slow device outlasts a 1 ms
    // budget, but the ticket survives the timeout and answers later.
    let t = client.query("ds", vec![1500]).unwrap();
    let e = t.wait_timeout(Duration::from_millis(1)).unwrap_err();
    assert!(
        matches!(e, EmError::DeadlineExceeded { .. }),
        "typed timeout, got {e}"
    );
    let a = t.wait_timeout(Duration::from_secs(60)).unwrap();
    assert_eq!(a.values, vec![sorted[1499]]);

    // Killed mid-batch: submit, then shut the server down from another
    // thread while the batch is in flight. Every ticket must resolve —
    // with an answer or a typed error — well before the timeout.
    let tickets = client
        .submit_batch("ds", (0..4).map(|i| vec![100 + i * 700]).collect())
        .unwrap();
    let killer = std::thread::spawn(move || {
        drop(client); // release the last sender so shutdown can join
        server.shutdown()
    });
    for t in tickets {
        match t.wait_timeout(Duration::from_secs(60)) {
            Ok(_) | Err(EmError::Unavailable { .. }) => {}
            Err(e) => assert!(
                !matches!(e, EmError::DeadlineExceeded { .. }),
                "ticket hung: {e}"
            ),
        }
    }
    killer.join().unwrap().unwrap();
}

/// Kill a server partway through a refining batch, at several device
/// attempts, and restart it over the same store as a new process would.
/// The restarted server's sweep must free every slot that its catalog and
/// index journal do not reference, and its answers must be exact.
#[test]
fn restart_after_a_crashed_refinement_leaks_no_slot() {
    let dir = std::env::temp_dir().join(format!("em-serve-sweep-{}", std::process::id()));
    let n = 2000u64;
    let ranks = vec![1, n / 4, n / 2, 3 * n / 4, n];
    let want: Vec<u64> = ranks.iter().map(|&r| r - 1).collect();
    // One session; a crash at device attempt `crash_at` of the refining
    // batch (none: count the batch's attempts). Returns the attempts.
    let session = |crash_at: Option<u64>| {
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = EmContext::new_on_disk(EmConfig::tiny(), &dir).unwrap();
        let mut server = QueryServer::<u64>::start(&ctx, ServeOptions::default()).unwrap();
        let client = server.client().unwrap();
        client.register("ds", shuffled(n, 0x5eed)).unwrap();
        client.query("ds", vec![n / 2]).unwrap().wait().unwrap();
        let plan = crash_at.map_or(FaultPlan::new(1), |i| FaultPlan::new(1).fatal_at(i));
        ctx.install_fault_plan(plan.clone());
        let _ = client.query("ds", vec![n / 4, 3 * n / 4]).unwrap().wait();
        drop(client);
        let _ = server.shutdown();
        plan.attempts()
    };
    let attempts = session(None);
    assert!(attempts > 8, "the refining batch does device work");
    let mut leftovers = 0;
    for crash_at in [
        1,
        attempts / 4,
        attempts / 2,
        3 * attempts / 4,
        attempts - 1,
    ] {
        session(Some(crash_at));
        let ctx = EmContext::new_on_disk(EmConfig::tiny(), &dir).unwrap();
        let before = ctx.list_file_ids().unwrap();
        let mut server = QueryServer::<u64>::start(&ctx, ServeOptions::default()).unwrap();
        let client = server.client().unwrap();
        let got = client.query("ds", ranks.clone()).unwrap().wait().unwrap();
        assert_eq!(got.values, want, "crash_at={crash_at}");
        drop(client);
        server.shutdown().unwrap();

        let cat = Catalog::open(&ctx).unwrap();
        let idx = SplitterIndex::open(&ctx, "ds", cat.open_dataset::<u64>("ds").unwrap()).unwrap();
        let live = idx.live_file_ids();
        assert_eq!(ctx.list_file_ids().unwrap(), live, "crash_at={crash_at}");
        let usage = ctx.slot_usage(&live);
        assert_eq!(usage.leaked(), 0, "crash_at={crash_at}: {usage:?}");
        assert_eq!(usage.used + usage.free, usage.slots, "crash_at={crash_at}");
        leftovers += before.iter().filter(|id| !live.contains(id)).count();
    }
    assert!(leftovers > 0, "the crashes left files for the sweep");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every histogram percentile ladder in `snap` is monotone.
fn monotone(snap: &MetricsSnapshot) -> bool {
    snap.samples.iter().all(|s| match &s.hist {
        Some(h) if h.count() > 0 => {
            let l = [
                h.percentile(50.0),
                h.percentile(90.0),
                h.percentile(99.0),
                h.percentile(99.9),
                h.max(),
            ];
            l.windows(2).all(|w| w[0] <= w[1])
        }
        _ => true,
    })
}

/// Scraping the live registry mid-fault-storm tells the same story as
/// the server's own report: the end-to-end outcome histograms conserve
/// (one sample per accepted query), every percentile ladder is monotone,
/// and the breaker gauge reads Open while the device is crashed and
/// Closed again after the heal — with trip/restore counters matching.
#[test]
fn metrics_scrape_stays_conserved_during_fault_storm() {
    use std::time::{Duration, Instant};
    let ctx = EmContext::new_in_memory(EmConfig::tiny());
    ctx.metrics().set_enabled(true);
    ctx.set_retry_policy(RetryPolicy::retries(2));
    let n = 2000u64;
    let mut server = QueryServer::<u64>::start(
        &ctx,
        ServeOptions {
            breaker_threshold: 2,
            probe_cooldown: Duration::from_millis(5),
            ..Default::default()
        },
    )
    .unwrap();
    let client = server.client().unwrap();
    client.register("ds", shuffled(n, 0x0b5)).unwrap();
    client.query("ds", vec![n / 2]).unwrap().wait().unwrap();

    // Crash the device and let a storm of queries fail and fail fast.
    let plan = FaultPlan::new(0).fatal_at(20);
    ctx.install_fault_plan(plan.clone());
    for i in 0..10u64 {
        let _ = client
            .query("ds", vec![1 + (i * 613) % n])
            .unwrap()
            .wait_timeout(Duration::from_secs(20));
    }

    // Mid-storm scrape: conservation and the tripped breaker, live.
    let r = client.report().unwrap();
    let snap = ctx.metrics().snapshot(ctx.clock().now_us());
    assert_eq!(
        snap.family_total("em_serve_query_e2e_us"),
        r.queries,
        "every accepted query lands in exactly one outcome histogram"
    );
    assert!(monotone(&snap));
    assert!(r.breaker_trips >= 1, "storm must trip the breaker: {r:?}");
    let state = snap
        .find("em_serve_breaker_state", &[("ds", "ds")])
        .expect("breaker gauge registered")
        .value;
    assert!(state >= 1, "gauge must read tripped mid-storm, got {state}");

    // Heal; the probe closes the breaker and exact service resumes.
    plan.clear_crash();
    plan.clear_specs();
    let t0 = Instant::now();
    loop {
        match client.query("ds", vec![n / 3]).unwrap().wait() {
            Ok(_) => break,
            Err(_) => {
                assert!(t0.elapsed() < Duration::from_secs(10), "never healed");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }

    let r = client.report().unwrap();
    let snap = ctx.metrics().snapshot(ctx.clock().now_us());
    assert_eq!(snap.family_total("em_serve_query_e2e_us"), r.queries);
    assert!(monotone(&snap));
    let gauge = |name: &str| snap.find(name, &[("ds", "ds")]).map(|s| s.value);
    assert_eq!(
        gauge("em_serve_breaker_state"),
        Some(0),
        "closed after heal"
    );
    assert_eq!(gauge("em_serve_breaker_trips_total"), Some(r.breaker_trips));
    assert_eq!(
        gauge("em_serve_breaker_restores_total"),
        Some(r.breaker_restores)
    );
    drop(client);
    server.shutdown().unwrap();
}

/// The scripted protocol under a transient fault storm: the `metrics`
/// verb scrapes a clean exposition to stderr without polluting the
/// answer stream, the extended `stats` line carries the new gauges, and
/// the scraped histograms conserve against the final report.
#[test]
fn protocol_metrics_verb_scrapes_cleanly_during_faults() {
    use emcore::{FaultKind, FaultSpec, Trigger};
    use std::io::Write as _;
    let dir = std::env::temp_dir().join(format!("em-serve-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let n = 1500u64;
    let data = shuffled(n, 0x9e7);
    let data_path = dir.join("data.bin");
    {
        let mut f = std::fs::File::create(&data_path).unwrap();
        for v in &data {
            f.write_all(&v.to_le_bytes()).unwrap();
        }
    }

    let ctx = EmContext::new_in_memory(EmConfig::tiny());
    ctx.metrics().set_enabled(true);
    ctx.set_retry_policy(RetryPolicy::retries(4));
    ctx.install_fault_plan(FaultPlan::new(5).transient_rate(0.02).with(FaultSpec {
        trigger: Trigger::EveryNth(41),
        kind: FaultKind::CorruptRead,
    }));

    let script = format!(
        "open ds {p}\nrank ds 100\nrank ds 700 1400\nmetrics\nrank ds 42\nstats\nquit\n",
        p = data_path.display()
    );
    let mut out = Vec::new();
    let mut errs = Vec::new();
    let mut server = QueryServer::<u64>::start(&ctx, ServeOptions::default()).unwrap();
    let report = serve_session(&server, script.as_bytes(), &mut out, &mut errs).unwrap();
    server.shutdown().unwrap();

    // The answer stream holds exactly the four requested values, all
    // numeric — the scrape leaked nothing into it.
    let out = String::from_utf8(out).unwrap();
    let answers: Vec<u64> = out.lines().map(|l| l.parse().unwrap()).collect();
    let mut sorted = data;
    sorted.sort_unstable();
    assert_eq!(
        answers,
        vec![sorted[99], sorted[699], sorted[1399], sorted[41]]
    );

    let errs = String::from_utf8(errs).unwrap();
    assert!(errs.contains("ok metrics begin") && errs.contains("ok metrics end"));
    assert!(errs.contains("# TYPE em_serve_query_e2e_us summary"));
    assert!(
        errs.contains("queue_depth=0"),
        "stats line extended: {errs}"
    );
    assert!(
        errs.contains("batch_occupancy="),
        "stats line extended: {errs}"
    );

    // The registry agrees with the final report even after the session.
    let snap = ctx.metrics().snapshot(ctx.clock().now_us());
    assert_eq!(snap.family_total("em_serve_query_e2e_us"), report.queries);
    ctx.clear_fault_plan();
    let _ = std::fs::remove_dir_all(&dir);
}
