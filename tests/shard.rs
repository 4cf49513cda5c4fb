//! Integration tests for sharded scale-out serving: a scripted protocol
//! session against a splitter-partitioned [`Router`] fleet must be
//! byte-identical on the answer stream to the same session against one
//! [`QueryServer`] store, the fleet-shared metrics registry must
//! conserve against the merged report, and a restarted fleet must route
//! from its journaled shard maps without rebuilding.

use em_splitters::prelude::*;
use emcore::SplitMix64;

fn shuffled(n: u64, seed: u64) -> Vec<u64> {
    let mut v: Vec<u64> = (0..n).collect();
    SplitMix64::new(seed).shuffle(&mut v);
    v
}

fn write_u64_file(path: &std::path::Path, keys: &[u64]) {
    let bytes: Vec<u8> = keys.iter().flat_map(|x| x.to_le_bytes()).collect();
    std::fs::write(path, bytes).unwrap();
}

/// The same scripted session — hello, open, ranks, quantiles, stats —
/// against a 4-shard fleet and a one-store server. The answer streams
/// must be byte-identical, and the fleet's shared registry must hold
/// exactly one e2e histogram sample per accepted sub-query.
#[test]
fn sharded_session_answers_byte_identical_to_single_store() {
    let dir = std::env::temp_dir().join(format!("em-shard-session-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let n = 6000u64;
    write_u64_file(&dir.join("data.bin"), &shuffled(n, 0x5ead));

    let script = format!(
        "hello 1\nopen ds {p}\nrank ds 1 1500 1501 3000 6000\nquantiles ds 8\nrank ds 42\nstats\nquit\n",
        p = dir.join("data.bin").display()
    );

    // One-store oracle session.
    let single_out = {
        let ctx = EmContext::new_on_disk(EmConfig::tiny(), dir.join("single")).unwrap();
        let mut server = QueryServer::<u64>::start(&ctx, ServeOptions::default()).unwrap();
        let mut out = Vec::new();
        let mut errs = Vec::new();
        serve_session(&server, script.as_bytes(), &mut out, &mut errs).unwrap();
        server.shutdown().unwrap();
        out
    };

    // The same session against a 4-shard fleet.
    let (rc, scs) = shard_fleet_on_disk(EmConfig::tiny(), dir.join("fleet"), 4).unwrap();
    rc.metrics().set_enabled(true);
    let mut router = Router::<u64>::start(&rc, &scs, ServeOptions::default()).unwrap();
    let mut out = Vec::new();
    let mut errs = Vec::new();
    let session_report = serve_session(&router, script.as_bytes(), &mut out, &mut errs).unwrap();
    assert_eq!(
        out, single_out,
        "fleet answer stream must be byte-identical to the one-store session"
    );
    let errs = String::from_utf8(errs).unwrap();
    assert!(errs.contains("ok hello v1"), "{errs}");
    assert!(errs.contains(&format!("ok open ds {n}")), "{errs}");

    // Conservation over the fleet-shared registry: one e2e sample per
    // accepted sub-query across all shards, equal to the merged report.
    let snap = rc.metrics().snapshot(rc.clock().now_us());
    assert_eq!(
        snap.family_total("em_serve_query_e2e_us"),
        session_report.queries,
        "fleet histograms must conserve against the merged ServeReport"
    );

    let merged = router.shutdown().unwrap();
    assert_eq!(merged.queries, session_report.queries);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh fleet over the same root routes from the journaled shard maps
/// — a session can query a dataset it never opened, and the answers stay
/// exact and bit-identical across the restart.
#[test]
fn restarted_fleet_serves_sessions_from_journaled_maps() {
    let dir = std::env::temp_dir().join(format!("em-shard-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let n = 4000u64;
    write_u64_file(&dir.join("data.bin"), &shuffled(n, 0xf1ee7));

    let first = {
        let (rc, scs) = shard_fleet_on_disk(EmConfig::tiny(), dir.join("fleet"), 4).unwrap();
        let mut router = Router::<u64>::start(&rc, &scs, ServeOptions::default()).unwrap();
        let script = format!(
            "open ds {p}\nrank ds 1 1000 1001 4000\nquit\n",
            p = dir.join("data.bin").display()
        );
        let mut out = Vec::new();
        serve_session(&router, script.as_bytes(), &mut out, std::io::sink()).unwrap();
        router.shutdown().unwrap();
        out
    };

    // Restart: no `open` line — the dataset is routable straight from
    // the catalog's shard map journal.
    let (rc, scs) = shard_fleet_on_disk(EmConfig::tiny(), dir.join("fleet"), 4).unwrap();
    // The router's store still lists the temporaries of the first
    // session's registration (their slots keep valid trailers); starting
    // the router frees them, as each shard's start frees its own.
    assert!(!rc.list_file_ids().unwrap().is_empty());
    let mut router = Router::<u64>::start(&rc, &scs, ServeOptions::default()).unwrap();
    assert_eq!(rc.list_file_ids().unwrap(), Vec::<u64>::new());
    let script = "rank ds 1 1000 1001 4000\nquit\n";
    let mut out = Vec::new();
    serve_session(&router, script.as_bytes(), &mut out, std::io::sink()).unwrap();
    assert_eq!(out, first, "answers must survive the fleet restart");
    router.shutdown().unwrap();
    assert_eq!(rc.slot_usage(&[]).used, 0, "the router keeps no file");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent clients hammering one fleet through the QueryService
/// trait: every answer exact and oracle-identical, and the merged
/// report sees every sub-query.
#[test]
fn concurrent_clients_on_a_fleet_stay_exact_and_conserved() {
    let n = 8000u64;
    let (rc, scs) = shard_fleet_in_memory(EmConfig::tiny(), 8);
    rc.metrics().set_enabled(true);
    let mut router = Router::<u64>::start(&rc, &scs, ServeOptions::default()).unwrap();
    router.register("ds", shuffled(n, 0xc0c0)).unwrap();

    std::thread::scope(|s| {
        for c in 0..6u64 {
            let router = &router;
            s.spawn(move || {
                for i in 0..8u64 {
                    let r = 1 + (c * 1217 + i * 2819) % n;
                    let a = router
                        .rank("ds", vec![r, 1 + (r + n / 3) % n])
                        .unwrap()
                        .wait()
                        .unwrap();
                    assert!(!a.approx);
                    // The data is a permutation of 0..n: rank r holds r-1.
                    assert_eq!(a.values[0], r - 1);
                }
            });
        }
    });

    let merged = QueryService::<u64>::stats(&router).unwrap();
    let snap = rc.metrics().snapshot(rc.clock().now_us());
    assert_eq!(snap.family_total("em_serve_query_e2e_us"), merged.queries);
    assert_eq!(router.degraded_key_ranges(), 0);
    router.shutdown().unwrap();
}
