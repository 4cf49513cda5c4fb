//! End-to-end tests of the `emsplit` command-line tool: generate data,
//! compute splitters/quantiles, verify, sort — through the real binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_emsplit")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emsplit-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(bin())
        .args(args)
        .output()
        .expect("spawn emsplit");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn gen_splitters_verify_roundtrip() {
    let data = tmp("a.bin");
    let data_s = data.to_str().unwrap();
    let (_, err, ok) = run(&[
        "gen",
        data_s,
        "50000",
        "--workload",
        "uniform",
        "--seed",
        "3",
    ]);
    assert!(ok, "{err}");
    assert_eq!(std::fs::metadata(&data).unwrap().len(), 50_000 * 8);

    let (out, err, ok) = run(&["splitters", data_s, "--k", "8", "--min", "4", "--stats"]);
    assert!(ok, "{err}");
    let splitters: Vec<&str> = out.lines().collect();
    assert_eq!(splitters.len(), 7);
    assert!(err.contains("[stats]"), "stats requested: {err}");

    let mut args = vec!["verify", data_s, "--k", "8", "--min", "4", "--"];
    args.extend(splitters.iter());
    let (_, err, ok) = run(&args);
    assert!(ok, "verification failed: {err}");
    assert!(err.contains("OK"));
}

#[test]
fn verify_rejects_bad_splitters() {
    let data = tmp("b.bin");
    let data_s = data.to_str().unwrap();
    run(&["gen", data_s, "10000", "--seed", "4"]);
    // Splitters clustered at the bottom: some partition must be tiny.
    let (_, err, ok) = run(&[
        "verify", data_s, "--k", "4", "--min", "100", "--", "1", "2", "3",
    ]);
    assert!(!ok);
    assert!(err.contains("INVALID"), "{err}");
}

#[test]
fn quantiles_match_sorted_file() {
    let data = tmp("c.bin");
    let sorted = tmp("c-sorted.bin");
    let data_s = data.to_str().unwrap();
    run(&["gen", data_s, "20000", "--seed", "5"]);
    let (out, err, ok) = run(&["quantiles", data_s, "--q", "4"]);
    assert!(ok, "{err}");
    let got: Vec<u64> = out.lines().map(|l| l.parse().unwrap()).collect();
    assert_eq!(got.len(), 3);

    let (_, err, ok) = run(&["sort", data_s, sorted.to_str().unwrap()]);
    assert!(ok, "{err}");
    let bytes = std::fs::read(&sorted).unwrap();
    let keys: Vec<u64> = bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    for (i, &q) in got.iter().enumerate() {
        let rank = ((i as u64 + 1) * 20_000) / 4;
        assert_eq!(q, keys[(rank - 1) as usize]);
    }
}

#[test]
fn partition_writes_ordered_shards() {
    let data = tmp("d.bin");
    let outdir = tmp("parts");
    run(&["gen", data.to_str().unwrap(), "10000", "--seed", "6"]);
    let (_, err, ok) = run(&[
        "partition",
        data.to_str().unwrap(),
        outdir.to_str().unwrap(),
        "--k",
        "5",
        "--min",
        "1000",
    ]);
    assert!(ok, "{err}");
    let mut prev_max = 0u64;
    let mut total = 0usize;
    for i in 0..5 {
        let bytes = std::fs::read(outdir.join(format!("part-{i:04}.bin"))).unwrap();
        let keys: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert!(keys.len() >= 1000, "shard {i} too small");
        let mn = *keys.iter().min().unwrap();
        assert!(mn >= prev_max);
        prev_max = *keys.iter().max().unwrap();
        total += keys.len();
    }
    assert_eq!(total, 10_000);
}

/// `select` prints the requested ranks' elements in caller order; a
/// scripted `serve` session over the same data must answer identically,
/// and its store directory must survive for a second session.
#[test]
fn serve_session_matches_one_shot_select() {
    let data = tmp("e.bin");
    let store = tmp("e-store");
    let data_s = data.to_str().unwrap();
    run(&["gen", data_s, "30000", "--seed", "7"]);

    let (sel_out, err, ok) = run(&["select", data_s, "--ranks", "15000,1,29999,400"]);
    assert!(ok, "{err}");
    assert_eq!(sel_out.lines().count(), 4);
    let (q_out, err, ok) = run(&["quantiles", data_s, "--q", "8"]);
    assert!(ok, "{err}");

    let script = format!("open ds {data_s}\nrank ds 15000 1 29999 400\nquantiles ds 8\nquit\n");
    let serve = |script: &str| -> (String, String, bool) {
        use std::io::Write as _;
        let mut child = Command::new(bin())
            .args(["serve", store.to_str().unwrap()])
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn emsplit serve");
        child
            .stdin
            .take()
            .unwrap()
            .write_all(script.as_bytes())
            .unwrap();
        let out = child.wait_with_output().unwrap();
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
            out.status.success(),
        )
    };
    let (out, err, ok) = serve(&script);
    assert!(ok, "{err}");
    assert_eq!(
        out,
        format!("{sel_out}{q_out}"),
        "serve must match one-shot"
    );
    assert!(err.contains("ok open ds 30000"), "{err}");

    // A second session on the same store: the dataset is in the catalog
    // (no re-registration cost) and answers are unchanged.
    let (out2, err, ok) = serve(&script);
    assert!(ok, "{err}");
    assert_eq!(out2, out, "restarted store must answer identically");
}

#[test]
fn help_and_bad_usage() {
    let (_, err, ok) = run(&["help"]);
    assert!(ok);
    assert!(err.contains("usage"));
    let (_, err, ok) = run(&["splitters", "/nonexistent/file.bin", "--k", "4"]);
    assert!(!ok);
    assert!(err.contains("emsplit:"), "{err}");
}

/// The `graph-*` family end to end: generate an R-MAT edge list,
/// canonicalize it, cluster the canonical file, and read its degree
/// profile — and pin the determinism contract: the cluster digest is
/// identical across `--workers` and `--mem` settings.
#[test]
fn graph_family_roundtrip_and_digest_invariance() {
    let edges = tmp("g.bin");
    let canon = tmp("g-canon.bin");
    let edges_s = edges.to_str().unwrap();
    let (_, err, ok) = run(&[
        "graph-gen",
        edges_s,
        "--kind",
        "rmat",
        "--scale",
        "8",
        "--edges",
        "3000",
        "--seed",
        "9",
    ]);
    assert!(ok, "{err}");
    assert_eq!(std::fs::metadata(&edges).unwrap().len(), 3000 * 16);

    let (_, err, ok) = run(&["graph-build", edges_s, canon.to_str().unwrap(), "--stats"]);
    assert!(ok, "{err}");
    assert!(err.contains("max degree"), "{err}");
    // Canonical file: sorted, deduplicated, symmetric (src,dst) pairs.
    let bytes = std::fs::read(&canon).unwrap();
    let keys: Vec<u64> = bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let pairs: Vec<(u64, u64)> = keys.chunks_exact(2).map(|c| (c[0], c[1])).collect();
    assert!(pairs.windows(2).all(|w| w[0] < w[1]), "canonical order");
    assert!(pairs.iter().all(|&(s, d)| s != d), "no self-loops");

    let canon_s = canon.to_str().unwrap();
    let cluster = |extra: &[&str]| -> String {
        let mut args = vec!["graph-cluster", canon_s, "--rounds", "4"];
        args.extend_from_slice(extra);
        let (out, err, ok) = run(&args);
        assert!(ok, "{err}");
        assert!(
            out.starts_with("clusters=") && out.contains("digest="),
            "{out}"
        );
        out
    };
    let base = cluster(&[]);
    assert_eq!(base, cluster(&["--workers", "4"]), "worker invariance");
    assert_eq!(
        base,
        cluster(&["--mem", "4096", "--block", "64"]),
        "memory-budget invariance"
    );

    let (out, err, ok) = run(&["graph-stats", canon_s, "--buckets", "4"]);
    assert!(ok, "{err}");
    assert!(out.starts_with("vertices="), "{out}");
    assert_eq!(out.lines().filter(|l| l.starts_with("bucket=")).count(), 4);

    // A directed build with its loops kept is loaded as built: not
    // symmetrized or stripped of loops a second time.
    let directed = tmp("g-directed.bin");
    let directed_s = directed.to_str().unwrap();
    let (_, err, ok) = run(&[
        "graph-build",
        edges_s,
        directed_s,
        "--directed",
        "--keep-loops",
    ]);
    assert!(ok, "{err}");
    let built = std::fs::metadata(&directed).unwrap().len() / 16;
    assert!(built < pairs.len() as u64, "one direction of each edge");
    let (out, err, ok) = run(&["graph-stats", directed_s]);
    assert!(ok, "{err}");
    assert!(out.contains(&format!(" edges={built} ")), "{out}");
}

/// `graph-cluster --trace` emits per-round `graph/round#N` spans, and
/// `--labels` writes a labels file whose length is the vertex count.
/// Inside a round the trace shows round 1's edge pass and, when the
/// labels do not fit in memory, each window pass and the merge drain.
#[test]
fn graph_cluster_trace_and_labels_output() {
    let edges = tmp("h.bin");
    let canon = tmp("h-canon.bin");
    let trace = tmp("h-trace.jsonl");
    let labels = tmp("h-labels.bin");
    let edges_s = edges.to_str().unwrap();
    let canon_s = canon.to_str().unwrap();
    run(&[
        "graph-gen",
        edges_s,
        "--kind",
        "grid",
        "--rows",
        "12",
        "--cols",
        "12",
    ]);
    let (_, err, ok) = run(&["graph-build", edges_s, canon_s]);
    assert!(ok, "{err}");
    let traced = |extra: &[&str]| -> (String, String) {
        let mut args = vec![
            "graph-cluster",
            canon_s,
            "--rounds",
            "3",
            "--labels",
            labels.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        let (out, err, ok) = run(&args);
        assert!(ok, "{err}");
        assert!(out.contains("digest="), "{out}");
        assert_eq!(std::fs::metadata(&labels).unwrap().len(), 144 * 8);
        (out, std::fs::read_to_string(&trace).unwrap())
    };
    // Default geometry: the labels fit, so later rounds run resident.
    let (out, doc) = traced(&[]);
    assert!(doc.contains("graph/round#1"), "round spans in trace");
    assert!(doc.contains("graph/round#3"), "all rounds traced");
    assert!(doc.contains("graph/identity-pass"), "round 1's pass traced");
    assert!(
        !doc.contains("graph/window#"),
        "resident rounds have no windows"
    );
    // 144 labels in M = 128: rounds 2 and 3 run windowed.
    let (windowed_out, doc) = traced(&["--mem", "128", "--block", "8"]);
    assert_eq!(windowed_out, out, "geometry invariance");
    assert!(doc.contains("graph/identity-pass"), "round 1's pass traced");
    assert!(doc.contains("graph/window#0"), "window passes traced");
    assert!(doc.contains("graph/window#1"), "every window traced");
    assert!(doc.contains("graph/drain"), "the merge drain traced");
}
