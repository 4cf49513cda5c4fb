//! `emsplit` — a command-line front end for the library.
//!
//! Operates on flat binary files of little-endian `u64` keys (8 bytes per
//! record), the native encoding of `emcore`'s file backend.
//!
//! ```text
//! emsplit gen <file> <n> [--workload uniform|sorted|reversed|zipf] [--seed S]
//! emsplit splitters <file> --k K [--min a] [--max b] [--stats]
//! emsplit partition <file> <out-dir> --k K [--min a] [--max b] [--stats]
//! emsplit quantiles <file> --q Q [--stats]
//! emsplit select <file> --ranks r1,r2,... [--stats]
//! emsplit sort <file> <out-file> [--stats]
//! emsplit serve <store-dir> [--shards N] [--batch-max N] [--batch-window-ms W]
//!               [--no-refine] [--deadline-ms D] [--degraded] [--breaker-threshold K]
//!               [--probe-ms P] [--metrics] [--metrics-file FILE] [--metrics-interval-ms I]
//! emsplit shard-build <store-dir> <name> <file> --shards N
//! emsplit metrics-report <series.jsonl>
//! emsplit verify <file> --k K [--min a] [--max b] -- s1 s2 ...
//! emsplit graph-gen <file> --kind rmat|grid [--scale S --edges E --seed S | --rows R --cols C]
//! emsplit graph-build <file> <out-file> [--directed] [--keep-loops] [--vertices N]
//! emsplit graph-cluster <canonical-file> [--rounds R] [--max-size C] [--labels FILE] [--stats]
//! emsplit graph-stats <canonical-file> [--buckets K]
//! ```
//!
//! The `graph-*` family operates on edge lists stored as flat `u64`
//! pair files (16 bytes per edge: `src` then `dst`, little-endian).
//! `graph-build` canonicalizes a raw edge list (symmetrize unless
//! `--directed`, drop self-loops unless `--keep-loops`, sort, dedup) and
//! writes the canonical pair file. `graph-cluster` and `graph-stats`
//! take that canonical file as input and load it as is (sort and dedup
//! only, no symmetrizing or loop removal), so the build's options carry
//! through. `graph-cluster` runs crash-recoverable size-capped label
//! propagation and prints `clusters=<c> digest=<hex>` — the digest is
//! bit-identical across `--mem`, `--workers`, and backend choices;
//! `graph-stats` prints the degree profile and (with `--buckets K`) the
//! near-even degree buckets realized by approximate K-partitioning. All
//! three take `--trace FILE` / `--trace-summary`; clustering rounds
//! appear as `graph/round#N` spans.
//!
//! `serve` opens (or creates) a persistent dataset store in `<store-dir>`
//! and answers line-oriented rank/quantile queries from stdin — see
//! `emserve::serve_session` for the protocol. Answers go to stdout exactly
//! as `select`/`quantiles` print them; status lines go to stderr.
//! With `--shards N` the store becomes a fleet root (`router/` +
//! `shard-000/` …): datasets opened in the session are split across `N`
//! per-shard stores at exact splitter boundaries and every query is
//! scatter/gathered by the co-ranking router — answers are bit-identical
//! to the single-store server. `shard-build` performs just the splitting
//! (registering `<file>` under `<name>` in the fleet at `<store-dir>`)
//! so a later `serve --shards N` session starts from the journaled shard
//! map without moving data.
//! `--deadline-ms` sheds queries that waited longer than `D` ms before
//! execution; with `--degraded` they are instead answered approximately
//! from the splitter skeleton (zero I/O, flagged on stderr with an
//! explicit rank-error bound). `--breaker-threshold` trips a dataset's
//! circuit breaker after `K` consecutive fully-failed fault batches
//! (fail-fast typed errors), and `--probe-ms` sets the cooldown before a
//! background probe tries to restore it.
//!
//! `--mem M` and `--block B` set the machine geometry (defaults 65536/1024
//! records — a more disk-like shape than the simulator defaults).
//! `--workers W` sorts with `W` threads (identical logical I/Os and
//! output; see `emsort::external_sort`) and `--cache-blocks C`
//! enables a `C`-block buffer-pool cache under the EM machine (hits charge
//! logical but not physical I/Os).
//!
//! `--trace FILE` streams a JSONL I/O trace of the run (render it with the
//! `trace_report` tool); `--trace-summary` prints the span tree and
//! per-file access summary to stderr without writing a file.
//!
//! `--metrics` turns on the live metrics registry for a `serve` session:
//! the `metrics` protocol verb then scrapes a Prometheus-style text
//! exposition (latency histograms, breaker/lease/queue gauges) on stderr.
//! `--metrics-file FILE` additionally runs a background sampler that
//! appends a JSONL snapshot of every instrument each
//! `--metrics-interval-ms` (default 100) — render the series afterwards
//! with `emsplit metrics-report FILE`.
//!
//! `--mem-squeeze W` ratchets the live memory budget down to `W` words a
//! few milliseconds into the run (`--squeeze-at-ms D`, default 5) and
//! optionally restores it (`--restore-at-ms R`) — a CLI harness for the
//! memory governor's mid-run reclaim path. Algorithms adapt at phase
//! boundaries (smaller runs, narrower fan-in/fan-out) and produce
//! bit-identical output. `--mem-governor` adds governor gauges (budget,
//! leases, denials, reclaims) to the `--stats` report. For `serve`,
//! `--lease-floor W` reserves a per-dataset memory floor with the governor
//! and `--lease-weight X` sets its fair-share weight.

use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use em_splitters::prelude::*;

struct Args {
    positional: Vec<String>,
    flags: std::collections::BTreeMap<String, String>,
    trailing: Vec<String>,
}

fn parse_args() -> Args {
    let mut positional = Vec::new();
    let mut flags = std::collections::BTreeMap::new();
    let mut trailing = Vec::new();
    let mut it = std::env::args().skip(1).peekable();
    let mut in_trailing = false;
    while let Some(a) = it.next() {
        if in_trailing {
            trailing.push(a);
        } else if a == "--" {
            in_trailing = true;
        } else if let Some(name) = a.strip_prefix("--") {
            let val = if it.peek().is_some_and(|v| !v.starts_with("--")) {
                it.next().unwrap_or_default()
            } else {
                "true".to_string()
            };
            flags.insert(name.to_string(), val);
        } else {
            positional.push(a);
        }
    }
    Args {
        positional,
        flags,
        trailing,
    }
}

impl Args {
    fn flag_u64(&self, name: &str, default: u64) -> u64 {
        self.flags
            .get(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| die(&format!("--{name} expects a number")))
            })
            .unwrap_or(default)
    }
    fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }
}

fn die(msg: &str) -> ! {
    eprintln!("emsplit: {msg}");
    eprintln!("run `emsplit help` for usage");
    std::process::exit(2)
}

fn read_keys(path: &Path) -> Vec<u64> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .unwrap_or_else(|e| die(&format!("cannot read {}: {e}", path.display())));
    if bytes.len() % 8 != 0 {
        die(&format!(
            "{} is not a u64 file (length {} not a multiple of 8)",
            path.display(),
            bytes.len()
        ));
    }
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect()
}

fn write_keys(path: &Path, keys: &[u64]) {
    let mut out = Vec::with_capacity(keys.len() * 8);
    for k in keys {
        out.extend_from_slice(&k.to_le_bytes());
    }
    std::fs::write(path, out)
        .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
}

/// Read a flat `u64` file as `(src, dst)` edge pairs (16 bytes/edge).
fn read_pairs(path: &Path) -> Vec<(u64, u64)> {
    let keys = read_keys(path);
    if !keys.len().is_multiple_of(2) {
        die(&format!(
            "{} is not an edge pair file (odd u64 count {})",
            path.display(),
            keys.len()
        ));
    }
    keys.chunks_exact(2).map(|c| (c[0], c[1])).collect()
}

/// Load `graph-build`'s output as the canonical graph it already is:
/// sort and dedup only, so a `--directed` or `--keep-loops` build is not
/// symmetrized or stripped of its loops a second time.
fn load_canonical(ctx: &EmContext, path: &Path) -> Graph {
    let raw = edges_from_pairs(ctx, &read_pairs(path))
        .unwrap_or_else(|e| die(&format!("load failed: {e}")));
    let opts = BuildOptions {
        symmetrize: false,
        drop_self_loops: false,
        vertices: None,
    };
    build_graph(ctx, &raw, &opts).unwrap_or_else(|e| die(&format!("graph load failed: {e}")))
}

fn write_pairs(path: &Path, pairs: &[(u64, u64)]) {
    let mut keys = Vec::with_capacity(pairs.len() * 2);
    for &(s, d) in pairs {
        keys.push(s);
        keys.push(d);
    }
    write_keys(path, &keys);
}

fn config(args: &Args) -> EmConfig {
    let mem = args.flag_u64("mem", 65536) as usize;
    let block = args.flag_u64("block", 1024) as usize;
    EmConfig::new(mem, block)
        .unwrap_or_else(|e| die(&format!("bad geometry: {e}")))
        .with_workers(args.flag_u64("workers", 1) as usize)
        .with_cache_blocks(args.flag_u64("cache-blocks", 0) as usize)
}

fn machine(args: &Args) -> EmContext {
    let ctx = EmContext::new_in_memory(config(args));
    setup_squeeze(&ctx, args);
    ctx
}

/// With `--mem-squeeze W`, ratchet the live budget down to `W` words
/// `--squeeze-at-ms` milliseconds into the run, and back to the configured
/// `M` after `--restore-at-ms` (0 = never restore). Runs detached: the
/// squeeze lands mid-job and the algorithms adapt at their next phase
/// boundary.
fn setup_squeeze(ctx: &EmContext, args: &Args) {
    let target = args.flag_u64("mem-squeeze", 0) as usize;
    if target == 0 {
        return;
    }
    let at = args.flag_u64("squeeze-at-ms", 5);
    let restore = args.flag_u64("restore-at-ms", 0);
    let full = ctx.config().mem_capacity();
    let ctx = ctx.clone();
    std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(at));
        let got = ctx.set_mem_budget(target);
        eprintln!("[governor] squeezed budget to {got} words");
        if restore > 0 {
            std::thread::sleep(std::time::Duration::from_millis(restore));
            ctx.set_mem_budget(full);
            eprintln!("[governor] restored budget to {full} words");
        }
    });
}

fn load(ctx: &EmContext, path: &Path) -> EmFile<u64> {
    let keys = read_keys(path);
    ctx.stats()
        .paused(|| EmFile::from_slice(ctx, &keys))
        .unwrap_or_else(|e| die(&format!("load failed: {e}")))
}

fn spec_from(args: &Args, n: u64) -> ProblemSpec {
    let k = args.flag_u64("k", 0);
    if k == 0 {
        die("--k is required");
    }
    ProblemSpec::builder(n, k)
        .min_size(args.flag_u64("min", 0))
        .max_size(args.flag_u64("max", n))
        .build()
        .unwrap_or_else(|e| die(&format!("infeasible spec: {e}")))
}

/// Armed tracing state for one command, from `--trace` / `--trace-summary`.
struct TraceSetup {
    ring: Option<RingSink>,
    path: Option<PathBuf>,
}

/// Install a trace sink on `ctx` if the flags ask for one. `--trace FILE`
/// streams JSONL to the file; `--trace-summary` buffers events in memory
/// (bounded ring) and renders the report at the end of the command.
fn setup_trace(ctx: &EmContext, args: &Args) -> TraceSetup {
    let mut setup = TraceSetup {
        ring: None,
        path: None,
    };
    if let Some(p) = args.flags.get("trace") {
        if p == "true" {
            die("--trace expects a file path");
        }
        let path = PathBuf::from(p);
        ctx.trace_to_file(&path)
            .unwrap_or_else(|e| die(&format!("cannot open trace {}: {e}", path.display())));
        setup.path = Some(path);
    } else if args.has("trace-summary") {
        let ring = RingSink::new(1 << 20);
        ctx.set_trace_sink(Box::new(ring.clone()));
        setup.ring = Some(ring);
    }
    setup
}

/// Finish the trace (if one was armed) and render/report it.
fn finish_trace(ctx: &EmContext, setup: TraceSetup) {
    if setup.ring.is_none() && setup.path.is_none() {
        return;
    }
    ctx.finish_trace();
    if let Some(ring) = setup.ring {
        if ring.dropped() > 0 {
            eprintln!(
                "[trace] ring overflow: {} oldest events dropped",
                ring.dropped()
            );
        }
        let report = TraceReport::from_events(&ring.events());
        eprint!("{}", report.render_tree());
        eprintln!();
        eprint!("{}", report.render_files());
    }
    if let Some(path) = setup.path {
        eprintln!("[trace] wrote {}", path.display());
    }
}

fn print_stats(ctx: &EmContext, args: &Args) {
    let c = ctx.stats().snapshot();
    if args.has("mem-governor") || c.mem_denials != 0 || c.mem_reclaims != 0 {
        eprintln!(
            "[stats] memory: budget {} / {} words configured; {} denials, {} reclaims",
            ctx.mem_budget(),
            ctx.config().mem_capacity(),
            c.mem_denials,
            c.mem_reclaims
        );
    }
    if args.has("mem-governor") {
        let g = ctx.governor().snapshot();
        eprintln!(
            "[governor] total={} floors={} denials={} squeezes={} restores={}",
            g.total, g.floor_total, g.denials, g.squeezes, g.restores
        );
        for l in &g.leases {
            eprintln!(
                "[governor]   lease {} floor={} weight={} granted={}",
                l.name, l.floor, l.weight, l.granted
            );
        }
    }
    eprintln!(
        "[stats] {} I/Os ({} reads, {} writes); peak memory {} / {} words",
        c.total_ios(),
        c.reads,
        c.writes,
        ctx.mem().peak(),
        ctx.mem().capacity()
    );
    if ctx.cache().is_enabled() {
        eprintln!(
            "[stats] cache: {} hits / {} misses ({:.1}% hit rate); {} physical I/Os",
            c.cache_hits,
            c.cache_misses,
            100.0 * c.cache_hit_rate(),
            c.physical_ios()
        );
    }
    for (phase, pc) in ctx.stats().phase_totals() {
        eprintln!("[stats]   {phase:<28} {:>8} I/Os", pc.total_ios());
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let cmd = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("help");
    match cmd {
        "gen" => {
            let path = PathBuf::from(
                args.positional
                    .get(1)
                    .unwrap_or_else(|| die("gen needs <file>")),
            );
            let n = args
                .positional
                .get(2)
                .and_then(|s| s.parse::<u64>().ok())
                .unwrap_or_else(|| die("gen needs <n>"));
            let seed = args.flag_u64("seed", 42);
            let wl = match args.flags.get("workload").map(String::as_str) {
                None | Some("uniform") => Workload::UniformPerm,
                Some("sorted") => Workload::Sorted,
                Some("reversed") => Workload::Reversed,
                Some("zipf") => Workload::ZipfLike {
                    values: n.max(2) / 10,
                    s: 1.1,
                },
                Some(other) => die(&format!("unknown workload {other}")),
            };
            let keys = generate(wl, n, seed);
            write_keys(&path, &keys);
            eprintln!("wrote {n} records to {}", path.display());
        }
        "splitters" => {
            let path = PathBuf::from(
                args.positional
                    .get(1)
                    .unwrap_or_else(|| die("splitters needs <file>")),
            );
            let ctx = machine(&args);
            let trace = setup_trace(&ctx, &args);
            let file = load(&ctx, &path);
            let spec = spec_from(&args, file.len());
            let phase = ctx.stats().phase_guard("emsplit/splitters");
            let sp = approx_splitters(&file, &spec);
            drop(phase);
            let sp = sp.unwrap_or_else(|e| die(&format!("splitters failed: {e}")));
            let mut out = std::io::stdout().lock();
            for s in &sp {
                writeln!(out, "{s}").expect("stdout");
            }
            if args.has("stats") || args.has("mem-governor") {
                print_stats(&ctx, &args);
            }
            finish_trace(&ctx, trace);
        }
        "partition" => {
            let path = PathBuf::from(
                args.positional
                    .get(1)
                    .unwrap_or_else(|| die("partition needs <file>")),
            );
            let out_dir = PathBuf::from(
                args.positional
                    .get(2)
                    .unwrap_or_else(|| die("partition needs <out-dir>")),
            );
            std::fs::create_dir_all(&out_dir)
                .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", out_dir.display())));
            let ctx = machine(&args);
            let trace = setup_trace(&ctx, &args);
            let file = load(&ctx, &path);
            let spec = spec_from(&args, file.len());
            let phase = ctx.stats().phase_guard("emsplit/partition");
            let parts = approx_partitioning(&file, &spec);
            drop(phase);
            let parts = parts.unwrap_or_else(|e| die(&format!("partitioning failed: {e}")));
            for (i, p) in parts.iter().enumerate() {
                let keys = ctx
                    .stats()
                    .paused(|| p.to_vec())
                    .unwrap_or_else(|e| die(&format!("read-back failed: {e}")));
                write_keys(&out_dir.join(format!("part-{i:04}.bin")), &keys);
            }
            eprintln!("wrote {} partitions to {}", parts.len(), out_dir.display());
            if args.has("stats") || args.has("mem-governor") {
                print_stats(&ctx, &args);
            }
            finish_trace(&ctx, trace);
        }
        "quantiles" => {
            let path = PathBuf::from(
                args.positional
                    .get(1)
                    .unwrap_or_else(|| die("quantiles needs <file>")),
            );
            let q = args.flag_u64("q", 0);
            if q < 2 {
                die("--q must be at least 2");
            }
            let ctx = machine(&args);
            let trace = setup_trace(&ctx, &args);
            let file = load(&ctx, &path);
            let phase = ctx.stats().phase_guard("emsplit/quantiles");
            let qs = quantiles(&file, q);
            drop(phase);
            let qs = qs.unwrap_or_else(|e| die(&format!("quantiles failed: {e}")));
            let mut out = std::io::stdout().lock();
            for s in &qs {
                writeln!(out, "{s}").expect("stdout");
            }
            if args.has("stats") || args.has("mem-governor") {
                print_stats(&ctx, &args);
            }
            finish_trace(&ctx, trace);
        }
        "select" => {
            let path = PathBuf::from(
                args.positional
                    .get(1)
                    .unwrap_or_else(|| die("select needs <file>")),
            );
            let ranks: Vec<u64> = args
                .flags
                .get("ranks")
                .unwrap_or_else(|| die("select needs --ranks r1,r2,..."))
                .split(',')
                .map(|t| {
                    t.trim()
                        .parse()
                        .unwrap_or_else(|_| die(&format!("bad rank {t:?}")))
                })
                .collect();
            if ranks.is_empty() {
                die("select needs at least one rank");
            }
            let ctx = machine(&args);
            let trace = setup_trace(&ctx, &args);
            let file = load(&ctx, &path);
            let phase = ctx.stats().phase_guard("emsplit/select");
            let ans = multi_select(&file, &ranks);
            drop(phase);
            let ans = ans.unwrap_or_else(|e| die(&format!("select failed: {e}")));
            let mut out = std::io::stdout().lock();
            for x in &ans {
                writeln!(out, "{x}").expect("stdout");
            }
            if args.has("stats") || args.has("mem-governor") {
                print_stats(&ctx, &args);
            }
            finish_trace(&ctx, trace);
        }
        "serve" => {
            let store = PathBuf::from(
                args.positional
                    .get(1)
                    .unwrap_or_else(|| die("serve needs <store-dir>")),
            );
            std::fs::create_dir_all(&store)
                .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", store.display())));
            // --shards N serves a splitter-partitioned fleet under the
            // store root; the router's context carries the fleet-shared
            // metrics registry, so sampling/tracing attach to it either way.
            let shards = args.flag_u64("shards", 0) as usize;
            let (ctx, shard_ctxs) = if shards > 0 {
                let (rc, scs) =
                    shard_fleet_on_disk(config(&args), &store, shards).unwrap_or_else(|e| {
                        die(&format!("cannot open fleet {}: {e}", store.display()))
                    });
                (rc, Some(scs))
            } else {
                let ctx = EmContext::new_on_disk(config(&args), &store).unwrap_or_else(|e| {
                    die(&format!("cannot open store {}: {e}", store.display()))
                });
                (ctx, None)
            };
            setup_squeeze(&ctx, &args);
            let trace = setup_trace(&ctx, &args);
            // --metrics / --metrics-file arm the live registry; the
            // sampler (if any) snapshots it into a JSONL series for
            // `emsplit metrics-report`.
            let metrics_file = args.flags.get("metrics-file").cloned();
            if metrics_file.as_deref() == Some("true") {
                die("--metrics-file expects a file path");
            }
            if args.has("metrics") || metrics_file.is_some() {
                ctx.metrics().set_enabled(true);
            }
            let sampler = metrics_file.as_ref().map(|p| {
                let interval = std::time::Duration::from_millis(
                    args.flag_u64("metrics-interval-ms", 100).max(1),
                );
                Sampler::to_file(ctx.metrics().clone(), ctx.clock(), interval, p)
                    .unwrap_or_else(|e| die(&format!("cannot open metrics file {p}: {e}")))
            });
            let defaults = ServeOptions::default();
            let deadline_ms = args.flag_u64("deadline-ms", 0);
            let opts = ServeOptions {
                batch_max: args.flag_u64("batch-max", defaults.batch_max as u64) as usize,
                batch_window: std::time::Duration::from_millis(
                    args.flag_u64("batch-window-ms", defaults.batch_window.as_millis() as u64),
                ),
                queue_depth: args.flag_u64("queue-depth", defaults.queue_depth as u64) as usize,
                refine: !args.has("no-refine"),
                deadline: (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms)),
                degraded: args.has("degraded"),
                breaker_threshold: args
                    .flag_u64("breaker-threshold", defaults.breaker_threshold as u64)
                    as u32,
                probe_cooldown: std::time::Duration::from_millis(
                    args.flag_u64("probe-ms", defaults.probe_cooldown.as_millis() as u64),
                ),
                lease_floor: args.flag_u64("lease-floor", 0) as usize,
                lease_weight: args.flag_u64("lease-weight", 1) as u32,
                ..Default::default()
            };
            let stdin = std::io::stdin();
            let report = match &shard_ctxs {
                Some(scs) => {
                    let mut router = Router::<u64>::start(&ctx, scs, opts)
                        .unwrap_or_else(|e| die(&format!("cannot start fleet: {e}")));
                    let session = serve_session(
                        &router,
                        stdin.lock(),
                        std::io::stdout().lock(),
                        std::io::stderr().lock(),
                    );
                    let merged = router.shutdown();
                    let report = session
                        .and(merged)
                        .unwrap_or_else(|e| die(&format!("serve failed: {e}")));
                    eprintln!(
                        "[serve] fleet of {} shards; {} key ranges degraded by routing",
                        scs.len(),
                        router.degraded_key_ranges()
                    );
                    report
                }
                None => {
                    let mut server = QueryServer::<u64>::start(&ctx, opts)
                        .unwrap_or_else(|e| die(&format!("cannot start server: {e}")));
                    let session = serve_session(
                        &server,
                        stdin.lock(),
                        std::io::stdout().lock(),
                        std::io::stderr().lock(),
                    );
                    let report = server.shutdown();
                    session
                        .and(report)
                        .unwrap_or_else(|e| die(&format!("serve failed: {e}")))
                }
            };
            eprintln!(
                "[serve] {} queries in {} batches; {} index hits, {} selected; \
                 {} failed ({} quarantined), {} shed, {} degraded ({} on memory), \
                 {} breaker trips; budget {} words, {} leases (floor {}), {} lease denials",
                report.queries,
                report.batches,
                report.index_hits,
                report.selected,
                report.failed,
                report.quarantined,
                report.shed,
                report.degraded,
                report.mem_degraded,
                report.breaker_trips,
                report.mem_budget_words,
                report.leases,
                report.lease_floor_words,
                report.lease_denials
            );
            if let Some(s) = sampler {
                match s.stop() {
                    Ok(()) => eprintln!(
                        "[metrics] wrote series to {}",
                        metrics_file.as_deref().unwrap_or("?")
                    ),
                    Err(e) => eprintln!("[metrics] sampler failed: {e}"),
                }
            }
            if args.has("stats") || args.has("mem-governor") {
                print_stats(&ctx, &args);
            }
            finish_trace(&ctx, trace);
        }
        "shard-build" => {
            let store = PathBuf::from(
                args.positional
                    .get(1)
                    .unwrap_or_else(|| die("shard-build needs <store-dir>")),
            );
            let name = args
                .positional
                .get(2)
                .unwrap_or_else(|| die("shard-build needs <name>"))
                .clone();
            let path = PathBuf::from(
                args.positional
                    .get(3)
                    .unwrap_or_else(|| die("shard-build needs <file>")),
            );
            let shards = args.flag_u64("shards", 0) as usize;
            if shards == 0 {
                die("--shards is required");
            }
            std::fs::create_dir_all(&store)
                .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", store.display())));
            let (rc, scs) = shard_fleet_on_disk(config(&args), &store, shards)
                .unwrap_or_else(|e| die(&format!("cannot open fleet {}: {e}", store.display())));
            let mut router = Router::<u64>::start(&rc, &scs, ServeOptions::default())
                .unwrap_or_else(|e| die(&format!("cannot start fleet: {e}")));
            let keys = read_keys(&path);
            let n = router
                .register(&name, keys)
                .unwrap_or_else(|e| die(&format!("shard build failed: {e}")));
            // One "cut-rank boundary-key" line per shard holding data —
            // the journaled splitter boundaries the router routes by.
            let mut out = std::io::stdout().lock();
            for (rank, key) in router.boundaries(&name).unwrap_or_default() {
                writeln!(out, "{rank} {key}").expect("stdout");
            }
            eprintln!(
                "sharded {n} records of {name} across {shards} shards in {}",
                store.display()
            );
            router
                .shutdown()
                .unwrap_or_else(|e| die(&format!("fleet shutdown failed: {e}")));
            if args.has("stats") || args.has("mem-governor") {
                print_stats(&rc, &args);
            }
        }
        "metrics-report" => {
            let path = PathBuf::from(
                args.positional
                    .get(1)
                    .unwrap_or_else(|| die("metrics-report needs <series.jsonl>")),
            );
            let input = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| die(&format!("cannot read {}: {e}", path.display())));
            let report = render_series_report(&input)
                .unwrap_or_else(|e| die(&format!("bad metrics series: {e}")));
            print!("{report}");
        }
        "sort" => {
            let path = PathBuf::from(
                args.positional
                    .get(1)
                    .unwrap_or_else(|| die("sort needs <file>")),
            );
            let out_path = PathBuf::from(
                args.positional
                    .get(2)
                    .unwrap_or_else(|| die("sort needs <out-file>")),
            );
            let ctx = machine(&args);
            let trace = setup_trace(&ctx, &args);
            let file = load(&ctx, &path);
            let phase = ctx.stats().phase_guard("emsplit/sort");
            let sorted = external_sort(&file);
            drop(phase);
            let sorted = sorted.unwrap_or_else(|e| die(&format!("sort failed: {e}")));
            let keys = ctx
                .stats()
                .paused(|| sorted.to_vec())
                .unwrap_or_else(|e| die(&format!("read-back failed: {e}")));
            write_keys(&out_path, &keys);
            eprintln!("sorted {} records into {}", keys.len(), out_path.display());
            if args.has("stats") || args.has("mem-governor") {
                print_stats(&ctx, &args);
            }
            finish_trace(&ctx, trace);
        }
        "verify" => {
            let path = PathBuf::from(
                args.positional
                    .get(1)
                    .unwrap_or_else(|| die("verify needs <file>")),
            );
            let ctx = machine(&args);
            let file = load(&ctx, &path);
            let spec = spec_from(&args, file.len());
            let splitters: Vec<u64> = args
                .trailing
                .iter()
                .map(|s| {
                    s.parse()
                        .unwrap_or_else(|_| die("splitters must be u64 keys"))
                })
                .collect();
            let mut sp = splitters;
            sp.sort_unstable();
            let rep = verify_splitters(&file, &sp, &spec)
                .unwrap_or_else(|e| die(&format!("verify failed: {e}")));
            if rep.ok {
                eprintln!(
                    "OK: all {} partition sizes within [{}, {}]",
                    rep.sizes.len(),
                    spec.a,
                    spec.b
                );
            } else {
                eprintln!(
                    "INVALID: sizes {:?}, violations at {:?}",
                    rep.sizes, rep.violations
                );
                return ExitCode::FAILURE;
            }
        }
        "graph-gen" => {
            let path = PathBuf::from(
                args.positional
                    .get(1)
                    .unwrap_or_else(|| die("graph-gen needs <file>")),
            );
            let pairs = match args.flags.get("kind").map(String::as_str) {
                None | Some("rmat") => {
                    let scale = args.flag_u64("scale", 10) as u32;
                    let edges = args.flag_u64("edges", 1 << (scale + 2));
                    rmat_edges(scale, edges, args.flag_u64("seed", 42))
                }
                Some("grid") => grid_edges(args.flag_u64("rows", 32), args.flag_u64("cols", 32)),
                Some(other) => die(&format!("unknown graph kind {other}")),
            };
            write_pairs(&path, &pairs);
            eprintln!("wrote {} edges to {}", pairs.len(), path.display());
        }
        "graph-build" => {
            let path = PathBuf::from(
                args.positional
                    .get(1)
                    .unwrap_or_else(|| die("graph-build needs <file>")),
            );
            let out_path = PathBuf::from(
                args.positional
                    .get(2)
                    .unwrap_or_else(|| die("graph-build needs <out-file>")),
            );
            let ctx = machine(&args);
            let trace = setup_trace(&ctx, &args);
            let raw = edges_from_pairs(&ctx, &read_pairs(&path))
                .unwrap_or_else(|e| die(&format!("load failed: {e}")));
            let vertices = args.flag_u64("vertices", 0);
            let opts = BuildOptions {
                symmetrize: !args.has("directed"),
                drop_self_loops: !args.has("keep-loops"),
                vertices: (vertices > 0).then_some(vertices),
            };
            let g = build_graph(&ctx, &raw, &opts)
                .unwrap_or_else(|e| die(&format!("graph build failed: {e}")));
            let canon = ctx
                .stats()
                .paused(|| g.edges().to_vec())
                .unwrap_or_else(|e| die(&format!("read-back failed: {e}")));
            write_pairs(
                &out_path,
                &canon.iter().map(|e| (e.src, e.dst)).collect::<Vec<_>>(),
            );
            eprintln!(
                "canonicalized {} raw edges into {} ({} vertices, {} edges, max degree {})",
                raw.len(),
                out_path.display(),
                g.vertices(),
                g.num_edges(),
                g.max_degree()
            );
            if args.has("stats") || args.has("mem-governor") {
                print_stats(&ctx, &args);
            }
            finish_trace(&ctx, trace);
        }
        "graph-cluster" => {
            let path = PathBuf::from(
                args.positional
                    .get(1)
                    .unwrap_or_else(|| die("graph-cluster needs <file>")),
            );
            let ctx = machine(&args);
            let trace = setup_trace(&ctx, &args);
            let g = load_canonical(&ctx, &path);
            let opts = ClusterOptions {
                rounds: args.flag_u64("rounds", 8) as u32,
                max_cluster_size: args.flag_u64("max-size", 0),
            };
            let c = cluster(&g, &opts).unwrap_or_else(|e| die(&format!("clustering failed: {e}")));
            let digest =
                labels_digest(&c.labels).unwrap_or_else(|e| die(&format!("digest failed: {e}")));
            println!("clusters={} digest={digest:016x}", c.clusters);
            eprintln!(
                "[cluster] {} vertices, {} rounds run, moves per round {:?}",
                g.vertices(),
                c.rounds_run,
                c.moves
            );
            if let Some(p) = args.flags.get("labels") {
                if p == "true" {
                    die("--labels expects a file path");
                }
                let labels = ctx
                    .stats()
                    .paused(|| c.labels.to_vec())
                    .unwrap_or_else(|e| die(&format!("read-back failed: {e}")));
                write_keys(&PathBuf::from(p), &labels);
                eprintln!("[cluster] wrote {} labels to {p}", labels.len());
            }
            if args.has("stats") || args.has("mem-governor") {
                print_stats(&ctx, &args);
            }
            finish_trace(&ctx, trace);
        }
        "graph-stats" => {
            let path = PathBuf::from(
                args.positional
                    .get(1)
                    .unwrap_or_else(|| die("graph-stats needs <file>")),
            );
            let ctx = machine(&args);
            let trace = setup_trace(&ctx, &args);
            let g = load_canonical(&ctx, &path);
            println!(
                "vertices={} edges={} max-degree={}",
                g.vertices(),
                g.num_edges(),
                g.max_degree()
            );
            let k = args.flag_u64("buckets", 0);
            if k > 0 {
                let b = degree_buckets(&g, k)
                    .unwrap_or_else(|e| die(&format!("bucketing failed: {e}")));
                let ranges = b
                    .score_ranges()
                    .unwrap_or_else(|e| die(&format!("bucket scan failed: {e}")));
                for (i, (size, range)) in b.sizes().iter().zip(&ranges).enumerate() {
                    match range {
                        Some((lo, hi)) => {
                            println!("bucket={i} size={size} degrees=[{lo}, {hi}]")
                        }
                        None => println!("bucket={i} size=0"),
                    }
                }
            }
            if args.has("stats") || args.has("mem-governor") {
                print_stats(&ctx, &args);
            }
            finish_trace(&ctx, trace);
        }
        _ => {
            eprintln!(
                "emsplit — approximate partitions and splitters in external memory\n\
                 \n\
                 usage:\n\
                 \x20 emsplit gen <file> <n> [--workload uniform|sorted|reversed|zipf] [--seed S]\n\
                 \x20 emsplit splitters <file> --k K [--min a] [--max b] [--stats]\n\
                 \x20 emsplit partition <file> <out-dir> --k K [--min a] [--max b] [--stats]\n\
                 \x20 emsplit quantiles <file> --q Q [--stats]\n\
                 \x20 emsplit select <file> --ranks r1,r2,... [--stats]\n\
                 \x20 emsplit sort <file> <out-file> [--stats]\n\
                 \x20 emsplit serve <store-dir> [--shards N] [--batch-max N] [--batch-window-ms W]\n\
                 \x20               [--no-refine] [--deadline-ms D] [--degraded] [--breaker-threshold K]\n\
                 \x20               [--probe-ms P] [--metrics] [--metrics-file FILE] [--metrics-interval-ms I]\n\
                 \x20 emsplit shard-build <store-dir> <name> <file> --shards N\n\
                 \x20 emsplit metrics-report <series.jsonl>\n\
                 \x20 emsplit verify <file> --k K [--min a] [--max b] -- s1 s2 ...\n\
                 \x20 emsplit graph-gen <file> [--kind rmat|grid] [--scale S --edges E --seed S | --rows R --cols C]\n\
                 \x20 emsplit graph-build <file> <out-file> [--directed] [--keep-loops] [--vertices N] [--stats]\n\
                 \x20 emsplit graph-cluster <canonical-file> [--rounds R] [--max-size C] [--labels FILE] [--stats]\n\
                 \x20 emsplit graph-stats <canonical-file> [--buckets K]\n\
                 \x20   (graph files are flat u64 pair arrays: 16 bytes per src,dst edge;\n\
                 \x20    graph-cluster and graph-stats read graph-build's output as is)\n\
                 \n\
                 common flags: --mem M --block B   (machine geometry, records)\n\
                 \x20             --workers W        (parallel sort threads; same logical I/Os)\n\
                 \x20             --cache-blocks C   (buffer-pool block cache; 0 = off)\n\
                 \x20             --trace FILE       (stream a JSONL I/O trace; see trace_report)\n\
                 \x20             --trace-summary    (print span tree + file access to stderr)\n\
                 files are flat little-endian u64 arrays (8 bytes per record)"
            );
        }
    }
    ExitCode::SUCCESS
}
