//! `perf`: wall time of the em-splitters stack on the Directory backend.
//!
//! ```text
//! perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! With `--workload`, runs that workload in this process: discarded
//! warm-up reps for a fifth of `--seconds`, then measured reps until
//! `--seconds` have passed, each in a fresh context and store. It prints
//! every metric with its unit, median, quartiles and sample count, writes
//! `bench_results/perf/<workload>.json`, and prints as its last line one
//! JSON object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of one further, traced rep (`--trace 1`). It exits nonzero if
//! any output fails its check.
//!
//! Without `--workload`, runs every workload traced, each in a child
//! process of its own, so peak memory belongs to one workload.
//! See `README.md` for the metrics and how to compare two commits.

#![deny(unsafe_code)]

mod jobs;
mod probes;
mod stats;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use emcore::metrics::bucket_floor;
use emcore::trace::escape_json;
use emcore::{Counters, EmConfig, EmContext, MetricsSnapshot, RingSink, TraceReport};

use jobs::{Checked, Scale, Workload};
use stats::{fold, summarize, tail, Fold, Summary};

const DEFAULT_SEED: u64 = 20140623;
/// `run_seconds` in BENCHMARK.json, whose runner passes it as `--seconds`.
const DEFAULT_SECONDS: f64 = 15.0;
/// Workload names, in the order a full run takes them.
const WORKLOADS: [&str; 4] = ["sort", "partition", "serve-zipf", "graph-rmat"];
/// Measured reps at least, however long they take, and at most.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 200;
/// Share of `--seconds` spent on discarded warm-up reps before measuring.
/// Creating and deleting files on a shared disk slows down under sustained
/// churn; warming up for seconds, not one rep, lets a run measure the
/// loaded state rather than whatever idle time came before it.
const WARM_UP_SHARE: f64 = 0.2;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => a.workload = Some(value),
            "--workload" => {
                return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"))
            }
            "--seed" => a.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}\nusage: perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => match run_named(name, &args) {
            Ok(out) => {
                out.print(&args);
                if let Err(e) = out.save(&args) {
                    eprintln!("perf: could not write results: {e}");
                    return ExitCode::FAILURE;
                }
                println!("{}", out.json_line(args.trace));
                if out.correct() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("perf: {name}: {e}");
                ExitCode::FAILURE
            }
        },
        None => run_all(&args),
    }
}

/// Run every workload traced, each in its own child process.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perf: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for name in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", "1"]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        match cmd.status() {
            Ok(s) if s.success() => {}
            Ok(s) => failed.push(format!("{name} ({s})")),
            Err(e) => failed.push(format!("{name} ({e})")),
        }
    }
    if failed.is_empty() {
        println!(
            "perf: all {} workloads passed their checks",
            WORKLOADS.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("perf: failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn run_named(name: &str, args: &Args) -> emcore::Result<Outcome> {
    let scale = if args.smoke { jobs::SMOKE } else { jobs::FULL };
    let seed = args.seed;
    match name {
        "sort" => run(name, &jobs::Sort::new(&scale, seed), &scale, args),
        "partition" => run(name, &jobs::Partition::new(&scale, seed)?, &scale, args),
        "serve-zipf" => run(name, &jobs::Serve::new(&scale, seed), &scale, args),
        "graph-rmat" => run(name, &jobs::Graph::new(&scale, seed), &scale, args),
        _ => unreachable!("parse_args admits only known workloads"),
    }
}

// ---------------------------------------------------------------------------
// One rep
// ---------------------------------------------------------------------------

/// What one rep measured.
struct Rep {
    setup_s: f64,
    job_s: f64,
    /// Counters the job charged.
    ios: Counters,
    /// Peak of the memory the EM tracker charged during the rep, in MB of
    /// 8-byte words.
    mem_peak_mb: f64,
    checked: Checked,
    traced: Option<Traced>,
}

/// What only the traced rep records.
struct Traced {
    report: TraceReport,
    /// Metric histograms before and after the job.
    metrics: (MetricsSnapshot, MetricsSnapshot),
    files_created: u64,
}

impl Traced {
    /// Sum of a histogram's samples recorded during the job, each taken at
    /// its bucket's lower bound (within 12.5% below the true sum).
    fn hist_sum(&self, name: &str) -> f64 {
        let get = |s: &MetricsSnapshot| s.find(name, &[]).and_then(|m| m.hist.clone());
        let (Some(after), before) = (get(&self.metrics.1), get(&self.metrics.0)) else {
            return 0.0;
        };
        let delta = after.since(&before.unwrap_or_default());
        delta
            .buckets
            .iter()
            .map(|(&i, &c)| bucket_floor(i) as f64 * c as f64)
            .sum()
    }
}

fn config(scale: &Scale, cache_blocks: usize) -> emcore::Result<EmConfig> {
    Ok(EmConfig::new(scale.m, scale.b)?
        .with_workers(1)
        .with_cache_blocks(cache_blocks)
        .with_device_latency_us(0))
}

/// Set up, run and check one rep in a fresh context over the empty
/// directory `dir`, which is removed afterwards.
fn rep<W: Workload>(
    w: &W,
    cfg: EmConfig,
    dir: &Path,
    i: usize,
    traced: bool,
) -> emcore::Result<Rep> {
    let _ = std::fs::remove_dir_all(dir);
    let r = rep_in(w, cfg, dir, i, traced);
    let _ = std::fs::remove_dir_all(dir);
    r
}

fn rep_in<W: Workload>(
    w: &W,
    cfg: EmConfig,
    dir: &Path,
    i: usize,
    traced: bool,
) -> emcore::Result<Rep> {
    let t = Instant::now();
    let ctx = EmContext::new_on_disk(cfg, dir)?;
    let staged = w.setup(&ctx, i)?;
    let setup_s = t.elapsed().as_secs_f64();

    // The traced rep records spans, live metrics and the file ids the job
    // takes; the other reps run with all of that off.
    let ring = RingSink::new(0);
    let trace_start = if traced {
        ctx.metrics().set_enabled(true);
        let start = (ctx.metrics().snapshot(0), ctx.create_file::<u64>()?.id());
        ctx.set_trace_sink(Box::new(ring.clone()));
        Some(start)
    } else {
        None
    };
    let before = ctx.stats().snapshot();
    let t = Instant::now();
    let out = {
        let _job = ctx.stats().phase_guard("perf/job");
        w.job(&ctx, staged)
    };
    let job_s = t.elapsed().as_secs_f64();
    let ios = ctx.stats().snapshot().since(&before);
    let mem_peak_mb = ctx.mem().peak() as f64 * 8.0 / 1e6;
    let traced = match trace_start {
        Some((metrics_before, first_id)) => {
            ctx.finish_trace();
            let after = ctx.metrics().snapshot(0);
            ctx.metrics().set_enabled(false);
            Some(Traced {
                report: TraceReport::from_events(&ring.events()),
                metrics: (metrics_before, after),
                files_created: ctx.create_file::<u64>()?.id() - first_id - 1,
            })
        }
        None => None,
    };
    let mut checked = w.check(&ctx, out?, &ios)?;
    if ios.retries + ios.corrupt_reads > 0 {
        checked.failed = checked.failed.max(1);
        checked
            .error
            .get_or_insert_with(|| format!("job retried or read corrupt blocks: {ios}"));
    }
    Ok(Rep {
        setup_s,
        job_s,
        ios,
        mem_peak_mb,
        checked,
        traced,
    })
}

// ---------------------------------------------------------------------------
// A run: warm-up, measured reps, optional traced rep and probes
// ---------------------------------------------------------------------------

/// One metric as reported: its name, unit, samples (one per measured rep,
/// in order) and their summary.
struct Metric {
    name: String,
    unit: &'static str,
    samples: Vec<f64>,
    s: Summary,
}

impl Metric {
    fn of(name: impl Into<String>, unit: &'static str, samples: Vec<f64>) -> Self {
        Metric {
            name: name.into(),
            unit,
            s: summarize(&samples),
            samples,
        }
    }

    fn one(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self::of(name, unit, vec![value])
    }
}

struct Outcome {
    workload: String,
    measured_reps: usize,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    digest: Option<u64>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    /// Percentiles of single-query latency in ms, pooled over the measured
    /// reps of a workload that has queries, by percentile (printed and
    /// saved, not gated).
    tails: Vec<(f64, Option<f64>)>,
}

/// A fresh directory for one run's stores, inside the benchmark's own
/// tree (unique per process and per run, so concurrent tests do not meet).
fn store_root() -> PathBuf {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".store")
        .join(format!("{}-{run}", std::process::id()))
}

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../bench_results/perf")
}

fn run<W: Workload>(name: &str, w: &W, scale: &Scale, args: &Args) -> emcore::Result<Outcome> {
    let cfg = config(scale, w.cache_blocks())?;
    let root = store_root();
    let (min_reps, seconds) = if args.smoke {
        (1, Duration::ZERO)
    } else {
        (MIN_REPS, Duration::from_secs_f64(args.seconds))
    };
    let warm_up = seconds.mul_f64(WARM_UP_SHARE);

    let mut o = Outcome {
        workload: name.to_string(),
        measured_reps: 0,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        digest: None,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        tails: Vec::new(),
    };
    let note = |o: &mut Outcome, r: emcore::Result<Rep>| -> Option<Rep> {
        match r {
            Ok(rep) => {
                o.attempted += rep.checked.attempted;
                o.failed += rep.checked.failed;
                o.errors.extend(rep.checked.error.clone());
                match (o.digest, rep.checked.digest) {
                    (Some(d), Some(got)) if d != got => {
                        o.failed += 1;
                        o.errors.push(format!(
                            "output digest {got:016x} differs from an earlier rep's {d:016x}"
                        ));
                    }
                    (None, got) => o.digest = got,
                    _ => {}
                }
                Some(rep)
            }
            Err(e) => {
                o.attempted += 1;
                o.failed += 1;
                o.errors.push(e.to_string());
                None
            }
        }
    };

    // A rep's index picks its inputs where a workload has several (the
    // serve streams). The warm-up and the measured reps count separately,
    // so two commits measure the same inputs in the same order however
    // many warm-up reps fit.
    let mut warm = 0;
    let start = Instant::now();
    while warm == 0 || (o.failed == 0 && start.elapsed() < warm_up) {
        let dir = root.join(format!("warm-{warm}"));
        note(&mut o, rep(w, cfg, &dir, warm, false));
        warm += 1;
    }
    let mut reps = Vec::new();
    let start = Instant::now();
    while o.failed == 0
        && reps.len() < MAX_REPS
        && (reps.len() < min_reps || start.elapsed() < seconds)
    {
        let i = reps.len();
        let dir = root.join(format!("rep-{i}"));
        reps.extend(note(&mut o, rep(w, cfg, &dir, i, false)));
    }

    let traced = if args.trace && o.failed == 0 {
        note(&mut o, rep(w, cfg, &root.join("traced"), 0, true))
    } else {
        None
    };
    let probes = traced.as_ref().map(|_| {
        let dir = root.join("probe");
        EmContext::new_on_disk(cfg, &dir).and_then(|ctx| w.probe(&ctx, &dir))
    });
    let _ = std::fs::remove_dir_all(&root);
    let probes = probes.transpose()?;
    if let Some(d) = o.digest {
        check_baseline(&mut o, d, args);
    }
    if reps.is_empty() {
        return Ok(o);
    }

    o.measured_reps = reps.len();
    let col = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let job_s = col(&|r| r.job_s);
    let untraced_job_s = summarize(&job_s).median;
    let op_ms: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.checked.op_ms.iter().copied())
        .collect();
    if !op_ms.is_empty() {
        let sorted_ops = stats::sorted(&op_ms);
        o.tails = [50.0, 90.0, 99.0]
            .map(|p| (p, tail(&sorted_ops, p)))
            .to_vec();
    }
    o.end_to_end = vec![
        Metric::of("setup_s", "s", col(&|r| r.setup_s)),
        Metric::of("job_s", "s", job_s),
        Metric::of(
            "ios_per_block",
            "io/block",
            col(&|r| r.ios.logical_ios() as f64 / r.checked.input_blocks.max(1) as f64),
        ),
        Metric::of("mem_peak_mb", "MB", col(&|r| r.mem_peak_mb)),
    ];
    if let (Some(t), Some(p)) = (traced, probes) {
        o.per_layer = per_layer(&t, &p, untraced_job_s, w.input_records());
        o.per_layer.push(Metric::one(
            "process.peak_rss_mb",
            "MB",
            probes::peak_rss_mb()?,
        ));
    }
    Ok(o)
}

/// Compare the run's output digest with the one checked in for this seed
/// and scale, if there is one.
fn check_baseline(o: &mut Outcome, digest: u64, args: &Args) {
    let path = results_dir()
        .join(format!("baseline-{}", args.seed))
        .join("digests.txt");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return;
    };
    let scale = if args.smoke { "smoke" } else { "full" };
    let want = text.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        (f.next() == Some(o.workload.as_str()) && f.next() == Some(scale))
            .then(|| f.next())
            .flatten()
    });
    if let Some(want) = want {
        if u64::from_str_radix(want, 16) != Ok(digest) {
            o.failed += 1;
            o.errors.push(format!(
                "output digest {digest:016x} differs from {want} in {}",
                path.display()
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------------

/// Crates whose self time and I/O the per-layer table reports.
const LIBRARY_CRATES: [&str; 5] = ["emsort", "emselect", "apsplit", "emserve", "emgraph"];

/// (crate, phase) pairs reported as `<crate>.<phase>_frac`.
const PHASES: [(&str, &str); 12] = [
    ("emsort", "run_formation"),
    ("emsort", "merge"),
    ("emselect", "sample_splitters"),
    ("emselect", "distribute"),
    ("emselect", "multi_partition"),
    ("emselect", "multi_select"),
    ("emselect", "split_at_rank"),
    ("emselect", "intermixed_select"),
    ("emserve", "query"),
    ("emserve", "index"),
    ("emgraph", "build"),
    ("emgraph", "cluster"),
];

/// Values a workload supplies itself; 0 on the workloads that do not.
const EXTRAS: [(&str, &str); 5] = [
    ("apsplit.io_bound_ratio", "ratio"),
    ("emserve.batch_occupancy_mean", "count"),
    ("emserve.index_hit_rate", "frac"),
    ("emgraph.rounds", "count"),
    ("emgraph.ios_per_round", "count"),
];

fn per_layer(rep: &Rep, p: &probes::Probes, untraced_job_s: f64, records: u64) -> Vec<Metric> {
    let t = rep
        .traced
        .as_ref()
        .expect("the traced rep carries its trace");
    let f: Fold = fold(&t.report);
    let job_us = f.root_us.max(1) as f64;
    let share = |us: u64| us as f64 / job_us;
    let ios = &rep.ios;
    let op_us: f64 = rep.checked.op_ms.iter().sum::<f64>() * 1e3;
    let mut m = vec![
        Metric::one(
            "trace_overhead_pct",
            "%",
            (rep.job_s / untraced_job_s - 1.0) * 100.0,
        ),
        Metric::one(
            "unattributed_frac",
            "frac",
            share(f.by_crate.get("harness").copied().unwrap_or(0)),
        ),
        Metric::one(
            "other_frac",
            "frac",
            share(f.by_crate.get("other").copied().unwrap_or(0)),
        ),
        Metric::one(
            "ns_per_record",
            "ns",
            untraced_job_s * 1e9 / records.max(1) as f64,
        ),
        Metric::one("emcore.scan_mb_s", "MB/s", p.scan_mb_s),
        Metric::one("emcore.raw_read_mb_s", "MB/s", p.raw_read_mb_s),
        Metric::one(
            "emcore.read_roofline_frac",
            "frac",
            p.scan_mb_s / p.raw_read_mb_s,
        ),
        Metric::one("emcore.write_mb_s", "MB/s", p.write_mb_s),
        Metric::one("emcore.raw_write_mb_s", "MB/s", p.raw_write_mb_s),
        Metric::one(
            "emcore.write_roofline_frac",
            "frac",
            p.write_mb_s / p.raw_write_mb_s,
        ),
        Metric::one("emcore.file_lifecycle_us", "us", p.file_lifecycle_us),
        Metric::one("emcore.journal_commit_ms", "ms", p.journal_commit_ms),
        Metric::one(
            "emcore.device_read_frac",
            "frac",
            t.hist_sum("em_device_read_us") / job_us,
        ),
        Metric::one(
            "emcore.device_write_frac",
            "frac",
            t.hist_sum("em_device_write_us") / job_us,
        ),
        Metric::one("emcore.logical_ios", "count", ios.logical_ios() as f64),
        Metric::one("emcore.physical_reads", "count", ios.physical_reads as f64),
        Metric::one(
            "emcore.physical_writes",
            "count",
            ios.physical_writes as f64,
        ),
        Metric::one("emcore.cache_hit_rate", "frac", ios.cache_hit_rate()),
        Metric::one("emcore.files_created", "count", t.files_created as f64),
        Metric::one("emcore.journal_commits", "count", ios.journal_writes as f64),
    ];
    for c in LIBRARY_CRATES {
        let us = f.by_crate.get(c).copied().unwrap_or(0);
        m.push(Metric::one(format!("{c}.self_frac"), "frac", share(us)));
        let io = f.ios_by_crate.get(c).copied().unwrap_or(0);
        m.push(Metric::one(format!("{c}.ios"), "count", io as f64));
    }
    for (c, ph) in PHASES {
        let us = f.by_phase.get(&(c, ph)).copied().unwrap_or(0);
        m.push(Metric::one(format!("{c}.{ph}_frac"), "frac", share(us)));
    }
    m.push(Metric::one(
        "emserve.queue_wait_frac",
        "frac",
        if op_us > 0.0 {
            t.hist_sum("em_serve_queue_wait_us") / op_us
        } else {
            0.0
        },
    ));
    for (name, unit) in EXTRAS {
        let v = rep
            .checked
            .extra
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v);
        m.push(Metric::one(name, unit, v));
    }
    m
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// A finite number as JSON (the metrics are ratios of positive counts and
/// times; a non-finite one would be a harness bug, reported as 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::from('"');
    escape_json(s, &mut out);
    out.push('"');
    out
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && !self.end_to_end.is_empty()
    }

    fn print(&self, args: &Args) {
        println!(
            "== {} (seed {}, {} measured reps, {} ops attempted, {} failed) ==",
            self.workload, args.seed, self.measured_reps, self.attempted, self.failed
        );
        for e in self.errors.iter().take(5) {
            println!("FAILED: {e}");
        }
        if let Some(d) = self.digest {
            println!("output digest {d:016x}");
        }
        println!(
            "{:<34} {:<9} {:>12} {:>12} {:>12} {:>6}",
            "metric", "unit", "median", "q1", "q3", "n"
        );
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            println!(
                "{:<34} {:<9} {:>12.4} {:>12.4} {:>12.4} {:>6}",
                m.name, m.unit, m.s.median, m.s.q1, m.s.q3, m.s.n
            );
        }
        for (p, v) in &self.tails {
            let name = format!("op_p{p}_ms");
            match v {
                Some(v) => println!("{name:<34} {:<9} {v:>12.4}", "ms"),
                None => println!("{name:<34} {:<9} {:>12}", "ms", "n/a"),
            }
        }
    }

    /// The full record of the run, with quartiles and sample counts.
    fn save(&self, args: &Args) -> std::io::Result<()> {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"scale\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"measured_reps\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"digest\": {},\n",
            quote(&self.workload),
            args.seed,
            quote(if args.smoke { "smoke" } else { "full" }),
            num(args.seconds),
            args.trace,
            self.measured_reps,
            self.attempted,
            self.failed,
            quote(&self.digest.map_or(String::new(), |d| format!("{d:016x}"))),
        );
        let _ = writeln!(
            s,
            "  \"errors\": [{}],",
            self.errors
                .iter()
                .map(|e| quote(e))
                .collect::<Vec<_>>()
                .join(", ")
        );
        for (key, ms) in [
            ("end_to_end", &self.end_to_end),
            ("per_layer", &self.per_layer),
        ] {
            let rows: Vec<String> = ms
                .iter()
                .map(|m| {
                    let samples: Vec<String> = m.samples.iter().map(|&v| num(v)).collect();
                    format!(
                        "    {}: {{\"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"samples\": [{}]}}",
                        quote(&m.name),
                        quote(m.unit),
                        num(m.s.median),
                        num(m.s.q1),
                        num(m.s.q3),
                        m.s.n,
                        samples.join(", ")
                    )
                })
                .collect();
            let _ = writeln!(s, "  \"{key}\": {{\n{}\n  }},", rows.join(",\n"));
        }
        let tails: Vec<String> = self
            .tails
            .iter()
            .map(|(p, v)| format!("\"op_p{p}_ms\": {}", v.map_or("null".into(), num)))
            .collect();
        let _ = writeln!(s, "  \"tails_ms\": {{{}}}\n}}", tails.join(", "));
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        std::fs::write(dir.join(format!("{}.json", self.workload)), s)
    }

    /// The result line: end-to-end metrics, or per-layer ones when traced.
    fn json_line(&self, trace: bool) -> String {
        let ms = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let metrics: Vec<String> = ms
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    num(m.s.median),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(name: &str, seed: u64) -> Outcome {
        let args = Args {
            workload: Some(name.into()),
            seed,
            seconds: 0.0,
            trace: true,
            smoke: true,
        };
        run_named(name, &args).expect("smoke run")
    }

    /// Every workload at smoke scale, twice with one seed: every check
    /// passes, logical I/O repeats exactly, and every span maps to a crate.
    #[test]
    fn smoke_runs_pass_and_repeat() {
        for name in WORKLOADS {
            let a = smoke(name, 7);
            let b = smoke(name, 7);
            for o in [&a, &b] {
                assert!(o.correct(), "{name}: {:?}", o.errors);
                assert_eq!(o.failed, 0, "{name}: error rate must be 0");
                let other = o.per_layer.iter().find(|m| m.name == "other_frac");
                assert_eq!(
                    other.map(|m| m.s.median),
                    Some(0.0),
                    "{name}: unmapped spans"
                );
            }
            let ios = |o: &Outcome| {
                o.per_layer
                    .iter()
                    .find(|m| m.name == "emcore.logical_ios")
                    .map(|m| m.s.median)
            };
            // This holds on serve-zipf too: one batch answers both closed-loop
            // clients, so their next queries arrive together, well inside the
            // batch window, and the batches repeat.
            assert_eq!(ios(&a), ios(&b), "{name}: logical I/O must repeat");
            assert_eq!(a.digest, b.digest, "{name}: output digest must repeat");
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(
            [
                "--workload",
                "sort",
                "--seed",
                "5",
                "--seconds",
                "2",
                "--trace",
                "1",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("sort"));
        assert_eq!((a.seed, a.seconds, a.trace, a.smoke), (5, 2.0, true, false));
        assert!(parse_args(["--workload", "nope"].map(String::from)).is_err());
        assert!(parse_args(["--trace", "2"].map(String::from)).is_err());
        assert!(parse_args(["--seed"].map(String::from)).is_err());
    }

    /// BENCHMARK.json names exactly the metrics the benchmark prints.
    #[test]
    fn benchmark_json_matches_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let a = smoke("graph-rmat", 1);
        for m in a.end_to_end.iter().chain(&a.per_layer) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(
                text.contains(&format!("\"name\": \"{w}\"")),
                "BENCHMARK.json lacks {w}"
            );
        }
        let count = text.matches("\"name\": ").count();
        assert_eq!(
            count,
            WORKLOADS.len() + a.end_to_end.len() + a.per_layer.len(),
            "BENCHMARK.json names metrics the benchmark does not print"
        );
    }
}
