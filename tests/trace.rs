//! Integration tests for the structured tracing subsystem: I/O
//! conservation between the span tree and `IoStats`, redo attribution
//! under injected crashes, and the disabled-by-default contract.

use em_splitters::prelude::*;
use emcore::{EmError, FaultKind, FaultPlan, PointKind, SplitMix64, TraceEvent};
use emsort::{SortJob, SortManifest};

fn shuffled(n: u64, seed: u64) -> Vec<u64> {
    let mut v: Vec<u64> = (0..n).collect();
    SplitMix64::new(seed).shuffle(&mut v);
    v
}

/// A traced multi-select on the directory backend: the JSONL trace must
/// reconstruct into a span tree whose root I/O totals *exactly* equal the
/// run's `IoStats` snapshot (every charged I/O belongs to some span).
#[test]
fn jsonl_trace_conserves_io_on_disk_backend() {
    let trace_path =
        std::env::temp_dir().join(format!("em-trace-conserve-{}.jsonl", std::process::id()));
    let c = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
    c.trace_to_file(&trace_path).unwrap();

    let n = 4000u64;
    let data = shuffled(n, 0x7ace);
    let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
    let ranks: Vec<u64> = vec![1, n / 7, n / 3, n / 2, n - 1];

    // One root span wraps all charged work, so the tree's root totals are
    // comparable to the whole-run snapshot.
    let got = {
        let _root = c.stats().phase_guard("test/root");
        multi_select(&f, &ranks).unwrap()
    };
    let mut sorted = data.clone();
    sorted.sort_unstable();
    for (r, g) in ranks.iter().zip(&got) {
        assert_eq!(*g, sorted[(*r - 1) as usize]);
    }

    let snapshot = c.stats().snapshot();
    c.finish_trace();

    let report = TraceReport::load(&trace_path).unwrap();
    std::fs::remove_file(&trace_path).ok();
    assert!(
        report.unclosed().is_empty(),
        "all spans must close: {:?}",
        report
            .unclosed()
            .iter()
            .map(|s| s.name.clone())
            .collect::<Vec<_>>()
    );
    let roots = report.root_totals();
    assert_eq!(
        roots.total_ios(),
        snapshot.total_ios(),
        "span-tree root I/O must equal the run snapshot"
    );
    assert_eq!(roots.reads, snapshot.reads);
    assert_eq!(roots.writes, snapshot.writes);
    assert_eq!(roots.bytes_read, snapshot.bytes_read);
    assert_eq!(roots.bytes_written, snapshot.bytes_written);
    // The tree actually has structure: the multi-select phase sits under
    // the test root.
    assert!(report.spans.iter().any(|s| s.name == "multi-select"));
}

/// A crash + resume of the recoverable sort, traced end to end: the trace
/// carries exactly one `work_unit_redo` point, its I/O delta equals the
/// stats' `redone_ios`, and it is attributed to a work-unit span.
#[test]
fn traced_resume_attributes_redone_work() {
    let c = EmContext::new_in_memory(EmConfig::tiny());
    let ring = RingSink::new(0); // unbounded: keep every event
    c.set_trace_sink(Box::new(ring.clone()));

    let n = 1200u64;
    let data = shuffled(n, 0xdead);
    let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
    let plan = FaultPlan::new(0).fatal_at(40);
    c.install_fault_plan(plan.clone());

    let mut manifest = SortManifest::new(&c, None);
    let first = run_recoverable(&c, &mut SortJob::new(&f, &mut manifest));
    assert!(matches!(first, Err(EmError::Crashed)));
    plan.clear_crash();
    let sorted = run_recoverable(&c, &mut SortJob::new(&f, &mut manifest)).unwrap();
    let mut want = data.clone();
    want.sort_unstable();
    assert_eq!(c.oracle(|| sorted.to_vec()).unwrap(), want);

    let snapshot = c.stats().snapshot();
    assert!(snapshot.redone_ios > 0, "the crash must force rework");
    c.finish_trace();

    let events = ring.events();
    assert_eq!(ring.dropped(), 0);
    let report = TraceReport::from_events(&events);
    assert!(report.unclosed().is_empty());

    // Exactly one redo point, carrying the exact redone-I/O tally.
    let redos: Vec<(u64, u64)> = events
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Point {
                kind: PointKind::WorkUnitRedo { ios },
                span,
                ..
            } => Some((*span, *ios)),
            _ => None,
        })
        .collect();
    assert_eq!(redos.len(), 1, "one cleared crash => one redone unit");
    let (span, ios) = redos[0];
    assert_eq!(ios, snapshot.redone_ios);

    // ... attributed to a specific work-unit span in the tree.
    let unit = report
        .spans
        .iter()
        .find(|s| s.id == span)
        .expect("redo point's span must exist");
    assert!(
        unit.name.starts_with("unit/"),
        "redo attributed to a work-unit span, got {:?}",
        unit.name
    );
    assert_eq!(unit.redo_events, 1);
    assert_eq!(unit.redo_ios, snapshot.redone_ios);

    // The injected fatal fault itself is visible, attributed to a span.
    let faults: Vec<u64> = events
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Point {
                kind:
                    PointKind::Fault {
                        kind: FaultKind::Fatal,
                        ..
                    },
                span,
                ..
            } => Some(*span),
            _ => None,
        })
        .collect();
    assert_eq!(faults.len(), 1, "the fatal injects once");
    assert_ne!(faults[0], 0, "fault lands inside an open span");

    // The recoverable sort journals its checkpoints; those show up too.
    assert!(events.iter().any(|ev| matches!(
        ev,
        TraceEvent::Point {
            kind: PointKind::JournalCommit { .. },
            ..
        }
    )));
}

/// A traced *parallel* sort must produce a parse-clean JSONL trace:
/// spans opened on worker threads nest under the parent phase captured on
/// the main thread (never becoming spurious roots), every span closes,
/// and root-total conservation still holds. Regression test for
/// `emsplit --trace --workers > 1` emitting traces `trace_report` could
/// not attribute.
#[test]
fn parallel_sort_trace_is_parse_clean_and_nested() {
    let trace_path =
        std::env::temp_dir().join(format!("em-trace-parallel-{}.jsonl", std::process::id()));
    let cfg = EmConfig::new(256, 16).unwrap().with_workers(4);
    let c = EmContext::new_on_disk_temp(cfg).unwrap();
    c.trace_to_file(&trace_path).unwrap();

    let n = 6000u64;
    let data = shuffled(n, 0x9a11);
    let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
    let sorted = {
        let _root = c.stats().phase_guard("test/parallel-root");
        external_sort(&f).unwrap()
    };
    let mut want = data.clone();
    want.sort_unstable();
    assert_eq!(c.stats().paused(|| sorted.to_vec()).unwrap(), want);

    let snapshot = c.stats().snapshot();
    c.finish_trace();

    let report = TraceReport::load(&trace_path).unwrap();
    std::fs::remove_file(&trace_path).ok();
    assert!(
        report.unclosed().is_empty(),
        "worker spans must all close: {:?}",
        report
            .unclosed()
            .iter()
            .map(|s| s.name.clone())
            .collect::<Vec<_>>()
    );

    // Worker-thread unit spans exist and are parented under the phase
    // spans the main thread opened — not floating as roots.
    let span_parent_name = |parent_id: u64| {
        report
            .spans
            .iter()
            .find(|s| s.id == parent_id)
            .map(|s| s.name.clone())
            .unwrap_or_default()
    };
    let run_units: Vec<_> = report
        .spans
        .iter()
        .filter(|s| s.name.starts_with("unit/run#"))
        .collect();
    assert!(
        !run_units.is_empty(),
        "parallel run formation must trace per-chunk unit spans"
    );
    for u in &run_units {
        assert_eq!(
            span_parent_name(u.parent),
            "sort/run-formation",
            "span {:?} must nest under the formation phase",
            u.name
        );
    }
    for u in report
        .spans
        .iter()
        .filter(|s| s.name.starts_with("unit/merge-group#"))
    {
        assert_eq!(
            span_parent_name(u.parent),
            "sort/merge",
            "span {:?} must nest under the merge phase",
            u.name
        );
    }

    // Conservation survives multi-threaded emission: no I/O was lost to
    // orphaned worker roots.
    let roots = report.root_totals();
    assert_eq!(
        roots.total_ios(),
        snapshot.total_ios(),
        "span-tree root I/O must equal the run snapshot"
    );
}

/// Without a sink, tracing stays disabled and costs nothing observable:
/// the same workload produces identical I/O accounting either way, and no
/// spans are left open.
#[test]
fn disabled_tracer_records_nothing_and_charges_nothing() {
    let run = |traced: bool| -> (u64, Option<Vec<TraceEvent>>) {
        let c = EmContext::new_in_memory(EmConfig::tiny());
        let ring = RingSink::new(0);
        if traced {
            c.set_trace_sink(Box::new(ring.clone()));
        }
        let data = shuffled(3000, 0xbeef);
        let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let q = quantiles(&f, 8).unwrap();
        assert_eq!(q.len(), 7);
        let ios = c.stats().snapshot().total_ios();
        if traced {
            c.finish_trace();
            (ios, Some(ring.events()))
        } else {
            assert!(!c.tracer().is_enabled());
            (ios, None)
        }
    };
    let (plain_ios, none) = run(false);
    let (traced_ios, events) = run(true);
    assert!(none.is_none());
    let events = events.unwrap();
    assert!(
        events.len() > 2,
        "traced run must actually record span events"
    );
    assert_eq!(
        plain_ios, traced_ios,
        "tracing must not change the EM cost model"
    );
}
