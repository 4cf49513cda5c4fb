//! Order statistics by nearest rank, and the fold that turns a trace's
//! span tree into self time per crate and per phase.

use std::collections::BTreeMap;

use emcore::TraceReport;

/// Median and quartiles of a sample (nearest rank), with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// The nearest-rank `p`-th percentile (`0 < p ≤ 100`) of an ascending
/// sample: its `⌈p·n/100⌉`-th smallest value. `None` when empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = (p * n as f64 / 100.0).ceil().clamp(1.0, n as f64) as usize;
    Some(sorted[rank - 1])
}

/// A tail percentile, reported only when at least ten samples lie beyond
/// it; fewer make it a guess, printed as `n/a`.
pub fn tail(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = (p * n as f64 / 100.0).ceil().clamp(1.0, n as f64) as usize;
    if n.saturating_sub(rank) < 10 {
        return None;
    }
    nearest_rank(sorted, p)
}

/// A sample sorted ascending.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median and quartiles of `xs`. Panics on an empty sample: every metric
/// has at least one measured rep behind it.
pub fn summarize(xs: &[f64]) -> Summary {
    let s = sorted(xs);
    let at = |p| nearest_rank(&s, p).expect("summarize needs a non-empty sample");
    Summary {
        median: at(50.0),
        q1: at(25.0),
        q3: at(75.0),
        n: s.len(),
    }
}

/// The crates whose spans the fold attributes, plus the harness's own
/// `perf/job` span. Every other name lands in `other`.
pub const CRATES: [&str; 6] = [
    "emsort", "emselect", "apsplit", "emserve", "emgraph", "harness",
];

/// Span name → (crate, phase). An entry ending in `/` matches every name
/// with that prefix; exact entries win over prefixes.
const LAYERS: &[(&str, &str, &str)] = &[
    ("perf/job", "harness", "unattributed"),
    ("sort/run-formation", "emsort", "run_formation"),
    ("unit/run", "emsort", "run_formation"),
    ("sort/merge", "emsort", "merge"),
    ("unit/merge", "emsort", "merge"),
    ("unit/merge-group", "emsort", "merge"),
    ("sample-splitters", "emselect", "sample_splitters"),
    ("refined-splitters", "emselect", "sample_splitters"),
    ("distribute", "emselect", "distribute"),
    ("multi-partition", "emselect", "multi_partition"),
    ("multi-select", "emselect", "multi_select"),
    ("multi-select/", "emselect", "multi_select"),
    ("pruned", "emselect", "multi_select"),
    ("pruned-ext", "emselect", "multi_select"),
    ("split-at-rank", "emselect", "split_at_rank"),
    ("intermixed-select", "emselect", "intermixed_select"),
    ("approx-partitioning", "apsplit", "partitioning"),
    ("approx-partitioning/", "apsplit", "partitioning"),
    ("approx-splitters", "apsplit", "splitters"),
    ("reduction-sweep", "apsplit", "reduction"),
    ("sort-baseline/", "apsplit", "sort_baseline"),
    ("split/", "apsplit", "partitioning"),
    ("serve/query", "emserve", "query"),
    ("serve/batch", "emserve", "query"),
    ("serve/segment", "emserve", "index"),
    ("serve/refine", "emserve", "index"),
    ("serve/", "emserve", "serve"),
    ("graph/build", "emgraph", "build"),
    ("graph/", "emgraph", "cluster"),
];

/// A span name without its instance suffix: `unit/run#3` → `unit/run`,
/// `pruned n=4096 k=2` → `pruned`, `serve/batch x16` → `serve/batch`.
pub fn normalize(name: &str) -> &str {
    name.split(['#', ' ']).next().unwrap_or(name)
}

/// The (crate, phase) a span belongs to. The harness names its span
/// around a public call `perf/<crate>/<function>`; that time is the
/// called crate's, outside any phase the crate opens itself.
pub fn layer_of(name: &str) -> (&'static str, &'static str) {
    let name = normalize(name);
    if let Some(rest) = name.strip_prefix("perf/") {
        let krate = rest.split('/').next().unwrap_or("");
        if let Some(c) = CRATES.iter().find(|&&c| c == krate && c != "harness") {
            return (c, "call");
        }
    }
    if let Some(&(_, c, p)) = LAYERS.iter().find(|(n, _, _)| *n == name) {
        return (c, p);
    }
    LAYERS
        .iter()
        .filter(|(n, _, _)| n.ends_with('/') && name.starts_with(n))
        .max_by_key(|(n, _, _)| n.len())
        .map_or(("other", "other"), |&(_, c, p)| (c, p))
}

/// Each span's self time in µs: its duration minus the part of its
/// interval that its children cover. Children are merged as intervals, so
/// overlapping children (spans from concurrent threads) are not counted
/// twice.
pub fn self_times(r: &TraceReport) -> Vec<u64> {
    r.spans
        .iter()
        .map(|s| {
            let (start, end) = (s.open_us, s.open_us + s.dur_us);
            let mut iv: Vec<(u64, u64)> = s
                .children
                .iter()
                .map(|&c| &r.spans[c])
                .filter(|c| c.closed)
                .map(|c| (c.open_us.max(start), (c.open_us + c.dur_us).min(end)))
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            covered += cur.map_or(0, |(a, b)| b - a);
            s.dur_us.saturating_sub(covered)
        })
        .collect()
}

/// Each span's own logical I/Os: its delta minus its closed children's
/// (deltas are inclusive of children).
pub fn self_ios(r: &TraceReport) -> Vec<u64> {
    r.spans
        .iter()
        .map(|s| {
            let children: u64 = s
                .children
                .iter()
                .map(|&c| &r.spans[c])
                .filter(|c| c.closed)
                .map(|c| c.delta.logical_ios())
                .sum();
            s.delta.logical_ios().saturating_sub(children)
        })
        .collect()
}

/// Self time summed per crate and per (crate, phase), in µs, next to the
/// total duration of the root spans it must add up to; and each crate's
/// own logical I/Os.
#[derive(Debug, Default)]
pub struct Fold {
    pub by_crate: BTreeMap<&'static str, u64>,
    pub by_phase: BTreeMap<(&'static str, &'static str), u64>,
    pub ios_by_crate: BTreeMap<&'static str, u64>,
    pub root_us: u64,
}

/// Fold a trace's self times and I/Os by crate and phase.
pub fn fold(r: &TraceReport) -> Fold {
    let mut f = Fold {
        root_us: r.roots.iter().map(|&i| r.spans[i].dur_us).sum(),
        ..Fold::default()
    };
    for ((s, us), ios) in r.spans.iter().zip(self_times(r)).zip(self_ios(r)) {
        let (c, p) = layer_of(&s.name);
        *f.by_crate.entry(c).or_default() += us;
        *f.by_phase.entry((c, p)).or_default() += us;
        *f.ios_by_crate.entry(c).or_default() += ios;
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use emcore::{Counters, TraceEvent};

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&s, 25.0), Some(3.0));
        assert_eq!(nearest_rank(&s, 75.0), Some(8.0));
        assert_eq!(nearest_rank(&s, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&s, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&[7.0], 1.0), Some(7.0));
    }

    #[test]
    fn summary_is_order_free() {
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(
            s,
            Summary {
                median: 3.0,
                q1: 2.0,
                q3: 4.0,
                n: 5
            }
        );
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 leaves exactly 10 beyond: reported.
        assert_eq!(tail(&s, 90.0), Some(90.0));
        // p99 of 100 leaves 1 beyond: not a number.
        assert_eq!(tail(&s, 99.0), None);
        let big: Vec<f64> = (1..=8000).map(f64::from).collect();
        assert_eq!(tail(&big, 99.0), Some(7920.0));
    }

    #[test]
    fn names_map_to_crates() {
        assert_eq!(normalize("unit/merge#12"), "unit/merge");
        assert_eq!(normalize("pruned-ext n=4096 k=7"), "pruned-ext");
        assert_eq!(normalize("serve/batch x16"), "serve/batch");
        assert_eq!(layer_of("unit/run#0"), ("emsort", "run_formation"));
        assert_eq!(layer_of("pruned n=10 k=2"), ("emselect", "multi_select"));
        assert_eq!(
            layer_of("multi-select/pruned"),
            ("emselect", "multi_select")
        );
        assert_eq!(layer_of("serve/segment#3x2"), ("emserve", "index"));
        assert_eq!(layer_of("serve/register"), ("emserve", "serve"));
        assert_eq!(layer_of("graph/round#4"), ("emgraph", "cluster"));
        assert_eq!(layer_of("graph/build"), ("emgraph", "build"));
        assert_eq!(layer_of("split/0-17"), ("apsplit", "partitioning"));
        assert_eq!(layer_of("perf/emsort/external_sort"), ("emsort", "call"));
        assert_eq!(layer_of("perf/job"), ("harness", "unattributed"));
        assert_eq!(layer_of("perf/nothing/x"), ("other", "other"));
        assert_eq!(layer_of("mystery"), ("other", "other"));
    }

    fn open(id: u64, parent: u64, name: &str, t_us: u64) -> TraceEvent {
        TraceEvent::SpanOpen {
            id,
            parent,
            name: name.into(),
            t_us,
        }
    }

    fn close(id: u64, t_us: u64, dur_us: u64) -> TraceEvent {
        TraceEvent::SpanClose {
            id,
            t_us,
            dur_us,
            delta: Counters::default(),
        }
    }

    #[test]
    fn self_times_add_up_to_the_root() {
        // perf/job [0, 1000)
        //   perf/emsort/external_sort [10, 910)
        //     sort/run-formation [20, 420)
        //       unit/run#0 [20, 220), unit/run#1 [220, 400)
        //     sort/merge [420, 900)
        //   mystery [950, 990)
        let events = vec![
            open(1, 0, "perf/job", 0),
            open(2, 1, "perf/emsort/external_sort", 10),
            open(3, 2, "sort/run-formation", 20),
            open(4, 3, "unit/run#0", 20),
            close(4, 220, 200),
            open(5, 3, "unit/run#1", 220),
            close(5, 400, 180),
            close(3, 420, 400),
            open(6, 2, "sort/merge", 420),
            close(6, 900, 480),
            close(2, 910, 900),
            open(7, 1, "mystery", 950),
            close(7, 990, 40),
            close(1, 1000, 1000),
        ];
        let r = TraceReport::from_events(&events);
        assert_eq!(self_times(&r), vec![60, 20, 20, 200, 180, 480, 40]);
        let f = fold(&r);
        assert_eq!(f.root_us, 1000);
        assert_eq!(f.by_crate.values().sum::<u64>(), f.root_us);
        assert_eq!(f.by_crate["harness"], 60);
        assert_eq!(f.by_crate["emsort"], 900);
        assert_eq!(f.by_crate["other"], 40);
        assert_eq!(f.by_phase[&("emsort", "run_formation")], 400);
        assert_eq!(f.by_phase[&("emsort", "merge")], 480);
        assert_eq!(f.by_phase[&("emsort", "call")], 20);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let events = vec![
            open(1, 0, "perf/job", 0),
            open(2, 1, "serve/query", 100),
            open(3, 1, "serve/query", 150),
            close(2, 300, 200),
            close(3, 400, 250),
            close(1, 500, 500),
        ];
        let r = TraceReport::from_events(&events);
        assert_eq!(self_times(&r)[0], 200);
    }
}
