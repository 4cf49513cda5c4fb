//! Trace analysis: reconstruct a span tree from recorded events and render
//! phase-tree tables, per-file access summaries, and flamegraph-ready
//! folded stacks.
//!
//! This is the read side of [`crate::trace`]: feed it the events of a
//! [`crate::RingSink`] or the lines of a JSONL trace file and it rebuilds
//! the structure a run emitted. The `trace_report` bin in the bench crate
//! is a thin CLI over this module.

use std::collections::BTreeMap;

use crate::error::{EmError, Result};
use crate::stats::Counters;
use crate::trace::{FileAccess, PointKind, TraceEvent};

/// One reconstructed span.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The span id from the trace.
    pub id: u64,
    /// Parent span id (0 for roots).
    pub parent: u64,
    /// Phase name.
    pub name: String,
    /// Open timestamp, microseconds since trace begin.
    pub open_us: u64,
    /// Wall-clock duration in microseconds (0 if never closed).
    pub dur_us: u64,
    /// Counter delta charged while open, inclusive of children (zero if
    /// never closed).
    pub delta: Counters,
    /// Whether a matching close event was seen.
    pub closed: bool,
    /// Indices into [`TraceReport::spans`] of this span's children, in
    /// open order.
    pub children: Vec<usize>,
    /// Retry point events attributed to this span.
    pub retries: u64,
    /// Fault-injection point events attributed to this span.
    pub faults: u64,
    /// Journal-commit point events attributed to this span.
    pub journal_commits: u64,
    /// Work-unit-redo point events attributed to this span.
    pub redo_events: u64,
    /// Total I/Os reported by those redo events.
    pub redo_ios: u64,
    /// Memory-governor point events (squeeze/restore/lease traffic)
    /// attributed to this span.
    pub governor_events: u64,
}

/// A parsed trace: span tree, per-file access summaries, and trailer data.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// All spans, in open order.
    pub spans: Vec<SpanNode>,
    /// Indices of root spans (parent 0).
    pub roots: Vec<usize>,
    /// Per-file access summaries from the trace trailer.
    pub files: Vec<(u64, FileAccess)>,
    /// All point events, in order, with their owning span id.
    pub points: Vec<(u64, PointKind)>,
    /// Machine geometry from the begin event: `(M, B)` in words.
    pub machine: Option<(u64, u64)>,
    /// Final `(live, peak)` disk-blocks gauge from the end event.
    pub blocks: Option<(u64, u64)>,
    /// Whether the end event was seen (a missing one means the traced
    /// process stopped before `finish_trace`).
    pub finished: bool,
}

impl TraceReport {
    /// Build a report from in-memory events (e.g. a [`crate::RingSink`]).
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut r = TraceReport::default();
        let mut index: BTreeMap<u64, usize> = BTreeMap::new();
        for ev in events {
            match ev {
                TraceEvent::Begin { mem, block, .. } => {
                    r.machine = Some((*mem, *block));
                }
                TraceEvent::SpanOpen {
                    id,
                    parent,
                    name,
                    t_us,
                } => {
                    let idx = r.spans.len();
                    r.spans.push(SpanNode {
                        id: *id,
                        parent: *parent,
                        name: name.clone(),
                        open_us: *t_us,
                        dur_us: 0,
                        delta: Counters::default(),
                        closed: false,
                        children: Vec::new(),
                        retries: 0,
                        faults: 0,
                        journal_commits: 0,
                        governor_events: 0,
                        redo_events: 0,
                        redo_ios: 0,
                    });
                    index.insert(*id, idx);
                    match index.get(parent).copied() {
                        Some(p) => r.spans[p].children.push(idx),
                        None => r.roots.push(idx),
                    }
                }
                TraceEvent::SpanClose {
                    id, dur_us, delta, ..
                } => {
                    if let Some(&idx) = index.get(id) {
                        let s = &mut r.spans[idx];
                        s.dur_us = *dur_us;
                        s.delta = *delta;
                        s.closed = true;
                    }
                }
                TraceEvent::Point { kind, span, .. } => {
                    r.points.push((*span, kind.clone()));
                    if let Some(&idx) = index.get(span) {
                        let s = &mut r.spans[idx];
                        match kind {
                            PointKind::Retry { .. } => s.retries += 1,
                            PointKind::Fault { .. } => s.faults += 1,
                            PointKind::JournalCommit { .. } => s.journal_commits += 1,
                            PointKind::WorkUnitRedo { ios } => {
                                s.redo_events += 1;
                                s.redo_ios += ios;
                            }
                            PointKind::Governor { .. } => s.governor_events += 1,
                        }
                    }
                }
                TraceEvent::FileSummary { file, access } => {
                    r.files.push((*file, (**access).clone()));
                }
                TraceEvent::End {
                    live_blocks,
                    peak_blocks,
                    ..
                } => {
                    r.blocks = Some((*live_blocks, *peak_blocks));
                    r.finished = true;
                }
            }
        }
        r
    }

    /// Parse JSONL text (one event per line; blank lines ignored).
    pub fn parse_jsonl(text: &str) -> Result<Self> {
        let mut events = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let ev = TraceEvent::parse(line)
                .map_err(|e| EmError::config(format!("trace line {}: {e}", i + 1)))?;
            events.push(ev);
        }
        Ok(Self::from_events(&events))
    }

    /// Load and parse a JSONL trace file.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::parse_jsonl(&text)
    }

    /// Spans that never closed (crash, or a phase leak in the traced code).
    pub fn unclosed(&self) -> Vec<&SpanNode> {
        self.spans.iter().filter(|s| !s.closed).collect()
    }

    /// Sum of the deltas of all *root* spans. Because a span's delta is
    /// inclusive of its children, this is the total charged I/O of the
    /// traced run — the conservation check against an [`crate::IoStats`]
    /// snapshot.
    pub fn root_totals(&self) -> Counters {
        self.roots.iter().fold(Counters::default(), |acc, &i| {
            acc.plus(&self.spans[i].delta)
        })
    }

    /// Counter delta exclusive to `idx`: its own delta minus its closed
    /// children's.
    fn exclusive_delta(&self, idx: usize) -> Counters {
        let mut child_sum = Counters::default();
        for &c in &self.spans[idx].children {
            child_sum = child_sum.plus(&self.spans[c].delta);
        }
        self.spans[idx].delta.since(&child_sum)
    }

    /// Render the span tree as a table: one row per span, indented by
    /// depth, with I/Os, % of parent I/O, wall time, % of parent time, and
    /// fault/journal/redo annotations.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<44} {:>10} {:>8} {:>8} {:>6} {:>10} {:>6}  {}\n",
            "span", "I/Os", "reads", "writes", "io%", "time", "t%", "events"
        ));
        for &root in &self.roots {
            self.render_node(&mut out, root, 0, None);
        }
        if let Some((live, peak)) = self.blocks {
            out.push_str(&format!("\ndisk blocks: {live} live at end, {peak} peak\n"));
        }
        let unclosed = self.unclosed();
        if !unclosed.is_empty() {
            out.push_str(&format!(
                "\nWARNING: {} unclosed span(s): {}\n",
                unclosed.len(),
                unclosed
                    .iter()
                    .map(|s| s.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        out
    }

    fn render_node(&self, out: &mut String, idx: usize, depth: usize, parent: Option<usize>) {
        let s = &self.spans[idx];
        let label = format!("{}{}", "  ".repeat(depth), s.name);
        let label = if s.closed {
            label
        } else {
            format!("{label} [UNCLOSED]")
        };
        let pct = |part: u64, whole: u64| -> String {
            if whole == 0 {
                "-".into()
            } else {
                format!("{:.1}", 100.0 * part as f64 / whole as f64)
            }
        };
        let (io_pct, t_pct) = match parent {
            Some(p) => (
                pct(s.delta.total_ios(), self.spans[p].delta.total_ios()),
                pct(s.dur_us, self.spans[p].dur_us),
            ),
            None => ("100.0".into(), "100.0".into()),
        };
        let mut notes = Vec::new();
        if s.retries > 0 {
            notes.push(format!("{} retries", s.retries));
        }
        if s.faults > 0 {
            notes.push(format!("{} faults", s.faults));
        }
        if s.journal_commits > 0 {
            notes.push(format!("{} jrnl", s.journal_commits));
        }
        if s.redo_events > 0 {
            notes.push(format!("{} redo ({} I/Os)", s.redo_events, s.redo_ios));
        }
        out.push_str(&format!(
            "{:<44} {:>10} {:>8} {:>8} {:>6} {:>9.3}ms {:>6}  {}\n",
            label,
            s.delta.total_ios(),
            s.delta.reads,
            s.delta.writes,
            io_pct,
            s.dur_us as f64 / 1000.0,
            t_pct,
            notes.join(", ")
        ));
        for &c in &s.children.clone() {
            self.render_node(out, c, depth + 1, Some(idx));
        }
    }

    /// Render the per-file access summary table.
    pub fn render_files(&self) -> String {
        let mut out = String::new();
        if self.files.is_empty() {
            out.push_str("no per-file access data (trace not finished?)\n");
            return out;
        }
        out.push_str(&format!(
            "{:>6} {:>9} {:>9} {:>7} {:>9} {:>10} {:>10}\n",
            "file", "reads", "writes", "seq%", "seeks", "mean seek", "max seek"
        ));
        for (id, a) in &self.files {
            out.push_str(&format!(
                "{:>6} {:>9} {:>9} {:>6.1}% {:>9} {:>10.1} {:>10}\n",
                id,
                a.reads,
                a.writes,
                100.0 * a.sequential_fraction(),
                a.seeks,
                a.mean_seek(),
                a.max_seek
            ));
        }
        out
    }

    /// Flamegraph-ready folded stacks: one line per span with nonzero
    /// exclusive I/O, `root;child;leaf <ios>`. Feed to any standard
    /// flamegraph renderer.
    pub fn folded_stacks(&self) -> String {
        let mut out = String::new();
        let mut path: Vec<&str> = Vec::new();
        for &root in &self.roots {
            self.fold_node(&mut out, root, &mut path);
        }
        out
    }

    fn fold_node<'a>(&'a self, out: &mut String, idx: usize, path: &mut Vec<&'a str>) {
        let s = &self.spans[idx];
        path.push(&s.name);
        let excl = self.exclusive_delta(idx).total_ios();
        if excl > 0 {
            out.push_str(&path.join(";"));
            out.push_str(&format!(" {excl}\n"));
        }
        for &c in &s.children {
            self.fold_node(out, c, path);
        }
        path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::IoOp;

    fn ev_open(id: u64, parent: u64, name: &str) -> TraceEvent {
        TraceEvent::SpanOpen {
            id,
            parent,
            name: name.into(),
            t_us: id * 10,
        }
    }

    fn ev_close(id: u64, reads: u64, writes: u64) -> TraceEvent {
        TraceEvent::SpanClose {
            id,
            t_us: 1000,
            dur_us: 100,
            delta: Counters {
                reads,
                writes,
                ..Counters::default()
            },
        }
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Begin {
                t_us: 0,
                mem: 4096,
                block: 64,
            },
            ev_open(1, 0, "root"),
            ev_open(2, 1, "sample"),
            ev_close(2, 10, 0),
            ev_open(3, 1, "distribute"),
            TraceEvent::Point {
                kind: PointKind::Retry { op: IoOp::Write },
                span: 3,
                t_us: 500,
            },
            TraceEvent::Point {
                kind: PointKind::WorkUnitRedo { ios: 7 },
                span: 3,
                t_us: 600,
            },
            ev_close(3, 20, 15),
            ev_close(1, 33, 15),
            TraceEvent::End {
                t_us: 1100,
                live_blocks: 5,
                peak_blocks: 40,
            },
        ]
    }

    #[test]
    fn tree_reconstruction_and_totals() {
        let r = TraceReport::from_events(&sample_events());
        assert_eq!(r.roots.len(), 1);
        assert_eq!(r.spans.len(), 3);
        let root = &r.spans[r.roots[0]];
        assert_eq!(root.name, "root");
        assert_eq!(root.children.len(), 2);
        assert_eq!(r.root_totals().total_ios(), 48);
        assert!(r.unclosed().is_empty());
        assert!(r.finished);
        assert_eq!(r.machine, Some((4096, 64)));
        assert_eq!(r.blocks, Some((5, 40)));
        let dist = &r.spans[root.children[1]];
        assert_eq!(dist.retries, 1);
        assert_eq!(dist.redo_events, 1);
        assert_eq!(dist.redo_ios, 7);
    }

    #[test]
    fn jsonl_roundtrip_matches_in_memory() {
        let events = sample_events();
        let text: String = events.iter().map(|e| e.to_json() + "\n").collect();
        let a = TraceReport::from_events(&events);
        let b = TraceReport::parse_jsonl(&text).unwrap();
        assert_eq!(a.root_totals(), b.root_totals());
        assert_eq!(a.spans.len(), b.spans.len());
        assert_eq!(a.points.len(), b.points.len());
    }

    #[test]
    fn unclosed_spans_flagged() {
        let events = vec![ev_open(1, 0, "root"), ev_open(2, 1, "leaked")];
        let r = TraceReport::from_events(&events);
        assert_eq!(r.unclosed().len(), 2);
        assert!(!r.finished);
        let rendered = r.render_tree();
        assert!(rendered.contains("UNCLOSED"), "{rendered}");
    }

    #[test]
    fn folded_stacks_exclusive_weights() {
        let r = TraceReport::from_events(&sample_events());
        let folded = r.folded_stacks();
        // root has 48 inclusive, 10 + 35 in children → 3 exclusive.
        assert!(folded.contains("root 3\n"), "{folded}");
        assert!(folded.contains("root;sample 10\n"), "{folded}");
        assert!(folded.contains("root;distribute 35\n"), "{folded}");
    }

    #[test]
    fn render_tree_percentages() {
        let r = TraceReport::from_events(&sample_events());
        let t = r.render_tree();
        assert!(t.contains("root"), "{t}");
        // distribute is 35 of root's 48 I/Os ≈ 72.9%.
        assert!(t.contains("72.9"), "{t}");
        assert!(t.contains("5 live at end, 40 peak"), "{t}");
    }

    #[test]
    fn parse_error_carries_line_number() {
        let err = TraceReport::parse_jsonl("{\"e\":\"begin\",\"t_us\":0}\nnot json\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }
}
