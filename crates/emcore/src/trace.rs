//! Structured I/O tracing and access-pattern analytics.
//!
//! Every claim in the source paper is a claim about *I/O counts and their
//! structure*: which phase of a multi-selection pays which fraction of the
//! `O(n lg K)` budget, how the recursion tree distributes its I/Os, whether
//! scans are actually sequential. The aggregate [`crate::Counters`] answer
//! none of those questions; this module does, with three pieces:
//!
//! * **Span events** — every [`crate::IoStats`] phase becomes a span
//!   carrying a monotonic wall-clock duration and the exact
//!   [`crate::Counters`] delta it charged, with parent ids so nested phases
//!   (including recursion levels) form a real tree. Point events mark
//!   faults injected, retried device attempts, journal commits, and
//!   work-unit redo on crash resume, each attributed to the innermost open
//!   span.
//! * **Per-file access analytics** — each block transfer is classified as
//!   sequential or random against the file's previous access, seek
//!   distances are accumulated, and a 16-bucket read/write heatmap over the
//!   block space is maintained (buckets fold as the file grows, HDR-style).
//!   A live/peak *disk-blocks-in-use* gauge tracks the space bound
//!   empirically.
//! * **Sinks** — a [`TraceSink`] receives every [`TraceEvent`]. The
//!   [`RingSink`] keeps a bounded in-memory window; the [`JsonlSink`]
//!   streams events as JSON lines (hand-rolled escaping, zero
//!   dependencies). Tracing is off by default: when no sink is installed
//!   every hook is a single atomic flag load.
//!
//! Trace output is host-side observability, **never** part of the EM cost
//! model: emitting an event charges no I/O and consults no fault plan.
//!
//! ```
//! use emcore::{EmConfig, EmContext, EmFile, RingSink, TraceEvent};
//!
//! let ctx = EmContext::new_in_memory(EmConfig::tiny());
//! let ring = RingSink::new(1024);
//! ctx.set_trace_sink(Box::new(ring.clone()));
//! ctx.stats().phase("demo", || {
//!     let f = EmFile::from_slice(&ctx, &[1u64, 2, 3]).unwrap();
//!     f.to_vec().unwrap();
//! });
//! ctx.finish_trace();
//! assert!(ring
//!     .events()
//!     .iter()
//!     .any(|e| matches!(e, TraceEvent::SpanOpen { name, .. } if name == "demo")));
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Instant;

use crate::fault::{FaultKind, IoOp};
use crate::stats::Counters;

/// Number of heatmap buckets per file and direction.
pub const HEAT_BUCKETS: usize = 16;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// A discrete point event, attributed to the innermost open span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PointKind {
    /// A device attempt failed and was retried under the context's
    /// [`crate::RetryPolicy`].
    Retry {
        /// Direction of the retried transfer.
        op: IoOp,
    },
    /// The fault plan injected a fault into a device attempt.
    Fault {
        /// What was injected.
        kind: FaultKind,
        /// Direction of the faulted transfer.
        op: IoOp,
        /// Id of the [`crate::EmFile`] the attempt targeted.
        file: u64,
    },
    /// A checkpoint journal committed durably.
    JournalCommit {
        /// The journal's name.
        name: String,
    },
    /// A resumed run re-executed a crash-interrupted work unit.
    WorkUnitRedo {
        /// Block I/Os spent on the redo (also counted in the enclosing
        /// span's reads/writes; see [`crate::Counters::redone_ios`]).
        ios: u64,
    },
    /// A memory-governor event: the dynamic budget was re-pointed
    /// (`squeeze`/`restore`), a lease was taken or released, or an
    /// admission was denied.
    Governor {
        /// What happened: `squeeze`, `restore`, `lease`, `release`,
        /// `deny`.
        event: String,
        /// The budget or lease size involved, in words.
        words: u64,
    },
}

/// One trace record. Serialises to a single JSON line (see
/// [`TraceEvent::to_json`]) and back ([`TraceEvent::parse`]).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Trace start: machine geometry, timestamp origin.
    Begin {
        /// Microseconds since the trace epoch (always 0 in practice).
        t_us: u64,
        /// Memory capacity `M` in words.
        mem: u64,
        /// Block size `B` in words.
        block: u64,
    },
    /// A span (named phase) opened.
    SpanOpen {
        /// Span id, unique within the trace, starting at 1.
        id: u64,
        /// Id of the enclosing span; 0 for a root span.
        parent: u64,
        /// The phase name.
        name: String,
        /// Microseconds since the trace epoch.
        t_us: u64,
    },
    /// A span closed; carries its duration and counter delta.
    SpanClose {
        /// The id given at [`TraceEvent::SpanOpen`].
        id: u64,
        /// Microseconds since the trace epoch.
        t_us: u64,
        /// Monotonic wall-clock duration of the span, microseconds.
        dur_us: u64,
        /// Counters charged while the span was open (inclusive of
        /// children).
        delta: Counters,
    },
    /// A point event (fault, retry, journal commit, work-unit redo).
    Point {
        /// What happened.
        kind: PointKind,
        /// Innermost open span at the time; 0 when none.
        span: u64,
        /// Microseconds since the trace epoch.
        t_us: u64,
    },
    /// Per-file access-pattern summary, emitted at trace finish.
    FileSummary {
        /// The file's id within its context.
        file: u64,
        /// Aggregated access statistics (boxed: this variant is much
        /// larger than the rest of the enum).
        access: Box<FileAccess>,
    },
    /// Trace end: final disk-space gauge.
    End {
        /// Microseconds since the trace epoch.
        t_us: u64,
        /// Blocks in use on the backing store at finish.
        live_blocks: u64,
        /// Peak blocks in use over the trace.
        peak_blocks: u64,
    },
}

/// Aggregated access-pattern statistics for one [`crate::EmFile`].
///
/// A transfer is *sequential* when it targets the block after the file's
/// previously accessed block in the same direction (or re-reads the same
/// block); anything else is *random* and contributes its seek distance
/// `|block − (prev + 1)|`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FileAccess {
    /// Block reads.
    pub reads: u64,
    /// Block writes.
    pub writes: u64,
    /// Sequential block reads (first access counts as sequential).
    pub seq_reads: u64,
    /// Random block reads.
    pub rand_reads: u64,
    /// Sequential block writes.
    pub seq_writes: u64,
    /// Random block writes.
    pub rand_writes: u64,
    /// Random transfers that contributed a seek distance.
    pub seeks: u64,
    /// Sum of all seek distances (mean = `sum_seek / seeks`).
    pub sum_seek: u64,
    /// Largest single seek distance.
    pub max_seek: u64,
    /// Blocks per heatmap bucket (power of two; doubles as the file grows).
    pub heat_scale: u64,
    /// Read counts per block-space bucket.
    pub read_heat: [u64; HEAT_BUCKETS],
    /// Write counts per block-space bucket.
    pub write_heat: [u64; HEAT_BUCKETS],
}

impl FileAccess {
    /// Fraction of transfers classified sequential, in `[0, 1]`; 1 for an
    /// untouched file.
    pub fn sequential_fraction(&self) -> f64 {
        let total = self.reads + self.writes;
        if total == 0 {
            return 1.0;
        }
        (self.seq_reads + self.seq_writes) as f64 / total as f64
    }

    /// Mean seek distance over random transfers (0 when fully sequential).
    pub fn mean_seek(&self) -> f64 {
        if self.seeks == 0 {
            0.0
        } else {
            self.sum_seek as f64 / self.seeks as f64
        }
    }

    /// Grow `heat_scale` (folding buckets) until `block` maps into range.
    fn ensure_scale(&mut self, block: u64) {
        if self.heat_scale == 0 {
            self.heat_scale = 1;
        }
        while block / self.heat_scale >= HEAT_BUCKETS as u64 {
            for i in 0..HEAT_BUCKETS / 2 {
                self.read_heat[i] = self.read_heat[2 * i] + self.read_heat[2 * i + 1];
                self.write_heat[i] = self.write_heat[2 * i] + self.write_heat[2 * i + 1];
            }
            for i in HEAT_BUCKETS / 2..HEAT_BUCKETS {
                self.read_heat[i] = 0;
                self.write_heat[i] = 0;
            }
            self.heat_scale *= 2;
        }
    }

    /// Record one transfer of `op` at `block`, classified against the
    /// previous block accessed in the same direction.
    fn note(&mut self, op: IoOp, block: u64, prev: Option<u64>) {
        self.ensure_scale(block);
        let bucket = (block / self.heat_scale) as usize;
        let sequential = match prev {
            None => true,
            Some(p) => block == p + 1 || block == p,
        };
        if !sequential {
            let p = prev.expect("non-sequential implies a previous access");
            let dist = block.abs_diff(p + 1);
            self.seeks += 1;
            self.sum_seek = self.sum_seek.saturating_add(dist);
            self.max_seek = self.max_seek.max(dist);
        }
        match (op, sequential) {
            (IoOp::Read, true) => {
                self.reads += 1;
                self.seq_reads += 1;
                self.read_heat[bucket] += 1;
            }
            (IoOp::Read, false) => {
                self.reads += 1;
                self.rand_reads += 1;
                self.read_heat[bucket] += 1;
            }
            (IoOp::Write, true) => {
                self.writes += 1;
                self.seq_writes += 1;
                self.write_heat[bucket] += 1;
            }
            (IoOp::Write, false) => {
                self.writes += 1;
                self.rand_writes += 1;
                self.write_heat[bucket] += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// JSON encoding (hand-rolled; the workspace is dependency-free)
// ---------------------------------------------------------------------------

/// Append `s` to `out` with JSON string escaping (quotes, backslashes and
/// control characters; non-ASCII passes through as UTF-8).
pub fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Incremental builder for the flat JSON objects the trace and metrics
/// codecs emit (shared crate-internally; see [`crate::metrics`]).
pub(crate) struct JsonObj {
    buf: String,
}

impl JsonObj {
    pub(crate) fn new(event: &str) -> Self {
        let mut buf = String::with_capacity(96);
        buf.push_str("{\"e\":\"");
        buf.push_str(event);
        buf.push('"');
        Self { buf }
    }

    pub(crate) fn num(&mut self, key: &str, v: u64) -> &mut Self {
        self.buf.push_str(",\"");
        self.buf.push_str(key);
        self.buf.push_str("\":");
        self.buf.push_str(&v.to_string());
        self
    }

    /// Emit the field only when non-zero (decoders default missing to 0).
    fn num_nz(&mut self, key: &str, v: u64) -> &mut Self {
        if v != 0 {
            self.num(key, v);
        }
        self
    }

    pub(crate) fn str_(&mut self, key: &str, v: &str) -> &mut Self {
        self.buf.push_str(",\"");
        self.buf.push_str(key);
        self.buf.push_str("\":\"");
        escape_json(v, &mut self.buf);
        self.buf.push('"');
        self
    }

    pub(crate) fn arr(&mut self, key: &str, vals: &[u64]) -> &mut Self {
        self.buf.push_str(",\"");
        self.buf.push_str(key);
        self.buf.push_str("\":[");
        for (i, v) in vals.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.buf.push_str(&v.to_string());
        }
        self.buf.push(']');
        self
    }

    pub(crate) fn finish(&mut self) -> String {
        self.buf.push('}');
        std::mem::take(&mut self.buf)
    }
}

fn counters_fields(o: &mut JsonObj, c: &Counters) {
    o.num_nz("reads", c.reads)
        .num_nz("writes", c.writes)
        .num_nz("comparisons", c.comparisons)
        .num_nz("bytes_read", c.bytes_read)
        .num_nz("bytes_written", c.bytes_written)
        .num_nz("retries", c.retries)
        .num_nz("corrupt_reads", c.corrupt_reads)
        .num_nz("journal_writes", c.journal_writes)
        .num_nz("redone_ios", c.redone_ios)
        .num_nz("physical_reads", c.physical_reads)
        .num_nz("physical_writes", c.physical_writes)
        .num_nz("cache_hits", c.cache_hits)
        .num_nz("cache_misses", c.cache_misses)
        .num_nz("shed_queries", c.shed_queries)
        .num_nz("breaker_trips", c.breaker_trips)
        .num_nz("degraded_answers", c.degraded_answers)
        .num_nz("mem_denials", c.mem_denials)
        .num_nz("mem_reclaims", c.mem_reclaims);
}

impl TraceEvent {
    /// Serialise to one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            TraceEvent::Begin { t_us, mem, block } => JsonObj::new("begin")
                .num("t_us", *t_us)
                .num("mem", *mem)
                .num("block", *block)
                .finish(),
            TraceEvent::SpanOpen {
                id,
                parent,
                name,
                t_us,
            } => JsonObj::new("open")
                .num("id", *id)
                .num("parent", *parent)
                .str_("name", name)
                .num("t_us", *t_us)
                .finish(),
            TraceEvent::SpanClose {
                id,
                t_us,
                dur_us,
                delta,
            } => {
                let mut o = JsonObj::new("close");
                o.num("id", *id).num("t_us", *t_us).num("dur_us", *dur_us);
                counters_fields(&mut o, delta);
                o.finish()
            }
            TraceEvent::Point { kind, span, t_us } => {
                let mut o = JsonObj::new("point");
                match kind {
                    PointKind::Retry { op } => {
                        o.str_("kind", "retry").str_("op", op.label());
                    }
                    PointKind::Fault { kind, op, file } => {
                        o.str_("kind", "fault")
                            .str_("fault", kind.label())
                            .str_("op", op.label())
                            .num("file", *file);
                    }
                    PointKind::JournalCommit { name } => {
                        o.str_("kind", "journal_commit").str_("name", name);
                    }
                    PointKind::WorkUnitRedo { ios } => {
                        o.str_("kind", "work_unit_redo").num("ios", *ios);
                    }
                    PointKind::Governor { event, words } => {
                        o.str_("kind", "governor")
                            .str_("event", event)
                            .num("words", *words);
                    }
                }
                o.num("span", *span).num("t_us", *t_us).finish()
            }
            TraceEvent::FileSummary { file, access } => {
                let a = access;
                let mut o = JsonObj::new("file");
                o.num("file", *file)
                    .num("reads", a.reads)
                    .num("writes", a.writes)
                    .num_nz("seq_reads", a.seq_reads)
                    .num_nz("rand_reads", a.rand_reads)
                    .num_nz("seq_writes", a.seq_writes)
                    .num_nz("rand_writes", a.rand_writes)
                    .num_nz("seeks", a.seeks)
                    .num_nz("sum_seek", a.sum_seek)
                    .num_nz("max_seek", a.max_seek)
                    .num("heat_scale", a.heat_scale)
                    .arr("read_heat", &a.read_heat)
                    .arr("write_heat", &a.write_heat);
                o.finish()
            }
            TraceEvent::End {
                t_us,
                live_blocks,
                peak_blocks,
            } => JsonObj::new("end")
                .num("t_us", *t_us)
                .num("live_blocks", *live_blocks)
                .num("peak_blocks", *peak_blocks)
                .finish(),
        }
    }

    /// Parse one JSON line produced by [`TraceEvent::to_json`].
    pub fn parse(line: &str) -> Result<TraceEvent, String> {
        let map = parse_object(line)?;
        let event = get_str(&map, "e")?;
        let n = |key: &str| get_num_or_zero(&map, key);
        match event.as_str() {
            "begin" => Ok(TraceEvent::Begin {
                t_us: n("t_us"),
                mem: n("mem"),
                block: n("block"),
            }),
            "open" => Ok(TraceEvent::SpanOpen {
                id: n("id"),
                parent: n("parent"),
                name: get_str(&map, "name")?,
                t_us: n("t_us"),
            }),
            "close" => Ok(TraceEvent::SpanClose {
                id: n("id"),
                t_us: n("t_us"),
                dur_us: n("dur_us"),
                delta: Counters {
                    reads: n("reads"),
                    writes: n("writes"),
                    comparisons: n("comparisons"),
                    bytes_read: n("bytes_read"),
                    bytes_written: n("bytes_written"),
                    retries: n("retries"),
                    corrupt_reads: n("corrupt_reads"),
                    journal_writes: n("journal_writes"),
                    redone_ios: n("redone_ios"),
                    physical_reads: n("physical_reads"),
                    physical_writes: n("physical_writes"),
                    cache_hits: n("cache_hits"),
                    cache_misses: n("cache_misses"),
                    shed_queries: n("shed_queries"),
                    breaker_trips: n("breaker_trips"),
                    degraded_answers: n("degraded_answers"),
                    mem_denials: n("mem_denials"),
                    mem_reclaims: n("mem_reclaims"),
                },
            }),
            "point" => {
                let kind = match get_str(&map, "kind")?.as_str() {
                    "retry" => PointKind::Retry {
                        op: parse_op(&get_str(&map, "op")?)?,
                    },
                    "fault" => PointKind::Fault {
                        kind: parse_fault(&get_str(&map, "fault")?)?,
                        op: parse_op(&get_str(&map, "op")?)?,
                        file: n("file"),
                    },
                    "journal_commit" => PointKind::JournalCommit {
                        name: get_str(&map, "name")?,
                    },
                    "work_unit_redo" => PointKind::WorkUnitRedo { ios: n("ios") },
                    "governor" => PointKind::Governor {
                        event: get_str(&map, "event")?,
                        words: n("words"),
                    },
                    other => return Err(format!("unknown point kind {other:?}")),
                };
                Ok(TraceEvent::Point {
                    kind,
                    span: n("span"),
                    t_us: n("t_us"),
                })
            }
            "file" => {
                let mut access = FileAccess {
                    reads: n("reads"),
                    writes: n("writes"),
                    seq_reads: n("seq_reads"),
                    rand_reads: n("rand_reads"),
                    seq_writes: n("seq_writes"),
                    rand_writes: n("rand_writes"),
                    seeks: n("seeks"),
                    sum_seek: n("sum_seek"),
                    max_seek: n("max_seek"),
                    heat_scale: n("heat_scale"),
                    ..FileAccess::default()
                };
                access.read_heat = get_heat(&map, "read_heat")?;
                access.write_heat = get_heat(&map, "write_heat")?;
                Ok(TraceEvent::FileSummary {
                    file: n("file"),
                    access: Box::new(access),
                })
            }
            "end" => Ok(TraceEvent::End {
                t_us: n("t_us"),
                live_blocks: n("live_blocks"),
                peak_blocks: n("peak_blocks"),
            }),
            other => Err(format!("unknown event type {other:?}")),
        }
    }
}

fn parse_op(s: &str) -> Result<IoOp, String> {
    IoOp::from_label(s).ok_or_else(|| format!("unknown op {s:?}"))
}

fn parse_fault(s: &str) -> Result<FaultKind, String> {
    FaultKind::from_label(s).ok_or_else(|| format!("unknown fault kind {s:?}"))
}

/// A parsed JSON scalar in a trace line: the format only ever uses strings,
/// unsigned integers, and arrays of unsigned integers.
pub(crate) enum JVal {
    Str(String),
    Num(u64),
    Arr(Vec<u64>),
}

pub(crate) fn get_str(map: &BTreeMap<String, JVal>, key: &str) -> Result<String, String> {
    match map.get(key) {
        Some(JVal::Str(s)) => Ok(s.clone()),
        _ => Err(format!("missing string field {key:?}")),
    }
}

pub(crate) fn get_num_or_zero(map: &BTreeMap<String, JVal>, key: &str) -> u64 {
    match map.get(key) {
        Some(JVal::Num(v)) => *v,
        _ => 0,
    }
}

fn get_heat(map: &BTreeMap<String, JVal>, key: &str) -> Result<[u64; HEAT_BUCKETS], String> {
    let mut out = [0u64; HEAT_BUCKETS];
    match map.get(key) {
        Some(JVal::Arr(v)) if v.len() == HEAT_BUCKETS => {
            out.copy_from_slice(v);
            Ok(out)
        }
        Some(JVal::Arr(v)) => Err(format!(
            "field {key:?}: {} buckets where {HEAT_BUCKETS} expected",
            v.len()
        )),
        None => Ok(out),
        _ => Err(format!("field {key:?} is not an array")),
    }
}

/// Minimal JSON parser for the flat objects this module emits.
pub(crate) fn parse_object(line: &str) -> Result<BTreeMap<String, JVal>, String> {
    let mut p = Parser {
        b: line.as_bytes(),
        i: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut map = BTreeMap::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.i += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let val = p.value()?;
            map.insert(key, val);
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => return Err("expected ',' or '}'".into()),
            }
        }
    }
    p.skip_ws();
    if p.i != p.b.len() {
        return Err("trailing bytes after object".into());
    }
    Ok(map)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.i += 1;
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        match self.next() {
            Some(got) if got == c => Ok(()),
            got => Err(format!("expected {:?}, got {got:?}", c as char)),
        }
    }

    fn value(&mut self) -> Result<JVal, String> {
        match self.peek() {
            Some(b'"') => Ok(JVal::Str(self.string()?)),
            Some(b'[') => {
                self.i += 1;
                let mut arr = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(JVal::Arr(arr));
                }
                loop {
                    self.skip_ws();
                    arr.push(self.number()?);
                    self.skip_ws();
                    match self.next() {
                        Some(b',') => continue,
                        Some(b']') => break,
                        _ => return Err("expected ',' or ']'".into()),
                    }
                }
                Ok(JVal::Arr(arr))
            }
            Some(c) if c.is_ascii_digit() => Ok(JVal::Num(self.number()?)),
            other => Err(format!("unexpected value start {other:?}")),
        }
    }

    fn number(&mut self) -> Result<u64, String> {
        let start = self.i;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.i == start {
            return Err("expected a number".into());
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| "number out of range".into())
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Consume one UTF-8 scalar at a time so multi-byte characters
            // pass through unharmed.
            let rest = std::str::from_utf8(&self.b[self.i..])
                .map_err(|_| "invalid UTF-8 in string".to_string())?;
            let mut chars = rest.chars();
            let c = chars.next().ok_or("unterminated string")?;
            self.i += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let esc = chars.next().ok_or("unterminated escape")?;
                    self.i += esc.len_utf8();
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'b' => out.push('\u{0008}'),
                        'f' => out.push('\u{000c}'),
                        'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            self.i += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid code point {code:#x}"))?,
                            );
                        }
                        other => return Err(format!("unknown escape \\{other}")),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Receiver of trace events. Implementations must be cheap: they run inline
/// on the I/O path of a traced run (but never on an untraced one). Sinks
/// must be [`Send`]: the tracer lives behind the context's shared state and
/// may be driven from any worker thread (calls are serialised by the
/// tracer's lock, so `Sync` is not required).
pub trait TraceSink: Send {
    /// Record one event.
    fn record(&mut self, ev: &TraceEvent);
    /// Flush any buffering (called at trace finish).
    fn flush(&mut self) {}
}

#[derive(Debug, Default)]
struct RingInner {
    cap: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// A bounded in-memory sink keeping the most recent events. Clones share
/// the buffer; keep one clone to inspect [`RingSink::events`] after the
/// run.
#[derive(Debug, Clone, Default)]
pub struct RingSink {
    inner: Arc<Mutex<RingInner>>,
}

impl RingSink {
    /// A ring holding at most `cap` events (`cap == 0` keeps everything).
    pub fn new(cap: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::new(RingInner {
                cap,
                events: VecDeque::new(),
                dropped: 0,
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RingInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// A copy of the buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock().events.iter().cloned().collect()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, ev: &TraceEvent) {
        let mut g = self.lock();
        if g.cap > 0 && g.events.len() == g.cap {
            g.events.pop_front();
            g.dropped += 1;
        }
        g.events.push_back(ev.clone());
    }
}

/// A streaming JSON-lines file sink: one [`TraceEvent`] per line. Write
/// errors are sticky and reported at flush time via
/// [`JsonlSink::had_error`]; they never fail the traced run itself.
#[derive(Debug)]
pub struct JsonlSink {
    w: std::io::BufWriter<std::fs::File>,
    error: bool,
}

impl JsonlSink {
    /// Create (truncate) `path` and stream events into it.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let f = std::fs::File::create(path)?;
        Ok(Self {
            w: std::io::BufWriter::new(f),
            error: false,
        })
    }

    /// Whether any write to the trace file failed.
    pub fn had_error(&self) -> bool {
        self.error
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, ev: &TraceEvent) {
        if writeln!(self.w, "{}", ev.to_json()).is_err() {
            self.error = true;
        }
    }

    fn flush(&mut self) {
        if self.w.flush().is_err() {
            self.error = true;
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.w.flush();
    }
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

#[derive(Default)]
struct TraceState {
    sink: Option<Box<dyn TraceSink>>,
    epoch: Option<Instant>,
    next_id: u64,
    /// Open spans in open order. Not a pure stack: concurrent workers
    /// interleave opens and closes, so each entry remembers the thread
    /// that opened it and parent resolution is per-thread (see
    /// [`Tracer::span_open_under`]).
    open: Vec<OpenSpan>,
    files: BTreeMap<u64, FileTrack>,
}

/// One span that has been opened but not yet closed.
#[derive(Debug)]
struct OpenSpan {
    id: u64,
    /// Open timestamp, microseconds since trace begin.
    t0: u64,
    /// Thread that opened the span; used to resolve parents so worker
    /// threads nest under their own spans, not whichever span another
    /// thread happened to open last.
    thread: ThreadId,
}

#[derive(Default)]
struct FileTrack {
    access: FileAccess,
    last_read: Option<u64>,
    last_write: Option<u64>,
}

impl std::fmt::Debug for TraceState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceState")
            .field("sink", &self.sink.is_some())
            .field("next_id", &self.next_id)
            .field("open", &self.open)
            .field("files", &self.files.len())
            .finish()
    }
}

#[derive(Debug, Default)]
struct TracerInner {
    enabled: AtomicBool,
    /// Blocks currently allocated on the backing store. Tracked even when
    /// disabled (two atomic stores per block event) so a sink attached
    /// mid-run still reports an exact space gauge.
    live_blocks: AtomicU64,
    peak_blocks: AtomicU64,
    state: Mutex<TraceState>,
}

/// Cheaply cloneable handle to a context's trace channel. Obtained from
/// [`crate::EmContext::tracer`]; disabled (every hook a single atomic flag
/// check) until a sink is installed. Thread-safe: events from concurrent
/// workers are serialised through the tracer's lock.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    /// Whether a sink is installed and events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    fn state(&self) -> MutexGuard<'_, TraceState> {
        self.inner.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Install `sink`, enable tracing, and emit [`TraceEvent::Begin`] with
    /// the machine geometry. Replaces any previous sink without flushing
    /// it; call [`Tracer::finish`] first to end a trace cleanly.
    pub fn install(&self, sink: Box<dyn TraceSink>, mem: u64, block: u64) {
        let mut st = self.state();
        st.sink = Some(sink);
        st.epoch = Some(Instant::now());
        st.next_id = 0;
        st.open.clear();
        st.files.clear();
        self.inner.enabled.store(true, Ordering::Relaxed);
        let ev = TraceEvent::Begin {
            t_us: 0,
            mem,
            block,
        };
        if let Some(s) = st.sink.as_mut() {
            s.record(&ev);
        }
    }

    /// End the trace: emit per-file [`TraceEvent::FileSummary`] events and
    /// [`TraceEvent::End`], flush and drop the sink, disable tracing.
    /// Spans still open at this point are deliberately left unclosed in
    /// the output — report tooling treats them as an error.
    pub fn finish(&self) {
        if !self.is_enabled() {
            return;
        }
        let mut st = self.state();
        let t_us = now_us(&st);
        let files: Vec<(u64, FileAccess)> = st
            .files
            .iter()
            .map(|(id, tr)| (*id, tr.access.clone()))
            .collect();
        if let Some(sink) = st.sink.as_mut() {
            for (file, access) in files {
                sink.record(&TraceEvent::FileSummary {
                    file,
                    access: Box::new(access),
                });
            }
            sink.record(&TraceEvent::End {
                t_us,
                live_blocks: self.inner.live_blocks.load(Ordering::Relaxed),
                peak_blocks: self.inner.peak_blocks.load(Ordering::Relaxed),
            });
            sink.flush();
        }
        st.sink = None;
        st.epoch = None;
        st.open.clear();
        st.files.clear();
        self.inner.enabled.store(false, Ordering::Relaxed);
    }

    /// Open a span with an explicit parent (`Some(0)` forces a root).
    /// When `parent` is `None` the parent is resolved in order of
    /// preference: the calling thread's innermost open span; else the
    /// oldest open span of any thread (so spans opened from worker
    /// threads attach under the enclosing charged phase instead of
    /// becoming spurious roots, which would break delta conservation);
    /// else 0 (root). Returns the span id, or 0 when tracing is disabled.
    pub(crate) fn span_open_under(&self, name: &str, parent: Option<u64>) -> u64 {
        if !self.is_enabled() {
            return 0;
        }
        let thread = std::thread::current().id();
        let mut st = self.state();
        let t_us = now_us(&st);
        st.next_id += 1;
        let id = st.next_id;
        let parent = parent.unwrap_or_else(|| resolve_parent(&st, thread));
        st.open.push(OpenSpan {
            id,
            t0: t_us,
            thread,
        });
        let ev = TraceEvent::SpanOpen {
            id,
            parent,
            name: name.to_string(),
            t_us,
        };
        if let Some(s) = st.sink.as_mut() {
            s.record(&ev);
        }
        id
    }

    /// Close span `id` with its counter delta. No-op for id 0 (spans opened
    /// while tracing was disabled) and for ids that are not open — the
    /// stats layer debug-asserts against unbalanced phases.
    pub(crate) fn span_close(&self, id: u64, delta: &Counters) {
        if id == 0 || !self.is_enabled() {
            return;
        }
        let mut st = self.state();
        let t_us = now_us(&st);
        // Ids are unique, so search from the innermost end; concurrent
        // workers interleave closes, so the match need not be last.
        let Some(idx) = st.open.iter().rposition(|s| s.id == id) else {
            return;
        };
        let t0 = st.open.remove(idx).t0;
        let ev = TraceEvent::SpanClose {
            id,
            t_us,
            dur_us: t_us.saturating_sub(t0),
            delta: *delta,
        };
        if let Some(s) = st.sink.as_mut() {
            s.record(&ev);
        }
    }

    /// Emit a point event attributed to the calling thread's innermost
    /// open span (falling back to the oldest open span, then to 0).
    pub fn point(&self, kind: PointKind) {
        if !self.is_enabled() {
            return;
        }
        let thread = std::thread::current().id();
        let mut st = self.state();
        let t_us = now_us(&st);
        let span = resolve_parent(&st, thread);
        let ev = TraceEvent::Point { kind, span, t_us };
        if let Some(s) = st.sink.as_mut() {
            s.record(&ev);
        }
    }

    /// Record one block transfer for access-pattern analytics.
    pub(crate) fn note_access(&self, op: IoOp, file: u64, block: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut st = self.state();
        let track = st.files.entry(file).or_default();
        let prev = match op {
            IoOp::Read => track.last_read.replace(block),
            IoOp::Write => track.last_write.replace(block),
        };
        track.access.note(op, block, prev);
    }

    /// Blocks allocated on the backing store (always tracked).
    pub(crate) fn note_blocks_alloc(&self, n: u64) {
        let live = self
            .inner
            .live_blocks
            .fetch_add(n, Ordering::Relaxed)
            .saturating_add(n);
        self.inner.peak_blocks.fetch_max(live, Ordering::Relaxed);
    }

    /// Blocks released from the backing store (always tracked).
    pub(crate) fn note_blocks_free(&self, n: u64) {
        let _ = self
            .inner
            .live_blocks
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Blocks currently allocated on the backing store.
    pub fn live_blocks(&self) -> u64 {
        self.inner.live_blocks.load(Ordering::Relaxed)
    }

    /// Peak blocks allocated over the context's lifetime.
    pub fn peak_blocks(&self) -> u64 {
        self.inner.peak_blocks.load(Ordering::Relaxed)
    }

    /// Number of currently open spans (0 when disabled).
    pub fn open_spans(&self) -> usize {
        self.state().open.len()
    }

    /// Access statistics recorded so far for `file`, if any.
    pub fn file_access(&self, file: u64) -> Option<FileAccess> {
        self.state().files.get(&file).map(|t| t.access.clone())
    }
}

fn now_us(st: &TraceState) -> u64 {
    st.epoch
        .map(|e| e.elapsed().as_micros().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// Innermost open span of `thread`, else the oldest open span of any
/// thread, else 0.
fn resolve_parent(st: &TraceState, thread: ThreadId) -> u64 {
    st.open
        .iter()
        .rev()
        .find(|s| s.thread == thread)
        .or_else(|| st.open.first())
        .map(|s| s.id)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(ev: TraceEvent) {
        let line = ev.to_json();
        let back = TraceEvent::parse(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(back, ev, "line: {line}");
    }

    #[test]
    fn events_roundtrip_through_json() {
        roundtrip(TraceEvent::Begin {
            t_us: 0,
            mem: 4096,
            block: 64,
        });
        roundtrip(TraceEvent::SpanOpen {
            id: 3,
            parent: 1,
            name: "multi-select/pruned".into(),
            t_us: 17,
        });
        roundtrip(TraceEvent::SpanClose {
            id: 3,
            t_us: 400,
            dur_us: 383,
            delta: Counters {
                reads: 10,
                writes: 4,
                comparisons: 99,
                bytes_read: 1 << 40,
                bytes_written: 7,
                retries: 2,
                corrupt_reads: 1,
                journal_writes: 3,
                redone_ios: 5,
                physical_reads: 8,
                physical_writes: 4,
                cache_hits: 2,
                cache_misses: 8,
                shed_queries: 1,
                breaker_trips: 1,
                degraded_answers: 6,
                mem_denials: 2,
                mem_reclaims: 1,
            },
        });
        roundtrip(TraceEvent::Point {
            kind: PointKind::Retry { op: IoOp::Write },
            span: 2,
            t_us: 9,
        });
        roundtrip(TraceEvent::Point {
            kind: PointKind::Fault {
                kind: FaultKind::TornWrite,
                op: IoOp::Write,
                file: 12,
            },
            span: 0,
            t_us: 1,
        });
        roundtrip(TraceEvent::Point {
            kind: PointKind::JournalCommit {
                name: "sort-manifest".into(),
            },
            span: 4,
            t_us: 2,
        });
        roundtrip(TraceEvent::Point {
            kind: PointKind::WorkUnitRedo { ios: 123 },
            span: 9,
            t_us: 3,
        });
        roundtrip(TraceEvent::Point {
            kind: PointKind::Governor {
                event: "squeeze".into(),
                words: 8192,
            },
            span: 0,
            t_us: 4,
        });
        let mut access = FileAccess::default();
        for b in 0..100 {
            access.note(IoOp::Write, b, b.checked_sub(1));
        }
        access.note(IoOp::Read, 50, None);
        access.note(IoOp::Read, 3, Some(50));
        roundtrip(TraceEvent::FileSummary {
            file: 7,
            access: Box::new(access),
        });
        roundtrip(TraceEvent::End {
            t_us: 1_000_000,
            live_blocks: 42,
            peak_blocks: 99,
        });
    }

    #[test]
    fn escaping_handles_hostile_names() {
        for name in [
            "plain",
            "with \"quotes\" and \\backslashes\\",
            "newline\nand\ttab\rand\u{0001}control",
            "unicode: héllo → 世界 𝄞",
            "",
        ] {
            roundtrip(TraceEvent::SpanOpen {
                id: 1,
                parent: 0,
                name: name.into(),
                t_us: 0,
            });
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(TraceEvent::parse("").is_err());
        assert!(TraceEvent::parse("{}").is_err());
        assert!(TraceEvent::parse("{\"e\":\"nope\"}").is_err());
        assert!(TraceEvent::parse("{\"e\":\"open\",\"id\":1").is_err());
        assert!(TraceEvent::parse("{\"e\":\"open\"} tail").is_err());
    }

    #[test]
    fn ring_sink_bounded() {
        let ring = RingSink::new(4);
        let mut sink: Box<dyn TraceSink> = Box::new(ring.clone());
        for i in 0..10 {
            sink.record(&TraceEvent::SpanOpen {
                id: i,
                parent: 0,
                name: "x".into(),
                t_us: i,
            });
        }
        assert_eq!(ring.events().len(), 4);
        assert_eq!(ring.dropped(), 6);
        // Oldest evicted: the survivors are ids 6..10.
        match &ring.events()[0] {
            TraceEvent::SpanOpen { id, .. } => assert_eq!(*id, 6),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tracer_spans_nest_and_attribute_points() {
        let tracer = Tracer::default();
        assert!(!tracer.is_enabled());
        assert_eq!(tracer.span_open_under("ignored", None), 0);
        let ring = RingSink::new(0);
        tracer.install(Box::new(ring.clone()), 4096, 64);
        let a = tracer.span_open_under("a", None);
        let b = tracer.span_open_under("b", None);
        tracer.point(PointKind::Retry { op: IoOp::Read });
        tracer.span_close(b, &Counters::default());
        let c = tracer.span_open_under("c", None);
        tracer.span_close(c, &Counters::default());
        tracer.span_close(a, &Counters::default());
        tracer.finish();
        let evs = ring.events();
        let parent_of = |name: &str| {
            evs.iter()
                .find_map(|e| match e {
                    TraceEvent::SpanOpen {
                        name: n, parent, ..
                    } if n == name => Some(*parent),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(parent_of("a"), 0);
        assert_eq!(parent_of("b"), a);
        assert_eq!(parent_of("c"), a);
        let point_span = evs
            .iter()
            .find_map(|e| match e {
                TraceEvent::Point { span, .. } => Some(*span),
                _ => None,
            })
            .unwrap();
        assert_eq!(point_span, b);
        assert!(matches!(evs.last(), Some(TraceEvent::End { .. })));
        assert!(!tracer.is_enabled());
    }

    #[test]
    fn worker_thread_spans_nest_under_oldest_open_span() {
        let tracer = Tracer::default();
        let ring = RingSink::new(0);
        tracer.install(Box::new(ring.clone()), 4096, 64);
        let root = tracer.span_open_under("root", None);
        // A worker with no spans of its own attaches under the oldest
        // open span (the coordinating phase), not at the root level.
        let (w_outer, w_inner) = std::thread::scope(|s| {
            s.spawn(|| {
                let outer = tracer.span_open_under("w-outer", None);
                let inner = tracer.span_open_under("w-inner", None);
                tracer.span_close(inner, &Counters::default());
                tracer.span_close(outer, &Counters::default());
                (outer, inner)
            })
            .join()
            .unwrap()
        });
        // Meanwhile an explicit parent always wins.
        let pinned = tracer.span_open_under("pinned", Some(root));
        tracer.span_close(pinned, &Counters::default());
        tracer.span_close(root, &Counters::default());
        tracer.finish();
        let evs = ring.events();
        let parent_of = |want: u64| {
            evs.iter()
                .find_map(|e| match e {
                    TraceEvent::SpanOpen { id, parent, .. } if *id == want => Some(*parent),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(parent_of(w_outer), root, "worker falls back to oldest open");
        assert_eq!(parent_of(w_inner), w_outer, "same-thread nesting wins");
        assert_eq!(parent_of(pinned), root);
    }

    #[test]
    fn heatmap_folds_as_file_grows() {
        let mut a = FileAccess::default();
        let mut prev = None;
        for b in 0..1000u64 {
            a.note(IoOp::Write, b, prev);
            prev = Some(b);
        }
        assert_eq!(a.writes, 1000);
        assert_eq!(a.seq_writes, 1000);
        assert_eq!(a.write_heat.iter().sum::<u64>(), 1000);
        // 1000 blocks across 16 buckets needs 64 blocks per bucket.
        assert_eq!(a.heat_scale, 64);
        assert_eq!(a.seeks, 0);
        assert_eq!(a.mean_seek(), 0.0);
        assert_eq!(a.sequential_fraction(), 1.0);
    }

    #[test]
    fn random_access_classified_with_seek_distances() {
        let mut a = FileAccess::default();
        a.note(IoOp::Read, 0, None); // first: sequential
        a.note(IoOp::Read, 1, Some(0)); // next: sequential
        a.note(IoOp::Read, 1, Some(1)); // re-read: sequential
        a.note(IoOp::Read, 10, Some(1)); // seek of |10 - 2| = 8
        a.note(IoOp::Read, 2, Some(10)); // seek of |2 - 11| = 9
        assert_eq!(a.seq_reads, 3);
        assert_eq!(a.rand_reads, 2);
        assert_eq!(a.seeks, 2);
        assert_eq!(a.max_seek, 9);
        assert_eq!(a.sum_seek, 17);
        assert!((a.mean_seek() - 8.5).abs() < 1e-9);
    }

    #[test]
    fn gauge_tracks_even_when_disabled() {
        let tracer = Tracer::default();
        tracer.note_blocks_alloc(5);
        tracer.note_blocks_alloc(3);
        tracer.note_blocks_free(6);
        assert_eq!(tracer.live_blocks(), 2);
        assert_eq!(tracer.peak_blocks(), 8);
    }
}
