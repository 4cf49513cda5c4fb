//! Persistent splitter index: a journaled pivot skeleton per dataset.
//!
//! In the spirit of online multiselection (Barbay–Gupta–Jo–Rao–Sorenson),
//! every answered batch can *refine* the index: the dataset is kept as an
//! ordered list of [`Segment`]s covering disjoint global-rank windows
//! `(prev_end, end_rank]`, each with the element at its right boundary
//! once discovered. A later query rank is answered by selecting only
//! inside the narrowest segment containing it — and a rank equal to a
//! known boundary is answered from memory at zero I/O.
//!
//! Refinement costs only what it changes:
//! * a segment whose files span two or more blocks is *cut* at the new
//!   ranks (and at any marks it holds), because some piece then takes
//!   fewer blocks than the whole and later selects inside it read less;
//! * a segment held in one block keeps each new answer as a *mark* — a
//!   known `(rank, element)` pair inside its window — because cutting it
//!   would save no later query a read. A mark is an index hit like a
//!   boundary, and [`SplitterIndex::boundaries`] lists both.
//!
//! The skeleton is journaled to `serve-index-<name>` as a snapshot plus a
//! log (see [`emcore::Journal`]): each refinement appends one delta record
//! listing the boundaries set, the marks added and the segments that
//! replaced a rewritten one. When the log has grown past the snapshot, the
//! next refinement writes a fresh snapshot instead, as the next
//! generation, so bytes written per refinement are O(delta) amortized.
//! Warmth survives process restarts on the directory backend: a reopened
//! index loads the snapshot and replays the valid records of its log.
//!
//! Invariants (the first two are checked on load, and a reopen fails if
//! a referenced file is missing):
//! * segments are in strictly increasing `end_rank` order and the last
//!   `end_rank` equals the dataset length — the windows tile `[1, N]`;
//! * a segment's files hold exactly the elements of its window, in
//!   arbitrary order (`Σ seg len = end_rank − prev_end`); marks never
//!   change a segment's files;
//! * `boundary`, when present, is the element of global rank `end_rank`,
//!   and every mark lies strictly inside its segment's window and holds
//!   the element of its rank — refinement cuts at *exact ranks* (via
//!   [`emselect::multi_partition_segs`]), which keeps boundaries
//!   rank-exact even under duplicate keys;
//! * every durable journal state (the snapshot plus the valid prefix of
//!   its log) references only files that exist: a rewritten segment's
//!   files are released only after the write that drops them is durable.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use emcore::{from_hex, to_hex, EmContext, EmError, EmFile, Journal, JournalState, Record, Result};
use emselect::{multi_partition_segs, multi_select_window, MpOptions, MsOptions};

/// Answer `ranks` approximately from a boundary skeleton alone: each
/// rank gets the value of the nearest known `(rank, value)` boundary
/// (ties toward the left boundary), and the returned bound is the
/// largest boundary distance over the batch — the value returned for
/// rank `r` has exact rank `r'` with `|r' − r| ≤ bound`. Returns `None`
/// when the skeleton is empty (no approximation possible without I/O).
///
/// `bounds` must be ascending by rank. The bound is offset-invariant:
/// shifting every rank and boundary by the same base leaves it
/// unchanged, so a router can feed *shard-local* ranks against a
/// shard's global-rank skeleton rebased to local coordinates — or
/// global ranks against a global skeleton — and quote the same honest
/// error either way. Shared by [`SplitterIndex::answer_approx`] and the
/// router's per-shard degradation path.
pub fn approx_from_skeleton<T: Copy>(bounds: &[(u64, T)], ranks: &[u64]) -> Option<(Vec<T>, u64)> {
    if bounds.is_empty() {
        return None;
    }
    let mut out = Vec::with_capacity(ranks.len());
    let mut worst = 0u64;
    for &r in ranks {
        // Nearest known boundary by rank distance (ties toward the
        // left boundary, which `partition_point` gives us first).
        let i = bounds.partition_point(|&(br, _)| br < r);
        let lo = i.checked_sub(1).map(|j| bounds[j]);
        let hi = bounds.get(i).copied();
        let (br, bv) = match (lo, hi) {
            (Some((lr, lv)), Some((hr, hv))) => {
                if r - lr <= hr - r {
                    (lr, lv)
                } else {
                    (hr, hv)
                }
            }
            (Some(b), None) | (None, Some(b)) => b,
            (None, None) => unreachable!("bounds nonempty"),
        };
        worst = worst.max(br.abs_diff(r));
        out.push(bv);
    }
    Some((out, worst))
}

/// One rank window `(prev_end, end_rank]` of the dataset.
#[derive(Debug)]
pub struct Segment<T: Record> {
    /// Right edge of the window (inclusive, global 1-based rank).
    pub end_rank: u64,
    /// The element of rank `end_rank`, once a query has discovered it.
    pub boundary: Option<T>,
    /// Answered `(rank, element)` pairs strictly inside the window,
    /// ascending — kept instead of cuts while the files hold one block.
    marks: Vec<(u64, T)>,
    /// Files holding exactly the window's elements.
    files: Vec<EmFile<T>>,
}

impl<T: Record> Segment<T> {
    /// The element of rank `r` if the segment knows it without I/O.
    fn known(&self, r: u64) -> Option<T> {
        if r == self.end_rank {
            return self.boundary;
        }
        self.marks
            .binary_search_by_key(&r, |&(m, _)| m)
            .ok()
            .map(|j| self.marks[j].1)
    }
}

/// Counters for one [`SplitterIndex::answer`] call.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AnswerStats {
    /// Ranks answered from a stored boundary or mark, at zero I/O.
    pub index_hits: u64,
    /// Distinct ranks answered by an in-segment multi-select pass.
    pub selected: u64,
    /// Segments that needed a select pass.
    pub segments_touched: u64,
}

/// One journaled segment: right edge, boundary, files as `(id, len)`.
struct SegImage<T> {
    end: u64,
    boundary: Option<T>,
    files: Vec<(u64, u64)>,
}

/// The journaled skeleton. Encoded, it is the snapshot document:
///
/// ```text
/// dataset <file id>
/// generation <g>
/// seg <end rank> <boundary hex | -> <id>:<len>…   one per segment
/// mark <rank> <element hex>                       one per mark
/// ```
///
/// A log record (one per refinement, see [`IndexImage::apply`]) holds
/// `bound <end rank> <hex>` and `mark <rank> <hex>` lines, and `split <end
/// rank> <k>` followed by the `k` `seg` lines that replace that segment.
struct IndexImage<T: Record> {
    dataset_file: u64,
    /// Generation of the snapshot: only its log is replayed onto it.
    generation: u64,
    segs: Vec<SegImage<T>>,
    marks: BTreeMap<u64, T>,
}

/// `<rank> <element hex>` of a `bound` or `mark` line.
fn write_known<T: Record>(out: &mut String, key: &str, rank: u64, x: T) {
    let _ = writeln!(out, "{key} {rank} {}", record_hex(x));
}

fn write_seg<T: Record>(
    out: &mut String,
    end: u64,
    boundary: Option<T>,
    files: impl Iterator<Item = (u64, u64)>,
) {
    let b = boundary.map_or_else(|| "-".to_string(), record_hex);
    let _ = write!(out, "seg {end} {b}");
    for (id, len) in files {
        let _ = write!(out, " {id}:{len}");
    }
    let _ = writeln!(out);
}

fn record_hex<T: Record>(x: T) -> String {
    let mut bytes = vec![0u8; T::BYTES];
    x.write_bytes(&mut bytes);
    to_hex(&bytes)
}

fn bad_line(line: &str) -> EmError {
    EmError::config(format!("splitter index: bad line {line:?}"))
}

fn parse_record<T: Record>(hex: &str) -> Result<T> {
    let bytes = from_hex(hex)?;
    if bytes.len() != T::BYTES {
        return Err(EmError::config(format!(
            "splitter index: element of {} bytes, record has {}",
            bytes.len(),
            T::BYTES
        )));
    }
    Ok(T::read_bytes(&bytes))
}

/// Parse the `<rank> <hex>` rest of a `bound` or `mark` line.
fn parse_known<T: Record>(line: &str, rest: &str) -> Result<(u64, T)> {
    let (rank, hex) = rest.split_once(' ').ok_or_else(|| bad_line(line))?;
    let rank = rank.parse::<u64>().map_err(|_| bad_line(line))?;
    Ok((rank, parse_record(hex)?))
}

/// Parse the rest of a `seg` line.
fn parse_seg<T: Record>(line: &str, rest: &str) -> Result<SegImage<T>> {
    let mut it = rest.split(' ');
    let end = it
        .next()
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| bad_line(line))?;
    let boundary = match it.next().ok_or_else(|| bad_line(line))? {
        "-" => None,
        hex => Some(parse_record(hex)?),
    };
    let mut files = Vec::new();
    for tok in it {
        let (id, len) = tok.split_once(':').ok_or_else(|| bad_line(line))?;
        files.push((
            id.parse::<u64>().map_err(|_| bad_line(line))?,
            len.parse::<u64>().map_err(|_| bad_line(line))?,
        ));
    }
    Ok(SegImage {
        end,
        boundary,
        files,
    })
}

impl<T: Record> IndexImage<T> {
    /// Index of the segment ending at rank `end`, named by `line`.
    fn seg_ending_at(&self, end: u64, line: &str) -> Result<usize> {
        self.segs
            .binary_search_by_key(&end, |s| s.end)
            .map_err(|_| bad_line(line))
    }

    /// Replay one log record.
    fn apply(&mut self, record: &str) -> Result<()> {
        let mut lines = record.lines();
        while let Some(line) = lines.next() {
            match line.split_once(' ') {
                Some(("bound", rest)) => {
                    let (end, x) = parse_known(line, rest)?;
                    let i = self.seg_ending_at(end, line)?;
                    self.segs[i].boundary = Some(x);
                }
                Some(("mark", rest)) => {
                    let (rank, x) = parse_known(line, rest)?;
                    self.marks.insert(rank, x);
                }
                Some(("split", rest)) => {
                    let (end, k) = rest.split_once(' ').ok_or_else(|| bad_line(line))?;
                    let end = end.parse::<u64>().map_err(|_| bad_line(line))?;
                    let k = k.parse::<usize>().map_err(|_| bad_line(line))?;
                    let i = self.seg_ending_at(end, line)?;
                    let prev = i.checked_sub(1).map_or(0, |j| self.segs[j].end);
                    let mut parts = Vec::new();
                    for _ in 0..k {
                        let seg = lines.next().ok_or_else(|| bad_line(line))?;
                        match seg.split_once(' ') {
                            Some(("seg", rest)) => parts.push(parse_seg(seg, rest)?),
                            _ => return Err(bad_line(seg)),
                        }
                    }
                    if parts.last().map(|p| p.end) != Some(end) {
                        return Err(bad_line(line));
                    }
                    // The rewrite cut at every mark in the window.
                    self.marks.retain(|&r, _| r <= prev || r > end);
                    self.segs.splice(i..=i, parts);
                }
                _ => return Err(bad_line(line)),
            }
        }
        Ok(())
    }
}

impl<T: Record> JournalState for IndexImage<T> {
    const KIND: &'static str = "serve-splitter-index";
    /// Version 2 adds the generation and marks; a version-1 skeleton is
    /// refused as an older format.
    const VERSION: u32 = 2;

    fn encode(&self, out: &mut String) {
        let _ = writeln!(out, "dataset {}", self.dataset_file);
        let _ = writeln!(out, "generation {}", self.generation);
        for s in &self.segs {
            write_seg(out, s.end, s.boundary, s.files.iter().copied());
        }
        for (&rank, &x) in &self.marks {
            write_known(out, "mark", rank, x);
        }
    }

    fn decode(body: &str) -> Result<Self> {
        let mut dataset_file = None;
        let mut generation = None;
        let mut segs = Vec::new();
        let mut marks = BTreeMap::new();
        for line in body.lines() {
            let num = |s: &str| s.parse::<u64>().map_err(|_| bad_line(line));
            match line.split_once(' ') {
                Some(("dataset", id)) => dataset_file = Some(num(id)?),
                Some(("generation", g)) => generation = Some(num(g)?),
                Some(("seg", rest)) => segs.push(parse_seg(line, rest)?),
                Some(("mark", rest)) => {
                    let (rank, x) = parse_known(line, rest)?;
                    marks.insert(rank, x);
                }
                _ => return Err(bad_line(line)),
            }
        }
        let missing = |what: &str| EmError::config(format!("splitter index: missing {what} line"));
        Ok(IndexImage {
            dataset_file: dataset_file.ok_or_else(|| missing("dataset"))?,
            generation: generation.ok_or_else(|| missing("generation"))?,
            segs,
            marks,
        })
    }
}

/// The per-dataset pivot skeleton. Owns the dataset's backing file handle
/// and every refinement partition; all of them are marked persistent, so
/// the skeleton survives handle drops and (on disk) process exits.
#[derive(Debug)]
pub struct SplitterIndex<T: Record> {
    ctx: EmContext,
    journal: Journal,
    segments: Vec<Segment<T>>,
    /// The original registered file: never released by refinement — the
    /// catalog references it forever — and the files of the unrefined
    /// segment (whose `files` list is empty).
    dataset: EmFile<T>,
    /// Generation of the last snapshot; appends go to its log.
    generation: u64,
    /// Size in bytes of the last snapshot document.
    snapshot_bytes: u64,
    /// Bytes in the current generation's log, or `None` when there is no
    /// snapshot to append to or a refinement failed part-way (the skeleton
    /// may then be ahead of the journal): the next refinement writes a
    /// whole snapshot.
    log_bytes: Option<u64>,
}

impl<T: Record> SplitterIndex<T> {
    /// Open the index for dataset `name`, taking ownership of its backing
    /// file. Loads the committed skeleton if one exists — the snapshot plus
    /// the valid records of its log, reopening every segment file by id
    /// (directory backend) — else starts with a single unrefined segment
    /// covering the whole dataset.
    pub fn open(ctx: &EmContext, name: &str, dataset: EmFile<T>) -> Result<Self> {
        dataset.set_persistent(true);
        let mut idx = SplitterIndex {
            ctx: ctx.clone(),
            journal: Journal::new(ctx, format!("serve-index-{name}"))?,
            segments: vec![Segment {
                end_rank: dataset.len(),
                boundary: None,
                marks: Vec::new(),
                files: Vec::new(), // the dataset handle
            }],
            dataset,
            generation: 0,
            snapshot_bytes: 0,
            log_bytes: None,
        };
        // The memory backend cannot reopen files by id; a leftover
        // journal (same-process restart) cannot be honoured.
        if ctx.backing_dir().is_none() {
            return Ok(idx);
        }
        if let Some(mut img) = idx.journal.load::<IndexImage<T>>()? {
            if img.dataset_file != idx.dataset.id() {
                return Err(EmError::config(format!(
                    "splitter index for {name:?} references file {}, dataset is {}",
                    img.dataset_file,
                    idx.dataset.id()
                )));
            }
            let (records, log_bytes) = idx.journal.read_log(img.generation)?;
            for record in &records {
                img.apply(record)?;
            }
            idx.segments = idx.reopen(img.segs, img.marks)?;
            idx.generation = img.generation;
            idx.snapshot_bytes = idx.journal.document_len()?;
            idx.log_bytes = Some(log_bytes);
        }
        Ok(idx)
    }

    /// Ids of the files the index journal of dataset `name` references —
    /// its snapshot with its log replayed, the dataset's file included —
    /// without opening them. Empty when the dataset has no index journal.
    pub(crate) fn journaled_file_ids(ctx: &EmContext, name: &str) -> Result<Vec<u64>> {
        let journal = Journal::new(ctx, format!("serve-index-{name}"))?;
        let Some(mut img) = journal.load::<IndexImage<T>>()? else {
            return Ok(Vec::new());
        };
        for record in &journal.read_log(img.generation)?.0 {
            img.apply(record)?;
        }
        let segs = img
            .segs
            .iter()
            .flat_map(|s| s.files.iter().map(|&(id, _)| id));
        Ok(std::iter::once(img.dataset_file).chain(segs).collect())
    }

    /// Reopen a journaled skeleton's files and check its invariants.
    fn reopen(&self, segs: Vec<SegImage<T>>, marks: BTreeMap<u64, T>) -> Result<Vec<Segment<T>>> {
        let mut segments = Vec::with_capacity(segs.len());
        let mut prev = 0u64;
        for s in segs {
            if s.end <= prev {
                return Err(EmError::config("splitter index: unordered segments"));
            }
            let mut files = Vec::with_capacity(s.files.len());
            let mut held = 0u64;
            for (id, len) in s.files {
                held += len;
                // The dataset handle is already open; reopening it would
                // double-open, so it stays the segment's implicit file.
                if id != self.dataset.id() {
                    files.push(self.ctx.open_file::<T>(id, len)?);
                }
            }
            if held != s.end - prev {
                return Err(EmError::config(format!(
                    "splitter index: segment ({prev}, {}] holds {held} records",
                    s.end
                )));
            }
            segments.push(Segment {
                end_rank: s.end,
                boundary: s.boundary,
                marks: Vec::new(),
                files,
            });
            prev = s.end;
        }
        let n = self.dataset.len();
        if prev != n {
            return Err(EmError::config(format!(
                "splitter index covers [1, {prev}], dataset has {n} records"
            )));
        }
        for (rank, x) in marks {
            let i = segments.partition_point(|s| s.end_rank < rank);
            if rank == 0 || i == segments.len() || segments[i].end_rank == rank {
                return Err(EmError::config(format!(
                    "splitter index: mark at rank {rank} is not inside a segment"
                )));
            }
            // The map yields ranks in order, so each segment's marks
            // come out ascending.
            segments[i].marks.push((rank, x));
        }
        Ok(segments)
    }

    /// Total records covered.
    pub fn len(&self) -> u64 {
        self.segments.last().map(|s| s.end_rank).unwrap_or(0)
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of segments (1 = unrefined).
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Known `(rank, element)` pairs — segment boundaries and marks —
    /// ascending by rank.
    pub fn boundaries(&self) -> Vec<(u64, T)> {
        let mut out = Vec::new();
        for s in &self.segments {
            out.extend_from_slice(&s.marks);
            if let Some(b) = s.boundary {
                out.push((s.end_rank, b));
            }
        }
        out
    }

    /// File ids referenced by the skeleton, the dataset's included: what
    /// a restarted server keeps when it sweeps its block store (see
    /// [`crate::QueryServer::start`]).
    pub fn live_file_ids(&self) -> Vec<u64> {
        let mut ids = vec![self.dataset.id()];
        for s in &self.segments {
            ids.extend(s.files.iter().map(|f| f.id()));
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Files of segment `i`, falling back to the dataset handle for the
    /// unrefined segment (whose `files` list is empty).
    fn segment_files(&self, i: usize) -> &[EmFile<T>] {
        let files = &self.segments[i].files;
        if files.is_empty() {
            std::slice::from_ref(&self.dataset)
        } else {
            files
        }
    }

    fn prev_end(&self, i: usize) -> u64 {
        i.checked_sub(1).map_or(0, |j| self.segments[j].end_rank)
    }

    /// Answer `ranks` (1-based, any order, repeats allowed), in the
    /// caller's order — bit-identical to a full-dataset multi-select of
    /// the same ranks. Boundary and mark hits are answered at zero I/O;
    /// the rest are grouped per containing segment and each group of
    /// distinct ranks is answered with one [`multi_select_window`] pass.
    /// With `refine` set, every answered rank is then remembered — as a
    /// cut of a segment spanning two or more blocks (exact sizes,
    /// duplicates safe), else as a mark — and the change is journaled.
    pub fn answer(
        &mut self,
        ranks: &[u64],
        opts: MsOptions,
        refine: bool,
    ) -> Result<(Vec<T>, AnswerStats)> {
        let n = self.len();
        for &r in ranks {
            if r == 0 || r > n {
                return Err(EmError::config(format!("rank {r} out of range [1, {n}]")));
            }
        }
        let mut stats = AnswerStats::default();
        let mut answered: BTreeMap<u64, T> = BTreeMap::new();
        // Per-segment buckets of uncovered ranks.
        let mut buckets: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        for &r in ranks {
            if answered.contains_key(&r) {
                continue;
            }
            let i = self.segments.partition_point(|s| s.end_rank < r);
            if let Some(x) = self.segments[i].known(r) {
                stats.index_hits += 1;
                answered.insert(r, x);
                continue;
            }
            buckets.entry(i).or_default().push(r);
        }
        for seg_ranks in buckets.values_mut() {
            seg_ranks.sort_unstable();
            seg_ranks.dedup();
        }
        for (&i, seg_ranks) in &buckets {
            let _span = self
                .ctx
                .stats()
                .trace_span(|| format!("serve/segment#{i}x{}", seg_ranks.len()));
            let got = multi_select_window(
                &self.ctx,
                self.segment_files(i),
                self.prev_end(i),
                seg_ranks,
                opts,
            )?;
            stats.segments_touched += 1;
            stats.selected += seg_ranks.len() as u64;
            answered.extend(seg_ranks.iter().copied().zip(got));
        }
        if refine && !buckets.is_empty() {
            self.refine(&buckets, &answered)?;
        }
        Ok((ranks.iter().map(|r| answered[r]).collect(), stats))
    }

    /// Answer `ranks` **approximately** from the skeleton alone, at zero
    /// I/O: each rank is answered with the element of the nearest known
    /// boundary or mark. Returns the values (caller's order) and the
    /// guaranteed maximum rank error — the returned element for rank `r`
    /// has *exact* global rank `r'` with `|r' − r| ≤ bound`, where the
    /// bound is the largest distance to a known rank over the batch.
    /// Returns `Ok(None)` when the skeleton knows no element yet (a cold
    /// index knows no element of any rank, so no approximation is possible
    /// without I/O).
    ///
    /// This is the serving layer's graceful-degradation path: an
    /// over-deadline (or breaker-quarantined) quantile query gets an
    /// explicit approximation instead of an error, exactly in the spirit
    /// of the paper's approximate splitters — the skeleton *is* an
    /// approximate splitter set whose quality improves as traffic refines
    /// it.
    pub fn answer_approx(&self, ranks: &[u64]) -> Result<Option<(Vec<T>, u64)>> {
        let n = self.len();
        for &r in ranks {
            if r == 0 || r > n {
                return Err(EmError::config(format!("rank {r} out of range [1, {n}]")));
            }
        }
        Ok(approx_from_skeleton(&self.boundaries(), ranks))
    }

    /// Cheap health probe: one block read from the dataset. Used by the
    /// serving layer's circuit breaker to decide whether a quarantined
    /// dataset can be restored — it exercises the same device path a real
    /// query would, at a cost of one I/O.
    pub fn probe(&self) -> Result<()> {
        if self.segments.is_empty() {
            return Ok(());
        }
        let files = self.segment_files(0);
        if let Some(f) = files.first() {
            let mut r = f.reader()?;
            r.next()?;
        }
        Ok(())
    }

    /// Remember every answered rank of the touched segments (`buckets`
    /// hold distinct ascending ranks per segment) and journal the change.
    fn refine(
        &mut self,
        buckets: &BTreeMap<usize, Vec<u64>>,
        answered: &BTreeMap<u64, T>,
    ) -> Result<()> {
        // Replaced segment files must outlive the journal write: the
        // durable journal state references them until the write that drops
        // them is durable, so a crash (or a failed write) mid-refinement
        // must find them still on disk. They are collected here and
        // released only after the write succeeds.
        let mut retired: Vec<EmFile<T>> = Vec::new();
        let mut delta = String::new();
        let done = self
            .remember(buckets, answered, &mut delta, &mut retired)
            .and_then(|()| self.journal_delta(&delta));
        if done.is_err() {
            self.log_bytes = None;
        }
        done?;
        for f in retired {
            f.set_persistent(false);
        }
        Ok(())
    }

    /// Apply one refinement to the skeleton, writing its delta record.
    fn remember(
        &mut self,
        buckets: &BTreeMap<usize, Vec<u64>>,
        answered: &BTreeMap<u64, T>,
        delta: &mut String,
        retired: &mut Vec<EmFile<T>>,
    ) -> Result<()> {
        // Highest index first so earlier indices stay valid while splicing.
        for (&i, seg_ranks) in buckets.iter().rev() {
            let prev_end = self.prev_end(i);
            let end = self.segments[i].end_rank;
            // Answering the segment's own edge costs no rewrite: it only
            // discovers the boundary.
            let (inner, at_end) = match seg_ranks.split_last() {
                Some((&last, rest)) if last == end => (rest, true),
                _ => (&seg_ranks[..], false),
            };
            let blocks: u64 = self.segment_files(i).iter().map(|f| f.num_blocks()).sum();
            let rewrite = !inner.is_empty() && blocks >= 2;
            let seg = &mut self.segments[i];
            if at_end {
                seg.boundary = Some(answered[&end]);
            }
            if !rewrite {
                if at_end {
                    write_known(delta, "bound", end, answered[&end]);
                }
                // One block: a cut would save no later query a read.
                for &r in inner {
                    let at = seg.marks.partition_point(|&(m, _)| m < r);
                    seg.marks.insert(at, (r, answered[&r]));
                    write_known(delta, "mark", r, answered[&r]);
                }
                continue;
            }
            // Cut at every known rank inside the window: the new answers
            // and the segment's marks.
            let mut cuts: Vec<(u64, T)> = seg.marks.clone();
            cuts.extend(inner.iter().map(|&r| (r, answered[&r])));
            cuts.sort_unstable_by_key(|&(r, _)| r);
            let mut sizes: Vec<u64> = Vec::with_capacity(cuts.len() + 1);
            let mut prev = prev_end;
            for &(r, _) in &cuts {
                sizes.push(r - prev);
                prev = r;
            }
            sizes.push(end - prev); // > 0: cuts lie strictly inside
            let parts = {
                let _span = self.ctx.stats().trace_span(|| format!("serve/refine#{i}"));
                multi_partition_segs(
                    &self.ctx,
                    self.segment_files(i),
                    &sizes,
                    MpOptions::default(),
                )?
            };
            let old_boundary = self.segments[i].boundary;
            let mut replacement: Vec<Segment<T>> = Vec::with_capacity(parts.len());
            let _ = writeln!(delta, "split {end} {}", parts.len());
            let mut global_end = prev_end;
            for (j, part) in parts.into_iter().enumerate() {
                global_end += part.len();
                let boundary = match cuts.get(j) {
                    Some(&(r, x)) => {
                        debug_assert_eq!(global_end, r);
                        Some(x)
                    }
                    None => old_boundary,
                };
                let files = part.into_segments();
                for f in &files {
                    f.set_persistent(true);
                }
                write_seg(
                    delta,
                    global_end,
                    boundary,
                    files.iter().map(|f| (f.id(), f.len())),
                );
                replacement.push(Segment {
                    end_rank: global_end,
                    boundary,
                    marks: Vec::new(),
                    files,
                });
            }
            debug_assert_eq!(global_end, end);
            // Retire the replaced segment's files (never the dataset
            // file, which the catalog owns forever: it is not in `files`).
            let old: Vec<Segment<T>> = self.segments.splice(i..=i, replacement).collect();
            retired.extend(old.into_iter().flat_map(|s| s.files));
        }
        Ok(())
    }

    /// Make one refinement durable: append its delta to the log — or, when
    /// there is no snapshot to append to, or the log has grown past the
    /// snapshot, commit the whole skeleton as the next generation.
    fn journal_delta(&mut self, delta: &str) -> Result<()> {
        match self.log_bytes {
            Some(log) if log <= self.snapshot_bytes => {
                self.log_bytes = Some(log + self.journal.append(self.generation, delta)?);
            }
            _ => {
                let generation = self.generation + 1;
                self.snapshot_bytes = self
                    .journal
                    .commit_generation(&self.image(generation), generation)?;
                self.generation = generation;
                self.log_bytes = Some(0);
            }
        }
        Ok(())
    }

    /// The skeleton as a snapshot of `generation`.
    fn image(&self, generation: u64) -> IndexImage<T> {
        IndexImage {
            dataset_file: self.dataset.id(),
            generation,
            segs: (0..self.segments.len())
                .map(|i| SegImage {
                    end: self.segments[i].end_rank,
                    boundary: self.segments[i].boundary,
                    files: self
                        .segment_files(i)
                        .iter()
                        .map(|f| (f.id(), f.len()))
                        .collect(),
                })
                .collect(),
            marks: self
                .segments
                .iter()
                .flat_map(|s| s.marks.iter().copied())
                .collect(),
        }
    }

    /// Remove the committed skeleton and its log (dataset deregistration).
    pub fn remove_journal(&self) -> Result<()> {
        self.journal.remove()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emcore::{EmConfig, EmContext, SplitMix64};
    use emselect::multi_select;
    use std::collections::BTreeMap;

    fn ctx() -> EmContext {
        EmContext::new_in_memory(EmConfig::tiny())
    }

    fn dataset(c: &EmContext, n: u64, seed: u64) -> (EmFile<u64>, Vec<u64>) {
        let mut rng = SplitMix64::new(seed);
        let mut v: Vec<u64> = (0..n).collect();
        rng.shuffle(&mut v);
        let f = c.stats().paused(|| EmFile::from_slice(c, &v)).unwrap();
        let mut sorted = v;
        sorted.sort_unstable();
        (f, sorted)
    }

    #[test]
    fn answers_match_plain_multi_select_with_and_without_refine() {
        let c = ctx();
        let n = 2000u64;
        let (_, sorted) = dataset(&c, n, 1);
        let check = |got: &[u64], ranks: &[u64]| {
            let want: Vec<u64> = ranks.iter().map(|&r| sorted[(r - 1) as usize]).collect();
            assert_eq!(got, want);
        };
        for refine in [false, true] {
            let (plain, _) = dataset(&c, n, 1);
            let mut idx = SplitterIndex::open(&c, "t", plain).unwrap();
            let batches: Vec<Vec<u64>> = vec![
                vec![500, 1500, 500, 1],
                vec![1500, 700, 2000],
                vec![499, 500, 501, 1500],
            ];
            for ranks in &batches {
                let (got, _) = idx.answer(ranks, MsOptions::default(), refine).unwrap();
                check(&got, ranks);
            }
            if refine {
                assert!(idx.num_segments() > 1);
            } else {
                assert_eq!(idx.num_segments(), 1);
            }
        }
    }

    #[test]
    fn warm_boundary_hits_cost_zero_ios() {
        let c = ctx();
        let (f, _) = dataset(&c, 3000, 2);
        let mut idx = SplitterIndex::open(&c, "w", f).unwrap();
        let ranks = vec![100u64, 900, 2500];
        let (_, s1) = idx.answer(&ranks, MsOptions::default(), true).unwrap();
        assert_eq!(s1.index_hits, 0);
        let before = c.stats().snapshot();
        let (_, s2) = idx.answer(&ranks, MsOptions::default(), true).unwrap();
        assert_eq!(s2.index_hits, 3);
        assert_eq!(s2.segments_touched, 0);
        assert_eq!(
            c.stats().snapshot().since(&before).total_ios(),
            0,
            "warm boundary hits must be free"
        );
    }

    #[test]
    fn refinement_narrows_select_cost() {
        let c = ctx();
        let (f, _) = dataset(&c, 4000, 3);
        let mut idx = SplitterIndex::open(&c, "narrow", f).unwrap();
        let (_, _) = idx
            .answer(&[1000, 2000, 3000], MsOptions::default(), true)
            .unwrap();
        let before = c.stats().snapshot();
        let (_, st) = idx.answer(&[1500], MsOptions::default(), false).unwrap();
        let narrow = c.stats().snapshot().since(&before).total_ios();
        assert_eq!(st.segments_touched, 1);
        // A fresh unrefined index pays a full-dataset select for the same
        // rank.
        let (g, _) = dataset(&c, 4000, 3);
        let mut cold = SplitterIndex::open(&c, "cold", g).unwrap();
        let before = c.stats().snapshot();
        cold.answer(&[1500], MsOptions::default(), false).unwrap();
        let full = c.stats().snapshot().since(&before).total_ios();
        assert!(
            narrow < full,
            "segment-restricted select ({narrow}) must beat full select ({full})"
        );
    }

    #[test]
    fn duplicate_heavy_boundaries_stay_rank_exact() {
        let c = ctx();
        let n = 1500u64;
        let data: Vec<u64> = (0..n).map(|i| if i % 5 == 0 { i } else { 42 }).collect();
        let f = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let plain = c.stats().paused(|| EmFile::from_slice(&c, &data)).unwrap();
        let mut idx = SplitterIndex::open(&c, "dups", f).unwrap();
        let ranks = vec![300u64, 301, 700, 1200, 700];
        let (got, _) = idx.answer(&ranks, MsOptions::default(), true).unwrap();
        let want = multi_select(&plain, &ranks).unwrap();
        assert_eq!(got, want);
        // And again on the refined skeleton.
        let ranks2 = vec![299u64, 300, 302, 1200];
        let (got2, _) = idx.answer(&ranks2, MsOptions::default(), true).unwrap();
        let want2 = multi_select(&plain, &ranks2).unwrap();
        assert_eq!(got2, want2);
    }

    #[test]
    fn approx_answers_are_free_and_respect_their_bound() {
        let c = ctx();
        let (f, sorted) = dataset(&c, 3000, 7);
        let mut idx = SplitterIndex::open(&c, "apx", f).unwrap();
        // Cold skeleton: no boundary known, no approximation possible.
        assert!(idx.answer_approx(&[1500]).unwrap().is_none());
        assert!(idx.answer_approx(&[0]).is_err());
        // Warm it with exact cuts at 600/1200/1800/2400.
        idx.answer(&[600, 1200, 1800, 2400], MsOptions::default(), true)
            .unwrap();
        let before = c.stats().snapshot();
        let ranks = vec![1u64, 650, 1500, 2399, 3000];
        let (vals, bound) = idx.answer_approx(&ranks).unwrap().unwrap();
        assert_eq!(
            c.stats().snapshot().since(&before).total_ios(),
            0,
            "approximation must be skeleton-only"
        );
        // Worst asked rank is 3000, sitting 600 past the last cut at 2400.
        assert_eq!(bound, 600);
        for (&r, &v) in ranks.iter().zip(&vals) {
            let true_rank = sorted.iter().position(|&x| x == v).unwrap() as u64 + 1;
            assert!(
                true_rank.abs_diff(r) <= bound,
                "rank {r}: got rank {true_rank}, bound {bound}"
            );
        }
        // A rank sitting exactly on a boundary is answered exactly.
        let (vals2, _) = idx.answer_approx(&[1200]).unwrap().unwrap();
        assert_eq!(vals2, vec![sorted[1199]]);
    }

    #[test]
    fn a_repeated_rank_is_selected_once() {
        let c = ctx();
        let n = 2000u64;
        let (f, sorted) = dataset(&c, n, 11);
        let (g, _) = dataset(&c, n, 11);
        let mut idx = SplitterIndex::open(&c, "rep", f).unwrap();
        let mut plain = SplitterIndex::open(&c, "plain", g).unwrap();
        let ranks = vec![500u64, 1500, 500, 1, 500, 1500];
        let before = c.stats().snapshot();
        let (got, st) = idx.answer(&ranks, MsOptions::default(), true).unwrap();
        let ios = c.stats().snapshot().since(&before).total_ios();
        let want: Vec<u64> = ranks.iter().map(|&r| sorted[(r - 1) as usize]).collect();
        assert_eq!(got, want);
        assert_eq!((st.index_hits, st.selected, st.segments_touched), (0, 3, 1));
        // The same distinct ranks once each cost the same I/O.
        let before = c.stats().snapshot();
        plain
            .answer(&[500, 1500, 1], MsOptions::default(), true)
            .unwrap();
        assert_eq!(c.stats().snapshot().since(&before).total_ios(), ios);
        // Warm: a repeated known rank is one hit, a repeated new one is one
        // selection.
        let (got, st) = idx
            .answer(&[1500, 700, 1500, 700], MsOptions::default(), true)
            .unwrap();
        assert_eq!(
            got,
            vec![sorted[1499], sorted[699], sorted[1499], sorted[699]]
        );
        assert_eq!((st.index_hits, st.selected), (1, 1));
    }

    /// Every segment's files, as `(end rank, records held, blocks)`.
    fn layout(idx: &SplitterIndex<u64>) -> Vec<(u64, u64, u64)> {
        (0..idx.segments.len())
            .map(|i| {
                let files = idx.segment_files(i);
                (
                    idx.segments[i].end_rank,
                    files.iter().map(|f| f.len()).sum(),
                    files.iter().map(|f| f.num_blocks()).sum(),
                )
            })
            .collect()
    }

    #[test]
    fn refining_a_one_block_segment_writes_no_block_and_creates_no_file() {
        // B = 16: 64 records span four blocks, and cuts at 16/32/48 leave
        // four segments of one block each.
        let c = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        let (f, sorted) = dataset(&c, 64, 12);
        let mut idx = SplitterIndex::open(&c, "one", f).unwrap();
        idx.answer(&[16, 32, 48], MsOptions::default(), true)
            .unwrap();
        assert_eq!(
            layout(&idx),
            vec![(16, 16, 1), (32, 16, 1), (48, 16, 1), (64, 16, 1)]
        );
        let files = c.list_file_ids().unwrap();
        let before = c.stats().snapshot();
        let ranks = [20u64, 21, 40, 64, 3];
        let (got, st) = idx.answer(&ranks, MsOptions::default(), true).unwrap();
        let d = c.stats().snapshot().since(&before);
        let want: Vec<u64> = ranks.iter().map(|&r| sorted[(r - 1) as usize]).collect();
        assert_eq!(got, want);
        assert_eq!(st.selected, 5);
        assert_eq!(d.writes, 0, "marks write no block");
        assert_eq!(d.journal_writes, 1, "one journal write per refinement");
        assert_eq!(c.list_file_ids().unwrap(), files, "and create no file");
        assert_eq!(idx.num_segments(), 4);
        let known: Vec<u64> = idx.boundaries().iter().map(|b| b.0).collect();
        assert_eq!(known, vec![3, 16, 20, 21, 32, 40, 48, 64]);
        for (r, x) in idx.boundaries() {
            assert_eq!(x, sorted[(r - 1) as usize]);
        }
        // A mark is an index hit at zero I/O.
        let before = c.stats().snapshot();
        let (got, st) = idx.answer(&[21, 3], MsOptions::default(), true).unwrap();
        assert_eq!(got, vec![sorted[20], sorted[2]]);
        assert_eq!((st.index_hits, st.selected), (2, 0));
        let d = c.stats().snapshot().since(&before);
        assert_eq!((d.total_ios(), d.journal_writes), (0, 0));
    }

    #[test]
    fn a_multi_block_segment_with_marks_is_cut_at_marks_and_new_ranks() {
        let c = ctx();
        let n = 2000u64;
        let (f, sorted) = dataset(&c, n, 13);
        let mut idx = SplitterIndex::open(&c, "mk", f).unwrap();
        idx.answer(&[1000], MsOptions::default(), true).unwrap();
        // Marks in a 63-block segment, as a journal could hold them: a
        // snapshot holds them, and the rewrite below appends to its log.
        idx.segments[0].marks = vec![(300, sorted[299]), (850, sorted[849])];
        idx.snapshot_bytes = idx.journal.commit_generation(&idx.image(2), 2).unwrap();
        idx.generation = 2;
        idx.log_bytes = Some(0);
        let before = c.stats().snapshot();
        let (got, st) = idx.answer(&[600, 999], MsOptions::default(), true).unwrap();
        assert_eq!(got, vec![sorted[599], sorted[998]]);
        assert_eq!(st.selected, 2);
        assert!(c.stats().snapshot().since(&before).writes > 0);
        let ends: Vec<(u64, u64)> = layout(&idx).iter().map(|l| (l.0, l.1)).collect();
        assert_eq!(
            ends,
            vec![
                (300, 300),
                (600, 300),
                (850, 250),
                (999, 149),
                (1000, 1),
                (2000, 1000)
            ]
        );
        assert!(idx.segments.iter().all(|s| s.marks.is_empty()));
        let want: Vec<(u64, u64)> = [300u64, 600, 850, 999, 1000]
            .iter()
            .map(|&r| (r, sorted[(r - 1) as usize]))
            .collect();
        assert_eq!(idx.boundaries(), want);
        assert_eq!(idx.generation, 2, "the rewrite was appended");
        assert_eq!(journaled(&idx), want, "replayed marks became cuts");
        // Each piece holds exactly its window's elements.
        for (i, seg) in idx.segments.iter().enumerate() {
            let mut held: Vec<u64> = idx
                .segment_files(i)
                .iter()
                .flat_map(|f| f.to_vec().unwrap())
                .collect();
            held.sort_unstable();
            let lo = idx.prev_end(i) as usize;
            assert_eq!(held, sorted[lo..seg.end_rank as usize]);
        }
    }

    /// A temporary directory for one test's store.
    fn store_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("em-index-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Replace `to` with a copy of the files in `from`.
    fn copy_store(from: &std::path::Path, to: &std::path::Path) {
        let _ = std::fs::remove_dir_all(to);
        std::fs::create_dir_all(to).unwrap();
        for e in std::fs::read_dir(from).unwrap() {
            let e = e.unwrap();
            std::fs::copy(e.path(), to.join(e.file_name())).unwrap();
        }
    }

    /// A fresh context over `dir` (as a restarted process would make)
    /// and the index of the dataset file `(id, n)` in it.
    fn reopen(dir: &std::path::Path, id: u64, n: u64) -> (SplitterIndex<u64>, EmContext) {
        let c = EmContext::new_on_disk(EmConfig::tiny(), dir).unwrap();
        let f = c.open_file::<u64>(id, n).unwrap();
        (SplitterIndex::open(&c, "ds", f).unwrap(), c)
    }

    /// Register a shuffled dataset of `n` keys in a new store at `dir`.
    fn new_store(dir: &std::path::Path, n: u64, seed: u64) -> (u64, Vec<u64>) {
        let c = EmContext::new_on_disk(EmConfig::tiny(), dir).unwrap();
        let (f, sorted) = dataset(&c, n, seed);
        f.set_persistent(true);
        (f.id(), sorted)
    }

    #[test]
    fn marks_survive_a_restart_and_answer_at_zero_io() {
        let dir = store_dir("marks");
        let (id, sorted) = new_store(&dir, 64, 14);
        let bounds = {
            let (mut idx, _c) = reopen(&dir, id, 64);
            idx.answer(&[16, 32, 48], MsOptions::default(), true)
                .unwrap();
            idx.answer(&[20, 40, 41], MsOptions::default(), true)
                .unwrap();
            assert_eq!(idx.segments.iter().map(|s| s.marks.len()).sum::<usize>(), 3);
            idx.boundaries()
        };
        let (mut idx, c) = reopen(&dir, id, 64);
        assert_eq!(idx.boundaries(), bounds);
        let ranks = [20u64, 41, 40, 16];
        let before = c.stats().snapshot();
        let (got, st) = idx.answer(&ranks, MsOptions::default(), true).unwrap();
        let want: Vec<u64> = ranks.iter().map(|&r| sorted[(r - 1) as usize]).collect();
        assert_eq!(got, want);
        assert_eq!(st.index_hits, 4);
        assert_eq!(c.stats().snapshot().since(&before).total_ios(), 0);
        drop((idx, c));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_log_cut_inside_its_last_record_reopens_the_state_before_it() {
        let n = 600u64;
        let pre = store_dir("cut-pre");
        let (id, sorted) = new_store(&pre, n, 15);
        let (bounds_pre, log_pre) = {
            let (mut idx, _c) = reopen(&pre, id, n);
            // A snapshot large enough that the next two records append.
            idx.answer(
                &[50, 100, 150, 300, 450, 500, 550],
                MsOptions::default(),
                true,
            )
            .unwrap();
            idx.answer(&[75, 320, 330], MsOptions::default(), true)
                .unwrap();
            assert_eq!(idx.generation, 1, "the second refinement appended");
            (idx.boundaries(), idx.log_bytes.unwrap())
        };
        // The last record: a rewrite, a mark and a boundary, appended.
        let last_batch = [200u64, 325, 600];
        let full = store_dir("cut-full");
        copy_store(&pre, &full);
        let bounds_post = {
            let (mut idx, _c) = reopen(&full, id, n);
            idx.answer(&last_batch, MsOptions::default(), true).unwrap();
            assert_eq!(idx.generation, 1);
            idx.boundaries()
        };
        let log = std::fs::read(full.join("serve-index-ds.1.log")).unwrap();
        let record = &log[log_pre as usize..];
        let text = String::from_utf8_lossy(record);
        for line in ["\nsplit 300 2\n", "\nmark 325 ", "\nbound 600 "] {
            assert!(text.contains(line), "{line:?} in {text:?}");
        }
        let want: Vec<u64> = last_batch
            .iter()
            .map(|&r| sorted[(r - 1) as usize])
            .collect();
        let cut_dir = store_dir("cut-at");
        for cut in 0..record.len() {
            copy_store(&pre, &cut_dir);
            let path = cut_dir.join("serve-index-ds.1.log");
            let mut torn = std::fs::read(&path).unwrap();
            torn.extend_from_slice(&record[..cut]);
            std::fs::write(&path, torn).unwrap();
            // Reopening reopens every referenced file, or fails.
            let (mut idx, _c) = reopen(&cut_dir, id, n);
            assert_eq!(idx.boundaries(), bounds_pre, "cut at {cut}");
            assert_eq!(std::fs::metadata(&path).unwrap().len(), log_pre);
            let (got, _) = idx
                .answer(&last_batch, MsOptions::default(), false)
                .unwrap();
            assert_eq!(got, want);
        }
        // The torn tail is cut back before the next append, so a record
        // appended after it is replayed.
        copy_store(&pre, &cut_dir);
        let path = cut_dir.join("serve-index-ds.1.log");
        let mut torn = std::fs::read(&path).unwrap();
        torn.extend_from_slice(&record[..record.len() / 2]);
        std::fs::write(&path, torn).unwrap();
        {
            let (mut idx, _c) = reopen(&cut_dir, id, n);
            idx.answer(&last_batch, MsOptions::default(), true).unwrap();
            assert_eq!(idx.generation, 1);
        }
        let (idx, _c) = reopen(&cut_dir, id, n);
        assert_eq!(idx.boundaries(), bounds_post);
        drop(idx);
        for d in [pre, full, cut_dir] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn the_previous_generations_log_is_never_replayed() {
        let n = 3000u64;
        let dir = store_dir("stale-gen");
        let (id, sorted) = new_store(&dir, n, 16);
        let (mut idx, c) = reopen(&dir, id, n);
        let mut rng = SplitMix64::new(16);
        let mut old_log = None;
        for _ in 0..200 {
            if idx.generation == 3 {
                break;
            }
            if let Some(p) = idx.journal.log_path(idx.generation) {
                old_log = std::fs::read(&p).ok().map(|b| (p, b));
            }
            let r = 1 + rng.next_u64() % n;
            idx.answer(&[r], MsOptions::default(), true).unwrap();
        }
        assert_eq!(idx.generation, 3, "the log was compacted twice");
        // A crash between the new snapshot and unlinking the old log
        // leaves that log behind.
        let (path, bytes) = old_log.unwrap();
        assert!(!path.exists());
        assert!(!bytes.is_empty());
        std::fs::write(&path, bytes).unwrap();
        let bounds = idx.boundaries();
        drop((idx, c));
        let (idx, _c) = reopen(&dir, id, n);
        assert_eq!(idx.boundaries(), bounds);
        assert!(!path.exists(), "the stale log is removed on load");
        for (r, x) in idx.boundaries() {
            assert_eq!(x, sorted[(r - 1) as usize]);
        }
        drop(idx);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The known pairs of the skeleton the journal holds: its snapshot
    /// with the log replayed.
    fn journaled(idx: &SplitterIndex<u64>) -> Vec<(u64, u64)> {
        let mut img = idx.journal.load::<IndexImage<u64>>().unwrap().unwrap();
        for record in idx.journal.read_log(img.generation).unwrap().0 {
            img.apply(&record).unwrap();
        }
        let mut known: Vec<(u64, u64)> = img.marks.into_iter().collect();
        known.extend(
            img.segs
                .iter()
                .filter_map(|s| s.boundary.map(|b| (s.end, b))),
        );
        known.sort_unstable();
        known
    }

    /// Random batch sequences: after every batch the answers equal
    /// `multi_select`, and the known pairs — live and as journaled — are
    /// exactly every answered `(rank, element)`. On the directory backend,
    /// reopening the store every few batches changes neither.
    #[test]
    fn random_batches_match_the_oracle_across_reopens() {
        let mut rng = SplitMix64::new(0x1dea);
        for trial in 0..8u64 {
            let on_disk = trial < 6;
            let n = 40 + rng.next_u64() % 2500;
            let dups = trial % 2 == 1;
            let data: Vec<u64> = (0..n)
                .map(|_| {
                    let x = rng.next_u64();
                    if dups {
                        x % 7
                    } else {
                        x
                    }
                })
                .collect();
            let mem = ctx();
            let plain = EmFile::from_slice(&mem, &data).unwrap();
            let dir = store_dir(&format!("prop-{trial}"));
            let (mut idx, mut c) = if on_disk {
                let id = {
                    let c = EmContext::new_on_disk(EmConfig::tiny(), &dir).unwrap();
                    let f = EmFile::from_slice(&c, &data).unwrap();
                    f.set_persistent(true);
                    f.id()
                };
                reopen(&dir, id, n)
            } else {
                let c = ctx();
                let f = EmFile::from_slice(&c, &data).unwrap();
                (SplitterIndex::open(&c, "ds", f).unwrap(), c)
            };
            let id = idx.dataset.id();
            let mut known: BTreeMap<u64, u64> = BTreeMap::new();
            let mut compactions = 0;
            for batch in 0..40 {
                let k = 1 + rng.next_u64() % 8;
                let ranks: Vec<u64> = (0..k)
                    .map(|_| match (rng.next_u64() % 4, known.keys().next()) {
                        // Repeat a known rank now and then.
                        (0, Some(_)) => {
                            let j = rng.next_u64() as usize % known.len();
                            *known.keys().nth(j).unwrap()
                        }
                        _ => 1 + rng.next_u64() % n,
                    })
                    .collect();
                let generation = idx.generation;
                let (got, _) = idx.answer(&ranks, MsOptions::default(), true).unwrap();
                if idx.generation > generation && generation > 0 {
                    compactions += 1;
                }
                let want = multi_select(&plain, &ranks).unwrap();
                assert_eq!(got, want, "trial {trial} batch {batch}");
                known.extend(ranks.iter().copied().zip(want));
                let oracle: Vec<(u64, u64)> = known.iter().map(|(&r, &x)| (r, x)).collect();
                assert_eq!(idx.boundaries(), oracle, "trial {trial} batch {batch}");
                assert_eq!(journaled(&idx), oracle, "trial {trial} batch {batch}");
                if on_disk && batch % 5 == 4 {
                    drop((idx, c));
                    (idx, c) = reopen(&dir, id, n);
                    assert_eq!(idx.boundaries(), oracle, "reopened at batch {batch}");
                    let (got, st) = idx.answer(&ranks, MsOptions::default(), true).unwrap();
                    assert_eq!(got, multi_select(&plain, &ranks).unwrap());
                    assert_eq!(st.selected, 0);
                }
            }
            assert!(
                compactions > 0,
                "trial {trial}: the log was never compacted"
            );
            drop((idx, c));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_version_1_skeleton_asks_for_a_rebuild() {
        /// The skeleton as the previous state version wrote it.
        struct V1;
        impl JournalState for V1 {
            const KIND: &'static str = "serve-splitter-index";
            const VERSION: u32 = 1;
            fn encode(&self, out: &mut String) {
                out.push_str("dataset 0\nseg 64 - 0:64\n");
            }
            fn decode(_: &str) -> Result<Self> {
                Ok(V1)
            }
        }
        let dir = store_dir("v1");
        let (id, _) = new_store(&dir, 64, 17);
        let c = EmContext::new_on_disk(EmConfig::tiny(), &dir).unwrap();
        Journal::new(&c, "serve-index-ds")
            .unwrap()
            .commit(&V1)
            .unwrap();
        let f = c.open_file::<u64>(id, 64).unwrap();
        let msg = SplitterIndex::open(&c, "ds", f).unwrap_err().to_string();
        assert!(msg.contains("older format; rebuild the store"), "{msg}");
        drop(c);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn skeleton_approximation_bound_is_offset_invariant() {
        assert!(approx_from_skeleton::<u64>(&[], &[1, 2]).is_none());
        let bounds = vec![(100u64, 10u64), (200, 20), (350, 35)];
        let ranks = vec![100u64, 149, 151, 350, 275];
        let (vals, worst) = approx_from_skeleton(&bounds, &ranks).unwrap();
        // 149 is nearer the left cut (49 < 51), 151 nearer the right;
        // 275 sits 75 from both sides and the tie goes left.
        assert_eq!(vals, vec![10, 10, 20, 35, 20]);
        assert_eq!(worst, 75);
        // Rebasing every rank and boundary by the same offset changes
        // neither the chosen values nor the bound — the property the
        // router relies on when it quotes shard-local errors globally.
        let base = 10_000u64;
        let shifted: Vec<(u64, u64)> = bounds.iter().map(|&(r, v)| (r + base, v)).collect();
        let shifted_ranks: Vec<u64> = ranks.iter().map(|&r| r + base).collect();
        let (vals2, worst2) = approx_from_skeleton(&shifted, &shifted_ranks).unwrap();
        assert_eq!((vals2, worst2), (vals, worst));
    }
}
