//! Semi-external label propagation with size-constrained clustering.
//!
//! One round streams the canonical edge file sequentially while the
//! vertex→label array stays in RAM under a governor lease. Updates are
//! *synchronous* (Jacobi-style): every vertex's new label is the mode of
//! its neighbors' **round-start** labels, with deterministic tie-breaks
//! (largest count, then smallest label) and a keep-on-tie rule against
//! the vertex's current label. Depending only on the per-vertex multiset
//! of round-start neighbor labels makes the round's result invariant to
//! *how* the multiset was gathered — which is what makes the
//! memory-adaptive execution below digest-exact at any budget.
//!
//! ## Memory adaptation (never correctness)
//!
//! When the governor's grant covers the whole label array (plus a
//! max-degree scratch), the round is one sequential edge-file pass with
//! RAM label lookups. When it does not, the label array is split into
//! `W` windows, and each window pass streams the edge file once. The
//! edge file is sorted by source, so a pass gathers one vertex's labels
//! of resident destinations at a time in the mode scratch, sorts them,
//! and appends one record per distinct label carrying how many of those
//! neighbors hold it — the mode needs counts, not copies. A record stays
//! two words, `(vertex, label · 2^c + count)` with `c = 64 − bits(V − 1)`,
//! so records sort by `(vertex, label)` and the pass's output is one
//! sorted run (a vertex overflowing the scratch cuts the run in two; a
//! count too large for `c` bits spreads over several records). After the
//! last pass the window is dropped, and the merge of the runs —
//! `emsort`'s streamed last pass — delivers every vertex's label counts
//! in ascending label order straight into the mode accumulator, next to
//! a scan of the round-start labels. The accumulator adds up the counts
//! of equal labels, whether they come from different windows or from
//! both sides of a cut. Nothing is written but the runs themselves. Both
//! paths feed the same label counts to the same mode accumulator, so a
//! squeeze at a round boundary shrinks the window — it cannot change any
//! label.
//!
//! Round 1 reads no labels. From the identity labeling every neighbor
//! label is a distinct neighbor id held once, so the mode is the smallest
//! neighbor: the first `dst` of the vertex's group in the canonical
//! `(src, dst)`-sorted, deduplicated edge file. A vertex with a self-loop
//! keeps its own label (it ties, and keep-on-tie keeps it), as does a
//! vertex with no neighbors. The round is one edge pass feeding the same
//! proposal consumer as every other round, with no window, runs or merge.
//!
//! ## Size constraint
//!
//! With `max_cluster_size = c > 0`, a round's label changes become
//! *applications to move*: movers are sorted by `(target label, vertex)`
//! and each target cluster admits at most `c − size` of them (size =
//! round-start membership), in ascending vertex order. Since clusters
//! start as singletons and only ever admit into remaining capacity, no
//! cluster ever exceeds `c`. The admission pipeline is fully external
//! (two sorts and sequential merges), so the cap holds at any memory
//! budget — and its outcome is deterministic for the same reason the
//! mode is.

use emcore::{EmContext, EmError, EmFile, Lease, Result, TrackedVec, Writer};
use emsort::{external_sort, form_runs_load_sort, SortedRuns};

use crate::build::Graph;
use crate::edge::Edge;

/// Options for [`crate::cluster()`].
#[derive(Debug, Clone, Copy)]
pub struct ClusterOptions {
    /// Maximum label-propagation rounds (the round loop stops early
    /// when a round moves no vertex).
    pub rounds: u32,
    /// Hard cluster-size cap (`0` = unconstrained). With a cap, label
    /// changes are admitted per target cluster into remaining capacity,
    /// ascending by vertex id.
    pub max_cluster_size: u64,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        Self {
            rounds: 8,
            max_cluster_size: 0,
        }
    }
}

/// The result of [`crate::cluster()`].
#[derive(Debug)]
pub struct Clustering {
    /// Final vertex→label assignment (indexed by vertex id).
    pub labels: EmFile<u64>,
    /// Rounds actually run (≤ `ClusterOptions::rounds`; fewer when a
    /// round moved nothing).
    pub rounds_run: u32,
    /// Vertices moved per round.
    pub moves: Vec<u64>,
    /// Number of distinct labels in the final assignment.
    pub clusters: u64,
}

/// FNV-1a digest of a label file in vertex order — the bit-identity
/// fingerprint the EX-GRAPH harness and `emsplit graph-cluster` compare
/// across backends, worker counts, memory budgets, and crash+resume.
pub fn labels_digest(labels: &EmFile<u64>) -> Result<u64> {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut r = labels.reader()?;
    while let Some(x) = r.next()? {
        h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    }
    Ok(h)
}

/// Count distinct labels: sorted runs of the label multiset, merged
/// into a stream whose group boundaries are counted (the sorted labels
/// are never written).
pub fn count_clusters(labels: &EmFile<u64>) -> Result<u64> {
    let mut runs = SortedRuns::new(labels.ctx(), form_runs_load_sort(labels)?);
    let mut sorted = runs.stream(0)?;
    let mut clusters = 0u64;
    let mut prev = None;
    while let Some(l) = sorted.next()? {
        if prev != Some(l) {
            clusters += 1;
            prev = Some(l);
        }
    }
    Ok(clusters)
}

/// The identity labeling `v → v`: every vertex its own singleton
/// cluster (round 0 of label propagation).
pub(crate) fn initial_labels(ctx: &EmContext, n: u64) -> Result<EmFile<u64>> {
    let mut w = ctx.writer::<u64>()?;
    for v in 0..n {
        w.push(v)?;
    }
    w.finish()
}

/// Streaming mode-with-tie-breaks over one vertex's neighbor labels.
/// Labels must be pushed in ascending order, each with how many
/// neighbors hold it; pushes of equal labels add up. Both gather paths
/// do so (a sorted scratch buffer, or the merged counted runs), which is
/// what keeps their proposals bit-identical.
struct ModeAccumulator {
    current: u64,
    current_count: u64,
    best_label: u64,
    best_count: u64,
    run_label: u64,
    run_count: u64,
}

impl ModeAccumulator {
    fn new(current: u64) -> Self {
        Self {
            current,
            current_count: 0,
            best_label: current,
            best_count: 0,
            run_label: 0,
            run_count: 0,
        }
    }

    fn close_run(&mut self) {
        if self.run_count > self.best_count {
            self.best_count = self.run_count;
            self.best_label = self.run_label;
        }
        if self.run_label == self.current {
            self.current_count = self.run_count;
        }
    }

    fn push(&mut self, label: u64, count: u64) {
        if self.run_count > 0 && self.run_label == label {
            self.run_count += count;
        } else {
            self.close_run();
            self.run_label = label;
            self.run_count = count;
        }
    }

    /// The proposal: the most frequent neighbor label (smallest label on
    /// count ties), unless the vertex's current label is just as
    /// frequent — keep-on-tie damps churn and is deterministic.
    fn finish(mut self) -> u64 {
        self.close_run();
        if self.best_count > self.current_count {
            self.best_label
        } else {
            self.current
        }
    }
}

/// The second word of a window-run record: a neighbor label and how many
/// of the vertex's neighbors in the window hold it, packed as
/// `label · 2^c + count` with `c = 64 − bits(V − 1)`. Packed words order
/// by `(label, count)`, so records still sort by `(vertex, label)`, and a
/// record stays two words (B/2 to a block).
#[derive(Debug, Clone, Copy)]
struct LabelCounts {
    /// `c`, the count field's width in bits (1..=64).
    shift: u32,
}

impl LabelCounts {
    /// The packing for labels in `0..vertices`. Past 2^63 vertices no bit
    /// is left for the count: a typed error.
    fn new(vertices: u64) -> Result<Self> {
        let shift = vertices.saturating_sub(1).leading_zeros();
        if shift == 0 {
            return Err(EmError::config(format!(
                "graph cluster: {vertices} vertices leave no bit for a label count"
            )));
        }
        Ok(Self { shift })
    }

    /// The largest count one record carries.
    fn max_count(self) -> u64 {
        u64::MAX >> (64 - self.shift)
    }

    /// With one vertex the count fills the word: the only label is 0.
    fn pack(self, label: u64, count: u64) -> u64 {
        label.checked_shl(self.shift).unwrap_or(0) | count
    }

    fn unpack(self, word: u64) -> (u64, u64) {
        let label = word.checked_shr(self.shift).unwrap_or(0);
        (label, word & self.max_count())
    }

    /// Append `count` neighbors of `vertex` holding `label` to `run`: one
    /// record, or several when the count exceeds the field, the partial
    /// one first so the records stay ascending.
    fn append(self, run: &mut Writer<Edge>, vertex: u64, label: u64, count: u64) -> Result<()> {
        let max = self.max_count();
        let mut push = |count| {
            run.push(Edge {
                src: vertex,
                dst: self.pack(label, count),
            })
        };
        let (full, rest) = (count / max, count % max);
        if rest > 0 {
            push(rest)?;
        }
        for _ in 0..full {
            push(max)?;
        }
        Ok(())
    }
}

fn stream_underflow(what: &str) -> EmError {
    EmError::config(format!(
        "graph cluster invariant violated: short {what} stream"
    ))
}

/// Compute every vertex's proposed label for one round and feed
/// `(vertex, round-start label, proposal)` to `emit` in ascending
/// vertex order. From the identity labeling (`from_identity`) that is
/// one edge pass; otherwise it chooses the resident fast path or the
/// windowed path from the lease's live grant. All produce identical
/// proposals.
///
/// The caller holds one block buffer (its output writer) while `emit`
/// runs; the windowed path budgets for it.
fn propose_round(
    ctx: &EmContext,
    graph: &Graph,
    old: &EmFile<u64>,
    from_identity: bool,
    lease: &Lease,
    mut emit: impl FnMut(u64, u64, u64) -> Result<()>,
) -> Result<()> {
    let n = graph.vertices();
    if n == 0 {
        return Ok(());
    }
    if from_identity {
        return propose_from_identity(ctx, graph, &mut emit);
    }
    let b = ctx.config().block_size();
    let max_degree = graph.max_degree() as usize;
    // Streaming readers/writers and the mode scratch ride on top of the
    // window; budget them out of the grant before sizing it.
    let room = lease.granted().saturating_sub(6 * b);
    let want = room.saturating_sub(max_degree).max(b).min(n as usize);

    if want >= n as usize {
        // Resident fast path: whole label array + neighborhood scratch
        // in RAM, one sequential edge pass, no runs to merge. Falls back
        // to the windowed path if either charge is denied (the tracker's
        // global budget can be tighter than the lease share).
        if let Ok(labels) = ctx.try_tracked_vec::<u64>(n as usize, "graph resident labels") {
            if let Ok(scratch) = ctx.try_tracked_vec::<u64>(max_degree.max(1), "graph mode scratch")
            {
                return propose_resident(graph, old, labels, scratch, &mut emit);
            }
        }
    }
    // A window costs a full edge scan, while a vertex overflowing the
    // scratch costs only one more run: past a quarter of the room the
    // scratch yields to the window.
    let scratch = max_degree.min((room / 4).max(b));
    let window = room.saturating_sub(scratch).max(b).min(n as usize);
    propose_windowed(ctx, graph, old, window, scratch, &mut emit)
}

/// Round 1's proposals from the edge file alone. From the identity
/// labeling every neighbor label is a distinct neighbor id held once, so
/// the mode is the smallest neighbor, the first `dst` of the vertex's
/// group. A self-loop makes the vertex's own label tie with it, and
/// keep-on-tie keeps it; a vertex with no neighbors keeps it too.
fn propose_from_identity(
    ctx: &EmContext,
    graph: &Graph,
    emit: &mut impl FnMut(u64, u64, u64) -> Result<()>,
) -> Result<()> {
    let _span = ctx.stats().trace_span(|| "graph/identity-pass".to_string());
    let mut er = graph.edges().reader()?;
    let mut pending = er.next()?;
    for v in 0..graph.vertices() {
        let mut smallest = None;
        let mut self_loop = false;
        while let Some(e) = pending {
            if e.src != v {
                break;
            }
            smallest.get_or_insert(e.dst);
            self_loop |= e.is_loop();
            pending = er.next()?;
        }
        let prop = if self_loop { v } else { smallest.unwrap_or(v) };
        emit(v, v, prop)?;
    }
    Ok(())
}

fn propose_resident(
    graph: &Graph,
    old: &EmFile<u64>,
    mut labels: TrackedVec<u64>,
    mut scratch: TrackedVec<u64>,
    emit: &mut impl FnMut(u64, u64, u64) -> Result<()>,
) -> Result<()> {
    let n = graph.vertices();
    let mut lr = old.reader()?;
    for _ in 0..n {
        labels.push(lr.next()?.ok_or_else(|| stream_underflow("label"))?);
    }
    let mut er = graph.edges().reader()?;
    let mut pending = er.next()?;
    for v in 0..n {
        scratch.clear();
        while let Some(e) = pending {
            if e.src != v {
                break;
            }
            scratch.push(labels[e.dst as usize]);
            pending = er.next()?;
        }
        let old_l = labels[v as usize];
        // Neighbors arrive in dst order, not label order: sort so the
        // accumulator sees the same ascending stream as the windowed path.
        scratch.sort_unstable();
        let mut acc = ModeAccumulator::new(old_l);
        for &l in scratch.iter() {
            acc.push(l, 1);
        }
        emit(v, old_l, acc.finish())?;
    }
    Ok(())
}

/// The windowed path: window passes write counted `(vertex, label)`
/// runs, then the window is dropped and the merged runs stream into the
/// mode accumulator next to a scan of the round-start labels.
fn propose_windowed(
    ctx: &EmContext,
    graph: &Graph,
    old: &EmFile<u64>,
    window: usize,
    scratch: usize,
    emit: &mut impl FnMut(u64, u64, u64) -> Result<()>,
) -> Result<()> {
    let n = graph.vertices();
    let packing = LabelCounts::new(n)?;
    let mut runs = SortedRuns::new(ctx, window_runs(ctx, graph, old, packing, window, scratch)?);
    let _drain = ctx.stats().trace_span(|| "graph/drain".to_string());
    // The merge leaves room for the label reader below and the caller's
    // output writer.
    let mut merged = runs.stream(2 * ctx.config().block_size())?;
    let mut pending = merged.next()?;
    let mut lr = old.reader()?;
    for v in 0..n {
        let old_l = lr.next()?.ok_or_else(|| stream_underflow("label"))?;
        let mut acc = ModeAccumulator::new(old_l);
        while let Some(a) = pending {
            if a.src != v {
                break;
            }
            let (label, count) = packing.unpack(a.dst);
            acc.push(label, count);
            pending = merged.next()?;
        }
        emit(v, old_l, acc.finish())?;
    }
    Ok(())
}

/// One pass over the edge file per window of round-start labels. A pass
/// gathers each source's labels of resident destinations in the mode
/// scratch and, at the next source, appends one counted record per
/// distinct label — so the pass writes one run sorted by `(vertex,
/// label)`. A vertex whose resident labels overflow the scratch ends the
/// run there and continues in a new one, which keeps every run sorted.
fn window_runs(
    ctx: &EmContext,
    graph: &Graph,
    old: &EmFile<u64>,
    packing: LabelCounts,
    window: usize,
    scratch: usize,
) -> Result<Vec<EmFile<Edge>>> {
    let n = graph.vertices();
    let b = ctx.config().block_size();
    let (mut win, window) = ctx.try_tracked_vec_halving::<u64>(window, b, "graph label window")?;
    // A vertex never has more than a window's worth of resident labels.
    let want = scratch.min(window).max(1);
    let (mut labels, scratch) =
        ctx.try_tracked_vec_halving::<u64>(want, want.min(b), "graph mode scratch")?;
    let mut runs = Vec::new();
    let mut lo = 0u64;
    while lo < n {
        let _span = ctx
            .stats()
            .trace_span(|| format!("graph/window#{}", lo / window as u64));
        let hi = (lo + window as u64).min(n);
        win.clear();
        let mut lr = old.reader_at(lo)?;
        for _ in lo..hi {
            win.push(lr.next()?.ok_or_else(|| stream_underflow("label"))?);
        }
        drop(lr);
        let mut run = ctx.writer::<Edge>()?;
        let mut er = graph.edges().reader()?;
        let mut src = None;
        while let Some(e) = er.next()? {
            if e.dst < lo || e.dst >= hi {
                continue;
            }
            if src != Some(e.src) {
                append_counted(&mut labels, src, packing, &mut run)?;
                src = Some(e.src);
            } else if labels.len() == scratch {
                append_counted(&mut labels, src, packing, &mut run)?;
                runs.push(run.finish()?);
                run = ctx.writer::<Edge>()?;
            }
            labels.push(win[(e.dst - lo) as usize]);
        }
        append_counted(&mut labels, src, packing, &mut run)?;
        if !run.is_empty() {
            runs.push(run.finish()?);
        }
        lo = hi;
    }
    Ok(runs)
}

/// Sort one vertex's gathered labels and append them to `run`, one
/// counted record per distinct label, leaving the scratch empty.
fn append_counted(
    labels: &mut TrackedVec<u64>,
    vertex: Option<u64>,
    packing: LabelCounts,
    run: &mut Writer<Edge>,
) -> Result<()> {
    if let Some(src) = vertex {
        labels.sort_unstable();
        let mut rest = &labels[..];
        while let Some(&label) = rest.first() {
            let count = rest.partition_point(|&l| l == label);
            packing.append(run, src, label, count as u64)?;
            rest = &rest[count..];
        }
    }
    labels.clear();
    Ok(())
}

/// Run one label-propagation round: returns the new label file and the
/// number of vertices that moved. `cap == 0` applies proposals
/// directly; `cap > 0` routes them through the external admission
/// pipeline described in the module docs. `from_identity` says `old` is
/// the identity labeling, so proposals need no label read.
pub(crate) fn lp_round(
    ctx: &EmContext,
    graph: &Graph,
    old: &EmFile<u64>,
    cap: u64,
    from_identity: bool,
    lease: &Lease,
) -> Result<(EmFile<u64>, u64)> {
    if cap == 0 {
        let mut out = ctx.writer::<u64>()?;
        let mut moves = 0u64;
        propose_round(ctx, graph, old, from_identity, lease, |_, old_l, prop| {
            if prop != old_l {
                moves += 1;
            }
            out.push(prop)
        })?;
        return Ok((out.finish()?, moves));
    }

    // Phase A: proposals become applications to move.
    let mut movers_w = ctx.writer::<Edge>()?;
    propose_round(ctx, graph, old, from_identity, lease, |v, old_l, prop| {
        if prop != old_l {
            movers_w.push(Edge { src: prop, dst: v })?;
        }
        Ok(())
    })?;
    let movers = movers_w.finish()?;
    // Group movers by (target label, vertex); sort the round-start label
    // multiset so target sizes stream in the same label order.
    let movers_sorted = external_sort(&movers)?;
    drop(movers);
    let sizes_sorted = external_sort(old)?;

    // Phase B: admit into remaining capacity, ascending vertex id.
    let mut accepted_w = ctx.writer::<Edge>()?;
    let mut accepted = 0u64;
    {
        let mut mr = movers_sorted.reader()?;
        let mut sr = sizes_sorted.reader()?;
        let mut s_pending = sr.next()?;
        let mut m_pending = mr.next()?;
        while let Some(head) = m_pending {
            let label = head.src;
            while s_pending.is_some_and(|s| s < label) {
                s_pending = sr.next()?;
            }
            let mut size = 0u64;
            while s_pending == Some(label) {
                size += 1;
                s_pending = sr.next()?;
            }
            let mut budget = cap.saturating_sub(size);
            while let Some(m) = m_pending {
                if m.src != label {
                    break;
                }
                if budget > 0 {
                    budget -= 1;
                    accepted += 1;
                    accepted_w.push(Edge {
                        src: m.dst,
                        dst: label,
                    })?;
                }
                m_pending = mr.next()?;
            }
        }
    }
    drop(movers_sorted);
    drop(sizes_sorted);
    let acc = accepted_w.finish()?;
    let acc_sorted = external_sort(&acc)?;
    drop(acc);

    // Apply: merge accepted moves (by vertex) over the old labels.
    let mut out = ctx.writer::<u64>()?;
    let mut ar = acc_sorted.reader()?;
    let mut a_pending = ar.next()?;
    let mut lr = old.reader()?;
    let mut v = 0u64;
    while let Some(old_l) = lr.next()? {
        let mut new_l = old_l;
        if let Some(a) = a_pending {
            if a.src == v {
                new_l = a.dst;
                a_pending = ar.next()?;
            }
        }
        out.push(new_l)?;
        v += 1;
    }
    Ok((out.finish()?, accepted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_graph, BuildOptions};
    use crate::edge::edges_from_pairs;
    use emcore::{EmConfig, EmContext, Record, RingSink, TraceEvent};

    fn graph_on(ctx: &EmContext, pairs: &[(u64, u64)]) -> Graph {
        let raw = edges_from_pairs(ctx, pairs).unwrap();
        build_graph(ctx, &raw, &BuildOptions::default()).unwrap()
    }

    /// One round from the identity labeling `init`, through round 1's
    /// edge pass and through the general path, which must agree.
    fn round(ctx: &EmContext, g: &Graph, init: &EmFile<u64>, cap: u64) -> (Vec<u64>, u64) {
        let lease = ctx.governor().lease("test", 0, 1).unwrap();
        let [first, general] = [true, false].map(|from_identity| {
            let (f, moves) = lp_round(ctx, g, init, cap, from_identity, &lease).unwrap();
            (f.to_vec().unwrap(), moves)
        });
        assert_eq!(first, general, "round 1's pass vs the general path");
        first
    }

    #[test]
    fn mode_accumulator_tie_breaks() {
        // Most frequent wins.
        let mut a = ModeAccumulator::new(9);
        for l in [1, 2, 2, 3] {
            a.push(l, 1);
        }
        assert_eq!(a.finish(), 2);
        // Count tie: smallest label wins.
        let mut a = ModeAccumulator::new(9);
        for l in [1, 1, 2, 2] {
            a.push(l, 1);
        }
        assert_eq!(a.finish(), 1);
        // Current label as frequent as the best: keep it.
        let mut a = ModeAccumulator::new(2);
        for l in [1, 2] {
            a.push(l, 1);
        }
        assert_eq!(a.finish(), 2);
        // No neighbors: keep.
        assert_eq!(ModeAccumulator::new(5).finish(), 5);

        // Counted pushes: the largest count wins, not the most records.
        let mut a = ModeAccumulator::new(9);
        for (l, c) in [(1, 3), (2, 1), (2, 1), (3, 2)] {
            a.push(l, c);
        }
        assert_eq!(a.finish(), 1);
        // One label split across two pushes (two windows, or both sides
        // of a run cut) adds up: 2 + 2 beats 3.
        let mut a = ModeAccumulator::new(9);
        for (l, c) in [(1, 2), (1, 2), (4, 3)] {
            a.push(l, c);
        }
        assert_eq!(a.finish(), 1);
        // A split count tie: smallest label wins.
        let mut a = ModeAccumulator::new(9);
        for (l, c) in [(1, 1), (1, 2), (4, 3)] {
            a.push(l, c);
        }
        assert_eq!(a.finish(), 1);
        // The current label reaches the best count only through a split:
        // keep it.
        let mut a = ModeAccumulator::new(6);
        for (l, c) in [(2, 5), (6, 4), (6, 1)] {
            a.push(l, c);
        }
        assert_eq!(a.finish(), 6);
    }

    #[test]
    fn label_counts_round_trip_in_label_order() {
        for v in [1u64, 2, 3, 1 << 32, (1 << 32) + 1, 1 << 63] {
            let p = LabelCounts::new(v).unwrap();
            let max = p.max_count();
            // c = 64 − bits(V − 1): 64, 63, 62, 32, 31 and 1 bits.
            let want = match v {
                1 => u64::MAX,
                2 => (1 << 63) - 1,
                3 => (1 << 62) - 1,
                0x1_0000_0000 => (1 << 32) - 1,
                0x1_0000_0001 => (1 << 31) - 1,
                _ => 1,
            };
            assert_eq!(max, want, "V = {v}");
            let mut labels = vec![0, (v - 1) / 2, v - 1];
            labels.dedup();
            let mut pairs = Vec::new();
            for &l in &labels {
                for c in [1, max / 2 + 1, max] {
                    assert_eq!(p.unpack(p.pack(l, c)), (l, c), "V = {v}");
                    pairs.push((l, c));
                }
            }
            // Packed words order exactly as (label, count) pairs do.
            pairs.sort_unstable();
            pairs.dedup();
            let mut by_word = pairs.clone();
            by_word.sort_unstable_by_key(|&(l, c)| p.pack(l, c));
            assert_eq!(by_word, pairs, "V = {v}");
        }
    }

    #[test]
    fn label_count_overflow_splits_and_sums_back() {
        let ctx = EmContext::new_in_memory_strict(EmConfig::tiny());
        // V = 2^62 leaves a 2-bit count field (max 3); V = 2^63 a 1-bit one.
        for (v, count, records) in [(1u64 << 62, 10u64, 4usize), (1 << 63, 5, 5)] {
            let p = LabelCounts::new(v).unwrap();
            let label = v - 2;
            let mut run = ctx.writer::<Edge>().unwrap();
            p.append(&mut run, 7, label, count).unwrap();
            let recs = run.finish().unwrap().to_vec().unwrap();
            assert_eq!(recs.len(), records, "V = {v}");
            assert!(recs.windows(2).all(|w| w[0].key() <= w[1].key()), "sorted");
            let mut a = ModeAccumulator::new(v - 1);
            let mut sum = 0;
            for r in &recs {
                assert_eq!(r.src, 7);
                let (l, c) = p.unpack(r.dst);
                assert_eq!(l, label);
                assert!((1..=p.max_count()).contains(&c));
                sum += c;
                a.push(l, c);
            }
            assert_eq!(sum, count, "V = {v}");
            assert_eq!(a.finish(), label);
        }
    }

    #[test]
    fn label_counts_reject_an_unpackable_vertex_space() {
        for v in [(1u64 << 63) + 1, u64::MAX] {
            assert!(matches!(LabelCounts::new(v), Err(EmError::Config(_))));
        }
    }

    /// Names of the spans opened on `ring` so far.
    fn span_names(ring: &RingSink) -> Vec<String> {
        ring.events()
            .into_iter()
            .filter_map(|ev| match ev {
                TraceEvent::SpanOpen { name, .. } => Some(name),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn identity_pass_equals_general_path() {
        // Round 1 read off the edge file against the general path run
        // from the identity labeling: the same labels and moves on every
        // input shape, windowed (strict M = 256) and resident, with and
        // without a cap.
        let rmat = workloads::graph::rmat_edges(9, 3000, 5);
        assert!(rmat.iter().any(|&(s, d)| s == d), "the input has loops");
        let grid = workloads::graph::grid_edges(20, 20);
        let sparse = workloads::graph::rmat_edges(8, 1500, 3);
        let default = BuildOptions::default();
        let cases = [
            ("rmat", &rmat, default),
            (
                "rmat, loops kept",
                &rmat,
                BuildOptions {
                    drop_self_loops: false,
                    ..default
                },
            ),
            (
                "rmat, directed",
                &rmat,
                BuildOptions {
                    symmetrize: false,
                    ..default
                },
            ),
            ("grid", &grid, default),
            (
                "isolated vertices",
                &sparse,
                BuildOptions {
                    vertices: Some(600),
                    ..default
                },
            ),
        ];
        for (m, b, windowed) in [(256, 16, true), (1 << 16, 64, false)] {
            for (name, pairs, opts) in &cases {
                for cap in [0, 25] {
                    let ctx = EmContext::new_in_memory_strict(EmConfig::new(m, b).unwrap());
                    let ring = RingSink::new(0);
                    ctx.set_trace_sink(Box::new(ring.clone()));
                    let raw = edges_from_pairs(&ctx, pairs).unwrap();
                    let g = build_graph(&ctx, &raw, opts).unwrap();
                    let init = initial_labels(&ctx, g.vertices()).unwrap();
                    let lease = ctx.governor().lease("test", 0, 1).unwrap();
                    let [first, general] = [true, false].map(|from_identity| {
                        let (f, moves) =
                            lp_round(&ctx, &g, &init, cap, from_identity, &lease).unwrap();
                        (f.to_vec().unwrap(), moves)
                    });
                    let case = format!("{name}, M = {m}, cap {cap}");
                    assert_eq!(first, general, "{case}");
                    assert!(first.1 > 0, "{case}: the round moves vertices");
                    let spans = span_names(&ring);
                    assert_eq!(
                        spans.iter().any(|s| s.starts_with("graph/window#")),
                        windowed,
                        "{case}: the general path ran windowed iff M is small"
                    );
                    assert_eq!(
                        spans.iter().filter(|s| *s == "graph/identity-pass").count(),
                        1,
                        "{case}"
                    );
                }
            }
        }
    }

    #[test]
    fn one_label_window_pass_writes_one_record_per_vertex() {
        // With every vertex on one label, a window pass appends one
        // counted record per (vertex, window) however many neighbors the
        // vertex has there, so a round writes at most ⌈V / (B/2)⌉ run
        // blocks per window plus its ⌈V / B⌉-block label file. One record
        // per neighbor would not fit in that.
        let cfg = EmConfig::new(256, 16).unwrap();
        let ctx = EmContext::new_in_memory_strict(cfg);
        let ring = RingSink::new(0);
        ctx.set_trace_sink(Box::new(ring.clone()));
        let mut rng = emcore::SplitMix64::new(29);
        let pairs: Vec<(u64, u64)> = (0..1600)
            .map(|_| (rng.below(320), rng.below(320)))
            .collect();
        let g = graph_on(&ctx, &pairs);
        let n = g.vertices();
        let one = ctx
            .stats()
            .paused(|| EmFile::from_slice(&ctx, &vec![7u64; n as usize]))
            .unwrap();
        let lease = ctx.governor().lease("test", 0, 1).unwrap();
        let before = ctx.stats().snapshot();
        let merged_before = merge_phase_ios(&ctx);
        let (next, moves) = lp_round(&ctx, &g, &one, 0, false, &lease).unwrap();
        let writes = ctx.stats().snapshot().since(&before).writes;
        assert_eq!(moves, 0);
        assert_eq!(next.to_vec().unwrap(), vec![7; n as usize]);
        assert_eq!(merge_phase_ios(&ctx), merged_before, "no reduce pass");
        let windows = span_names(&ring)
            .iter()
            .filter(|s| s.starts_with("graph/window#"))
            .count() as u64;
        assert!(windows >= 2, "the round ran windowed");
        let half = cfg.block_size() as u64 / 2;
        let labels_out = n.div_ceil(2 * half);
        let bound = windows * n.div_ceil(half) + labels_out;
        assert!(writes <= bound, "{writes} writes > {bound}");
        assert!(g.num_edges().div_ceil(half) + labels_out > bound);
    }

    #[test]
    fn one_round_on_a_triangle_plus_satellite() {
        // Triangle 0-1-2 and a satellite 3-0. Initial labels = ids.
        let ctx = EmContext::new_in_memory_strict(EmConfig::tiny());
        let g = graph_on(&ctx, &[(0, 1), (1, 2), (0, 2), (3, 0)]);
        let init = initial_labels(&ctx, g.vertices()).unwrap();
        let (labels, moves) = round(&ctx, &g, &init, 0);
        // All counts 1 ⇒ everyone adopts its smallest neighbor (vertex
        // 0's smallest neighbor is 1 — synchronous updates move it too).
        assert_eq!(labels, vec![1, 0, 0, 0]);
        assert_eq!(moves, 4);
    }

    #[test]
    fn cap_admits_in_vertex_order() {
        // Star: center 0 with leaves 1..=4, cap 3. Round 1 proposals:
        // every leaf wants label 0 (center keeps 0 on the tie rule? the
        // center sees neighbors {1,2,3,4}, all count 1, best = 1 >
        // current count 0 ⇒ center proposes 1). Cluster 0 starts at
        // size 1: admits 3 − 1 = 2 leaves, ascending ⇒ vertices 1, 2.
        // Cluster 1 starts at size 1 (vertex 1): admits the center.
        let ctx = EmContext::new_in_memory_strict(EmConfig::tiny());
        let g = graph_on(&ctx, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let init = initial_labels(&ctx, g.vertices()).unwrap();
        let (labels, moves) = round(&ctx, &g, &init, 3);
        assert_eq!(labels, vec![1, 0, 0, 3, 4]);
        assert_eq!(moves, 3);
        // Unbounded for contrast: all leaves join 0.
        let (labels, moves) = round(&ctx, &g, &init, 0);
        assert_eq!(labels, vec![1, 0, 0, 0, 0]);
        assert_eq!(moves, 5);
    }

    #[test]
    fn cap_is_never_exceeded_over_rounds() {
        let ctx = EmContext::new_in_memory_strict(EmConfig::tiny());
        let mut rng = emcore::SplitMix64::new(3);
        let pairs: Vec<(u64, u64)> = (0..2000)
            .map(|_| (rng.below(150), rng.below(150)))
            .collect();
        let g = graph_on(&ctx, &pairs);
        let cap = 20u64;
        let mut labels = initial_labels(&ctx, g.vertices()).unwrap();
        let lease = ctx.governor().lease("test", 0, 1).unwrap();
        for _ in 0..4 {
            let (next, _) = lp_round(&ctx, &g, &labels, cap, false, &lease).unwrap();
            labels = next;
            let mut counts = std::collections::BTreeMap::new();
            for l in labels.to_vec().unwrap() {
                *counts.entry(l).or_insert(0u64) += 1;
            }
            assert!(counts.values().all(|&c| c <= cap), "cap exceeded");
        }
    }

    #[test]
    fn proposals_invariant_to_window_size() {
        // Same graph, same round — once with a grant covering the whole
        // label array, once with a strict budget so small the round must
        // run multi-window. Digest-identical labels either way. The
        // second input adds a hub joined to 800 vertices (400 of them new
        // leaves): its degree exceeds the small M, so its labels overflow
        // the mode scratch in every window, cutting more runs than one
        // streamed merge fits next to the strict budget's reserve, and
        // the runs need a reduce pass first.
        let mut rng = emcore::SplitMix64::new(17);
        let pairs: Vec<(u64, u64)> = (0..3000)
            .map(|_| (rng.below(400), rng.below(400)))
            .collect();
        let mut with_hub = pairs.clone();
        with_hub.extend((0..800).map(|v| (800, v)));

        for (input, hub) in [(&pairs, false), (&with_hub, true)] {
            let big = EmContext::new_in_memory(EmConfig::new(1 << 16, 64).unwrap());
            let small = EmContext::new_in_memory_strict(EmConfig::new(256, 16).unwrap());
            let mut digests = Vec::new();
            let mut reduce_ios = 0;
            for ctx in [&big, &small] {
                let g = graph_on(ctx, input);
                if hub {
                    assert!(g.max_degree() > small.config().mem_capacity() as u64);
                }
                let mut labels = initial_labels(ctx, g.vertices()).unwrap();
                let lease = ctx.governor().lease("test", 0, 1).unwrap();
                let built = merge_phase_ios(ctx);
                for _ in 0..3 {
                    let (next, _) = lp_round(ctx, &g, &labels, 0, false, &lease).unwrap();
                    labels = next;
                }
                reduce_ios = merge_phase_ios(ctx) - built;
                digests.push(labels_digest(&labels).unwrap());
            }
            assert_eq!(digests[0], digests[1], "hub: {hub}");
            assert_eq!(reduce_ios > 0, hub, "reduce passes only for the hub");
        }
    }

    /// I/O charged so far to the `sort/merge` phase (reduce passes).
    fn merge_phase_ios(ctx: &EmContext) -> u64 {
        ctx.stats()
            .phase_totals()
            .iter()
            .find(|(name, _)| name == "sort/merge")
            .map_or(0, |(_, c)| c.total_ios())
    }

    #[test]
    fn windowed_rounds_stay_within_m() {
        // A lenient context never refuses a charge, so only the sizing
        // keeps a round inside M: with the label array twice M, every
        // round runs windowed, and the window must be gone before the
        // merged runs stream in.
        let cfg = EmConfig::new(4096, 64).unwrap();
        let ctx = EmContext::new_in_memory(cfg);
        let pairs = workloads::graph::rmat_edges(13, 30_000, 11);
        let raw = edges_from_pairs(&ctx, &pairs).unwrap();
        let opts = BuildOptions {
            vertices: Some(1 << 13),
            ..BuildOptions::default()
        };
        let g = build_graph(&ctx, &raw, &opts).unwrap();
        let m = cfg.mem_capacity();
        assert!(ctx.mem().peak() <= m, "build peak {} > M", ctx.mem().peak());
        ctx.mem().reset_peak();
        let c = crate::cluster(
            &g,
            &ClusterOptions {
                rounds: 3,
                max_cluster_size: 0,
            },
        )
        .unwrap();
        assert!(c.rounds_run > 0);
        assert!(
            ctx.mem().peak() <= m,
            "cluster peak {} > M",
            ctx.mem().peak()
        );
    }

    #[test]
    fn capped_rounds_invariant_to_window_size() {
        let mut rng = emcore::SplitMix64::new(23);
        let pairs: Vec<(u64, u64)> = (0..2500)
            .map(|_| (rng.below(300), rng.below(300)))
            .collect();
        let big = EmContext::new_in_memory(EmConfig::new(1 << 16, 64).unwrap());
        let small = EmContext::new_in_memory(EmConfig::new(256, 16).unwrap());
        let mut digests = Vec::new();
        for ctx in [&big, &small] {
            let g = graph_on(ctx, &pairs);
            let mut labels = initial_labels(ctx, g.vertices()).unwrap();
            let lease = ctx.governor().lease("test", 0, 1).unwrap();
            for _ in 0..3 {
                let (next, _) = lp_round(ctx, &g, &labels, 25, false, &lease).unwrap();
                labels = next;
            }
            digests.push(labels_digest(&labels).unwrap());
        }
        assert_eq!(digests[0], digests[1]);
    }

    #[test]
    fn isolated_vertices_keep_their_label() {
        let ctx = EmContext::new_in_memory_strict(EmConfig::tiny());
        let raw = edges_from_pairs(&ctx, &[(0, 1)]).unwrap();
        let opts = BuildOptions {
            vertices: Some(5),
            ..BuildOptions::default()
        };
        let g = build_graph(&ctx, &raw, &opts).unwrap();
        let init = initial_labels(&ctx, 5).unwrap();
        // 0 and 1 swap (the synchronous two-cycle); 2..4 are isolated
        // and must keep their labels.
        let (labels, moves) = round(&ctx, &g, &init, 0);
        assert_eq!(labels, vec![1, 0, 2, 3, 4]);
        assert_eq!(moves, 2);
    }

    #[test]
    fn digest_and_cluster_count() {
        let ctx = EmContext::new_in_memory_strict(EmConfig::tiny());
        let f = EmFile::from_slice(&ctx, &[3u64, 3, 1, 1, 1, 9]).unwrap();
        assert_eq!(count_clusters(&f).unwrap(), 3);
        let g = EmFile::from_slice(&ctx, &[3u64, 3, 1, 1, 1, 9]).unwrap();
        assert_eq!(labels_digest(&f).unwrap(), labels_digest(&g).unwrap());
        let h = EmFile::from_slice(&ctx, &[3u64, 3, 1, 1, 9, 1]).unwrap();
        assert_ne!(labels_digest(&f).unwrap(), labels_digest(&h).unwrap());
    }
}
