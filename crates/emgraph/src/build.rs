//! Canonical graph construction: symmetrize into sorted runs → merge →
//! dedup + CSR offsets, all in sequential passes.

use emcore::{EmContext, EmError, EmFile, KeyValue, Record, Result};
use emsort::RunWriter;

use crate::edge::Edge;

/// How a raw edge list is canonicalized into a [`Graph`].
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    /// Emit every edge in both directions (undirected semantics). The
    /// canonical file then holds each vertex's full neighborhood under
    /// its own `src` group — what label propagation streams.
    pub symmetrize: bool,
    /// Drop self-loops during canonicalization.
    pub drop_self_loops: bool,
    /// Explicit vertex-id space `0..vertices`. `None` infers
    /// `max id + 1` from the input; `Some(n)` additionally rejects any
    /// endpoint `≥ n` as a typed error.
    pub vertices: Option<u64>,
}

impl Default for BuildOptions {
    fn default() -> Self {
        Self {
            symmetrize: true,
            drop_self_loops: true,
            vertices: None,
        }
    }
}

/// A canonicalized graph: a sorted, deduplicated, loop-free edge file
/// plus its CSR-like offset index.
///
/// `edges` is sorted by `(src, dst)`; `offsets` has `vertices + 1`
/// entries with `offsets[v]` = number of edges whose source precedes
/// `v`, so vertex `v`'s neighbors occupy edge positions
/// `offsets[v]..offsets[v+1]` and `degree(v)` is the difference — the
/// standard CSR row index, built in the same sequential pass as the
/// dedup.
#[derive(Debug)]
pub struct Graph {
    edges: EmFile<Edge>,
    offsets: EmFile<u64>,
    vertices: u64,
    max_degree: u64,
}

impl Graph {
    /// The canonical edge file, sorted by `(src, dst)`.
    pub fn edges(&self) -> &EmFile<Edge> {
        &self.edges
    }

    /// The CSR offset index (`vertices + 1` entries).
    pub fn offsets(&self) -> &EmFile<u64> {
        &self.offsets
    }

    /// Size of the vertex-id space (`0..vertices`).
    pub fn vertices(&self) -> u64 {
        self.vertices
    }

    /// Directed edge count of the canonical file (after symmetrize +
    /// dedup; an undirected graph counts each edge twice).
    pub fn num_edges(&self) -> u64 {
        self.edges.len()
    }

    /// Largest out-degree in the canonical file — the mode
    /// computation's scratch bound during label propagation.
    pub fn max_degree(&self) -> u64 {
        self.max_degree
    }

    /// Stream the offset index into a `(degree, vertex)` key/value file:
    /// the input the approximate K-partitioning buckets vertices by
    /// degree with. One sequential pass over `offsets`.
    pub fn degree_file(&self) -> Result<EmFile<KeyValue>> {
        let ctx = self.edges.ctx().clone();
        let mut w = ctx.writer::<KeyValue>()?;
        let mut r = self.offsets.reader()?;
        let mut prev = r.next()?.unwrap_or(0);
        let mut v = 0u64;
        while let Some(off) = r.next()? {
            w.push(KeyValue {
                key: off - prev,
                value: v,
            })?;
            prev = off;
            v += 1;
        }
        w.finish()
    }
}

/// Canonicalize `raw` into a [`Graph`]: optionally symmetrize and drop
/// self-loops while pushing edges into `emsort`'s run formation (one
/// pass; the expanded edge list is never written unsorted), then merge
/// the runs by `(src, dst)` and deduplicate and build the CSR offset index
/// straight from the merged stream. Charged under the `graph/build`
/// phase.
pub fn build_graph(ctx: &EmContext, raw: &EmFile<Edge>, opts: &BuildOptions) -> Result<Graph> {
    let stats = ctx.stats().clone();
    let phase = stats.phase_guard("graph/build");
    let r = build_inner(ctx, raw, opts);
    drop(phase);
    r
}

fn build_inner(ctx: &EmContext, raw: &EmFile<Edge>, opts: &BuildOptions) -> Result<Graph> {
    // Pass 1: expand (symmetrize / drop loops) into sorted runs and find
    // the id space. The composite (src, dst) key canonicalizes completely.
    let mut runs = RunWriter::<Edge>::new(ctx);
    let mut r = raw.reader()?;
    let mut max_id: Option<u64> = None;
    while let Some(e) = r.next()? {
        if let Some(n) = opts.vertices {
            if e.src >= n || e.dst >= n {
                return Err(EmError::config(format!(
                    "graph build: edge ({}, {}) outside vertex space 0..{n}",
                    e.src, e.dst
                )));
            }
        }
        max_id = Some(max_id.unwrap_or(0).max(e.src).max(e.dst));
        if e.is_loop() && opts.drop_self_loops {
            continue;
        }
        runs.push(e)?;
        if opts.symmetrize && !e.is_loop() {
            runs.push(e.reversed())?;
        }
    }
    drop(r); // the merge below budgets for the two writers only
    let mut runs = runs.finish()?;
    let vertices = opts.vertices.unwrap_or_else(|| max_id.map_or(0, |m| m + 1));

    // Pass 2: dedup + CSR offsets, straight from the last merge pass.
    let mut edges = ctx.writer::<Edge>()?;
    let mut offsets = ctx.writer::<u64>()?;
    let b = ctx.config().block_size();
    // The merge leaves room for the two writers' block buffers.
    let mut sorted = runs.stream(2 * b)?;
    let mut prev: Option<Edge> = None;
    let mut next_v = 0u64; // first vertex whose offset is still unwritten
    let mut count = 0u64;
    let mut max_degree = 0u64;
    let mut cur_degree = 0u64;
    while let Some(e) = sorted.next()? {
        if prev == Some(e) {
            continue;
        }
        while next_v <= e.src {
            offsets.push(count)?;
            next_v += 1;
        }
        cur_degree = if prev.is_some_and(|p| p.src == e.src) {
            cur_degree + 1
        } else {
            1
        };
        max_degree = max_degree.max(cur_degree);
        edges.push(e)?;
        count += 1;
        prev = Some(e);
    }
    while next_v <= vertices {
        offsets.push(count)?;
        next_v += 1;
    }
    Ok(Graph {
        edges: edges.finish()?,
        offsets: offsets.finish()?,
        vertices,
        max_degree,
    })
}

/// Re-attach an already-canonical edge file (e.g. reopened by id after a
/// process restart) as a [`Graph`] over `0..vertices`, rebuilding the CSR
/// offset index in one sequential pass. Rejects files that are not
/// strictly `(src, dst)`-sorted or that reference vertices outside the
/// id space — a cheap integrity check on whatever the caller reopened.
pub fn rebind_graph(ctx: &EmContext, edges: EmFile<Edge>, vertices: u64) -> Result<Graph> {
    let mut offsets = ctx.writer::<u64>()?;
    let mut r = edges.reader()?;
    let mut prev: Option<Edge> = None;
    let mut next_v = 0u64;
    let mut count = 0u64;
    let mut max_degree = 0u64;
    let mut cur_degree = 0u64;
    while let Some(e) = r.next()? {
        if prev.is_some_and(|p| p.key() >= e.key()) {
            return Err(EmError::config(format!(
                "rebind_graph: file {} is not canonical at edge ({}, {})",
                edges.id(),
                e.src,
                e.dst
            )));
        }
        if e.src >= vertices || e.dst >= vertices {
            return Err(EmError::config(format!(
                "rebind_graph: edge ({}, {}) outside vertex space 0..{vertices}",
                e.src, e.dst
            )));
        }
        while next_v <= e.src {
            offsets.push(count)?;
            next_v += 1;
        }
        cur_degree = if prev.is_some_and(|p| p.src == e.src) {
            cur_degree + 1
        } else {
            1
        };
        max_degree = max_degree.max(cur_degree);
        count += 1;
        prev = Some(e);
    }
    while next_v <= vertices {
        offsets.push(count)?;
        next_v += 1;
    }
    Ok(Graph {
        edges,
        offsets: offsets.finish()?,
        vertices,
        max_degree,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::edges_from_pairs;
    use emcore::{EmConfig, EmContext};

    fn ctx() -> EmContext {
        EmContext::new_in_memory_strict(EmConfig::tiny())
    }

    fn build(pairs: &[(u64, u64)], opts: &BuildOptions) -> Graph {
        let c = ctx();
        let raw = edges_from_pairs(&c, pairs).unwrap();
        build_graph(&c, &raw, opts).unwrap()
    }

    #[test]
    fn canonicalizes_duplicates_loops_and_direction() {
        // Duplicates (0,1)×2, a loop (2,2), and both orientations of
        // (0,1): the canonical file holds each direction exactly once.
        let g = build(
            &[(0, 1), (0, 1), (1, 0), (2, 2), (1, 2)],
            &BuildOptions::default(),
        );
        assert_eq!(g.vertices(), 3);
        let canon = g.edges().to_vec().unwrap();
        assert_eq!(
            canon,
            vec![
                Edge { src: 0, dst: 1 },
                Edge { src: 1, dst: 0 },
                Edge { src: 1, dst: 2 },
                Edge { src: 2, dst: 1 },
            ]
        );
        assert_eq!(g.offsets().to_vec().unwrap(), vec![0, 1, 3, 4]);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn directed_unsymmetrized_build() {
        let opts = BuildOptions {
            symmetrize: false,
            drop_self_loops: false,
            vertices: None,
        };
        let g = build(&[(3, 1), (1, 1)], &opts);
        assert_eq!(g.vertices(), 4);
        assert_eq!(
            g.edges().to_vec().unwrap(),
            vec![Edge { src: 1, dst: 1 }, Edge { src: 3, dst: 1 }]
        );
        // Vertices 0 and 2 exist with degree 0.
        assert_eq!(g.offsets().to_vec().unwrap(), vec![0, 0, 1, 1, 2]);
    }

    #[test]
    fn explicit_vertex_space_validates() {
        let c = ctx();
        let raw = edges_from_pairs(&c, &[(0, 5)]).unwrap();
        let opts = BuildOptions {
            vertices: Some(4),
            ..BuildOptions::default()
        };
        assert!(matches!(
            build_graph(&c, &raw, &opts),
            Err(EmError::Config(_))
        ));
        let opts = BuildOptions {
            vertices: Some(10),
            ..BuildOptions::default()
        };
        let g = build_graph(&c, &raw, &opts).unwrap();
        assert_eq!(g.vertices(), 10);
        assert_eq!(g.offsets().len(), 11);
    }

    #[test]
    fn rebind_reconstructs_the_index() {
        let c = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        let raw = edges_from_pairs(&c, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let g = build_graph(&c, &raw, &BuildOptions::default()).unwrap();
        let edges = c
            .open_file::<Edge>(g.edges().id(), g.edges().len())
            .unwrap();
        let re = rebind_graph(&c, edges, g.vertices()).unwrap();
        assert_eq!(
            re.offsets().to_vec().unwrap(),
            g.offsets().to_vec().unwrap()
        );
        assert_eq!(re.max_degree(), g.max_degree());
        // Non-canonical input is rejected.
        let bad = edges_from_pairs(&c, &[(1, 0), (0, 1)]).unwrap();
        assert!(matches!(rebind_graph(&c, bad, 2), Err(EmError::Config(_))));
        let out = edges_from_pairs(&c, &[(0, 5)]).unwrap();
        assert!(matches!(rebind_graph(&c, out, 2), Err(EmError::Config(_))));
    }

    #[test]
    fn empty_graph() {
        let g = build(&[], &BuildOptions::default());
        assert_eq!(g.vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.offsets().to_vec().unwrap(), vec![0]);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn degree_file_matches_offsets() {
        let g = build(&[(0, 1), (1, 2), (1, 3), (4, 4)], &BuildOptions::default());
        // Loop (4,4) dropped but vertex 4 still in the id space.
        let degs = g.degree_file().unwrap().to_vec().unwrap();
        let got: Vec<(u64, u64)> = degs.iter().map(|kv| (kv.value, kv.key)).collect();
        assert_eq!(got, vec![(0, 1), (1, 3), (2, 1), (3, 1), (4, 0)]);
    }

    #[test]
    fn degree_sum_is_edge_count_at_scale() {
        let mut rng = emcore::SplitMix64::new(99);
        let pairs: Vec<(u64, u64)> = (0..5000)
            .map(|_| (rng.below(300), rng.below(300)))
            .collect();
        let g = build(&pairs, &BuildOptions::default());
        let degs = g.degree_file().unwrap().to_vec().unwrap();
        let sum: u64 = degs.iter().map(|kv| kv.key).sum();
        assert_eq!(sum, g.num_edges());
        let max = degs.iter().map(|kv| kv.key).max().unwrap();
        assert_eq!(max, g.max_degree());
        // Canonical: strictly increasing (src, dst) ⇒ no dupes, sorted.
        let canon = g.edges().to_vec().unwrap();
        assert!(canon.windows(2).all(|w| w[0].key() < w[1].key()));
        // Symmetric: every edge has its reverse.
        let set: std::collections::BTreeSet<(u64, u64)> =
            canon.iter().map(|e| (e.src, e.dst)).collect();
        assert!(canon.iter().all(|e| set.contains(&(e.dst, e.src))));
    }
}
