//! Serving a clustering through the query layer.
//!
//! A clustering's label array doubles as a rank-queryable dataset: the
//! rank-`p` query over the labels returns the `p`-th smallest label,
//! i.e. **the cluster the `p`-th vertex falls in** once vertices are
//! laid out in cluster order (the order [`crate::cluster_buckets`]
//! shards them in). Quantile queries then read the cluster-size
//! distribution directly — a cluster spanning many quantile cuts is by
//! definition a large one — and the serve layer's whole machinery
//! (batching, breakers, shard routing) applies unchanged because the
//! dataset is just `u64`s.

use emcore::{EmFile, Result};
use emserve::QueryService;
use emsort::{form_runs_load_sort, SortedRuns};

use crate::cluster::Clustering;

/// Register `clustering`'s vertex→label array under `name` on any
/// [`QueryService`]. Rank `p` (1-based) then answers "which cluster
/// does the `p`-th vertex fall in" for the cluster-ordered layout;
/// `quantiles(q)` samples the cluster-size distribution at the even
/// vertex cuts. Returns the dataset length (= vertex count).
pub fn register_clustering<S: QueryService<u64>>(
    svc: &S,
    name: &str,
    clustering: &Clustering,
) -> Result<u64> {
    svc.register(name, clustering.labels.to_vec()?)
}

/// The cluster-size distribution of a label file: ascending
/// `(label, size)` pairs, computed externally (sorted runs merged into a
/// run-length count, nothing label-array-sized in RAM).
pub fn cluster_sizes(labels: &EmFile<u64>) -> Result<Vec<(u64, u64)>> {
    let mut runs = SortedRuns::new(labels.ctx(), form_runs_load_sort(labels)?);
    let mut sorted = runs.stream(0)?;
    let mut out: Vec<(u64, u64)> = Vec::new();
    while let Some(label) = sorted.next()? {
        match out.last_mut() {
            Some((l, size)) if *l == label => *size += 1,
            _ => out.push((label, 1)),
        }
    }
    Ok(out)
}

/// Register the cluster **sizes** themselves under `name`: rank and
/// quantile queries then answer questions about the size distribution
/// ("median cluster size", "how big is the 95th-percentile cluster").
/// Returns the dataset length (= cluster count).
pub fn register_cluster_sizes<S: QueryService<u64>>(
    svc: &S,
    name: &str,
    labels: &EmFile<u64>,
) -> Result<u64> {
    let sizes: Vec<u64> = cluster_sizes(labels)?.into_iter().map(|(_, s)| s).collect();
    svc.register(name, sizes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_graph, BuildOptions};
    use crate::cluster::ClusterOptions;
    use crate::edge::edges_from_pairs;
    use crate::recover::cluster;
    use emcore::{EmConfig, EmContext};
    use emserve::{QueryServer, ServeOptions};

    #[test]
    fn rank_queries_answer_cluster_of_pth_vertex() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        // A triangle {0,1,2} and a K4 {3,4,5,6}: clusters of size 3 and 4
        // (odd cycles and cliques converge under synchronous LP; a bare
        // pair would oscillate).
        let raw = edges_from_pairs(
            &ctx,
            &[
                (0, 1),
                (1, 2),
                (0, 2),
                (3, 4),
                (3, 5),
                (3, 6),
                (4, 5),
                (4, 6),
                (5, 6),
            ],
        )
        .unwrap();
        let g = build_graph(&ctx, &raw, &BuildOptions::default()).unwrap();
        let c = cluster(&g, &ClusterOptions::default()).unwrap();
        assert_eq!(c.clusters, 2);

        let mut server = QueryServer::<u64>::start(&ctx, ServeOptions::default()).unwrap();
        let n = register_clustering(&server, "graph-vc", &c).unwrap();
        assert_eq!(n, 7);
        // In cluster order the first 3 vertices are the triangle's
        // cluster, the last 4 the clique's — whatever the label values.
        let a = server
            .rank("graph-vc", vec![1, 3, 4, 7])
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(a.values[0], a.values[1], "vertices 1 and 3 share a cluster");
        assert_eq!(a.values[2], a.values[3], "vertices 4 and 7 share a cluster");
        assert_ne!(a.values[1], a.values[2], "clusters differ across the cut");

        let k = register_cluster_sizes(&server, "graph-cs", &c.labels).unwrap();
        assert_eq!(k, 2);
        let s = server.rank("graph-cs", vec![1, 2]).unwrap().wait().unwrap();
        assert_eq!(s.values, vec![3, 4], "size distribution in rank order");
        server.shutdown().unwrap();
    }

    #[test]
    fn cluster_sizes_are_external_and_ordered() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let labels = EmFile::from_slice(&ctx, &[5u64, 2, 5, 5, 2, 9]).unwrap();
        assert_eq!(
            cluster_sizes(&labels).unwrap(),
            vec![(2, 2), (5, 3), (9, 1)]
        );
    }
}
