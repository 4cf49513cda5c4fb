//! Sharded scale-out serving: splitter-partitioned shards behind a
//! co-ranking [`Router`].
//!
//! The shard build is the paper's K-partitioning applied as a sharding
//! function (Rahn–Sanders–Singler use the same splitter-based exchange
//! for distributed sorting): a registered dataset is range-partitioned
//! into one near-even store per shard with [`apsplit::approx_partitioning`]
//! under a [`ProblemSpec::near_even`] spec — always feasible, always in
//! the quantile-suffices regime, so the cuts are *exact* `1/K`-quantile
//! ranks. The cut ranks plus the boundary records (each shard's maximum)
//! are journaled in the router catalog as a [`ShardMap`]; committing the
//! map is the build's completion point, so a torn build (crash between
//! shard registration and map commit) is simply rebuilt — the build is
//! idempotent per name, not crash-atomic.
//!
//! Queries are decomposed by **co-ranking** over the boundary skeleton
//! (the cut-index computation of multi-way co-ranking, degenerated to
//! the one-sequence case): with prefix array `P = [0, e₁, …, e_K = N]`
//! of cut ranks, global rank `r` belongs to the shard `j` with
//! `P[j] < r ≤ P[j+1]` and becomes local rank `r − P[j]` there — an
//! `O(log K)` in-memory computation per rank, zero I/O. A rank equal to
//! a cut is answered by the shard that *owns* it (its maximum), so
//! boundary-equal queries and duplicate-heavy data stay exact. Per-shard
//! sub-queries run shard-parallel (each shard has its own scheduler
//! thread) and the gathered answers are reassembled in the caller's rank
//! order, bit-identical to a one-store multi-select of the same ranks.
//!
//! Resilience is *routed*: a shard that fails a sub-query with a fault,
//! an open breaker, memory starvation, or a dead scheduler degrades only
//! its own key range — the router answers that shard's ranks
//! approximately from the journaled boundary skeleton with an honest
//! rank-error bound ([`approx_from_skeleton`], whose bound is
//! offset-invariant) — while every other shard keeps answering exactly.
//!
//! Fleet accounting: [`shard_fleet_in_memory`] / [`shard_fleet_on_disk`]
//! build shard contexts over the router context's [`MetricsRegistry`],
//! so one scrape (and one conservation check) covers the whole fleet;
//! [`Router::stats`] merges per-shard [`ServeReport`]s by field-wise sum.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use apsplit::{approx_partitioning, ProblemSpec};
use emcore::{EmConfig, EmContext, EmError, EmFile, Record, Result};
use emselect::multi_select;

use crate::api::{QueryService, ServiceTicket};
use crate::catalog::{validate_name, Catalog, ShardMap};
use crate::index::approx_from_skeleton;
use crate::server::{
    Client, DatasetHealth, QueryAnswer, QueryOptions, QueryServer, ServeOptions, ServeReport,
    Ticket,
};

/// Build a router context plus `shards` shard contexts, all in memory,
/// every shard recording into the router's metrics registry (fleet-wide
/// scrape and conservation come for free). Each context gets its own
/// memory budget `M` — a fleet models `shards + 1` machines.
pub fn shard_fleet_in_memory(config: EmConfig, shards: usize) -> (EmContext, Vec<EmContext>) {
    let router = EmContext::new_in_memory(config);
    let fleet = (0..shards)
        .map(|_| EmContext::new_in_memory_with_metrics(config, router.metrics().clone()))
        .collect();
    (router, fleet)
}

/// Like [`shard_fleet_in_memory`], on the directory backend: the router
/// lives in `root/router`, shard `i` in `root/shard-<i>`. Reopening the
/// same `root` with the same `shards` restores the whole fleet — the
/// router catalog's shard maps and every shard's own catalog and
/// splitter-index journals all survive.
pub fn shard_fleet_on_disk(
    config: EmConfig,
    root: impl Into<std::path::PathBuf>,
    shards: usize,
) -> Result<(EmContext, Vec<EmContext>)> {
    let root = root.into();
    let router = EmContext::new_on_disk(config, root.join("router"))?;
    let fleet = (0..shards)
        .map(|i| {
            EmContext::new_on_disk_with_metrics(
                config,
                root.join(format!("shard-{i:03}")),
                router.metrics().clone(),
            )
        })
        .collect::<Result<Vec<_>>>()?;
    Ok((router, fleet))
}

/// Routing state for one sharded dataset, decoded from its [`ShardMap`].
#[derive(Debug, Clone)]
struct RouteTable<T: Record> {
    /// Total records across the fleet.
    len: u64,
    /// Co-ranking prefix array `[0, e₁, …, e_k = len]` over the shards
    /// that hold data (shards beyond `prefix.len() − 1` are empty).
    prefix: Arc<Vec<u64>>,
    /// Boundary skeleton `(global cut rank, boundary record)` — the
    /// degradation fallback, shared with in-flight tickets.
    cuts: Arc<Vec<(u64, T)>>,
}

/// One shard of the fleet: its scheduler plus a submission handle.
struct ShardHandle<T: Record> {
    // Field order is load-bearing: `client` must drop before `server`,
    // whose Drop joins a scheduler thread that only exits once every
    // client sender is gone.
    client: Client<T>,
    server: QueryServer<T>,
}

struct RouterInner<T: Record> {
    catalog: Catalog,
    shards: Vec<ShardHandle<T>>,
    tables: BTreeMap<String, RouteTable<T>>,
}

/// Scatter/gather front-end over a fleet of shard [`QueryServer`]s; the
/// sharded implementation of [`QueryService`]. See the module docs for
/// the decomposition and resilience semantics.
pub struct Router<T: Record> {
    ctx: EmContext,
    opts: ServeOptions,
    inner: Mutex<RouterInner<T>>,
    /// Count of per-shard key ranges answered by router-side skeleton
    /// degradation (one per failed sub-query that was rescued).
    degraded_ranges: Arc<AtomicU64>,
}

impl<T: Record> std::fmt::Debug for Router<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("opts", &self.opts)
            .finish_non_exhaustive()
    }
}

impl<T: Record> Router<T> {
    /// Start a router on `ctx` (which holds the catalog with the shard
    /// maps) over one [`QueryServer`] per context in `shard_ctxs`, all
    /// with the same `opts`. Previously built datasets are routed again
    /// from their journaled maps without touching any data — each
    /// shard's scheduler reopens its stores from its own catalog on
    /// first query. Errors if the fleet is empty or a journaled map was
    /// built for a different fleet size or record type.
    ///
    /// Like each shard's [`QueryServer::start`], the router sweeps its own
    /// context's block store on the directory backend. Its catalog holds
    /// only shard maps, so what it frees are the temporaries of an earlier
    /// process's registrations.
    pub fn start(ctx: &EmContext, shard_ctxs: &[EmContext], opts: ServeOptions) -> Result<Self> {
        if shard_ctxs.is_empty() {
            return Err(EmError::config("router needs at least one shard"));
        }
        let catalog = Catalog::open(ctx)?;
        crate::server::sweep_store::<T>(ctx, &catalog)?;
        let mut shards = Vec::with_capacity(shard_ctxs.len());
        for sc in shard_ctxs {
            let server = QueryServer::<T>::start(sc, opts)?;
            let client = server.client()?;
            shards.push(ShardHandle { server, client });
        }
        let mut tables = BTreeMap::new();
        for name in catalog.shard_map_names() {
            let map = catalog.shard_map(&name).expect("listed name");
            tables.insert(name.clone(), decode_map::<T>(&name, map, shards.len())?);
        }
        Ok(Router {
            ctx: ctx.clone(),
            opts,
            inner: Mutex::new(RouterInner {
                catalog,
                shards,
                tables,
            }),
            degraded_ranges: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Number of shards in the fleet.
    pub fn shards(&self) -> usize {
        self.lock().shards.len()
    }

    /// Key ranges (one per rescued sub-query) answered by router-side
    /// skeleton degradation so far. Deliberately *not* folded into the
    /// merged [`ServeReport`]: the failing shard already accounted the
    /// sub-query as failed/shed, and double-counting the rescue would
    /// break the report's conservation laws.
    pub fn degraded_key_ranges(&self) -> u64 {
        self.degraded_ranges.load(Ordering::Relaxed)
    }

    /// The boundary skeleton of a sharded dataset: `(global cut rank,
    /// boundary record)` per shard holding data, last rank = length.
    pub fn boundaries(&self, name: &str) -> Option<Vec<(u64, T)>> {
        self.lock().tables.get(name).map(|t| t.cuts.to_vec())
    }

    /// Shut the fleet down, merging every shard's final report. A shard
    /// whose scheduler already died (or was shut down out of band)
    /// contributes nothing instead of failing the fleet shutdown — the
    /// routed-resilience stance applied to teardown.
    pub fn shutdown(&mut self) -> Result<ServeReport> {
        let inner = self.inner.get_mut().unwrap_or_else(|e| e.into_inner());
        let mut merged = ServeReport::default();
        for mut h in inner.shards.drain(..) {
            drop(h.client);
            if let Ok(r) = h.server.shutdown() {
                merged.absorb(&r);
            }
        }
        Ok(merged)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RouterInner<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Split the dataset across the fleet (the shard build). One
    /// approx-partitioning pass cuts `data` at the exact `1/k`-quantile
    /// ranks, each part becomes one shard's store, and the cut ranks +
    /// boundary records are journaled as the dataset's [`ShardMap`] —
    /// the commit that makes the dataset routable. Idempotent per name
    /// (a mapped dataset returns its length, `data` ignored), like
    /// [`Client::register`].
    fn build(&self, name: &str, data: Vec<T>) -> Result<u64> {
        let mut inner = self.lock();
        if let Some(t) = inner.tables.get(name) {
            return Ok(t.len);
        }
        validate_name(name)?;
        let _phase = self.ctx.stats().phase_guard("serve/shard-build");
        let k = inner.shards.len() as u64;
        let n = data.len() as u64;
        let words = T::WORDS as u64;
        let (cuts, parts): (Vec<(u64, T)>, Vec<Vec<T>>) = if n == 0 {
            (Vec::new(), Vec::new())
        } else {
            // Partition on the router's own context: the staging file and
            // every part are scratch, released when this scope ends.
            let staging = EmFile::from_slice(&self.ctx, &data)?;
            drop(data);
            let k_eff = k.min(n);
            let spec = ProblemSpec::near_even(n, k_eff)?;
            let partitioning = approx_partitioning(&staging, &spec)?;
            let mut cut_ranks = Vec::with_capacity(k_eff as usize);
            let mut end = 0u64;
            let mut parts = Vec::with_capacity(k_eff as usize);
            for p in &partitioning {
                end += p.len();
                cut_ranks.push(end);
                parts.push(p.to_vec()?);
            }
            debug_assert_eq!(end, n);
            let keys = multi_select(&staging, &cut_ranks)?;
            (cut_ranks.into_iter().zip(keys).collect(), parts)
        };
        let mut parts = parts.into_iter();
        for h in inner.shards.iter() {
            h.client.register(name, parts.next().unwrap_or_default())?;
        }
        let map = ShardMap {
            shards: k,
            len: n,
            words,
            cuts: cuts
                .iter()
                .map(|(r, v)| {
                    let mut bytes = vec![0u8; T::BYTES];
                    v.write_bytes(&mut bytes);
                    (*r, bytes)
                })
                .collect(),
        };
        inner.catalog.register_shard_map(name, map)?;
        let nonempty = cuts.len();
        inner.tables.insert(
            name.to_string(),
            RouteTable {
                len: n,
                prefix: Arc::new(
                    std::iter::once(0)
                        .chain(cuts.iter().map(|&(r, _)| r))
                        .collect(),
                ),
                cuts: Arc::new(cuts),
            },
        );
        debug_assert_eq!(inner.tables[name].prefix.len(), nonempty + 1);
        Ok(n)
    }

    /// Decompose `ranks` by co-ranking and scatter one sub-query per
    /// touched shard. Empty rank lists are routed to shard 0 so the
    /// query is still accounted (and answered empty) exactly once.
    fn scatter(&self, name: &str, ranks: Vec<u64>, opts: QueryOptions) -> Result<RoutedTicket<T>> {
        let inner = self.lock();
        let table = inner
            .tables
            .get(name)
            .ok_or_else(|| EmError::config(format!("unknown dataset {name:?}")))?;
        let n = table.len;
        for &r in &ranks {
            if r == 0 || r > n {
                return Err(EmError::config(format!("rank {r} out of range [1, {n}]")));
            }
        }
        // Co-ranking: global rank r → (shard j, local rank r − P[j]).
        let prefix = &table.prefix;
        let mut per_shard: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        let mut plan = Vec::with_capacity(ranks.len());
        for &r in &ranks {
            let j = prefix.partition_point(|&p| p < r).saturating_sub(1);
            let locals = per_shard.entry(j).or_default();
            locals.push(r - prefix[j]);
            plan.push((j, locals.len() - 1));
        }
        if per_shard.is_empty() {
            per_shard.insert(0, Vec::new());
        }
        // The gather plan indexes parts by position, not by shard id.
        let ordinals: BTreeMap<usize, usize> = per_shard
            .keys()
            .enumerate()
            .map(|(pos, &j)| (j, pos))
            .collect();
        for p in &mut plan {
            p.0 = ordinals[&p.0];
        }
        let degraded = opts.degraded.unwrap_or(self.opts.degraded);
        let mut parts = Vec::with_capacity(per_shard.len());
        for (j, locals) in per_shard {
            let globals: Vec<u64> = locals.iter().map(|&l| l + table.prefix[j]).collect();
            // A shard whose scheduler is already gone fails at submission;
            // that is as rescuable as failing at execution.
            let part = match inner.shards[j].client.query_with(name, locals, opts) {
                Ok(ticket) => ShardPart::Live(ticket, globals),
                Err(e) if degraded && rescuable(&e) => ShardPart::Failed(e, globals),
                Err(e) => return Err(e),
            };
            parts.push(part);
        }
        Ok(RoutedTicket {
            parts,
            plan,
            cuts: Arc::clone(&table.cuts),
            degraded,
            degraded_ranges: Arc::clone(&self.degraded_ranges),
        })
    }
}

fn decode_map<T: Record>(name: &str, map: &ShardMap, fleet: usize) -> Result<RouteTable<T>> {
    if map.shards != fleet as u64 {
        return Err(EmError::config(format!(
            "dataset {name:?} was sharded for {} shards, fleet has {fleet}",
            map.shards
        )));
    }
    if map.words != T::WORDS as u64 {
        return Err(EmError::config(format!(
            "dataset {name:?} has records of {} words, asked for {}",
            map.words,
            T::WORDS
        )));
    }
    let mut cuts = Vec::with_capacity(map.cuts.len());
    let mut prev = 0u64;
    for (rank, bytes) in &map.cuts {
        if *rank <= prev {
            return Err(EmError::config(format!(
                "dataset {name:?}: shard map cuts not ascending"
            )));
        }
        if bytes.len() != T::BYTES {
            return Err(EmError::config(format!(
                "dataset {name:?}: boundary of {} bytes, record has {}",
                bytes.len(),
                T::BYTES
            )));
        }
        cuts.push((*rank, T::read_bytes(bytes)));
        prev = *rank;
    }
    if cuts.last().map(|&(r, _)| r).unwrap_or(0) != map.len {
        return Err(EmError::config(format!(
            "dataset {name:?}: shard map covers [1, {}], length is {}",
            cuts.last().map(|&(r, _)| r).unwrap_or(0),
            map.len
        )));
    }
    Ok(RouteTable {
        len: map.len,
        prefix: Arc::new(
            std::iter::once(0)
                .chain(cuts.iter().map(|&(r, _)| r))
                .collect(),
        ),
        cuts: Arc::new(cuts),
    })
}

/// Whether a shard failure may be rescued by router-side skeleton
/// degradation: device/dataset faults, an open breaker, memory
/// starvation, a dead scheduler, or a blown deadline — everything
/// *operational*. Request-shaped errors (`Config`, `OutOfBounds`) are
/// the caller's to see.
fn rescuable(e: &EmError) -> bool {
    e.is_fault()
        || matches!(
            e,
            EmError::Unhealthy { .. }
                | EmError::MemoryExceeded { .. }
                | EmError::Unavailable { .. }
                | EmError::DeadlineExceeded { .. }
        )
}

/// One touched shard's share of a routed query.
#[derive(Debug)]
enum ShardPart<T: Record> {
    /// Submitted; the ticket will resolve. Carries the *global* ranks
    /// the shard was asked, for skeleton rescue.
    Live(Ticket<T>, Vec<u64>),
    /// Submission itself failed rescuably; rescued at gather time.
    Failed(EmError, Vec<u64>),
}

/// An in-flight scatter/gather answer from a [`Router`]. [`wait`]
/// gathers every shard's sub-answer and reassembles the caller's rank
/// order; a sub-query that failed with an operational error is rescued
/// from the boundary skeleton when degraded mode allows it.
///
/// [`wait`]: RoutedTicket::wait
#[derive(Debug)]
pub struct RoutedTicket<T: Record> {
    /// One per touched shard, in ascending shard order.
    parts: Vec<ShardPart<T>>,
    /// For each asked rank, `(position in `parts`, offset within that
    /// part's answer)` — the gather map.
    plan: Vec<(usize, usize)>,
    cuts: Arc<Vec<(u64, T)>>,
    degraded: bool,
    degraded_ranges: Arc<AtomicU64>,
}

impl<T: Record> RoutedTicket<T> {
    /// Block until every shard answered (or degraded), then reassemble.
    /// Exact iff every shard answered exactly; otherwise `approx` with
    /// the worst rank-error bound over the batch.
    pub fn wait(self) -> Result<QueryAnswer<T>> {
        let mut answers: Vec<Vec<T>> = Vec::with_capacity(self.parts.len());
        let mut approx = false;
        let mut worst = 0u64;
        for part in self.parts {
            let (failure, globals) = match part {
                ShardPart::Live(ticket, globals) => match ticket.wait() {
                    Ok(a) => {
                        approx |= a.approx;
                        worst = worst.max(a.rank_error);
                        answers.push(a.values);
                        continue;
                    }
                    Err(e) => (e, globals),
                },
                ShardPart::Failed(e, globals) => (e, globals),
            };
            if !(self.degraded && rescuable(&failure)) {
                return Err(failure);
            }
            // Degrade only this shard's key range: answer its global
            // ranks from the boundary skeleton, with the honest bound.
            let Some((vals, bound)) = approx_from_skeleton(&self.cuts, &globals) else {
                return Err(failure);
            };
            self.degraded_ranges.fetch_add(1, Ordering::Relaxed);
            approx = true;
            worst = worst.max(bound);
            answers.push(vals);
        }
        let mut values = Vec::with_capacity(self.plan.len());
        for (part, off) in self.plan {
            values.push(answers[part][off]);
        }
        Ok(QueryAnswer {
            values,
            approx,
            rank_error: worst,
        })
    }
}

impl<T: Record> QueryService<T> for Router<T> {
    fn register(&self, name: &str, data: Vec<T>) -> Result<u64> {
        self.build(name, data)
    }

    fn dataset_len(&self, name: &str) -> Result<u64> {
        self.lock()
            .tables
            .get(name)
            .map(|t| t.len)
            .ok_or_else(|| EmError::config(format!("unknown dataset {name:?}")))
    }

    fn rank_with(
        &self,
        name: &str,
        ranks: Vec<u64>,
        opts: QueryOptions,
    ) -> Result<ServiceTicket<T>> {
        Ok(ServiceTicket::Routed(self.scatter(name, ranks, opts)?))
    }

    fn rank_batch(&self, name: &str, queries: Vec<Vec<u64>>) -> Result<Vec<ServiceTicket<T>>> {
        // Each query is scattered independently; the per-shard schedulers
        // re-coalesce the sub-queries under their batching windows.
        queries
            .into_iter()
            .map(|q| self.rank_with(name, q, QueryOptions::default()))
            .collect()
    }

    fn health(&self) -> Result<Vec<DatasetHealth>> {
        let inner = self.lock();
        let mut out = Vec::new();
        for (j, h) in inner.shards.iter().enumerate() {
            for mut d in h.client.health()? {
                d.name = format!("{}@shard{j}", d.name);
                out.push(d);
            }
        }
        Ok(out)
    }

    fn stats(&self) -> Result<ServeReport> {
        let inner = self.lock();
        let mut merged = ServeReport::default();
        for h in &inner.shards {
            merged.absorb(&h.client.report()?);
        }
        Ok(merged)
    }

    fn metrics(&self) -> Result<String> {
        Ok(self.ctx.metrics().expose())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emcore::SplitMix64;

    fn shuffled(n: u64, seed: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n).collect();
        SplitMix64::new(seed).shuffle(&mut v);
        v
    }

    #[test]
    fn sharded_answers_match_the_one_store_oracle() {
        let (rc, scs) = shard_fleet_in_memory(EmConfig::tiny(), 8);
        let mut router = Router::<u64>::start(&rc, &scs, ServeOptions::default()).unwrap();
        let n = 4000u64;
        assert_eq!(router.register("ds", shuffled(n, 11)).unwrap(), n);
        // Idempotent re-register ignores the data.
        assert_eq!(router.register("ds", vec![1, 2, 3]).unwrap(), n);

        // Oracle: one-store server over the same records.
        let octx = EmContext::new_in_memory(EmConfig::tiny());
        let mut oracle = QueryServer::<u64>::start(&octx, ServeOptions::default()).unwrap();
        QueryService::register(&oracle, "ds", shuffled(n, 11)).unwrap();

        let cuts = router.boundaries("ds").unwrap();
        assert_eq!(cuts.len(), 8);
        assert_eq!(cuts.last().unwrap().0, n);
        // Every cut rank, its neighbours, and a spread of interior ranks.
        let mut ranks: Vec<u64> = vec![1, n, n / 3, 2 * n / 3 + 1];
        for &(r, _) in &cuts {
            ranks.push(r);
            ranks.push(r.saturating_sub(1).max(1));
            ranks.push((r + 1).min(n));
        }
        let got = router.rank("ds", ranks.clone()).unwrap().wait().unwrap();
        let want = oracle.rank("ds", ranks).unwrap().wait().unwrap();
        assert!(!got.approx && got.rank_error == 0);
        assert_eq!(
            got.values, want.values,
            "sharded answers must be bit-identical"
        );
        oracle.shutdown().unwrap();
        router.shutdown().unwrap();
    }

    #[test]
    fn boundary_equal_ranks_stay_exact_under_heavy_duplicates() {
        let (rc, scs) = shard_fleet_in_memory(EmConfig::tiny(), 8);
        let mut router = Router::<u64>::start(&rc, &scs, ServeOptions::default()).unwrap();
        // 90% of the records share one key, so several shard boundaries
        // fall *inside* the duplicate run.
        let n = 2000u64;
        let data: Vec<u64> = (0..n).map(|i| if i % 10 == 0 { i } else { 42 }).collect();
        let mut sorted = data.clone();
        sorted.sort_unstable();
        router.register("dups", data).unwrap();
        let cuts = router.boundaries("dups").unwrap();
        let ranks: Vec<u64> = cuts.iter().map(|&(r, _)| r).collect();
        let a = router.rank("dups", ranks.clone()).unwrap().wait().unwrap();
        assert!(!a.approx);
        let want: Vec<u64> = ranks.iter().map(|&r| sorted[(r - 1) as usize]).collect();
        assert_eq!(a.values, want);
        router.shutdown().unwrap();
    }

    #[test]
    fn small_datasets_leave_trailing_shards_empty_but_serving() {
        let (rc, scs) = shard_fleet_in_memory(EmConfig::tiny(), 8);
        let mut router = Router::<u64>::start(&rc, &scs, ServeOptions::default()).unwrap();
        // n < shards: only n shards hold one record each.
        router.register("tiny", vec![5u64, 3, 9]).unwrap();
        let a = router
            .rank("tiny", vec![1, 2, 3, 2])
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(a.values, vec![3, 5, 9, 5]);
        // Empty dataset: mapped, length 0, every rank out of range.
        router.register("void", Vec::new()).unwrap();
        assert_eq!(QueryService::dataset_len(&router, "void").unwrap(), 0);
        assert!(router.rank("void", vec![1]).is_err());
        // An empty rank list is still answered (empty, exact) once.
        let a = router.rank("tiny", Vec::new()).unwrap().wait().unwrap();
        assert!(a.values.is_empty() && !a.approx);
        router.shutdown().unwrap();
    }

    #[test]
    fn skewed_traffic_on_one_shard_stays_exact_and_conserved() {
        let (rc, scs) = shard_fleet_in_memory(EmConfig::tiny(), 8);
        let mut router = Router::<u64>::start(&rc, &scs, ServeOptions::default()).unwrap();
        let n = 1600u64;
        router.register("ds", shuffled(n, 13)).unwrap();
        // All queries land in shard 0's range [1, 200].
        let queries: Vec<Vec<u64>> = (0..20).map(|i| vec![1 + (i * 7) % 200]).collect();
        let tickets = router.rank_batch("ds", queries.clone()).unwrap();
        let mut sorted: Vec<u64> = (0..n).collect();
        sorted.sort_unstable();
        for (t, q) in tickets.into_iter().zip(&queries) {
            let a = t.wait().unwrap();
            assert!(!a.approx);
            assert_eq!(a.values, vec![sorted[(q[0] - 1) as usize]]);
        }
        let merged = QueryService::<u64>::stats(&router).unwrap();
        // 8 registration no-ops aside, exactly 20 sub-queries ran,
        // all on one shard — the merged report still sees all of them.
        assert_eq!(merged.queries, 20);
        assert_eq!(router.degraded_key_ranges(), 0);
        router.shutdown().unwrap();
    }

    #[test]
    fn killing_one_shard_degrades_only_its_key_range() {
        use emcore::FaultPlan;
        let (rc, scs) = shard_fleet_in_memory(EmConfig::tiny(), 4);
        let opts = ServeOptions {
            degraded: true,
            retry: emcore::RetryPolicy::NONE,
            ..Default::default()
        };
        let mut router = Router::<u64>::start(&rc, &scs, opts).unwrap();
        let n = 2000u64;
        router.register("ds", shuffled(n, 17)).unwrap();
        let mut sorted: Vec<u64> = (0..n).collect();
        sorted.sort_unstable();

        // Crash shard 2's device mid-service: every I/O there now fails.
        scs[2].install_fault_plan(FaultPlan::new(0).fatal_at(0));

        // One rank per shard: 3 exact, shard 2's rescued from the skeleton.
        let ranks = vec![100u64, 700, 1200, 1900];
        let a = router.rank("ds", ranks.clone()).unwrap().wait().unwrap();
        assert!(a.approx, "a dead shard must degrade, not fail");
        assert_eq!(router.degraded_key_ranges(), 1, "≤ one degraded key range");
        // Shard width is 500, so the skeleton bound is at most 250.
        assert!(a.rank_error <= 250, "bound {}", a.rank_error);
        for (i, &r) in ranks.iter().enumerate() {
            let true_rank = sorted.iter().position(|&x| x == a.values[i]).unwrap() as u64 + 1;
            assert!(
                true_rank.abs_diff(r) <= a.rank_error,
                "rank {r}: got rank {true_rank}, bound {}",
                a.rank_error
            );
            // The live shards' ranks are answered exactly (shard 2 owns
            // ranks 1001..=1500).
            if !(1001..=1500).contains(&r) {
                assert_eq!(a.values[i], sorted[(r - 1) as usize]);
            }
        }
        // Without degraded mode the dead shard's error surfaces typed
        // (the crash itself, or the breaker it tripped).
        let e = router
            .rank_with(
                "ds",
                vec![1200],
                QueryOptions {
                    degraded: Some(false),
                    ..QueryOptions::default()
                },
            )
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(
            e.is_fault() || matches!(e, EmError::Unhealthy { .. }),
            "got {e}"
        );
        router.shutdown().unwrap();
    }

    #[test]
    fn fleet_restarts_from_journaled_shard_maps_without_rebuilding() {
        let dir = std::env::temp_dir().join(format!("emserve-fleet-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let n = 1200u64;
        let cuts_before;
        {
            let (rc, scs) = shard_fleet_on_disk(EmConfig::tiny(), &dir, 4).unwrap();
            let mut router = Router::<u64>::start(&rc, &scs, ServeOptions::default()).unwrap();
            router.register("ds", shuffled(n, 19)).unwrap();
            cuts_before = router.boundaries("ds").unwrap();
            router.shutdown().unwrap();
        }
        // Fresh fleet over the same root: the map is decoded, no data moves.
        let (rc, scs) = shard_fleet_on_disk(EmConfig::tiny(), &dir, 4).unwrap();
        let mut router = Router::<u64>::start(&rc, &scs, ServeOptions::default()).unwrap();
        assert_eq!(router.boundaries("ds").unwrap(), cuts_before);
        let a = router
            .rank("ds", vec![1, 300, 301, 600, 1200])
            .unwrap()
            .wait()
            .unwrap();
        assert!(!a.approx);
        assert_eq!(a.values, vec![0, 299, 300, 599, 1199]);
        // A wrong fleet size is refused up front.
        router.shutdown().unwrap();
        let (rc2, scs2) = shard_fleet_on_disk(EmConfig::tiny(), &dir, 8).unwrap();
        assert!(Router::<u64>::start(&rc2, &scs2, ServeOptions::default()).is_err());
        drop((rc, scs, rc2, scs2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
