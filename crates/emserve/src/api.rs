//! Transport-agnostic serving API: the [`QueryService`] trait.
//!
//! The line protocol, the CLI, and tests are written once against this
//! trait; whether the backing service is a single-store [`QueryServer`]
//! or a sharded [`Router`](crate::shard::Router) is the caller's choice
//! at construction time. Both implementations answer exact queries
//! bit-identically to a plain multi-select of the same ranks, so a
//! transport can switch between them without re-validating answers.

use emcore::{EmError, Record, Result};

use crate::server::{DatasetHealth, QueryAnswer, QueryOptions, QueryServer, ServeReport, Ticket};
use crate::shard::RoutedTicket;

/// An in-flight answer from any [`QueryService`]: either a local
/// scheduler ticket or a routed scatter/gather. The only thing a caller
/// can do with it is [`ServiceTicket::wait`] — transports that need
/// `wait_timeout` (wedged-server protection) stay on the concrete
/// [`Ticket`] via a raw [`crate::server::Client`].
#[derive(Debug)]
pub enum ServiceTicket<T: Record> {
    /// A single-store [`QueryServer`] answer.
    Local(Ticket<T>),
    /// A sharded [`crate::Router`] scatter/gather answer.
    Routed(RoutedTicket<T>),
}

impl<T: Record> ServiceTicket<T> {
    /// Block until the answer arrives (in the caller's rank order).
    pub fn wait(self) -> Result<QueryAnswer<T>> {
        match self {
            ServiceTicket::Local(t) => t.wait(),
            ServiceTicket::Routed(t) => t.wait(),
        }
    }
}

/// The serving surface shared by [`QueryServer`] (one store) and
/// [`Router`](crate::shard::Router) (splitter-partitioned shards).
///
/// Provided methods give every implementation the same rank semantics:
/// [`QueryService::quantiles`] computes the `q`-quantile ranks
/// `⌊i·n/q⌋ max 1` for `i = 1..q−1` — the ranks `emsplit quantiles`
/// prints — and submits them as one rank query.
pub trait QueryService<T: Record> {
    /// Register `data` under `name` (or reopen an already-cataloged
    /// dataset, ignoring `data`). Returns the dataset length.
    fn register(&self, name: &str, data: Vec<T>) -> Result<u64>;

    /// Length of a registered dataset, at zero I/O.
    fn dataset_len(&self, name: &str) -> Result<u64>;

    /// Submit one rank query with explicit per-query options.
    fn rank_with(
        &self,
        name: &str,
        ranks: Vec<u64>,
        opts: QueryOptions,
    ) -> Result<ServiceTicket<T>>;

    /// Submit one rank query with default options.
    fn rank(&self, name: &str, ranks: Vec<u64>) -> Result<ServiceTicket<T>> {
        self.rank_with(name, ranks, QueryOptions::default())
    }

    /// Submit several queries against one dataset as a pre-coalesced
    /// batch: one ticket per query, answers independent.
    fn rank_batch(&self, name: &str, queries: Vec<Vec<u64>>) -> Result<Vec<ServiceTicket<T>>>;

    /// Submit the `q`-quantile query for `name`: ranks `⌊i·n/q⌋ max 1`
    /// for `i = 1..q−1`. Errors on `q < 2` or an unknown dataset.
    fn quantiles(&self, name: &str, q: u64) -> Result<ServiceTicket<T>> {
        if q < 2 {
            return Err(EmError::config("quantiles: count must be ≥ 2"));
        }
        let n = self.dataset_len(name)?;
        let ranks: Vec<u64> = (1..q).map(|i| ((i * n) / q).max(1)).collect();
        self.rank(name, ranks)
    }

    /// Per-dataset breaker/lease health. A router reports every shard's
    /// datasets, names suffixed `@shard<i>`.
    fn health(&self) -> Result<Vec<DatasetHealth>>;

    /// Service counters so far. A router returns the merged fleet report
    /// (fields summed across shards, conservation preserved).
    fn stats(&self) -> Result<ServeReport>;

    /// Prometheus-style text exposition of the service's metrics
    /// registry. A shard fleet shares one registry, so this is already
    /// the fleet-wide scrape.
    fn metrics(&self) -> Result<String>;
}

impl<T: Record> QueryService<T> for QueryServer<T> {
    fn register(&self, name: &str, data: Vec<T>) -> Result<u64> {
        self.client()?.register(name, data)
    }

    fn dataset_len(&self, name: &str) -> Result<u64> {
        self.client()?.dataset_len(name)
    }

    fn rank_with(
        &self,
        name: &str,
        ranks: Vec<u64>,
        opts: QueryOptions,
    ) -> Result<ServiceTicket<T>> {
        Ok(ServiceTicket::Local(
            self.client()?.query_with(name, ranks, opts)?,
        ))
    }

    fn rank_batch(&self, name: &str, queries: Vec<Vec<u64>>) -> Result<Vec<ServiceTicket<T>>> {
        Ok(self
            .client()?
            .submit_batch(name, queries)?
            .into_iter()
            .map(ServiceTicket::Local)
            .collect())
    }

    fn health(&self) -> Result<Vec<DatasetHealth>> {
        self.client()?.health()
    }

    fn stats(&self) -> Result<ServeReport> {
        self.client()?.report()
    }

    fn metrics(&self) -> Result<String> {
        Ok(self.metrics.expose())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServeOptions;
    use emcore::{EmConfig, EmContext};

    #[test]
    fn query_server_serves_through_the_trait() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let mut server = QueryServer::<u64>::start(&ctx, ServeOptions::default()).unwrap();
        let svc: &dyn QueryService<u64> = &server;
        let data: Vec<u64> = (0..100).rev().collect();
        assert_eq!(svc.register("ds", data).unwrap(), 100);
        assert_eq!(svc.dataset_len("ds").unwrap(), 100);
        let a = svc.rank("ds", vec![1, 50, 100]).unwrap().wait().unwrap();
        assert!(!a.approx);
        assert_eq!(a.values, vec![0, 49, 99]);
        // quantiles computes the same ranks the protocol always used.
        let q = svc.quantiles("ds", 4).unwrap().wait().unwrap();
        assert_eq!(q.values, vec![24, 49, 74]);
        assert!(matches!(svc.quantiles("ds", 1), Err(EmError::Config(_))));
        assert!(matches!(svc.quantiles("nope", 4), Err(EmError::Config(_))));
        // Batches: one ticket per query.
        let ts = svc.rank_batch("ds", vec![vec![1], vec![2, 3]]).unwrap();
        let answers: Vec<Vec<u64>> = ts.into_iter().map(|t| t.wait().unwrap().values).collect();
        assert_eq!(answers, vec![vec![0], vec![1, 2]]);
        let report = QueryService::<u64>::stats(&server).unwrap();
        assert_eq!(report.queries, 4);
        assert_eq!(QueryService::<u64>::health(&server).unwrap().len(), 1);
        assert!(QueryService::<u64>::metrics(&server).is_ok());
        server.shutdown().unwrap();
    }
}
