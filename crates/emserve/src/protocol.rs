//! Line-oriented request protocol for `emsplit serve`, typed end to end.
//!
//! Requests arrive one per line on a reader (stdin for the CLI); answers
//! are written to `out` (stdout) as plain numbers, one element per line —
//! exactly the shape `emsplit select` and `emsplit quantiles` print, so a
//! scripted session can be diffed against the one-shot commands. Status
//! and errors go to `err` (stderr), prefixed `ok`/`error`, so they never
//! pollute the answer stream.
//!
//! Commands ([`Request`]):
//!
//! ```text
//! hello <version>           announce the client's protocol version; a
//!                           mismatch is answered with a typed error
//!                           ([`emcore::EmError::ProtocolMismatch`]), not
//!                           a parse failure
//! open <name> <path>        register <path> (flat little-endian u64 file)
//!                           as dataset <name>, or reopen it from the
//!                           catalog if already registered
//! rank <name> <r1> [r2 …]   queue a rank query (answers on flush)
//! quantiles <name> <q>      queue the q-quantile ranks ⌈i·n/q⌉, i=1..q-1
//! flush                     answer queued queries, in submission order
//! stats                     flush, then print service counters to err
//! health                    flush, then print per-dataset breaker states
//! metrics                   flush, then print the Prometheus-style text
//!                           exposition of the service's metrics registry
//!                           to err (framed by "ok metrics begin/end")
//! quit                      flush and exit (EOF implies quit)
//! ```
//!
//! Both [`Request`] and [`Response`] are typed enums with `parse`/`encode`
//! round-trips; the wire strings are unchanged from the stringly protocol
//! they replace, so existing scripted sessions keep diffing clean.
//!
//! [`serve_session`] drives a session against any [`QueryService`] — a
//! single-store [`QueryServer`] or a sharded [`crate::Router`] — with the
//! same wire behaviour either way. Queued `rank`/`quantiles` lines are
//! submitted per dataset as *one* pre-coalesced batch on flush.

use std::io::{BufRead, Write};

use emcore::{EmError, Result};

use crate::api::{QueryService, ServiceTicket};
use crate::server::{BreakerState, DatasetHealth, ServeReport};

/// The protocol version this build speaks. A client's `hello` carrying a
/// different version is refused with
/// [`emcore::EmError::ProtocolMismatch`].
pub const PROTOCOL_VERSION: u32 = 1;

/// One parsed protocol request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `hello <version>` — version negotiation.
    Hello {
        /// The version the client speaks.
        version: u32,
    },
    /// `open <name> <path>` — register a dataset from a flat u64 file.
    Open {
        /// Dataset name.
        name: String,
        /// Path to the flat little-endian u64 file.
        path: String,
    },
    /// `rank <name> <r1> [r2 …]` — queue a rank query.
    Rank {
        /// Dataset name.
        name: String,
        /// 1-based ranks, any order, repeats allowed.
        ranks: Vec<u64>,
    },
    /// `quantiles <name> <q>` — queue the q-quantile ranks.
    Quantiles {
        /// Dataset name.
        name: String,
        /// Number of quantile buckets (≥ 2).
        q: u64,
    },
    /// `flush` — answer queued queries in submission order.
    Flush,
    /// `stats` — flush, then print service counters.
    Stats,
    /// `health` — flush, then print per-dataset breaker states.
    Health,
    /// `metrics` — flush, then print the metrics exposition.
    Metrics,
    /// `quit` — flush and end the session.
    Quit,
}

impl Request {
    /// Parse one request line. `Ok(None)` for a blank line; a typed
    /// `Config` error (with the same messages the stringly protocol
    /// produced) for a malformed one.
    pub fn parse(line: &str) -> Result<Option<Request>> {
        let mut it = line.split_whitespace();
        let Some(cmd) = it.next() else {
            return Ok(None);
        };
        let req = match cmd {
            "hello" => {
                let version = it
                    .next()
                    .and_then(|t| t.strip_prefix('v').unwrap_or(t).parse().ok())
                    .ok_or_else(|| EmError::config("hello: bad version"))?;
                Request::Hello { version }
            }
            "open" => {
                let name = it
                    .next()
                    .ok_or_else(|| EmError::config("open: missing name"))?
                    .to_string();
                let path = it
                    .next()
                    .ok_or_else(|| EmError::config("open: missing path"))?
                    .to_string();
                Request::Open { name, path }
            }
            "rank" => {
                let name = it
                    .next()
                    .ok_or_else(|| EmError::config("rank: missing name"))?
                    .to_string();
                let ranks: Vec<u64> = it
                    .map(|t| {
                        t.parse::<u64>()
                            .map_err(|_| EmError::config(format!("rank: bad rank {t:?}")))
                    })
                    .collect::<Result<_>>()?;
                if ranks.is_empty() {
                    return Err(EmError::config("rank: no ranks given"));
                }
                Request::Rank { name, ranks }
            }
            "quantiles" => {
                let name = it
                    .next()
                    .ok_or_else(|| EmError::config("quantiles: missing name"))?
                    .to_string();
                let q: u64 = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| EmError::config("quantiles: bad count"))?;
                Request::Quantiles { name, q }
            }
            "flush" => Request::Flush,
            "stats" => Request::Stats,
            "health" => Request::Health,
            "metrics" => Request::Metrics,
            "quit" => Request::Quit,
            other => return Err(EmError::config(format!("unknown command {other:?}"))),
        };
        Ok(Some(req))
    }

    /// Encode back to the wire line ([`Request::parse`]'s inverse).
    pub fn encode(&self) -> String {
        match self {
            Request::Hello { version } => format!("hello {version}"),
            Request::Open { name, path } => format!("open {name} {path}"),
            Request::Rank { name, ranks } => {
                let mut s = format!("rank {name}");
                for r in ranks {
                    s.push(' ');
                    s.push_str(&r.to_string());
                }
                s
            }
            Request::Quantiles { name, q } => format!("quantiles {name} {q}"),
            Request::Flush => "flush".to_string(),
            Request::Stats => "stats".to_string(),
            Request::Health => "health".to_string(),
            Request::Metrics => "metrics".to_string(),
            Request::Quit => "quit".to_string(),
        }
    }
}

/// One typed status line written to the `err` stream. Answer values
/// themselves go to `out` as bare numbers and are not wrapped in a
/// response variant — that keeps the answer stream diffable against the
/// one-shot commands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `ok hello v<version>` — the server's version, on a matching hello.
    Hello {
        /// The version the server speaks.
        version: u32,
    },
    /// `ok open <name> <len>` — dataset registered (or reopened).
    Open {
        /// Dataset name.
        name: String,
        /// Dataset length.
        len: u64,
    },
    /// `ok approx <name> rank_error=<e>` — the next answer block on
    /// `out` is degraded, with this guaranteed rank-error bound.
    Approx {
        /// Dataset name.
        name: String,
        /// Guaranteed rank-error bound.
        rank_error: u64,
    },
    /// `ok stats …` — the 17 service counters, keyed.
    Stats(ServeReport),
    /// `ok health <name> <state> failures=… lease_floor=… lease_granted=…`.
    Health(DatasetHealth),
    /// `ok metrics begin` — exposition text follows on `err`.
    MetricsBegin,
    /// `ok metrics end` — exposition text finished.
    MetricsEnd,
    /// `error <message>` — a failed request or query.
    Error(String),
}

impl Response {
    /// Encode to the wire line (byte-identical to the stringly protocol).
    pub fn encode(&self) -> String {
        match self {
            Response::Hello { version } => format!("ok hello v{version}"),
            Response::Open { name, len } => format!("ok open {name} {len}"),
            Response::Approx { name, rank_error } => {
                format!("ok approx {name} rank_error={rank_error}")
            }
            Response::Stats(r) => format!(
                "ok stats queries={} batches={} index_hits={} selected={} answer_us={} \
                 failed={} quarantined={} shed={} degraded={} breaker_trips={} \
                 mem_budget={} leases={} lease_floor={} lease_denials={} mem_degraded={} \
                 queue_depth={} batch_occupancy={}",
                r.queries,
                r.batches,
                r.index_hits,
                r.selected,
                r.answer_us,
                r.failed,
                r.quarantined,
                r.shed,
                r.degraded,
                r.breaker_trips,
                r.mem_budget_words,
                r.leases,
                r.lease_floor_words,
                r.lease_denials,
                r.mem_degraded,
                r.queue_depth,
                r.batch_occupancy
            ),
            Response::Health(h) => format!(
                "ok health {} {} failures={} lease_floor={} lease_granted={}",
                h.name,
                h.state.label(),
                h.consecutive_failures,
                h.lease_floor_words,
                h.lease_granted_words
            ),
            Response::MetricsBegin => "ok metrics begin".to_string(),
            Response::MetricsEnd => "ok metrics end".to_string(),
            Response::Error(msg) => format!("error {msg}"),
        }
    }

    /// Parse a wire line back into a typed response. Counters absent
    /// from the stats line (they are internal-only) decode as zero.
    pub fn parse(line: &str) -> Result<Response> {
        let bad = || EmError::config(format!("protocol: bad response {line:?}"));
        if let Some(msg) = line.strip_prefix("error ") {
            return Ok(Response::Error(msg.to_string()));
        }
        let rest = line.strip_prefix("ok ").ok_or_else(bad)?;
        let (verb, rest) = rest.split_once(' ').unwrap_or((rest, ""));
        let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
        let keyed = |tok: &str, key: &str| -> Result<u64> {
            tok.strip_prefix(key)
                .and_then(|t| t.strip_prefix('='))
                .ok_or_else(bad)
                .and_then(num)
        };
        match verb {
            "hello" => {
                let v = rest
                    .strip_prefix('v')
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(bad)?;
                Ok(Response::Hello { version: v })
            }
            "open" => {
                let (name, len) = rest.split_once(' ').ok_or_else(bad)?;
                Ok(Response::Open {
                    name: name.to_string(),
                    len: num(len)?,
                })
            }
            "approx" => {
                let (name, e) = rest.split_once(' ').ok_or_else(bad)?;
                Ok(Response::Approx {
                    name: name.to_string(),
                    rank_error: keyed(e, "rank_error")?,
                })
            }
            "stats" => {
                let mut it = rest.split_whitespace();
                let mut next =
                    |key: &str| -> Result<u64> { keyed(it.next().ok_or_else(bad)?, key) };
                let r = ServeReport {
                    queries: next("queries")?,
                    batches: next("batches")?,
                    index_hits: next("index_hits")?,
                    selected: next("selected")?,
                    answer_us: next("answer_us")?,
                    failed: next("failed")?,
                    quarantined: next("quarantined")?,
                    shed: next("shed")?,
                    degraded: next("degraded")?,
                    breaker_trips: next("breaker_trips")?,
                    mem_budget_words: next("mem_budget")?,
                    leases: next("leases")?,
                    lease_floor_words: next("lease_floor")?,
                    lease_denials: next("lease_denials")?,
                    mem_degraded: next("mem_degraded")?,
                    queue_depth: next("queue_depth")?,
                    batch_occupancy: next("batch_occupancy")?,
                    ..ServeReport::default()
                };
                Ok(Response::Stats(r))
            }
            "health" => {
                let mut it = rest.split_whitespace();
                let name = it.next().ok_or_else(bad)?.to_string();
                let state = match it.next().ok_or_else(bad)? {
                    "closed" => BreakerState::Closed,
                    "open" => BreakerState::Open,
                    "half-open" => BreakerState::HalfOpen,
                    _ => return Err(bad()),
                };
                let mut next =
                    |key: &str| -> Result<u64> { keyed(it.next().ok_or_else(bad)?, key) };
                Ok(Response::Health(DatasetHealth {
                    name,
                    state,
                    consecutive_failures: next("failures")? as u32,
                    lease_floor_words: next("lease_floor")?,
                    lease_granted_words: next("lease_granted")?,
                }))
            }
            "metrics" => match rest {
                "begin" => Ok(Response::MetricsBegin),
                "end" => Ok(Response::MetricsEnd),
                _ => Err(bad()),
            },
            _ => Err(bad()),
        }
    }
}

/// One queued query: dataset and ranks, answered on flush.
struct Pending {
    name: String,
    ranks: Vec<u64>,
}

/// Drive a scripted session against any [`QueryService`] — a
/// [`crate::QueryServer`] for one store, a [`crate::Router`] for a shard fleet;
/// the wire behaviour is identical. Returns the service's report after
/// the session (for a router: the merged fleet report).
pub fn serve_session<S: QueryService<u64>>(
    svc: &S,
    input: impl BufRead,
    mut out: impl Write,
    mut err: impl Write,
) -> Result<ServeReport> {
    let mut queue: Vec<Pending> = Vec::new();

    let flush =
        |queue: &mut Vec<Pending>, out: &mut dyn Write, err: &mut dyn Write| -> Result<()> {
            if queue.is_empty() {
                return Ok(());
            }
            // One pre-coalesced batch per dataset, but answers printed in
            // submission order.
            let mut per_ds: std::collections::BTreeMap<String, Vec<Vec<u64>>> =
                std::collections::BTreeMap::new();
            for p in queue.iter() {
                per_ds
                    .entry(p.name.clone())
                    .or_default()
                    .push(p.ranks.clone());
            }
            let mut tickets: std::collections::BTreeMap<
                String,
                std::collections::VecDeque<ServiceTicket<u64>>,
            > = std::collections::BTreeMap::new();
            for (name, queries) in per_ds {
                let ts = svc.rank_batch(&name, queries)?;
                tickets.insert(name, ts.into_iter().collect());
            }
            for p in queue.drain(..) {
                let t = tickets
                    .get_mut(&p.name)
                    .and_then(|v| v.pop_front())
                    .expect("one ticket per queued query");
                match t.wait() {
                    Ok(ans) => {
                        // Degraded answers are flagged on the err stream so
                        // the answer stream stays diffable against the
                        // one-shot commands when everything is exact.
                        if ans.approx {
                            let resp = Response::Approx {
                                name: p.name,
                                rank_error: ans.rank_error,
                            };
                            writeln!(err, "{}", resp.encode())?;
                        }
                        for x in ans.values {
                            writeln!(out, "{x}")?;
                        }
                    }
                    Err(e) => writeln!(err, "{}", Response::Error(e.to_string()).encode())?,
                }
            }
            out.flush()?;
            Ok(())
        };

    for line in input.lines() {
        let line = line?;
        let r: Result<bool> = (|| {
            let Some(req) = Request::parse(&line)? else {
                return Ok(false);
            };
            match req {
                Request::Hello { version } => {
                    if version != PROTOCOL_VERSION {
                        return Err(EmError::ProtocolMismatch {
                            client: version,
                            server: PROTOCOL_VERSION,
                        });
                    }
                    let resp = Response::Hello {
                        version: PROTOCOL_VERSION,
                    };
                    writeln!(err, "{}", resp.encode())?;
                }
                Request::Open { name, path } => {
                    let data = read_u64_file(&path)?;
                    let n = svc.register(&name, data)?;
                    writeln!(err, "{}", Response::Open { name, len: n }.encode())?;
                }
                Request::Rank { name, ranks } => queue.push(Pending { name, ranks }),
                Request::Quantiles { name, q } => {
                    if q < 2 {
                        return Err(EmError::config("quantiles: count must be ≥ 2"));
                    }
                    let n = svc.dataset_len(&name).map_err(|_| {
                        EmError::config(format!(
                            "quantiles: unknown dataset {name:?} (open it first)"
                        ))
                    })?;
                    // Same ranks as emselect::quantiles / `emsplit quantiles`.
                    let ranks: Vec<u64> = (1..q).map(|i| ((i * n) / q).max(1)).collect();
                    queue.push(Pending { name, ranks });
                }
                Request::Flush => flush(&mut queue, &mut out, &mut err)?,
                Request::Stats => {
                    flush(&mut queue, &mut out, &mut err)?;
                    let r = svc.stats()?;
                    writeln!(err, "{}", Response::Stats(r).encode())?;
                }
                Request::Metrics => {
                    flush(&mut queue, &mut out, &mut err)?;
                    // Round-trip a report so the scheduler refreshes its
                    // gauges (and quiesces) before the scrape.
                    let _ = svc.stats()?;
                    writeln!(err, "{}", Response::MetricsBegin.encode())?;
                    err.write_all(svc.metrics()?.as_bytes())?;
                    writeln!(err, "{}", Response::MetricsEnd.encode())?;
                }
                Request::Health => {
                    flush(&mut queue, &mut out, &mut err)?;
                    for h in svc.health()? {
                        writeln!(err, "{}", Response::Health(h).encode())?;
                    }
                }
                Request::Quit => {
                    flush(&mut queue, &mut out, &mut err)?;
                    return Ok(true);
                }
            }
            Ok(false)
        })();
        match r {
            Ok(true) => break,
            Ok(false) => {}
            Err(e) => writeln!(err, "{}", Response::Error(e.to_string()).encode())?,
        }
    }
    // EOF implies quit.
    flush(&mut queue, &mut out, &mut err)?;
    svc.stats()
}

/// Read a flat little-endian u64 file (the `emsplit gen` format).
fn read_u64_file(path: &str) -> Result<Vec<u64>> {
    let bytes = std::fs::read(path)?;
    if !bytes.len().is_multiple_of(8) {
        return Err(EmError::config(format!(
            "{path}: length {} is not a multiple of 8",
            bytes.len()
        )));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{QueryServer, ServeOptions};
    use emcore::{EmConfig, EmContext, SplitMix64};

    fn start_server(ctx: &EmContext) -> QueryServer<u64> {
        QueryServer::<u64>::start(ctx, ServeOptions::default()).unwrap()
    }

    #[test]
    fn scripted_session_answers_in_order() {
        let dir = std::env::temp_dir().join(format!("emserve-proto-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data_path = dir.join("data.bin");
        let mut v: Vec<u64> = (0..500).collect();
        SplitMix64::new(9).shuffle(&mut v);
        let bytes: Vec<u8> = v.iter().flat_map(|x| x.to_le_bytes()).collect();
        std::fs::write(&data_path, bytes).unwrap();

        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let mut server = start_server(&ctx);
        let script = format!(
            "hello 1\nopen ds {}\nrank ds 1 250 500\nquantiles ds 4\nstats\nquit\n",
            data_path.display()
        );
        let mut out = Vec::new();
        let mut errs = Vec::new();
        let report = serve_session(&server, script.as_bytes(), &mut out, &mut errs).unwrap();
        let out = String::from_utf8(out).unwrap();
        let want: Vec<u64> = vec![0, 249, 499, 124, 249, 374];
        let got: Vec<u64> = out.lines().map(|l| l.parse().unwrap()).collect();
        assert_eq!(got, want);
        let errs = String::from_utf8(errs).unwrap();
        assert!(errs.contains("ok hello v1"), "{errs}");
        assert!(errs.contains("ok open ds 500"), "{errs}");
        assert!(errs.contains("ok stats queries=2 batches=1"), "{errs}");
        assert_eq!(report.queries, 2);
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_verb_scrapes_exposition_without_touching_answers() {
        let dir = std::env::temp_dir().join(format!("emserve-metrics-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data_path = dir.join("data.bin");
        let v: Vec<u64> = (0..300).rev().collect();
        let bytes: Vec<u8> = v.iter().flat_map(|x| x.to_le_bytes()).collect();
        std::fs::write(&data_path, bytes).unwrap();

        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        ctx.metrics().set_enabled(true);
        let mut server = start_server(&ctx);
        let script = format!(
            "open ds {}\nrank ds 150\nmetrics\nstats\nquit\n",
            data_path.display()
        );
        let mut out = Vec::new();
        let mut errs = Vec::new();
        let report = serve_session(&server, script.as_bytes(), &mut out, &mut errs).unwrap();
        // The answer stream stays clean: just the one rank answer.
        assert_eq!(String::from_utf8(out).unwrap().trim(), "149");
        let errs = String::from_utf8(errs).unwrap();
        assert!(errs.contains("ok metrics begin"), "{errs}");
        assert!(errs.contains("ok metrics end"), "{errs}");
        assert!(
            errs.contains("# TYPE em_serve_query_e2e_us summary"),
            "{errs}"
        );
        // The scrape conserves: one exact query recorded end to end.
        assert!(
            errs.contains("em_serve_query_e2e_us_count{ds=\"ds\",outcome=\"exact\"} 1"),
            "{errs}"
        );
        assert!(errs.contains("queue_depth=0 batch_occupancy=1"), "{errs}");
        assert_eq!(report.queries, 1);
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn protocol_errors_go_to_err_stream_only() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let mut server = start_server(&ctx);
        let script = "bogus\nrank nope 5\nflush\n";
        let mut out = Vec::new();
        let mut errs = Vec::new();
        serve_session(&server, script.as_bytes(), &mut out, &mut errs).unwrap();
        assert!(out.is_empty());
        let errs = String::from_utf8(errs).unwrap();
        assert!(errs.contains("error"), "{errs}");
        server.shutdown().unwrap();
    }

    #[test]
    fn hello_version_mismatch_is_typed_and_non_fatal() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let mut server = start_server(&ctx);
        let script = "hello 9\nhello 1\nquit\n";
        let mut out = Vec::new();
        let mut errs = Vec::new();
        serve_session(&server, script.as_bytes(), &mut out, &mut errs).unwrap();
        let errs = String::from_utf8(errs).unwrap();
        // The mismatch is the typed ProtocolMismatch error, rendered —
        // not an "unknown command" parse failure — and the session keeps
        // serving afterwards.
        assert!(
            errs.contains("error protocol version mismatch: client speaks v9, server speaks v1"),
            "{errs}"
        );
        assert!(errs.contains("ok hello v1"), "{errs}");
        server.shutdown().unwrap();
    }

    #[test]
    fn requests_and_responses_round_trip() {
        let reqs = vec![
            Request::Hello { version: 1 },
            Request::Open {
                name: "ds".into(),
                path: "/tmp/data.bin".into(),
            },
            Request::Rank {
                name: "ds".into(),
                ranks: vec![1, 250, 500],
            },
            Request::Quantiles {
                name: "ds".into(),
                q: 4,
            },
            Request::Flush,
            Request::Stats,
            Request::Health,
            Request::Metrics,
            Request::Quit,
        ];
        for r in reqs {
            assert_eq!(Request::parse(&r.encode()).unwrap(), Some(r));
        }
        assert_eq!(Request::parse("   ").unwrap(), None);
        assert!(Request::parse("bogus x").is_err());
        assert!(Request::parse("hello vx").is_err());

        let resps = vec![
            Response::Hello { version: 1 },
            Response::Open {
                name: "ds".into(),
                len: 500,
            },
            Response::Approx {
                name: "ds".into(),
                rank_error: 42,
            },
            Response::Stats(ServeReport {
                queries: 7,
                batches: 2,
                mem_budget_words: 256,
                batch_occupancy: 3,
                ..ServeReport::default()
            }),
            Response::Health(DatasetHealth {
                name: "ds".into(),
                state: BreakerState::HalfOpen,
                consecutive_failures: 2,
                lease_floor_words: 64,
                lease_granted_words: 96,
            }),
            Response::MetricsBegin,
            Response::MetricsEnd,
            Response::Error("configuration error: rank 0 out of range".into()),
        ];
        for r in resps {
            assert_eq!(Response::parse(&r.encode()).unwrap(), r);
        }
        assert!(Response::parse("gibberish").is_err());
        assert!(Response::parse("ok stats queries=x").is_err());
    }
}
