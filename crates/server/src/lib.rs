//! # rtk-server — a dependency-free network serving layer
//!
//! The paper's index is designed to persist and be *refined across query
//! sessions* (§5); this crate turns a [`rtk_core::ReverseTopkEngine`] into a
//! long-running network service so many remote clients can share one index
//! — the missing piece between "a library you link" and "a system serving
//! heavy traffic".
//!
//! Everything is `std`-only: `std::net` sockets, a worker thread pool, and
//! a hand-rolled wire protocol built from the same [`rtk_sparse::codec`]
//! primitives as the on-disk formats.
//!
//! ## Wire protocol (`RTKWIRE1`, version [`wire::WIRE_VERSION`] — pipelined)
//!
//! | field      | size | meaning                                  |
//! |------------|------|------------------------------------------|
//! | magic      | 8 B  | `"RTKWIRE1"`                             |
//! | version    | 4 B  | `u32`, must equal the receiver's exactly |
//! | request id | 8 B  | `u64`, echoed on the response            |
//! | length     | 4 B  | `u32` payload bytes (capped per config)  |
//! | payload    | *n*  | tagged request / status-prefixed response|
//!
//! The request id is what makes the protocol **pipelined**: a connection
//! may have many requests in flight, the server executes them on its
//! shared worker pool (a connection never pins a worker), and responses
//! return in *completion* order — the client re-associates them by id.
//! [`Client::submit`] / [`Client::wait`] expose the pipelining directly;
//! [`Client::batch`] drives N queries concurrently over one connection;
//! the plain blocking methods are submit-then-wait wrappers.
//!
//! Requests: `ping`, `reverse_topk`, `topk(u, k, early)`, `stats`,
//! `shutdown`, `persist(path)`, and the shard-scoped `shard_reverse_topk`
//! the router tier is built on. Both query requests carry one
//! [`QueryCall`] — `q`, `k`, `update`, `trace`, `approx` — and every
//! layer has one entry point per request that reads those fields
//! ([`Client::query`], the router's fan-out, the engine's options).
//! Every request starts with a length-prefixed auth token (empty when
//! unauthenticated). All integers little-endian; proximities
//! travel as exact IEEE-754 bits, so remote answers are **bitwise
//! identical** to local engine calls. The served engine may be sharded
//! ([`rtk_index::ReverseIndex::repartition`]); `stats` reports per-shard node
//! counts and heap sizes, and answers are identical for every shard
//! count. The normative byte-level spec is `docs/FORMATS.md`.
//!
//! ## The `RtkService` surface
//!
//! The request *model* (and the [`rtk_api::RtkService`] trait covering the
//! full surface) lives in the `rtk-api` crate, with the engine's impls.
//! This crate implements the trait for [`Client`] (remote calls) and for
//! the router's backend aggregate, and both server flavors dispatch every
//! decoded request through [`rtk_api::service::dispatch_request`] — the
//! [`Server`] straight onto the engine's impls, the [`Router`] onto its
//! aggregate — the request enum is
//! matched exactly once outside the codec, and code written against
//! `&mut impl RtkService` (the CLI's `rtk remote`, embedders) drives a
//! local engine, a single server, or a routed tier identically.
//!
//! ## Multi-process serving (the router tier)
//!
//! One process per shard: [`Server::bind`] over a
//! [`rtk_core::ReverseTopkEngine`] whose index holds one shard (CLI: `rtk
//! serve --shard-only --shard i`) — the full graph plus one shard's
//! section of the snapshot; the engine itself refuses whole answers, naming the node
//! range it holds — and a [`Router`] (CLI: `rtk
//! router --backends …`) owns the shard map and fans each `reverse_topk`
//! out as per-shard `shard_reverse_topk` calls — **concurrently**, after
//! an exact query's one solve-only PMPN call whose vector every shard then
//! screens against: all shards are in flight at once over pipelined
//! connections, and the
//! partial answers merge in deterministic shard order
//! (nodes/proximities concatenate, counters sum). Several backends may
//! announce the **same** shard range — the router groups them into a
//! replica set per shard, load-balances frozen queries across the healthy
//! replicas, hedges tail-latency calls to a second replica, fails over
//! transparently when a replica dies (marking it `unhealthy` in `stats`
//! and probing it back in the background), and never serves partial
//! answers. Answers stay **bitwise equal** to single-process serving —
//! the determinism contract extended to processes and replicas (pinned by
//! `tests/router_equivalence.rs` and `tests/router_replication.rs`).
//! `persist` fans out (shard `i` writes `<path>.shard<i>`; reassemble
//! with `rtk shard stitch`), `shutdown` propagates to every replica, and
//! a client cannot tell router from single server. For exercising all of
//! this on demand, `rtk serve --chaos` injects deterministic faults
//! ([`chaos::ChaosConfig`]): dropped or delayed responses, severed
//! connections, refused accepts.
//!
//! ## Authentication
//!
//! `ServerConfig::auth_token` / `RouterConfig::auth_token` (CLI:
//! `--auth-token` on serve/router/remote) gate every request with a
//! shared secret carried in the request token field: constant-time
//! compare, `auth_failures` metric, connection dropped on mismatch. The
//! router requires the token from clients and presents it to its
//! backends.
//!
//! ## Concurrency model
//!
//! The engine sits behind one `RwLock`, and the lock follows the borrow:
//! a [`Server`] answers through the engine's own [`rtk_api::RtkService`]
//! impls — the owned engine under the **write lock** for the requests
//! that need `&mut` ([`Request::writes`]: update-mode queries, edge
//! updates), the `&` view under the **read lock** for everything else —
//! so served answers are the engine's in-process answers, options
//! included. Refinement only tightens bounds, never changes answers, so
//! mixing the two query modes (or running pipelined requests in any
//! order) cannot perturb any client's results. `persist(path)` runs
//! under the read lock; every mutation holds the write lock, so the image
//! is quiescent. An applied update is appended to
//! [`ServerConfig::update_log`] inside its write guard (log order = apply
//! order). With [`ServerConfig::persist_dir`] set, persist paths must be
//! relative (no `..`) and resolve inside that directory — the protocol is
//! unauthenticated, so fence it on untrusted networks.
//!
//! ## Robustness & backpressure
//!
//! Frames above the configured size cap, bad magic, unknown tags, or
//! truncated payloads are counted (`protocol_errors`), answered with an
//! error response when the socket allows, and the offending connection is
//! dropped — the server keeps serving everyone else. With
//! [`ServerConfig::max_connections`] set, connections beyond the cap get a
//! clean `busy` error frame (status [`wire::STATUS_BUSY`]), are counted in
//! `rejected_connections`, and never occupy a reader. With
//! [`ServerConfig::max_inflight`] set, requests beyond the per-connection
//! pipeline depth are answered `busy` (counted in `inflight_rejections`)
//! while the connection stays up. Graceful shutdown drains in-flight
//! requests and joins every reader and worker.
//!
//! ## Observability
//!
//! Three pay-for-what-you-use layers, all `std`-only (`rtk-obs`):
//!
//! * **Tracing** — wire v6 lets a query request opt into a trace
//!   ([`QueryCall::trace`], CLI `rtk remote query --trace`):
//!   the response carries an [`rtk_obs::TraceSpan`] tree breaking the
//!   answer down by phase (PMPN solve / screen / commit), and the router
//!   stitches each backend's sub-trace under a per-shard span annotated
//!   with the replica that answered and whether a hedge or failover
//!   fired. Untraced requests carry no trace bytes on the wire and
//!   take **zero** timing syscalls on the trace path; traced answers are
//!   bitwise-equal to untraced ones (the determinism contract — pinned
//!   by `tests/trace_observability.rs` at the workspace root).
//! * **Metrics** — [`ServerMetrics`] tracks per-request-kind counts and
//!   latency histograms ([`rtk_sparse::LatencyHistogram`]) with
//!   deterministic p50/p95/p99, queryable over the wire
//!   (`Client::stats`, CLI `rtk remote stats [--json]`) and scrapeable:
//!   `ServerConfig::metrics_addr` / `RouterConfig::metrics_addr` (CLI
//!   `--metrics-addr`) serve `GET /metrics` in Prometheus text format
//!   from a tiny hand-rolled HTTP/1.0 endpoint.
//! * **Logs** — server and router health transitions (replica marked
//!   unhealthy, re-admitted by the prober, hedge fired) emit structured
//!   JSON lines through [`rtk_obs::log_event`] (CLI `--log-level`,
//!   `--log-file`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod error;
pub mod handler;
pub(crate) mod http;
pub mod metrics;
pub mod router;
pub mod server;
pub mod wire;

pub use chaos::ChaosConfig;
pub use client::{Client, ClientBuilder, FromResponse, Pending};
pub use error::ServerError;
pub use metrics::{EngineInfo, RequestKind, ServerMetrics, StatsSnapshot};
pub use router::{Router, RouterConfig};
pub use rtk_api::{QueryCall, RtkService, ServiceError};
pub use server::{Server, ServerConfig, ServerHandle};
pub use wire::{Request, Response, WireQueryResult, WireShardResult, WireTopk, WireUpdateResult};

#[cfg(test)]
mod tests {
    use super::*;
    use rtk_core::ReverseTopkEngine;
    use rtk_graph::{DanglingPolicy, GraphBuilder, NodeId};

    fn toy_engine() -> ReverseTopkEngine {
        let graph = GraphBuilder::from_edges(
            6,
            &[
                (0, 1),
                (0, 3),
                (0, 5),
                (1, 0),
                (1, 2),
                (2, 0),
                (2, 1),
                (3, 1),
                (3, 4),
                (4, 1),
                (5, 1),
                (5, 3),
            ],
            DanglingPolicy::Error,
        )
        .unwrap();
        ReverseTopkEngine::builder(graph)
            .max_k(3)
            .hubs_per_direction(1)
            .threads(1)
            .build()
            .unwrap()
    }

    #[test]
    fn end_to_end_loopback_smoke() {
        let engine = toy_engine();
        let reference = toy_engine();
        // One worker: every request after the refused ones below proves
        // the refusal cost a response, not the thread.
        let config = ServerConfig { workers: 1, ..Default::default() };
        let handle = Server::bind(engine, "127.0.0.1:0", config).unwrap().spawn();
        let mut client = Client::connect(handle.addr()).unwrap();

        client.ping().unwrap();

        // Paper running example: reverse top-2 of node 0 = {0, 1, 4}.
        let r = client.reverse_topk(0, 2, false).unwrap();
        assert_eq!(r.nodes, vec![0, 1, 4]);
        let direct = (&reference).reverse_topk(&QueryCall::new(0, 2, false)).unwrap();
        assert_eq!(r.nodes, direct.nodes);
        for (a, b) in r.proximities.iter().zip(&direct.proximities) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        // Forward top-k through the wire.
        let t = client.topk(2, 2, false).unwrap();
        assert_eq!(t.nodes[0], 1);

        // A pipelined batch, echoed in order.
        let rs = client.batch(&[(0, 2), (1, 2), (5, 1)]).unwrap();
        assert_eq!(rs.len(), 3);
        assert_eq!(rs[0].query, 0);
        assert_eq!(rs[2].query, 5);

        // Update mode commits through the write lock without disturbing
        // frozen answers.
        let upd = client.reverse_topk(0, 2, true).unwrap();
        assert_eq!(upd.nodes, vec![0, 1, 4]);
        let again = client.reverse_topk(0, 2, false).unwrap();
        assert_eq!(again.nodes, vec![0, 1, 4]);

        // Engine errors come back as Remote, not dropped connections.
        let err = client.reverse_topk(99, 2, false).unwrap_err();
        assert!(matches!(err, ServerError::Remote(_)), "{err}");
        let err = client.reverse_topk(0, 99, false).unwrap_err();
        assert!(err.to_string().contains("99"), "{err}");
        for early in [true, false] {
            let err = client.topk(0, 0, early).unwrap_err();
            assert!(matches!(&err, ServerError::Remote(m) if m.contains("k = 0")), "{err}");
        }
        client.ping().unwrap();
        assert_eq!(client.reverse_topk(0, 2, false).unwrap().nodes, vec![0, 1, 4]);

        // Stats reflect the traffic.
        let stats = client.stats().unwrap();
        assert!(stats.total_requests() >= 6, "{stats:?}");
        assert_eq!(stats.nodes, 6);
        assert_eq!(stats.engine_errors, 4);
        assert!(stats.p50_seconds >= 0.0);

        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn sharded_engine_serves_identical_answers_and_reports_shards() {
        let engine = {
            let g = rtk_graph::GraphBuilder::from_edges(
                6,
                &[
                    (0, 1),
                    (0, 3),
                    (0, 5),
                    (1, 0),
                    (1, 2),
                    (2, 0),
                    (2, 1),
                    (3, 1),
                    (3, 4),
                    (4, 1),
                    (5, 1),
                    (5, 3),
                ],
                DanglingPolicy::Error,
            )
            .unwrap();
            ReverseTopkEngine::builder(g)
                .max_k(3)
                .hubs_per_direction(1)
                .threads(1)
                .shards(3)
                .build()
                .unwrap()
        };
        let handle =
            Server::bind(engine, "127.0.0.1:0", ServerConfig { workers: 2, ..Default::default() })
                .unwrap()
                .spawn();
        let mut client = Client::connect(handle.addr()).unwrap();

        // Same paper running example, now over 3 shards.
        let r = client.reverse_topk(0, 2, false).unwrap();
        assert_eq!(r.nodes, vec![0, 1, 4]);
        let upd = client.reverse_topk(0, 2, true).unwrap();
        assert_eq!(upd.nodes, vec![0, 1, 4]);

        let stats = client.stats().unwrap();
        assert_eq!(stats.shard_count(), 3);
        assert_eq!(stats.shard_nodes, vec![2, 2, 2]);
        assert!(stats.shard_bytes.iter().all(|&b| b > 0), "{stats:?}");

        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn persist_flushes_a_loadable_snapshot() {
        let dir = std::env::temp_dir().join("rtk_server_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("persisted.rtke");
        let path_str = path.to_str().unwrap().to_string();

        let handle = Server::bind(
            toy_engine(),
            "127.0.0.1:0",
            ServerConfig { workers: 2, ..Default::default() },
        )
        .unwrap()
        .spawn();
        let mut client = Client::connect(handle.addr()).unwrap();

        // Refine through the write lock, then flush.
        client.reverse_topk(0, 2, true).unwrap();
        let bytes = client.persist(&path_str).unwrap();
        assert!(bytes > 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), bytes);

        // The flushed snapshot is a valid engine answering identically.
        let mut restored = ReverseTopkEngine::load_path(&path).unwrap();
        assert_eq!(restored.query(NodeId(0), 2).unwrap().nodes(), &[0, 1, 4]);

        // Bad destination paths surface as engine errors, not hangs.
        let err = client.persist("/definitely/not/a/dir/x.rtke").unwrap_err();
        assert!(matches!(err, ServerError::Remote(_)), "{err}");

        let stats = client.stats().unwrap();
        assert_eq!(stats.requests(RequestKind::Persist), 1);

        client.shutdown().unwrap();
        handle.join().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn persist_dir_fences_destination_paths() {
        let dir = std::env::temp_dir().join("rtk_server_persist_fence_test");
        std::fs::create_dir_all(&dir).unwrap();

        let handle = Server::bind(
            toy_engine(),
            "127.0.0.1:0",
            ServerConfig { workers: 1, persist_dir: Some(dir.clone()), ..Default::default() },
        )
        .unwrap()
        .spawn();
        let mut client = Client::connect(handle.addr()).unwrap();

        // Relative paths resolve inside the fence.
        let bytes = client.persist("inside.rtke").unwrap();
        assert!(bytes > 0);
        assert!(dir.join("inside.rtke").exists());

        // Absolute paths and traversal are rejected without touching disk.
        for bad in ["/tmp/outside.rtke", "../escape.rtke", "a/../../escape.rtke", ""] {
            let err = client.persist(bad).unwrap_err();
            assert!(matches!(err, ServerError::Remote(_)), "{bad:?}: {err}");
        }
        assert!(!dir.parent().unwrap().join("escape.rtke").exists());

        client.shutdown().unwrap();
        handle.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn connection_cap_rejects_with_busy_frame() {
        let handle = Server::bind(
            toy_engine(),
            "127.0.0.1:0",
            ServerConfig { workers: 1, max_connections: 1, ..Default::default() },
        )
        .unwrap()
        .spawn();

        // First connection is admitted and stays open.
        let mut admitted = Client::connect(handle.addr()).unwrap();
        admitted.ping().unwrap();

        // Excess connections get a busy error frame on their first read.
        let mut rejected = 0;
        for _ in 0..3 {
            let mut c = Client::connect(handle.addr()).unwrap();
            match c.ping() {
                Err(ServerError::Remote(m)) => {
                    assert!(m.contains("busy"), "{m}");
                    rejected += 1;
                }
                // The rejection frame may arrive before our request is
                // written, surfacing as a broken pipe on some platforms.
                Err(_) => rejected += 1,
                Ok(()) => panic!("connection beyond the cap was admitted"),
            }
        }
        assert_eq!(rejected, 3);

        // The admitted client still works, and the rejections are counted.
        let stats = admitted.stats().unwrap();
        assert_eq!(stats.rejected_connections, 3);
        assert_eq!(stats.connections, 1);

        admitted.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn corrupt_frame_does_not_kill_the_server() {
        use std::io::Write;
        let handle = Server::bind(
            toy_engine(),
            "127.0.0.1:0",
            ServerConfig { workers: 2, ..Default::default() },
        )
        .unwrap()
        .spawn();

        // Garbage connection: server must reject it and keep serving.
        {
            let mut garbage = std::net::TcpStream::connect(handle.addr()).unwrap();
            garbage.write_all(b"NOT A FRAME AT ALL, JUST BYTES").unwrap();
            // Server responds with a protocol error or closes; either way,
            // reading drains until EOF without hanging.
            garbage.shutdown(std::net::Shutdown::Write).ok();
            let mut sink = Vec::new();
            use std::io::Read;
            let _ = garbage.take(4096).read_to_end(&mut sink);
        }

        let mut client = Client::connect(handle.addr()).unwrap();
        client.ping().unwrap();
        let stats = client.stats().unwrap();
        assert!(stats.protocol_errors >= 1, "{stats:?}");
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn oversized_frame_is_rejected_cleanly() {
        let handle = Server::bind(
            toy_engine(),
            "127.0.0.1:0",
            ServerConfig { workers: 1, max_frame_bytes: 64, ..Default::default() },
        )
        .unwrap()
        .spawn();

        // A legitimate frame whose payload exceeds the server's cap.
        {
            use std::io::Write;
            let mut s = std::net::TcpStream::connect(handle.addr()).unwrap();
            let payload = vec![0u8; 1024];
            let mut frame = Vec::new();
            wire::write_frame(&mut frame, 1, &payload).unwrap();
            s.write_all(&frame).unwrap();
            let mut sink = Vec::new();
            use std::io::Read;
            let _ = s.take(4096).read_to_end(&mut sink);
        }

        let mut client = Client::connect(handle.addr()).unwrap();
        client.ping().unwrap();
        client.shutdown().unwrap();
        handle.join().unwrap();
    }
}
