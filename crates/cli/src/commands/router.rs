//! `rtk router` — the client-facing fan-out process in front of per-shard
//! `rtk serve --shard-only` backends. Several backends may announce the
//! same shard range; they form a replica set the router load-balances
//! across, health-checks, and fails over within. A cut pooled connection
//! retries once on a fresh dial before a replica counts as failed; edge
//! updates never retry. `--hedge-quantile`, `--hedge-min-delay-ms` and
//! `--probe-interval-ms` tune the tail-latency hedging and re-admission
//! probing.

use crate::args::Parsed;
use rtk_server::{Router, RouterConfig};

/// Default listen address when `--addr` is omitted (one above the server's
/// default so both tiers run on one host out of the box).
const DEFAULT_ROUTER_ADDR: &str = "127.0.0.1:7314";

/// The flags `rtk router` reads.
pub(crate) const FLAGS: &[&str] = &[
    "backends",
    "addr",
    "workers",
    "timeout",
    "max-frame-mib",
    "max-connections",
    "max-inflight",
    "auth-token",
    "hedge-quantile",
    "hedge-min-delay-ms",
    "probe-interval-ms",
    "metrics-addr",
    "log-file",
    "log-level",
];

pub(crate) fn run(args: &Parsed) -> Result<(), String> {
    super::init_logging(args).map_err(|e| format!("router: {e}"))?;
    let backends: Vec<String> = args
        .get("backends")
        .ok_or_else(|| {
            "router: --backends <addr,addr,…> is required (one rtk serve --shard-only \
             per shard, any order)"
                .to_string()
        })?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if backends.is_empty() {
        return Err("router: --backends lists no addresses".to_string());
    }
    let addr = args.get("addr").unwrap_or(DEFAULT_ROUTER_ADDR);
    let defaults = RouterConfig::default();
    // `--timeout` bounds every backend interaction: the TCP dial and each
    // per-call socket read/write (handshake included).
    let (connect_timeout, backend_io_timeout) = match args.get("timeout") {
        None => (defaults.connect_timeout, defaults.backend_io_timeout),
        Some(_) => {
            let secs: u64 = args.get_num("timeout", 0u64)?;
            if secs == 0 {
                return Err("router: --timeout expects a positive number of seconds".into());
            }
            let t = std::time::Duration::from_secs(secs);
            (t, t)
        }
    };
    let config = RouterConfig {
        workers: args.get_num("workers", 0usize)?,
        max_frame_bytes: args
            .get_num("max-frame-mib", 16u32)?
            .saturating_mul(1024 * 1024)
            .max(1024),
        max_connections: args
            .get_num("max-connections", rtk_server::server::DEFAULT_MAX_CONNECTIONS)?,
        max_inflight: args.get_num("max-inflight", 0usize)?,
        auth_token: args.get("auth-token").map(str::to_string),
        connect_timeout,
        backend_io_timeout,
        hedge_quantile: {
            let q = args.get_num("hedge-quantile", defaults.hedge_quantile)?;
            if q != 0.0 && !(0.0..1.0).contains(&q) {
                return Err(
                    "router: --hedge-quantile expects a value in [0, 1) (0 disables hedging)"
                        .into(),
                );
            }
            q
        },
        hedge_min_delay: std::time::Duration::from_millis(
            args.get_num("hedge-min-delay-ms", defaults.hedge_min_delay.as_millis() as u64)?,
        ),
        probe_interval: {
            let ms =
                args.get_num("probe-interval-ms", defaults.probe_interval.as_millis() as u64)?;
            if ms == 0 {
                return Err("router: --probe-interval-ms expects a positive number".into());
            }
            std::time::Duration::from_millis(ms)
        },
        metrics_addr: args.get("metrics-addr").map(str::to_string),
    };

    let router =
        Router::bind(&backends, addr, config.clone()).map_err(|e| format!("router: {e}"))?;
    outln!(
        "rtk router listening on {} ({} workers, {} backend(s) over {} shard(s), \
         concurrent fan-out{}); \
         stop with `rtk remote shutdown --addr {}` (propagates to backends)",
        router.local_addr(),
        if config.workers == 0 { "all-core".to_string() } else { config.workers.to_string() },
        router.backend_count(),
        router.shard_count(),
        if config.auth_token.is_some() { ", auth required" } else { "" },
        router.local_addr()
    );
    if let Some(maddr) = router.metrics_addr() {
        outln!("rtk router metrics on http://{maddr}/metrics (Prometheus text format)");
    }
    router.run().map_err(|e| format!("router: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requires_backends_and_validates_them() {
        let err = run(&Parsed::parse(&[], FLAGS).unwrap()).unwrap_err();
        assert!(err.contains("--backends"), "{err}");

        // An unreachable backend fails the handshake with a clean message
        // instead of serving a tier that cannot answer.
        let argv: Vec<String> =
            vec!["--backends".into(), "127.0.0.1:1".into(), "--addr".into(), "127.0.0.1:0".into()];
        let err = run(&Parsed::parse(&argv, FLAGS).unwrap()).unwrap_err();
        assert!(err.contains("cannot reach backend"), "{err}");
    }

    #[test]
    fn end_to_end_router_over_shard_backends() {
        use rtk_core::ReverseTopkEngine;
        use rtk_server::{Client, Server, ServerConfig};

        let build = || {
            ReverseTopkEngine::builder(rtk_datasets::toy_graph())
                .max_k(3)
                .hubs_per_direction(1)
                .threads(1)
                .shards(2)
                .build()
                .unwrap()
        };
        let engine = build();
        let mut backends = Vec::new();
        for sid in 0..2 {
            let index = engine.index().one_shard(sid).unwrap();
            let shard = ReverseTopkEngine::from_parts(rtk_datasets::toy_graph(), index).unwrap();
            backends.push(
                Server::bind(
                    shard,
                    "127.0.0.1:0",
                    ServerConfig { workers: 2, ..Default::default() },
                )
                .unwrap()
                .spawn(),
            );
        }
        let addrs: Vec<String> = backends.iter().map(|h| h.addr().to_string()).collect();
        let router = Router::bind(&addrs, "127.0.0.1:0", RouterConfig::default()).unwrap().spawn();

        // Paper running example through the tier: reverse top-2 of node 0.
        let mut client = Client::connect(router.addr()).unwrap();
        let r = client.reverse_topk(0, 2, false).unwrap();
        assert_eq!(r.nodes, vec![0, 1, 4]);
        let stats = client.stats().unwrap();
        assert_eq!(stats.shard_count(), 2);

        client.shutdown().unwrap();
        router.join().unwrap();
        for h in backends {
            h.join().unwrap();
        }
    }
}
