//! Per-server request metrics, queryable over the wire (`rtk remote stats`).
//!
//! The snapshot/report types ([`StatsSnapshot`], [`EngineInfo`]) live in
//! [`rtk_api::model`] — they are part of the request surface, not of this
//! server implementation. This module owns the live counters.

use rtk_api::model::{KindLatency, REQUEST_KINDS};
use rtk_sparse::LatencyHistogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub use rtk_api::model::{EngineInfo, RequestKind, StatsSnapshot};

/// Live counters + latency histograms, shared across worker threads.
///
/// Counters are lock-free atomics; the histograms sit behind per-kind
/// mutexes that are held only for the O(1) bucket increment, so contention
/// stays negligible next to query work. Keeping one histogram per request
/// kind (wire v6) stops `ping` round-trips from diluting the
/// `reverse_topk` tail that the router's hedge-delay quantile watches; the
/// aggregate view is reconstructed by merging at snapshot time. A kind's
/// histogram is also its request count: each completed request is recorded
/// there once.
pub struct ServerMetrics {
    started: Instant,
    protocol_errors: AtomicU64,
    engine_errors: AtomicU64,
    connections: AtomicU64,
    rejected_connections: AtomicU64,
    auth_failures: AtomicU64,
    /// Requests currently in flight (queued for or being executed by the
    /// worker pool) — the live pipelining gauge.
    inflight: AtomicU64,
    /// High-water mark of `inflight` since start.
    inflight_peak: AtomicU64,
    /// Requests answered `busy` at the per-connection `max_inflight` cap.
    inflight_rejections: AtomicU64,
    /// Router only: shard calls that fired a second replica after the
    /// hedge delay.
    hedged_requests: AtomicU64,
    /// Router only: shard calls transparently retried on another replica.
    failovers: AtomicU64,
    /// Queries answered through the approximate screen (wire v8).
    approx_queries: AtomicU64,
    /// Candidates the bidirectional estimator classified without exact
    /// refinement, summed over approximate queries.
    approx_estimated: AtomicU64,
    /// Candidates that fell inside the ε-band and took exact refinement,
    /// summed over approximate queries.
    approx_exact_refined: AtomicU64,
    /// Forward walks spent by the estimator, summed over approximate
    /// queries.
    approx_walks: AtomicU64,
    latency: [Mutex<LatencyHistogram>; REQUEST_KINDS],
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerMetrics {
    /// Fresh metrics with the uptime clock starting now.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            protocol_errors: AtomicU64::new(0),
            engine_errors: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            rejected_connections: AtomicU64::new(0),
            auth_failures: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            inflight_peak: AtomicU64::new(0),
            inflight_rejections: AtomicU64::new(0),
            hedged_requests: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            approx_queries: AtomicU64::new(0),
            approx_estimated: AtomicU64::new(0),
            approx_exact_refined: AtomicU64::new(0),
            approx_walks: AtomicU64::new(0),
            latency: std::array::from_fn(|_| Mutex::new(LatencyHistogram::new())),
        }
    }

    pub(crate) fn record_request(&self, kind: RequestKind, seconds: f64) {
        self.latency[kind as usize].lock().expect("metrics lock").record(seconds);
    }

    /// A copy of every kind's latency histogram, in [`RequestKind`] order.
    fn latencies(&self) -> Vec<LatencyHistogram> {
        self.latency.iter().map(|h| h.lock().expect("metrics lock").clone()).collect()
    }

    pub(crate) fn record_protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_engine_error(&self) {
        self.engine_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_rejected_connection(&self) {
        self.rejected_connections.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_auth_failure(&self) {
        self.auth_failures.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_inflight_rejection(&self) {
        self.inflight_rejections.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_hedged_request(&self) {
        self.hedged_requests.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_failover(&self) {
        self.failovers.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one approximate query's usage report into the counters.
    pub(crate) fn record_approx(&self, estimated: u64, exact_refined: u64, walks: u64) {
        self.approx_queries.fetch_add(1, Ordering::Relaxed);
        self.approx_estimated.fetch_add(estimated, Ordering::Relaxed);
        self.approx_exact_refined.fetch_add(exact_refined, Ordering::Relaxed);
        self.approx_walks.fetch_add(walks, Ordering::Relaxed);
    }

    /// Marks one request entering the pipeline (accepted off the wire,
    /// queued for a worker) and updates the peak gauge.
    pub(crate) fn begin_request(&self) {
        let now = self.inflight.fetch_add(1, Ordering::AcqRel) + 1;
        self.inflight_peak.fetch_max(now, Ordering::AcqRel);
    }

    /// Marks one request leaving the pipeline (response written or the
    /// connection gone).
    pub(crate) fn end_request(&self) {
        self.inflight.fetch_sub(1, Ordering::AcqRel);
    }

    /// Requests currently in flight.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Acquire)
    }

    /// Overlays these counters on `engine`, a snapshot carrying only engine
    /// facts ([`StatsSnapshot::local`]) — consistent enough for reporting
    /// (counters are read individually; exactness across counters is not
    /// needed). The engine facts are sampled fresh by the caller: edges, the
    /// digest and per-shard sizes drift under updates and refinement.
    pub fn snapshot(&self, engine: StatsSnapshot, unhealthy_backends: u64) -> StatsSnapshot {
        let per_kind = self.latencies();
        let mut hist = LatencyHistogram::new();
        for h in &per_kind {
            hist.merge(h);
        }
        let mut kind_latency = [KindLatency::default(); REQUEST_KINDS];
        for (kl, h) in kind_latency.iter_mut().zip(&per_kind) {
            let (p50, p95, p99) = h.percentiles();
            *kl = KindLatency {
                count: h.count(),
                mean_seconds: h.mean(),
                p50_seconds: p50,
                p95_seconds: p95,
                p99_seconds: p99,
                max_seconds: h.max(),
            };
        }
        let (p50, p95, p99) = hist.percentiles();
        StatsSnapshot {
            uptime_seconds: self.started.elapsed().as_secs_f64(),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            engine_errors: self.engine_errors.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            rejected_connections: self.rejected_connections.load(Ordering::Relaxed),
            auth_failures: self.auth_failures.load(Ordering::Relaxed),
            unhealthy_backends,
            hedged_requests: self.hedged_requests.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            inflight_peak: self.inflight_peak.load(Ordering::Relaxed),
            inflight_rejections: self.inflight_rejections.load(Ordering::Relaxed),
            mean_seconds: hist.mean(),
            p50_seconds: p50,
            p95_seconds: p95,
            p99_seconds: p99,
            max_seconds: hist.max(),
            kind_latency,
            approx_queries: self.approx_queries.load(Ordering::Relaxed),
            approx_estimated: self.approx_estimated.load(Ordering::Relaxed),
            approx_exact_refined: self.approx_exact_refined.load(Ordering::Relaxed),
            approx_walks: self.approx_walks.load(Ordering::Relaxed),
            ..engine
        }
    }

    /// Renders every counter, gauge and per-kind latency histogram in the
    /// Prometheus text exposition format (version 0.0.4) — the body of the
    /// `GET /metrics` endpoint `--metrics-addr` serves.
    pub fn render_prometheus(&self, unhealthy_backends: u64) -> String {
        let mut out = String::with_capacity(4096);
        let counter = |out: &mut String, name: &str, help: &str, v: u64| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"));
        };
        let gauge = |out: &mut String, name: &str, help: &str, v: f64| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"));
        };

        let per_kind = self.latencies();
        out.push_str("# HELP rtk_requests_total Completed requests by kind.\n");
        out.push_str("# TYPE rtk_requests_total counter\n");
        for kind in RequestKind::ALL {
            let v = per_kind[kind as usize].count();
            out.push_str(&format!("rtk_requests_total{{kind=\"{}\"}} {v}\n", kind.name()));
        }

        out.push_str(
            "# HELP rtk_request_latency_seconds Request latency by kind.\n\
             # TYPE rtk_request_latency_seconds histogram\n",
        );
        for kind in RequestKind::ALL {
            let hist = &per_kind[kind as usize];
            if hist.count() == 0 {
                continue;
            }
            let name = kind.name();
            for (edge, cumulative) in hist.cumulative_buckets() {
                let le = if edge.is_infinite() { "+Inf".to_string() } else { format!("{edge:e}") };
                out.push_str(&format!(
                    "rtk_request_latency_seconds_bucket{{kind=\"{name}\",le=\"{le}\"}} \
                     {cumulative}\n"
                ));
            }
            out.push_str(&format!(
                "rtk_request_latency_seconds_sum{{kind=\"{name}\"}} {}\n",
                hist.sum()
            ));
            out.push_str(&format!(
                "rtk_request_latency_seconds_count{{kind=\"{name}\"}} {}\n",
                hist.count()
            ));
        }

        gauge(
            &mut out,
            "rtk_inflight",
            "Requests currently queued or executing.",
            self.inflight.load(Ordering::Acquire) as f64,
        );
        gauge(
            &mut out,
            "rtk_inflight_peak",
            "High-water mark of in-flight requests since start.",
            self.inflight_peak.load(Ordering::Relaxed) as f64,
        );
        counter(
            &mut out,
            "rtk_connections_total",
            "Connections accepted since start.",
            self.connections.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rtk_rejected_connections_total",
            "Connections refused at the max_connections cap.",
            self.rejected_connections.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rtk_auth_failures_total",
            "Requests rejected for a bad auth token.",
            self.auth_failures.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rtk_protocol_errors_total",
            "Malformed frames or requests observed.",
            self.protocol_errors.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rtk_engine_errors_total",
            "Requests the engine rejected or failed.",
            self.engine_errors.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rtk_inflight_rejections_total",
            "Requests answered busy at the max_inflight pipeline cap.",
            self.inflight_rejections.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rtk_hedged_requests_total",
            "Shard calls that fired a second replica after the hedge delay.",
            self.hedged_requests.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rtk_failovers_total",
            "Shard calls transparently retried on another replica.",
            self.failovers.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rtk_approx_queries_total",
            "Queries answered through the approximate screen.",
            self.approx_queries.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rtk_approx_estimated_total",
            "Candidates classified by the bidirectional estimator.",
            self.approx_estimated.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rtk_approx_exact_refined_total",
            "Candidates inside the epsilon band that took exact refinement.",
            self.approx_exact_refined.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "rtk_approx_walks_total",
            "Forward walks spent by the approximate estimator.",
            self.approx_walks.load(Ordering::Relaxed),
        );
        gauge(
            &mut out,
            "rtk_unhealthy_backends",
            "Backend replicas currently marked unhealthy (router only).",
            unhealthy_backends as f64,
        );
        gauge(
            &mut out,
            "rtk_uptime_seconds",
            "Seconds since the process started serving.",
            self.started.elapsed().as_secs_f64(),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn info(nodes: u64) -> EngineInfo {
        EngineInfo {
            nodes,
            edges: 1,
            max_k: 1,
            workers: 1,
            shard_lo: 0,
            shard_hi: nodes,
            index_digest: 0,
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let m = ServerMetrics::new();
        m.record_request(RequestKind::ReverseTopk, 0.004);
        m.record_request(RequestKind::ReverseTopk, 0.006);
        m.record_request(RequestKind::Ping, 0.0001);
        m.record_request(RequestKind::Persist, 0.02);
        m.record_request(RequestKind::ShardReverseTopk, 0.003);
        m.record_protocol_error();
        m.record_connection();
        m.record_rejected_connection();
        m.record_auth_failure();
        m.record_inflight_rejection();
        m.record_hedged_request();
        m.record_failover();
        m.record_failover();
        let snap = m.snapshot(StatsSnapshot::local(info(100), vec![50, 50], vec![1024, 2048]), 1);
        assert_eq!(snap.total_requests(), 5);
        assert_eq!(snap.requests(RequestKind::ReverseTopk), 2);
        assert_eq!(snap.requests(RequestKind::Persist), 1);
        assert_eq!(snap.requests(RequestKind::ShardReverseTopk), 1);
        assert_eq!(snap.protocol_errors, 1);
        assert_eq!(snap.rejected_connections, 1);
        assert_eq!(snap.auth_failures, 1);
        assert_eq!(snap.inflight_rejections, 1);
        assert_eq!(snap.unhealthy_backends, 1);
        assert_eq!(snap.hedged_requests, 1);
        assert_eq!(snap.failovers, 2);
        assert_eq!(snap.shard_count(), 2);
        assert!(snap.p50_seconds > 0.0 && snap.p99_seconds >= snap.p50_seconds);

        let mut buf = Vec::new();
        snap.encode(&mut buf).unwrap();
        let back = StatsSnapshot::decode(&mut Cursor::new(buf), 16).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn inflight_gauge_tracks_the_peak() {
        let m = ServerMetrics::new();
        m.begin_request();
        m.begin_request();
        m.begin_request();
        assert_eq!(m.inflight(), 3);
        m.end_request();
        m.end_request();
        m.begin_request();
        m.end_request();
        m.end_request();
        assert_eq!(m.inflight(), 0);
        let snap = m.snapshot(StatsSnapshot::local(info(1), vec![1], vec![1]), 0);
        assert_eq!(snap.inflight_peak, 3, "peak must survive the drain");
    }

    #[test]
    fn shard_count_is_bounded_on_decode() {
        let m = ServerMetrics::new();
        let snap = m.snapshot(StatsSnapshot::local(info(1), vec![1; 8], vec![1; 8]), 0);
        let mut buf = Vec::new();
        snap.encode(&mut buf).unwrap();
        // A bound below the declared count must fail before allocating.
        assert!(StatsSnapshot::decode(&mut Cursor::new(buf), 4).is_err());
    }

    #[test]
    fn counters_are_independent_per_kind() {
        let m = ServerMetrics::new();
        for _ in 0..5 {
            m.record_request(RequestKind::Topk, 0.001);
        }
        m.record_request(RequestKind::Stats, 0.001);
        let snap = m.snapshot(StatsSnapshot::local(info(1), vec![1], vec![1]), 0);
        assert_eq!(snap.requests(RequestKind::Topk), 5);
        assert_eq!(snap.requests(RequestKind::Stats), 1);
        assert_eq!(snap.requests(RequestKind::ReverseTopk), 0);
        assert_eq!(snap.total_requests(), 6);
    }

    #[test]
    fn latency_is_split_per_kind_but_aggregates_match() {
        let m = ServerMetrics::new();
        // Fast pings must not dilute the slow reverse_topk tail.
        for _ in 0..100 {
            m.record_request(RequestKind::Ping, 1e-5);
        }
        for _ in 0..10 {
            m.record_request(RequestKind::ReverseTopk, 0.05);
        }
        let snap = m.snapshot(StatsSnapshot::local(info(1), vec![1], vec![1]), 0);
        let ping = snap.kind_latency[RequestKind::Ping as usize];
        let rtk = snap.kind_latency[RequestKind::ReverseTopk as usize];
        assert_eq!(ping.count, 100);
        assert_eq!(rtk.count, 10);
        assert!(rtk.p50_seconds >= 0.05, "p50={}", rtk.p50_seconds);
        assert!(ping.p99_seconds < 0.001, "p99={}", ping.p99_seconds);
        // The aggregate view is the merge of every kind.
        assert_eq!(snap.total_requests(), 110);
        assert_eq!(snap.max_seconds, rtk.max_seconds);
        // The global p50 sits in ping territory (100 of 110 observations).
        assert!(snap.p50_seconds < 0.001, "p50={}", snap.p50_seconds);
        // Untouched kinds stay default.
        assert_eq!(snap.kind_latency[RequestKind::Persist as usize], KindLatency::default());
    }

    #[test]
    fn prometheus_rendering_exposes_counters_and_histograms() {
        let m = ServerMetrics::new();
        m.record_request(RequestKind::ReverseTopk, 0.004);
        m.record_request(RequestKind::ReverseTopk, 0.006);
        m.record_hedged_request();
        let text = m.render_prometheus(1);
        // Every kind appears in the counter family, even untouched ones.
        assert!(text.contains("rtk_requests_total{kind=\"reverse_topk\"} 2"), "{text}");
        assert!(text.contains("rtk_requests_total{kind=\"ping\"} 0"), "{text}");
        // Histogram series only for kinds with observations, ending at +Inf.
        assert!(
            text.contains(
                "rtk_request_latency_seconds_bucket{kind=\"reverse_topk\",le=\"+Inf\"} 2"
            ),
            "{text}"
        );
        assert!(!text.contains("rtk_request_latency_seconds_bucket{kind=\"ping\""), "{text}");
        assert!(text.contains("rtk_request_latency_seconds_count{kind=\"reverse_topk\"} 2"));
        assert!(text.contains("rtk_hedged_requests_total 1"), "{text}");
        assert!(text.contains("rtk_unhealthy_backends 1"), "{text}");
        // Basic exposition-format shape: every non-comment line is
        // `name{labels} value` with a parseable float value.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("metric line has a value");
            assert!(value.parse::<f64>().is_ok(), "unparseable value in {line:?}");
        }
    }
}
