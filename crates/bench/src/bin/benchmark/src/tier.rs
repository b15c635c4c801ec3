//! The three ways the engine is deployed, each behind the same front door.

use rtk_core::graph::{DiGraph, NodeId};
use rtk_core::index::storage::append_update_log;
use rtk_core::index::{ShardSlice, UpdateRecord};
use rtk_core::query::QueryOptions;
use rtk_core::{ReverseTopkEngine, ShardEngine};
use rtk_obs::TraceSpan;
use rtk_server::{
    Client, Router, RouterConfig, Server, ServerConfig, ServerHandle, StatsSnapshot,
    WireQueryResult,
};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};

pub const K: usize = 20;
const MAX_K: usize = 50;
const HUBS_PER_DIRECTION: usize = 25;

/// Cores the benchmark may use; every thread and connection count derives
/// from it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// A row measured with more compute threads or more generator connections
/// than cores measures oversubscription, not the program: refuse it.
pub fn check_threads(compute: usize, connections: usize, cores: usize) -> Result<(), String> {
    if compute > cores || connections > cores {
        return Err(format!(
            "refused: {compute} compute thread(s) and {connections} connection(s) on {cores} core(s)"
        ));
    }
    Ok(())
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Shape {
    /// Calls into the engine from this process, all cores inside one query.
    Local,
    /// One `Server`, one thread per query, `nproc` workers.
    Single,
    /// Two shard backends behind a `Router`.
    Routed,
}

impl Shape {
    pub fn shards(self) -> usize {
        if self == Shape::Routed {
            2
        } else {
            1
        }
    }

    /// (compute threads, generator connections) this shape uses on `cores`.
    pub fn threads(self, cores: usize, serial: bool) -> (usize, usize) {
        let conns = if serial || self == Shape::Local { 1 } else { cores };
        match self {
            Shape::Local | Shape::Single => (cores, conns),
            Shape::Routed => (2 * (cores / 2).max(1), conns),
        }
    }
}

pub fn build_engine(graph: DiGraph, shards: usize) -> Result<ReverseTopkEngine, String> {
    ReverseTopkEngine::builder(graph)
        .max_k(MAX_K)
        .hubs_per_direction(HUBS_PER_DIRECTION)
        .shards(shards)
        .build()
        .map_err(|e| format!("index build: {e}"))
}

pub fn frozen_options(query_threads: usize) -> QueryOptions {
    QueryOptions { update_index: false, query_threads, ..Default::default() }
}

/// What every front door answers, reduced to what the benchmark compares
/// and counts.
#[derive(Clone, Debug)]
pub struct Answer {
    pub query: u32,
    pub nodes: Vec<u32>,
    pub proximity_bits: Vec<u64>,
    pub candidates: u64,
    pub hits: u64,
    pub refined: u64,
    pub refine_iterations: u64,
    /// The program's own span tree for this answer.
    pub trace: Option<TraceSpan>,
}

impl Answer {
    pub fn from_wire(r: WireQueryResult) -> Self {
        Answer {
            query: r.query,
            proximity_bits: r.proximities.iter().map(|p| p.to_bits()).collect(),
            nodes: r.nodes,
            candidates: r.candidates,
            hits: r.hits,
            refined: r.refined_nodes,
            refine_iterations: r.refine_iterations,
            trace: r.trace,
        }
    }

    pub fn from_local(r: &rtk_core::query::QueryResult, traced: bool) -> Self {
        let s = r.stats();
        // The same tree a server attaches to a traced answer, rebuilt from
        // the public timing fields.
        let trace = traced.then(|| {
            let mut root = TraceSpan::new("engine:reverse_topk", s.total_seconds);
            let mut screen = TraceSpan::new("screen", s.screen_seconds);
            screen.start_seconds = s.pmpn_seconds;
            let commit = (s.total_seconds - s.pmpn_seconds - s.screen_seconds).max(0.0);
            let mut tail = TraceSpan::new("commit", commit);
            tail.start_seconds = s.pmpn_seconds + s.screen_seconds;
            root.children = vec![TraceSpan::new("pmpn_solve", s.pmpn_seconds), screen, tail];
            root
        });
        Answer {
            query: r.query(),
            nodes: r.nodes().to_vec(),
            proximity_bits: r.proximities().iter().map(|p| p.to_bits()).collect(),
            candidates: s.candidates as u64,
            hits: s.hits as u64,
            refined: s.refined_nodes as u64,
            refine_iterations: s.refine_iterations,
            trace,
        }
    }

    pub fn same_result(&self, other: &Answer) -> bool {
        self.nodes == other.nodes && self.proximity_bits == other.proximity_bits
    }
}

pub fn local_query(
    engine: &ReverseTopkEngine,
    q: u32,
    query_threads: usize,
    traced: bool,
) -> Result<Answer, String> {
    let results = engine
        .query_batch(&[(NodeId(q), K)], &frozen_options(query_threads))
        .map_err(|e| e.to_string())?;
    Ok(Answer::from_local(&results[0], traced))
}

pub enum Conn<'a> {
    Local(&'a ReverseTopkEngine),
    Remote(Client),
}

impl Conn<'_> {
    pub fn query(&mut self, q: u32, update: bool, traced: bool) -> Result<Answer, String> {
        match self {
            Conn::Local(engine) => {
                assert!(!update, "the local tier is shared by reference: frozen queries only");
                local_query(engine, q, 0, traced)
            }
            Conn::Remote(client) => {
                let reply = if traced {
                    client.reverse_topk_traced(q, K as u32, update)
                } else {
                    client.reverse_topk(q, K as u32, update)
                };
                reply.map(Answer::from_wire).map_err(|e| e.to_string())
            }
        }
    }

    pub fn client(&mut self) -> &mut Client {
        match self {
            Conn::Remote(client) => client,
            Conn::Local(_) => panic!("the local tier has no client"),
        }
    }
}

pub enum Tier {
    Local {
        engine: Box<ReverseTopkEngine>,
    },
    Remote {
        addr: SocketAddr,
        /// The front server first, then any backends.
        handles: Vec<ServerHandle>,
    },
}

/// Where the tier's `RTKULOG1` update log lives under `dir` (for a routed
/// tier: the first backend's; every backend applies the same updates).
pub fn update_log_path(dir: &Path) -> PathBuf {
    dir.join("updates.ulog")
}

impl Tier {
    /// Starts serving `engine` in the given shape; returns once a request
    /// could be sent (the listeners are bound and the router has dialled its
    /// backends).
    pub fn start(
        shape: Shape,
        engine: ReverseTopkEngine,
        dir: &Path,
        cores: usize,
    ) -> Result<Tier, String> {
        let io = |e: std::io::Error| format!("tier start: {e}");
        match shape {
            Shape::Local => Ok(Tier::Local { engine: Box::new(engine) }),
            Shape::Single => {
                let config = ServerConfig {
                    workers: cores,
                    query_threads: 1,
                    update_log: Some(update_log_path(dir)),
                    ..Default::default()
                };
                let handle = Server::bind(engine, "127.0.0.1:0", config).map_err(io)?.spawn();
                Ok(Tier::Remote { addr: handle.addr(), handles: vec![handle] })
            }
            Shape::Routed => {
                let mut handles = Vec::new();
                for shard in 0..engine.index().shard_count() {
                    let slice = ShardSlice::from_index(engine.index(), shard)
                        .map_err(|e| format!("shard slice: {e}"))?;
                    let backend = ShardEngine::from_parts(engine.graph().clone(), slice)
                        .map_err(|e| format!("shard engine: {e}"))?;
                    let log = if shard == 0 {
                        update_log_path(dir)
                    } else {
                        dir.join(format!("updates.shard{shard}.ulog"))
                    };
                    let config = ServerConfig {
                        workers: (cores / 2).max(1),
                        query_threads: 1,
                        update_log: Some(log),
                        ..Default::default()
                    };
                    handles.push(
                        Server::bind_shard(backend, "127.0.0.1:0", config).map_err(io)?.spawn(),
                    );
                }
                let backends: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();
                let config = RouterConfig { workers: cores, ..Default::default() };
                let router = Router::bind(&backends, "127.0.0.1:0", config).map_err(io)?.spawn();
                handles.insert(0, router);
                Ok(Tier::Remote { addr: handles[0].addr(), handles })
            }
        }
    }

    pub fn connect(&self) -> Result<Conn<'_>, String> {
        match self {
            Tier::Local { engine } => Ok(Conn::Local(engine)),
            Tier::Remote { addr, .. } => {
                let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                client.ping().map_err(|e| format!("ping: {e}"))?;
                Ok(Conn::Remote(client))
            }
        }
    }

    /// Edge updates through the front door, one after the other, each made
    /// durable the way the tier does it: a server appends to its own log, a
    /// library caller appends after the in-memory apply. Returns each
    /// update's latency in ms, or its error.
    pub fn edge_updates(
        &mut self,
        records: &[UpdateRecord],
        dir: &Path,
    ) -> Result<Vec<Result<f64, String>>, String> {
        let timed = |apply: &mut dyn FnMut(&UpdateRecord) -> Result<(), String>| {
            records
                .iter()
                .map(|record| {
                    let started = std::time::Instant::now();
                    apply(record).map(|()| started.elapsed().as_secs_f64() * 1e3)
                })
                .collect()
        };
        match self {
            Tier::Local { engine } => Ok(timed(&mut |record| {
                engine.replay_updates(std::slice::from_ref(record)).map_err(|e| e.to_string())?;
                append_update_log(update_log_path(dir), record).map_err(|e| e.to_string())
            })),
            Tier::Remote { .. } => {
                let mut conn = self.connect()?;
                Ok(timed(&mut |record| remote_edge_update(conn.client(), record)))
            }
        }
    }

    /// Heap bytes of the live index (a remote tier reports them per shard).
    pub fn index_bytes(&self) -> Result<usize, String> {
        match self {
            Tier::Local { engine } => Ok(engine.index().current_bytes()),
            Tier::Remote { .. } => {
                let stats = self.stats()?.expect("a remote tier has stats");
                Ok(stats.shard_bytes.iter().sum::<u64>() as usize)
            }
        }
    }

    /// The tier's counters and live digest (`None` for the local tier).
    pub fn stats(&self) -> Result<Option<StatsSnapshot>, String> {
        match self {
            Tier::Local { .. } => Ok(None),
            Tier::Remote { .. } => {
                self.connect()?.client().stats().map(Some).map_err(|e| e.to_string())
            }
        }
    }

    /// Stops every process-internal server of the tier and waits for each
    /// to drain. Returns the local engine, if that is what the tier was.
    pub fn stop(self) -> Result<Option<ReverseTopkEngine>, String> {
        match self {
            Tier::Local { engine } => Ok(Some(*engine)),
            Tier::Remote { addr, handles } => {
                // A router passes the shutdown on to its backends.
                Client::connect(addr)
                    .and_then(|mut c| c.shutdown())
                    .map_err(|e| format!("shutdown: {e}"))?;
                for handle in handles {
                    handle.join().map_err(|e| format!("server exit: {e}"))?;
                }
                Ok(None)
            }
        }
    }
}

pub fn remote_edge_update(client: &mut Client, record: &UpdateRecord) -> Result<(), String> {
    match *record {
        UpdateRecord::AddEdge { from, to, weight } => client.add_edge(from, to, weight),
        UpdateRecord::RemoveEdge { from, to } => client.remove_edge(from, to),
    }
    .map(|_| ())
    .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_with_more_threads_or_connections_than_cores_are_refused() {
        assert!(check_threads(2, 2, 2).is_ok());
        assert!(check_threads(3, 1, 2).is_err());
        assert!(check_threads(1, 3, 2).is_err());
        // Two backends need two cores.
        let (compute, conns) = Shape::Routed.threads(1, false);
        assert!(check_threads(compute, conns, 1).is_err());
        for cores in 2..=9 {
            for shape in [Shape::Local, Shape::Single, Shape::Routed] {
                let (compute, conns) = shape.threads(cores, false);
                assert!(check_threads(compute, conns, cores).is_ok(), "{shape:?} on {cores}");
            }
        }
    }
}
