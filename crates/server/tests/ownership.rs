//! Ownership matrix: one engine type, two request families, three surfaces.
//!
//! A `ReverseTopkEngine` holds every shard of its index or exactly one.
//! Whole answers (`reverse_topk`, `batch`) on a one-shard engine and the
//! shard-scoped slice (`shard_reverse_topk`) on a whole engine must be
//! errors that name the owned node range — never a partial answer — and
//! must read the same through the engine API, through `dispatch_request`,
//! and through a loopback `Server`.

use rtk_api::{dispatch_request, QueryCall, RtkService};
use rtk_core::graph::NodeId;
use rtk_core::query::QueryOptions;
use rtk_core::{EngineError, ReverseTopkEngine};
use rtk_server::{Client, Request, Response, Server, ServerConfig, ServerError};

fn whole_engine() -> ReverseTopkEngine {
    ReverseTopkEngine::builder(rtk_datasets::toy_graph())
        .max_k(3)
        .hubs_per_direction(1)
        .threads(1)
        .shards(2)
        .build()
        .unwrap()
}

/// The engine holding shard 1 (nodes 3..6) of `whole_engine`'s index.
fn one_shard_engine() -> ReverseTopkEngine {
    let index = whole_engine().index().one_shard(1).unwrap();
    ReverseTopkEngine::from_parts(rtk_datasets::toy_graph(), index).unwrap()
}

/// The two refusals, as every surface must word them.
fn assert_names_range(message: &str, range: &str, context: &str) {
    assert!(message.contains(range), "{context}: {message:?} does not name nodes {range}");
    assert!(message.contains("--shard-only"), "{context}: {message:?}");
}

#[test]
fn engine_api_refuses_the_wrong_family() {
    let opts = QueryOptions::default();
    let mut shard = one_shard_engine();
    let refusals = [
        shard.query(NodeId(0), 2).map(drop),
        shard.query_with(NodeId(0), 2, &opts).map(drop),
        shard.query_batch(&[(NodeId(0), 2)], &opts).map(drop),
    ];
    for (i, r) in refusals.into_iter().enumerate() {
        match r {
            Err(EngineError::Ownership(m)) => assert_names_range(&m, "3..6", &format!("call {i}")),
            other => panic!("call {i}: expected an ownership error, got {other:?}"),
        }
    }
    // Its own family answers — only the owned range.
    let partial = shard.query_shard(NodeId(0), 2, &opts, None).unwrap();
    assert_eq!(partial.nodes(), &[4]);

    let mut whole = whole_engine();
    for r in [
        whole.query_shard(NodeId(0), 2, &opts, None).map(drop),
        whole.query_shard_frozen(NodeId(0), 2, &opts, None).map(drop),
    ] {
        match r {
            Err(EngineError::Ownership(m)) => assert_names_range(&m, "0..6", "whole engine"),
            other => panic!("expected an ownership error, got {other:?}"),
        }
    }
    assert_eq!(whole.query(NodeId(0), 2).unwrap().nodes(), &[0, 1, 4]);

    // Shard-independent calls work on both.
    for engine in [&mut whole, &mut shard] {
        assert_eq!(engine.top_k(NodeId(2), 2).unwrap()[0].0, NodeId(1));
        engine.add_edge(NodeId(0), NodeId(2), 1.0).unwrap();
        engine.remove_edge(NodeId(0), NodeId(2)).unwrap();
    }
}

fn whole_family() -> Vec<Request> {
    vec![
        Request::ReverseTopk { q: 0, k: 2, update: false, trace: false, approx: None },
        Request::ReverseTopk { q: 0, k: 2, update: true, trace: true, approx: None },
    ]
}

fn shard_family() -> Vec<Request> {
    let shard = |update, trace, want_pmpn| Request::ShardReverseTopk {
        q: 0,
        k: 2,
        update,
        trace,
        approx: None,
        pmpn: None,
        want_pmpn,
    };
    vec![shard(false, false, false), shard(true, true, false), shard(false, false, true)]
}

#[test]
fn dispatch_request_refuses_the_wrong_family() {
    let mut shard = one_shard_engine();
    for request in whole_family() {
        let context = format!("{request:?}");
        match dispatch_request(&mut shard, request).1 {
            Response::Error { message, .. } => assert_names_range(&message, "3..6", &context),
            other => panic!("{context}: expected an error, got {other:?}"),
        }
    }
    for request in shard_family() {
        let solve_only = matches!(request, Request::ShardReverseTopk { want_pmpn: true, .. });
        let (_, response) = dispatch_request(&mut shard, request);
        let Response::ShardReverseTopk(partial) = response else {
            panic!("one-shard engine must answer its slice, got {response:?}")
        };
        assert_eq!((partial.shard_id, partial.node_lo, partial.node_hi), (1, 3, 6));
        // A `want_pmpn` call is the solve alone: the vector, no screen.
        let expected: &[u32] = if solve_only { &[] } else { &[4] };
        assert_eq!(partial.result.nodes, expected);
        assert_eq!(partial.pmpn.is_some(), solve_only);
    }

    let mut whole = whole_engine();
    for request in shard_family() {
        let context = format!("{request:?}");
        match dispatch_request(&mut whole, request).1 {
            Response::Error { message, .. } => assert_names_range(&message, "0..6", &context),
            other => panic!("{context}: expected an error, got {other:?}"),
        }
    }
    let call = QueryCall::new(0, 2, false);
    assert_eq!(whole.reverse_topk(&call).unwrap().nodes, vec![0, 1, 4]);
    assert_eq!(whole.stats().unwrap().shard_count(), 2);
    assert_eq!(shard.stats().unwrap().shard_count(), 1);
}

#[test]
fn loopback_server_refuses_the_wrong_family() {
    let serve = |engine| {
        Server::bind(engine, "127.0.0.1:0", ServerConfig { workers: 2, ..Default::default() })
            .expect("bind")
            .spawn()
    };
    let remote = |r: Result<Response, ServerError>, range: &str, context: &str| match r {
        Ok(Response::Error { message, .. }) | Err(ServerError::Remote(message)) => {
            assert_names_range(&message, range, context)
        }
        other => panic!("{context}: expected a remote error, got {other:?}"),
    };

    let shard_server = serve(one_shard_engine());
    let mut client = Client::connect(shard_server.addr()).expect("connect");
    for request in whole_family() {
        remote(client.request(&request), "3..6", &format!("{request:?}"));
    }
    let call = QueryCall::new(0, 2, false);
    let partial = client.shard_query(&call, None, false).expect("own family answers");
    assert_eq!((partial.node_lo, partial.node_hi), (3, 6));
    let stats = client.stats().expect("stats");
    assert_eq!((stats.shard_lo, stats.shard_hi, stats.shard_count()), (3, 6, 1));
    // The refusals were engine errors, not protocol errors or dropped frames.
    assert_eq!(stats.engine_errors, whole_family().len() as u64);
    assert_eq!(stats.protocol_errors, 0);
    client.shutdown().expect("shutdown");
    shard_server.join().expect("join");

    let whole_server = serve(whole_engine());
    let mut client = Client::connect(whole_server.addr()).expect("connect");
    for request in shard_family() {
        remote(client.request(&request), "0..6", &format!("{request:?}"));
    }
    assert_eq!(client.reverse_topk(0, 2, false).expect("own family answers").nodes, vec![0, 1, 4]);
    assert_eq!(client.batch(&[(0, 2)]).expect("batch").len(), 1);
    client.shutdown().expect("shutdown");
    whole_server.join().expect("join");
}
