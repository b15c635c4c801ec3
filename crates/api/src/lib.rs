//! # rtk-api — the reverse top-k request surface
//!
//! One crate defines *what* can be asked of a reverse top-k service and
//! what comes back; everything else decides *where* the answer is
//! computed:
//!
//! * [`model`] — the request/response vocabulary of the `RTKWIRE1`
//!   protocol (requests, results, stats snapshots) without any bytes or
//!   sockets;
//! * [`service`] — the [`RtkService`] trait covering the full surface
//!   (`reverse_topk` and the shard-scoped `shard_reverse_topk`, both over
//!   one [`QueryCall`] value; `topk`, edge updates, `stats`, `persist`,
//!   `shutdown`), implemented here once for the in-process
//!   [`rtk_core::ReverseTopkEngine`] (whole index or
//!   one shard of it), and in `rtk-server` for the remote `Client` and the
//!   router's backend aggregate.
//!
//! ```
//! use rtk_api::{QueryCall, RtkService};
//! use rtk_core::ReverseTopkEngine;
//!
//! // Code written against the trait serves local and remote identically.
//! fn first_fan(svc: &mut impl RtkService) -> u32 {
//!     svc.reverse_topk(&QueryCall::new(0, 2, false)).unwrap().nodes[0]
//! }
//!
//! let mut engine = ReverseTopkEngine::builder(rtk_datasets::toy_graph())
//!     .max_k(3)
//!     .hubs_per_direction(1)
//!     .build()
//!     .unwrap();
//! assert_eq!(first_fan(&mut engine), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;
pub mod service;

pub use model::{
    ApproxParams, EngineInfo, KindLatency, QueryCall, Request, RequestKind, Response,
    StatsSnapshot, WireApproxStats, WireQueryResult, WireShardResult, WireTopk, WireUpdateResult,
};
pub use rtk_obs::TraceSpan;
pub use service::{
    dispatch_request, to_wire, to_wire_shard, RtkService, ServiceError, ServiceResult,
};
