//! Online reverse top-k query processing (paper §4.2).
//!
//! A query `(q, k)` runs in two steps:
//!
//! 1. **PMPN** computes the exact proximities `p_u(q)` from every node to the
//!    query (Alg. 2, re-exported from `rtk-rwr`);
//! 2. every node is screened against the offline index: pruned when its
//!    `k`-th lower bound already exceeds `p_u(q)`, confirmed when `p_u(q)`
//!    reaches the staircase **upper bound** of Alg. 3, and otherwise
//!    *refined* — its stored BCA is resumed until the bounds decide
//!    (Alg. 4), each run going straight to the residual the bound test
//!    needs ([`confirm_cost`]). Refinements can be written back into the
//!    index (`update` mode, §4.2.3), making future queries cheaper.
//!
//! [`query`] holds the algorithm, one module per screen phase: the
//! classify pass decides every node its stored state can decide, the
//! refine pass resumes the rest, and both call one bound test.
//!
//! The crate also ships the paper's exact baselines ([`baseline::Ibf`],
//! [`baseline::Fbf`], [`baseline::brute_force_reverse_topk`]) and a forward
//! top-k RWR search ([`baseline::top_k_rwr`]) used by the examples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod error;
pub mod query;
pub mod topk;
pub mod upper_bound;

pub use error::QueryError;
pub use query::{BoundMode, QueryEngine, QueryOptions, QueryResult, QueryStats, ScreenOutput};
pub use rtk_approx::{ApproxParams, ApproxUsage};
pub use topk::{top_k_rwr_early, TopkReport};
pub use upper_bound::{confirm_cost, upper_bound_kth};
