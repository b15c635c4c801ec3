//! Random-walk-with-restart proximity engines.
//!
//! Implements every proximity computation the paper builds on:
//!
//! * [`power`] — the forward power method solving
//!   `p_u = (1−α)·A·p_u + α·e_u` (Eq. 1/12), and the blocked many-source
//!   form that solves a tile of columns per pass over the edges;
//! * [`pmpn`] — **Power Method for Proximity to Node** (Alg. 2): the paper's
//!   novel result that the *row* `p_{q,*}` of the proximity matrix is
//!   computable by iterating on `Aᵀ` with convergence rate `1−α` (Thm. 2),
//!   one sliced 4-lane `Aᵀ·x` gather per iteration, bitwise the naive row
//!   loop;
//! * [`bca`] — the Bookmark Coloring Algorithm in the paper's batched
//!   adaptation (Eqs. 8–9) with hub ink accumulation (Eq. 6) and resumable
//!   snapshots;
//! * [`monte_carlo`] — the restart-terminated walk behind the MC End-Point
//!   estimator the paper discusses as a (non-lower-bounding) alternative
//!   (§6.2), which `rtk-approx`'s bidirectional estimator samples;
//! * [`hubs`] — the hub set and its degree-based selection (§4.1.1);
//! * [`exact`] — a dense Gaussian-elimination oracle for small graphs, used
//!   by tests to validate every iterative engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bca;
pub mod exact;
pub mod hubs;
pub mod monte_carlo;
pub mod params;
pub mod pmpn;
pub mod power;

pub use bca::{BcaEngine, BcaSnapshot, BcaStop};
pub use hubs::HubSet;
pub use params::{BcaParams, RwrParams};
pub use pmpn::proximity_to;
pub use power::{proximity_from, proximity_from_many};
