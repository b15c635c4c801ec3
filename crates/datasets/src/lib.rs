//! Deterministic synthetic datasets mirroring the paper's evaluation graphs.
//!
//! The paper evaluates on SNAP/LAW crawls (Web-stanford-cs, Epinions,
//! Web-stanford, Web-google), the Webspam-uk2006 host graph, and a DBLP
//! co-authorship network — none of which are available offline. In their
//! place this crate generates analogues with matched degree skew and
//! (scaled) size from fixed seeds, so every experiment in the harness is
//! reproducible bit-for-bit.
//!
//! * [`toy_graph`] — the paper's 6-node running example, recovered *exactly*
//!   from Figure 1's proximity matrix (the [`toy`] module docs show how);
//! * [`web`] — R-MAT web-crawl analogues in four sizes;
//! * [`epinions`] — a reciprocated scale-free trust network;
//! * [`webspam`] — a labeled host graph with planted spam farms (§5.4);
//! * [`dblp`] — a weighted co-authorship network with planted prolific
//!   authors (§5.4, Table 3);
//! * [`registry`] — descriptors tying each dataset to the Table 2 / Figure
//!   5–9 experiment parameters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dblp;
pub mod epinions;
pub mod registry;
pub mod toy;
pub mod web;
pub mod webspam;

pub use dblp::{dblp_sim, CoauthorConfig, CoauthorDataset};
pub use epinions::{epinions_sim, EpinionsConfig};
pub use registry::{paper_datasets, DatasetSpec};
pub use toy::{toy_graph, TOY_PROXIMITY_MATRIX};
pub use web::{web_cs_sim, web_cs_small, web_google_sim, web_std_sim, WebConfig};
pub use webspam::{webspam_sim, HostLabel, WebspamConfig, WebspamDataset};
