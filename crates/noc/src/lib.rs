//! # chrome-noc — mesh interconnect timing
//!
//! [`Mesh`] is a cycle-approximate 2D-mesh network-on-chip timing model
//! with X-Y dimension-ordered routing and bounded per-link ingress
//! queues, connecting core tiles to address-interleaved LLC slice tiles
//! ([`NocConfig`], [`slice_of_set`]).
//!
//! The crate deliberately depends on nothing from `chrome-sim`: it
//! speaks in tile indices and `u64` cycle times, so the simulator owns
//! the mapping from cores, cache sets, and slices onto tiles.

pub mod config;
pub mod mesh;

pub use config::NocConfig;
pub use mesh::{slice_of_set, slice_tile, Mesh};
