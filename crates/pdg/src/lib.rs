//! # twill-pdg
//!
//! Program Dependence Graph construction for the DSWP thread extractor,
//! following thesis §3.1.1/§5.2:
//!
//! * **data dependences** — SSA use-def edges,
//! * **memory dependences** — conservative edges between may-conflicting
//!   loads/stores/calls/IO, bidirectional when a loop may carry the
//!   dependence (forcing the pair into one SCC → one thread),
//! * **control dependences** — Ferrante-style via post-dominance frontiers,
//! * **PHI-constant fake dependences** (thesis Fig 5.2) — a PHI node with a
//!   constant incoming value is tied to the branches of the associated
//!   predecessor blocks with a *pair* of edges so they land in one SCC.
//!
//! Each node carries the thesis' two weights: estimated software cycles and
//! the hardware cycle·area product, scaled by loop-depth-based execution
//! frequency.

#[cfg(test)]
mod complexity_guard;
pub mod graph;
pub mod scc;
pub mod weights;

pub use graph::{DepKind, Pdg, PdgOptions};
pub use scc::{SccDag, SccId};
pub use weights::NodeWeights;
