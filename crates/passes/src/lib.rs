//! # twill-passes
//!
//! The analysis and transform passes the Twill compiler runs before thread
//! extraction, re-implementing the pipeline the thesis lists in §5.1/§5.2:
//!
//! > "basicaa", "mem2reg", "mergereturn", "lowerswitch", "indvars",
//! > "inline", "always-inline", "simplifycfg", "gvn", "adce", "loop-simplify"
//!
//! followed by the custom globals-to-arguments pass and the stock cleanups
//! ("deadargelim", "argpromotion", "constprop").
//!
//! Analyses: dominator/post-dominator trees with frontiers, natural-loop
//! info, a flow-insensitive points-to alias analysis, call-graph and purity.

pub mod alias;
pub mod callgraph;
#[cfg(test)]
mod complexity_guard;
pub mod constfold;
pub mod dce;
pub mod domtree;
pub mod globals2args;
pub mod gvn;
pub mod ifconvert;
pub mod inline;
pub mod loops;
pub mod lowerswitch;
pub mod mem2reg;
pub mod mergereturn;
pub mod pipeline;
pub mod simplifycfg;
pub mod utils;

pub use domtree::{DomTree, PostDomTree};
pub use loops::LoopInfo;
pub use pipeline::{run_standard_pipeline, PipelineOptions};
