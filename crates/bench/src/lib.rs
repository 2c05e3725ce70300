//! Experiment harness reproducing every table and figure of the paper.
//!
//! Each experiment is a pure function returning row structs; the `repro`
//! binary renders them as the paper's tables/series and writes CSVs, and
//! the `perfbench` package times the paper figures and the serve streams
//! through the same functions. See DESIGN.md §3 for the experiment ↔
//! module index.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod experiments;
pub mod output;
pub mod serve;

pub use experiments::*;
