//! # partix-bench
//!
//! Experiment harnesses and reporting for regenerating every table and
//! figure of the paper's evaluation. The `figures` binary drives
//! [`experiments`]; the repository's one benchmark (`benchmark/`, see
//! `BENCHMARK.json`) times the same functions.

#![warn(missing_docs)]

pub mod ablations;
pub mod check;
pub mod cli;
pub mod experiments;
pub mod report;
pub mod trace_run;
pub mod tracefile;
