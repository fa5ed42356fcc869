//! Shared fixtures for the benchmark harness, the experiment-report
//! binary, and the integration tests.
//!
//! * [`paper`] — the universe and specifications of the paper's running
//!   example (Examples 1–6);
//! * [`scale`] — parameterized universes and specifications for the
//!   performance sweeps (PERF1–PERF4 in EXPERIMENTS.md);
//! * [`campaign`] — the FAULT fault-injection campaign: seeds × drop
//!   rates over supervised chaos runs, with same-seed reproduction
//!   checked per cell;
//! * [`service`] — the SERVE campaign: cold-vs-warm refinement checks
//!   against an in-process `pospec-serve` instance over real TCP;
//! * [`chaos`] — the CHAOS campaign: a deterministic fault-injecting
//!   TCP proxy between a retrying client and the hardened server, plus
//!   the kill-and-restart cycle over the persistent automaton cache.

pub mod campaign;
pub mod chaos;
pub mod paper;
pub mod scale;
pub mod service;
