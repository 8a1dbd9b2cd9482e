//! End-to-end and per-layer benchmark of the rram-ftt closed loop and the
//! multi-tenant service.
//!
//! Every number is taken from outside the library: the training loop is
//! split into phases by a timing wrapper around the real strategy
//! ([`probe::PhaseProbe`]), the service by timing `Service::submit` and
//! `Service::tick`, and the library's existing counters and span
//! histograms are read from its `obs` registry.

pub mod catalog;
pub mod expected;
pub mod probe;
pub mod report;
pub mod run;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod train;
