//! # scriptflow-simcluster
//!
//! Deterministic discrete-event simulation (DES) substrate standing in for
//! the paper's two 4-node Google Cloud clusters.
//!
//! The paper's wall-clock numbers come from cluster effects — CPU
//! contention under Ray's `num_cpus` accounting, Texera's pipelined
//! operator overlap, object-store transfer times, cross-language
//! serialization. None of those require real hardware to reproduce in
//! *shape*; they require a faithful scheduling model. This crate provides:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution virtual time,
//! * [`des`] — a generic event-queue driver any engine model can plug
//!   into ([`des::SimModel`]),
//! * [`cpu::CpuPool`] — a k-server CPU resource with FCFS assignment,
//! * [`net::NetworkModel`] — latency + bandwidth transfer costs,
//! * [`store::ObjectStoreModel`] — a Ray-plasma-like shared object store
//!   with put/get costs and memory-pressure spill penalties,
//! * [`lang`] — per-language execution and serialization cost profiles
//!   (Python vs Scala vs Java …), the substrate for the paper's
//!   language-efficiency experiment (Table I),
//! * [`rng::SplitMix64`] — the one seeded generator behind every
//!   dataset, fault plan and property-test case in the workspace,
//! * [`topology`] — machine and cluster specs with the paper's GCP
//!   defaults (4 workers × 8 vCPUs × 64 GB).
//!
//! Everything is deterministic: same inputs → same virtual times, which is
//! what lets the benchmark harness regenerate the paper's tables bit-for-
//! bit across runs.

#![warn(missing_docs)]

pub mod cpu;
pub mod des;
pub mod lang;
pub mod net;
pub mod rng;
pub mod store;
pub mod time;
pub mod topology;

pub use cpu::CpuPool;
pub use des::{Scheduler, SimModel};
pub use lang::{Language, LanguageProfile, LanguageTable};
pub use net::NetworkModel;
pub use rng::SplitMix64;
pub use store::ObjectStoreModel;
pub use time::{SimDuration, SimTime};
pub use topology::{ClusterSpec, MachineSpec};
