//! # sara-workloads
//!
//! The vocabulary of synthetic traffic for the SARA evaluation: a core is
//! a declarative [`CoreSpec`] (traffic shape × address locality × QoS
//! target per DMA) that the simulation engine lowers onto DMAs, meters and
//! generators. The paper's camcorder (Fig. 2, Table 2) and every other
//! catalog workload are documents in this vocabulary, read by
//! `sara-scenarios`.
//!
//! This crate is the substitution for the paper's proprietary
//! "next-generation MPSoC" traces (README, "Provenance"): what matters for
//! every figure is the traffic *class* per core — bursty frame sources, constant
//! rate streams, Poisson latency-sensitive arrivals, periodic work units,
//! elastic best-effort — plus per-core rates and locality, all of which are
//! reproduced here deterministically.
//!
//! # Examples
//!
//! ```
//! use sara_types::{CoreKind, MemOp};
//! use sara_workloads::builders::{latency_ns, poisson_mb, random_mib};
//! use sara_workloads::{CoreSpec, DmaSpec, MeterSpec};
//!
//! // A latency-bounded DSP: Poisson reads, 350 ns target, 5% tolerance.
//! let dsp = CoreSpec::new(
//!     CoreKind::Dsp,
//!     vec![DmaSpec::new("dsp-rd", MemOp::Read, poisson_mb(300.0), random_mib(64), latency_ns(350.0, 0.05), 4)],
//! );
//! assert!(matches!(dsp.dmas[0].meter, MeterSpec::Latency { .. }));
//! assert!((dsp.mean_demand_bytes_per_s() - 300e6).abs() < 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builders;
mod pattern;
mod spec;
mod stimulus;

pub use pattern::AddressPattern;
pub use spec::{BestEffortMeter, CoreSpec, DmaSpec, MeterSpec, PatternSpec, TrafficSpec};
pub use stimulus::{
    BatchStimulus, BurstStimulus, ConstantRateStimulus, ElasticStimulus, PoissonStimulus, Stimulus,
};
