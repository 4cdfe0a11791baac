//! # sara-workloads
//!
//! Synthetic traffic for the SARA evaluation: the camcorder use case of
//! Fig. 2 / Table 2 with all 13 heterogeneous cores plus the CPU, expressed
//! as declarative [`CoreSpec`]s (traffic shape × address locality × QoS
//! target) that the simulation engine lowers onto DMAs, meters and
//! generators.
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
//! use sara_workloads::{camcorder_cores, TestCase};
//!
//! let case_a = TestCase::A.cores();
//! let case_b = TestCase::B.cores();
//! assert!(case_a.len() > case_b.len()); // GPS/camera/rotator/JPEG off in B
//! assert_eq!(TestCase::B.dram_freq().as_u32(), 1700);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builders;
mod camcorder;
mod pattern;
mod spec;
mod stimulus;

pub use camcorder::{camcorder_cores, TestCase, FRAMES_PER_SECOND};
pub use pattern::AddressPattern;
pub use spec::{BestEffortMeter, CoreSpec, DmaSpec, MeterSpec, PatternSpec, TrafficSpec};
pub use stimulus::{
    BatchStimulus, BurstStimulus, ConstantRateStimulus, ElasticStimulus, PoissonStimulus, Stimulus,
};
