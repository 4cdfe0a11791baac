//! Composable spec constructors, public so code outside this crate
//! (notably `sara-scenarios`' random scenario generator) can assemble
//! [`CoreSpec`](crate::CoreSpec)s without re-spelling the enum plumbing at
//! every call site.
//!
//! All helpers are wall-clock denominated (MB/s, nanoseconds) like the
//! specs themselves; conversion to cycles happens in the simulation
//! builder for whatever DRAM frequency a run chooses.
//!
//! # Examples
//!
//! ```
//! use sara_types::{CoreKind, MemOp};
//! use sara_workloads::builders::*;
//! use sara_workloads::{CoreSpec, DmaSpec};
//!
//! // A 4K eye-buffer sink: bursty frame reads over a 64 MiB region.
//! let eye = CoreSpec::new(
//!     CoreKind::Display,
//!     vec![DmaSpec::new("eye-rd", MemOp::Read, burst_mb(1400.0), seq_mib(64), frame_rate(), 24)],
//! );
//! assert!(eye.mean_demand_bytes_per_s() >= 1.4e9);
//! ```

use sara_core::BufferDirection;
use sara_types::units::{mb_per_s, KIB, MIB};

use crate::spec::{MeterSpec, PatternSpec, TrafficSpec};

// --- address patterns -----------------------------------------------------

/// Sequential walk over a `mib`-MiB private region (row-buffer friendly).
pub fn seq_mib(mib: u64) -> PatternSpec {
    PatternSpec::Sequential {
        region_bytes: mib * MIB,
    }
}

/// Constant-stride walk over a `mib`-MiB region (row-buffer adversarial).
pub fn strided_mib(mib: u64, stride_kib: u64) -> PatternSpec {
    PatternSpec::Strided {
        region_bytes: mib * MIB,
        stride_bytes: stride_kib * KIB,
    }
}

/// Uniform random bursts over a `mib`-MiB region (locality-free).
pub fn random_mib(mib: u64) -> PatternSpec {
    PatternSpec::Random {
        region_bytes: mib * MIB,
    }
}

// --- traffic shapes -------------------------------------------------------

/// Bursty frame traffic averaging `mb_s` MB/s (whole frame at each frame
/// boundary).
pub fn burst_mb(mb_s: f64) -> TrafficSpec {
    TrafficSpec::Burst {
        bytes_per_s: mb_per_s(mb_s),
    }
}

/// Smooth constant-rate traffic at `mb_s` MB/s.
pub fn constant_mb(mb_s: f64) -> TrafficSpec {
    TrafficSpec::Constant {
        bytes_per_s: mb_per_s(mb_s),
    }
}

/// Poisson arrivals with mean rate `mb_s` MB/s.
pub fn poisson_mb(mb_s: f64) -> TrafficSpec {
    TrafficSpec::Poisson {
        bytes_per_s: mb_per_s(mb_s),
    }
}

/// Periodic work units: `unit_kib` KiB every `period_ns`, each due
/// `deadline_ns` after arrival.
pub fn batch_kib(unit_kib: u64, period_ns: f64, deadline_ns: f64) -> TrafficSpec {
    TrafficSpec::Batch {
        unit_bytes: unit_kib * KIB,
        period_ns,
        deadline_ns,
    }
}

/// Closed-loop best-effort traffic (always has work).
pub fn elastic() -> TrafficSpec {
    TrafficSpec::Elastic
}

// --- QoS targets ----------------------------------------------------------

/// Frame-progress target (requires `Burst` traffic).
pub fn frame_rate() -> MeterSpec {
    MeterSpec::FrameRate
}

/// Average-latency bound of `limit_ns` with EWMA weight `alpha`.
pub fn latency_ns(limit_ns: f64, alpha: f64) -> MeterSpec {
    MeterSpec::Latency { limit_ns, alpha }
}

/// Fill-side buffer-occupancy target with `capacity_kib` KiB of staging
/// (sensors writing to memory; requires `Constant` traffic).
pub fn occupancy_fill_kib(capacity_kib: u64) -> MeterSpec {
    MeterSpec::Occupancy {
        direction: BufferDirection::ConstantFill,
        capacity_bytes: capacity_kib * KIB,
    }
}

/// Drain-side buffer-occupancy target with `capacity_kib` KiB of staging
/// (displays reading from memory; requires `Constant` traffic).
pub fn occupancy_drain_kib(capacity_kib: u64) -> MeterSpec {
    MeterSpec::Occupancy {
        direction: BufferDirection::ConstantDrain,
        capacity_bytes: capacity_kib * KIB,
    }
}

/// Average-bandwidth target at `target_fraction` of the injected rate over
/// a `window_ns` window.
pub fn bandwidth(target_fraction: f64, window_ns: f64) -> MeterSpec {
    MeterSpec::Bandwidth {
        target_fraction,
        window_ns,
    }
}

/// Work-unit processing-time target (requires `Batch` traffic).
pub fn work_unit() -> MeterSpec {
    MeterSpec::WorkUnit
}

/// No QoS target: always healthy, lowest priority.
pub fn best_effort() -> MeterSpec {
    MeterSpec::BestEffort
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_produce_expected_specs() {
        assert_eq!(
            seq_mib(4),
            PatternSpec::Sequential {
                region_bytes: 4 * MIB
            }
        );
        assert_eq!(
            strided_mib(32, 64),
            PatternSpec::Strided {
                region_bytes: 32 * MIB,
                stride_bytes: 64 * KIB
            }
        );
        assert!((burst_mb(100.0).mean_bytes_per_s().unwrap() - 1e8).abs() < 1.0);
        assert!(
            (batch_kib(1024, 5e6, 1e6).mean_bytes_per_s().unwrap() - 1024.0 * 1024.0 / 5e-3).abs()
                < 1.0
        );
        assert_eq!(elastic().mean_bytes_per_s(), None);
        assert!(matches!(frame_rate(), MeterSpec::FrameRate));
        assert!(matches!(
            occupancy_fill_kib(256),
            MeterSpec::Occupancy {
                direction: BufferDirection::ConstantFill,
                capacity_bytes
            } if capacity_bytes == 256 * KIB
        ));
        assert!(matches!(work_unit(), MeterSpec::WorkUnit));
        assert!(matches!(best_effort(), MeterSpec::BestEffort));
    }
}
