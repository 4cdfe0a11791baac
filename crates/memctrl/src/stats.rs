//! Memory-controller statistics.

use sara_types::CoreClass;

use crate::config::NUM_QUEUES;

/// Per-class service counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Transactions accepted into the queue.
    pub accepted: u64,
    /// Transactions completed (final column command issued).
    pub completed: u64,
    /// Admissions refused (queue or total budget full).
    pub rejected: u64,
    /// Completions that had been promoted by aging.
    pub aged: u64,
}

/// Controller-wide statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct McStats {
    per_class: [ClassStats; NUM_QUEUES],
    /// Commands issued (ACT + PRE + RD + WR).
    pub commands_issued: u64,
    /// Peak simultaneous occupancy across all queues.
    pub peak_occupancy: usize,
}

impl McStats {
    /// Counters for one traffic class.
    pub fn class(&self, class: CoreClass) -> &ClassStats {
        &self.per_class[class.queue_index()]
    }

    pub(crate) fn class_mut(&mut self, queue: usize) -> &mut ClassStats {
        &mut self.per_class[queue]
    }

    /// Total completions across classes.
    pub fn total_completed(&self) -> u64 {
        self.per_class.iter().map(|c| c.completed).sum()
    }

    /// Total admission rejections across classes.
    pub fn total_rejected(&self) -> u64 {
        self.per_class.iter().map(|c| c.rejected).sum()
    }

    /// Folds a per-channel controller's counters into this (admission-side)
    /// view, field by field. Each count has one writer — the front-end
    /// counts admissions, a lane counts what it schedules — so the sum is
    /// exact.
    pub fn merge_scheduling(&mut self, lane: &McStats) {
        for (acc, c) in self.per_class.iter_mut().zip(&lane.per_class) {
            acc.accepted += c.accepted;
            acc.completed += c.completed;
            acc.rejected += c.rejected;
            acc.aged += c.aged;
        }
        self.commands_issued += lane.commands_issued;
        self.peak_occupancy = self.peak_occupancy.max(lane.peak_occupancy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_aggregate_classes() {
        let mut s = McStats::default();
        s.class_mut(0).completed = 2;
        s.class_mut(3).completed = 5;
        s.class_mut(3).rejected = 1;
        assert_eq!(s.total_completed(), 7);
        assert_eq!(s.total_rejected(), 1);
        assert_eq!(s.class(CoreClass::Media).completed, 5);
    }
}
