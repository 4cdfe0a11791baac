//! Switch-allocation arbitration policies.
//!
//! §3.3: "In on-chip network routers, transactions with higher priorities
//! are preferentially selected during switch allocation." The same four
//! policies evaluated in the memory controller exist here so that the whole
//! memory path applies a consistent QoS discipline (the paper's critique of
//! single-layer QoS is precisely that an interconnect with a different
//! policy undoes the controller's guarantees).

use sara_types::{Priority, TransactionId};

/// Arbitration discipline applied at every node of the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ArbiterKind {
    /// Oldest transaction first (global arrival order).
    Fcfs,
    /// Rotate across input ports; FIFO within a port.
    #[default]
    RoundRobin,
    /// Frame-urgency first (the DAC'12 frame-rate QoS baseline): urgent
    /// transactions beat non-urgent; FCFS within each group.
    FrameUrgent,
    /// SARA: highest priority level first, round-robin as tiebreaker.
    Priority,
}

impl ArbiterKind {
    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ArbiterKind::Fcfs => "FCFS",
            ArbiterKind::RoundRobin => "RR",
            ArbiterKind::FrameUrgent => "FrameQoS",
            ArbiterKind::Priority => "Priority",
        }
    }
}

/// Head-of-port metadata fed to the arbiter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Contender {
    /// Input-port index this head sits in.
    pub port: usize,
    /// Transaction id (global injection order).
    pub id: TransactionId,
    /// SARA priority level.
    pub priority: Priority,
    /// Frame-urgency flag.
    pub urgent: bool,
}

/// Picks the winning input port among `contenders` (heads of non-empty,
/// ready input ports).
///
/// `cursor` is the round-robin position: ports "after" the cursor win ties.
/// Returns `None` when there are no contenders.
///
/// # Examples
///
/// ```
/// use sara_noc::{select, ArbiterKind, Contender};
/// use sara_types::{Priority, TransactionId};
///
/// let heads = [
///     Contender { port: 0, id: TransactionId::new(9), priority: Priority::new(1), urgent: false },
///     Contender { port: 1, id: TransactionId::new(5), priority: Priority::new(6), urgent: false },
/// ];
/// assert_eq!(select(ArbiterKind::Priority, &heads, 0).unwrap().port, 1);
/// assert_eq!(select(ArbiterKind::Fcfs, &heads, 0).unwrap().port, 1); // id 5 older
/// ```
#[inline]
pub fn select(kind: ArbiterKind, contenders: &[Contender], cursor: usize) -> Option<Contender> {
    // A lone contender wins under every policy.
    if contenders.len() <= 1 {
        return contenders.first().copied();
    }
    let winner = match kind {
        ArbiterKind::Fcfs => contenders.iter().min_by_key(|c| c.id),
        ArbiterKind::RoundRobin => {
            let rr = RoundRobin::new(contenders, cursor);
            contenders.iter().min_by_key(|c| rr.distance(c))
        }
        ArbiterKind::FrameUrgent => contenders
            .iter()
            .min_by_key(|c| (core::cmp::Reverse(c.urgent as u8), c.id)),
        ArbiterKind::Priority => {
            let rr = RoundRobin::new(contenders, cursor);
            contenders
                .iter()
                .min_by_key(|c| (core::cmp::Reverse(c.priority.as_u8()), rr.distance(c)))
        }
    };
    winner.copied()
}

/// Round-robin rotation over the ports present in one contender set: the
/// modulus is the highest contending port + 1 (not the node's port count),
/// computed once per decision.
struct RoundRobin {
    n: usize,
    start: usize,
}

impl RoundRobin {
    fn new(contenders: &[Contender], cursor: usize) -> Self {
        let n = contenders.iter().map(|c| c.port).max().unwrap_or(0) + 1;
        RoundRobin {
            n,
            start: cursor % n,
        }
    }

    /// Distance from the cursor, so that ties rotate fairly:
    /// `(port - start) mod n`, without the division (both are below `n`).
    #[inline]
    fn distance(&self, c: &Contender) -> usize {
        if c.port >= self.start {
            c.port - self.start
        } else {
            c.port + self.n - self.start
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(port: usize, id: u64, prio: u8, urgent: bool) -> Contender {
        Contender {
            port,
            id: TransactionId::new(id),
            priority: Priority::new(prio),
            urgent,
        }
    }

    #[test]
    fn empty_yields_none() {
        assert_eq!(select(ArbiterKind::Fcfs, &[], 0), None);
    }

    #[test]
    fn fcfs_picks_oldest() {
        let heads = [c(0, 10, 7, true), c(1, 3, 0, false)];
        assert_eq!(select(ArbiterKind::Fcfs, &heads, 0).unwrap().port, 1);
    }

    #[test]
    fn round_robin_rotates_with_cursor() {
        let heads = [c(0, 1, 0, false), c(1, 2, 0, false), c(2, 3, 0, false)];
        assert_eq!(select(ArbiterKind::RoundRobin, &heads, 0).unwrap().port, 0);
        assert_eq!(select(ArbiterKind::RoundRobin, &heads, 1).unwrap().port, 1);
        assert_eq!(select(ArbiterKind::RoundRobin, &heads, 2).unwrap().port, 2);
        assert_eq!(select(ArbiterKind::RoundRobin, &heads, 3).unwrap().port, 0);
    }

    #[test]
    fn round_robin_skips_empty_ports() {
        // Port 1 missing: cursor at 1 should pick the next present port (2).
        let heads = [c(0, 1, 0, false), c(2, 3, 0, false)];
        assert_eq!(select(ArbiterKind::RoundRobin, &heads, 1).unwrap().port, 2);
    }

    #[test]
    fn priority_beats_age() {
        let heads = [c(0, 1, 2, false), c(1, 50, 6, false)];
        assert_eq!(select(ArbiterKind::Priority, &heads, 0).unwrap().port, 1);
    }

    #[test]
    fn priority_tie_breaks_round_robin() {
        let heads = [c(0, 1, 4, false), c(1, 2, 4, false)];
        assert_eq!(select(ArbiterKind::Priority, &heads, 0).unwrap().port, 0);
        assert_eq!(select(ArbiterKind::Priority, &heads, 1).unwrap().port, 1);
    }

    #[test]
    fn frame_urgent_preempts_older_traffic() {
        let heads = [c(0, 1, 0, false), c(1, 99, 0, true)];
        assert_eq!(select(ArbiterKind::FrameUrgent, &heads, 0).unwrap().port, 1);
        // Without urgency it degrades to FCFS.
        let calm = [c(0, 1, 0, false), c(1, 99, 0, false)];
        assert_eq!(select(ArbiterKind::FrameUrgent, &calm, 0).unwrap().port, 0);
    }

    #[test]
    fn names() {
        assert_eq!(ArbiterKind::Priority.name(), "Priority");
        assert_eq!(ArbiterKind::default(), ArbiterKind::RoundRobin);
    }

    /// The selection rules spelled out port by port, including the quirk
    /// that the round-robin modulus is the highest *contending* port + 1.
    fn reference(kind: ArbiterKind, contenders: &[Contender], cursor: usize) -> Option<Contender> {
        let n = contenders.iter().map(|c| c.port).max()? + 1;
        let distance = |c: &Contender| (c.port + n - (cursor % n)) % n;
        let mut best: Option<Contender> = None;
        for c in contenders {
            let beats = |b: &Contender| match kind {
                ArbiterKind::Fcfs => c.id < b.id,
                ArbiterKind::RoundRobin => distance(c) < distance(b),
                ArbiterKind::FrameUrgent => (!c.urgent, c.id) < (!b.urgent, b.id),
                ArbiterKind::Priority => {
                    c.priority.as_u8() > b.priority.as_u8()
                        || (c.priority == b.priority && distance(c) < distance(b))
                }
            };
            if best.as_ref().is_none_or(beats) {
                best = Some(*c);
            }
        }
        best
    }

    #[test]
    fn select_matches_the_spelled_out_rules() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let kinds = [
            ArbiterKind::Fcfs,
            ArbiterKind::RoundRobin,
            ArbiterKind::FrameUrgent,
            ArbiterKind::Priority,
        ];
        let mut rng = StdRng::seed_from_u64(0x5e1e_c700);
        for case in 0..4000 {
            // A random subset of up to 24 ports, so ports are missing and
            // the highest contender is often below the node's port count.
            let ports = rng.gen_range(1usize..24);
            let mut heads = Vec::new();
            for port in 0..ports {
                if rng.gen_bool(0.6) {
                    let id = rng.gen_range(0u64..50) * 24 + port as u64;
                    heads.push(c(port, id, rng.gen_range(0u8..4), rng.gen_bool(0.3)));
                }
            }
            // Cursors run past the port count (take leaves `port + 1`).
            let cursor = rng.gen_range(0usize..30);
            for kind in kinds {
                assert_eq!(
                    select(kind, &heads, cursor),
                    reference(kind, &heads, cursor),
                    "case {case} {kind:?} cursor {cursor} heads {heads:?}"
                );
            }
        }
    }
}
