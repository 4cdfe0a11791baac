//! The engine's global events and the list that orders them.

use sara_types::Cycle;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
    Inject(u16),
    Pump,
    /// A completed transaction's queue credit returns to the
    /// admission front-end (and the NoC gets a pump to exploit it). Kept
    /// as an event so a credit freed late in a lane window cannot be spent
    /// by a pump running at an earlier cycle of the same window — the
    /// class queues' capacities stay cycle-accurate.
    Release(u8),
    Deliver {
        dma: u16,
        bytes: u32,
        injected_at: Cycle,
        is_read: bool,
    },
    Sample,
}

/// The pending global events, sorted **latest first** so the next event is
/// the last element (see the engine module docs for the order rule and the
/// size bound). Stale `Inject`/`Pump` wake-ups stay in the list until they
/// pop and are ignored by `dispatch`.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    q: Vec<(Cycle, EventKind)>,
}

impl EventQueue {
    pub(crate) fn push(&mut self, at: Cycle, kind: EventKind) {
        // Insert below every entry at or before `at`: earlier pushes of the
        // same cycle stay nearer the end, so they pop first.
        let mut i = self.q.len();
        while i > 0 && self.q[i - 1].0 <= at {
            i -= 1;
        }
        self.q.insert(i, (at, kind));
    }

    /// Cycle of the next event.
    #[inline]
    pub(crate) fn peek(&self) -> Option<Cycle> {
        self.q.last().map(|&(at, _)| at)
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(Cycle, EventKind)> {
        self.q.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `EventQueue` pops in `(cycle, push order)` — what the binary heap
    /// with a sequence counter it replaced did, kept here as the reference —
    /// over scripts shaped like the engine's traffic: a third of the pushes
    /// on the cycle being drained, bursts of equal cycles, the completion
    /// and NoC deltas, a few far-future timers, nothing below the last pop.
    #[test]
    fn event_queue_pops_in_cycle_then_push_order() {
        use rand::{Rng, SeedableRng};
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        // The payload is carried in a `Deliver` so each event is distinct.
        let event = |payload: u32| EventKind::Deliver {
            dma: 0,
            bytes: payload,
            injected_at: Cycle::ZERO,
            is_read: false,
        };
        for seed in 0..64u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xe7e7_0000 + seed);
            let mut list = EventQueue::default();
            let mut heap: BinaryHeap<Reverse<(Cycle, u64, u32)>> = BinaryHeap::new();
            // Push counter: the heap's tie-break and each event's payload.
            let mut pushed = 0u32;
            let mut now = Cycle::ZERO;
            let mut popped = 0u32;
            for _ in 0..4000 {
                if rng.gen_bool(0.55) {
                    let delta = match rng.gen_range(0u8..12) {
                        0..=3 => 0,
                        4 | 5 => 2,
                        6 | 7 => 6,
                        8 => 10,
                        9 | 10 => 48,
                        _ => rng.gen_range(256u64..40_000),
                    };
                    // Bursts: a merge pushes several events of one cycle.
                    for _ in 0..rng.gen_range(1u8..4) {
                        list.push(now + delta, event(pushed));
                        heap.push(Reverse((now + delta, u64::from(pushed), pushed)));
                        pushed += 1;
                    }
                } else {
                    let expected = heap.pop().map(|Reverse((at, _, p))| (at, event(p)));
                    assert_eq!(list.peek(), expected.map(|(at, _)| at), "seed {seed}");
                    assert_eq!(list.pop(), expected, "seed {seed}");
                    if let Some((at, _)) = expected {
                        assert!(at >= now, "seed {seed}: popped below the last pop");
                        now = at;
                        popped += 1;
                    }
                }
            }
            while let Some(Reverse((at, _, p))) = heap.pop() {
                assert_eq!(list.pop(), Some((at, event(p))), "seed {seed}");
            }
            assert_eq!(list.pop(), None);
            assert!(popped > 1000, "seed {seed}: the script barely popped");
        }
    }
}
