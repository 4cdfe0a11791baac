//! The one arbitration order of the memory path. §3.3 asks routers and the
//! memory controller to apply the same priority discipline, since an
//! interconnect with a different policy undoes the controller's guarantees:
//! a NoC node and a channel controller each say per policy what a
//! contender's *level* and round-robin *turn* are, and both take the
//! [`least`] [`Rank`]. Turns come from one [`Rotation`]; aging is
//! [`aged_level`].
//!
//! ```
//! use sara_types::arbitration::{aged_level, least, Rank, Rotation};
//! let ports = Rotation::new(6, 4); // port 2 has the first turn
//! assert_eq!([0, 1, 2, 3].map(|p| ports.turn(p)), [2, 3, 0, 1]);
//! let aged = aged_level(sara_types::Priority::new(3), 600, Some(600));
//! let ranks = [Rank::new(7, ports.turn(2), 0), Rank::new(aged, ports.turn(0), 9)];
//! assert_eq!(least(ranks), Some(1)); // an aged level outranks every stamp
//! ```

use crate::Priority;

/// A contender's place in the arbitration order; the least rank wins.
///
/// A higher level wins; between equal levels, the shorter turn from the
/// round-robin cursor; then the lower sequence number (the older
/// transaction). The three keys are packed into one `u128`, so a decision
/// compares one integer per contender.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Rank(u128);

impl Rank {
    /// After every rank [`Rank::new`] builds: [`least`] never picks it, so
    /// it drops a contender out of a decision.
    pub const NONE: Rank = Rank(u128::MAX);

    /// The rank of a contender at `level` (higher is more urgent), `turn`
    /// places after the cursor, with sequence number `seq`.
    #[inline]
    pub fn new(level: u8, turn: u32, seq: u64) -> Rank {
        Rank(u128::from(!level) << 96 | u128::from(turn) << 64 | u128::from(seq))
    }
}

/// The position of the least of `ranks` (the first of equals), or `None`
/// if there are none.
#[inline]
pub fn least(ranks: impl IntoIterator<Item = Rank>) -> Option<usize> {
    let (mut best, mut best_rank) = (usize::MAX, Rank::NONE);
    for (i, r) in ranks.into_iter().enumerate() {
        if r < best_rank {
            // A new leader is rare after the first few: a predicted branch
            // beats a conditional move chained through every contender.
            core::hint::cold_path();
            (best, best_rank) = (i, r);
        }
    }
    (best != usize::MAX).then_some(best)
}

/// One round-robin rotation: positions `0..len`, with `cursor`'s position
/// (reduced modulo `len` once, here) taking the first turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rotation {
    len: usize,
    start: usize,
}

impl Rotation {
    /// The rotation over `len` positions starting at `cursor % len`
    /// (panics if `len` is zero).
    #[inline]
    pub fn new(cursor: usize, len: usize) -> Rotation {
        debug_assert!(u32::try_from(len).is_ok(), "a turn must fit a Rank");
        Rotation {
            len,
            start: cursor % len,
        }
    }

    /// How many turns `position` (below `len`) waits after the cursor's:
    /// `(position - start) mod len`, without a division or a branch.
    #[inline]
    pub fn turn(&self, position: usize) -> u32 {
        let ahead = position.wrapping_sub(self.start);
        // Behind the start, `ahead` wrapped and adding `len` brings it back.
        ahead.min(ahead.wrapping_add(self.len)) as u32
    }
}

/// The level a transaction stamped `stamp` competes at after waiting
/// `waited` cycles: past `threshold` it is promoted to `u8::MAX`, above
/// every stampable level, so aged backlog drains first (§3.3 starvation clearing). Best-effort
/// traffic (stamp 0) has no target to protect and never ages; no threshold
/// means no aging.
#[inline]
pub fn aged_level(stamp: Priority, waited: u64, threshold: Option<u64>) -> u8 {
    if stamp.as_u8() > 0 && threshold.is_some_and(|t| waited >= t) {
        u8::MAX
    } else {
        stamp.as_u8()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn rank_orders_like_the_spelled_out_tuple() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xa4b1);
        let draw = |rng: &mut rand::rngs::StdRng| {
            let level = [0, 1, 7, 15, u8::MAX][rng.gen_range(0usize..5)];
            let turn = [0, 1, 4, 65_535, u32::MAX][rng.gen_range(0usize..5)];
            let seq = [0, 1, 60, u64::MAX][rng.gen_range(0usize..4)];
            (level, turn, seq)
        };
        for _ in 0..4000 {
            let (a, b) = (draw(&mut rng), draw(&mut rng));
            let spelled = |(l, t, s): (u8, u32, u64)| (core::cmp::Reverse(l), t, s);
            assert_eq!(
                Rank::new(a.0, a.1, a.2).cmp(&Rank::new(b.0, b.1, b.2)),
                spelled(a).cmp(&spelled(b)),
                "{a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn least_picks_the_first_of_equals_and_never_none() {
        let r = |seq| Rank::new(1, 0, seq);
        assert_eq!(least([]), None);
        assert_eq!(least([Rank::NONE, Rank::NONE]), None);
        assert_eq!(least([r(5), r(3), Rank::NONE, r(3), r(4)]), Some(1));
        assert_eq!(
            least([Rank::NONE, Rank::new(0, u32::MAX, u64::MAX)]),
            Some(1)
        );
    }

    #[test]
    fn turn_is_the_distance_mod_len() {
        for len in [1usize, 2, 5, 24, 1 << 16] {
            for cursor in [0, 1, 4, 5, 29, 65_535, 65_536, usize::MAX] {
                let rotation = Rotation::new(cursor, len);
                for position in [0, 1, len / 2, len - 1].into_iter().filter(|&p| p < len) {
                    let expected = (position + len - cursor % len) % len;
                    assert_eq!(rotation.turn(position) as usize, expected, "{len} {cursor}");
                }
            }
        }
    }

    #[test]
    fn aging_promotes_stamped_levels_only() {
        let p = Priority::new;
        assert_eq!(aged_level(p(7), 10, None), 7);
        assert_eq!(aged_level(p(1), 10, Some(10)), u8::MAX);
        assert_eq!(aged_level(p(1), 9, Some(10)), 1);
        assert_eq!(aged_level(p(0), u64::MAX, Some(1)), 0);
    }
}
