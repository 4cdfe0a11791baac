//! Physical address ↔ DRAM location mapping.
//!
//! The mapping determines how much bank/channel parallelism and row locality
//! a given traffic pattern enjoys, which is exactly what the paper's
//! row-buffer-hit experiments probe. Both interleavings slice
//! `row | rank | bank | col | channel | offset`: the channel bits sit right
//! above the burst offset so sequential streams stripe across channels
//! while still hitting open rows. The XOR-skewed variant additionally
//! hashes the channel bits with the row so wide (4+ channel) configs never
//! let a strided stream camp on one lane.

use core::fmt;

use sara_types::Addr;

use crate::config::DramConfig;

/// A fully decoded DRAM location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Location {
    /// Channel index.
    pub channel: usize,
    /// Rank index within the channel.
    pub rank: usize,
    /// Bank index within the rank.
    pub bank: usize,
    /// Row index within the bank.
    pub row: u32,
    /// Column-burst index within the row.
    pub col: u32,
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ch{}:r{}:b{}:row{}:col{}",
            self.channel, self.rank, self.bank, self.row, self.col
        )
    }
}

/// Bit-interleaving scheme for the address map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Interleave {
    /// `row | rank | bank | col | channel | offset` (LSB on the right).
    ///
    /// Channel interleaving at burst granularity; consecutive bursts in one
    /// channel walk the columns of an open row. Default; maximises both
    /// channel parallelism and row locality for sequential streams.
    #[default]
    RowRankBankColChan,
    /// `row | rank | bank | col | channel^row | offset`.
    ///
    /// Channel-skewed variant of the default map: the channel index is the
    /// raw channel bits XOR-hashed with the low row bits. Bit widths and the
    /// sequential row span match [`Interleave::RowRankBankColChan`], but
    /// strided patterns that would camp on one channel under the plain map
    /// rotate across all channels as the row advances. Used for the wide
    /// (4+ channel) catalog configs so every lane sees real work.
    RowRankBankColChanXor,
}

/// Maps physical byte addresses to DRAM locations and back.
///
/// # Examples
///
/// ```
/// use sara_dram::{AddressMap, DramConfig, Interleave};
/// use sara_types::Addr;
///
/// let map = AddressMap::new(&DramConfig::table1_1866(), Interleave::default());
/// let loc = map.decode(Addr::new(0x1234_5680));
/// let back = map.encode(loc);
/// // encode() returns the burst-aligned base of the decoded location
/// assert_eq!(back.as_u64(), 0x1234_5680 & !(128 - 1));
/// ```
#[derive(Debug, Clone)]
pub struct AddressMap {
    offset_bits: u32,
    chan_bits: u32,
    col_bits: u32,
    bank_bits: u32,
    rank_bits: u32,
    row_bits: u32,
    /// The low row bits XOR-ed into the channel: all channel bits under
    /// the skewed map, none under the plain one.
    skew_mask: u64,
    capacity_mask: u64,
}

impl AddressMap {
    /// Creates a map for `cfg` with the given interleaving.
    pub fn new(cfg: &DramConfig, scheme: Interleave) -> Self {
        let bits = |v: usize| v.trailing_zeros();
        let chan_bits = bits(cfg.channels());
        let skew_mask = match scheme {
            Interleave::RowRankBankColChan => 0,
            Interleave::RowRankBankColChanXor => (1u64 << chan_bits) - 1,
        };
        AddressMap {
            offset_bits: cfg.burst_bytes().trailing_zeros(),
            chan_bits,
            col_bits: bits(cfg.cols()),
            bank_bits: bits(cfg.banks()),
            rank_bits: bits(cfg.ranks()),
            row_bits: bits(cfg.rows()),
            skew_mask,
            capacity_mask: cfg.capacity_bytes() - 1,
        }
    }

    /// Decodes an address into its DRAM location.
    ///
    /// Addresses beyond the device capacity wrap (the simulator's traffic
    /// generators treat the address space as toroidal).
    pub fn decode(&self, addr: Addr) -> Location {
        let a = addr.as_u64() & self.capacity_mask;
        let mut bits = a >> self.offset_bits;
        let mut take = |n: u32| {
            let v = bits & ((1u64 << n) - 1);
            bits >>= n;
            v
        };
        let raw_chan = take(self.chan_bits);
        let col = take(self.col_bits) as u32;
        let bank = take(self.bank_bits) as usize;
        let rank = take(self.rank_bits) as usize;
        let row = take(self.row_bits) as u32;
        Location {
            channel: (raw_chan ^ (row as u64 & self.skew_mask)) as usize,
            rank,
            bank,
            row,
            col,
        }
    }

    /// Re-encodes a location into the burst-aligned base address.
    pub fn encode(&self, loc: Location) -> Addr {
        let mut bits: u64 = 0;
        let mut shift = 0u32;
        let mut put = |v: u64, n: u32| {
            bits |= (v & ((1u64 << n) - 1)) << shift;
            shift += n;
        };
        // The raw channel slot stores channel ^ (row & skew_mask), which
        // inverts the skew because row is stored untouched.
        put(
            loc.channel as u64 ^ (loc.row as u64 & self.skew_mask),
            self.chan_bits,
        );
        put(loc.col as u64, self.col_bits);
        put(loc.bank as u64, self.bank_bits);
        put(loc.rank as u64, self.rank_bits);
        put(loc.row as u64, self.row_bits);
        Addr::new(bits << self.offset_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn map(scheme: Interleave) -> AddressMap {
        AddressMap::new(&DramConfig::table1_1866(), scheme)
    }

    #[test]
    fn sequential_bursts_alternate_channels() {
        let m = map(Interleave::default());
        let a = m.decode(Addr::new(0));
        let b = m.decode(Addr::new(128));
        assert_eq!(a.channel, 0);
        assert_eq!(b.channel, 1);
        // Burst 2 returns to channel 0, next column.
        let c = m.decode(Addr::new(256));
        assert_eq!(c.channel, 0);
        assert_eq!(c.col, a.col + 1);
        assert_eq!(c.row, a.row);
    }

    #[test]
    fn sequential_stream_stays_in_row_for_span() {
        let m = map(Interleave::default());
        let span = 128 * 2 * 16; // burst * channels * cols
        let first = m.decode(Addr::new(0));
        let last = m.decode(Addr::new(span - 128));
        assert_eq!(first.row, last.row);
        assert_eq!(first.bank, last.bank);
        let next = m.decode(Addr::new(span));
        assert_ne!(
            (next.row, next.bank),
            (first.row, first.bank),
            "crossing the span must leave the row"
        );
    }

    #[test]
    fn addresses_wrap_at_capacity() {
        let m = map(Interleave::default());
        let cap = DramConfig::table1_1866().capacity_bytes();
        assert_eq!(m.decode(Addr::new(0x80)), m.decode(Addr::new(cap + 0x80)));
    }

    #[test]
    fn decode_encode_roundtrip_default() {
        let mut rng = StdRng::seed_from_u64(0xadd2_0001);
        let m = map(Interleave::default());
        for _ in 0..512 {
            let addr = rng.gen_range(0u64..(2u64 << 30));
            let aligned = addr & !127;
            let loc = m.decode(Addr::new(addr));
            assert_eq!(m.encode(loc).as_u64(), aligned);
        }
    }

    #[test]
    fn decoded_fields_in_range() {
        let mut rng = StdRng::seed_from_u64(0xadd2_0003);
        let m = map(Interleave::default());
        for _ in 0..512 {
            let addr = rng.next_u64();
            let loc = m.decode(Addr::new(addr));
            assert!(loc.channel < 2);
            assert!(loc.rank < 2);
            assert!(loc.bank < 8);
            assert!((loc.row as usize) < 32 * 1024);
            assert!((loc.col as usize) < 16);
        }
    }

    fn map_for(channels: usize, scheme: Interleave) -> AddressMap {
        let cfg = DramConfig::table1_1866().with_channels(channels).unwrap();
        AddressMap::new(&cfg, scheme)
    }

    fn wide_map(channels: usize) -> AddressMap {
        map_for(channels, Interleave::RowRankBankColChanXor)
    }

    #[test]
    fn xor_skew_rotates_channel_assignment_across_rows() {
        let m = wide_map(4);
        // Next row, same low bits: span covers col+chan, then 8 banks x 2
        // ranks sit between the column bits and the row bits.
        let row_stride = (128 * 4 * 16) * 8 * 2;
        let a = m.decode(Addr::new(0));
        let b = m.decode(Addr::new(row_stride));
        assert_eq!(b.row, a.row + 1);
        assert_ne!(a.channel, b.channel);
    }

    #[test]
    fn xor_skew_roundtrips_at_4_and_8_channels() {
        let mut rng = StdRng::seed_from_u64(0xadd2_0004);
        for channels in [4usize, 8] {
            let m = wide_map(channels);
            for _ in 0..512 {
                let addr = rng.gen_range(0u64..(8u64 << 30));
                let aligned = addr & !127;
                let loc = m.decode(Addr::new(addr));
                assert_eq!(m.encode(loc).as_u64(), aligned & m.capacity_mask);
            }
        }
    }

    #[test]
    fn xor_skew_never_yields_out_of_range_channels() {
        let mut rng = StdRng::seed_from_u64(0xadd2_0005);
        for channels in [2usize, 4, 8, 16] {
            let m = wide_map(channels);
            let mut seen = vec![false; channels];
            for _ in 0..4096 {
                let loc = m.decode(Addr::new(rng.next_u64()));
                assert!(
                    loc.channel < channels,
                    "channel {} out of range",
                    loc.channel
                );
                seen[loc.channel] = true;
            }
            assert!(seen.iter().all(|&s| s), "every channel should be reachable");
        }
    }

    /// The map spelled out field by field: `row | rank | bank | col | chan |
    /// offset` over Table 1's 128 B bursts, 16 columns, 8 banks, 2 ranks and
    /// 32 Ki rows, with the channel XOR-ed with the low row bits when
    /// `skew` is set. Returns the expected location and burst-aligned
    /// address.
    fn oracle(addr: u64, channels: u64, skew: bool) -> (Location, u64) {
        let capacity = channels * 2 * 8 * 32 * 1024 * 2048;
        let a = addr % capacity;
        let burst = a / 128;
        let raw_chan = burst % channels;
        let col = (burst / channels) % 16;
        let bank = (burst / channels / 16) % 8;
        let rank = (burst / channels / 16 / 8) % 2;
        let row = burst / channels / 16 / 8 / 2;
        let channel = if skew {
            raw_chan ^ (row % channels)
        } else {
            raw_chan
        };
        let loc = Location {
            channel: channel as usize,
            rank: rank as usize,
            bank: bank as usize,
            row: row as u32,
            col: col as u32,
        };
        (loc, a / 128 * 128)
    }

    #[test]
    fn decode_and_encode_match_the_spelled_out_bit_layout() {
        let mut rng = StdRng::seed_from_u64(0xadd2_0006);
        for channels in [1usize, 2, 4, 8, 16] {
            for scheme in [Interleave::default(), Interleave::RowRankBankColChanXor] {
                let m = map_for(channels, scheme);
                let skew = scheme == Interleave::RowRankBankColChanXor;
                for _ in 0..4096 {
                    let addr = rng.next_u64();
                    let (loc, aligned) = oracle(addr, channels as u64, skew);
                    assert_eq!(
                        m.decode(Addr::new(addr)),
                        loc,
                        "{channels} ch {scheme:?} {addr:#x}"
                    );
                    assert_eq!(
                        m.encode(loc).as_u64(),
                        aligned,
                        "{channels} ch {scheme:?} {loc}"
                    );
                }
            }
        }
    }

    #[test]
    fn xor_skew_preserves_sequential_row_span() {
        let m = wide_map(4);
        let span = 128 * 4 * 16; // burst * channels * cols
        let first = m.decode(Addr::new(0));
        let last = m.decode(Addr::new(span - 128));
        assert_eq!((first.row, first.bank), (last.row, last.bank));
        let next = m.decode(Addr::new(span));
        assert_ne!((next.row, next.bank), (first.row, first.bank));
    }
}
