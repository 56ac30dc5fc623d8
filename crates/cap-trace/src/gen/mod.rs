//! Synthetic workload generators.
//!
//! Each generator reproduces one of the load-address pattern classes the
//! paper analyses in Section 2 (and the classes its related work covers):
//!
//! | Generator | Pattern class | Paper reference |
//! |---|---|---|
//! | [`linked_list::LinkedListWorkload`] | short recurring RDS walk | §2.1, Fig. 1 |
//! | [`linked_list::DoublyLinkedListWorkload`] | RDS needing history 2 | §3.2, Fig. 2 |
//! | [`tree::BinaryTreeWorkload`] | recurring tree paths | §2.1 |
//! | [`call_site::CallSiteWorkload`] | control-correlated loads | §2.2 |
//! | [`globals::GlobalsWorkload`] | constant addresses (globals) | §1 |
//! | [`array::ArrayWorkload`] | stride with wrap (interval) | §1, §5.2 |
//! | [`matrix::MatrixWorkload`] | long strides, CAP-defeating | §4.2 (MM suite) |
//! | [`stack::StackWorkload`] | recurring stack frames | §4.2 (JAV suite) |
//! | [`hash::HashWorkload`] | semi-regular hash probing | §3.3 |
//! | [`random::RandomWorkload`] | irregular / polluting loads | §3.5 |
//! | [`mix::MixWorkload`] | weighted interleaving | §4.1 suite composition |

pub mod array;
pub mod call_site;
pub mod globals;
pub mod hash;
pub mod linked_list;
pub mod matrix;
pub mod mix;
pub mod random;
pub mod stack;
pub mod tree;

use crate::builder::TraceBuilder;
use cap_rand::rngs::StdRng;

/// A stateful trace generator.
///
/// Generators keep their data structures (heaps, lists, cursors) across
/// calls, so a [`mix::MixWorkload`] can interleave blocks from several
/// generators and each continues its own pattern — exactly how distinct
/// program phases interleave in a real trace.
pub trait Workload: std::fmt::Debug {
    /// Emits events until *at least* `loads` dynamic loads have been
    /// produced by this call (generators finish their current structural
    /// unit, e.g. a full list traversal, so slight overshoot is expected).
    fn emit(&mut self, builder: &mut TraceBuilder, rng: &mut StdRng, loads: usize);
}

/// Disjoint code/heap/register resources for one workload instance.
///
/// Keeping seats disjoint guarantees interleaved workloads never alias
/// static IPs, heap regions, or architectural registers.
#[derive(Debug, Clone, Copy)]
pub struct Seat {
    /// Base of the workload's static code region.
    pub ip_base: u64,
    /// Base of the workload's heap region.
    pub heap_base: u64,
    /// First architectural register in the workload's palette.
    pub reg_base: u8,
    /// Number of registers in the palette.
    pub reg_count: u8,
}

/// Hands out disjoint [`Seat`]s.
///
/// # Examples
///
/// ```
/// use cap_trace::gen::SeatAllocator;
/// let mut seats = SeatAllocator::new();
/// let a = seats.next_seat();
/// let b = seats.next_seat();
/// assert_ne!(a.ip_base, b.ip_base);
/// assert_ne!(a.heap_base, b.heap_base);
/// ```
#[derive(Debug, Clone)]
pub struct SeatAllocator {
    index: u64,
}

impl SeatAllocator {
    const IP_REGION: u64 = 1 << 20; // 1 MiB of code per seat
    const HEAP_REGION: u64 = 1 << 28; // 256 MiB of heap per seat
    const IP_FLOOR: u64 = 0x0040_0000;
    const HEAP_FLOOR: u64 = 0x1000_0000;
    /// Registers per seat; palettes cycle through the register file while
    /// staying clear of the low 8 registers (reserved for glue code).
    const REGS_PER_SEAT: u8 = 4;
    const REG_FLOOR: u8 = 8;

    /// Creates a fresh allocator.
    #[must_use]
    pub fn new() -> Self {
        Self { index: 0 }
    }

    /// Allocates the next disjoint seat.
    ///
    /// Code bases are salted with a per-seat hash so that seats do not all
    /// start at the same large power-of-two boundary — real text segments
    /// place functions at effectively arbitrary low-order offsets, and
    /// without the salt every workload's loads would alias into the same
    /// few sets of any IP-indexed table.
    pub fn next_seat(&mut self) -> Seat {
        let i = self.index;
        self.index += 1;
        let reg_slots = (crate::RegId::COUNT as u8 - Self::REG_FLOOR) / Self::REGS_PER_SEAT;
        let salt = (splitmix(i) & 0x7FFF) * 4; // < 128 KiB, inside the region
        Seat {
            ip_base: Self::IP_FLOOR + i * Self::IP_REGION + salt,
            heap_base: Self::HEAP_FLOOR + i * Self::HEAP_REGION,
            reg_base: Self::REG_FLOOR + (i as u8 % reg_slots) * Self::REGS_PER_SEAT,
            reg_count: Self::REGS_PER_SEAT,
        }
    }
}

/// A deterministic 64-bit mixer (splitmix64 finaliser), used for seat
/// salting and for synthesising stable per-object data values.
pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Default for SeatAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl Seat {
    /// The `n`-th register of this seat's palette.
    ///
    /// # Panics
    ///
    /// Panics if `n >= self.reg_count`.
    #[must_use]
    pub fn reg(&self, n: u8) -> crate::RegId {
        assert!(n < self.reg_count, "register palette exhausted");
        crate::RegId::new(self.reg_base + n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seats_are_disjoint_in_code_and_heap() {
        let mut alloc = SeatAllocator::new();
        let seats: Vec<Seat> = (0..16).map(|_| alloc.next_seat()).collect();
        for (i, a) in seats.iter().enumerate() {
            for b in &seats[i + 1..] {
                assert!(
                    a.ip_base.abs_diff(b.ip_base) >= SeatAllocator::IP_REGION / 2,
                    "code regions overlap"
                );
                assert!(
                    a.heap_base.abs_diff(b.heap_base) >= SeatAllocator::HEAP_REGION,
                    "heap regions overlap"
                );
            }
        }
    }

    #[test]
    fn seat_code_bases_spread_across_low_bits() {
        // The salt must decorrelate the low IP bits used by IP-indexed
        // tables (e.g. a 2048-set Load Buffer).
        let mut alloc = SeatAllocator::new();
        let sets: std::collections::BTreeSet<u64> = (0..64)
            .map(|_| (alloc.next_seat().ip_base >> 2) & 2047)
            .collect();
        assert!(
            sets.len() > 48,
            "seat bases must spread over sets, got {}",
            sets.len()
        );
    }

    #[test]
    fn seat_registers_stay_in_range() {
        let mut alloc = SeatAllocator::new();
        for _ in 0..100 {
            let seat = alloc.next_seat();
            for n in 0..seat.reg_count {
                let r = seat.reg(n);
                assert!(r.index() >= 8);
                assert!(r.index() < crate::RegId::COUNT);
            }
        }
    }

    #[test]
    #[should_panic(expected = "palette exhausted")]
    fn seat_reg_out_of_palette_panics() {
        let mut alloc = SeatAllocator::new();
        let seat = alloc.next_seat();
        let _ = seat.reg(seat.reg_count);
    }
}
