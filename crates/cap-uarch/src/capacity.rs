//! Per-cycle resource capacity tracking for the timestamp-based core.
//!
//! The timing model assigns each instruction timestamps (fetch, dispatch,
//! issue, complete, commit) subject to structural limits: fetch width,
//! dispatch width, functional units, cache ports, commit width. A
//! [`SlotTracker`] answers "what is the first cycle at or after `t` with a
//! free slot?" and books it.
//!
//! Bookings live in a dense window of per-cycle counts that starts at the
//! retire frontier, so a probe is an index, not a hash lookup. The window
//! spans the cycles from the frontier to the latest booking. In the core
//! that is the distance from the dispatch cycle of the last prune point
//! (every 8 192 instructions) to the latest commit. One instruction moves
//! the latest commit by at most `frontend + redirect + agen + replay`
//! plus its longest latency (memory, or a 20-cycle divide), 87 cycles at
//! the paper's values, plus spills past full cycles. A window therefore
//! stays below about `8192 + rob_entries` times that sum:
//!
//! * 0.72 M cycles (2.8 MiB of counts) at the paper's values;
//! * 10.6 M cycles (41 MiB) with a 128-entry ROB and every latency at the
//!   256-cycle restore ceiling ([`crate::hierarchy::LatencyConfig`]).
//!
//! A restore rejects any booking `2^24` or more cycles above the frontier
//! before it allocates, so a restored window holds at most 64 MiB.

use std::collections::VecDeque;

/// Books up to `width` events per cycle.
///
/// Memory is proportional to the span between the retire frontier and
/// the latest booking (see the module docs), not to the number of
/// bookings.
///
/// # Examples
///
/// ```
/// use cap_uarch::capacity::SlotTracker;
/// let mut ports = SlotTracker::new(2);
/// assert_eq!(ports.alloc(10), 10);
/// assert_eq!(ports.alloc(10), 10);
/// assert_eq!(ports.alloc(10), 11, "third access spills to the next cycle");
/// ```
#[derive(Debug, Clone)]
pub struct SlotTracker {
    width: u32,
    /// Booking counts of cycles `frontier..frontier + used.len()`.
    used: VecDeque<u32>,
    /// Cycles below this bound can no longer be requested (program order
    /// guarantees monotone dispatch); the window starts here.
    frontier: u64,
}

impl SlotTracker {
    /// Restore ceiling: a booking must lie fewer than this many cycles
    /// above the frontier.
    const MAX_SPAN: u64 = 1 << 24;

    /// Creates a tracker with `width` slots per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    #[must_use]
    pub fn new(width: u32) -> Self {
        assert!(width > 0, "width must be positive");
        Self {
            width,
            used: VecDeque::new(),
            frontier: 0,
        }
    }

    /// Books one slot at the first cycle `>= at` with spare capacity and
    /// returns that cycle.
    pub fn alloc(&mut self, at: u64) -> u64 {
        let mut i = (at.max(self.frontier) - self.frontier) as usize;
        loop {
            match self.used.get_mut(i) {
                Some(n) if *n >= self.width => i += 1,
                Some(n) => {
                    *n += 1;
                    break;
                }
                None => {
                    self.used.resize(i, 0);
                    self.used.push_back(1);
                    break;
                }
            }
        }
        self.frontier + i as u64
    }

    /// Declares that no future request will target a cycle below `bound`,
    /// discarding the bookings below it.
    pub fn retire_below(&mut self, bound: u64) {
        if bound > self.frontier {
            let stale = (bound - self.frontier).min(self.used.len() as u64);
            self.used.drain(..stale as usize);
            self.frontier = bound;
        }
    }

    /// The tracker's per-cycle width.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }
}

use cap_snapshot::{Restorable, SectionReader, SectionWriter, Snapshot, SnapshotError};

impl Snapshot for SlotTracker {
    fn write_state(&self, w: &mut SectionWriter) {
        w.put_u32(self.width);
        w.put_u64(self.frontier);
        // Booked cycles only, in cycle order.
        let booked = || self.used.iter().enumerate().filter(|&(_, &n)| n > 0);
        w.put_len(booked().count());
        for (i, &used) in booked() {
            w.put_u64(self.frontier + i as u64);
            w.put_u32(used);
        }
    }
}

impl Restorable for SlotTracker {
    fn read_state(r: &mut SectionReader<'_>) -> Result<Self, SnapshotError> {
        let width = r.take_u32("slot tracker width")?;
        if width == 0 {
            return Err(r.bad_value("slot tracker width is zero".to_string()));
        }
        let frontier = r.take_u64("slot tracker frontier")?;
        let len = r.take_len(12, "slot tracker booking count")?;
        let mut used = VecDeque::new();
        for _ in 0..len {
            let cycle = r.take_u64("slot tracker cycle")?;
            let count = r.take_u32("slot tracker booking")?;
            if count > width {
                return Err(r.bad_value(format!(
                    "slot tracker books {count} at cycle {cycle}, above width {width}"
                )));
            }
            // Below the frontier a booking can never be read again.
            let Some(offset) = cycle.checked_sub(frontier) else {
                continue;
            };
            if offset >= Self::MAX_SPAN {
                return Err(r.bad_value(format!(
                    "slot tracker booking at cycle {cycle} is {offset} cycles above \
                     frontier {frontier} (limit {})",
                    Self::MAX_SPAN
                )));
            }
            let i = offset as usize;
            if i >= used.len() {
                used.resize(i + 1, 0);
            }
            used[i] = count;
        }
        Ok(Self {
            width,
            used,
            frontier,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialises_beyond_width() {
        let mut t = SlotTracker::new(3);
        let cycles: Vec<u64> = (0..7).map(|_| t.alloc(5)).collect();
        assert_eq!(cycles, vec![5, 5, 5, 6, 6, 6, 7]);
    }

    #[test]
    fn later_requests_unaffected_by_earlier_bookings() {
        let mut t = SlotTracker::new(1);
        assert_eq!(t.alloc(3), 3);
        assert_eq!(t.alloc(10), 10);
        assert_eq!(t.alloc(3), 4);
    }

    #[test]
    fn frontier_floors_requests() {
        let mut t = SlotTracker::new(1);
        t.retire_below(100);
        assert_eq!(t.alloc(5), 100);
    }

    #[test]
    fn pruning_preserves_behaviour_above_frontier() {
        let mut t = SlotTracker::new(1);
        for i in 0..((1u64 << 16) + 10) {
            t.alloc(i);
        }
        t.alloc(2_000_000);
        t.retire_below(1_000_000);
        assert_eq!(t.alloc(2_000_000), 2_000_001, "booking above frontier kept");
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_rejected() {
        let _ = SlotTracker::new(0);
    }
}
