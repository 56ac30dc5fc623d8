//! Per-cycle resource capacity tracking for the timestamp-based core.
//!
//! The timing model assigns each instruction timestamps (fetch, dispatch,
//! issue, complete, commit) subject to structural limits: fetch width,
//! dispatch width, functional units, cache ports, commit width. Each
//! limit answers "what is the first cycle at or after `t` with a free
//! slot?" and books it. It comes in two kinds:
//!
//! * An in-order stage (fetch, dispatch, commit) never receives a request
//!   below its previous one, so its first fit lies at its latest booked
//!   cycle or later. [`InOrderSlots`] keeps only that cycle and its count.
//! * An out-of-order resource (the ALUs, the cache ports) receives
//!   requests in any order. [`SlotTracker`] keeps a first-fit window from
//!   a retire frontier, below which requests are floored.
//!
//! A [`SlotTracker`]'s bookings live in a dense window of per-cycle counts
//! that starts at the retire frontier, so a probe is an index, not a hash
//! lookup. The window spans the cycles from the frontier to the latest
//! booking. In the core that is the distance from the dispatch cycle of
//! the last prune point (every 8 192 instructions) to the latest ALU or
//! port booking, which precedes that instruction's commit. One
//! instruction moves the latest commit by at most `frontend + redirect +
//! agen + replay` plus its longest latency (memory, or a 20-cycle divide),
//! 87 cycles at the paper's values, plus spills past full cycles. A window
//! therefore stays below about `8192 + rob_entries` times that sum: 0.72 M
//! cycles (2.8 MiB of counts) at the paper's values.

use std::collections::VecDeque;

/// Books up to `width` events per cycle for an out-of-order resource, one
/// whose requests arrive in any order.
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

/// Books up to `width` events per cycle for an in-order stage: one whose
/// requests never decrease.
///
/// With requests that never decrease, every cycle from the latest request
/// up to the latest booked cycle is full: a booking at `c` for a request
/// `r` found `r..c` full, and the next request is at least `r`. So a
/// first-fit booking lands in the latest booked cycle while it has a free
/// slot, in the next one once it is full, or at the request if that lies
/// later. The stage keeps only that cycle and its count, so a booking
/// takes O(1) and there is no window to prune. It books exactly where a
/// [`SlotTracker`] given the same requests does.
///
/// In [`crate::core::OooCore`] fetch, dispatch and commit are in-order
/// stages. None of them needs the floor that pruning a [`SlotTracker`]
/// at the core's prune points (every 8 192 instructions) would raise;
/// such a floor never changes a simulated cycle:
///
/// * **Fetch** asks for `redirect_time`, a running max. A prune would set
///   the floor to the current fetch cycle. Every cycle between an older
///   `redirect_time` and that cycle is already full, so the floor never
///   binds.
/// * **Commit** asks for `complete.max(last_commit)`. Every later request
///   is at least its `complete`, and that is at least the dispatch cycle
///   at which commit would be pruned.
/// * **Dispatch** asks for `fetch + frontend_latency`. A prune would
///   raise its floor to the ROB-adjusted dispatch cycle. That floor sits
///   above later requests only while the ROB binds. Bookings would then
///   stack `width` per cycle from the floor. Commits are also `width`
///   wide, so they raise the ROB bound (`oldest`) at least as fast. The
///   core's final `dispatch.max(oldest)` is therefore the ROB bound
///   either way.
///
/// # Examples
///
/// ```
/// use cap_uarch::capacity::InOrderSlots;
/// let mut commit = InOrderSlots::new(2);
/// assert_eq!(commit.alloc(10), 10);
/// assert_eq!(commit.alloc(10), 10);
/// assert_eq!(commit.alloc(10), 11, "third commit spills to the next cycle");
/// assert_eq!(commit.alloc(20), 20, "a later request books at itself");
/// ```
#[derive(Debug, Clone)]
pub struct InOrderSlots {
    width: u32,
    /// The latest booked cycle; while `count` is 0, the floor of the next
    /// booking.
    cycle: u64,
    /// Slots booked in `cycle`.
    count: u32,
    /// The previous request, for the debug check that requests never
    /// decrease.
    last_request: u64,
}

impl InOrderSlots {
    /// Creates a stage with `width` slots per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    #[must_use]
    pub fn new(width: u32) -> Self {
        assert!(width > 0, "width must be positive");
        Self {
            width,
            cycle: 0,
            count: 0,
            last_request: 0,
        }
    }

    /// Books one slot at the first cycle `>= at` with spare capacity and
    /// returns that cycle. `at` must not be below the previous request.
    pub fn alloc(&mut self, at: u64) -> u64 {
        debug_assert!(
            at >= self.last_request,
            "in-order request {at} below the previous one, {}",
            self.last_request
        );
        self.last_request = at;
        if at > self.cycle {
            self.cycle = at;
            self.count = 1;
        } else if self.count < self.width {
            self.count += 1;
        } else {
            self.cycle += 1;
            self.count = 1;
        }
        self.cycle
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

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_stage_rejected() {
        let _ = InOrderSlots::new(0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "below the previous one")]
    fn in_order_requests_may_not_decrease() {
        let mut t = InOrderSlots::new(2);
        t.alloc(5);
        t.alloc(4);
    }
}
