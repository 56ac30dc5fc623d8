//! Stride-based array workloads, with wrap-around restarts.
//!
//! The bread and butter of stride predictors: a load sweeping a linear
//! array. The interesting part for the paper is the *wrap*: every time the
//! sweep restarts, a plain stride predictor mispredicts, which is what the
//! enhanced stride predictor's **interval** mechanism (record the array
//! length, stop speculating past it) is designed to avoid. Short arrays also
//! fit in the Link Table, letting CAP learn the wrap itself — the
//! "unstable stride-like behaviour" of the paper's JAVA inner-loop example.

use super::{Seat, Workload};
use crate::builder::{IpAllocator, TraceBuilder};
use crate::record::OpLatency;
use cap_rand::rngs::StdRng;
use cap_rand::Rng;

/// One array traversed by the workload.
#[derive(Debug, Clone)]
pub struct ArraySpec {
    /// Number of elements per sweep (the paper's "interval").
    pub len: usize,
    /// Element size in bytes (the stride).
    pub elem_size: u64,
    /// Field offsets loaded per element (arrays of structs share bases).
    pub field_offsets: Vec<i32>,
}

impl Default for ArraySpec {
    fn default() -> Self {
        Self {
            len: 64,
            elem_size: 8,
            field_offsets: vec![0],
        }
    }
}

/// Configuration for [`ArrayWorkload`].
#[derive(Debug, Clone)]
pub struct ArrayConfig {
    /// The arrays; sweeps rotate round-robin across them.
    pub arrays: Vec<ArraySpec>,
    /// Probability (percent) that a sweep skips one element mid-stream —
    /// the "single wrong stride" case §5.2 says the catch-up handles.
    pub skip_percent: u32,
}

impl Default for ArrayConfig {
    fn default() -> Self {
        Self {
            arrays: vec![ArraySpec::default()],
            skip_percent: 0,
        }
    }
}

/// Linear sweeps over one or more arrays.
///
/// Emission is element-granular: `emit` stops as soon as the load budget is
/// met and the next call resumes mid-sweep, so a long array interleaves
/// fairly with other workloads in a mix instead of monopolising the trace
/// one sweep at a time.
#[derive(Debug)]
pub struct ArrayWorkload {
    config: ArrayConfig,
    seat: Seat,
    bases: Vec<u64>,
    /// Per-array static IPs: one load per field, a consuming ALU op, and
    /// the loop branch.
    code: Vec<(Vec<u64>, u64, u64)>,
    next_array: usize,
    /// Position within the in-progress sweep of `next_array`.
    cursor: usize,
    /// Element index skipped in the in-progress sweep, if any.
    skip_at: Option<usize>,
    /// Completed sweeps; element values churn with it (the loop body
    /// updates the array between traversals).
    sweeps: u64,
}

impl ArrayWorkload {
    /// Builds the workload.
    ///
    /// # Panics
    ///
    /// Panics if there are no arrays or an array has no fields / zero length.
    #[must_use]
    pub fn new(config: ArrayConfig, seat: Seat, _rng: &mut StdRng) -> Self {
        assert!(!config.arrays.is_empty(), "need at least one array");
        for a in &config.arrays {
            assert!(a.len > 0, "array length must be positive");
            assert!(
                !a.field_offsets.is_empty(),
                "array needs at least one field"
            );
        }
        let mut ips = IpAllocator::new(seat.ip_base);
        let mut bases = Vec::new();
        let mut code = Vec::new();
        let mut heap_cursor = seat.heap_base;
        for a in &config.arrays {
            bases.push(heap_cursor);
            // Leave a gap after each array so arrays never overlap.
            heap_cursor += (a.len as u64 + 16) * a.elem_size.max(1) + 4096;
            let loads = ips.code_block(a.field_offsets.len());
            let use_op = ips.next_ip();
            let branch = ips.next_ip();
            ips.gap(8);
            code.push((loads, use_op, branch));
        }
        Self {
            config,
            seat,
            bases,
            code,
            next_array: 0,
            cursor: 0,
            skip_at: None,
            sweeps: 0,
        }
    }

    /// Emits one element of the in-progress sweep; returns loads emitted.
    fn step(&mut self, b: &mut TraceBuilder, rng: &mut StdRng) -> usize {
        let idx = self.next_array;
        let spec = self.config.arrays[idx].clone();
        let base = self.bases[idx];
        let (load_ips, use_ip, branch_ip) = self.code[idx].clone();
        let idx_reg = self.seat.reg(0);
        let val_reg = self.seat.reg(1);
        let acc = self.seat.reg(2);
        if self.cursor == 0 {
            // New sweep: draw the skip position, if any.
            self.skip_at = if self.config.skip_percent > 0
                && rng.gen_range(0..100) < self.config.skip_percent
            {
                Some(rng.gen_range(1..spec.len.max(2)))
            } else {
                None
            };
        }
        if Some(self.cursor) == self.skip_at {
            self.cursor += 1; // skip one element: a single wrong stride
        }
        let mut loads = 0;
        if self.cursor < spec.len {
            let elem = base + (self.cursor as u64) * spec.elem_size;
            for (f, &off) in spec.field_offsets.iter().enumerate() {
                let ea = elem.wrapping_add(off as i64 as u64);
                b.load_val(
                    load_ips[f],
                    ea,
                    off,
                    crate::gen::splitmix(ea ^ self.sweeps.rotate_left(32)),
                    Some(val_reg),
                    Some(idx_reg),
                );
                loads += 1;
            }
            // Consume the loaded value, as the loop body would.
            b.op(
                use_ip,
                OpLatency::Alu,
                Some(acc),
                [Some(acc), Some(val_reg)],
            );
            self.cursor += 1;
            b.cond_branch(branch_ip, self.cursor < spec.len);
        }
        if self.cursor >= spec.len {
            self.cursor = 0;
            self.next_array = (self.next_array + 1) % self.config.arrays.len();
            self.sweeps += 1;
        }
        loads
    }
}

impl Workload for ArrayWorkload {
    fn emit(&mut self, builder: &mut TraceBuilder, rng: &mut StdRng, loads: usize) {
        let mut emitted = 0;
        while emitted < loads {
            emitted += self.step(builder, rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::SeatAllocator;
    use cap_rand::SeedableRng;

    fn make(config: ArrayConfig) -> (ArrayWorkload, StdRng) {
        let mut seats = SeatAllocator::new();
        let mut r = StdRng::seed_from_u64(9);
        let wl = ArrayWorkload::new(config, seats.next_seat(), &mut r);
        (wl, r)
    }

    #[test]
    fn sweep_is_constant_stride_within_array() {
        let (mut wl, mut r) = make(ArrayConfig::default());
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 64);
        let trace = b.finish();
        let addrs: Vec<u64> = trace.loads().take(64).map(|l| l.addr).collect();
        for w in addrs.windows(2) {
            assert_eq!(w[1] - w[0], 8, "in-sweep stride must be elem_size");
        }
    }

    #[test]
    fn wrap_restarts_at_base() {
        let cfg = ArrayConfig {
            arrays: vec![ArraySpec {
                len: 8,
                elem_size: 4,
                field_offsets: vec![0],
            }],
            skip_percent: 0,
        };
        let (mut wl, mut r) = make(cfg);
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 24);
        let trace = b.finish();
        let addrs: Vec<u64> = trace.loads().map(|l| l.addr).collect();
        assert_eq!(addrs[0], addrs[8], "sweep must restart at the array base");
        assert_eq!(addrs[0], addrs[16]);
    }

    #[test]
    fn multiple_arrays_rotate() {
        let cfg = ArrayConfig {
            arrays: vec![
                ArraySpec {
                    len: 4,
                    elem_size: 8,
                    field_offsets: vec![0],
                },
                ArraySpec {
                    len: 4,
                    elem_size: 8,
                    field_offsets: vec![0],
                },
            ],
            skip_percent: 0,
        };
        let (mut wl, mut r) = make(cfg);
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 8);
        let trace = b.finish();
        let addrs: Vec<u64> = trace.loads().map(|l| l.addr).collect();
        // Two sweeps over two different arrays — disjoint address ranges.
        assert_ne!(addrs[0], addrs[4]);
        assert!(
            addrs[4] > addrs[3],
            "second array must live above the first"
        );
    }

    #[test]
    fn struct_fields_share_element_base() {
        let cfg = ArrayConfig {
            arrays: vec![ArraySpec {
                len: 8,
                elem_size: 16,
                field_offsets: vec![0, 4, 8],
            }],
            skip_percent: 0,
        };
        let (mut wl, mut r) = make(cfg);
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 24);
        let trace = b.finish();
        let loads: Vec<_> = trace.loads().collect();
        for group in loads.chunks(3).take(8) {
            let base0 = group[0].base_addr();
            assert!(group.iter().all(|l| l.base_addr() == base0));
        }
    }

    #[test]
    fn skip_introduces_single_double_stride() {
        let cfg = ArrayConfig {
            arrays: vec![ArraySpec {
                len: 32,
                elem_size: 8,
                field_offsets: vec![0],
            }],
            skip_percent: 100,
        };
        let (mut wl, mut r) = make(cfg);
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 31);
        let trace = b.finish();
        let addrs: Vec<u64> = trace.loads().map(|l| l.addr).collect();
        let deltas: Vec<u64> = addrs.windows(2).map(|w| w[1] - w[0]).collect();
        let doubles = deltas.iter().filter(|&&d| d == 16).count();
        assert_eq!(doubles, 1, "exactly one skipped element per sweep");
    }

    #[test]
    #[should_panic(expected = "length must be positive")]
    fn zero_length_array_rejected() {
        let _ = make(ArrayConfig {
            arrays: vec![ArraySpec {
                len: 0,
                ..ArraySpec::default()
            }],
            skip_percent: 0,
        });
    }
}
