//! Large-matrix workloads modelling the paper's MM (multimedia) suite.
//!
//! MM applications "mainly process large arrays which CAP, with its limited
//! storage, can hardly handle" (§4.2) — the address sequences are strides
//! whose period vastly exceeds any realistic Link Table, so the context
//! component cannot capture them while the stride component predicts them
//! almost perfectly. This generator produces row-major and strided
//! column-major sweeps over matrices far larger than the LT, interleaved
//! with multiply-accumulate compute ops to mimic MMX kernels.

use super::{Seat, Workload};
use crate::builder::{IpAllocator, TraceBuilder};
use crate::record::OpLatency;
use cap_rand::rngs::StdRng;

/// Configuration for [`MatrixWorkload`].
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Element size in bytes.
    pub elem_size: u64,
    /// Number of matrices processed in lock-step (e.g. 2 sources + 1 dest
    /// in a pixel blend: sources are loads, dest is a store stream).
    pub streams: usize,
    /// Every `column_pass_every`-th pass walks a column (large stride)
    /// instead of a row. `0` disables column passes.
    pub column_pass_every: usize,
}

impl Default for MatrixConfig {
    fn default() -> Self {
        Self {
            rows: 256,
            cols: 256,
            elem_size: 4,
            streams: 2,
            column_pass_every: 8,
        }
    }
}

/// Long-stride media-kernel sweeps.
#[derive(Debug)]
pub struct MatrixWorkload {
    config: MatrixConfig,
    seat: Seat,
    stream_bases: Vec<u64>,
    load_ips: Vec<u64>,
    store_ip: u64,
    mac_ip: u64,
    branch_ip: u64,
    pass: usize,
    cursor: usize,
}

impl MatrixWorkload {
    /// Builds the workload.
    ///
    /// # Panics
    ///
    /// Panics if dimensions or stream count are zero.
    #[must_use]
    pub fn new(config: MatrixConfig, seat: Seat, _rng: &mut StdRng) -> Self {
        assert!(
            config.rows > 0 && config.cols > 0,
            "matrix must be non-empty"
        );
        assert!(config.streams > 0, "need at least one stream");
        let matrix_bytes = (config.rows * config.cols) as u64 * config.elem_size;
        let stream_bases = (0..config.streams as u64)
            .map(|s| seat.heap_base + s * (matrix_bytes + 4096))
            .collect();
        let mut ips = IpAllocator::new(seat.ip_base);
        let load_ips = ips.code_block(config.streams);
        let store_ip = ips.next_ip();
        let mac_ip = ips.next_ip();
        let branch_ip = ips.next_ip();
        Self {
            config,
            seat,
            stream_bases,
            load_ips,
            store_ip,
            mac_ip,
            branch_ip,
            pass: 0,
            cursor: 0,
        }
    }

    /// Emits one element step of the current pass; returns loads emitted.
    fn step(&mut self, b: &mut TraceBuilder) -> usize {
        let column_pass = self.config.column_pass_every > 0
            && self.pass % self.config.column_pass_every == self.config.column_pass_every - 1;
        let (len, stride) = if column_pass {
            (
                self.config.rows,
                self.config.cols as u64 * self.config.elem_size,
            )
        } else {
            (self.config.rows * self.config.cols, self.config.elem_size)
        };
        let idx_reg = self.seat.reg(0);
        let acc = self.seat.reg(1);
        let v = self.seat.reg(2);
        let offset_in_pass = self.cursor as u64 * stride;
        let mut loads = 0;
        for (s, &base) in self.stream_bases.iter().enumerate() {
            let ea = base + offset_in_pass;
            // Media buffers are rewritten pass after pass: the value at an
            // address churns even though the address stream is a perfect
            // stride — the case where addresses are predictable and values
            // are not (§1).
            let value = crate::gen::splitmix(ea ^ (self.pass as u64).wrapping_mul(0x9E37));
            b.load_val(self.load_ips[s], ea, 0, value, Some(v), Some(idx_reg));
            loads += 1;
        }
        b.op(self.mac_ip, OpLatency::Mul, Some(acc), [Some(acc), Some(v)]);
        b.store_dep(
            self.store_ip,
            self.stream_bases[0] + offset_in_pass,
            Some(acc),
            Some(idx_reg),
        );
        self.cursor += 1;
        let done = self.cursor >= len;
        b.cond_branch(self.branch_ip, !done);
        if done {
            self.cursor = 0;
            self.pass += 1;
        }
        loads
    }
}

impl Workload for MatrixWorkload {
    fn emit(&mut self, builder: &mut TraceBuilder, _rng: &mut StdRng, loads: usize) {
        let mut emitted = 0;
        while emitted < loads {
            emitted += self.step(builder);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::SeatAllocator;
    use cap_rand::SeedableRng;
    use std::collections::BTreeSet;

    fn make(config: MatrixConfig) -> (MatrixWorkload, StdRng) {
        let mut seats = SeatAllocator::new();
        let mut r = StdRng::seed_from_u64(21);
        let wl = MatrixWorkload::new(config, seats.next_seat(), &mut r);
        (wl, r)
    }

    #[test]
    fn row_pass_is_elem_size_stride() {
        let (mut wl, mut r) = make(MatrixConfig {
            column_pass_every: 0,
            streams: 1,
            ..MatrixConfig::default()
        });
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 100);
        let trace = b.finish();
        let addrs: Vec<u64> = trace.loads().take(100).map(|l| l.addr).collect();
        for w in addrs.windows(2) {
            assert_eq!(w[1] - w[0], 4);
        }
    }

    #[test]
    fn column_pass_uses_row_stride() {
        let cfg = MatrixConfig {
            rows: 16,
            cols: 16,
            elem_size: 4,
            streams: 1,
            column_pass_every: 1, // every pass is a column pass
        };
        let (mut wl, mut r) = make(cfg);
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 8);
        let trace = b.finish();
        let addrs: Vec<u64> = trace.loads().map(|l| l.addr).collect();
        assert_eq!(addrs[1] - addrs[0], 64, "column stride = cols * elem_size");
    }

    #[test]
    fn unique_addresses_exceed_lt_scale() {
        // The defining property of MM: the sweep's working set of unique
        // addresses is much larger than a 4K-entry link table.
        let (mut wl, mut r) = make(MatrixConfig {
            streams: 1,
            column_pass_every: 0,
            ..MatrixConfig::default()
        });
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 40_000);
        let trace = b.finish();
        let unique: BTreeSet<u64> = trace.loads().map(|l| l.addr).collect();
        assert!(
            unique.len() > 8192,
            "MM working set must exceed LT capacity"
        );
    }

    #[test]
    fn streams_are_disjoint() {
        let (mut wl, mut r) = make(MatrixConfig::default());
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 16);
        let trace = b.finish();
        let loads: Vec<_> = trace.loads().collect();
        assert_ne!(
            loads[0].addr, loads[1].addr,
            "streams start at distinct bases"
        );
    }

    #[test]
    fn pass_restarts_at_base() {
        let cfg = MatrixConfig {
            rows: 2,
            cols: 4,
            elem_size: 4,
            streams: 1,
            column_pass_every: 0,
        };
        let (mut wl, mut r) = make(cfg);
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 16);
        let trace = b.finish();
        let addrs: Vec<u64> = trace.loads().map(|l| l.addr).collect();
        assert_eq!(addrs[0], addrs[8], "new pass restarts at matrix base");
    }
}
