//! Helpers for emitting well-formed traces from workload generators.

use crate::record::{
    BranchKind, BranchRecord, LoadRecord, OpLatency, OpRecord, RegId, StoreRecord, Trace,
    TraceEvent,
};

/// Allocates static instruction pointers for synthetic code.
///
/// Generators allocate their "code" once up front and then reuse the same
/// static IPs on every dynamic iteration — this is what gives each static
/// load a stable identity in the predictors' Load Buffer.
///
/// # Examples
///
/// ```
/// use cap_trace::builder::IpAllocator;
/// let mut ips = IpAllocator::new(0x400000);
/// let a = ips.next_ip();
/// let b = ips.next_ip();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct IpAllocator {
    next: u64,
}

impl IpAllocator {
    /// Instruction size used for synthetic code layout.
    const INSTR_SIZE: u64 = 4;

    /// Creates an allocator starting at `base`.
    #[must_use]
    pub fn new(base: u64) -> Self {
        Self { next: base }
    }

    /// Allocates the next static instruction pointer.
    pub fn next_ip(&mut self) -> u64 {
        let ip = self.next;
        self.next += Self::INSTR_SIZE;
        ip
    }

    /// Allocates a contiguous block of `count` static IPs.
    pub fn code_block(&mut self, count: usize) -> Vec<u64> {
        (0..count).map(|_| self.next_ip()).collect()
    }

    /// Skips ahead to separate unrelated code regions.
    pub fn gap(&mut self, instrs: u64) {
        self.next += instrs * Self::INSTR_SIZE;
    }
}

/// Accumulates [`TraceEvent`]s with convenience emitters.
///
/// # Examples
///
/// ```
/// use cap_trace::builder::TraceBuilder;
/// let mut b = TraceBuilder::new();
/// b.load(0x400000, 0x1008, 8);
/// b.cond_branch(0x400004, true);
/// let trace = b.finish();
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.load_count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceBuilder {
    trace: Trace,
}

impl TraceBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events emitted so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// True when nothing has been emitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Emits a load with no register-dependence information.
    pub fn load(&mut self, ip: u64, addr: u64, offset: i32) {
        self.load_dep(ip, addr, offset, None, None);
    }

    /// Emits a load with destination and address-source registers.
    pub fn load_dep(
        &mut self,
        ip: u64,
        addr: u64,
        offset: i32,
        dst: Option<RegId>,
        addr_src: Option<RegId>,
    ) {
        self.load_val(ip, addr, offset, 0, dst, addr_src);
    }

    /// Emits a load carrying the value read from memory (used by the
    /// value-prediction comparison experiments).
    pub fn load_val(
        &mut self,
        ip: u64,
        addr: u64,
        offset: i32,
        value: u64,
        dst: Option<RegId>,
        addr_src: Option<RegId>,
    ) {
        self.trace.push(TraceEvent::Load(LoadRecord {
            ip,
            addr,
            offset,
            size: 4,
            value,
            dst,
            addr_src,
        }));
    }

    /// Emits a store.
    pub fn store(&mut self, ip: u64, addr: u64) {
        self.store_dep(ip, addr, None, None);
    }

    /// Emits a store with register-dependence information.
    pub fn store_dep(
        &mut self,
        ip: u64,
        addr: u64,
        data_src: Option<RegId>,
        addr_src: Option<RegId>,
    ) {
        self.trace.push(TraceEvent::Store(StoreRecord {
            ip,
            addr,
            size: 4,
            data_src,
            addr_src,
        }));
    }

    /// Emits a conditional branch.
    pub fn cond_branch(&mut self, ip: u64, taken: bool) {
        self.branch(
            ip,
            taken,
            if taken { ip.wrapping_sub(0x20) } else { ip + 4 },
        );
    }

    /// Emits a conditional branch with an explicit target.
    pub fn branch(&mut self, ip: u64, taken: bool, target: u64) {
        self.trace.push(TraceEvent::Branch(BranchRecord {
            ip,
            taken,
            target,
            kind: BranchKind::Conditional,
        }));
    }

    /// Emits a call control transfer.
    pub fn call(&mut self, ip: u64, target: u64) {
        self.trace.push(TraceEvent::Branch(BranchRecord {
            ip,
            taken: true,
            target,
            kind: BranchKind::Call,
        }));
    }

    /// Emits a return control transfer.
    pub fn ret(&mut self, ip: u64, target: u64) {
        self.trace.push(TraceEvent::Branch(BranchRecord {
            ip,
            taken: true,
            target,
            kind: BranchKind::Return,
        }));
    }

    /// Emits a single-cycle ALU op with no dependences.
    pub fn alu(&mut self, ip: u64) {
        self.op(ip, OpLatency::Alu, None, [None, None]);
    }

    /// Emits a computation op.
    pub fn op(
        &mut self,
        ip: u64,
        latency: OpLatency,
        dst: Option<RegId>,
        srcs: [Option<RegId>; 2],
    ) {
        self.trace.push(TraceEvent::Op(OpRecord {
            ip,
            latency,
            dst,
            srcs,
        }));
    }

    /// Appends all events of another trace.
    pub fn append(&mut self, other: &Trace) {
        self.trace.extend(other.iter().copied());
    }

    /// Counts loads emitted at or after event index `since`.
    ///
    /// Used by interleaving schedulers to attribute load counts to the
    /// component that just ran without rescanning the whole trace.
    #[must_use]
    pub fn loads_since(&self, since: usize) -> usize {
        self.trace.events()[since..]
            .iter()
            .filter(|e| matches!(e, TraceEvent::Load(_)))
            .count()
    }

    /// Consumes the builder and returns the trace.
    #[must_use]
    pub fn finish(self) -> Trace {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ip_allocator_is_monotone_and_disjoint() {
        let mut ips = IpAllocator::new(0x1000);
        let block_a = ips.code_block(4);
        ips.gap(16);
        let block_b = ips.code_block(4);
        for w in block_a.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(block_a.last().unwrap() < block_b.first().unwrap());
    }

    #[test]
    fn builder_emits_in_order() {
        let mut b = TraceBuilder::new();
        b.load(1, 0x10, 0);
        b.store(2, 0x20);
        b.cond_branch(3, false);
        b.alu(4);
        b.call(5, 100);
        b.ret(6, 5);
        let trace = b.finish();
        let ips: Vec<u64> = trace.iter().map(TraceEvent::ip).collect();
        assert_eq!(ips, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(trace.load_count(), 1);
    }

    #[test]
    fn append_concatenates() {
        let mut a = TraceBuilder::new();
        a.load(1, 0x10, 0);
        let ta = a.finish();
        let mut b = TraceBuilder::new();
        b.alu(2);
        b.append(&ta);
        let t = b.finish();
        assert_eq!(t.len(), 2);
        assert_eq!(t.events()[1].ip(), 1);
    }

    #[test]
    fn branch_kinds_recorded() {
        let mut b = TraceBuilder::new();
        b.call(1, 100);
        b.ret(2, 5);
        b.cond_branch(3, true);
        let t = b.finish();
        let kinds: Vec<BranchKind> = t
            .iter()
            .filter_map(TraceEvent::as_branch)
            .map(|br| br.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                BranchKind::Call,
                BranchKind::Return,
                BranchKind::Conditional
            ]
        );
    }
}
