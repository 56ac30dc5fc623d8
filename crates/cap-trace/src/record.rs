//! Core trace record types.
//!
//! A trace is a flat sequence of [`TraceEvent`]s produced by the synthetic
//! workload generators in [`crate::gen`]. Events carry exactly the
//! information the ISCA '99 predictors and the timing substrate consume:
//! static instruction pointers, effective addresses, the immediate offset
//! encoded in the load opcode (needed for the paper's *base address* global
//! correlation), branch outcomes (needed for the global branch-history
//! register used by control-flow confidence indications), and register
//! dependence information (needed by the out-of-order timing model).

/// A virtual architectural register name.
///
/// The synthetic ISA exposes a flat namespace of [`RegId::COUNT`] registers;
/// generators allocate them like a compiler's register allocator would, so
/// pointer-chasing chains carry true load-to-load dependences.
///
/// # Examples
///
/// ```
/// use cap_trace::RegId;
/// let r = RegId::new(3);
/// assert_eq!(r.index(), 3);
/// ```
///
/// A register is one byte with 192 values no register uses, so an
/// `Option<RegId>` is one byte too and a [`TraceEvent`] keeps its variant
/// tag in those spare values: 32 bytes per event. A bare `u8` has no spare
/// value and would make every event 40 bytes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RegId(Reg);

macro_rules! register_names {
    ($($name:ident)*) => {
        /// The register names as a one-byte enum, declared in index order.
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        #[repr(u8)]
        enum Reg {
            $($name),*
        }

        /// Every register, indexed by its number.
        const REGS: [Reg; RegId::COUNT] = [$(Reg::$name),*];
    };
}

register_names! {
    R0 R1 R2 R3 R4 R5 R6 R7 R8 R9 R10 R11 R12 R13 R14 R15
    R16 R17 R18 R19 R20 R21 R22 R23 R24 R25 R26 R27 R28 R29 R30 R31
    R32 R33 R34 R35 R36 R37 R38 R39 R40 R41 R42 R43 R44 R45 R46 R47
    R48 R49 R50 R51 R52 R53 R54 R55 R56 R57 R58 R59 R60 R61 R62 R63
}

impl RegId {
    /// Number of architectural registers in the synthetic ISA.
    pub const COUNT: usize = 64;

    /// Creates a register name.
    ///
    /// # Panics
    ///
    /// Panics if `index >= RegId::COUNT`.
    #[must_use]
    pub fn new(index: u8) -> Self {
        assert!(
            (index as usize) < Self::COUNT,
            "register index {index} out of range (< {})",
            Self::COUNT
        );
        Self(REGS[index as usize])
    }

    /// The raw register index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for RegId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0 as u8)
    }
}

impl std::fmt::Debug for RegId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("RegId").field(&(self.0 as u8)).finish()
    }
}

impl std::hash::Hash for RegId {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (self.0 as u8).hash(state);
    }
}

/// A dynamic load instruction instance.
///
/// `addr` is the *effective* address of the access; the paper's base-address
/// scheme recovers the shared RDS base as `addr - offset` (see
/// [`LoadRecord::base_addr`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoadRecord {
    /// Static instruction pointer of the load.
    pub ip: u64,
    /// Effective (virtual) address accessed.
    pub addr: u64,
    /// Immediate displacement encoded in the load opcode
    /// (e.g. `8` for `movl 0x8(%eax),%edx`).
    pub offset: i32,
    /// Access size in bytes.
    pub size: u8,
    /// The value loaded from memory. Pointer-field loads carry the next
    /// node's address; data loads carry whatever the generator modelled.
    /// Used by the value-prediction comparison (the paper's §1 argues
    /// value predictability is lower than address predictability).
    pub value: u64,
    /// Destination register receiving the loaded value.
    pub dst: Option<RegId>,
    /// Base register used for address generation, if any. The timing model
    /// uses this to delay address generation until the producer completes —
    /// the pointer-chase serialization the paper's Section 2 discusses.
    pub addr_src: Option<RegId>,
}

impl LoadRecord {
    /// The base address the paper's global-correlation scheme stores in the
    /// Load Buffer / Link Table: effective address minus immediate offset.
    ///
    /// All loads that walk fields of the same recursive-data-structure node
    /// share this value, which is what lets them share Link Table entries.
    ///
    /// # Examples
    ///
    /// ```
    /// use cap_trace::LoadRecord;
    /// let load = LoadRecord { ip: 0x40, addr: 0x88, offset: 8, size: 4, value: 0, dst: None, addr_src: None };
    /// assert_eq!(load.base_addr(), 0x80);
    /// ```
    #[must_use]
    pub fn base_addr(&self) -> u64 {
        self.addr.wrapping_sub(self.offset as i64 as u64)
    }
}

/// A dynamic store instruction instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreRecord {
    /// Static instruction pointer of the store.
    pub ip: u64,
    /// Effective address written.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u8,
    /// Register providing the stored value, if modelled.
    pub data_src: Option<RegId>,
    /// Base register used for address generation, if any.
    pub addr_src: Option<RegId>,
}

/// A dynamic conditional or unconditional branch instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchRecord {
    /// Static instruction pointer of the branch.
    pub ip: u64,
    /// Architectural outcome.
    pub taken: bool,
    /// Branch target (informational; the trace is already the committed path).
    pub target: u64,
    /// Kind of control transfer.
    pub kind: BranchKind,
}

/// Classification of control-transfer instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BranchKind {
    /// Conditional branch — participates in GHR updates and prediction.
    #[default]
    Conditional,
    /// Direct call — pushes onto the call-path history.
    Call,
    /// Return — pops the call-path history.
    Return,
    /// Unconditional jump.
    Jump,
}

/// A non-memory computation instruction (ALU, FP, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpRecord {
    /// Static instruction pointer.
    pub ip: u64,
    /// Execution latency class.
    pub latency: OpLatency,
    /// Destination register, if any.
    pub dst: Option<RegId>,
    /// Up to two source registers.
    pub srcs: [Option<RegId>; 2],
}

/// Latency classes for computation instructions, mirroring the "instruction
/// latencies common to Intel's processors" the paper simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OpLatency {
    /// Single-cycle integer ALU operation.
    #[default]
    Alu,
    /// Integer multiply (~4 cycles).
    Mul,
    /// Integer divide (~20 cycles).
    Div,
    /// FP add/sub (~3 cycles).
    FpAdd,
    /// FP multiply (~5 cycles).
    FpMul,
}

impl OpLatency {
    /// Execution latency in cycles.
    #[must_use]
    pub fn cycles(self) -> u32 {
        match self {
            OpLatency::Alu => 1,
            OpLatency::Mul => 4,
            OpLatency::Div => 20,
            OpLatency::FpAdd => 3,
            OpLatency::FpMul => 5,
        }
    }
}

/// One committed-path dynamic instruction in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceEvent {
    /// A load instruction.
    Load(LoadRecord),
    /// A store instruction.
    Store(StoreRecord),
    /// A branch instruction.
    Branch(BranchRecord),
    /// A computation instruction.
    Op(OpRecord),
}

impl TraceEvent {
    /// Static instruction pointer of the event.
    #[must_use]
    pub fn ip(&self) -> u64 {
        match self {
            TraceEvent::Load(l) => l.ip,
            TraceEvent::Store(s) => s.ip,
            TraceEvent::Branch(b) => b.ip,
            TraceEvent::Op(o) => o.ip,
        }
    }

    /// Returns the contained load, if this event is a load.
    #[must_use]
    pub fn as_load(&self) -> Option<&LoadRecord> {
        match self {
            TraceEvent::Load(l) => Some(l),
            _ => None,
        }
    }

    /// Returns the contained branch, if this event is a branch.
    #[must_use]
    pub fn as_branch(&self) -> Option<&BranchRecord> {
        match self {
            TraceEvent::Branch(b) => Some(b),
            _ => None,
        }
    }

    /// True for loads and stores.
    #[must_use]
    pub fn is_memory(&self) -> bool {
        matches!(self, TraceEvent::Load(_) | TraceEvent::Store(_))
    }
}

/// An owned instruction trace: the unit of work every experiment consumes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an event vector as a trace.
    #[must_use]
    pub fn from_events(events: Vec<TraceEvent>) -> Self {
        Self { events }
    }

    /// All events in program order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of dynamic instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the trace has no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends an event.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Iterates over events in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceEvent> {
        self.events.iter()
    }

    /// Iterates over just the loads, in program order.
    pub fn loads(&self) -> impl Iterator<Item = &LoadRecord> + '_ {
        self.events.iter().filter_map(TraceEvent::as_load)
    }

    /// Number of dynamic loads.
    #[must_use]
    pub fn load_count(&self) -> usize {
        self.loads().count()
    }
}

impl FromIterator<TraceEvent> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(iter: I) -> Self {
        Self {
            events: iter.into_iter().collect(),
        }
    }
}

impl Extend<TraceEvent> for Trace {
    fn extend<I: IntoIterator<Item = TraceEvent>>(&mut self, iter: I) {
        self.events.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceEvent;
    type IntoIter = std::slice::Iter<'a, TraceEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl IntoIterator for Trace {
    type Item = TraceEvent;
    type IntoIter = std::vec::IntoIter<TraceEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_addr_subtracts_offset() {
        let l = LoadRecord {
            ip: 0x1000,
            addr: 0x88,
            offset: 8,
            size: 4,
            value: 0,
            dst: None,
            addr_src: None,
        };
        assert_eq!(l.base_addr(), 0x80);
    }

    #[test]
    fn base_addr_handles_negative_offset() {
        let l = LoadRecord {
            ip: 0x1000,
            addr: 0x80,
            offset: -16,
            size: 4,
            value: 0,
            dst: None,
            addr_src: None,
        };
        assert_eq!(l.base_addr(), 0x90);
    }

    #[test]
    fn base_addr_wraps_rather_than_panics() {
        let l = LoadRecord {
            ip: 0,
            addr: 4,
            offset: 8,
            size: 4,
            value: 0,
            dst: None,
            addr_src: None,
        };
        // 4 - 8 wraps around u64 space.
        assert_eq!(l.base_addr(), u64::MAX - 3);
    }

    #[test]
    fn reg_id_roundtrip() {
        let r = RegId::new(63);
        assert_eq!(r.index(), 63);
        assert_eq!(r.to_string(), "r63");
    }

    #[test]
    fn every_reg_id_keeps_its_index_name_and_order() {
        use std::hash::{BuildHasher, RandomState};
        let hasher = RandomState::new();
        for i in 0..RegId::COUNT as u8 {
            let r = RegId::new(i);
            assert_eq!(r.index(), usize::from(i));
            assert_eq!(r.to_string(), format!("r{i}"));
            assert_eq!(format!("{r:?}"), format!("RegId({i})"));
            assert_eq!(
                hasher.hash_one(r),
                hasher.hash_one(i),
                "r{i} hashes as its u8"
            );
            if i > 0 {
                assert!(RegId::new(i - 1) < r, "r{} < r{i}", i - 1);
            }
        }
    }

    /// Every trace layer holds events by value, so one more byte in a
    /// record costs every trace 8 more bytes per event.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn trace_event_packs_into_32_bytes() {
        assert_eq!(std::mem::size_of::<Option<RegId>>(), 1, "Option<RegId>");
        assert_eq!(std::mem::size_of::<TraceEvent>(), 32, "TraceEvent");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_id_rejects_out_of_range() {
        let _ = RegId::new(64);
    }

    #[test]
    fn trace_collects_and_filters_loads() {
        let mut trace = Trace::new();
        trace.push(TraceEvent::Op(OpRecord {
            ip: 1,
            latency: OpLatency::Alu,
            dst: None,
            srcs: [None, None],
        }));
        trace.push(TraceEvent::Load(LoadRecord {
            ip: 2,
            addr: 0x100,
            offset: 0,
            size: 4,
            value: 0,
            dst: None,
            addr_src: None,
        }));
        trace.push(TraceEvent::Branch(BranchRecord {
            ip: 3,
            taken: true,
            target: 1,
            kind: BranchKind::Conditional,
        }));
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.load_count(), 1);
        assert_eq!(trace.loads().next().unwrap().addr, 0x100);
        assert!(!trace.is_empty());
    }

    #[test]
    fn trace_from_iterator() {
        let events = vec![TraceEvent::Op(OpRecord {
            ip: 1,
            latency: OpLatency::Alu,
            dst: None,
            srcs: [None, None],
        })];
        let t: Trace = events.clone().into_iter().collect();
        assert_eq!(t.events(), &events[..]);
    }

    #[test]
    fn op_latency_cycles_are_ordered_sensibly() {
        assert!(OpLatency::Alu.cycles() < OpLatency::Mul.cycles());
        assert!(OpLatency::Mul.cycles() < OpLatency::Div.cycles());
    }

    #[test]
    fn event_accessors() {
        let e = TraceEvent::Load(LoadRecord {
            ip: 7,
            addr: 1,
            offset: 0,
            size: 4,
            value: 0,
            dst: None,
            addr_src: None,
        });
        assert_eq!(e.ip(), 7);
        assert!(e.is_memory());
        assert!(e.as_load().is_some());
        assert!(e.as_branch().is_none());
    }
}
