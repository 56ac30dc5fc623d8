//! Linked-list (recursive data structure) workloads — the paper's §2.1.
//!
//! A traversal loop compiled like the `xlevarg` example in the paper emits
//! one static load per field (`car`, `cdr`, `n_type`, …) all sharing the
//! node's base address. The dynamic address sequence of each static load is
//! a short, recurring, non-stride fingerprint like
//! `A B C D E F  B C D E F  B C D E F …`.

use super::{Seat, Workload};
use crate::alloc::{HeapModel, LayoutPolicy};
use crate::builder::{IpAllocator, TraceBuilder};
use crate::record::OpLatency;
use cap_rand::rngs::StdRng;
use cap_rand::Rng;

/// Configuration for [`LinkedListWorkload`].
#[derive(Debug, Clone)]
pub struct LinkedListConfig {
    /// Number of independent lists walked by the same static code.
    pub lists: usize,
    /// Nodes per list.
    pub nodes_per_list: usize,
    /// Field offsets loaded at each node. The *last* offset is the `next`
    /// pointer field (its load carries the pointer-chase dependence).
    pub field_offsets: Vec<i32>,
    /// Node size in bytes (determines allocator spacing).
    pub node_size: u64,
    /// Heap layout of the nodes.
    pub layout: LayoutPolicy,
    /// With probability `1/mutate_every_inverse` per full traversal, one
    /// node is re-allocated (list mutation), mildly perturbing the pattern.
    /// `0` disables mutation.
    pub mutate_every_inverse: u32,
}

impl Default for LinkedListConfig {
    fn default() -> Self {
        Self {
            lists: 1,
            nodes_per_list: 12,
            field_offsets: vec![0, 4, 8],
            node_size: 32,
            layout: LayoutPolicy::Fragmented,
            mutate_every_inverse: 0,
        }
    }
}

/// A pointer-chasing workload over one or more singly linked lists.
///
/// # Examples
///
/// ```
/// use cap_trace::gen::linked_list::{LinkedListConfig, LinkedListWorkload};
/// use cap_trace::gen::{SeatAllocator, Workload};
/// use cap_trace::builder::TraceBuilder;
/// use cap_rand::SeedableRng;
///
/// let mut seats = SeatAllocator::new();
/// let mut rng = cap_rand::rngs::StdRng::seed_from_u64(7);
/// let mut wl = LinkedListWorkload::new(LinkedListConfig::default(), seats.next_seat(), &mut rng);
/// let mut b = TraceBuilder::new();
/// wl.emit(&mut b, &mut rng, 100);
/// assert!(b.finish().load_count() >= 100);
/// ```
#[derive(Debug)]
pub struct LinkedListWorkload {
    config: LinkedListConfig,
    seat: Seat,
    heap: HeapModel,
    /// `lists[l][i]` is the base address of node `i` of list `l`.
    lists: Vec<Vec<u64>>,
    /// Static IPs: per-field load IPs plus a consuming op and the loop
    /// branch.
    field_ips: Vec<u64>,
    use_ip: u64,
    loop_branch_ip: u64,
    next_list: usize,
}

impl LinkedListWorkload {
    /// Builds the workload, allocating its lists on a private heap.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero lists, zero nodes, or no fields.
    #[must_use]
    pub fn new(config: LinkedListConfig, seat: Seat, rng: &mut StdRng) -> Self {
        assert!(config.lists > 0, "need at least one list");
        assert!(config.nodes_per_list > 0, "need at least one node");
        assert!(!config.field_offsets.is_empty(), "need at least one field");
        let mut heap = HeapModel::new(seat.heap_base, 16);
        let lists = (0..config.lists)
            .map(|_| heap.alloc_nodes(config.nodes_per_list, config.node_size, config.layout, rng))
            .collect();
        let mut ips = IpAllocator::new(seat.ip_base);
        let field_ips = ips.code_block(config.field_offsets.len());
        let use_ip = ips.next_ip();
        let loop_branch_ip = ips.next_ip();
        Self {
            config,
            seat,
            heap,
            lists,
            field_ips,
            use_ip,
            loop_branch_ip,
            next_list: 0,
        }
    }

    /// Walks one full list, emitting the per-node field loads.
    fn traverse_one(&mut self, b: &mut TraceBuilder, rng: &mut StdRng) -> usize {
        let list_idx = self.next_list;
        self.next_list = (self.next_list + 1) % self.lists.len();

        if self.config.mutate_every_inverse > 0
            && rng.gen_range(0..self.config.mutate_every_inverse) == 0
        {
            let pos = rng.gen_range(0..self.lists[list_idx].len());
            let fresh = self.heap.alloc(self.config.node_size);
            self.lists[list_idx][pos] = fresh;
        }

        let ptr_reg = self.seat.reg(0);
        let val_reg = self.seat.reg(1);
        let acc = self.seat.reg(2);
        let nodes = self.lists[list_idx].clone();
        let mut loads = 0;
        for (i, &node) in nodes.iter().enumerate() {
            let last_field = self.config.field_offsets.len() - 1;
            let next_node = nodes.get(i + 1).copied().unwrap_or(nodes[0]);
            for (f, &off) in self.config.field_offsets.iter().enumerate() {
                let dst = if f == last_field { ptr_reg } else { val_reg };
                // The next-pointer field loads the next node's address;
                // data fields load stable per-node values.
                let value = if f == last_field {
                    next_node
                } else {
                    crate::gen::splitmix(node ^ (off as u64))
                };
                b.load_val(
                    self.field_ips[f],
                    node.wrapping_add(off as i64 as u64),
                    off,
                    value,
                    Some(dst),
                    Some(ptr_reg),
                );
                loads += 1;
            }
            // sum += p->val, as in the paper's §2.1 example.
            b.op(
                self.use_ip,
                OpLatency::Alu,
                Some(acc),
                [Some(acc), Some(val_reg)],
            );
            // Loop back-edge: taken while more nodes remain.
            b.cond_branch(self.loop_branch_ip, i + 1 < nodes.len());
        }
        loads
    }
}

impl Workload for LinkedListWorkload {
    fn emit(&mut self, builder: &mut TraceBuilder, rng: &mut StdRng, loads: usize) {
        let mut emitted = 0;
        while emitted < loads {
            emitted += self.traverse_one(builder, rng);
        }
    }
}

/// Configuration for [`DoublyLinkedListWorkload`].
#[derive(Debug, Clone)]
pub struct DoublyLinkedListConfig {
    /// Nodes in the list.
    pub nodes: usize,
    /// Offset of the `val` field (needs history ≥ 2 to predict, Fig. 2).
    pub val_offset: i32,
    /// Offset of the `next` field.
    pub next_offset: i32,
    /// Offset of the `previous` field.
    pub prev_offset: i32,
    /// Node size in bytes.
    pub node_size: u64,
    /// Heap layout of the nodes.
    pub layout: LayoutPolicy,
}

impl Default for DoublyLinkedListConfig {
    fn default() -> Self {
        Self {
            nodes: 10,
            val_offset: 2,
            next_offset: 6,
            prev_offset: 8,
            node_size: 32,
            layout: LayoutPolicy::Fragmented,
        }
    }
}

/// A doubly linked list walked forward then backward, alternating.
///
/// This reproduces the paper's Figure 2 argument: the `next`/`previous`
/// loads are predictable with history 1, but the `val` load sees each node
/// from *two* directions — `82` may be followed by `12` or `42` — so it
/// needs a history of two base addresses to disambiguate.
#[derive(Debug)]
pub struct DoublyLinkedListWorkload {
    config: DoublyLinkedListConfig,
    seat: Seat,
    nodes: Vec<u64>,
    val_ip: u64,
    next_ip: u64,
    prev_ip: u64,
    branch_ip: u64,
    forward: bool,
}

impl DoublyLinkedListWorkload {
    /// Builds the workload.
    ///
    /// # Panics
    ///
    /// Panics if `config.nodes < 2`.
    #[must_use]
    pub fn new(config: DoublyLinkedListConfig, seat: Seat, rng: &mut StdRng) -> Self {
        assert!(
            config.nodes >= 2,
            "a doubly linked list walk needs >= 2 nodes"
        );
        let mut heap = HeapModel::new(seat.heap_base, 16);
        let nodes = heap.alloc_nodes(config.nodes, config.node_size, config.layout, rng);
        let mut ips = IpAllocator::new(seat.ip_base);
        let val_ip = ips.next_ip();
        let next_ip = ips.next_ip();
        let prev_ip = ips.next_ip();
        let branch_ip = ips.next_ip();
        Self {
            config,
            seat,
            nodes,
            val_ip,
            next_ip,
            prev_ip,
            branch_ip,
            forward: true,
        }
    }

    fn walk_once(&mut self, b: &mut TraceBuilder) -> usize {
        let ptr = self.seat.reg(0);
        let val = self.seat.reg(1);
        let order: Vec<u64> = if self.forward {
            self.nodes.clone()
        } else {
            self.nodes.iter().rev().copied().collect()
        };
        let (link_ip, link_off) = if self.forward {
            (self.next_ip, self.config.next_offset)
        } else {
            (self.prev_ip, self.config.prev_offset)
        };
        self.forward = !self.forward;
        let mut loads = 0;
        for (i, &node) in order.iter().enumerate() {
            b.load_val(
                self.val_ip,
                node.wrapping_add(self.config.val_offset as i64 as u64),
                self.config.val_offset,
                crate::gen::splitmix(node),
                Some(val),
                Some(ptr),
            );
            let next_node = order.get(i + 1).copied().unwrap_or(order[0]);
            b.load_val(
                link_ip,
                node.wrapping_add(link_off as i64 as u64),
                link_off,
                next_node,
                Some(ptr),
                Some(ptr),
            );
            loads += 2;
            b.cond_branch(self.branch_ip, i + 1 < order.len());
        }
        loads
    }
}

impl Workload for DoublyLinkedListWorkload {
    fn emit(&mut self, builder: &mut TraceBuilder, _rng: &mut StdRng, loads: usize) {
        let mut emitted = 0;
        while emitted < loads {
            emitted += self.walk_once(builder);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::SeatAllocator;
    use cap_rand::SeedableRng;
    use std::collections::BTreeSet;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    fn build(config: LinkedListConfig) -> (LinkedListWorkload, StdRng) {
        let mut seats = SeatAllocator::new();
        let mut r = rng();
        let wl = LinkedListWorkload::new(config, seats.next_seat(), &mut r);
        (wl, r)
    }

    #[test]
    fn fields_share_base_addresses() {
        let (mut wl, mut r) = build(LinkedListConfig::default());
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 60);
        let trace = b.finish();
        // Group loads by IP; all field loads at the same dynamic node must
        // share the same base address.
        let loads: Vec<_> = trace.loads().collect();
        for chunk in loads.chunks(3) {
            if chunk.len() == 3 {
                let bases: BTreeSet<u64> = chunk.iter().map(|l| l.base_addr()).collect();
                assert_eq!(bases.len(), 1, "field loads must share node base");
            }
        }
    }

    #[test]
    fn traversal_repeats_same_sequence() {
        let (mut wl, mut r) = build(LinkedListConfig {
            lists: 1,
            nodes_per_list: 5,
            field_offsets: vec![8],
            ..LinkedListConfig::default()
        });
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 20);
        let trace = b.finish();
        let addrs: Vec<u64> = trace.loads().map(|l| l.addr).collect();
        assert_eq!(&addrs[0..5], &addrs[5..10], "second traversal must repeat");
    }

    #[test]
    fn fragmented_list_is_not_stride() {
        let (mut wl, mut r) = build(LinkedListConfig {
            lists: 1,
            nodes_per_list: 16,
            field_offsets: vec![8],
            ..LinkedListConfig::default()
        });
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 16);
        let trace = b.finish();
        let addrs: Vec<u64> = trace.loads().map(|l| l.addr).collect();
        let deltas: BTreeSet<i64> = addrs
            .windows(2)
            .map(|w| w[1] as i64 - w[0] as i64)
            .collect();
        assert!(
            deltas.len() > 1,
            "fragmented walk must not be constant stride"
        );
    }

    #[test]
    fn pointer_chase_dependence_recorded() {
        let (mut wl, mut r) = build(LinkedListConfig::default());
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 9);
        let trace = b.finish();
        for l in trace.loads() {
            assert!(
                l.addr_src.is_some(),
                "RDS loads must chase a pointer register"
            );
        }
    }

    #[test]
    fn mutation_changes_pattern_eventually() {
        let (mut wl, mut r) = build(LinkedListConfig {
            lists: 1,
            nodes_per_list: 8,
            field_offsets: vec![8],
            mutate_every_inverse: 1, // mutate on every traversal
            ..LinkedListConfig::default()
        });
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 200);
        let trace = b.finish();
        let unique: BTreeSet<u64> = trace.loads().map(|l| l.addr).collect();
        assert!(
            unique.len() > 8,
            "mutation should introduce fresh node addresses"
        );
    }

    #[test]
    fn dlist_val_field_is_direction_ambiguous() {
        let mut seats = SeatAllocator::new();
        let mut r = rng();
        let cfg = DoublyLinkedListConfig::default();
        let val_off = cfg.val_offset;
        let mut wl = DoublyLinkedListWorkload::new(cfg, seats.next_seat(), &mut r);
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 120);
        let trace = b.finish();
        // Find the val-field loads and check some address is followed by two
        // *different* successors across the trace (the Fig. 2 ambiguity).
        let vals: Vec<u64> = trace
            .loads()
            .filter(|l| l.offset == val_off)
            .map(|l| l.addr)
            .collect();
        let mut successors: std::collections::BTreeMap<u64, BTreeSet<u64>> = Default::default();
        for w in vals.windows(2) {
            successors.entry(w[0]).or_default().insert(w[1]);
        }
        assert!(
            successors.values().any(|s| s.len() >= 2),
            "val field should have direction-dependent successors"
        );
    }

    #[test]
    fn emit_meets_load_budget() {
        let (mut wl, mut r) = build(LinkedListConfig::default());
        let mut b = TraceBuilder::new();
        wl.emit(&mut b, &mut r, 500);
        assert!(b.finish().load_count() >= 500);
    }

    #[test]
    #[should_panic(expected = "at least one field")]
    fn rejects_empty_fields() {
        let _ = build(LinkedListConfig {
            field_offsets: vec![],
            ..LinkedListConfig::default()
        });
    }
}
