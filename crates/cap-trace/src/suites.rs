//! The 45-trace / 8-suite catalog substituting for the paper's IA-32 traces.
//!
//! The paper evaluates 45 proprietary traces grouped into eight suites
//! (§4.1). We cannot use Intel's traces, so each suite is reproduced as a
//! *pattern-class mix* engineered from the paper's own characterisation:
//!
//! * **INT** — SPECint95: RDS walks (`xlisp`, `go` lists), control-correlated
//!   callees (`xlmatch`), moderate arrays — CAP's home turf.
//! * **CAD** — large static-load footprint, lists + struct arrays, address
//!   volatility (LT-size sensitive).
//! * **MM** — multimedia/MMX: large-matrix strides that exceed LT capacity;
//!   the one suite where CAP underperforms the stride predictor.
//! * **GAM** — games: array geometry + tree/spatial lookups.
//! * **JAV** — Java: stack-machine frames, short procedures, tiny unstable
//!   inner-loop arrays (the §4.3 example), very high memory density.
//! * **TPC** — database: hash probing, large footprint, irregular rows —
//!   high LB contention, lower prediction rates.
//! * **NT** / **W95** — desktop apps: wide mixes with thousands of static
//!   loads; W95 skews more irregular. Prediction rate grows with LB size.
//!
//! Every trace is generated deterministically from its catalog seed.

use crate::alloc::LayoutPolicy;
use crate::builder::TraceBuilder;
use crate::gen::array::{ArrayConfig, ArraySpec, ArrayWorkload};
use crate::gen::call_site::{CallSiteConfig, CallSiteWorkload};
use crate::gen::globals::{GlobalsConfig, GlobalsWorkload};
use crate::gen::hash::{HashConfig, HashWorkload};
use crate::gen::linked_list::{
    DoublyLinkedListConfig, DoublyLinkedListWorkload, LinkedListConfig, LinkedListWorkload,
};
use crate::gen::matrix::{MatrixConfig, MatrixWorkload};
use crate::gen::mix::MixWorkload;
use crate::gen::random::{RandomConfig, RandomWorkload};
use crate::gen::stack::{StackConfig, StackWorkload};
use crate::gen::tree::{BinaryTreeConfig, BinaryTreeWorkload};
use crate::gen::{SeatAllocator, Workload};
use crate::record::Trace;
use cap_rand::rngs::StdRng;
use cap_rand::SeedableRng;

/// The paper's eight application suites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Suite {
    /// CAD programs (2 traces).
    Cad,
    /// Games (4 traces).
    Gam,
    /// SPECint95 (8 traces).
    Int,
    /// Java programs (5 traces).
    Jav,
    /// Multimedia / MMX applications (8 traces).
    Mm,
    /// Windows NT applications (8 traces).
    Nt,
    /// TPC database benchmarks (3 traces).
    Tpc,
    /// Windows 95 applications (7 traces).
    W95,
}

impl Suite {
    /// All suites in the paper's reporting order.
    pub const ALL: [Suite; 8] = [
        Suite::Cad,
        Suite::Gam,
        Suite::Int,
        Suite::Jav,
        Suite::Mm,
        Suite::Nt,
        Suite::Tpc,
        Suite::W95,
    ];

    /// Display name matching the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Suite::Cad => "CAD",
            Suite::Gam => "GAM",
            Suite::Int => "INT",
            Suite::Jav => "JAV",
            Suite::Mm => "MM",
            Suite::Nt => "NT",
            Suite::Tpc => "TPC",
            Suite::W95 => "W95",
        }
    }

    /// The traces belonging to this suite.
    #[must_use]
    pub fn traces(self) -> Vec<TraceSpec> {
        catalog().into_iter().filter(|t| t.suite == self).collect()
    }
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A named trace in the catalog.
#[derive(Debug, Clone)]
pub struct TraceSpec {
    /// Short name, e.g. `"INT_go"`.
    pub name: &'static str,
    /// Owning suite.
    pub suite: Suite,
    /// Generation seed (fixed per catalog entry).
    pub seed: u64,
    /// Within-suite variant index; perturbs structure sizes so the traces
    /// of a suite are siblings, not clones.
    pub variant: u64,
}

impl TraceSpec {
    /// Generates this trace with at least `loads` dynamic loads.
    ///
    /// # Examples
    ///
    /// ```
    /// use cap_trace::suites::catalog;
    /// let spec = &catalog()[0];
    /// let trace = spec.generate(1_000);
    /// assert!(trace.load_count() >= 1_000);
    /// ```
    #[must_use]
    pub fn generate(&self, loads: usize) -> Trace {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut seats = SeatAllocator::new();
        let mut mix = build_suite_mix(self.suite, self.variant, &mut seats, &mut rng);
        let mut builder = TraceBuilder::new();
        mix.emit(&mut builder, &mut rng, loads);
        builder.finish()
    }
}

/// The full 45-trace catalog, grouped per the paper: INT-8, CAD-2, MM-8,
/// GAM-4, JAV-5, TPC-3, NT-8, W95-7.
#[must_use]
pub fn catalog() -> Vec<TraceSpec> {
    fn spec(name: &'static str, suite: Suite, seed: u64, variant: u64) -> TraceSpec {
        TraceSpec {
            name,
            suite,
            seed,
            variant,
        }
    }
    vec![
        // CAD (2)
        spec("CAD_cat", Suite::Cad, 0x0CAD_0001, 0),
        spec("CAD_mic", Suite::Cad, 0x0CAD_0002, 1),
        // GAM (4)
        spec("GAM_duk", Suite::Gam, 0x06A0_0001, 0),
        spec("GAM_fal", Suite::Gam, 0x06A0_0002, 1),
        spec("GAM_mec", Suite::Gam, 0x06A0_0003, 2),
        spec("GAM_qua", Suite::Gam, 0x06A0_0004, 3),
        // INT (8)
        spec("INT_cmp", Suite::Int, 0x017E_0001, 0),
        spec("INT_gcc", Suite::Int, 0x017E_0002, 1),
        spec("INT_go", Suite::Int, 0x017E_0003, 2),
        spec("INT_ijp", Suite::Int, 0x017E_0004, 3),
        spec("INT_m88", Suite::Int, 0x017E_0005, 4),
        spec("INT_prl", Suite::Int, 0x017E_0006, 5),
        spec("INT_vtx", Suite::Int, 0x017E_0007, 6),
        spec("INT_xli", Suite::Int, 0x017E_0008, 7),
        // JAV (5)
        spec("JAV_3dg", Suite::Jav, 0x0A1A_0001, 0),
        spec("JAV_aud", Suite::Jav, 0x0A1A_0002, 1),
        spec("JAV_cfc", Suite::Jav, 0x0A1A_0003, 2),
        spec("JAV_cwc", Suite::Jav, 0x0A1A_0004, 3),
        spec("JAV_jit", Suite::Jav, 0x0A1A_0005, 4),
        // MM (8)
        spec("MM_aud", Suite::Mm, 0x03B3_0001, 0),
        spec("MM_cwc", Suite::Mm, 0x03B3_0002, 1),
        spec("MM_cws", Suite::Mm, 0x03B3_0003, 2),
        spec("MM_ind", Suite::Mm, 0x03B3_0004, 3),
        spec("MM_ine", Suite::Mm, 0x03B3_0005, 4),
        spec("MM_mpa", Suite::Mm, 0x03B3_0006, 5),
        spec("MM_mpg", Suite::Mm, 0x03B3_0007, 6),
        spec("MM_mpv", Suite::Mm, 0x03B3_0008, 7),
        // NT (8)
        spec("NT_cdw", Suite::Nt, 0x0217_0001, 0),
        spec("NT_exl", Suite::Nt, 0x0217_0002, 1),
        spec("NT_frl", Suite::Nt, 0x0217_0003, 2),
        spec("NT_pdx", Suite::Nt, 0x0217_0004, 3),
        spec("NT_pmk", Suite::Nt, 0x0217_0005, 4),
        spec("NT_pwp", Suite::Nt, 0x0217_0006, 5),
        spec("NT_wdp", Suite::Nt, 0x0217_0007, 6),
        spec("NT_wwd", Suite::Nt, 0x0217_0008, 7),
        // TPC (3)
        spec("TPC_23", Suite::Tpc, 0x07C0_0001, 0),
        spec("TPC_33", Suite::Tpc, 0x07C0_0002, 1),
        spec("TPC_b", Suite::Tpc, 0x07C0_0003, 2),
        // W95 (7)
        spec("W95_cdw", Suite::W95, 0x0950_0001, 0),
        spec("W95_exl", Suite::W95, 0x0950_0002, 1),
        spec("W95_frl", Suite::W95, 0x0950_0003, 2),
        spec("W95_prx", Suite::W95, 0x0950_0004, 3),
        spec("W95_pwp", Suite::W95, 0x0950_0005, 4),
        spec("W95_wdp", Suite::W95, 0x0950_0006, 5),
        spec("W95_wwd", Suite::W95, 0x0950_0007, 6),
    ]
}

/// Builds the workload mix that defines a suite's pattern-class profile.
fn build_suite_mix(
    suite: Suite,
    variant: u64,
    seats: &mut SeatAllocator,
    rng: &mut StdRng,
) -> MixWorkload {
    // Helper closures keep the recipes readable.
    let v = variant as usize;
    let mut mix = MixWorkload::new(120);

    let add_lists = |mix: &mut MixWorkload,
                     seats: &mut SeatAllocator,
                     rng: &mut StdRng,
                     instances: usize,
                     nodes: usize,
                     weight: u32| {
        for i in 0..instances {
            let cfg = LinkedListConfig {
                lists: 1 + (i % 2),
                nodes_per_list: nodes + (i % 5),
                field_offsets: vec![0, 4, 8],
                node_size: 32,
                layout: LayoutPolicy::Fragmented,
                mutate_every_inverse: 6,
            };
            mix.add(
                Box::new(LinkedListWorkload::new(cfg, seats.next_seat(), rng)),
                weight,
            );
        }
    };
    let add_call_sites = |mix: &mut MixWorkload,
                          seats: &mut SeatAllocator,
                          rng: &mut StdRng,
                          instances: usize,
                          loads_in_callee: usize,
                          weight: u32| {
        let patterns: [&[usize]; 3] = [&[0, 1, 2, 0], &[0, 0, 1, 2, 3], &[0, 1, 0, 2]];
        for i in 0..instances {
            let cfg = CallSiteConfig {
                sites: 4,
                pattern: patterns[i % patterns.len()].to_vec(),
                loads_in_callee,
                noise_percent: 8,
                site_block_size: 256,
            };
            mix.add(
                Box::new(CallSiteWorkload::new(cfg, seats.next_seat(), rng)),
                weight,
            );
        }
    };

    let add_globals = |mix: &mut MixWorkload,
                       seats: &mut SeatAllocator,
                       rng: &mut StdRng,
                       static_loads: usize,
                       weight: u32| {
        mix.add(
            Box::new(GlobalsWorkload::new(
                GlobalsConfig {
                    static_loads,
                    ..GlobalsConfig::default()
                },
                seats.next_seat(),
                rng,
            )),
            weight,
        );
    };
    // Bump-allocated lists: pointer chases whose nodes happen to be laid
    // out sequentially — serialised on load-to-use latency (so address
    // prediction pays) yet predictable by BOTH the stride and context
    // components. A large part of the paper's speedup comes from such
    // "regular RDS" code.
    let add_bump_lists = |mix: &mut MixWorkload,
                          seats: &mut SeatAllocator,
                          rng: &mut StdRng,
                          instances: usize,
                          nodes: usize,
                          weight: u32| {
        for i in 0..instances {
            let cfg = LinkedListConfig {
                lists: 1,
                nodes_per_list: nodes + 3 * (i % 3),
                field_offsets: vec![0, 8],
                node_size: 32,
                layout: LayoutPolicy::Bump,
                mutate_every_inverse: 0,
            };
            mix.add(
                Box::new(LinkedListWorkload::new(cfg, seats.next_seat(), rng)),
                weight,
            );
        }
    };
    let add_long_array = |mix: &mut MixWorkload,
                          seats: &mut SeatAllocator,
                          rng: &mut StdRng,
                          len: usize,
                          weight: u32| {
        mix.add(
            Box::new(ArrayWorkload::new(
                ArrayConfig {
                    arrays: vec![ArraySpec {
                        len,
                        elem_size: 8,
                        field_offsets: vec![0],
                    }],
                    skip_percent: 0,
                },
                seats.next_seat(),
                rng,
            )),
            weight,
        );
    };

    match suite {
        Suite::Int => {
            add_globals(&mut mix, seats, rng, 96, 18);
            add_bump_lists(&mut mix, seats, rng, 2, 24, 3);
            add_long_array(&mut mix, seats, rng, 3072, 3);
            add_lists(&mut mix, seats, rng, 3, 10 + v, 2);
            add_call_sites(&mut mix, seats, rng, 2, 3, 3);
            mix.add(
                Box::new(DoublyLinkedListWorkload::new(
                    DoublyLinkedListConfig::default(),
                    seats.next_seat(),
                    rng,
                )),
                1,
            );
            mix.add(
                Box::new(BinaryTreeWorkload::new(
                    BinaryTreeConfig {
                        depth: 5 + v % 3,
                        hot_paths: 3,
                        cold_percent: 15,
                        ..BinaryTreeConfig::default()
                    },
                    seats.next_seat(),
                    rng,
                )),
                2,
            );
            mix.add(
                Box::new(ArrayWorkload::new(
                    ArrayConfig {
                        arrays: vec![
                            ArraySpec {
                                len: 32 + 8 * v,
                                elem_size: 8,
                                field_offsets: vec![0],
                            },
                            ArraySpec {
                                len: 64,
                                elem_size: 16,
                                field_offsets: vec![0, 8],
                            },
                        ],
                        skip_percent: 0,
                    },
                    seats.next_seat(),
                    rng,
                )),
                6,
            );
            mix.add(
                Box::new(HashWorkload::new(
                    HashConfig {
                        cold_percent: 20,
                        ..HashConfig::default()
                    },
                    seats.next_seat(),
                    rng,
                )),
                1,
            );
            mix.add(
                Box::new(RandomWorkload::new(
                    RandomConfig {
                        static_loads: 96,
                        ..RandomConfig::default()
                    },
                    seats.next_seat(),
                    rng,
                )),
                12,
            );
        }
        Suite::Cad => {
            add_globals(&mut mix, seats, rng, 256, 26);
            add_bump_lists(&mut mix, seats, rng, 2, 32, 3);
            add_long_array(&mut mix, seats, rng, 4096, 3);
            // Big static footprint: many replicated structures.
            add_lists(&mut mix, seats, rng, 12, 8 + v, 1);
            add_call_sites(&mut mix, seats, rng, 8, 6, 1);
            mix.add(
                Box::new(ArrayWorkload::new(
                    ArrayConfig {
                        arrays: (0..6)
                            .map(|i| ArraySpec {
                                len: 48 + 16 * i,
                                elem_size: 24,
                                field_offsets: vec![0, 8, 16],
                            })
                            .collect(),
                        skip_percent: 0,
                    },
                    seats.next_seat(),
                    rng,
                )),
                6,
            );
            mix.add(
                Box::new(BinaryTreeWorkload::new(
                    BinaryTreeConfig {
                        depth: 7,
                        hot_paths: 6,
                        cold_percent: 25,
                        ..BinaryTreeConfig::default()
                    },
                    seats.next_seat(),
                    rng,
                )),
                3,
            );
            mix.add(
                Box::new(RandomWorkload::new(
                    RandomConfig {
                        static_loads: 2048,
                        ..RandomConfig::default()
                    },
                    seats.next_seat(),
                    rng,
                )),
                16,
            );
        }
        Suite::Mm => {
            add_globals(&mut mix, seats, rng, 48, 10);
            add_bump_lists(&mut mix, seats, rng, 1, 48, 3);
            // Short media loop tables: both components predict these.
            mix.add(
                Box::new(ArrayWorkload::new(
                    ArrayConfig {
                        arrays: vec![ArraySpec {
                            len: 24,
                            elem_size: 4,
                            field_offsets: vec![0],
                        }],
                        skip_percent: 0,
                    },
                    seats.next_seat(),
                    rng,
                )),
                6,
            );
            mix.add(
                Box::new(MatrixWorkload::new(
                    MatrixConfig {
                        rows: 192 + 32 * (v % 3),
                        cols: 256,
                        elem_size: 4,
                        streams: 2,
                        column_pass_every: 8,
                    },
                    seats.next_seat(),
                    rng,
                )),
                5,
            );
            mix.add(
                Box::new(MatrixWorkload::new(
                    MatrixConfig {
                        rows: 128,
                        cols: 128,
                        elem_size: 2,
                        streams: 3,
                        column_pass_every: 0,
                    },
                    seats.next_seat(),
                    rng,
                )),
                2,
            );
            mix.add(
                Box::new(ArrayWorkload::new(
                    ArrayConfig {
                        arrays: vec![ArraySpec {
                            len: 4096,
                            elem_size: 4,
                            field_offsets: vec![0],
                        }],
                        skip_percent: 0,
                    },
                    seats.next_seat(),
                    rng,
                )),
                3,
            );
            add_lists(&mut mix, seats, rng, 1, 8, 1);
            mix.add(
                Box::new(RandomWorkload::new(
                    RandomConfig {
                        static_loads: 64,
                        ..RandomConfig::default()
                    },
                    seats.next_seat(),
                    rng,
                )),
                6,
            );
        }
        Suite::Gam => {
            add_globals(&mut mix, seats, rng, 96, 13);
            add_bump_lists(&mut mix, seats, rng, 2, 24, 3);
            add_long_array(&mut mix, seats, rng, 2048, 2);
            mix.add(
                Box::new(ArrayWorkload::new(
                    ArrayConfig {
                        arrays: vec![
                            ArraySpec {
                                len: 128,
                                elem_size: 16,
                                field_offsets: vec![0, 4],
                            },
                            ArraySpec {
                                len: 256 + 64 * v,
                                elem_size: 32,
                                field_offsets: vec![0],
                            },
                        ],
                        skip_percent: 5,
                    },
                    seats.next_seat(),
                    rng,
                )),
                5,
            );
            mix.add(
                Box::new(BinaryTreeWorkload::new(
                    BinaryTreeConfig {
                        depth: 6,
                        hot_paths: 4,
                        cold_percent: 20,
                        ..BinaryTreeConfig::default()
                    },
                    seats.next_seat(),
                    rng,
                )),
                3,
            );
            add_lists(&mut mix, seats, rng, 2, 12, 2);
            mix.add(
                Box::new(RandomWorkload::new(
                    RandomConfig {
                        static_loads: 128,
                        ..RandomConfig::default()
                    },
                    seats.next_seat(),
                    rng,
                )),
                9,
            );
        }
        Suite::Jav => {
            add_globals(&mut mix, seats, rng, 64, 8);
            add_bump_lists(&mut mix, seats, rng, 1, 16, 2);
            mix.add(
                Box::new(ArrayWorkload::new(
                    ArrayConfig {
                        arrays: vec![ArraySpec {
                            len: 48,
                            elem_size: 8,
                            field_offsets: vec![0],
                        }],
                        skip_percent: 0,
                    },
                    seats.next_seat(),
                    rng,
                )),
                4,
            );
            mix.add(
                Box::new(StackWorkload::new(
                    StackConfig {
                        procedures: 6 + v,
                        loads_per_proc: 4,
                        program_len: 24,
                        ..StackConfig::default()
                    },
                    seats.next_seat(),
                    rng,
                )),
                10,
            );
            mix.add(
                Box::new(StackWorkload::new(
                    StackConfig {
                        procedures: 4,
                        loads_per_proc: 6,
                        program_len: 16,
                        ..StackConfig::default()
                    },
                    seats.next_seat(),
                    rng,
                )),
                6,
            );
            add_call_sites(&mut mix, seats, rng, 2, 4, 2);
            mix.add(
                Box::new(RandomWorkload::new(
                    RandomConfig {
                        static_loads: 256,
                        ..RandomConfig::default()
                    },
                    seats.next_seat(),
                    rng,
                )),
                8,
            );
            // The §4.3 "JAVA inner loop": a tiny array swept over and over —
            // unstable stride, perfectly context-predictable.
            mix.add(
                Box::new(ArrayWorkload::new(
                    ArrayConfig {
                        arrays: vec![ArraySpec {
                            len: 7,
                            elem_size: 4,
                            field_offsets: vec![0],
                        }],
                        skip_percent: 0,
                    },
                    seats.next_seat(),
                    rng,
                )),
                3,
            );
            add_lists(&mut mix, seats, rng, 1, 8, 1);
        }
        Suite::Tpc => {
            add_globals(&mut mix, seats, rng, 384, 12);
            add_bump_lists(&mut mix, seats, rng, 2, 40, 2);
            add_long_array(&mut mix, seats, rng, 4096, 2);
            mix.add(
                Box::new(HashWorkload::new(
                    HashConfig {
                        buckets: 4096,
                        hot_keys: 24,
                        cold_percent: 45,
                        max_chain: 3,
                        ..HashConfig::default()
                    },
                    seats.next_seat(),
                    rng,
                )),
                5,
            );
            mix.add(
                Box::new(HashWorkload::new(
                    HashConfig {
                        buckets: 1024,
                        hot_keys: 12,
                        cold_percent: 30,
                        max_chain: 2,
                        ..HashConfig::default()
                    },
                    seats.next_seat(),
                    rng,
                )),
                3,
            );
            add_lists(&mut mix, seats, rng, 4, 10, 1);
            add_call_sites(&mut mix, seats, rng, 6, 8, 1);
            mix.add(
                Box::new(ArrayWorkload::new(
                    ArrayConfig {
                        arrays: vec![ArraySpec {
                            len: 200,
                            elem_size: 64,
                            field_offsets: vec![0, 8],
                        }],
                        skip_percent: 0,
                    },
                    seats.next_seat(),
                    rng,
                )),
                2,
            );
            mix.add(
                Box::new(RandomWorkload::new(
                    RandomConfig {
                        static_loads: 4096,
                        region_size: 1 << 26,
                        ..RandomConfig::default()
                    },
                    seats.next_seat(),
                    rng,
                )),
                9,
            );
        }
        Suite::Nt | Suite::W95 => {
            let is_w95 = suite == Suite::W95;
            add_globals(
                &mut mix,
                seats,
                rng,
                if is_w95 { 320 } else { 256 },
                if is_w95 { 16 } else { 20 },
            );
            add_bump_lists(&mut mix, seats, rng, 2, 28, 2);
            add_long_array(&mut mix, seats, rng, 3072, 2);
            add_lists(&mut mix, seats, rng, 8, 10 + v % 4, 1);
            add_call_sites(&mut mix, seats, rng, 12, 6, 1);
            mix.add(
                Box::new(StackWorkload::new(
                    StackConfig::default(),
                    seats.next_seat(),
                    rng,
                )),
                2,
            );
            mix.add(
                Box::new(ArrayWorkload::new(
                    ArrayConfig {
                        arrays: vec![
                            ArraySpec {
                                len: 96,
                                elem_size: 8,
                                field_offsets: vec![0],
                            },
                            ArraySpec {
                                len: 160,
                                elem_size: 12,
                                field_offsets: vec![0, 4],
                            },
                        ],
                        skip_percent: 2,
                    },
                    seats.next_seat(),
                    rng,
                )),
                6,
            );
            mix.add(
                Box::new(HashWorkload::new(
                    HashConfig {
                        cold_percent: if is_w95 { 40 } else { 25 },
                        ..HashConfig::default()
                    },
                    seats.next_seat(),
                    rng,
                )),
                2,
            );
            mix.add(
                Box::new(RandomWorkload::new(
                    RandomConfig {
                        static_loads: if is_w95 { 5120 } else { 3072 },
                        ..RandomConfig::default()
                    },
                    seats.next_seat(),
                    rng,
                )),
                if is_w95 { 14 } else { 12 },
            );
        }
    }
    mix
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn catalog_has_45_traces_with_paper_group_sizes() {
        let cat = catalog();
        assert_eq!(cat.len(), 45);
        let count = |s: Suite| cat.iter().filter(|t| t.suite == s).count();
        assert_eq!(count(Suite::Int), 8);
        assert_eq!(count(Suite::Cad), 2);
        assert_eq!(count(Suite::Mm), 8);
        assert_eq!(count(Suite::Gam), 4);
        assert_eq!(count(Suite::Jav), 5);
        assert_eq!(count(Suite::Tpc), 3);
        assert_eq!(count(Suite::Nt), 8);
        assert_eq!(count(Suite::W95), 7);
    }

    #[test]
    fn trace_names_are_unique() {
        let cat = catalog();
        let names: BTreeSet<&str> = cat.iter().map(|t| t.name).collect();
        assert_eq!(names.len(), cat.len());
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = &catalog()[0];
        let a = spec.generate(2_000);
        let b = spec.generate(2_000);
        assert_eq!(a, b);
    }

    #[test]
    fn every_trace_generates_and_meets_budget() {
        for spec in catalog() {
            let t = spec.generate(500);
            assert!(
                t.load_count() >= 500,
                "{} produced only {} loads",
                spec.name,
                t.load_count()
            );
        }
    }

    #[test]
    fn suite_traces_filter_matches() {
        assert_eq!(Suite::Jav.traces().len(), 5);
        assert!(Suite::Jav.traces().iter().all(|t| t.suite == Suite::Jav));
    }

    #[test]
    fn pressure_suites_have_larger_static_footprints() {
        let footprint = |suite: Suite| {
            let t = suite.traces()[0].generate(20_000);
            t.loads().map(|l| l.ip).collect::<BTreeSet<_>>().len()
        };
        let tpc = footprint(Suite::Tpc);
        let int = footprint(Suite::Int);
        assert!(
            tpc > 2 * int,
            "TPC static footprint ({tpc}) should dwarf INT ({int})"
        );
    }

    #[test]
    fn mm_suite_is_stride_dominated() {
        let t = Suite::Mm.traces()[0].generate(10_000);
        // Measure the fraction of per-IP consecutive deltas that are
        // constant — a crude stride-ness metric.
        use std::collections::HashMap;
        let mut last: HashMap<u64, (u64, Option<i64>)> = HashMap::new();
        let mut same = 0usize;
        let mut total = 0usize;
        for l in t.loads() {
            let e = last.entry(l.ip).or_insert((l.addr, None));
            let delta = l.addr as i64 - e.0 as i64;
            if let Some(prev_delta) = e.1 {
                total += 1;
                if prev_delta == delta {
                    same += 1;
                }
            }
            *e = (l.addr, Some(delta));
        }
        assert!(
            same as f64 / total as f64 > 0.6,
            "MM should be mostly stride ({same}/{total})"
        );
    }
}
