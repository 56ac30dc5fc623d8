//! Recursive-data-structure walkthrough — the paper's Section 2.1 example.
//!
//! Builds a fragmented-heap linked list with three fields per node (like
//! xlisp's NODE record with `car`, `cdr`, `n_type`), shows that a stride
//! predictor cannot follow it, that CAP learns it after one traversal, and
//! that *global correlation* lets the `val` field piggyback on links
//! trained by the `next` field.
//!
//! ```text
//! cargo run --release --example rds_traversal
//! ```

use cap_rand::SeedableRng;
use cap_repro::prelude::*;
use cap_trace::alloc::LayoutPolicy;
use cap_trace::gen::linked_list::{LinkedListConfig, LinkedListWorkload};

fn main() {
    // A 12-node list on a fragmented heap: node addresses are irregular.
    let mut seats = SeatAllocator::new();
    let mut rng = cap_rand::rngs::StdRng::seed_from_u64(1999);
    let mut list = LinkedListWorkload::new(
        LinkedListConfig {
            lists: 1,
            nodes_per_list: 12,
            field_offsets: vec![0, 4, 8], // n_type, car/val, cdr/next
            node_size: 32,
            layout: LayoutPolicy::Fragmented,
            mutate_every_inverse: 0,
        },
        seats.next_seat(),
        &mut rng,
    );
    let mut builder = TraceBuilder::new();
    list.emit(&mut builder, &mut rng, 20_000);
    let trace = builder.finish();

    // Show the fingerprint: the first few next-field addresses.
    let next_addrs: Vec<u64> = trace
        .loads()
        .filter(|l| l.offset == 8)
        .take(8)
        .map(|l| l.addr)
        .collect();
    println!("next-field address fingerprint: {next_addrs:04x?}");
    let deltas: Vec<i64> = next_addrs
        .windows(2)
        .map(|w| w[1] as i64 - w[0] as i64)
        .collect();
    println!("deltas (no constant stride!):   {deltas:?}\n");

    let mut stride = StridePredictor::new(
        LoadBufferConfig::paper_default(),
        StrideParams::paper_default(),
    );
    let mut cap = CapPredictor::new(CapConfig::paper_default());
    let mut cap_no_gc = {
        let mut cfg = CapConfig::paper_default();
        cfg.params.global_correlation = false;
        CapPredictor::new(cfg)
    };

    println!(
        "{:<28} {:>15} {:>10}",
        "predictor", "prediction rate", "accuracy"
    );
    for (name, stats) in [
        ("enhanced stride", Session::new(&mut stride).run(&trace)),
        ("CAP (base addresses)", Session::new(&mut cap).run(&trace)),
        (
            "CAP (no global correlation)",
            Session::new(&mut cap_no_gc).run(&trace),
        ),
    ] {
        println!(
            "{:<28} {:>14.1}% {:>9.2}%",
            name,
            100.0 * stats.prediction_rate(),
            100.0 * stats.accuracy()
        );
    }

    println!(
        "\nAll three static loads of the traversal share the same node base\n\
         addresses, so with global correlation they share Link Table entries:\n\
         one field's update trains every field's predictions (§3.3)."
    );
}
