//! Software-assisted prediction — the paper's §6 future-work directions,
//! implemented: profile a trace once, classify its static loads, and run a
//! predictor that spends table space only where the class calls for it.
//! Also demonstrates chained multi-ahead prediction (§5.4).
//!
//! ```text
//! cargo run --release --example software_assist
//! ```

use cap_predictor::profile::{LoadClass, ProfileGuidedPredictor, Profiler};
use cap_repro::prelude::*;

fn main() {
    // A pressure suite: thousands of static loads fighting over the tables.
    let spec = Suite::Tpc.traces().into_iter().next().expect("catalog");
    let trace = spec.generate(80_000);
    println!("trace {}: {} loads", spec.name, trace.load_count());

    // 1. Profiling pass: classify every static load.
    let classes = Profiler::profile_trace(&trace);
    println!(
        "\nprofile: {} static loads — {} constant, {} stride, {} context, {} unknown",
        classes.len(),
        classes.count(LoadClass::Constant),
        classes.count(LoadClass::Stride),
        classes.count(LoadClass::Context),
        classes.count(LoadClass::Unknown),
    );

    // 2. Quarter-size tables: 1K-entry LB, 1K-entry LT.
    let lb = LoadBufferConfig {
        entries: 1024,
        assoc: 2,
    };
    let lt = LinkTableConfig {
        entries: 1024,
        ..LinkTableConfig::paper_default()
    };
    let mut cap_params = CapParams::paper_default();
    cap_params.history.index_bits = 10;

    let mut plain = {
        let mut cfg = HybridConfig::paper_default();
        cfg.lb = lb;
        cfg.lt = lt;
        cfg.cap = cap_params;
        HybridPredictor::new(cfg)
    };
    let plain_stats = Session::new(&mut plain).run(&trace);

    let mut guided =
        ProfileGuidedPredictor::new(classes, lb, lt, cap_params, StrideParams::paper_default());
    let guided_stats = Session::new(&mut guided).run(&trace);

    println!("\nat 1K/1K tables (quarter of the paper's baseline):");
    println!(
        "  plain hybrid   : {:>5.1}% correct/loads at {:.2}% accuracy",
        100.0 * plain_stats.correct_spec_rate(),
        100.0 * plain_stats.accuracy()
    );
    println!(
        "  profile-guided : {:>5.1}% correct/loads at {:.2}% accuracy",
        100.0 * guided_stats.correct_spec_rate(),
        100.0 * guided_stats.accuracy()
    );
    println!(
        "\nunknown loads never touch the tables, so the classified loads keep\n\
         their entries — the paper's 'reduces predictor size, eliminates\n\
         prediction table pollution' (§6)."
    );

    // 3. Multi-ahead prediction (§5.4): chain LT lookups through a pattern.
    let mut cap = CapPredictor::new(CapConfig::paper_default());
    let pattern = [0x1010u64, 0x88A4, 0x4858, 0x2B3C];
    for _ in 0..8 {
        for &a in &pattern {
            let ctx = LoadContext::new(0x40, 0, 0);
            let pred = cap.predict(&ctx);
            cap.update(&ctx, a, &pred);
        }
    }
    let ahead = cap.predict_ahead(0x40, 6);
    println!(
        "\nmulti-ahead prediction (§5.4): next 6 instances of one load in a\n\
         single query: {ahead:04x?}"
    );
}
