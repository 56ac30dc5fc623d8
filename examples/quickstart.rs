//! Quickstart: generate a synthetic trace, run the paper's three
//! predictors over it, and print their headline metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cap_repro::prelude::*;

fn main() {
    // 1. Pick a trace from the 45-trace catalog (here: the first
    //    SPECint-like trace) and generate 50k dynamic loads.
    let spec = Suite::Int.traces().into_iter().next().expect("catalog");
    let trace = spec.generate(50_000);
    println!(
        "trace {}: {} instructions, {} loads",
        spec.name,
        trace.len(),
        trace.load_count()
    );

    // 2. Build the paper's three predictors at their baseline
    //    configurations (4K-entry 2-way LB, 4K direct-mapped LT).
    let mut stride = StridePredictor::new(
        LoadBufferConfig::paper_default(),
        StrideParams::paper_default(),
    );
    let mut cap = CapPredictor::new(CapConfig::paper_default());
    let mut hybrid = HybridPredictor::new(HybridConfig::paper_default());

    // 3. Run each under the immediate-update model of Section 4.
    println!(
        "\n{:<18} {:>15} {:>10}",
        "predictor", "prediction rate", "accuracy"
    );
    for (name, stats) in [
        ("enhanced stride", Session::new(&mut stride).run(&trace)),
        ("CAP", Session::new(&mut cap).run(&trace)),
        ("hybrid", Session::new(&mut hybrid).run(&trace)),
    ] {
        println!(
            "{:<18} {:>14.1}% {:>9.2}%",
            name,
            100.0 * stats.prediction_rate(),
            100.0 * stats.accuracy()
        );
    }

    println!(
        "\nThe hybrid covers both the stride patterns (arrays) and the\n\
         context patterns (linked lists, call-site-correlated loads) that\n\
         each component alone misses — the paper's central claim."
    );
}
