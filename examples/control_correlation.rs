//! Control-correlated loads — the paper's Section 2.2 (`xlmatch`).
//!
//! A shared callee's loads take their addresses from the call site. When
//! the call-site pattern recurs (`a-c-u-a`), the addresses form a
//! recurring, stride-hostile sequence that a context predictor captures
//! once its history spans one period — which is why control-correlated
//! code needs *longer* histories than plain RDS walks (§3.2).
//!
//! ```text
//! cargo run --release --example control_correlation
//! ```

use cap_rand::SeedableRng;
use cap_repro::prelude::*;
use cap_trace::gen::call_site::{CallSiteConfig, CallSiteWorkload};

fn run_with_history(trace: &cap_trace::Trace, length: usize) -> PredictorStats {
    let mut cfg = CapConfig::paper_default();
    cfg.params.history.length = length;
    let mut cap = CapPredictor::new(cfg);
    Session::new(&mut cap).run(trace)
}

fn main() {
    // An xllastarg-style pattern: called three times in a row from `a`
    // (with the same arguments), then from `u` and `c`. After seeing A the
    // next address may be A again or U — only a history spanning the
    // repetition run disambiguates, which is why control-correlated loads
    // need longer histories than RDS walks (§3.2).
    let mut seats = SeatAllocator::new();
    let mut rng = cap_rand::rngs::StdRng::seed_from_u64(95);
    let mut callee = CallSiteWorkload::new(
        CallSiteConfig {
            sites: 4,
            pattern: vec![0, 0, 0, 1, 2],
            loads_in_callee: 3,
            noise_percent: 0,
            site_block_size: 256,
        },
        seats.next_seat(),
        &mut rng,
    );
    let mut builder = TraceBuilder::new();
    callee.emit(&mut builder, &mut rng, 20_000);
    let trace = builder.finish();

    let fingerprint: Vec<u64> = trace.loads().take(15).map(|l| l.addr).collect();
    println!("callee-load fingerprint (period 5, note A1 A1 ... pattern):");
    for chunk in fingerprint.chunks(5) {
        println!("  {chunk:06x?}");
    }

    println!(
        "\n{:<20} {:>15} {:>10}",
        "history length", "prediction rate", "accuracy"
    );
    for length in [1, 2, 3, 4, 6] {
        let stats = run_with_history(&trace, length);
        println!(
            "{:<20} {:>14.1}% {:>9.2}%",
            length,
            100.0 * stats.prediction_rate(),
            100.0 * stats.accuracy()
        );
    }

    let mut stride = StridePredictor::new(
        LoadBufferConfig::paper_default(),
        StrideParams::paper_default(),
    );
    let s = Session::new(&mut stride).run(&trace);
    println!(
        "\nenhanced stride manages {:.1}% — control-correlated sequences are\n\
         exactly the class the paper built CAP for.",
        100.0 * s.prediction_rate()
    );
}
