//! Golden pin of the timing core's simulated results.
//!
//! Every case runs `OooCore` over one catalog trace and renders one
//! line: each `CoreStats` field (the L1 hit rate as its raw bits) and
//! each `PredictorStats` counter. The matrix takes the first trace of
//! each suite at 20 000 loads and runs it seven ways:
//!
//! * no predictor, §4.1 defaults;
//! * the paper-default hybrid at gap 0;
//! * the pipelined hybrid (`HybridConfig::paper_pipelined`) at gap 8;
//! * the paper-default hybrid with stride prefetching on;
//! * no predictor with a 16-entry ROB;
//! * no predictor, 1 wide with a 2-entry ROB;
//! * the paper-default hybrid at gap 0, 2 wide with a 4-entry ROB.
//!
//! The last two narrow fetch, dispatch and commit, so the in-order
//! stages, not the ALUs or ports, bound the schedule.
//!
//! A last case runs two traces back to back through one core and one
//! predictor, so state carried across `run` calls (slot bookings, caches,
//! the periodic prune points) is pinned too.
//!
//! Any diff against `tests/golden/core_matrix.txt` is a change in
//! simulated timing, of the predictor, or of the trace generators.
//!
//! To regenerate after an *intentional* behaviour change:
//! `CAP_UPDATE_GOLDEN=1 cargo test -p cap-uarch --test core_golden`

use cap_predictor::hybrid::{HybridConfig, HybridPredictor};
use cap_predictor::metrics::PredictorStats;
use cap_predictor::types::AddressPredictor;
use cap_trace::suites::{catalog, Suite, TraceSpec};
use cap_trace::Trace;
use cap_uarch::core::{CoreConfig, CoreStats, OooCore};
use std::path::PathBuf;

/// Loads generated per trace, as in the figure sweeps.
const LOADS: usize = 20_000;

/// The first trace of each suite, in catalog order.
fn suite_firsts() -> Vec<TraceSpec> {
    let mut firsts: Vec<TraceSpec> = Vec::new();
    let mut seen: Vec<Suite> = Vec::new();
    for spec in catalog() {
        if !seen.contains(&spec.suite) {
            seen.push(spec.suite);
            firsts.push(spec);
        }
    }
    firsts
}

/// Renders one case. The destructuring is exhaustive, so a new field
/// fails to compile here until it is pinned too.
fn line(label: &str, stats: &CoreStats) -> String {
    let CoreStats {
        cycles,
        instructions,
        loads,
        branch_mispredicts,
        prefetches,
        l1_hit_rate,
        pred,
    } = stats;
    let PredictorStats {
        loads: pred_loads,
        predictions,
        spec_accesses,
        correct_spec,
        correct_predictions,
        both_predicted_spec,
        selector_states: [s0, s1, s2, s3],
        miss_selections,
    } = pred;
    format!(
        "{label} cycles={cycles} instructions={instructions} loads={loads} \
         branch_mispredicts={branch_mispredicts} prefetches={prefetches} \
         l1_hit_rate={:016x} pred_loads={pred_loads} predictions={predictions} \
         spec_accesses={spec_accesses} correct_spec={correct_spec} \
         correct_predictions={correct_predictions} \
         both_predicted_spec={both_predicted_spec} selector_states={s0},{s1},{s2},{s3} \
         miss_selections={miss_selections}\n",
        l1_hit_rate.to_bits()
    )
}

/// One way of running a trace: a core configuration, an optional
/// predictor configuration and the prediction gap.
struct Way {
    name: &'static str,
    core: CoreConfig,
    predictor: Option<HybridConfig>,
    gap: usize,
}

fn ways() -> Vec<Way> {
    let paper = CoreConfig::paper_default();
    let mut prefetch = paper;
    prefetch.prefetch = true;
    let mut rob16 = paper;
    rob16.rob_entries = 16;
    let mut w1_rob2 = paper;
    w1_rob2.width = 1;
    w1_rob2.rob_entries = 2;
    let mut w2_rob4 = paper;
    w2_rob4.width = 2;
    w2_rob4.rob_entries = 4;
    vec![
        Way {
            name: "base",
            core: paper,
            predictor: None,
            gap: 0,
        },
        Way {
            name: "hybrid_gap0",
            core: paper,
            predictor: Some(HybridConfig::paper_default()),
            gap: 0,
        },
        Way {
            name: "pipelined_gap8",
            core: paper,
            predictor: Some(HybridConfig::paper_pipelined()),
            gap: 8,
        },
        Way {
            name: "hybrid_prefetch",
            core: prefetch,
            predictor: Some(HybridConfig::paper_default()),
            gap: 0,
        },
        Way {
            name: "base_rob16",
            core: rob16,
            predictor: None,
            gap: 0,
        },
        Way {
            name: "base_w1_rob2",
            core: w1_rob2,
            predictor: None,
            gap: 0,
        },
        Way {
            name: "hybrid_w2_rob4",
            core: w2_rob4,
            predictor: Some(HybridConfig::paper_default()),
            gap: 0,
        },
    ]
}

fn run(
    core: &mut OooCore,
    trace: &Trace,
    predictor: Option<&mut HybridPredictor>,
    gap: usize,
) -> CoreStats {
    core.run(
        trace,
        predictor.map(|p| p as &mut dyn AddressPredictor),
        gap,
    )
}

fn render_matrix() -> String {
    let mut out = String::new();
    let firsts = suite_firsts();
    let traces: Vec<Trace> = firsts.iter().map(|s| s.generate(LOADS)).collect();
    for (spec, trace) in firsts.iter().zip(&traces) {
        for way in ways() {
            let mut core = OooCore::new(way.core);
            let mut pred = way.predictor.map(HybridPredictor::new);
            let stats = run(&mut core, trace, pred.as_mut(), way.gap);
            out += &line(&format!("{}/{}", spec.name, way.name), &stats);
        }
    }
    // Back to back: the second run starts from the first one's core and
    // predictor state, and its stats accumulate over both traces.
    let mut core = OooCore::new(CoreConfig::paper_default());
    let mut pred = HybridPredictor::new(HybridConfig::paper_default());
    for (spec, trace) in firsts.iter().zip(&traces).take(2) {
        let stats = run(&mut core, trace, Some(&mut pred), 0);
        out += &line(&format!("back_to_back/{}/hybrid_gap0", spec.name), &stats);
    }
    out
}

#[test]
fn core_matrix_is_golden() {
    let actual = render_matrix();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/core_matrix.txt");
    if std::env::var_os("CAP_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with CAP_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    for (i, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "core_matrix.txt line {} drifted", i + 1);
    }
    assert!(
        expected == actual,
        "core_matrix.txt drifted ({} vs {} bytes); if the change is \
         intentional, regenerate with CAP_UPDATE_GOLDEN=1",
        expected.len(),
        actual.len()
    );
}
