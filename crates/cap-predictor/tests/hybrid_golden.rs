//! Golden pin of the hybrid predictor's observable behaviour.
//!
//! Every case drives `HybridPredictor` through one trace with
//! `drive::Session` and renders one line: each `PredictorStats` counter
//! plus a 64-bit FNV-1a digest over every field of every `Prediction`
//! the predictor returned. The matrix covers:
//!
//! * one representative trace per generator family at `paper_default`;
//! * each configuration point the tables encode differently (decoupled
//!   PF, per-path CFI, hysteresis, LT update policies, static
//!   selectors), each on a rotating family;
//! * the pipelined model at prediction gaps 1, 3 and 8;
//! * gap 4 with 10% wrong-path fetch and recovery;
//! * 10% wrong-path pollution at gap 0 and at gap 4, and the value
//!   stream at gap 0.
//!
//! Any diff against `tests/golden/hybrid_matrix.txt` is a behaviour
//! change of the predictor or of the trace generators.
//!
//! To regenerate after an *intentional* behaviour change:
//! `CAP_UPDATE_GOLDEN=1 cargo test -p cap-predictor --test hybrid_golden`

use cap_predictor::confidence::CfiMode;
use cap_predictor::drive::Session;
use cap_predictor::hybrid::{HybridConfig, HybridPredictor, LtUpdatePolicy, SelectorPolicy};
use cap_predictor::link_table::PfMode;
use cap_predictor::metrics::PredictorStats;
use cap_predictor::types::{
    AddressPredictor, LoadContext, PredSource, Prediction, PredictionDetail,
};
use cap_trace::suites::{catalog, Suite, TraceSpec};
use std::path::PathBuf;

/// FNV-1a, 64-bit: a fixed, dependency-free digest whose value cannot
/// drift with the standard library's hasher.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn flag(&mut self, v: bool) {
        self.bytes(&[u8::from(v)]);
    }

    fn opt(&mut self, v: Option<u64>) {
        match v {
            None => self.bytes(&[0]),
            Some(x) => {
                self.bytes(&[1]);
                self.u64(x);
            }
        }
    }

    /// Folds in every field of `p`. The destructuring is exhaustive, so
    /// a new `Prediction` field fails to compile here until it is
    /// digested too.
    fn prediction(&mut self, p: &Prediction) {
        let Prediction {
            addr,
            speculate,
            source,
            detail,
        } = *p;
        let PredictionDetail {
            stride_addr,
            stride_confident,
            cap_addr,
            cap_confident,
            selector_state,
            next_invocation,
        } = detail;
        self.opt(addr);
        self.flag(speculate);
        self.bytes(&[match source {
            PredSource::None => 0,
            PredSource::LastAddress => 1,
            PredSource::Stride => 2,
            PredSource::Cap => 3,
            PredSource::ControlBased => 4,
        }]);
        self.opt(stride_addr);
        self.flag(stride_confident);
        self.opt(cap_addr);
        self.flag(cap_confident);
        self.opt(selector_state.map(u64::from));
        self.opt(next_invocation);
    }
}

/// Forwards to the wrapped predictor and digests every prediction it
/// hands back, in call order.
struct Digesting<P> {
    inner: P,
    digest: Fnv,
}

impl<P: AddressPredictor> AddressPredictor for Digesting<P> {
    fn predict(&mut self, ctx: &LoadContext) -> Prediction {
        let pred = self.inner.predict(ctx);
        self.digest.prediction(&pred);
        pred
    }

    fn update(&mut self, ctx: &LoadContext, actual: u64, pred: &Prediction) {
        self.inner.update(ctx, actual, pred);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// One representative trace per generator family (suite), in catalog
/// order.
fn family_reps() -> Vec<TraceSpec> {
    let mut reps: Vec<TraceSpec> = Vec::new();
    let mut seen: Vec<Suite> = Vec::new();
    for spec in catalog() {
        if !seen.contains(&spec.suite) {
            seen.push(spec.suite);
            reps.push(spec);
        }
    }
    reps
}

/// The paper defaults, the pipelined model, and each mechanism with its
/// own table encoding.
fn config_points() -> Vec<(&'static str, HybridConfig)> {
    let mut points = vec![
        ("paper_default", HybridConfig::paper_default()),
        ("paper_pipelined", HybridConfig::paper_pipelined()),
    ];
    let mut c = HybridConfig::paper_default();
    c.lt.pf_mode = PfMode::Decoupled {
        extra_index_bits: 2,
    };
    points.push(("decoupled_pf", c));
    let mut c = HybridConfig::paper_default();
    c.cap.cfi = CfiMode::PerPath { bits: 4 };
    c.stride.cfi = CfiMode::PerPath { bits: 3 };
    points.push(("per_path_cfi", c));
    let mut c = HybridConfig::paper_default();
    c.cap.hysteresis = true;
    c.stride.hysteresis = true;
    points.push(("hysteresis", c));
    let mut c = HybridConfig::paper_default();
    c.lt_update = LtUpdatePolicy::UnlessStrideCorrect;
    points.push(("lt_unless_stride_correct", c));
    let mut c = HybridConfig::paper_default();
    c.lt_update = LtUpdatePolicy::UnlessStrideCorrectAndSelected;
    points.push(("lt_unless_stride_correct_and_selected", c));
    let mut c = HybridConfig::paper_default();
    c.selector = SelectorPolicy::StaticCap;
    points.push(("static_cap", c));
    let mut c = HybridConfig::paper_default();
    c.selector = SelectorPolicy::StaticStride;
    points.push(("static_stride", c));
    points
}

/// Runs `configure(Session)` over a fresh hybrid and renders the line.
fn case(
    label: &str,
    config: HybridConfig,
    configure: impl FnOnce(Session<'_, Digesting<HybridPredictor>>) -> PredictorStats,
) -> String {
    let mut p = Digesting {
        inner: HybridPredictor::new(config),
        digest: Fnv::new(),
    };
    let PredictorStats {
        loads,
        predictions,
        spec_accesses,
        correct_spec,
        correct_predictions,
        both_predicted_spec,
        selector_states: [s0, s1, s2, s3],
        miss_selections,
    } = configure(Session::new(&mut p));
    format!(
        "{label} loads={loads} predictions={predictions} spec_accesses={spec_accesses} \
         correct_spec={correct_spec} correct_predictions={correct_predictions} \
         both_predicted_spec={both_predicted_spec} selector_states={s0},{s1},{s2},{s3} \
         miss_selections={miss_selections} digest={:016x}\n",
        p.digest.0
    )
}

fn render_matrix() -> String {
    let mut out = String::new();
    let reps = family_reps();
    for spec in &reps {
        let trace = spec.generate(6_000);
        let label = format!("family/{}/paper_default", spec.name);
        out += &case(&label, HybridConfig::paper_default(), |s| s.run(&trace));
    }
    for (i, (point, config)) in config_points().into_iter().enumerate() {
        let spec = &reps[i % reps.len()];
        let trace = spec.generate(6_000);
        let label = format!("config/{point}/{}", spec.name);
        out += &case(&label, config, |s| s.run(&trace));
    }
    let spec = &catalog()[0];
    let trace = spec.generate(10_000);
    for gap in [1usize, 3, 8] {
        let label = format!("gap/{gap}/{}/paper_pipelined", spec.name);
        out += &case(&label, HybridConfig::paper_pipelined(), |s| {
            s.gap(gap).run(&trace)
        });
    }
    let spec = &catalog()[4 % catalog().len()];
    let trace = spec.generate(10_000);
    // Perfect recovery undoes everything the wrong path did, so a gapped
    // session without wrong-path loads is that row. The label keeps its
    // old name so the golden file stays byte-identical.
    let label = format!(
        "wrong_path/gap4_10pct_recovery/{}/paper_pipelined",
        spec.name
    );
    out += &case(&label, HybridConfig::paper_pipelined(), |s| {
        s.gap(4).run(&trace)
    });
    // Pollution without recovery, immediate and pipelined, and the value
    // stream: each drives a path of `Session::run` the rows above never
    // reach.
    let label = format!("wrong_path/gap0_10pct/{}/paper_default", spec.name);
    out += &case(&label, HybridConfig::paper_default(), |s| {
        s.wrong_path(10).run(&trace)
    });
    let label = format!("wrong_path/gap4_10pct/{}/paper_pipelined", spec.name);
    out += &case(&label, HybridConfig::paper_pipelined(), |s| {
        s.gap(4).wrong_path(10).run(&trace)
    });
    let label = format!("values/gap0/{}/paper_default", spec.name);
    out += &case(&label, HybridConfig::paper_default(), |s| {
        s.values(true).run(&trace)
    });
    out
}

#[test]
fn hybrid_matrix_is_golden() {
    let actual = render_matrix();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/hybrid_matrix.txt");
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
        assert_eq!(want, got, "hybrid_matrix.txt line {} drifted", i + 1);
    }
    assert!(
        expected == actual,
        "hybrid_matrix.txt drifted ({} vs {} bytes); if the change is \
         intentional, regenerate with CAP_UPDATE_GOLDEN=1",
        expected.len(),
        actual.len()
    );
}
