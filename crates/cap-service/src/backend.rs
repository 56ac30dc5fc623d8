//! Prediction backends as trait objects, dispatched through one static
//! registry.
//!
//! A service worker holds its primary and fallback as `Box<dyn Backend>`,
//! and so does a supervised `simulate run`, so the paper's three
//! predictors are data, not a hardcoded enum. Every per-kind fact (CLI
//! name, snapshot tag, constructor, snapshot decoder) lives in exactly
//! one row of [`BACKEND_REGISTRY`]; the [`BackendKind`] methods are thin
//! lookups over it, which is why registering a new backend is a one-row
//! edit and why nothing outside this module is allowed to `match` on
//! `BackendKind` (enforced by the root `tests/repo_invariants.rs`).
//! Restore paths decode through [`BackendKind`] tags because
//! `Restorable` is a constructor and cannot ride on the trait object.

use cap_faults::target::FaultTarget;
use cap_predictor::cap::{CapConfig, CapPredictor};
use cap_predictor::hybrid::{HybridConfig, HybridPredictor};
use cap_predictor::load_buffer::LoadBufferConfig;
use cap_predictor::stride::{StrideParams, StridePredictor};
use cap_predictor::types::AddressPredictor;
use cap_snapshot::{Restorable, SectionReader, Snapshot, SnapshotError};
use std::fmt;

/// What a registry row builds: a predictor that snapshots its state,
/// takes injected faults, and moves between threads. Every in-tree
/// predictor gets it from the blanket impl, and the rows compile only
/// while it stays dyn-compatible.
pub trait Backend: AddressPredictor + Snapshot + FaultTarget + Send {}

impl<T: AddressPredictor + Snapshot + FaultTarget + Send> Backend for T {}

/// Which concrete predictor a backend slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The paper's stride + CAP hybrid (§3.5).
    Hybrid,
    /// Pure CAP (§3.3).
    Cap,
    /// Enhanced stride (§3.2).
    Stride,
}

/// One registered backend: everything the service stack needs to know
/// about a kind, in one row. Adding a backend means adding one row to
/// [`BACKEND_REGISTRY`] (plus the enum variant it names).
pub struct BackendDescriptor {
    /// The kind this row describes.
    pub kind: BackendKind,
    /// Short lowercase name (breaker stats, CLI, wire errors).
    pub name: &'static str,
    /// Snapshot tag (stable across releases — never reuse a value).
    pub tag: u8,
    /// Builds a fresh paper-default instance.
    pub build: fn() -> Box<dyn Backend>,
    /// Decodes an instance from a snapshot section.
    pub restore: fn(&mut SectionReader<'_>) -> Result<Box<dyn Backend>, SnapshotError>,
}

impl fmt::Debug for BackendDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BackendDescriptor")
            .field("kind", &self.kind)
            .field("name", &self.name)
            .field("tag", &self.tag)
            .finish_non_exhaustive()
    }
}

fn build_hybrid() -> Box<dyn Backend> {
    Box::new(HybridPredictor::new(HybridConfig::paper_default()))
}

fn build_cap() -> Box<dyn Backend> {
    Box::new(CapPredictor::new(CapConfig::paper_default()))
}

fn build_stride() -> Box<dyn Backend> {
    Box::new(StridePredictor::new(
        LoadBufferConfig::paper_default(),
        StrideParams::paper_default(),
    ))
}

fn restore_boxed<P: Backend + Restorable + 'static>(
    r: &mut SectionReader<'_>,
) -> Result<Box<dyn Backend>, SnapshotError> {
    Ok(Box::new(P::read_state(r)?))
}

/// The single dispatch table for every selectable backend.
pub static BACKEND_REGISTRY: &[BackendDescriptor] = &[
    BackendDescriptor {
        kind: BackendKind::Hybrid,
        name: "hybrid",
        tag: 0,
        build: build_hybrid,
        restore: restore_boxed::<HybridPredictor>,
    },
    BackendDescriptor {
        kind: BackendKind::Cap,
        name: "cap",
        tag: 1,
        build: build_cap,
        restore: restore_boxed::<CapPredictor>,
    },
    BackendDescriptor {
        kind: BackendKind::Stride,
        name: "stride",
        tag: 2,
        build: build_stride,
        restore: restore_boxed::<StridePredictor>,
    },
    // Tags 3 to 6 are retired, never to be reused. An archive under a
    // retired tag fails with `BadSnapshot` like any unregistered tag, and
    // `Service::restore_or_cold` turns that into a counted cold start.
    // - 3 named a second implementation of the hybrid whose snapshot
    //   layout differed from `HybridPredictor`'s, so an alias to `hybrid`
    //   would have kept a decoder for that layout alive.
    // - 4 (`cache-level`), 5 (`ldbp`) and 6 (`pcax`) named related-work
    //   backends that served their inner stride or hybrid predictor's
    //   predictions unchanged. Each paper's claim needs a core mechanism
    //   the timing model lacks: consumers scheduled at an assumed cache
    //   level, branches that depend on loads, and a TLB-miss penalty.
];

/// A backend name that matched nothing in [`BACKEND_REGISTRY`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendParseError {
    input: String,
}

impl BackendParseError {
    /// The rejected input.
    #[must_use]
    pub fn input(&self) -> &str {
        &self.input
    }
}

impl fmt::Display for BackendParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown backend '{}' (valid backends: {})",
            self.input,
            registered_names().join(", ")
        )
    }
}

impl std::error::Error for BackendParseError {}

/// Every registered backend name, in registry order.
#[must_use]
pub fn registered_names() -> Vec<&'static str> {
    BACKEND_REGISTRY.iter().map(|d| d.name).collect()
}

impl BackendKind {
    /// This kind's registry row.
    #[must_use]
    pub fn descriptor(self) -> &'static BackendDescriptor {
        BACKEND_REGISTRY
            .iter()
            .find(|d| d.kind == self)
            .expect("every BackendKind variant has a registry row")
    }

    /// Short lowercase name (breaker stats, CLI).
    #[must_use]
    pub fn name(self) -> &'static str {
        self.descriptor().name
    }

    /// Parses a CLI/wire name (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns a [`BackendParseError`] listing the registered names
    /// when `s` matches none of them.
    pub fn parse(s: &str) -> Result<Self, BackendParseError> {
        BACKEND_REGISTRY
            .iter()
            .find(|d| d.name.eq_ignore_ascii_case(s))
            .map(|d| d.kind)
            .ok_or_else(|| BackendParseError { input: s.to_owned() })
    }

    /// Snapshot tag.
    #[must_use]
    pub fn tag(self) -> u8 {
        self.descriptor().tag
    }

    /// Inverse of [`BackendKind::tag`].
    #[must_use]
    pub fn from_tag(tag: u8) -> Option<Self> {
        BACKEND_REGISTRY.iter().find(|d| d.tag == tag).map(|d| d.kind)
    }

    /// A fresh paper-default backend of this kind.
    #[must_use]
    pub fn build(self) -> Box<dyn Backend> {
        (self.descriptor().build)()
    }

    /// Decodes a backend of this kind from a snapshot section.
    ///
    /// # Errors
    ///
    /// Propagates decode failures from the underlying predictor.
    pub fn restore(self, r: &mut SectionReader<'_>) -> Result<Box<dyn Backend>, SnapshotError> {
        (self.descriptor().restore)(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cap_predictor::types::LoadContext;
    use cap_snapshot::SectionWriter;

    #[test]
    fn registry_has_no_collisions() {
        for (i, a) in BACKEND_REGISTRY.iter().enumerate() {
            for b in &BACKEND_REGISTRY[i + 1..] {
                assert_ne!(a.kind, b.kind, "duplicate kind row: {:?}", a.kind);
                assert_ne!(
                    a.tag, b.tag,
                    "tag {} claimed by both {} and {}",
                    a.tag, a.name, b.name
                );
                assert!(
                    !a.name.eq_ignore_ascii_case(b.name),
                    "name '{}' collides with '{}' (parsing is case-insensitive)",
                    a.name,
                    b.name
                );
            }
        }
    }

    #[test]
    fn every_registered_backend_roundtrips_name_and_tag() {
        assert!(!BACKEND_REGISTRY.is_empty());
        for d in BACKEND_REGISTRY {
            let kind = d.kind;
            assert_eq!(BackendKind::parse(kind.name()), Ok(kind));
            assert_eq!(BackendKind::from_tag(kind.tag()), Some(kind));
            assert_eq!(kind.descriptor().name, d.name);
            // Case-insensitive: the uppercase spelling parses too.
            assert_eq!(
                BackendKind::parse(&kind.name().to_ascii_uppercase()),
                Ok(kind)
            );
        }
    }

    #[test]
    fn parse_failure_lists_registered_names() {
        let err = BackendKind::parse("nope").expect_err("unknown name");
        assert_eq!(err.input(), "nope");
        let msg = err.to_string();
        for d in BACKEND_REGISTRY {
            assert!(msg.contains(d.name), "error message must list '{}'", d.name);
        }
        assert_eq!(BackendKind::from_tag(200), None);
    }

    #[test]
    fn retired_tag_3_stays_unclaimed() {
        for tag in 3..=6 {
            assert!(
                BACKEND_REGISTRY.iter().all(|d| d.tag != tag),
                "tag {tag} is retired and must never be reused"
            );
        }
    }

    #[test]
    fn build_snapshot_restore_preserves_behavior() {
        // Registry-driven: a new backend is covered the moment its row
        // lands, and can never be forgotten here.
        for d in BACKEND_REGISTRY {
            let kind = d.kind;
            let mut original = kind.build();
            // Train a short stride pattern so there is state to carry.
            for i in 0..64u64 {
                let ctx = LoadContext::new(0x500, 0, 0);
                let pred = original.predict(&ctx);
                original.update(&ctx, 0x9000 + i * 8, &pred);
            }
            let mut w = SectionWriter::new();
            original.write_state(&mut w);
            let bytes = w.into_bytes();
            let mut r = SectionReader::new(&bytes, "backend");
            let mut restored = kind.restore(&mut r).expect("restores");
            r.finish().expect("all bytes consumed");

            // Original and restored must predict identically from here.
            let ctx = LoadContext::new(0x500, 0, 0);
            assert_eq!(original.predict(&ctx), restored.predict(&ctx), "{}", kind.name());
        }
    }
}
