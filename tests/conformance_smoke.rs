//! Workspace-level conformance smoke: the short-KAT tier of the
//! differential conformance suite, sized to stay fast in a debug build.
//!
//! The deeper tiers run through the `conformance` binary
//! (`cargo run --release -p krv-conformance -- --smoke` in CI,
//! `--full` nightly); this test guards the same machinery from plain
//! `cargo test` at the workspace root.

use krv_conformance::{
    fuzz_backend, kat, run_oracle, run_width, vectors, Algorithm, PassMatrix, Tier,
};
use krv_core::{compiled_default, BackendKind};

/// Suites the whole roster runs in the smoke test (one fixed-output
/// hash, one XOF — the other four run on the reference backend only,
/// keeping debug-build wall time in seconds).
const ROSTER_ALGORITHMS: [Algorithm; 2] = [Algorithm::Sha3_256, Algorithm::Shake128];

#[test]
fn short_kats_pass_on_every_backend() {
    let mut matrix = PassMatrix::new();
    for kind in BackendKind::conformance_roster() {
        for suite in &vectors::SUITES {
            let full_set = kind == BackendKind::Reference;
            if full_set || ROSTER_ALGORITHMS.contains(&suite.algorithm) {
                matrix.record(kat::run_suite(&kind, suite, Tier::Short));
            }
        }
    }
    // The continuous-batching service is a roster row too: the same
    // vectors, but submitted through the admission queue and scheduler —
    // and the sharded path a row of its own, adding the consistent-hash
    // routing and the merged-metrics health check.
    for suite in &vectors::SUITES {
        if ROSTER_ALGORITHMS.contains(&suite.algorithm) {
            matrix.record(kat::run_service_suite(suite, Tier::Short));
            matrix.record(kat::run_sharded_service_suite(suite, Tier::Short));
        }
    }
    assert!(matrix.render().contains(kat::SERVICE_LABEL));
    assert!(matrix.render().contains(kat::SHARDED_SERVICE_LABEL));
    assert!(
        matrix.passed(),
        "KAT failures:\n{}\n{:?}",
        matrix.render(),
        matrix.failures()
    );
    // 8 roster backends × 2 suites + reference × 4 more suites.
    assert!(matrix.total_cases() > 100, "suite selection shrank");
}

#[test]
fn differential_fuzz_smoke_is_clean() {
    for kind in BackendKind::conformance_roster() {
        if kind == BackendKind::Reference {
            continue;
        }
        let mut backend = kind.instantiate(2);
        let report = fuzz_backend(backend.as_mut(), &kind.label(), 18, 0x00DD_BA11);
        assert!(
            report.passed(),
            "{}: {} mismatches: {:?}",
            kind.label(),
            report.mismatches.len(),
            report.mismatches
        );
    }
}

#[test]
fn instruction_oracle_smoke_is_clean() {
    for outcome in run_oracle(3, 0xF1A5_C0DE) {
        assert!(outcome.passed(), "{}: {:?}", outcome.op, outcome.failures);
    }
}

/// The width row on the process's default execution tier: the compiled
/// tier normally, the stepper under `KRV_COMPILED=0`.
#[test]
fn width_row_smoke_is_clean() {
    for outcome in run_width(compiled_default(), 0x57_1D7E) {
        assert!(
            outcome.passed(),
            "{} ({}): {:?}",
            outcome.kernel,
            outcome.tier,
            outcome.failures
        );
    }
}
