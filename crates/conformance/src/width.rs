//! Fill-adaptive width conformance: a pass with `k` live states may run
//! on a `k`-wide engine instead of the `SN`-wide one it was scheduled
//! for (that is how [`krv_core::EnginePool`] sizes each pass to its
//! work), so the two must be indistinguishable.
//!
//! For every kernel in [`KernelKind::WITH_EXTENSIONS`], every
//! `SN ∈ {1, 2, 4, 8}` and every `k ≤ SN`, the same `k` random states
//! run once on a `k`-wide engine and once on an `SN`-wide engine whose
//! other `SN − k` lanes sit idle. The output states and the pass's
//! simulated `total_cycles` must match exactly. The paper's layout
//! (Figures 5/6) gives one state per five vector elements, and its
//! §4.2 latency does not depend on how many states the unit holds;
//! this row checks both on every execution tier it is run on.

use krv_core::{KernelKind, VectorKeccakEngine};
use krv_keccak::KeccakState;
use krv_testkit::{CaseReport, Rng};

/// The engine widths the row compares against.
pub const WIDTH_SNS: [usize; 4] = [1, 2, 4, 8];

/// The outcome of the width row for one kernel on one execution tier.
#[derive(Debug, Clone)]
pub struct WidthOutcome {
    /// Kernel under test.
    pub kernel: KernelKind,
    /// Execution tier the engines ran on (`interpreted` or `compiled`).
    pub tier: &'static str,
    /// `(SN, k)` pairs compared.
    pub cases: usize,
    /// Divergences between the narrow and the wide pass.
    pub failures: Vec<CaseReport>,
}

impl WidthOutcome {
    /// Whether every narrow pass matched its wide twin.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs the width row for every kernel on one execution tier
/// (`compiled = false` pins the per-instruction stepper). Seeds are
/// split per (kernel, SN, k), offset away from the other layers'.
pub fn run_width(compiled: bool, seed: u64) -> Vec<WidthOutcome> {
    let tier = if compiled { "compiled" } else { "interpreted" };
    KernelKind::WITH_EXTENSIONS
        .iter()
        .enumerate()
        .map(|(index, &kernel)| {
            let mut outcome = WidthOutcome {
                kernel,
                tier,
                cases: 0,
                failures: Vec::new(),
            };
            for sn in WIDTH_SNS {
                let mut wide = VectorKeccakEngine::with_compiled(kernel, sn, compiled);
                for k in 1..=sn {
                    let case_seed = seed
                        ^ ((0x60 + index as u64) << 48)
                        ^ ((sn * 16 + k) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let mut narrow = VectorKeccakEngine::with_compiled(kernel, k, compiled);
                    outcome.cases += 1;
                    if let Err(detail) = compare(&mut narrow, &mut wide, case_seed) {
                        outcome.failures.push(CaseReport::new(
                            format!("width/{kernel}/{tier}"),
                            case_seed,
                            format!("k={k} on SN={sn}: {detail}"),
                        ));
                    }
                }
            }
            outcome
        })
        .collect()
}

/// Runs `narrow.capacity()` seeded states through both engines and
/// diffs the outputs and the pass's simulated cycles.
fn compare(
    narrow: &mut VectorKeccakEngine,
    wide: &mut VectorKeccakEngine,
    seed: u64,
) -> Result<(), String> {
    let mut rng = Rng::new(seed);
    let inputs: Vec<KeccakState> = (0..narrow.capacity())
        .map(|_| KeccakState::from_lanes(std::array::from_fn(|_| rng.next_u64())))
        .collect();
    let mut narrow_out = inputs.clone();
    let mut wide_out = inputs;
    narrow
        .permute_slice(&mut narrow_out)
        .map_err(|trap| format!("narrow engine trapped: {trap:?}"))?;
    wide.permute_slice(&mut wide_out)
        .map_err(|trap| format!("wide engine trapped: {trap:?}"))?;
    if let Some(slot) = (0..narrow_out.len()).find(|&s| narrow_out[s] != wide_out[s]) {
        return Err(format!("state {slot} diverged"));
    }
    let cycles = |engine: &VectorKeccakEngine| engine.last_metrics().map(|m| m.total_cycles);
    if cycles(narrow) != cycles(wide) {
        return Err(format!(
            "total_cycles diverged: narrow {:?}, wide {:?}",
            cycles(narrow),
            cycles(wide)
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_row_covers_every_kernel_on_the_stepper() {
        // The compiled tier runs in the workspace conformance smoke test.
        let outcomes = run_width(false, 0x57_1D7E);
        assert_eq!(outcomes.len(), KernelKind::WITH_EXTENSIONS.len());
        for outcome in &outcomes {
            assert_eq!(outcome.cases, 1 + 2 + 4 + 8, "{}", outcome.kernel);
            assert!(outcome.passed(), "{:?}", outcome.failures);
        }
    }
}
