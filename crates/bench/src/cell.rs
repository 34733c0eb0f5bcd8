//! The ACD sweep cell every paper artifact shares.
//!
//! Tables I/II, Figures 6–7, the Section VI-C studies and the closed-curve
//! extension all run the same pipeline per cell: sample the trial's
//! particles, order and partition them by an SFC, index the owner tree,
//! then evaluate the near- and far-field ACD against a list of machines.
//! [`acd_cell`] is that pipeline, with each step marked as a
//! [`timing::phase`] for the `--timing` envelope.

use sfc_core::ffi::{ffi_acd_with_tree, OwnerTree};
use sfc_core::nfi::nfi_acd;
use sfc_core::timing;
use sfc_core::{Assignment, Machine, SfcError};
use sfc_curves::point::Norm;
use sfc_curves::{CurveKind, Point2};
use sfc_particles::Workload;
use std::sync::OnceLock;

/// Per-trial particle sets of one workload, sampled lazily so replayed
/// cells cost nothing. Thread-safe: the cells of one trial may run on
/// different workers, and whichever asks first samples the set.
pub struct TrialCache<'a> {
    workload: &'a Workload,
    sets: Vec<OnceLock<Vec<Point2>>>,
}

impl<'a> TrialCache<'a> {
    /// An empty cache for trials `0..trials` of `workload`.
    pub fn new(workload: &'a Workload, trials: u64) -> Self {
        TrialCache {
            workload,
            sets: (0..trials).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The particles of trial `t`, sampled on first use.
    pub fn get(&self, t: u64) -> &[Point2] {
        self.sets[t as usize].get_or_init(|| self.workload.particles(t))
    }
}

/// Run one ACD cell: trial `t` of `trials`, ordered by `curve` and
/// partitioned over `num_ranks`, measured against every machine.
///
/// Returns the near-field ACD (radius `radius` under `norm`) for each
/// machine, followed — when `with_ffi` is set — by the far-field ACD for
/// each machine: `[nfi × machines, ffi × machines]`. Without `with_ffi`
/// the owner tree is never built. A kernel precondition that fails (for
/// instance a machine smaller than `num_ranks`) is returned as the kernel's
/// own [`SfcError`].
#[allow(clippy::too_many_arguments)]
pub fn acd_cell(
    trials: &TrialCache<'_>,
    t: u64,
    curve: CurveKind,
    num_ranks: u64,
    machines: &[Machine],
    radius: u32,
    norm: Norm,
    with_ffi: bool,
) -> Result<Vec<f64>, SfcError> {
    let particles = timing::phase("sample", || trials.get(t));
    let asg = timing::phase("assign", || {
        Assignment::new(particles, trials.workload.grid_order, curve, num_ranks)
    });
    let tree = with_ffi.then(|| timing::phase("index", || OwnerTree::build(&asg)));
    let mut values = Vec::with_capacity(2 * machines.len());
    timing::phase("nfi", || {
        machines.iter().try_for_each(|machine| {
            values.push(nfi_acd(&asg, machine, radius, norm)?.acd());
            Ok::<_, SfcError>(())
        })
    })?;
    if let Some(tree) = &tree {
        timing::phase("ffi", || {
            machines.iter().try_for_each(|machine| {
                values.push(ffi_acd_with_tree(&asg, machine, tree)?.acd());
                Ok::<_, SfcError>(())
            })
        })?;
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::SweepArgs;
    use sfc_core::runner::CellResult;
    use sfc_core::BatchCell;
    use sfc_particles::DistributionKind;
    use sfc_topology::TopologyKind;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A kernel's typed error fails the cell once, is reported with its own
    /// text, and replays as failed from the journal without rerunning.
    #[test]
    fn typed_kernel_error_fails_once_and_replays_from_the_journal() {
        let journal = std::env::temp_dir().join(format!(
            "sfc_bench_typed_failure_{}.jsonl",
            std::process::id()
        ));
        std::fs::remove_file(&journal).ok();
        let args = SweepArgs {
            journal: Some(journal.to_string_lossy().into_owned()),
            ..SweepArgs::default()
        };
        let workload = Workload::new(4, 40, DistributionKind::Uniform.default_params(), 1);
        let trials = TrialCache::new(&workload, 1);
        // 64 ranks of particles on a 16-rank machine.
        let machine = Machine::new(TopologyKind::Torus, 16, CurveKind::Hilbert);
        let expected = SfcError::MachineTooSmall {
            machine_ranks: 16,
            assignment_ranks: 64,
        };
        let attempts = AtomicU32::new(0);
        let cell = || {
            BatchCell::fallible("undersized", || {
                attempts.fetch_add(1, Ordering::SeqCst);
                let machines = std::slice::from_ref(&machine);
                acd_cell(
                    &trials,
                    0,
                    CurveKind::Hilbert,
                    64,
                    machines,
                    1,
                    Norm::Chebyshev,
                    true,
                )
            })
        };

        let mut runner = crate::harness::runner("typed", &args);
        let results = runner.run_cells(vec![cell()]);
        assert_eq!(results, [CellResult::Failed(expected.clone())]);
        assert_eq!(attempts.load(Ordering::SeqCst), 1);
        let summary = runner.finish();
        assert_eq!(summary.failed.len(), 1);
        assert_eq!(summary.failed[0].cell, "undersized");
        assert_eq!(summary.failed[0].error, expected.to_string());
        assert_eq!(summary.failed[0].attempts, 1);

        let mut resumed = crate::harness::runner("typed", &args);
        match &resumed.run_cells(vec![cell()])[..] {
            [CellResult::Failed(SfcError::CellFailed {
                error, attempts, ..
            })] => {
                assert_eq!(error, &expected.to_string());
                assert_eq!(*attempts, 1);
            }
            other => panic!("expected a replayed failure, got {other:?}"),
        }
        assert_eq!(
            attempts.load(Ordering::SeqCst),
            1,
            "replay must not rerun the cell"
        );
        assert_eq!(resumed.finish().failed, summary.failed);
        std::fs::remove_file(&journal).ok();
    }
}
