//! Experiment runner: one (workload, curve pair, machine) configuration,
//! averaged over independent trials.
//!
//! This is the unit all the paper's evaluations are assembled from:
//!
//! - Tables I & II sweep the 4 × 4 particle/processor curve combinations for
//!   each distribution on a fixed torus;
//! - Figure 6 sweeps topologies with the particle and processor curves tied;
//! - Figure 7 sweeps the processor count on a torus.
//!
//! Trials share seeds across configurations — trial `t` of every
//! configuration of a workload sees the *same* particle set (the paper:
//! "we used fixed sets of inputs and computed the ACD for each topology
//! under each SFC"), so differences between configurations are purely due to
//! the curves/network, not sampling noise.

use crate::assignment::Assignment;
use crate::error::SfcError;
use crate::ffi::{ffi_acd_with_tree, FfiResult, OwnerTree};
use crate::machine::Machine;
use crate::nfi::{nfi_acd, NfiResult};
use crate::stats::Stats;
use sfc_curves::point::Norm;
use sfc_curves::CurveKind;
use sfc_particles::{Workload, MAX_GRID_ORDER};
use sfc_topology::TopologyKind;

/// A fully specified ACD experiment.
#[derive(Debug, Clone, Copy)]
pub struct AcdExperiment {
    /// The input description (grid order, particle count, distribution,
    /// seed).
    pub workload: Workload,
    /// Particle-order SFC.
    pub particle_curve: CurveKind,
    /// Processor-order SFC (ignored on non-grid topologies).
    pub processor_curve: CurveKind,
    /// Interconnect family.
    pub topology: TopologyKind,
    /// Processor count (must be a power of four).
    pub num_processors: u64,
    /// Near-field neighborhood radius.
    pub radius: u32,
    /// Near-field neighborhood norm (the FMM model uses Chebyshev).
    pub norm: Norm,
    /// Number of independent trials.
    pub trials: u64,
}

impl AcdExperiment {
    /// The paper's default setup for Tables I and II: 65,536 processors on
    /// a torus, radius-1 Chebyshev near field, for the given workload and
    /// curve pair.
    pub fn tables_1_2(
        workload: Workload,
        particle_curve: CurveKind,
        processor_curve: CurveKind,
        trials: u64,
    ) -> Self {
        AcdExperiment {
            workload,
            particle_curve,
            processor_curve,
            topology: TopologyKind::Torus,
            num_processors: 65_536,
            radius: 1,
            norm: Norm::Chebyshev,
            trials,
        }
    }

    /// Scale processor count and workload down together by `scale` powers of
    /// four (for smoke runs of the regeneration binaries).
    pub fn scaled_down(mut self, scale: u32) -> Self {
        self.workload = self.workload.scaled_down(scale);
        self.num_processors = (self.num_processors >> (2 * scale)).max(4);
        self
    }

    /// Check every parameter before any work happens: processor count a
    /// power of four, workload satisfiable (grid order in range, particle
    /// count within the grid's capacity), grid order within the dense
    /// occupancy table's [`MAX_GRID_ORDER`], near-field radius smaller than
    /// the grid side, at least one trial. Misconfigurations surface as
    /// typed [`SfcError`]s a sweep harness can record instead of panicking
    /// deep inside a run.
    pub fn validate(&self) -> Result<(), SfcError> {
        if !self.num_processors.is_power_of_two()
            || !self.num_processors.trailing_zeros().is_multiple_of(2)
        {
            return Err(SfcError::NonPowerOfFourProcessors {
                num_processors: self.num_processors,
            });
        }
        self.workload.validate()?;
        if self.workload.grid_order > MAX_GRID_ORDER {
            return Err(SfcError::OrderTooLarge {
                order: self.workload.grid_order,
                max_order: MAX_GRID_ORDER,
            });
        }
        if u64::from(self.radius) >= self.workload.side() {
            return Err(SfcError::RadiusExceedsGrid {
                radius: self.radius,
                side: self.workload.side(),
            });
        }
        if self.trials == 0 {
            return Err(SfcError::NoTrials);
        }
        Ok(())
    }

    /// Run all trials, measuring both interaction models. An invalid
    /// configuration is a typed [`SfcError`].
    pub fn run(&self) -> Result<AcdMeasurement, SfcError> {
        self.validate()?;
        let machine = self.machine();
        let mut nfi_acds = Vec::with_capacity(self.trials as usize);
        let mut nfi_locals = Vec::with_capacity(self.trials as usize);
        let mut ffi_acds = Vec::with_capacity(self.trials as usize);
        let mut tree_acds = Vec::with_capacity(self.trials as usize);
        let mut ilist_acds = Vec::with_capacity(self.trials as usize);
        for t in 0..self.trials {
            let (nfi, ffi) = self.run_trial(&machine, t)?;
            nfi_acds.push(nfi.acd());
            nfi_locals.push(nfi.locality());
            ffi_acds.push(ffi.acd());
            tree_acds.push(ffi.tree_acd());
            ilist_acds.push(ffi.ilist_acd());
        }
        Ok(AcdMeasurement {
            nfi: Stats::from_samples(&nfi_acds),
            nfi_locality: Stats::from_samples(&nfi_locals),
            ffi: Stats::from_samples(&ffi_acds),
            ffi_tree: Stats::from_samples(&tree_acds),
            ffi_ilist: Stats::from_samples(&ilist_acds),
        })
    }

    /// Build the machine for this experiment.
    pub fn machine(&self) -> Machine {
        Machine::new(self.topology, self.num_processors, self.processor_curve)
    }

    /// Build the assignment for trial `t`.
    pub fn assignment(&self, t: u64) -> Assignment {
        let particles = self.workload.particles(t);
        Assignment::new(
            &particles,
            self.workload.grid_order,
            self.particle_curve,
            self.num_processors,
        )
    }

    /// Run one trial against a prebuilt machine, returning the raw results.
    pub fn run_trial(&self, machine: &Machine, t: u64) -> Result<(NfiResult, FfiResult), SfcError> {
        let asg = self.assignment(t);
        let nfi = nfi_acd(&asg, machine, self.radius, self.norm)?;
        let tree = OwnerTree::build(&asg);
        let ffi = ffi_acd_with_tree(&asg, machine, &tree)?;
        Ok((nfi, ffi))
    }
}

/// Trial-averaged results of an [`AcdExperiment`].
#[derive(Debug, Clone, Copy)]
pub struct AcdMeasurement {
    /// Near-field ACD.
    pub nfi: Stats,
    /// Fraction of near-field exchanges that stayed on-rank.
    pub nfi_locality: Stats,
    /// Far-field ACD (all three communication families).
    pub ffi: Stats,
    /// ACD of the interpolation + anterpolation component.
    pub ffi_tree: Stats,
    /// ACD of the interaction-list component.
    pub ffi_ilist: Stats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc_particles::{Distribution, DistributionKind};

    fn small_experiment(
        particle_curve: CurveKind,
        processor_curve: CurveKind,
        topology: TopologyKind,
    ) -> AcdExperiment {
        AcdExperiment {
            workload: Workload::new(6, 400, Distribution::uniform(), 1234),
            particle_curve,
            processor_curve,
            topology,
            num_processors: 64,
            radius: 1,
            norm: Norm::Chebyshev,
            trials: 3,
        }
    }

    #[test]
    fn runs_and_reports_sane_values() {
        let e = small_experiment(CurveKind::Hilbert, CurveKind::Hilbert, TopologyKind::Torus);
        let m = e.run().unwrap();
        assert_eq!(m.nfi.n, 3);
        assert!(m.nfi.mean >= 0.0);
        assert!(m.ffi.mean > 0.0);
        // ACD can never exceed the network diameter.
        let diameter = e.machine().topology().diameter() as f64;
        assert!(m.nfi.mean <= diameter);
        assert!(m.ffi.mean <= diameter);
    }

    #[test]
    fn trials_share_particles_across_configurations() {
        let a = small_experiment(CurveKind::Hilbert, CurveKind::Hilbert, TopologyKind::Torus);
        let b = small_experiment(CurveKind::RowMajor, CurveKind::Gray, TopologyKind::Mesh);
        // Same workload -> same particle sets per trial.
        assert_eq!(a.assignment(2).particles().len(), b.assignment(2).particles().len());
        let mut pa: Vec<_> = a.assignment(2).particles().to_vec();
        let mut pb: Vec<_> = b.assignment(2).particles().to_vec();
        pa.sort_unstable();
        pb.sort_unstable();
        assert_eq!(pa, pb);
    }

    #[test]
    fn measurements_are_reproducible() {
        let e = small_experiment(CurveKind::ZCurve, CurveKind::ZCurve, TopologyKind::Quadtree);
        let m1 = e.run().unwrap();
        let m2 = e.run().unwrap();
        assert_eq!(m1.nfi.mean, m2.nfi.mean);
        assert_eq!(m1.ffi.mean, m2.ffi.mean);
    }

    #[test]
    fn paper_shape_hilbert_beats_row_major_on_nfi() {
        // The central qualitative claim of Table I at miniature scale.
        let hil = small_experiment(CurveKind::Hilbert, CurveKind::Hilbert, TopologyKind::Torus)
            .run()
            .unwrap()
            .nfi
            .mean;
        let row = small_experiment(CurveKind::RowMajor, CurveKind::RowMajor, TopologyKind::Torus)
            .run()
            .unwrap()
            .nfi
            .mean;
        assert!(
            hil < row,
            "expected Hilbert ({hil}) below row-major ({row}) on NFI ACD"
        );
    }

    #[test]
    fn validate_catches_each_misconfiguration() {
        let good = small_experiment(CurveKind::Hilbert, CurveKind::Hilbert, TopologyKind::Torus);
        assert_eq!(good.validate(), Ok(()));

        let mut bad = good;
        bad.num_processors = 48;
        assert!(matches!(
            bad.validate(),
            Err(SfcError::NonPowerOfFourProcessors { num_processors: 48 })
        ));

        let mut bad = good;
        bad.workload.grid_order = 40;
        assert!(matches!(bad.validate(), Err(SfcError::Workload(_))));

        let mut bad = good;
        bad.workload.n = 1 << 20; // far beyond a 64x64 grid
        assert!(matches!(bad.validate(), Err(SfcError::Workload(_))));

        let mut bad = good;
        bad.radius = 64; // grid side is 2^6 = 64
        assert!(matches!(
            bad.validate(),
            Err(SfcError::RadiusExceedsGrid { radius: 64, side: 64 })
        ));

        let mut bad = good;
        bad.trials = 0;
        assert_eq!(bad.validate(), Err(SfcError::NoTrials));
    }

    #[test]
    fn run_rejects_invalid_configuration() {
        let mut e = small_experiment(CurveKind::Hilbert, CurveKind::Hilbert, TopologyKind::Torus);
        e.num_processors = 48;
        assert!(matches!(
            e.run(),
            Err(SfcError::NonPowerOfFourProcessors { num_processors: 48 })
        ));
    }

    #[test]
    fn scaled_down_reduces_both_axes() {
        let e = AcdExperiment::tables_1_2(
            Workload::tables_1_2(DistributionKind::Uniform, 0),
            CurveKind::Hilbert,
            CurveKind::Hilbert,
            1,
        )
        .scaled_down(3);
        assert_eq!(e.workload.side(), 128);
        assert_eq!(e.num_processors, 1024);
    }
}
