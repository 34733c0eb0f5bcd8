//! Golden integer totals of both ACD kernels.
//!
//! The sweep artifacts print ACDs rounded to a few digits, so a kernel
//! rewrite that miscounts a handful of exchanges could still render the
//! same tables. These tests pin the exact `u64` fields of `NfiResult` and
//! `FfiResult` for one Table I cell at `--scale 4` (uniform distribution,
//! trial 0, Hilbert particle order, the default seed, one 256-rank torus per
//! processor-order curve) and for a radius-8 Manhattan near-field call on
//! the same assignment. The values were recorded from the full directed
//! enumeration the kernels used before they scanned only one half of each
//! symmetric exchange.

use sfc_core::ffi::{ffi_acd, FfiResult};
use sfc_core::nfi::{nfi_acd, NfiResult};
use sfc_core::spec::ExperimentSpec;
use sfc_core::{Assignment, Machine};
use sfc_curves::point::Norm;
use sfc_curves::CurveKind;

/// The default `--seed` of every regeneration binary.
const SEED: u64 = 20130701;

/// Trial 0 of the Table I uniform workload at `--scale 4`, ordered by the
/// Hilbert curve, with the cell's machines (torus, one per processor-order
/// curve, in the spec's order).
fn table1_cell() -> (Assignment, Vec<Machine>) {
    let spec = ExperimentSpec::table1(4, 1, SEED);
    let particles = spec.workload(spec.distributions[0]).particles(0);
    let procs = spec.processors[0];
    let asg = Assignment::new(&particles, spec.grid_order, CurveKind::Hilbert, procs);
    let machines = spec
        .effective_processor_curves()
        .iter()
        .map(|&c| Machine::new(spec.topologies[0], procs, c))
        .collect();
    (asg, machines)
}

fn nfi(total_distance: u64, num_comms: u64, local_comms: u64) -> NfiResult {
    NfiResult {
        total_distance,
        num_comms,
        local_comms,
    }
}

fn ffi(tree_distance: u64, tree_comms: u64, ilist_distance: u64, ilist_comms: u64) -> FfiResult {
    FfiResult {
        interp_distance: tree_distance,
        interp_comms: tree_comms,
        anterp_distance: tree_distance,
        anterp_comms: tree_comms,
        ilist_distance,
        ilist_comms,
    }
}

#[test]
fn table1_scale4_cell_totals_are_pinned() {
    let (asg, machines) = table1_cell();
    let got_nfi: Vec<NfiResult> = machines
        .iter()
        .map(|m| nfi_acd(&asg, m, 1, Norm::Chebyshev).unwrap())
        .collect();
    let got_ffi: Vec<FfiResult> = machines.iter().map(|m| ffi_acd(&asg, m).unwrap()).collect();
    // Processor orders Hilbert, Z, Gray, RowMajor.
    assert_eq!(
        got_nfi,
        [
            nfi(1942, 1782, 862),
            nfi(2650, 1782, 862),
            nfi(2410, 1782, 862),
            nfi(2234, 1782, 862),
        ]
    );
    assert_eq!(
        got_ffi,
        [
            ffi(936, 2005, 77784, 23980),
            ffi(1364, 2005, 96854, 23980),
            ffi(1162, 2005, 90756, 23980),
            ffi(1060, 2005, 93304, 23980),
        ]
    );
}

#[test]
fn radius8_manhattan_nfi_totals_are_pinned() {
    let (asg, machines) = table1_cell();
    assert_eq!(
        nfi_acd(&asg, &machines[0], 8, Norm::Manhattan),
        Ok(nfi(82486, 30096, 2896))
    );
}
