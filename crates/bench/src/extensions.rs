//! Driver for the extension studies beyond the paper's published
//! evaluation, covering its future-work list (Section VIII):
//!
//! 1. **Link congestion** (future work i): route every near-field message
//!    deterministically and report the maximum and mean link load per curve —
//!    does the ACD winner also spread traffic evenly?
//! 2. **3-D ANNS** (future work ii): does the Figure 5 inversion (Z and
//!    row-major beating Hilbert and Gray) persist in three dimensions?
//! 3. **3-D ACD** (future work ii): the full communication model on an
//!    octree with 3-D interconnects.
//! 4. **Clustering metric** (related-work baseline): the database metric on
//!    which the Hilbert curve famously *wins*, shown side by side with the
//!    ANNS on which it loses.
//! 5. **Closed curves**: the Moore curve (closed Hilbert) against the open
//!    Hilbert curve on a torus, plus the cyclic stretch metric.
//!
//! Each table row is one sweep cell of the `extensions` sweep, so
//! `--journal`/`--time-budget` resume and bound this artifact like the
//! paper regenerations. The 2-D axes come from the [`ExperimentSpec`]
//! (whose `extensions` constructor floors the scale at 2 — routing every
//! message is heavy); the fixed 3-D and clustering side experiments are
//! constants of the artifact family itself.

use crate::cell::{acd_cell, TrialCache};
use sfc_core::anns::{anns, anns_cyclic};
use sfc_core::anns3d::anns3d;
use sfc_core::clustering::average_clusters;
use sfc_core::load::nfi_link_load;
use sfc_core::model3d::{ffi_acd_3d, nfi_acd_3d, Assignment3, Machine3, Topology3Kind};
use sfc_core::report::Table;
use sfc_core::runner::{BatchCell, SweepRunner};
use sfc_core::timing;
use sfc_core::{Assignment, ExperimentSpec, Machine};
use sfc_curves::curve3d::Curve3dKind;
use sfc_curves::point::Norm;
use sfc_curves::CurveKind;
use sfc_particles::sampler3d::sample3d;
use sfc_particles::Distribution;
use sfc_topology::TopologyKind;
use std::sync::OnceLock;

/// Format one cell's values with the given per-column formatters, or a row
/// of `—` when the cell failed or was skipped.
fn row_or_missing(
    label: &str,
    values: Option<&[f64]>,
    fmts: &[fn(f64) -> String],
) -> Vec<String> {
    let mut row = vec![label.to_string()];
    match values {
        Some(vs) => row.extend(vs.iter().zip(fmts).map(|(&v, f)| f(v))),
        None => row.extend(fmts.iter().map(|_| "—".to_string())),
    }
    row
}

fn f3(v: f64) -> String {
    format!("{v:.3}")
}

fn f2(v: f64) -> String {
    format!("{v:.2}")
}

fn f0(v: f64) -> String {
    format!("{v:.0}")
}

/// Run the five extension studies, returning their tables in render order.
pub fn run_extensions(spec: &ExperimentSpec, runner: &mut SweepRunner) -> Vec<Table> {
    // 1. Link congestion on the torus at the spec's (floored) Table I
    // configuration.
    let workload = spec.workload(spec.distributions[0]);
    let procs = spec.processors[0];
    let radius = spec.radii[0];
    let norm = spec.norm;
    let mut congestion = Table::new(
        format!(
            "NFI link congestion — torus, {} particles, {procs} processors",
            workload.n
        ),
        &[
            "Curve",
            "ACD",
            "max link load",
            "mean link load",
            "mean active load",
            "imbalance",
        ],
    );
    // Congestion measures trial 0 of the workload, the closed-curve study
    // (5.) trial 1.
    let trials = TrialCache::new(&workload, 2);
    let congestion_cells: Vec<BatchCell> = spec
        .particle_curves
        .iter()
        .map(|&curve| {
            let (trials, workload) = (&trials, &workload);
            BatchCell::new(format!("congestion/{}", curve.short_name()), move || {
                let particles = timing::phase("sample", || trials.get(0));
                let asg = timing::phase("assign", || {
                    Assignment::new(particles, workload.grid_order, curve, procs)
                });
                let machine = Machine::new(TopologyKind::Torus, procs, curve);
                let load =
                    timing::phase("nfi", || nfi_link_load(&asg, &machine, radius, norm));
                let acd = if load.messages == 0 {
                    0.0
                } else {
                    load.crossings as f64 / load.messages as f64
                };
                vec![
                    acd,
                    load.max_load() as f64,
                    load.mean_load(),
                    load.mean_active_load(),
                    load.imbalance(),
                ]
            })
        })
        .collect();
    for (curve, result) in spec
        .particle_curves
        .iter()
        .zip(runner.run_cells(congestion_cells))
    {
        congestion.push_row(row_or_missing(
            curve.short_name(),
            result.values(),
            &[f3, f0, f2, f2, f2],
        ));
    }

    // 2. 3-D ANNS.
    let mut table3d = Table::new(
        "3-D ANNS (radius-1 Manhattan) — future work item ii",
        &["Cube", "Hilbert", "Z", "Gray", "RowMajor"],
    );
    let orders3d: Vec<u32> = (2..=5).collect();
    let anns3d_cells: Vec<BatchCell> = orders3d
        .iter()
        .map(|&order| {
            BatchCell::new(format!("anns3d/o{order}"), move || {
                Curve3dKind::ALL
                    .iter()
                    .map(|&k| anns3d(k, order).average())
                    .collect()
            })
        })
        .collect();
    for (&order, result) in orders3d.iter().zip(runner.run_cells(anns3d_cells)) {
        let side = 1u64 << order;
        table3d.push_row(row_or_missing(
            &format!("{side}^3"),
            result.values(),
            &[f3, f3, f3, f3],
        ));
    }

    // 3. The full 3-D ACD model: the 2-D findings replayed on an octree
    // with 3-D interconnects (future work item ii).
    let cube_order = 6u32; // 64^3 cells
    let n3 = 20_000usize;
    let procs3 = 4096u64; // 16^3 torus / 2^12 hypercube
    let particles3 = OnceLock::new();
    let mut acd3 = Table::new(
        format!("3-D ACD — {n3} uniform particles in a 64^3 cube, {procs3} processors"),
        &["Curve", "NFI mesh3d", "NFI torus3d", "NFI hypercube", "FFI torus3d"],
    );
    let seed = spec.seed;
    let acd3_cells: Vec<BatchCell> = Curve3dKind::ALL
        .iter()
        .map(|&curve| {
            let particles3 = &particles3;
            BatchCell::new(format!("acd3d/{}", curve.short_name()), move || {
                let particles3 = particles3
                    .get_or_init(|| sample3d(Distribution::uniform(), cube_order, n3, seed));
                let asg = Assignment3::new(particles3, cube_order, curve, procs3);
                let mut row = Vec::new();
                for topo in Topology3Kind::ALL {
                    let machine = Machine3::new(topo, procs3, curve);
                    row.push(nfi_acd_3d(&asg, &machine, 1).acd());
                }
                // Reorder: ALL = [Mesh3d, Torus3d, Hypercube] matches headers.
                let torus = Machine3::new(Topology3Kind::Torus3d, procs3, curve);
                row.push(ffi_acd_3d(&asg, &torus).acd());
                row
            })
        })
        .collect();
    for (curve, result) in Curve3dKind::ALL.iter().zip(runner.run_cells(acd3_cells)) {
        acd3.push_row(row_or_missing(
            curve.short_name(),
            result.values(),
            &[f3, f3, f3, f3],
        ));
    }

    // 4. Clustering vs ANNS, side by side.
    let mut metrics = Table::new(
        "Clustering (4x4 queries) vs ANNS at 64x64 — the metric inversion",
        &["Curve", "avg clusters (lower=better)", "ANNS (lower=better)"],
    );
    let metric_cells: Vec<BatchCell> = spec
        .particle_curves
        .iter()
        .map(|&curve| {
            BatchCell::fallible(format!("metrics/{}", curve.short_name()), move || {
                Ok(vec![average_clusters(curve, 6, 4), anns(curve, 6)?.average()])
            })
        })
        .collect();
    for (curve, result) in spec
        .particle_curves
        .iter()
        .zip(runner.run_cells(metric_cells))
    {
        metrics.push_row(row_or_missing(curve.short_name(), result.values(), &[f3, f3]));
    }

    // 5. Closed curves: does closing the Hilbert loop (Moore curve) help on
    // a torus, whose links also wrap?
    let mut moore = Table::new(
        "Closed-curve study — Hilbert vs Moore on a torus",
        &["Curve", "NFI ACD", "FFI ACD", "cyclic max stretch (64x64)"],
    );
    let closed_curves = [CurveKind::Hilbert, CurveKind::Moore];
    let moore_cells: Vec<BatchCell> = closed_curves
        .iter()
        .map(|&curve| {
            let trials = &trials;
            BatchCell::fallible(format!("moore/{}", curve.short_name()), move || {
                let machine = Machine::new(TopologyKind::Torus, procs, curve);
                let mut values = acd_cell(trials, 1, curve, procs, &[machine], radius, norm, true)?;
                values.push(anns_cyclic(curve, 6, 1, Norm::Manhattan)?.max_stretch);
                Ok(values)
            })
        })
        .collect();
    for (curve, result) in closed_curves.iter().zip(runner.run_cells(moore_cells)) {
        moore.push_row(row_or_missing(curve.short_name(), result.values(), &[f3, f3, f0]));
    }

    vec![congestion, table3d, acd3, metrics, moore]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extensions_produce_five_tables() {
        let spec = ExperimentSpec::extensions(5, 1, 20130701);
        let tables = run_extensions(&spec, &mut SweepRunner::ephemeral());
        assert_eq!(tables.len(), 5);
        assert!(tables[0].title().contains("link congestion"));
        assert!(tables[4].title().contains("Moore"));
        for t in &tables {
            assert!(t.num_rows() >= 2, "{} too short", t.title());
        }
    }
}
