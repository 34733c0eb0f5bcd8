//! Near-field interaction (NFI) ACD — Section IV of the paper.
//!
//! For each particle `x`, every particle `y` within radius `r` requires one
//! pairwise exchange; the communicated distance of the exchange is the hop
//! distance between the processors holding `x` and `y` (zero when they are
//! co-located). The ACD is the mean over all such exchanges.
//!
//! The neighborhood norm is configurable: the FMM near field is the
//! Chebyshev ball (cells sharing an edge or corner — "the number of nearest
//! neighbors … is bounded by 8" for `r = 1`), while the ANNS experiments use
//! the Manhattan ball. Exchanges are counted *directed* (`x → y` and
//! `y → x` are two communications); since hop distance is symmetric, the
//! ACD is identical to the undirected convention.
//!
//! The same symmetry lets the scan visit each unordered pair once: every
//! particle scans only the forward half of its neighborhood (the cells to
//! its right in its own row, and the rows above it), and the integer sums
//! are doubled. This relies on `Machine::distance(a, b) ==
//! Machine::distance(b, a)`, which `machine.rs` checks on every rank pair.
//!
//! The scan is parallelized over particles with rayon; each worker folds
//! into local `(distance, count)` accumulators and the reduction is an
//! integer sum, so results are independent of thread count.

use crate::assignment::Assignment;
use crate::error::SfcError;
use crate::machine::Machine;
use rayon::prelude::*;
use sfc_curves::point::Norm;
use sfc_particles::GridIndex;

/// Outcome of a near-field ACD computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NfiResult {
    /// Sum of hop distances over all directed exchanges.
    pub total_distance: u64,
    /// Number of directed exchanges (including rank-local ones).
    pub num_comms: u64,
    /// Exchanges between particles on the same rank (distance 0 by
    /// definition).
    pub local_comms: u64,
}

impl NfiResult {
    /// The Average Communicated Distance: mean hops per exchange. Zero when
    /// no exchanges occur.
    pub fn acd(&self) -> f64 {
        if self.num_comms == 0 {
            0.0
        } else {
            self.total_distance as f64 / self.num_comms as f64
        }
    }

    /// Fraction of exchanges that stayed on-rank.
    pub fn locality(&self) -> f64 {
        if self.num_comms == 0 {
            0.0
        } else {
            self.local_comms as f64 / self.num_comms as f64
        }
    }

    /// Merge two partial results.
    pub fn merge(self, other: NfiResult) -> NfiResult {
        NfiResult {
            total_distance: self.total_distance + other.total_distance,
            num_comms: self.num_comms + other.num_comms,
            local_comms: self.local_comms + other.local_comms,
        }
    }
}

/// Compute the near-field ACD for an assignment on a machine, with
/// neighborhood radius `radius` under `norm`.
///
/// A zero radius or a machine with fewer ranks than the assignment
/// addresses is a typed [`SfcError`], so a sweep harness records a failed
/// cell instead of aborting the run.
pub fn nfi_acd(
    asg: &Assignment,
    machine: &Machine,
    radius: u32,
    norm: Norm,
) -> Result<NfiResult, SfcError> {
    if radius < 1 {
        return Err(SfcError::ZeroRadius);
    }
    machine.check_assignment(asg)?;
    let side = 1i64 << asg.grid_order();
    let r = radius as i64;

    let result = asg
        .particles()
        .par_iter()
        .enumerate()
        .fold(NfiResult::default, |mut acc, (i, p)| {
            let rank = asg.rank_of_index(i);
            let x = p.x as i64;
            // The neighborhood is a stack of contiguous row segments: per
            // `dy`, `dx` spans `±r` (Chebyshev) or `±(r − |dy|)`
            // (Manhattan). Only the forward half is scanned — the cells
            // right of the particle in its own row, then the full rows
            // above it — so each unordered pair is visited exactly once.
            // Clip each segment against the grid edge once, then scan it
            // with no per-cell bounds checks.
            for dy in 0..=r {
                let ny = p.y as i64 + dy;
                if ny >= side {
                    break;
                }
                let w = match norm {
                    Norm::Chebyshev => r,
                    Norm::Manhattan => r - dy,
                };
                let lo = if dy == 0 { x + 1 } else { (x - w).max(0) };
                let hi = (x + w).min(side - 1);
                if lo <= hi {
                    let ranks = asg.rank_row(ny as u32);
                    scan_segment(&ranks[lo as usize..=hi as usize], rank, machine, &mut acc);
                }
            }
            acc
        })
        .reduce(NfiResult::default, NfiResult::merge);
    // Hop distance is symmetric, so the backward half of every exchange
    // repeats the forward half exactly.
    Ok(result.merge(result))
}

/// Accumulate one clipped row segment of the dense rank table into `acc`:
/// every occupied slot is one exchange.
#[inline]
fn scan_segment(seg: &[u32], rank: u32, machine: &Machine, acc: &mut NfiResult) {
    for &other in seg {
        if other != GridIndex::EMPTY {
            exchange(rank, other, machine, acc);
        }
    }
}

/// Record one exchange from `rank` to `other`. Rank-local
/// exchanges cost nothing and skip the distance call.
#[inline]
fn exchange(rank: u32, other: u32, machine: &Machine, acc: &mut NfiResult) {
    acc.num_comms += 1;
    if other == rank {
        acc.local_comms += 1;
    } else {
        acc.total_distance += machine.distance(rank, other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc_curves::{CurveKind, Point2};
    use sfc_topology::TopologyKind;

    fn pts(coords: &[(u32, u32)]) -> Vec<Point2> {
        coords.iter().map(|&(x, y)| Point2::new(x, y)).collect()
    }

    /// Two adjacent particles on two single-particle ranks placed on
    /// adjacent mesh nodes: 2 directed exchanges of 1 hop each.
    #[test]
    fn two_adjacent_particles_two_ranks() {
        let particles = pts(&[(0, 0), (1, 0)]);
        let asg = Assignment::new(&particles, 2, CurveKind::RowMajor, 2);
        let machine = Machine::grid(TopologyKind::Mesh, 16, CurveKind::RowMajor);
        let res = nfi_acd(&asg, &machine, 1, Norm::Chebyshev).unwrap();
        assert_eq!(res.num_comms, 2);
        assert_eq!(res.local_comms, 0);
        // Ranks 0 and 1 sit on mesh nodes (0,0) and (1,0): 1 hop.
        assert_eq!(res.total_distance, 2);
        assert!((res.acd() - 1.0).abs() < 1e-12);
    }

    /// Co-located particles communicate at distance zero.
    #[test]
    fn same_rank_is_free() {
        let particles = pts(&[(0, 0), (1, 0)]);
        let asg = Assignment::new(&particles, 2, CurveKind::RowMajor, 1);
        let machine = Machine::grid(TopologyKind::Mesh, 16, CurveKind::RowMajor);
        let res = nfi_acd(&asg, &machine, 1, Norm::Chebyshev).unwrap();
        assert_eq!(res.num_comms, 2);
        assert_eq!(res.local_comms, 2);
        assert_eq!(res.total_distance, 0);
        assert_eq!(res.acd(), 0.0);
        assert_eq!(res.locality(), 1.0);
    }

    /// Manhattan r=1 sees 4-neighborhoods, Chebyshev sees 8.
    #[test]
    fn norm_controls_neighborhood() {
        // 3x3 block of particles, count the center's exchanges by comparing
        // totals: full block under Chebyshev r=1 has each pair of the 8
        // neighbors of the center... simpler: compare comm counts.
        let mut coords = Vec::new();
        for x in 0..3u32 {
            for y in 0..3u32 {
                coords.push((x, y));
            }
        }
        let particles = pts(&coords);
        let asg = Assignment::new(&particles, 2, CurveKind::RowMajor, 1);
        let machine = Machine::grid(TopologyKind::Mesh, 16, CurveKind::RowMajor);
        let cheb = nfi_acd(&asg, &machine, 1, Norm::Chebyshev).unwrap();
        let manh = nfi_acd(&asg, &machine, 1, Norm::Manhattan).unwrap();
        // Chebyshev: 4 corners*3 + 4 edges*5 + 1 center*8 = 40 exchanges.
        assert_eq!(cheb.num_comms, 40);
        // Manhattan: 4 corners*2 + 4 edges*3 + center*4 = 24.
        assert_eq!(manh.num_comms, 24);
    }

    /// Isolated particles produce no communications.
    #[test]
    fn isolated_particles_no_comms() {
        let particles = pts(&[(0, 0), (7, 7)]);
        let asg = Assignment::new(&particles, 3, CurveKind::Hilbert, 2);
        let machine = Machine::grid(TopologyKind::Torus, 64, CurveKind::Hilbert);
        let res = nfi_acd(&asg, &machine, 1, Norm::Chebyshev).unwrap();
        assert_eq!(res.num_comms, 0);
        assert_eq!(res.acd(), 0.0);
    }

    /// Larger radius reaches the distant particle.
    #[test]
    fn radius_expands_neighborhood() {
        let particles = pts(&[(0, 0), (3, 0)]);
        let asg = Assignment::new(&particles, 3, CurveKind::RowMajor, 2);
        let machine = Machine::grid(TopologyKind::Torus, 64, CurveKind::RowMajor);
        for r in 1..=2 {
            let res = nfi_acd(&asg, &machine, r, Norm::Chebyshev).unwrap();
            assert_eq!(res.num_comms, 0, "radius {r}");
        }
        let res = nfi_acd(&asg, &machine, 3, Norm::Chebyshev).unwrap();
        assert_eq!(res.num_comms, 2);
    }

    /// The grid boundary clips neighborhoods without panicking.
    #[test]
    fn boundary_clipping() {
        let particles = pts(&[(0, 0), (0, 1), (1, 0)]);
        let asg = Assignment::new(&particles, 1, CurveKind::Hilbert, 1);
        let machine = Machine::grid(TopologyKind::Mesh, 4, CurveKind::Hilbert);
        let res = nfi_acd(&asg, &machine, 2, Norm::Chebyshev).unwrap();
        // All pairs within radius 2: 3 unordered pairs = 6 directed.
        assert_eq!(res.num_comms, 6);
        assert_eq!(res.local_comms, 6);
    }

    /// ACD is invariant under the direction convention (always symmetric).
    #[test]
    fn directed_counting_is_symmetric() {
        let particles = pts(&[(0, 0), (1, 1), (2, 2), (0, 2)]);
        let asg = Assignment::new(&particles, 2, CurveKind::ZCurve, 4);
        let machine = Machine::grid(TopologyKind::Mesh, 16, CurveKind::ZCurve);
        let res = nfi_acd(&asg, &machine, 2, Norm::Chebyshev).unwrap();
        assert_eq!(res.num_comms % 2, 0);
        assert_eq!(res.total_distance % 2, 0);
    }

    #[test]
    fn zero_radius_rejected() {
        let particles = pts(&[(0, 0)]);
        let asg = Assignment::new(&particles, 2, CurveKind::Hilbert, 1);
        let machine = Machine::grid(TopologyKind::Mesh, 16, CurveKind::Hilbert);
        let err = nfi_acd(&asg, &machine, 0, Norm::Chebyshev).unwrap_err();
        assert_eq!(err, crate::error::SfcError::ZeroRadius);
        // The typed error still renders the human-readable message callers
        // used to get from the (since removed) panicking shim.
        assert!(
            err.to_string().contains("radius must be at least 1"),
            "{err}"
        );
    }

    #[test]
    fn invalid_configurations_are_typed_errors_not_aborts() {
        use crate::error::SfcError;
        let particles = pts(&[(0, 0), (1, 0)]);
        let asg = Assignment::new(&particles, 2, CurveKind::Hilbert, 4);
        let machine = Machine::grid(TopologyKind::Mesh, 16, CurveKind::Hilbert);
        assert_eq!(
            nfi_acd(&asg, &machine, 0, Norm::Chebyshev),
            Err(SfcError::ZeroRadius)
        );
        // A machine smaller than the assignment's rank space is an error,
        // not a mid-scan panic that would abort a whole sweep.
        let asg64 = Assignment::new(&particles, 2, CurveKind::Hilbert, 64);
        match nfi_acd(&asg64, &machine, 1, Norm::Chebyshev) {
            Err(SfcError::MachineTooSmall {
                machine_ranks: 16,
                assignment_ranks: 64,
            }) => {}
            other => panic!("expected MachineTooSmall, got {other:?}"),
        }
    }

    /// O(n²) reference: every ordered pair of distinct particles within
    /// `radius` under `norm` is one directed exchange.
    fn brute_force_nfi(asg: &Assignment, machine: &Machine, radius: u32, norm: Norm) -> NfiResult {
        let mut acc = NfiResult::default();
        for (i, a) in asg.particles().iter().enumerate() {
            for (j, b) in asg.particles().iter().enumerate() {
                let (dx, dy) = (a.x.abs_diff(b.x), a.y.abs_diff(b.y));
                let d = match norm {
                    Norm::Chebyshev => dx.max(dy),
                    Norm::Manhattan => dx + dy,
                };
                if i != j && d <= radius {
                    exchange(asg.rank_of_index(i), asg.rank_of_index(j), machine, &mut acc);
                }
            }
        }
        acc
    }

    /// The row-segment scan agrees with the pairwise definition.
    #[test]
    fn row_scan_matches_brute_force_pairs() {
        let mut coords = Vec::new();
        // An irregular blob so boundary clipping and empty cells inside the
        // neighborhoods are both exercised.
        for x in 0..8u32 {
            for y in 0..8u32 {
                if (x * 7 + y * 3) % 5 != 0 {
                    coords.push((x, y));
                }
            }
        }
        let particles = pts(&coords);
        for curve in [CurveKind::Hilbert, CurveKind::ZCurve, CurveKind::RowMajor] {
            let asg = Assignment::new(&particles, 3, curve, 16);
            for topo in [TopologyKind::Mesh, TopologyKind::Torus] {
                let machine = Machine::grid(topo, 16, curve);
                for norm in [Norm::Chebyshev, Norm::Manhattan] {
                    for radius in 1..=4 {
                        assert_eq!(
                            nfi_acd(&asg, &machine, radius, norm),
                            Ok(brute_force_nfi(&asg, &machine, radius, norm)),
                            "{curve:?} {topo:?} {norm:?} r={radius}"
                        );
                    }
                }
            }
        }
    }
}
