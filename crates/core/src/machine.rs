//! The machine model: a topology plus a processor-order SFC — step 3 of the
//! paper's algorithm.
//!
//! [`Machine`] resolves application ranks to physical nodes *once* at
//! construction (the rank→node table is `p` entries). Every hop distance
//! is then the topology's closed form (paper §II-B) on the two ranks'
//! nodes — a few integer instructions, with no `P × P` table to build or
//! keep resident.

use crate::error::SfcError;
use crate::Assignment;
use sfc_curves::CurveKind;
use sfc_topology::{RankMap, SfcRankMap, Topology, TopologyKind};

/// A concrete parallel machine: `p` ranks placed on a network.
pub struct Machine {
    topo: Box<dyn Topology>,
    /// Physical node of each rank; identity for non-grid topologies.
    node_of_rank: Vec<u64>,
    /// Processor-order curve, if one applies.
    processor_curve: Option<CurveKind>,
}

impl Machine {
    /// Build a machine on `kind` with `num_ranks` processors. For grid
    /// topologies (mesh, torus) the ranks are placed along `processor_curve`;
    /// for the others the curve is ignored and the canonical numbering is
    /// used, matching the paper ("applies only to mesh and torus
    /// topologies").
    pub fn new(kind: TopologyKind, num_ranks: u64, processor_curve: CurveKind) -> Self {
        let topo = kind.build(num_ranks);
        let (node_of_rank, used_curve): (Vec<u64>, _) = match topo.grid_side() {
            Some(side) => {
                let map = SfcRankMap::for_side(processor_curve, side);
                ((0..num_ranks).map(|r| map.node_of(r)).collect(), Some(processor_curve))
            }
            None => ((0..num_ranks).collect(), None),
        };
        Machine {
            topo,
            node_of_rank,
            processor_curve: used_curve,
        }
    }

    /// Fallible variant of [`Machine::new`]: reports a processor count that
    /// is not a power of four as a typed error instead of panicking, so
    /// sweep harnesses can validate a configuration before running it.
    pub fn try_new(
        kind: TopologyKind,
        num_ranks: u64,
        processor_curve: CurveKind,
    ) -> Result<Self, SfcError> {
        if !num_ranks.is_power_of_two() || !num_ranks.trailing_zeros().is_multiple_of(2) {
            return Err(SfcError::NonPowerOfFourProcessors {
                num_processors: num_ranks,
            });
        }
        Ok(Self::new(kind, num_ranks, processor_curve))
    }

    /// Build a machine on a grid topology with an SFC rank placement.
    /// Convenience alias of [`Machine::new`] that documents intent at call
    /// sites.
    pub fn grid(kind: TopologyKind, num_ranks: u64, processor_curve: CurveKind) -> Self {
        assert!(
            matches!(kind, TopologyKind::Mesh | TopologyKind::Torus),
            "Machine::grid expects a mesh or torus, got {kind}"
        );
        Self::new(kind, num_ranks, processor_curve)
    }

    /// Whether a precomputed hop-distance table serves
    /// [`Machine::distance`]. Always `false`: every distance is the
    /// topology's closed form. Kept so work counters that report the
    /// distance path in use stay truthful.
    pub fn has_oracle(&self) -> bool {
        false
    }

    /// Check that every rank the assignment addresses exists on this
    /// machine, as a typed error instead of a mid-kernel panic.
    pub fn check_assignment(&self, asg: &Assignment) -> Result<(), SfcError> {
        if asg.num_ranks() > self.num_ranks() {
            return Err(SfcError::MachineTooSmall {
                machine_ranks: self.num_ranks(),
                assignment_ranks: asg.num_ranks(),
            });
        }
        Ok(())
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> u64 {
        self.node_of_rank.len() as u64
    }

    /// Total directed links of the underlying network, idle ones included
    /// ([`Topology::num_links`]) — the denominator for link-load averages.
    pub fn num_links(&self) -> u64 {
        self.topo.num_links()
    }

    /// The underlying topology.
    pub fn topology(&self) -> &dyn Topology {
        self.topo.as_ref()
    }

    /// The processor-order curve actually in effect (`None` on non-grid
    /// topologies).
    pub fn processor_curve(&self) -> Option<CurveKind> {
        self.processor_curve
    }

    /// Hop distance between the processors hosting ranks `a` and `b`.
    ///
    /// The topology's closed form on the ranks' nodes. An out-of-range
    /// rank panics with a message naming the rank and the machine size
    /// (not a bare slice-index abort).
    #[inline]
    pub fn distance(&self, a: u32, b: u32) -> u64 {
        self.topo.distance(self.node_of(a), self.node_of(b))
    }

    /// Physical node of a rank. Panics with a bounds message naming the
    /// rank when it exceeds the machine.
    #[inline]
    pub fn node_of(&self, rank: u32) -> u64 {
        match self.node_of_rank.get(rank as usize) {
            Some(&node) => node,
            None => panic!(
                "rank {rank} out of range for a machine with {} ranks",
                self.node_of_rank.len()
            ),
        }
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("topology", &self.topo.name())
            .field("ranks", &self.num_ranks())
            .field("processor_curve", &self.processor_curve)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_machine_uses_curve_placement() {
        let m = Machine::grid(TopologyKind::Torus, 64, CurveKind::Hilbert);
        assert_eq!(m.num_ranks(), 64);
        assert_eq!(m.processor_curve(), Some(CurveKind::Hilbert));
        // Hilbert consecutive ranks are physically adjacent.
        for r in 0..63u32 {
            assert_eq!(m.distance(r, r + 1), 1);
        }
    }

    #[test]
    fn non_grid_machine_ignores_curve() {
        let m = Machine::new(TopologyKind::Hypercube, 64, CurveKind::Hilbert);
        assert_eq!(m.processor_curve(), None);
        // Identity placement: distance = Hamming of rank ids.
        assert_eq!(m.distance(0, 63), 6);
        assert_eq!(m.distance(5, 5), 0);
    }

    #[test]
    fn row_major_on_mesh_matches_grid_arithmetic() {
        let m = Machine::grid(TopologyKind::Mesh, 16, CurveKind::RowMajor);
        // Rank 0 at (0,0), rank 15 at (3,3): 6 hops.
        assert_eq!(m.distance(0, 15), 6);
        // Rank 3 at (3,0), rank 4 at (0,1): 4 hops.
        assert_eq!(m.distance(3, 4), 4);
    }

    #[test]
    fn quadtree_machine_identity_ranks() {
        let m = Machine::new(TopologyKind::Quadtree, 16, CurveKind::ZCurve);
        assert_eq!(m.processor_curve(), None);
        assert_eq!(m.distance(0, 1), 2);
        assert_eq!(m.distance(0, 15), 4);
    }

    #[test]
    #[should_panic(expected = "expects a mesh or torus")]
    fn grid_constructor_rejects_non_grids() {
        let _ = Machine::grid(TopologyKind::Hypercube, 64, CurveKind::Hilbert);
    }

    #[test]
    fn try_new_validates_processor_count() {
        use crate::error::SfcError;
        for bad in [0u64, 3, 32, 48, 100] {
            match Machine::try_new(TopologyKind::Torus, bad, CurveKind::Hilbert) {
                Err(SfcError::NonPowerOfFourProcessors { num_processors }) => {
                    assert_eq!(num_processors, bad)
                }
                other => panic!("expected error for {bad}, got {other:?}"),
            }
        }
        let m = Machine::try_new(TopologyKind::Torus, 64, CurveKind::Hilbert).unwrap();
        assert_eq!(m.num_ranks(), 64);
    }

    #[test]
    fn num_links_delegates_to_topology() {
        // 8×8 torus: 2 rings per row and column of 8 edges each.
        let m = Machine::grid(TopologyKind::Torus, 64, CurveKind::Hilbert);
        assert_eq!(m.num_links(), 2 * (8 * 8 + 8 * 8));
        let m = Machine::new(TopologyKind::Hypercube, 64, CurveKind::Hilbert);
        assert_eq!(m.num_links(), 64 * 6);
    }

    /// The NFI and FFI kernels scan one half of each exchange and double
    /// the sums, which is exact only if every distance is symmetric.
    #[test]
    fn distance_is_symmetric_on_every_rank_pair() {
        for curve in [CurveKind::Hilbert, CurveKind::ZCurve] {
            for p in [4u64, 16, 64, 256] {
                for kind in TopologyKind::PAPER {
                    let m = Machine::new(kind, p, curve);
                    for a in 0..p as u32 {
                        for b in a + 1..p as u32 {
                            assert_eq!(
                                m.distance(a, b),
                                m.distance(b, a),
                                "{kind} {curve:?} P={p} {a}<->{b}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// `Machine::distance` against an independently built reference:
    /// `RankedNetwork` pairs each paper topology with the identity map, or
    /// with the processor-order SFC map on the mesh and torus.
    #[test]
    fn distance_matches_ranked_network_on_every_pair() {
        use sfc_topology::{Bus, Hypercube, Mesh2d, QuadtreeNet, RankedNetwork, Ring, Torus2d};
        fn identity(t: impl Topology + 'static) -> RankedNetwork<Box<dyn Topology>> {
            RankedNetwork::identity(Box::new(t))
        }
        fn sfc(t: impl Topology + 'static, c: CurveKind) -> RankedNetwork<Box<dyn Topology>> {
            RankedNetwork::with_sfc_ranks(Box::new(t), c)
        }
        for curve in [CurveKind::Hilbert, CurveKind::ZCurve] {
            for level in 1..=4u32 {
                let (p, side) = (1u64 << (2 * level), 1u64 << level);
                for (kind, net) in [
                    (TopologyKind::Bus, identity(Bus::new(p))),
                    (TopologyKind::Ring, identity(Ring::new(p))),
                    (TopologyKind::Mesh, sfc(Mesh2d::new(side, side), curve)),
                    (TopologyKind::Torus, sfc(Torus2d::new(side, side), curve)),
                    (TopologyKind::Quadtree, identity(QuadtreeNet::new(level))),
                    (TopologyKind::Hypercube, identity(Hypercube::new(2 * level))),
                ] {
                    let m = Machine::new(kind, p, curve);
                    for a in 0..p as u32 {
                        for b in 0..p as u32 {
                            assert_eq!(
                                m.distance(a, b),
                                net.rank_distance(a.into(), b.into()),
                                "{kind} {curve:?} P={p} {a}->{b}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range for a machine with 16 ranks")]
    fn out_of_range_rank_panics_with_bounds_message() {
        let m = Machine::grid(TopologyKind::Mesh, 16, CurveKind::Hilbert);
        let _ = m.distance(0, 99);
    }

    #[test]
    fn check_assignment_reports_undersized_machines() {
        use sfc_curves::Point2;
        let particles = vec![Point2::new(0, 0), Point2::new(1, 1)];
        let asg = Assignment::new(&particles, 2, CurveKind::Hilbert, 64);
        let small = Machine::grid(TopologyKind::Mesh, 16, CurveKind::Hilbert);
        match small.check_assignment(&asg) {
            Err(SfcError::MachineTooSmall {
                machine_ranks,
                assignment_ranks,
            }) => {
                assert_eq!(machine_ranks, 16);
                assert_eq!(assignment_ranks, 64);
            }
            other => panic!("expected MachineTooSmall, got {other:?}"),
        }
        let big = Machine::grid(TopologyKind::Mesh, 64, CurveKind::Hilbert);
        assert!(big.check_assignment(&asg).is_ok());
    }
}
