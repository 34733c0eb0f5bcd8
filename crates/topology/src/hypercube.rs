//! Hypercube topology.
//!
//! The classical binary `d`-cube: `2^d` processors, node `a` links to every
//! node differing from it in exactly one address bit. The hop distance is
//! the Hamming distance of the node ids. The paper includes the hypercube
//! as the best-connected comparison point for the near-field interaction
//! experiments (Figure 6), with the caveat that its contention behavior is
//! not modeled.

use crate::{NodeId, Topology, TopologyKind};

/// A binary hypercube with `2^dim` processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hypercube {
    dim: u32,
}

impl Hypercube {
    /// Create a hypercube of the given dimension (`0 ..= 63`).
    pub fn new(dim: u32) -> Self {
        assert!(dim <= 63, "hypercube dimension must be <= 63, got {dim}");
        Hypercube { dim }
    }

    /// Create the smallest hypercube with at least `nodes` processors;
    /// panics unless `nodes` is a power of two (the paper always uses exact
    /// powers).
    pub fn with_nodes(nodes: u64) -> Self {
        assert!(
            nodes.is_power_of_two(),
            "hypercube node count must be a power of two, got {nodes}"
        );
        Hypercube::new(nodes.trailing_zeros())
    }

    /// The dimension `d`.
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// The processors directly linked to `a` (one per address bit).
    pub fn neighbors(&self, a: NodeId) -> Vec<NodeId> {
        (0..self.dim).map(|bit| a ^ (1u64 << bit)).collect()
    }
}

impl Topology for Hypercube {
    fn num_nodes(&self) -> u64 {
        1u64 << self.dim
    }

    #[inline]
    fn distance(&self, a: NodeId, b: NodeId) -> u64 {
        debug_assert!(a < self.num_nodes() && b < self.num_nodes());
        (a ^ b).count_ones() as u64
    }

    fn diameter(&self) -> u64 {
        self.dim as u64
    }

    fn name(&self) -> &'static str {
        "Hypercube"
    }

    fn kind(&self) -> TopologyKind {
        TopologyKind::Hypercube
    }

    fn num_links(&self) -> u64 {
        // Every node has `dim` neighbors; each directed link counted once.
        self.num_nodes() * self.dim as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::check_against_bfs;

    #[test]
    fn distance_is_hamming() {
        let cube = Hypercube::new(4);
        assert_eq!(cube.distance(0b0000, 0b1111), 4);
        assert_eq!(cube.distance(0b1010, 0b1001), 2);
        assert_eq!(cube.distance(7, 7), 0);
        assert_eq!(cube.diameter(), 4);
    }

    #[test]
    fn with_nodes_matches_dimension() {
        assert_eq!(Hypercube::with_nodes(65536).dim(), 16);
        assert_eq!(Hypercube::with_nodes(1).dim(), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = Hypercube::with_nodes(100);
    }

    #[test]
    fn every_node_has_dim_neighbors() {
        let cube = Hypercube::new(5);
        for n in 0..cube.num_nodes() {
            let nb = cube.neighbors(n);
            assert_eq!(nb.len(), 5);
            for m in nb {
                assert_eq!(cube.distance(n, m), 1);
            }
        }
    }

    #[test]
    fn matches_bfs() {
        let cube = Hypercube::new(6);
        check_against_bfs(&cube, |a| cube.neighbors(a));
    }

    #[test]
    fn num_links_equals_neighbor_degree_sum() {
        for dim in [0u32, 1, 3, 5] {
            let cube = Hypercube::new(dim);
            let degree_sum: u64 = (0..cube.num_nodes())
                .map(|n| cube.neighbors(n).len() as u64)
                .sum();
            assert_eq!(cube.num_links(), degree_sum, "dim {dim}");
        }
    }

    #[test]
    fn zero_dim_cube_is_single_node() {
        let cube = Hypercube::new(0);
        assert_eq!(cube.num_nodes(), 1);
        assert_eq!(cube.distance(0, 0), 0);
        assert!(cube.neighbors(0).is_empty());
    }
}
