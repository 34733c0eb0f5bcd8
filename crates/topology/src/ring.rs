//! Ring topology.
//!
//! A bus whose endpoints are joined: processor `i` links to
//! `(i ± 1) mod p`, so the distance between two nodes is the shorter way
//! around the circle.

use crate::{NodeId, Topology, TopologyKind};

/// A ring of `p` processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ring {
    nodes: u64,
}

impl Ring {
    /// Create a ring with `nodes` processors (at least 1).
    pub fn new(nodes: u64) -> Self {
        assert!(nodes >= 1, "a ring needs at least one processor");
        Ring { nodes }
    }

    /// The processors directly linked to `a`.
    pub fn neighbors(&self, a: NodeId) -> Vec<NodeId> {
        if self.nodes == 1 {
            return Vec::new();
        }
        if self.nodes == 2 {
            return vec![1 - a];
        }
        vec![(a + self.nodes - 1) % self.nodes, (a + 1) % self.nodes]
    }
}

impl Topology for Ring {
    fn num_nodes(&self) -> u64 {
        self.nodes
    }

    #[inline]
    fn distance(&self, a: NodeId, b: NodeId) -> u64 {
        debug_assert!(a < self.nodes && b < self.nodes);
        let d = a.abs_diff(b);
        d.min(self.nodes - d)
    }

    fn diameter(&self) -> u64 {
        self.nodes / 2
    }

    fn name(&self) -> &'static str {
        "Ring"
    }

    fn kind(&self) -> TopologyKind {
        TopologyKind::Ring
    }

    fn num_links(&self) -> u64 {
        2 * crate::ring_undirected_edges(self.nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::check_against_bfs;

    #[test]
    fn wrap_around_is_shorter() {
        let ring = Ring::new(10);
        assert_eq!(ring.distance(0, 9), 1);
        assert_eq!(ring.distance(0, 5), 5);
        assert_eq!(ring.distance(2, 8), 4);
        assert_eq!(ring.diameter(), 5);
    }

    #[test]
    fn odd_ring() {
        let ring = Ring::new(7);
        assert_eq!(ring.distance(0, 3), 3);
        assert_eq!(ring.distance(0, 4), 3);
        assert_eq!(ring.diameter(), 3);
    }

    #[test]
    fn matches_bfs() {
        for p in [2u64, 3, 8, 13] {
            let ring = Ring::new(p);
            check_against_bfs(&ring, |a| ring.neighbors(a));
        }
    }

    #[test]
    fn two_node_ring_has_single_link() {
        let ring = Ring::new(2);
        assert_eq!(ring.neighbors(0), vec![1]);
        assert_eq!(ring.distance(0, 1), 1);
    }

    #[test]
    fn num_links_equals_neighbor_degree_sum() {
        for p in [1u64, 2, 3, 10] {
            let ring = Ring::new(p);
            let degree_sum: u64 = (0..p).map(|n| ring.neighbors(n).len() as u64).sum();
            assert_eq!(ring.num_links(), degree_sum, "ring of {p}");
        }
    }
}
