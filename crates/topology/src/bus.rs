//! Bus (linear array) topology.
//!
//! The paper's "bus" is the simplest network it studies: processors arranged
//! in a line, "each processor may only communicate with two direct
//! neighbors" (Section II-B). Messages between processors `a` and `b`
//! therefore traverse `|a - b|` hops.

use crate::{NodeId, Topology, TopologyKind};

/// A linear array of `p` processors; node `i` links to `i - 1` and `i + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bus {
    nodes: u64,
}

impl Bus {
    /// Create a bus with `nodes` processors (at least 1).
    pub fn new(nodes: u64) -> Self {
        assert!(nodes >= 1, "a bus needs at least one processor");
        Bus { nodes }
    }

    /// The processors directly linked to `a`.
    pub fn neighbors(&self, a: NodeId) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(2);
        if a > 0 {
            out.push(a - 1);
        }
        if a + 1 < self.nodes {
            out.push(a + 1);
        }
        out
    }
}

impl Topology for Bus {
    fn num_nodes(&self) -> u64 {
        self.nodes
    }

    #[inline]
    fn distance(&self, a: NodeId, b: NodeId) -> u64 {
        debug_assert!(a < self.nodes && b < self.nodes);
        a.abs_diff(b)
    }

    fn diameter(&self) -> u64 {
        self.nodes - 1
    }

    fn name(&self) -> &'static str {
        "Bus"
    }

    fn kind(&self) -> TopologyKind {
        TopologyKind::Bus
    }

    fn num_links(&self) -> u64 {
        2 * (self.nodes - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::check_against_bfs;

    #[test]
    fn distances() {
        let bus = Bus::new(10);
        assert_eq!(bus.distance(0, 9), 9);
        assert_eq!(bus.distance(9, 0), 9);
        assert_eq!(bus.distance(4, 4), 0);
        assert_eq!(bus.diameter(), 9);
    }

    #[test]
    fn endpoints_have_one_neighbor() {
        let bus = Bus::new(5);
        assert_eq!(bus.neighbors(0), vec![1]);
        assert_eq!(bus.neighbors(4), vec![3]);
        assert_eq!(bus.neighbors(2), vec![1, 3]);
    }

    #[test]
    fn single_node_bus() {
        let bus = Bus::new(1);
        assert_eq!(bus.distance(0, 0), 0);
        assert_eq!(bus.diameter(), 0);
        assert!(bus.neighbors(0).is_empty());
    }

    #[test]
    fn matches_bfs() {
        let bus = Bus::new(17);
        check_against_bfs(&bus, |a| bus.neighbors(a));
    }

    #[test]
    fn num_links_equals_neighbor_degree_sum() {
        for p in [1u64, 2, 5, 16] {
            let bus = Bus::new(p);
            let degree_sum: u64 = (0..p).map(|n| bus.neighbors(n).len() as u64).sum();
            assert_eq!(bus.num_links(), degree_sum, "bus of {p}");
        }
    }
}
