//! Quadtree (fat-tree-like) topology.
//!
//! "We also studied the quadtree topology, where each communication must
//! travel up and down the tree" (Section II-B). Processors occupy the
//! `4^levels` leaves of a complete quadtree; internal tree nodes are
//! switches. A message between two leaves climbs to their lowest common
//! ancestor and back down, so the hop count is `2 · (levels − lca_level)`.
//!
//! Leaves are numbered by the Morton code of their position in the
//! `2^levels × 2^levels` leaf grid, so that the subtree below any internal
//! node is one contiguous, power-of-four-aligned id range — the natural
//! numbering for a quadtree and the one that makes spatial quadrants of the
//! FMM model coincide with subtrees of the interconnect.

use crate::{NodeId, Topology, TopologyKind};

/// A complete quadtree interconnect with `4^levels` processor leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuadtreeNet {
    levels: u32,
}

impl QuadtreeNet {
    /// Create a quadtree with the given number of levels below the root
    /// (`levels == 0` is a single processor).
    pub fn new(levels: u32) -> Self {
        assert!(levels <= 31, "quadtree levels must be <= 31, got {levels}");
        QuadtreeNet { levels }
    }

    /// Create the quadtree whose leaf count is exactly `nodes`; panics
    /// unless `nodes` is a power of four.
    pub fn with_nodes(nodes: u64) -> Self {
        assert!(
            nodes.is_power_of_two() && nodes.trailing_zeros().is_multiple_of(2),
            "quadtree leaf count must be a power of four, got {nodes}"
        );
        QuadtreeNet::new(nodes.trailing_zeros() / 2)
    }

    /// Number of levels below the root.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// The tree level of the lowest common ancestor of leaves `a` and `b`
    /// (0 = root, `levels` = leaf level). Computed from the length of the
    /// common prefix of the leaves' base-4 Morton ids.
    pub fn lca_level(&self, a: NodeId, b: NodeId) -> u32 {
        if a == b {
            return self.levels;
        }
        let diff = a ^ b;
        // Highest differing base-4 digit position (0 = least significant).
        let top_bit = 63 - diff.leading_zeros();
        let digit = top_bit / 2;
        self.levels - 1 - digit
    }
}

impl Topology for QuadtreeNet {
    fn num_nodes(&self) -> u64 {
        1u64 << (2 * self.levels)
    }

    #[inline]
    fn distance(&self, a: NodeId, b: NodeId) -> u64 {
        debug_assert!(a < self.num_nodes() && b < self.num_nodes());
        if a == b {
            return 0;
        }
        2 * (self.levels - self.lca_level(a, b)) as u64
    }

    fn diameter(&self) -> u64 {
        2 * self.levels as u64
    }

    fn name(&self) -> &'static str {
        "Quadtree"
    }

    fn kind(&self) -> TopologyKind {
        TopologyKind::Quadtree
    }

    fn num_links(&self) -> u64 {
        // The full tree (switches + leaves) has (4^(levels+1) - 1) / 3
        // nodes and, being a tree, one undirected edge per non-root node.
        // Computed in u128: 4^(levels+1) overflows u64 at levels == 31,
        // though the final directed count still fits.
        let tree_nodes = ((1u128 << (2 * (self.levels + 1))) - 1) / 3;
        (2 * (tree_nodes - 1)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, VecDeque};

    /// Build the explicit tree graph (leaves + switches) and BFS leaf-to-leaf
    /// distances to validate the closed form.
    fn bfs_leaf_distance(levels: u32, a: u64, b: u64) -> u64 {
        // Node encoding: (level, id within level). Parent of (l, i) is
        // (l-1, i/4).
        let mut dist: HashMap<(u32, u64), u64> = HashMap::new();
        let mut queue = VecDeque::new();
        dist.insert((levels, a), 0);
        queue.push_back((levels, a));
        while let Some((l, i)) = queue.pop_front() {
            let d = dist[&(l, i)];
            if (l, i) == (levels, b) {
                return d;
            }
            let mut push = |node: (u32, u64)| {
                if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(node) {
                    e.insert(d + 1);
                    queue.push_back(node);
                }
            };
            if l > 0 {
                push((l - 1, i / 4));
            }
            if l < levels {
                for c in 0..4 {
                    push((l + 1, i * 4 + c));
                }
            }
        }
        unreachable!("leaf {b} not reached from {a}")
    }

    #[test]
    fn closed_form_matches_tree_bfs() {
        let net = QuadtreeNet::new(3);
        for a in 0..net.num_nodes() {
            for b in (a..net.num_nodes()).step_by(7) {
                assert_eq!(
                    net.distance(a, b),
                    bfs_leaf_distance(3, a, b),
                    "leaves {a},{b}"
                );
            }
        }
    }

    #[test]
    fn siblings_are_two_hops_apart() {
        let net = QuadtreeNet::new(4);
        assert_eq!(net.distance(0, 1), 2);
        assert_eq!(net.distance(0, 3), 2);
        // First leaf of the second quadrant at the top level is maximally far.
        assert_eq!(net.distance(0, net.num_nodes() - 1), net.diameter());
    }

    #[test]
    fn lca_levels() {
        let net = QuadtreeNet::new(2); // 16 leaves
        assert_eq!(net.lca_level(0, 0), 2);
        assert_eq!(net.lca_level(0, 1), 1); // same top-level quadrant
        assert_eq!(net.lca_level(0, 4), 0); // different top-level quadrants
        assert_eq!(net.lca_level(5, 6), 1);
    }

    #[test]
    fn with_nodes_round_trip() {
        assert_eq!(QuadtreeNet::with_nodes(65536).levels(), 8);
        assert_eq!(QuadtreeNet::with_nodes(1).levels(), 0);
    }

    #[test]
    #[should_panic(expected = "power of four")]
    fn power_of_two_but_not_four_rejected() {
        let _ = QuadtreeNet::with_nodes(32);
    }

    #[test]
    fn num_links_counts_tree_edges_both_ways() {
        // levels=0: single processor, no links. levels=1: root + 4 leaves,
        // 4 undirected edges. levels=2: 21 tree nodes, 20 undirected edges.
        assert_eq!(QuadtreeNet::new(0).num_links(), 0);
        assert_eq!(QuadtreeNet::new(1).num_links(), 8);
        assert_eq!(QuadtreeNet::new(2).num_links(), 40);
        // Max depth computes without overflow.
        assert!(QuadtreeNet::new(31).num_links() > 0);
    }

    #[test]
    fn distances_are_even() {
        let net = QuadtreeNet::new(3);
        for a in (0..net.num_nodes()).step_by(5) {
            for b in (0..net.num_nodes()).step_by(3) {
                assert_eq!(net.distance(a, b) % 2, 0);
            }
        }
    }

    #[test]
    fn metric_axioms() {
        let net = QuadtreeNet::new(3);
        let n = net.num_nodes();
        for a in (0..n).step_by(9) {
            assert_eq!(net.distance(a, a), 0);
            for b in (0..n).step_by(11) {
                assert_eq!(net.distance(a, b), net.distance(b, a));
                for c in (0..n).step_by(17) {
                    assert!(net.distance(a, c) <= net.distance(a, b) + net.distance(b, c));
                }
            }
        }
    }
}
