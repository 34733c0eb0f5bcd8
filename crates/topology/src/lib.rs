//! # sfc-topology
//!
//! Interconnection network topologies and processor rank assignment, as used
//! by the Average Communicated Distance (ACD) model of *DeFord &
//! Kalyanaraman (ICPP 2013)*.
//!
//! The paper evaluates six topologies (Section II-B): **bus** (linear
//! array), **ring**, 2-D **mesh**, 2-D **torus**, **quadtree**, and
//! **hypercube**. The communication distance between two processors is the
//! number of hops on the shortest path through the interconnect, computed
//! here in closed form for every topology (and cross-validated against BFS
//! on the explicit link graph in the test suite).
//!
//! ## Nodes vs. ranks
//!
//! Each topology has `p` *processors* addressed by **physical node ids**
//! `0 .. p`. For the mesh and torus the node id encodes the grid position
//! (row-major). An application, however, addresses processors by **rank**
//! `0 .. p`; the mapping from rank to physical node is the *processor-order
//! SFC* of the paper. [`RankedNetwork`] couples a topology with such a map;
//! for topologies other than mesh/torus the paper uses the identity mapping
//! (their node numbering is already canonical).
//!
//! ```
//! use sfc_topology::{Torus2d, RankedNetwork, Topology};
//! use sfc_curves::CurveKind;
//!
//! // A 16×16 torus whose ranks follow the Hilbert curve.
//! let net = RankedNetwork::with_sfc_ranks(Torus2d::square(4), CurveKind::Hilbert);
//! assert_eq!(net.num_ranks(), 256);
//! // Consecutive ranks sit on adjacent nodes (Hilbert takes unit steps):
//! assert_eq!(net.rank_distance(41, 42), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod bisection;
pub mod bus;
pub mod hypercube;
pub mod kind;
pub mod mesh;
pub mod mesh3d;
pub mod quadtree_net;
pub mod rankmap;
pub mod ring;

pub use bisection::bisection_width;
pub use bus::Bus;
pub use hypercube::Hypercube;
pub use kind::TopologyKind;
pub use mesh::{Mesh2d, Torus2d};
pub use mesh3d::{Mesh3d, Torus3d};
pub use quadtree_net::QuadtreeNet;
pub use rankmap::{IdentityMap, RankMap, RankedNetwork, SfcRankMap};
pub use ring::Ring;

/// A physical node of an interconnect.
pub type NodeId = u64;

/// An interconnection network with shortest-path hop distances.
///
/// Implementations must guarantee the metric axioms: `distance(a, a) == 0`,
/// symmetry, and the triangle inequality — the test suite checks all three
/// against BFS on the explicit link graph.
pub trait Topology: Send + Sync {
    /// Number of processors in the network.
    fn num_nodes(&self) -> u64;

    /// Shortest-path distance in hops between the processors `a` and `b`.
    ///
    /// For indirect topologies (the quadtree), hops through internal
    /// switches are counted.
    fn distance(&self, a: NodeId, b: NodeId) -> u64;

    /// The largest distance between any pair of processors.
    fn diameter(&self) -> u64;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// The kind tag for this topology.
    fn kind(&self) -> TopologyKind;

    /// Total number of *directed* links in the network: every physical
    /// channel counted once per direction, matching how
    /// [`bfs`](crate::bfs) and the link-load model treat `(from, to)`
    /// pairs. Load statistics normalize by this, so an idle link counts
    /// toward the mean — a workload concentrating traffic on 2 of 1000
    /// links must report a large imbalance, not a perfect one.
    ///
    /// For indirect topologies (the quadtree), switch-to-switch links are
    /// counted too, consistent with [`Topology::distance`] counting hops
    /// through switches.
    fn num_links(&self) -> u64;

    /// Side length of the processor grid if this topology *is* a 2-D grid
    /// (mesh/torus); `None` otherwise. Processor-order SFCs apply only to
    /// grid topologies (Section IV, step 3 of the paper).
    fn grid_side(&self) -> Option<u64> {
        None
    }
}

/// Directed links contributed by the wrap-around rings of a torus: a ring
/// of side `s` has `s` undirected edges, except the degenerate sides where
/// the wrap coincides with the direct link (`s == 2`) or does not exist
/// (`s <= 1`).
pub(crate) fn ring_undirected_edges(s: u64) -> u64 {
    match s {
        0 | 1 => 0,
        2 => 1,
        s => s,
    }
}

/// Blanket impl so `&T` works wherever `T: Topology` does.
impl<T: Topology + ?Sized> Topology for &T {
    fn num_nodes(&self) -> u64 {
        (**self).num_nodes()
    }
    fn distance(&self, a: NodeId, b: NodeId) -> u64 {
        (**self).distance(a, b)
    }
    fn diameter(&self) -> u64 {
        (**self).diameter()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn kind(&self) -> TopologyKind {
        (**self).kind()
    }
    fn num_links(&self) -> u64 {
        (**self).num_links()
    }
    fn grid_side(&self) -> Option<u64> {
        (**self).grid_side()
    }
}

impl Topology for Box<dyn Topology> {
    fn num_nodes(&self) -> u64 {
        (**self).num_nodes()
    }
    fn distance(&self, a: NodeId, b: NodeId) -> u64 {
        (**self).distance(a, b)
    }
    fn diameter(&self) -> u64 {
        (**self).diameter()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn kind(&self) -> TopologyKind {
        (**self).kind()
    }
    fn num_links(&self) -> u64 {
        (**self).num_links()
    }
    fn grid_side(&self) -> Option<u64> {
        (**self).grid_side()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_object_passthrough() {
        let boxed: Box<dyn Topology> = Box::new(Ring::new(8));
        assert_eq!(boxed.num_nodes(), 8);
        assert_eq!(boxed.distance(0, 5), 3);
        assert_eq!(boxed.diameter(), 4);
        assert_eq!(boxed.kind(), TopologyKind::Ring);
        assert_eq!(boxed.num_links(), 16);
        assert_eq!(boxed.grid_side(), None);
        let by_ref: &dyn Topology = &*boxed;
        assert_eq!(by_ref.distance(1, 2), 1);
    }
}
