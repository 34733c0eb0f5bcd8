//! Far-field interaction (FFI) ACD — Sections III–IV of the paper.
//!
//! The far field of one FMM time step induces three communication families:
//!
//! - **Interpolation**: upward accumulation. For every occupied cell at
//!   every level, the cell's owner sends its accumulated value to the owner
//!   of the parent cell. Following the paper's convention, the *owner* of a
//!   cell (quadrant) is the lowest-ranked processor holding a particle in it
//!   — with SFC-contiguous chunks this is also the processor of the lowest
//!   indexed particle.
//! - **Anterpolation**: downward accumulation — the same parent↔child pairs
//!   traversed in the opposite direction.
//! - **Interaction lists**: at every level, every occupied cell exchanges
//!   with every *occupied* cell of its interaction list (children of the
//!   parent's neighbors that are not adjacent to the cell; see
//!   [`sfc_quadtree::interaction`]).
//!
//! The ACD over the far field is the mean hop distance across all three
//! families; the per-family sums are reported separately so experiments can
//! break the total down.

use crate::assignment::Assignment;
use crate::error::SfcError;
use crate::machine::Machine;
use rayon::prelude::*;
use sfc_curves::morton;
use sfc_particles::CellMap;
use sfc_quadtree::{interaction_list, Cell};

/// Outcome of a far-field ACD computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FfiResult {
    /// Hop-distance sum of interpolation (upward) messages.
    pub interp_distance: u64,
    /// Number of interpolation messages.
    pub interp_comms: u64,
    /// Hop-distance sum of anterpolation (downward) messages.
    pub anterp_distance: u64,
    /// Number of anterpolation messages.
    pub anterp_comms: u64,
    /// Hop-distance sum of interaction-list exchanges (directed).
    pub ilist_distance: u64,
    /// Number of interaction-list exchanges (directed).
    pub ilist_comms: u64,
}

impl FfiResult {
    /// Total hop distance over all far-field communications.
    pub fn total_distance(&self) -> u64 {
        self.interp_distance + self.anterp_distance + self.ilist_distance
    }

    /// Total number of far-field communications.
    pub fn num_comms(&self) -> u64 {
        self.interp_comms + self.anterp_comms + self.ilist_comms
    }

    /// The far-field Average Communicated Distance.
    pub fn acd(&self) -> f64 {
        let n = self.num_comms();
        if n == 0 {
            0.0
        } else {
            self.total_distance() as f64 / n as f64
        }
    }

    /// ACD of the tree (interpolation + anterpolation) component alone.
    pub fn tree_acd(&self) -> f64 {
        let n = self.interp_comms + self.anterp_comms;
        if n == 0 {
            0.0
        } else {
            (self.interp_distance + self.anterp_distance) as f64 / n as f64
        }
    }

    /// ACD of the interaction-list component alone.
    pub fn ilist_acd(&self) -> f64 {
        if self.ilist_comms == 0 {
            0.0
        } else {
            self.ilist_distance as f64 / self.ilist_comms as f64
        }
    }
}

/// The per-level occupancy/ownership index the far-field model walks: for
/// each level `0 ..= k`, the occupied cells (by Morton code) and the lowest
/// rank holding a particle in each.
pub struct OwnerTree {
    /// `levels[l]` maps level-`l` Morton codes to owner ranks.
    levels: Vec<CellMap>,
    /// `entries[l]` holds the same mapping as `(code, rank)` pairs sorted by
    /// code — built once here so sweeps can borrow a slice per level instead
    /// of re-collecting the hash table into a fresh `Vec` per call.
    entries: Vec<Vec<(u64, u32)>>,
}

impl OwnerTree {
    /// Build the tree for an assignment.
    pub fn build(asg: &Assignment) -> Self {
        let mut tree = OwnerTree {
            levels: Vec::new(),
            entries: Vec::new(),
        };
        tree.rebuild(asg);
        tree
    }

    /// Rebuild the tree for a new assignment *in place*, reusing every
    /// allocation (entry vectors and hash tables) from the previous build.
    /// Sweeps that index one assignment per trial use this as scratch
    /// instead of constructing a tree per trial.
    pub fn rebuild(&mut self, asg: &Assignment) {
        let k = asg.grid_order() as usize;
        let n = asg.particles().len();
        self.levels.resize_with(k + 1, || CellMap::with_capacity(0));
        self.entries.resize_with(k + 1, Vec::new);
        // Finest level: one entry per particle, min rank per cell. Sorting
        // by (code, rank) makes the first entry of each code run the owner.
        let finest = &mut self.entries[k];
        finest.clear();
        finest.reserve(n);
        for (i, p) in asg.particles().iter().enumerate() {
            finest.push((morton::encode(p.x, p.y), asg.rank_of_index(i)));
        }
        finest.sort_unstable();
        finest.dedup_by(|a, b| a.0 == b.0);
        // Coarser levels, reducing by parent code. Parent codes of a sorted
        // code sequence are themselves sorted, so each level is one linear
        // min-rank fold over runs — no hashing and no re-sorting.
        for level in (0..k).rev() {
            let (dst_part, src_part) = self.entries.split_at_mut(level + 1);
            let dst = &mut dst_part[level];
            let src = &src_part[0];
            dst.clear();
            for &(code, rank) in src.iter() {
                let parent = code >> 2;
                match dst.last_mut() {
                    Some(last) if last.0 == parent => last.1 = last.1.min(rank),
                    _ => dst.push((parent, rank)),
                }
            }
        }
        // Mirror each level into its hash table for point lookups
        // (`owner`), clearing and reusing the previous tables.
        for level in 0..=k {
            let map = &mut self.levels[level];
            map.reset(self.entries[level].len());
            for &(code, rank) in &self.entries[level] {
                map.insert_first(code, rank);
            }
        }
    }

    /// Number of levels (grid order + 1).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Owner of the given cell, or `None` if it holds no particle.
    pub fn owner(&self, cell: Cell) -> Option<u32> {
        self.levels[cell.level as usize].get(cell.code())
    }

    /// Occupied cells at a level, as `(morton code, owner rank)` pairs
    /// sorted by code. Borrowed from the tree — enumerating a level
    /// allocates nothing.
    pub fn level_entries(&self, level: u32) -> &[(u64, u32)] {
        &self.entries[level as usize]
    }

    /// Number of occupied cells at a level.
    pub fn level_len(&self, level: u32) -> usize {
        self.entries[level as usize].len()
    }
}

/// Compute the far-field ACD for an assignment on a machine. A machine with
/// fewer ranks than the assignment addresses is a typed [`SfcError`].
pub fn ffi_acd(asg: &Assignment, machine: &Machine) -> Result<FfiResult, SfcError> {
    let tree = OwnerTree::build(asg);
    ffi_acd_with_tree(asg, machine, &tree)
}

/// Compute the far-field ACD with a prebuilt [`OwnerTree`] (for callers that
/// evaluate several machines against one assignment).
///
/// A machine with fewer ranks than the assignment addresses is a typed
/// [`SfcError`] instead of an abort.
pub fn ffi_acd_with_tree(
    asg: &Assignment,
    machine: &Machine,
    tree: &OwnerTree,
) -> Result<FfiResult, SfcError> {
    machine.check_assignment(asg)?;
    let k = asg.grid_order();
    let mut result = FfiResult::default();

    // Interpolation / anterpolation: every occupied cell below the root
    // exchanges with its parent's owner.
    for level in 1..=k {
        let entries = tree.level_entries(level);
        let parents = &tree.levels[(level - 1) as usize];
        let (dist, count): (u64, u64) = entries
            .par_iter()
            .map(|&(code, rank)| {
                let parent_owner = parents
                    .get(code >> 2)
                    .expect("parent of an occupied cell is occupied");
                (machine.distance(rank, parent_owner), 1u64)
            })
            .reduce(|| (0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        result.interp_distance += dist;
        result.interp_comms += count;
    }
    // Downward accumulation retraces the same edges.
    result.anterp_distance = result.interp_distance;
    result.anterp_comms = result.interp_comms;

    // Interaction lists: levels 2 ..= k (level 1 lists are empty). The
    // relation is symmetric (`well_separated`) and so is hop distance, so
    // each cell counts only the list members that sort after it — every
    // unordered pair once — and the sums are doubled into directed ones.
    for level in 2..=k {
        let entries = tree.level_entries(level);
        let level_map = &tree.levels[level as usize];
        let (dist, count): (u64, u64) = entries
            .par_iter()
            .map(|&(code, rank)| {
                let cell = Cell::from_code(level, code);
                let list = interaction_list(cell);
                let mut d = 0u64;
                let mut c = 0u64;
                for other_cell in &list[list.partition_point(|o| *o < cell)..] {
                    if let Some(other) = level_map.get(other_cell.code()) {
                        d += machine.distance(rank, other);
                        c += 1;
                    }
                }
                (d, c)
            })
            .reduce(|| (0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        result.ilist_distance += 2 * dist;
        result.ilist_comms += 2 * count;
    }

    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc_curves::{CurveKind, Point2};
    use sfc_topology::TopologyKind;

    fn pts(coords: &[(u32, u32)]) -> Vec<Point2> {
        coords.iter().map(|&(x, y)| Point2::new(x, y)).collect()
    }

    #[test]
    fn owner_tree_propagates_minimum_rank() {
        // Four particles on a 4x4 grid, one per rank, Z-ordered.
        let particles = pts(&[(0, 0), (3, 0), (0, 3), (3, 3)]);
        let asg = Assignment::new(&particles, 2, CurveKind::ZCurve, 4);
        let tree = OwnerTree::build(&asg);
        assert_eq!(tree.num_levels(), 3);
        // Root owned by rank 0.
        assert_eq!(tree.owner(Cell::ROOT), Some(0));
        // Each level-1 quadrant owned by its single particle's rank
        // (Z order: LL=0, LR=1, UL=2, UR=3).
        assert_eq!(tree.owner(Cell::new(1, 0, 0)), Some(0));
        assert_eq!(tree.owner(Cell::new(1, 1, 0)), Some(1));
        assert_eq!(tree.owner(Cell::new(1, 0, 1)), Some(2));
        assert_eq!(tree.owner(Cell::new(1, 1, 1)), Some(3));
        // Empty cells have no owner.
        assert_eq!(tree.owner(Cell::new(2, 1, 1)), None);
    }

    #[test]
    fn single_particle_has_tree_only_traffic_at_zero_distance() {
        let particles = pts(&[(2, 2)]);
        let asg = Assignment::new(&particles, 3, CurveKind::Hilbert, 1);
        let machine = Machine::grid(TopologyKind::Torus, 64, CurveKind::Hilbert);
        let res = ffi_acd(&asg, &machine).unwrap();
        // One occupied cell per level 1..=3: 3 interpolation + 3
        // anterpolation messages, all rank-local.
        assert_eq!(res.interp_comms, 3);
        assert_eq!(res.anterp_comms, 3);
        assert_eq!(res.total_distance(), 0);
        assert_eq!(res.ilist_comms, 0);
        assert_eq!(res.acd(), 0.0);
    }

    #[test]
    fn interpolation_counts_match_occupied_cells() {
        let particles = pts(&[(0, 0), (1, 0), (7, 7), (6, 6)]);
        let asg = Assignment::new(&particles, 3, CurveKind::ZCurve, 4);
        let tree = OwnerTree::build(&asg);
        let machine = Machine::grid(TopologyKind::Mesh, 64, CurveKind::ZCurve);
        let res = ffi_acd_with_tree(&asg, &machine, &tree).unwrap();
        let expected: u64 = (1..=3).map(|l| tree.level_len(l) as u64).sum();
        assert_eq!(res.interp_comms, expected);
        assert_eq!(res.anterp_comms, expected);
        assert_eq!(res.interp_distance, res.anterp_distance);
    }

    #[test]
    fn well_separated_pairs_generate_ilist_traffic() {
        // Two particles whose level-3 cells are in each other's interaction
        // lists: (0,0) and (3,0) on an 8x8 grid — parents (0,0) and (1,0)
        // at level 2 are adjacent, cells are 3 apart (Chebyshev) at level 3.
        let particles = pts(&[(0, 0), (3, 0)]);
        let asg = Assignment::new(&particles, 3, CurveKind::RowMajor, 2);
        let machine = Machine::grid(TopologyKind::Mesh, 64, CurveKind::RowMajor);
        let res = ffi_acd(&asg, &machine).unwrap();
        // Directed: 2 exchanges at level 3 only.
        assert_eq!(res.ilist_comms, 2);
        assert!(res.ilist_distance > 0);
    }

    #[test]
    fn adjacent_cells_never_appear_in_ilists() {
        let particles = pts(&[(0, 0), (1, 0)]);
        let asg = Assignment::new(&particles, 3, CurveKind::Hilbert, 2);
        let machine = Machine::grid(TopologyKind::Mesh, 64, CurveKind::Hilbert);
        let res = ffi_acd(&asg, &machine).unwrap();
        assert_eq!(res.ilist_comms, 0);
    }

    #[test]
    fn ilist_traffic_is_directed_and_symmetric() {
        let particles = pts(&[(0, 0), (3, 3), (5, 5), (7, 0)]);
        let asg = Assignment::new(&particles, 3, CurveKind::Gray, 4);
        let machine = Machine::grid(TopologyKind::Torus, 64, CurveKind::Gray);
        let res = ffi_acd(&asg, &machine).unwrap();
        assert_eq!(res.ilist_comms % 2, 0);
        assert_eq!(res.ilist_distance % 2, 0);
    }

    #[test]
    fn acd_breakdown_sums_to_total() {
        let particles = pts(&[(0, 0), (2, 5), (7, 1), (4, 4), (6, 7)]);
        let asg = Assignment::new(&particles, 3, CurveKind::Hilbert, 4);
        let machine = Machine::grid(TopologyKind::Torus, 64, CurveKind::Hilbert);
        let res = ffi_acd(&asg, &machine).unwrap();
        assert_eq!(
            res.total_distance(),
            res.interp_distance + res.anterp_distance + res.ilist_distance
        );
        assert_eq!(
            res.num_comms(),
            res.interp_comms + res.anterp_comms + res.ilist_comms
        );
        let weighted = res.tree_acd() * (res.interp_comms + res.anterp_comms) as f64
            + res.ilist_acd() * res.ilist_comms as f64;
        assert!((weighted / res.num_comms() as f64 - res.acd()).abs() < 1e-9);
    }

    #[test]
    fn prebuilt_tree_matches_direct_call() {
        let particles = pts(&[(0, 0), (2, 5), (7, 1), (4, 4)]);
        let asg = Assignment::new(&particles, 3, CurveKind::ZCurve, 4);
        let machine = Machine::grid(TopologyKind::Mesh, 64, CurveKind::ZCurve);
        let tree = OwnerTree::build(&asg);
        assert_eq!(ffi_acd(&asg, &machine), ffi_acd_with_tree(&asg, &machine, &tree));
    }

    #[test]
    fn undersized_machine_is_a_typed_error() {
        use crate::error::SfcError;
        let particles = pts(&[(0, 0), (7, 7)]);
        let asg = Assignment::new(&particles, 3, CurveKind::Hilbert, 64);
        let small = Machine::grid(TopologyKind::Mesh, 16, CurveKind::Hilbert);
        match ffi_acd(&asg, &small) {
            Err(SfcError::MachineTooSmall {
                machine_ranks: 16,
                assignment_ranks: 64,
            }) => {}
            other => panic!("expected MachineTooSmall, got {other:?}"),
        }
    }

    #[test]
    fn level_entries_are_sorted_borrowed_slices() {
        let particles = pts(&[(5, 5), (0, 0), (7, 1), (2, 6), (3, 3)]);
        let asg = Assignment::new(&particles, 3, CurveKind::Hilbert, 4);
        let tree = OwnerTree::build(&asg);
        for level in 0..=3 {
            let entries = tree.level_entries(level);
            assert_eq!(entries.len(), tree.level_len(level));
            assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "level {level}");
            for &(code, rank) in entries {
                assert_eq!(tree.owner(Cell::from_code(level, code)), Some(rank));
            }
            // Borrowed, not re-collected: repeated calls hand out the same
            // memory.
            assert_eq!(entries.as_ptr(), tree.level_entries(level).as_ptr());
        }
    }

    /// Reference far field: every occupied cell messages its parent's
    /// owner, and every occupied cell exchanges with every occupied member
    /// of its full interaction list — each directed exchange computed on
    /// its own, with point lookups only.
    fn full_directed_ffi(asg: &Assignment, machine: &Machine) -> FfiResult {
        let tree = OwnerTree::build(asg);
        let mut res = FfiResult::default();
        for level in 1..=asg.grid_order() {
            for &(code, rank) in tree.level_entries(level) {
                let cell = Cell::from_code(level, code);
                let parent = tree.owner(cell.parent().unwrap()).unwrap();
                res.interp_distance += machine.distance(rank, parent);
                res.interp_comms += 1;
                for other_cell in interaction_list(cell) {
                    if let Some(other) = tree.owner(other_cell) {
                        res.ilist_distance += machine.distance(rank, other);
                        res.ilist_comms += 1;
                    }
                }
            }
        }
        res.anterp_distance = res.interp_distance;
        res.anterp_comms = res.interp_comms;
        res
    }

    /// The forward-half interaction-list scan agrees with the full
    /// directed enumeration.
    #[test]
    fn forward_half_matches_full_directed_ilist() {
        for order in 3..=6u32 {
            let side = 1u32 << order;
            // An irregular blob so lists are partly occupied and cells near
            // the grid edge have clipped lists.
            let mut coords = Vec::new();
            for x in 0..side {
                for y in 0..side {
                    if (x * 7 + y * 3 + order) % 5 != 0 && (x ^ y) % 7 != 3 {
                        coords.push((x, y));
                    }
                }
            }
            let particles = pts(&coords);
            for curve in [CurveKind::Hilbert, CurveKind::ZCurve] {
                for ranks in [4u64, 16, 64] {
                    let asg = Assignment::new(&particles, order, curve, ranks);
                    for topo in TopologyKind::PAPER {
                        let machine = Machine::new(topo, 64, curve);
                        assert_eq!(
                            ffi_acd(&asg, &machine),
                            Ok(full_directed_ffi(&asg, &machine)),
                            "order {order} {curve:?} {topo:?} p={ranks}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rebuild_reuses_scratch_allocations() {
        let particles = pts(&[(0, 0), (2, 5), (7, 1), (4, 4)]);
        let asg = Assignment::new(&particles, 3, CurveKind::ZCurve, 4);
        let mut tree = OwnerTree::build(&asg);
        let reference = ffi_acd(
            &asg,
            &Machine::grid(TopologyKind::Mesh, 64, CurveKind::ZCurve),
        );
        let before: Vec<*const (u64, u32)> =
            (0..=3).map(|l| tree.level_entries(l).as_ptr()).collect();
        tree.rebuild(&asg);
        let after: Vec<*const (u64, u32)> =
            (0..=3).map(|l| tree.level_entries(l).as_ptr()).collect();
        assert_eq!(before, after, "rebuild must reuse the entry buffers");
        let machine = Machine::grid(TopologyKind::Mesh, 64, CurveKind::ZCurve);
        assert_eq!(reference, ffi_acd_with_tree(&asg, &machine, &tree));
    }
}
