//! FMM interaction lists.
//!
//! Section III of the paper: "each cell at coarse resolutions interacts with
//! all of the children of its parent's neighbors that are not adjacent to
//! the cell at that resolution". Equivalently, the interaction list of cell
//! `c` contains the same-level cells that are *not* adjacent to `c` (no
//! shared edge or corner) but whose *parents are adjacent to (or equal to)
//! `c`'s parent* — the cells whose influence is well-separated at this level
//! but was not already handled at a coarser level.
//!
//! The enumeration below includes children of the parent itself (siblings of
//! `c`) when they are not adjacent to `c`; for a 2 × 2 subdivision every
//! sibling touches `c`, so this term is always empty in 2-D and the
//! definition coincides with the paper's "children of parent's neighbors"
//! phrasing. The worked example in the paper's Figure 4 is reproduced in the
//! tests verbatim.

use crate::cell::Cell;

/// Maximum possible interaction list length in 2-D: the 6×6 block of cells
/// covered by the parent's 3×3 neighborhood, minus the 3×3 adjacency block
/// around the cell itself — `36 − 9 = 27`.
pub const MAX_INTERACTION_LIST_2D: usize = 27;

/// An interaction list held inline: a fixed `[Cell; 27]` buffer plus a
/// length, so enumerating a list allocates nothing. The far-field ACD sweep
/// enumerates one list per occupied cell per level per trial — heap-backed
/// `Vec`s made the allocator the hottest symbol in that loop.
///
/// Dereferences to `&[Cell]`, so slice idioms (`len`, `contains`,
/// indexing, `for c in &list`) work unchanged.
#[derive(Debug, Clone, Copy)]
pub struct InteractionList {
    cells: [Cell; MAX_INTERACTION_LIST_2D],
    len: usize,
}

impl InteractionList {
    const fn new() -> Self {
        InteractionList {
            cells: [Cell::ROOT; MAX_INTERACTION_LIST_2D],
            len: 0,
        }
    }

    #[inline]
    fn push(&mut self, cell: Cell) {
        self.cells[self.len] = cell;
        self.len += 1;
    }

    /// The list as a slice, sorted by `Cell`'s derived `(level, x, y)` order.
    #[inline]
    pub fn as_slice(&self) -> &[Cell] {
        &self.cells[..self.len]
    }
}

impl std::ops::Deref for InteractionList {
    type Target = [Cell];

    #[inline]
    fn deref(&self) -> &[Cell] {
        self.as_slice()
    }
}

impl IntoIterator for InteractionList {
    type Item = Cell;
    type IntoIter = std::iter::Take<std::array::IntoIter<Cell, MAX_INTERACTION_LIST_2D>>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.cells.into_iter().take(self.len)
    }
}

impl<'a> IntoIterator for &'a InteractionList {
    type Item = &'a Cell;
    type IntoIter = std::slice::Iter<'a, Cell>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// The interaction list of `cell`: same-level children of the parent's
/// neighbors (and of the parent itself) that are not equal or adjacent to
/// `cell`. Returns an empty list for the root and for level 1 (the root has
/// no neighbors, and level-1 siblings are all adjacent).
pub fn interaction_list(cell: Cell) -> InteractionList {
    let mut out = InteractionList::new();
    let parent = match cell.parent() {
        Some(p) => p,
        None => return out,
    };
    let mut push_children_of = |p: Cell| {
        for child in p.children() {
            if child.chebyshev(cell) > 1 {
                out.push(child);
            }
        }
    };
    push_children_of(parent);
    for pn in parent.neighbors() {
        push_children_of(pn);
    }
    out.cells[..out.len].sort_unstable();
    out
}

/// True if `a` is in the interaction list of `b` (symmetric relation).
pub fn well_separated(a: Cell, b: Cell) -> bool {
    debug_assert_eq!(a.level, b.level);
    if a.level == 0 {
        return false;
    }
    let (pa, pb) = (a.parent().unwrap(), b.parent().unwrap());
    a.chebyshev(b) > 1 && pa.chebyshev(pb) <= 1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Helper matching the paper's Figure 4(a): a 4 × 4 grid (level 2) with
    /// cells numbered 0–15 in row-major order, rows *top-down* as printed in
    /// the figure. Our `y` axis grows upward, so figure row `r` is `y = 3 - r`.
    fn fig4_cell(number: u32) -> Cell {
        let row = number / 4;
        let col = number % 4;
        Cell::new(2, col, 3 - row)
    }

    fn fig4_number(cell: Cell) -> u32 {
        (3 - cell.y) * 4 + cell.x
    }

    #[test]
    fn figure4_interaction_list_of_node_0() {
        // Paper: "the interaction list of node 0 is {2, 3, 6, 7, 8–15}, or
        // every node that is not in its quadrant".
        let list = interaction_list(fig4_cell(0));
        let mut numbers: Vec<u32> = list.into_iter().map(fig4_number).collect();
        numbers.sort_unstable();
        assert_eq!(numbers, vec![2, 3, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]);
    }

    #[test]
    fn figure4_interaction_list_of_node_6() {
        // Paper: "the interaction list of node 6 is {0, 4, 8, 12, 13, 14, 15}".
        let list = interaction_list(fig4_cell(6));
        let mut numbers: Vec<u32> = list.into_iter().map(fig4_number).collect();
        numbers.sort_unstable();
        assert_eq!(numbers, vec![0, 4, 8, 12, 13, 14, 15]);
    }

    #[test]
    fn root_and_level1_lists_are_empty() {
        assert!(interaction_list(Cell::ROOT).is_empty());
        for child in Cell::ROOT.children() {
            assert!(interaction_list(child).is_empty());
        }
    }

    #[test]
    fn list_members_are_well_separated_and_same_level() {
        let cell = Cell::new(4, 5, 9);
        let list = interaction_list(cell);
        assert!(!list.is_empty());
        for other in &list {
            assert_eq!(other.level, cell.level);
            assert!(cell.chebyshev(*other) > 1, "{other} adjacent to {cell}");
            assert!(well_separated(cell, *other));
            // Parents are adjacent or equal.
            let pd = cell.parent().unwrap().chebyshev(other.parent().unwrap());
            assert!(pd <= 1);
        }
    }

    #[test]
    fn interior_cell_list_size() {
        // For an interior cell the list has exactly 27 entries in 2-D.
        let cell = Cell::new(5, 16, 16);
        assert_eq!(interaction_list(cell).len(), MAX_INTERACTION_LIST_2D);
    }

    #[test]
    fn symmetry_of_membership() {
        // a in IL(b) iff b in IL(a), over an exhaustive small grid.
        let level = 3u32;
        let side = 1u32 << level;
        for ax in 0..side {
            for ay in 0..side {
                let a = Cell::new(level, ax, ay);
                let la = interaction_list(a);
                for bx in 0..side {
                    for by in 0..side {
                        let b = Cell::new(level, bx, by);
                        let in_a = la.contains(&b);
                        let in_b = interaction_list(b).contains(&a);
                        assert_eq!(in_a, in_b, "{a} vs {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn completeness_every_pair_handled_once() {
        // Fundamental FMM invariant: every pair of distinct leaf cells is
        // either adjacent at the finest level (near field) or appears in the
        // interaction list of exactly one ancestor level pair (far field).
        let k = 4u32; // 16x16 leaves
        let side = 1u32 << k;
        for ax in 0..side {
            for ay in 0..side {
                let a = Cell::new(k, ax, ay);
                for bx in 0..side {
                    for by in 0..side {
                        let b = Cell::new(k, bx, by);
                        if a == b {
                            continue;
                        }
                        let near = a.chebyshev(b) <= 1;
                        // Count levels at which the ancestors are in each
                        // other's interaction lists.
                        let mut far_levels = 0;
                        for level in 1..=k {
                            let aa = a.ancestor_at(level);
                            let ba = b.ancestor_at(level);
                            if well_separated(aa, ba) {
                                far_levels += 1;
                            }
                        }
                        if near {
                            assert_eq!(far_levels, 0, "{a},{b}");
                        } else {
                            assert_eq!(far_levels, 1, "{a},{b}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn boundary_cells_have_smaller_lists() {
        let corner = Cell::new(5, 0, 0);
        let interior = Cell::new(5, 16, 16);
        assert!(interaction_list(corner).len() < interaction_list(interior).len());
    }
}
