//! Precomputed curve permutation tables.
//!
//! Metric sweeps (the clustering metric in particular) evaluate `index(p)`
//! for *every* cell of a grid, often repeatedly. [`CurveTable`] materializes the full
//! point→index permutation once — `O(4^k)` memory — turning each lookup into
//! a single indexed load. The `curves` bench compares table lookups against
//! recomputing the transform per query.

use crate::{Curve2d, CurveKind, Point2};

/// A fully materialized curve of order `k`: both directions of the bijection
/// stored as flat arrays indexed in row-major order.
#[derive(Debug, Clone)]
pub struct CurveTable {
    kind: CurveKind,
    order: u32,
    /// `index_of[y * side + x]` = linear curve index of cell `(x, y)`.
    index_of: Vec<u64>,
    /// `point_of[i]` = cell at curve position `i`, packed as `y * side + x`.
    point_of: Vec<u32>,
}

impl CurveTable {
    /// Materialize the table for `kind` at the given order.
    ///
    /// Memory use is `12 * 4^order` bytes; orders above 14 (a 16384² grid,
    /// 3 GiB) are rejected.
    pub fn new(kind: CurveKind, order: u32) -> Self {
        assert!(
            (1..=14).contains(&order),
            "CurveTable limited to order <= 14 (got {order}); use the direct \
             transforms for larger grids"
        );
        let side = 1usize << order;
        let len = side * side;
        let mut index_of = vec![0u64; len];
        let mut point_of = vec![0u32; len];
        for y in 0..side as u32 {
            for x in 0..side as u32 {
                let p = Point2::new(x, y);
                let idx = kind.index_of(order, p);
                let flat = y as usize * side + x as usize;
                index_of[flat] = idx;
                point_of[idx as usize] = (y << order) | x;
            }
        }
        CurveTable {
            kind,
            order,
            index_of,
            point_of,
        }
    }

    /// The curve this table materializes.
    pub fn kind(&self) -> CurveKind {
        self.kind
    }
}

impl Curve2d for CurveTable {
    fn order(&self) -> u32 {
        self.order
    }

    #[inline]
    fn index(&self, p: Point2) -> u64 {
        self.index_of[((p.y as usize) << self.order) | p.x as usize]
    }

    #[inline]
    fn point(&self, idx: u64) -> Point2 {
        let packed = self.point_of[idx as usize];
        Point2::new(packed & ((1 << self.order) - 1), packed >> self.order)
    }

    fn name(&self) -> &'static str {
        self.kind.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_direct_transforms() {
        for kind in CurveKind::ALL {
            let table = CurveTable::new(kind, 4);
            for idx in 0..table.len() {
                let p = table.point(idx);
                assert_eq!(p, kind.point_of(4, idx), "{kind}");
                assert_eq!(table.index(p), idx, "{kind}");
            }
        }
    }

    #[test]
    fn table_is_a_permutation() {
        let table = CurveTable::new(CurveKind::Hilbert, 5);
        let mut seen = vec![false; table.len() as usize];
        for y in 0..table.side() as u32 {
            for x in 0..table.side() as u32 {
                let idx = table.index(Point2::new(x, y)) as usize;
                assert!(!seen[idx]);
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&v| v));
    }

    #[test]
    #[should_panic(expected = "CurveTable limited")]
    fn oversized_table_rejected() {
        let _ = CurveTable::new(CurveKind::Hilbert, 15);
    }
}
