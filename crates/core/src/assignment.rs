//! Particle ordering and distribution — steps 1–2 and 4 of the paper's
//! algorithm (Section IV).
//!
//! An [`Assignment`] captures the result of ordering the input particles by
//! a particle-order SFC, partitioning the ordered sequence into `p`
//! consecutive chunks of `⌈n/p⌉`, and handing chunk `i` to processor rank
//! `i`. It also indexes the occupied cells for O(1) "which rank owns cell
//! `(x, y)`?" queries, which both interaction models issue in their inner
//! loops.

use sfc_curves::{CurveKind, Point2};
use sfc_particles::GridIndex;

/// Particles ordered by an SFC and distributed to processor ranks.
#[derive(Debug, Clone)]
pub struct Assignment {
    grid_order: u32,
    curve: CurveKind,
    num_ranks: u64,
    chunk: usize,
    /// Particles sorted by their particle-order SFC index.
    particles: Vec<Point2>,
    /// Dense occupancy table: one indexed load per cell query, whole rows
    /// for segment scans.
    grid: GridIndex,
}

impl Assignment {
    /// Order `particles` (distinct cells on a `2^grid_order`-sided grid) by
    /// `curve` and distribute them to `num_ranks` processors in consecutive
    /// chunks of `⌈n/p⌉`.
    ///
    /// # Panics
    ///
    /// Panics on an empty particle set, zero ranks, a grid order above
    /// [`sfc_particles::MAX_GRID_ORDER`], or a particle that is outside the
    /// grid or shares a cell with another.
    pub fn new(
        particles: &[Point2],
        grid_order: u32,
        curve: CurveKind,
        num_ranks: u64,
    ) -> Self {
        assert!(num_ranks >= 1, "at least one processor required");
        assert!(!particles.is_empty(), "at least one particle required");
        let mut grid = GridIndex::new(grid_order);
        let side = 1u64 << grid_order;
        let mut sorted: Vec<(u64, Point2)> = particles
            .iter()
            .map(|&p| {
                assert!(p.in_grid(side), "{p} outside grid of order {grid_order}");
                (curve.index_of(grid_order, p), p)
            })
            .collect();
        sorted.sort_unstable_by_key(|&(idx, _)| idx);
        let n = sorted.len();
        let chunk = n.div_ceil(num_ranks as usize);
        let mut ordered = Vec::with_capacity(n);
        for (i, &(_, p)) in sorted.iter().enumerate() {
            assert!(!grid.is_occupied(p.x, p.y), "duplicate particle cell {p}");
            grid.insert(p.x, p.y, (i / chunk) as u32);
            ordered.push(p);
        }
        Assignment {
            grid_order,
            curve,
            num_ranks,
            chunk,
            particles: ordered,
            grid,
        }
    }

    /// Always true: every assignment carries the dense occupancy table.
    pub fn has_dense_grid(&self) -> bool {
        true
    }

    /// Bytes held by the dense occupancy table — the memory-envelope number
    /// [`sfc_particles::MAX_GRID_ORDER`] bounds.
    pub fn dense_grid_bytes(&self) -> usize {
        self.grid.table_bytes()
    }

    /// Grid order `k` of the spatial resolution.
    pub fn grid_order(&self) -> u32 {
        self.grid_order
    }

    /// The particle-order curve used.
    pub fn curve(&self) -> CurveKind {
        self.curve
    }

    /// Number of processor ranks the particles are distributed over.
    pub fn num_ranks(&self) -> u64 {
        self.num_ranks
    }

    /// Number of ranks that actually hold at least one particle
    /// (`⌈n / ⌈n/p⌉⌉`; can be less than `num_ranks`).
    pub fn ranks_used(&self) -> u64 {
        self.particles.len().div_ceil(self.chunk) as u64
    }

    /// Chunk size `⌈n/p⌉`.
    pub fn chunk_size(&self) -> usize {
        self.chunk
    }

    /// The particles in particle-order SFC order.
    pub fn particles(&self) -> &[Point2] {
        &self.particles
    }

    /// Rank of the `i`-th particle in SFC order.
    #[inline]
    pub fn rank_of_index(&self, i: usize) -> u32 {
        debug_assert!(i < self.particles.len());
        (i / self.chunk) as u32
    }

    /// Rank owning the particle in cell `(x, y)`, or `None` if the cell is
    /// empty — one indexed load.
    #[inline]
    pub fn rank_of_cell(&self, x: u32, y: u32) -> Option<u32> {
        self.grid.rank_of(x, y)
    }

    /// True if cell `(x, y)` holds a particle.
    #[inline]
    pub fn is_occupied(&self, x: u32, y: u32) -> bool {
        self.grid.is_occupied(x, y)
    }

    /// The dense rank row at height `y` (`row[x]` is the owner of cell
    /// `(x, y)` or [`GridIndex::EMPTY`]). Kernels use this to turn `O(r²)`
    /// per-cell probes into per-`dy` contiguous row-segment scans.
    #[inline]
    pub fn rank_row(&self, y: u32) -> &[u32] {
        self.grid.rank_row(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(u32, u32)]) -> Vec<Point2> {
        coords.iter().map(|&(x, y)| Point2::new(x, y)).collect()
    }

    #[test]
    fn particles_are_sorted_by_curve_index() {
        let particles = pts(&[(3, 3), (0, 0), (1, 2), (2, 0)]);
        let asg = Assignment::new(&particles, 2, CurveKind::Hilbert, 2);
        let indices: Vec<u64> = asg
            .particles()
            .iter()
            .map(|&p| CurveKind::Hilbert.index_of(2, p))
            .collect();
        assert!(indices.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn chunking_matches_ceiling_division() {
        let particles = pts(&[(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)]);
        let asg = Assignment::new(&particles, 2, CurveKind::RowMajor, 2);
        // n=5, p=2 -> chunk 3: ranks 0,0,0,1,1.
        assert_eq!(asg.chunk_size(), 3);
        assert_eq!(asg.rank_of_index(0), 0);
        assert_eq!(asg.rank_of_index(2), 0);
        assert_eq!(asg.rank_of_index(3), 1);
        assert_eq!(asg.ranks_used(), 2);
    }

    #[test]
    fn more_ranks_than_particles() {
        let particles = pts(&[(0, 0), (3, 3)]);
        let asg = Assignment::new(&particles, 2, CurveKind::ZCurve, 16);
        assert_eq!(asg.chunk_size(), 1);
        assert_eq!(asg.ranks_used(), 2);
        assert_eq!(asg.rank_of_cell(0, 0), Some(0));
        assert_eq!(asg.rank_of_cell(3, 3), Some(1));
    }

    #[test]
    fn cell_lookup_agrees_with_index_ranks() {
        let particles = pts(&[(0, 0), (1, 0), (0, 1), (1, 1), (2, 2), (3, 2)]);
        let asg = Assignment::new(&particles, 2, CurveKind::Gray, 3);
        for (i, p) in asg.particles().iter().enumerate() {
            assert_eq!(asg.rank_of_cell(p.x, p.y), Some(asg.rank_of_index(i)));
        }
        assert_eq!(asg.rank_of_cell(3, 3), None);
        assert!(!asg.is_occupied(3, 3));
        assert!(asg.is_occupied(2, 2));
    }

    #[test]
    fn curve_changes_the_distribution() {
        // The same particles split differently under Hilbert vs row-major.
        let particles = pts(&[(0, 0), (0, 1), (3, 0), (3, 1)]);
        let hil = Assignment::new(&particles, 2, CurveKind::Hilbert, 2);
        let row = Assignment::new(&particles, 2, CurveKind::RowMajor, 2);
        // Hilbert: (0,0),(0,1) first (indices 0,1); row-major: (0,0),(3,0).
        assert_eq!(hil.rank_of_cell(0, 1), Some(0));
        assert_eq!(row.rank_of_cell(0, 1), Some(1));
    }

    #[test]
    fn rank_rows_expose_owners_and_the_empty_sentinel() {
        let particles = pts(&[(0, 0), (1, 0), (3, 3)]);
        let asg = Assignment::new(&particles, 2, CurveKind::Hilbert, 2);
        assert_eq!(asg.dense_grid_bytes(), 4 * 4 * 4);
        let row = asg.rank_row(0);
        assert_eq!(row.len(), 4);
        assert_eq!(row[0], asg.rank_of_cell(0, 0).unwrap());
        assert_eq!(row[1], asg.rank_of_cell(1, 0).unwrap());
        assert_eq!(row[2], GridIndex::EMPTY);
    }

    #[test]
    #[should_panic(expected = "duplicate particle cell")]
    fn duplicate_cells_rejected() {
        let particles = pts(&[(1, 1), (1, 1)]);
        let _ = Assignment::new(&particles, 2, CurveKind::Hilbert, 2);
    }

    #[test]
    #[should_panic(expected = "outside grid")]
    fn out_of_grid_rejected() {
        let particles = pts(&[(4, 0)]);
        let _ = Assignment::new(&particles, 2, CurveKind::Hilbert, 2);
    }

    #[test]
    #[should_panic(expected = "exceeds the maximum of 12")]
    fn grid_order_above_the_cap_rejected() {
        let _ = Assignment::new(&pts(&[(0, 0)]), 13, CurveKind::Hilbert, 1);
    }
}
