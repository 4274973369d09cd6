//! Coverage tables: which readers can interrogate which tags.

use crate::deployment::Deployment;
use crate::reader::ReaderId;
use crate::tag::TagId;
use rfid_geometry::GridIndex;
use serde::{Deserialize, Serialize};

/// Bidirectional tag ⇄ reader coverage table.
///
/// [`readers_of`](Coverage::readers_of)`(t)` lists (sorted) the readers
/// whose interrogation disk contains tag `t`;
/// [`tags_of`](Coverage::tags_of)`(i)` lists (sorted) the tags reader
/// `i` covers. Both directions are precomputed once per deployment:
/// weight evaluation iterates the reader direction, and well-covered
/// classification needs the tag direction's cardinalities.
///
/// Internally both directions are flat CSR arrays (offsets + data), not
/// `Vec<Vec<_>>`: four allocations per table instead of `n + m`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Coverage {
    /// `tag_data[tag_offsets[t]..tag_offsets[t+1]]` = readers of tag `t`.
    tag_offsets: Vec<u32>,
    tag_data: Vec<u32>,
    /// `reader_data[reader_offsets[i]..reader_offsets[i+1]]` = tags of `i`.
    reader_offsets: Vec<u32>,
    reader_data: Vec<u32>,
}

impl Coverage {
    /// Builds the coverage table with a grid index over tag positions
    /// (expected `O(n + m + output)`).
    pub fn build(d: &Deployment) -> Self {
        let n = d.n_readers();
        let m = d.n_tags();
        let radii = d.interrogation_radii();
        let index = GridIndex::build(d.tag_positions(), radii.iter().copied().fold(0.0, f64::max));
        let mut reader_offsets = vec![0u32; n + 1];
        let mut reader_data = Vec::new();
        for i in 0..n {
            let row = reader_data.len();
            index.extend_within(d.reader_positions()[i], radii[i], &mut reader_data);
            reader_data[row..].sort_unstable();
            reader_offsets[i + 1] = reader_data.len() as u32;
        }
        Self::from_reader_csr(n, m, reader_offsets, reader_data)
    }

    /// Builds a coverage table directly from per-tag reader lists.
    ///
    /// Used by the distributed scheduler to reconstruct a *local* coverage
    /// view from gossiped per-reader tag lists (no positions available).
    /// Lists are sorted/deduplicated internally; reader ids must be
    /// `< n_readers`.
    pub fn from_lists(n_readers: usize, mut tag_readers: Vec<Vec<u32>>) -> Self {
        let m = tag_readers.len();
        let mut tag_offsets = vec![0u32; m + 1];
        let mut tag_data = Vec::new();
        for (t, row) in tag_readers.iter_mut().enumerate() {
            row.sort_unstable();
            row.dedup();
            for &i in row.iter() {
                assert!((i as usize) < n_readers, "reader id {i} out of range");
            }
            tag_data.extend_from_slice(row);
            tag_offsets[t + 1] = tag_data.len() as u32;
        }
        let (reader_offsets, reader_data) = transpose_csr(m, n_readers, &tag_offsets, &tag_data);
        Coverage {
            tag_offsets,
            tag_data,
            reader_offsets,
            reader_data,
        }
    }

    /// Assembles a table from a finished reader-major CSR (rows sorted),
    /// deriving the tag direction by counting transpose.
    fn from_reader_csr(
        n: usize,
        m: usize,
        reader_offsets: Vec<u32>,
        reader_data: Vec<u32>,
    ) -> Self {
        let (tag_offsets, tag_data) = transpose_csr(n, m, &reader_offsets, &reader_data);
        Coverage {
            tag_offsets,
            tag_data,
            reader_offsets,
            reader_data,
        }
    }

    /// Number of tags in the table.
    pub fn n_tags(&self) -> usize {
        self.tag_offsets.len() - 1
    }

    /// Number of readers in the table.
    pub fn n_readers(&self) -> usize {
        self.reader_offsets.len() - 1
    }

    /// Readers covering tag `t`, sorted ascending.
    #[inline]
    pub fn readers_of(&self, t: TagId) -> &[u32] {
        &self.tag_data[self.tag_offsets[t] as usize..self.tag_offsets[t + 1] as usize]
    }

    /// Tags covered by reader `i`, sorted ascending.
    #[inline]
    pub fn tags_of(&self, i: ReaderId) -> &[u32] {
        &self.reader_data[self.reader_offsets[i] as usize..self.reader_offsets[i + 1] as usize]
    }

    /// `true` iff some reader covers tag `t` — only such tags can ever be
    /// served; the MCS loop terminates when all *coverable* tags are read.
    #[inline]
    pub fn is_coverable(&self, t: TagId) -> bool {
        self.tag_offsets[t + 1] > self.tag_offsets[t]
    }

    /// Number of coverable tags.
    pub fn coverable_count(&self) -> usize {
        self.tag_offsets.windows(2).filter(|w| w[1] > w[0]).count()
    }
}

/// Counting transpose of a CSR adjacency: rows-major in, columns-major
/// out. Iterating input rows ascending keeps every output row sorted.
fn transpose_csr(rows: usize, cols: usize, offsets: &[u32], data: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let mut t_offsets = vec![0u32; cols + 1];
    for &c in data {
        t_offsets[c as usize + 1] += 1;
    }
    for c in 0..cols {
        t_offsets[c + 1] += t_offsets[c];
    }
    let mut cursor: Vec<u32> = t_offsets[..cols].to_vec();
    let mut t_data = vec![0u32; data.len()];
    for r in 0..rows {
        for &c in &data[offsets[r] as usize..offsets[r + 1] as usize] {
            t_data[cursor[c as usize] as usize] = r as u32;
            cursor[c as usize] += 1;
        }
    }
    (t_offsets, t_data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radii::RadiusModel;
    use crate::scenario::{Scenario, ScenarioKind};
    use rfid_geometry::{Point, Rect};

    fn overlap_deployment() -> Deployment {
        // Two readers with overlapping interrogation disks; three tags:
        // one exclusive to each reader and one in the overlap.
        Deployment::new(
            Rect::square(20.0),
            vec![Point::new(5.0, 5.0), Point::new(11.0, 5.0)],
            vec![8.0, 8.0],
            vec![4.0, 4.0],
            vec![
                Point::new(2.0, 5.0),  // only reader 0
                Point::new(8.0, 5.0),  // both
                Point::new(14.0, 5.0), // only reader 1
                Point::new(5.0, 18.0), // nobody
            ],
        )
    }

    #[test]
    fn table_contents() {
        let d = overlap_deployment();
        let c = Coverage::build(&d);
        assert_eq!(c.readers_of(0), &[0]);
        assert_eq!(c.readers_of(1), &[0, 1]);
        assert_eq!(c.readers_of(2), &[1]);
        assert_eq!(c.readers_of(3), &[] as &[u32]);
        assert_eq!(c.tags_of(0), &[0, 1]);
        assert_eq!(c.tags_of(1), &[1, 2]);
    }

    #[test]
    fn coverable_accounting() {
        let c = Coverage::build(&overlap_deployment());
        assert!(c.is_coverable(0));
        assert!(!c.is_coverable(3));
        assert_eq!(c.coverable_count(), 3);
    }

    #[test]
    fn empty_cases() {
        let no_tags = Deployment::new(
            Rect::square(5.0),
            vec![Point::ORIGIN],
            vec![2.0],
            vec![1.0],
            vec![],
        );
        let c = Coverage::build(&no_tags);
        assert_eq!(c.n_tags(), 0);
        assert_eq!(c.tags_of(0), &[] as &[u32]);

        let no_readers = Deployment::new(
            Rect::square(5.0),
            vec![],
            vec![],
            vec![],
            vec![Point::ORIGIN],
        );
        let c = Coverage::build(&no_readers);
        assert_eq!(c.coverable_count(), 0);
    }

    #[test]
    fn from_lists_matches_build() {
        let d = overlap_deployment();
        let built = Coverage::build(&d);
        let lists: Vec<Vec<u32>> = (0..d.n_tags())
            .map(|t| built.readers_of(t).to_vec())
            .collect();
        let reconstructed = Coverage::from_lists(d.n_readers(), lists);
        assert_eq!(built, reconstructed);
    }

    #[test]
    fn from_lists_dedups_and_sorts() {
        let c = Coverage::from_lists(3, vec![vec![2, 0, 2], vec![]]);
        assert_eq!(c.readers_of(0), &[0, 2]);
        assert_eq!(c.tags_of(2), &[0]);
        assert_eq!(c.tags_of(1), &[] as &[u32]);
    }

    #[test]
    fn coverage_boundary_is_closed() {
        let d = Deployment::new(
            Rect::square(10.0),
            vec![Point::ORIGIN],
            vec![5.0],
            vec![3.0],
            vec![Point::new(3.0, 0.0), Point::new(3.0 + 1e-9, 0.0)],
        );
        let c = Coverage::build(&d);
        assert_eq!(c.readers_of(0), &[0]);
        assert!(c.readers_of(1).is_empty());
    }

    #[test]
    fn far_apart_readers_need_no_giant_grid() {
        // Cells of the largest radius (1) across a 1e5 spread would be
        // 1e10 buckets; the grid holds at most one per tag.
        let far = Point::new(1e5, 1e5);
        let d = Deployment::new(
            Rect::square(1e5),
            vec![Point::ORIGIN, far],
            vec![1.0, 1.0],
            vec![1.0, 1.0],
            vec![
                Point::new(0.0, 1.0),
                far,
                Point::new(5e4, 5e4),
                Point::new(1e5, 99_999.5),
            ],
        );
        let c = Coverage::build(&d);
        assert_eq!(c.tags_of(0), &[0]);
        assert_eq!(c.tags_of(1), &[1, 3]);
        assert!(c.readers_of(2).is_empty());
    }

    #[test]
    fn matches_brute_force_on_random_scenarios() {
        for seed in 0..4u64 {
            let d = Scenario {
                kind: ScenarioKind::UniformRandom,
                n_readers: 30,
                n_tags: 200,
                region_side: 100.0,
                radius_model: RadiusModel::PoissonPair {
                    lambda_interference: 12.0,
                    lambda_interrogation: 6.0,
                },
            }
            .generate(seed);
            let c = Coverage::build(&d);
            for t in 0..d.n_tags() {
                let expect: Vec<u32> = (0..d.n_readers())
                    .filter(|&i| d.covers(i, t))
                    .map(|i| i as u32)
                    .collect();
                assert_eq!(c.readers_of(t), expect.as_slice(), "seed {seed} tag {t}");
            }
        }
    }
}
