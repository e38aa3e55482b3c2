//! The prior-art Static-Uniform-Coordinate (S-U-C) tiling baseline.
//!
//! ExTensor-style tiling (paper §2.3): every tile of a tensor has the same
//! coordinate-space shape, chosen offline. Because buffers are explicitly
//! managed, the shape must satisfy the **worst-case-dense capacity rule**:
//! a tile of that coordinate shape must fit the buffer partition even if
//! the region is completely dense (paper §4.1 — the trade-off DRT's buffer
//! decoupling removes).

use crate::config::Partitions;
use crate::kernel::Kernel;
use crate::{CoreError, RankId};
use drt_tensor::format::SizeModel;
use std::collections::BTreeMap;

/// Worst-case (fully dense) footprint in bytes of a coordinate-space tile
/// with the given per-dimension sizes, stored CSR/CSF-like: a segment array
/// over the outer dimension plus one coordinate per inner level and a value
/// per point.
pub fn dense_footprint(tile_dims: &[u32], sm: &SizeModel) -> u64 {
    if tile_dims.is_empty() {
        return 0;
    }
    // Saturating: a shape too large to count overflows every partition.
    let points = tile_dims.iter().fold(1u64, |p, &d| p.saturating_mul(d as u64));
    let inner_levels = (tile_dims.len() - 1).max(1) as u64;
    (tile_dims[0] as u64 + 1).saturating_mul(sm.seg_bytes as u64).saturating_add(
        points.saturating_mul(inner_levels * sm.coord_bytes as u64 + sm.value_bytes as u64),
    )
}

/// Footprint of an *actual* S-U-C tile holding `nnz` non-zeros with
/// `outer_rows` coordinate rows (plain compressed tile — no micro-tile
/// metadata).
pub fn actual_footprint(outer_rows: u64, nnz: u64, inner_levels: u64, sm: &SizeModel) -> u64 {
    (outer_rows + 1) * sm.seg_bytes as u64
        + nnz * (inner_levels.max(1) * sm.coord_bytes as u64 + sm.value_bytes as u64)
}

/// Validate a static tile shape against the worst-case-dense capacity rule
/// for every input tensor.
///
/// # Errors
///
/// Returns [`CoreError::ShapeOverflowsBuffer`] naming the first tensor
/// whose dense tile exceeds its partition, or [`CoreError::BadConfig`] when
/// a rank's size is missing or zero.
pub fn validate_shape(
    kernel: &Kernel,
    tile_sizes: &BTreeMap<RankId, u32>,
    partitions: &Partitions,
    sm: &SizeModel,
) -> Result<(), CoreError> {
    for b in kernel.inputs() {
        let dims: Vec<u32> =
            b.ranks.iter().map(|r| tile_sizes.get(r).copied().unwrap_or(0)).collect();
        if dims.contains(&0) {
            return Err(CoreError::BadConfig {
                detail: format!("tensor {} has a zero/missing tile dimension", b.name),
            });
        }
        let dense = dense_footprint(&dims, sm);
        let partition = partitions.get(&b.name);
        if dense > partition {
            return Err(CoreError::ShapeOverflowsBuffer {
                tensor: b.name.clone(),
                dense_footprint: dense,
                partition,
            });
        }
    }
    Ok(())
}

/// Enumerate candidate static tile shapes (powers of two per rank, clamped
/// to rank extents) that satisfy the worst-case-dense rule. The paper's
/// S-U-C baselines sweep these and keep the best-performing shape per
/// workload (§5.2.1) — the sweep itself lives in the benchmark harness.
pub fn candidate_shapes(
    kernel: &Kernel,
    partitions: &Partitions,
    sm: &SizeModel,
) -> Vec<BTreeMap<RankId, u32>> {
    let ranks = kernel.ranks();
    let mut out = Vec::new();
    // Per-rank candidate sizes: powers of two from one micro step up to the
    // extent.
    let per_rank: Vec<Vec<u32>> = ranks
        .iter()
        .map(|&r| {
            let step = kernel.micro_step(r);
            let extent = kernel.extent(r).max(1);
            let mut v = Vec::new();
            // Start no larger than the extent so short ranks (e.g. a
            // handful of BFS sources) still get a candidate size.
            let mut s = step.max(1).min(extent);
            while s < extent * 2 {
                v.push(s.min(extent));
                if s >= extent {
                    break;
                }
                s *= 2;
            }
            v.dedup();
            v
        })
        .collect();
    // Cartesian product, filtered by the capacity rule.
    let mut idx = vec![0usize; ranks.len()];
    'outer: loop {
        let shape: BTreeMap<RankId, u32> =
            ranks.iter().enumerate().map(|(d, &r)| (r, per_rank[d][idx[d]])).collect();
        if validate_shape(kernel, &shape, partitions, sm).is_ok() {
            out.push(shape);
        }
        // Advance the mixed-radix counter.
        for d in 0..ranks.len() {
            idx[d] += 1;
            if idx[d] < per_rank[d].len() {
                continue 'outer;
            }
            idx[d] = 0;
        }
        break;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use drt_workloads::patterns::unstructured;

    #[test]
    fn dense_footprint_matches_hand_count() {
        let sm = SizeModel::default();
        // 2x2 tile: seg (2+1)*4 = 12; 4 points * (4 + 8) = 48.
        assert_eq!(dense_footprint(&[2, 2], &sm), 60);
        // 3-D 2x2x2: seg 12; 8 points * (2*4 + 8) = 128.
        assert_eq!(dense_footprint(&[2, 2, 2], &sm), 140);
    }

    #[test]
    fn actual_footprint_grows_with_nnz() {
        let sm = SizeModel::default();
        assert!(actual_footprint(4, 10, 1, &sm) < actual_footprint(4, 20, 1, &sm));
        assert_eq!(actual_footprint(2, 0, 1, &sm), 12); // empty tile: segments only
    }

    #[test]
    fn validate_shape_enforces_worst_case() {
        let m = unstructured(64, 64, 200, 2.0, 1);
        let k = Kernel::spmspm(&m, &m, (4, 4)).expect("valid");
        let parts = Partitions::from_bytes(&[("A", 100), ("B", 100), ("Z", 100)]);
        // 2x2 dense tile = 60 bytes → fits 100.
        let ok = BTreeMap::from([('i', 2u32), ('k', 2), ('j', 2)]);
        assert!(validate_shape(&k, &ok, &parts, &SizeModel::default()).is_ok());
        // 8x8 dense tile = 804 bytes → rejected even if the region is sparse.
        let too_big = BTreeMap::from([('i', 8u32), ('k', 8), ('j', 8)]);
        assert!(matches!(
            validate_shape(&k, &too_big, &parts, &SizeModel::default()),
            Err(CoreError::ShapeOverflowsBuffer { .. })
        ));
    }

    #[test]
    fn candidates_all_satisfy_rule() {
        let m = unstructured(64, 64, 200, 2.0, 2);
        let k = Kernel::spmspm(&m, &m, (4, 4)).expect("valid");
        let parts = Partitions::from_bytes(&[("A", 2048), ("B", 2048), ("Z", 2048)]);
        let shapes = candidate_shapes(&k, &parts, &SizeModel::default());
        assert!(!shapes.is_empty());
        for s in &shapes {
            assert!(validate_shape(&k, s, &parts, &SizeModel::default()).is_ok());
        }
        // The all-minimal shape is always a candidate when it fits.
        assert!(shapes.iter().any(|s| s.values().all(|&v| v == 4)));
    }

    #[test]
    fn missing_rank_is_bad_config() {
        let m = unstructured(16, 16, 30, 2.0, 3);
        let k = Kernel::spmspm(&m, &m, (4, 4)).expect("valid");
        let parts = Partitions::from_bytes(&[("A", 1000), ("B", 1000)]);
        let incomplete = BTreeMap::from([('i', 4u32), ('k', 4)]);
        assert!(matches!(
            validate_shape(&k, &incomplete, &parts, &SizeModel::default()),
            Err(CoreError::BadConfig { .. })
        ));
    }
}

#[cfg(test)]
mod short_rank_tests {
    use super::*;
    use drt_workloads::patterns::unstructured;

    #[test]
    fn candidates_exist_when_extent_smaller_than_micro_step() {
        // A 5-row tall-skinny operand with 32-wide micro steps: the i rank
        // has extent 5 < 32 and must still get a candidate size.
        let a = unstructured(5, 64, 40, 2.0, 1);
        let b = unstructured(64, 64, 200, 2.0, 2);
        let k = Kernel::spmspm(&a, &b, (32, 32)).expect("valid");
        let parts =
            crate::config::Partitions::from_bytes(&[("A", 1 << 20), ("B", 1 << 20), ("Z", 0)]);
        let shapes = candidate_shapes(&k, &parts, &SizeModel::default());
        assert!(!shapes.is_empty());
        assert!(shapes.iter().all(|s| s[&'i'] <= 5));
    }
}
