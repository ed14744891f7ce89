//! Exact (brute-force) k-nearest-neighbour index over dense vectors.
//!
//! The corpora in this reproduction are thousands of vectors, where exact
//! scan is both fastest to build and a correctness oracle for the
//! approximate indexes ([`crate::hnsw`], [`crate::simhash`]).

/// Inner product, unrolled four lanes per iteration with a **single**
/// accumulator so the addition sequence — and therefore every bit of the
/// `f32` result — matches the naive element-by-element loop. (Multiple
/// partial accumulators would be faster still but change float rounding,
/// which would silently invalidate every persisted HNSW graph.)
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f32;
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (x, y) in ca.zip(cb) {
        acc += x[0] * y[0];
        acc += x[1] * y[1];
        acc += x[2] * y[2];
        acc += x[3] * y[3];
    }
    for (&x, &y) in ra.iter().zip(rb) {
        acc += x * y;
    }
    acc
}

/// Squared L2 norm — `dot(a, a)` with the same single-accumulator
/// unrolling, bit-identical to the naive sum of squares.
#[inline]
pub fn norm_sq(a: &[f32]) -> f32 {
    dot(a, a)
}

/// Squared Euclidean distance, single-accumulator unroll (bit-identical
/// to the naive loop).
#[inline]
pub fn sq_euclidean(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f32;
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (x, y) in ca.zip(cb) {
        let d0 = x[0] - y[0];
        acc += d0 * d0;
        let d1 = x[1] - y[1];
        acc += d1 * d1;
        let d2 = x[2] - y[2];
        acc += d2 * d2;
        let d3 = x[3] - y[3];
        acc += d3 * d3;
    }
    for (&x, &y) in ra.iter().zip(rb) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Distance metric for dense indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Cosine distance `1 − cos(a, b)`.
    Cosine,
    /// Squared Euclidean distance.
    Euclidean,
}

impl Metric {
    /// Stable on-disk tag (used by `tsfm_store`'s binary formats). Never
    /// renumber existing variants.
    pub fn tag(self) -> u8 {
        match self {
            Metric::Cosine => 0,
            Metric::Euclidean => 1,
        }
    }

    /// Inverse of [`Metric::tag`]; `None` for unknown tags.
    pub fn from_tag(tag: u8) -> Option<Metric> {
        match tag {
            0 => Some(Metric::Cosine),
            1 => Some(Metric::Euclidean),
            _ => None,
        }
    }

    pub fn distance(self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        match self {
            Metric::Cosine => self.distance_prenorm(a, norm_sq(a), b, norm_sq(b)),
            Metric::Euclidean => sq_euclidean(a, b),
        }
    }

    /// [`Metric::distance`] with both squared norms supplied by the
    /// caller. This is the hot-path kernel: indexes cache `norm_sq` per
    /// stored vector and per query, so a cosine distance costs one fused
    /// dot product over adjacent memory instead of three accumulations.
    /// Bit-identical to `distance` (each accumulator of the old fused
    /// loop summed independently, so hoisting the norms out does not
    /// change any rounding).
    #[inline]
    pub fn distance_prenorm(self, a: &[f32], a_norm_sq: f32, b: &[f32], b_norm_sq: f32) -> f32 {
        match self {
            Metric::Cosine => {
                if a_norm_sq == 0.0 || b_norm_sq == 0.0 {
                    1.0
                } else {
                    1.0 - dot(a, b) / (a_norm_sq.sqrt() * b_norm_sq.sqrt())
                }
            }
            Metric::Euclidean => sq_euclidean(a, b),
        }
    }

    /// [`Metric::distance_prenorm`] from one query to four rows at once.
    /// Each row keeps its own single accumulator summed in element order,
    /// so every lane is bit-identical to the one-row kernel; the four
    /// independent chains are what make it faster (they overlap in the
    /// pipeline instead of waiting on one add after another). The lanes
    /// advance together and stop at the shortest slice, so no lane ever
    /// reads past its row.
    #[inline]
    pub fn distance_prenorm4(
        self,
        q: &[f32],
        q_norm_sq: f32,
        rows: [&[f32]; 4],
        norms_sq: [f32; 4],
    ) -> [f32; 4] {
        debug_assert!(rows.iter().all(|r| r.len() == q.len()));
        let [r0, r1, r2, r3] = rows;
        let mut acc = [0.0f32; 4];
        let lanes = q.iter().zip(r0).zip(r1).zip(r2).zip(r3);
        match self {
            Metric::Cosine => {
                for ((((&x, &a), &b), &c), &d) in lanes {
                    acc[0] += x * a;
                    acc[1] += x * b;
                    acc[2] += x * c;
                    acc[3] += x * d;
                }
                [0, 1, 2, 3].map(|i| {
                    if q_norm_sq == 0.0 || norms_sq[i] == 0.0 {
                        1.0
                    } else {
                        1.0 - acc[i] / (q_norm_sq.sqrt() * norms_sq[i].sqrt())
                    }
                })
            }
            Metric::Euclidean => {
                for ((((&x, &a), &b), &c), &d) in lanes {
                    let (da, db, dc, dd) = (x - a, x - b, x - c, x - d);
                    acc[0] += da * da;
                    acc[1] += db * db;
                    acc[2] += dc * dc;
                    acc[3] += dd * dd;
                }
                acc
            }
        }
    }

    /// The squared-norm cache entry for one vector under this metric:
    /// only cosine consumes it, so Euclidean indexes store zeros.
    #[inline]
    pub fn norm_cache(self, v: &[f32]) -> f32 {
        match self {
            Metric::Cosine => norm_sq(v),
            Metric::Euclidean => 0.0,
        }
    }
}

/// A brute-force index: ids are assigned densely in insertion order.
/// Vectors live in one contiguous row-major arena with per-row cached
/// squared norms, so a scan is a straight sweep of adjacent memory.
pub struct BruteForceIndex {
    dim: usize,
    metric: Metric,
    data: Vec<f32>,
    norms: Vec<f32>,
}

impl BruteForceIndex {
    pub fn new(dim: usize, metric: Metric) -> Self {
        Self { dim, metric, data: Vec::new(), norms: Vec::new() }
    }

    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Insert a vector, returning its id.
    pub fn add(&mut self, v: &[f32]) -> usize {
        assert_eq!(v.len(), self.dim, "vector dim");
        self.data.extend_from_slice(v);
        self.norms.push(self.metric.norm_cache(v));
        self.len() - 1
    }

    pub fn get(&self, id: usize) -> &[f32] {
        &self.data[id * self.dim..(id + 1) * self.dim]
    }

    /// Exact top-k by ascending distance. Ties break by id for
    /// reproducibility.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<(usize, f32)> {
        assert_eq!(query.len(), self.dim, "query dim");
        let qn = self.metric.norm_cache(query);
        let mut hits: Vec<(usize, f32)> = (0..self.len())
            .map(|i| (i, self.metric.distance_prenorm(query, qn, self.get(i), self.norms[i])))
            .collect();
        hits.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0)));
        hits.truncate(k);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_distance_basics() {
        let m = Metric::Cosine;
        assert!(m.distance(&[1.0, 0.0], &[1.0, 0.0]).abs() < 1e-6);
        assert!((m.distance(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-6);
        assert!((m.distance(&[1.0, 0.0], &[-1.0, 0.0]) - 2.0).abs() < 1e-6);
        assert_eq!(m.distance(&[0.0, 0.0], &[1.0, 0.0]), 1.0, "zero vector safe");
    }

    #[test]
    fn euclidean_distance() {
        let m = Metric::Euclidean;
        assert_eq!(m.distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn search_orders_by_distance() {
        let mut idx = BruteForceIndex::new(2, Metric::Euclidean);
        idx.add(&[0.0, 0.0]);
        idx.add(&[1.0, 0.0]);
        idx.add(&[5.0, 0.0]);
        let hits = idx.search(&[0.9, 0.0], 3);
        assert_eq!(hits[0].0, 1);
        assert_eq!(hits[1].0, 0);
        assert_eq!(hits[2].0, 2);
        assert_eq!(idx.search(&[0.0, 0.0], 1).len(), 1);
    }

    /// The pre-optimization distance kernels, verbatim: one fused loop
    /// accumulating dot and both norms (cosine), and the element-wise
    /// squared-difference sum (Euclidean).
    fn reference_distance(metric: Metric, a: &[f32], b: &[f32]) -> f32 {
        match metric {
            Metric::Cosine => {
                let mut dot = 0.0f32;
                let mut na = 0.0f32;
                let mut nb = 0.0f32;
                for (&x, &y) in a.iter().zip(b) {
                    dot += x * y;
                    na += x * x;
                    nb += y * y;
                }
                if na == 0.0 || nb == 0.0 {
                    1.0
                } else {
                    1.0 - dot / (na.sqrt() * nb.sqrt())
                }
            }
            Metric::Euclidean => {
                let mut s = 0.0f32;
                for (&x, &y) in a.iter().zip(b) {
                    let d = x - y;
                    s += d * d;
                }
                s
            }
        }
    }

    /// The unrolled cached-norm kernels must agree with the reference
    /// fused loops to the last bit — the arena HNSW persists graphs built
    /// from these distances. Exercises every unroll remainder (len % 4).
    #[test]
    fn unrolled_kernels_bit_identical_to_reference() {
        use tsfm_table::hash::splitmix64;
        for dim in [0usize, 1, 2, 3, 4, 5, 7, 8, 15, 16, 33] {
            for seed in 0u64..20 {
                let v = |salt: u64| -> Vec<f32> {
                    (0..dim)
                        .map(|j| {
                            let h = splitmix64(seed ^ salt ^ ((j as u64) << 32));
                            (h % 1000) as f32 / 250.0 - 2.0
                        })
                        .collect()
                };
                let (a, b) = (v(0x1111), v(0x2222));
                for metric in [Metric::Cosine, Metric::Euclidean] {
                    let fast = metric.distance(&a, &b);
                    let prenorm = metric.distance_prenorm(
                        &a,
                        metric.norm_cache(&a),
                        &b,
                        metric.norm_cache(&b),
                    );
                    let reference = reference_distance(metric, &a, &b);
                    assert_eq!(
                        fast.to_bits(),
                        reference.to_bits(),
                        "{metric:?} dim={dim} seed={seed}: distance() drifted"
                    );
                    assert_eq!(
                        prenorm.to_bits(),
                        reference.to_bits(),
                        "{metric:?} dim={dim} seed={seed}: distance_prenorm() drifted"
                    );
                }
                // Zero-vector guard unchanged.
                let z = vec![0.0f32; dim];
                assert_eq!(
                    Metric::Cosine.distance(&a, &z),
                    reference_distance(Metric::Cosine, &a, &z)
                );
            }
        }
    }

    /// The four-row kernel must equal the one-row kernel lane by lane, to
    /// the last bit: the HNSW beam scores with it, and the graphs it
    /// builds are persisted. Covers every length up to 67 (all unroll
    /// remainders), zero-norm rows, signed zeros, and inf/NaN entries.
    ///
    /// A NaN result only has to be NaN: when two NaNs meet in an add, which
    /// one comes out depends on the operand order the compiler picks, which
    /// Rust leaves unspecified (the optimized build does flip the sign bit
    /// here). No consumer can tell NaNs apart — the heaps and the trim
    /// order every NaN the same way, and the graph stores no distances.
    #[test]
    fn four_row_kernel_bit_identical_to_one_row() {
        use tsfm_table::hash::splitmix64;
        const SPECIAL: [f32; 6] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1e-30];
        for dim in 0usize..=67 {
            for seed in 0u64..12 {
                // seed 0..4 plain values; 4..8 sprinkled with signed zeros
                // and tiny values; 8..12 also with inf and NaN entries.
                let specials = match seed / 4 {
                    0 => 0,
                    1 => 2,
                    _ => SPECIAL.len(),
                };
                let v = |salt: u64| -> Vec<f32> {
                    (0..dim)
                        .map(|j| {
                            let h = splitmix64(seed ^ salt ^ ((j as u64) << 32));
                            if specials > 0 && h % 7 == 0 {
                                SPECIAL[(h >> 8) as usize % specials]
                            } else {
                                (h % 1000) as f32 / 250.0 - 2.0
                            }
                        })
                        .collect()
                };
                let q = v(0x51);
                let mut rows = [v(0x1), v(0x2), v(0x3), vec![0.0f32; dim]];
                if seed % 2 == 1 {
                    // All-negative-zero and query-equal rows.
                    rows[1] = vec![-0.0f32; dim];
                    rows[2] = q.clone();
                }
                for metric in [Metric::Cosine, Metric::Euclidean] {
                    let qn = metric.norm_cache(&q);
                    let norms = [0, 1, 2, 3].map(|i| metric.norm_cache(&rows[i]));
                    let four = metric.distance_prenorm4(
                        &q,
                        qn,
                        [0, 1, 2, 3].map(|i| rows[i].as_slice()),
                        norms,
                    );
                    for i in 0..4 {
                        let one = metric.distance_prenorm(&q, qn, &rows[i], norms[i]);
                        let same = if one.is_nan() {
                            four[i].is_nan()
                        } else {
                            four[i].to_bits() == one.to_bits()
                        };
                        assert!(same, "{metric:?} dim={dim} seed={seed} lane={i}: {} vs {one}", four[i]);
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_tie_break() {
        let mut idx = BruteForceIndex::new(1, Metric::Euclidean);
        idx.add(&[1.0]);
        idx.add(&[1.0]);
        let hits = idx.search(&[1.0], 2);
        assert_eq!(hits[0].0, 0);
        assert_eq!(hits[1].0, 1);
    }
}
