//! Small statistics and identity helpers. The harness keeps its own
//! copies so that edits to the figure binaries never move the benchmark.

use enterprise_graph::{Csr, VertexId};

/// Nearest-rank percentile `p` (0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// The highest tail percentile worth reporting for `n` samples: the
/// largest of p99.9, p99 and p90 with at least ten samples beyond it.
/// `None` below 100 samples, where even p90 rests on fewer than ten.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // Permille arithmetic keeps the ten-sample test exact (0.1 * 100 is
    // 9.999... in floating point).
    [999usize, 990, 900]
        .into_iter()
        .find(|&pm| n - (n * pm).div_ceil(1000) >= 10)
        .map(|pm| pm as f64 / 10.0)
}

/// Element-wise minimum over passes: an operation's host time is the
/// fastest of its repetitions, which drops the interference a shared
/// machine adds to single passes.
pub fn min_over_passes(passes: &[Vec<f64>]) -> Vec<f64> {
    let Some(first) = passes.first() else { return Vec::new() };
    passes[1..].iter().fold(first.clone(), |acc, pass| {
        assert_eq!(pass.len(), acc.len(), "passes ran different operation lists");
        acc.iter().zip(pass).map(|(a, b)| a.min(*b)).collect()
    })
}

/// FNV-1a over a stream of 32-bit words.
fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digest of one traversal's levels and parents (`u32::MAX` marks
/// unreached; vertex ids stay far below it).
pub fn result_digest(levels: &[Option<u32>], parents: &[Option<VertexId>]) -> u64 {
    let unreached = |v: &Option<u32>| v.unwrap_or(u32::MAX);
    fnv1a(levels.iter().map(unreached).chain(parents.iter().map(unreached)))
}

/// Order-sensitive digest of a sequence of digests.
pub fn combine(digests: impl IntoIterator<Item = u64>) -> u64 {
    fnv1a(digests.into_iter().flat_map(|d| [d as u32, (d >> 32) as u32]))
}

/// SplitMix64 step.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `count` sources with out-degree > 0 (the Graph 500 convention: an
/// isolated source measures nothing), in seeded order.
///
/// A systematic sample with a seeded random start over the candidates
/// sorted by (out-degree, id): every stratum of `len / count` candidates
/// gives one source. The sample keeps the degree mix on the power-law
/// graphs and the spread of grid positions on the road graph, so the
/// simulated figures vary far less from seed to seed than under simple
/// random sampling.
pub fn pick_sources(g: &Csr, count: usize, seed: u64) -> Vec<VertexId> {
    let mut candidates: Vec<VertexId> = g.vertices().filter(|&v| g.out_degree(v) > 0).collect();
    assert!(candidates.len() >= count, "graph has too few vertices with out-degree > 0");
    candidates.sort_by_key(|&v| (g.out_degree(v), v));
    let mut state = seed;
    let start = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
    let stride = candidates.len() as f64 / count as f64;
    let mut sources: Vec<VertexId> =
        (0..count).map(|i| candidates[((i as f64 + start) * stride) as usize]).collect();
    // Fisher-Yates, so batches do not group sources of one degree.
    for i in (1..sources.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        sources.swap(i, j);
    }
    sources
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(99), None, "p90 of 99 samples has only 9 beyond it");
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn min_over_passes_is_elementwise() {
        let passes = vec![vec![3.0, 1.0, 5.0], vec![2.0, 4.0, 5.0], vec![9.0, 0.5, 6.0]];
        assert_eq!(min_over_passes(&passes), vec![2.0, 0.5, 5.0]);
        assert_eq!(min_over_passes(&passes[..1]), passes[0]);
        assert!(min_over_passes(&[]).is_empty());
    }

    #[test]
    fn digest_separates_levels_from_parents() {
        let a = result_digest(&[Some(0), None], &[Some(0), None]);
        assert_ne!(a, result_digest(&[Some(0), Some(1)], &[Some(0), None]));
        assert_ne!(a, result_digest(&[Some(0), None], &[Some(0), Some(0)]));
        assert_eq!(a, result_digest(&[Some(0), None], &[Some(0), None]));
        assert_ne!(combine([1, 2]), combine([2, 1]));
    }

    #[test]
    fn sources_are_seeded_stratified_and_have_out_edges() {
        let g = enterprise_graph::gen::kronecker(8, 4, 1);
        let a = pick_sources(&g, 16, 7);
        assert_eq!(a, pick_sources(&g, 16, 7));
        assert_ne!(a, pick_sources(&g, 16, 8));
        assert!(a.iter().all(|&s| g.out_degree(s) > 0));
        // One source per degree stratum: sorted by degree, the k-th pick
        // sits in the k-th sixteenth of the candidates.
        let mut candidates: Vec<u32> = g.vertices().filter(|&v| g.out_degree(v) > 0).collect();
        candidates.sort_by_key(|&v| (g.out_degree(v), v));
        let stride = candidates.len() as f64 / 16.0;
        let mut ranks: Vec<usize> =
            a.iter().map(|s| candidates.iter().position(|c| c == s).unwrap()).collect();
        ranks.sort_unstable();
        for (k, &r) in ranks.iter().enumerate() {
            let lo = (k as f64 * stride).floor() as usize;
            assert!(lo <= r && (r as f64) < (k + 1) as f64 * stride, "stratum {k} holds rank {r}");
        }
    }
}
