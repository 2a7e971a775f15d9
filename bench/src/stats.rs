//! Percentile, median and spread arithmetic, kept in one place so the
//! benchmark and `--compare` agree on every definition.

/// Nearest-rank percentile of an ascending slice: the smallest sample with at
/// least `q` of the samples at or below it. `None` when there are no samples.
pub fn percentile(sorted: &[u32], q: f64) -> Option<u32> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Which direction of a metric is the good one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One reported figure: one value per slice (or repeat), the one that is
/// reported, and the number of raw samples behind them.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    pub value: f64,
    /// Per-slice values in time order.
    pub slices: Vec<f64>,
    /// Raw samples summed over all slices (latency samples, operations, or
    /// repeats — whatever the figure is computed from).
    pub samples: u64,
}

impl Figure {
    /// The median slice. `None` when no slice produced a value.
    ///
    /// This sandbox's two virtual CPUs and its disk are shared, and other
    /// tenants stall a slice or slow it for a second at a time; the median
    /// ignores up to half of the slices being disturbed, and unlike a
    /// good-side quantile it moves when a change slows most of them. What it
    /// cannot remove is a host that stays slow for a whole run (see the
    /// README). The extremes and every slice are in the result file.
    pub fn of_slices(per_slice: &[f64], samples: u64) -> Option<Figure> {
        Some(Figure {
            value: median(per_slice)?,
            slices: per_slice.to_vec(),
            samples,
        })
    }

    pub fn single(value: f64, samples: u64) -> Figure {
        Figure {
            value,
            slices: vec![value],
            samples,
        }
    }

    pub fn min(&self) -> f64 {
        self.slices.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.slices
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// A p99 over fewer samples than this has fewer than ten beyond it and is no
/// steadier than the largest of them.
const P99_MIN_SAMPLES: usize = 1000;

/// The latency percentiles reported for one class.
#[derive(Debug, Clone, PartialEq)]
pub struct Latency {
    pub p50: Figure,
    pub p99: Figure,
}

/// Latency percentiles of one class over the slices of a window, in
/// microseconds: each slice's samples are reduced on their own, then
/// [`Figure::of_slices`] reports the median slice, so a slice with an
/// `fsync` hiccup or a descheduled virtual CPU cannot set the figure. The
/// p99 is taken over runs of adjacent slices just long enough to hold
/// `P99_MIN_SAMPLES` each (1, 2, 4, ... slices; the whole window at worst).
///
/// `slowdown[s]` is how much slower than nominal the host ran during slice
/// `s` (all ones for latencies as the clock read them); every value is
/// divided by that of its slice, or by the mean over its run of slices.
pub fn latency_figures(slices: &mut [Vec<u32>], slowdown: &[f64]) -> Option<Latency> {
    assert_eq!(slices.len(), slowdown.len());
    let mut p50 = Vec::new();
    let mut samples = 0u64;
    for (s, slow) in slices.iter_mut().zip(slowdown) {
        if s.is_empty() {
            continue;
        }
        s.sort_unstable();
        p50.push(percentile(s, 0.50)? as f64 / 1000.0 / slow);
        samples += s.len() as u64;
    }
    let mut run = 1;
    while run < slices.len()
        && slices
            .chunks(run)
            .any(|c| c.iter().map(Vec::len).sum::<usize>() < P99_MIN_SAMPLES)
    {
        run *= 2;
    }
    let p99: Vec<f64> = slices
        .chunks(run)
        .zip(slowdown.chunks(run))
        .filter_map(|(c, slow)| {
            // A run of one is a slice that is sorted already.
            let p99 = if let [slice] = c {
                percentile(slice, 0.99)
            } else {
                let mut pooled: Vec<u32> = c.iter().flatten().copied().collect();
                pooled.sort_unstable();
                percentile(&pooled, 0.99)
            };
            let slow = slow.iter().sum::<f64>() / slow.len() as f64;
            Some(p99? as f64 / 1000.0 / slow)
        })
        .collect();
    Some(Latency {
        p50: Figure::of_slices(&p50, samples)?,
        p99: Figure::of_slices(&p99, samples)?,
    })
}

/// Relative distance between the extremes: `(max - min) / |median|`.
pub fn rel_range(values: &[f64]) -> f64 {
    let Some(m) = median(values) else { return 0.0 };
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
        // 1300 samples: p99 is rank 1287, leaving 13 beyond it.
        let w: Vec<u32> = (0..1300).collect();
        assert_eq!(percentile(&w, 0.99), Some(1286));
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn the_median_slice_is_reported() {
        let five = [5.0, 4.0, 1.0, 2.0, 3.0];
        let f = Figure::of_slices(&five, 9).unwrap();
        assert_eq!((f.value, f.min(), f.max(), f.samples), (3.0, 1.0, 5.0, 9));
        assert_eq!(f.slices, five, "slices stay in time order");
        let four = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(Figure::of_slices(&four, 0).unwrap().value, 2.5);
        assert_eq!(Figure::of_slices(&[4.0], 0).unwrap().value, 4.0);
        assert!(Figure::of_slices(&[], 0).is_none());
    }

    #[test]
    fn a_disturbed_minority_does_not_set_the_figure_a_majority_does() {
        // Eight slices of 2000 samples, `slow` of them ninefold slower.
        let window = |slow: u32| -> Vec<Vec<u32>> {
            (0..8)
                .map(|i| {
                    let base = if i < slow { 900_000 } else { 100_000 + i * 10 };
                    (0..2000).map(|j| base + j).collect()
                })
                .collect()
        };
        let l = latency_figures(&mut window(3), &[1.0; 8]).unwrap();
        assert!(l.p50.value < 102.0 && l.p99.value < 103.0);
        assert_eq!(
            l.p99.slices.len(),
            8,
            "2000 samples a slice carry their own p99"
        );
        assert!(l.p50.max() > 900.0 && l.p50.min() < 102.0);
        assert_eq!(l.p50.samples, 16_000);
        // A change that slows five of the eight slices shows.
        let l = latency_figures(&mut window(5), &[1.0; 8]).unwrap();
        assert!(l.p50.value > 900.0 && l.p99.value > 900.0);
    }

    #[test]
    fn thin_slices_share_a_p99() {
        // 300 samples a slice: a slice's own p99 would rest on 3 samples, so
        // runs of four adjacent slices (1200 samples) get one each.
        let mut slices: Vec<Vec<u32>> = (0..8u32)
            .map(|i| (0..300).map(|j| (i * 300 + j) * 1000).collect())
            .collect();
        let l = latency_figures(&mut slices, &[1.0; 8]).unwrap();
        assert_eq!(l.p50.slices.len(), 8);
        assert_eq!(l.p50.value, 1199.0, "between slices 3 and 4");
        assert_eq!(l.p99.slices, [1187.0, 2387.0]);
        assert_eq!(l.p99.value, 1787.0);
        // Too few samples even in the whole window: one p99 over all of it.
        let mut few = vec![vec![1000, 2000], vec![3000], vec![]];
        assert_eq!(
            latency_figures(&mut few, &[1.0; 3]).unwrap().p99.slices,
            [3.0]
        );
    }

    #[test]
    fn a_slow_host_is_divided_out_slice_by_slice() {
        // Four slices of one program on a host that ran 1.5x slower during
        // the last two: the clock says 100, 100, 150, 150 us; corrected,
        // every slice reads 100.
        let mut slices: Vec<Vec<u32>> = [100_000, 100_000, 150_000, 150_000]
            .iter()
            .map(|ns| vec![*ns; 2000])
            .collect();
        let raw = latency_figures(&mut slices, &[1.0; 4]).unwrap();
        assert_eq!(raw.p50.slices, [100.0, 100.0, 150.0, 150.0]);
        let l = latency_figures(&mut slices, &[1.0, 1.0, 1.5, 1.5]).unwrap();
        assert_eq!(l.p50.slices, [100.0; 4]);
        assert_eq!(l.p99.slices, [100.0; 4]);
        // A pooled run is corrected by the mean over its slices.
        let mut thin: Vec<Vec<u32>> = (0..4).map(|_| vec![150_000; 500]).collect();
        let l = latency_figures(&mut thin, &[1.0, 2.0, 1.0, 2.0]).unwrap();
        assert_eq!(l.p99.slices, [100.0, 100.0]);
    }

    #[test]
    fn empty_slices_are_skipped_not_zero() {
        let mut slices = vec![vec![], vec![5_000, 7_000, 6_000]];
        let l = latency_figures(&mut slices, &[1.0; 2]).unwrap();
        assert_eq!(l.p50.value, 6.0);
        assert_eq!(l.p50.samples, 3);
        assert!(latency_figures(&mut [vec![], vec![]], &[1.0; 2]).is_none());
    }

    #[test]
    fn relative_range() {
        assert_eq!(rel_range(&[10.0]), 0.0);
        assert!((rel_range(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }
}
