//! The benchmark's own statistics: percentiles, the highest percentile a
//! sample supports, and the `max_rps` ladder interpolation.

/// Percentiles considered for a tail report, highest first.
const TAIL_LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// Samples that must lie beyond a reported tail percentile.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending sample (`q` in `(0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q).clamp(1, sorted.len()) - 1]
}

/// The 1-based nearest rank of percentile `q` among `n` samples. The
/// epsilon keeps `0.99 * 1000` at rank 990 despite binary rounding.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).min(n)
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] of `n` samples beyond it, `None` below 20 samples.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&q| beyond(n, q) >= MIN_BEYOND)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One step of an offered-rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Tail latency at that rate, ms.
    pub tail_ms: f64,
    /// Failures within their limit.
    pub healthy: bool,
    /// The rate the system's workers could carry at this rung: workers
    /// over their mean service time there. Offered more, its backlog
    /// grows however short the rung.
    pub capacity: f64,
}

impl Rung {
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.healthy && self.tail_ms <= limit_ms && self.rate <= self.capacity
    }
}

/// The highest rate of a ladder, sorted by ascending rate, that meets
/// `limit_ms`.
///
/// Latency is made non-decreasing in rate first (a rung is at least as
/// slow as any slower-offered one), so noise below the knee cannot end
/// the search early. Between the last passing rung and the first failing
/// one the rate is interpolated log-linearly in latency to where it
/// crosses the limit, or to where the offered rate meets the workers'
/// capacity if that comes first: above it the backlog grows. Capacity is
/// interpolated log-linearly between the two rungs as well: it can fall as
/// load rises, where work gets dearer under load (a transport that stalls
/// when busy). An unhealthy rung fails
/// outright and gives no credit past the last passing one. When every
/// rung passes, the top rung is the answer (a lower bound); when none
/// does, 0.
pub fn max_rps(rungs: &[Rung], limit_ms: f64) -> f64 {
    let mut last: Option<(f64, f64, f64)> = None;
    for r in rungs {
        let worst = last.map_or(0.0, |(_, t, _)| t);
        let tail = r.tail_ms.max(worst).max(f64::MIN_POSITIVE);
        if r.passes(limit_ms) && tail <= limit_ms {
            last = Some((r.rate, tail, r.capacity));
            continue;
        }
        let Some((lo_rate, lo_tail, lo_capacity)) = last else {
            return 0.0;
        };
        if !r.healthy || !tail.is_finite() {
            return lo_rate;
        }
        let crossing = if tail > limit_ms {
            let t = ((limit_ms / lo_tail).ln() / (tail / lo_tail).ln()).clamp(0.0, 1.0);
            lo_rate * (r.rate / lo_rate).powf(t)
        } else {
            r.rate
        };
        return crossing.min(saturation(lo_rate, lo_capacity, r));
    }
    last.map_or(0.0, |(rate, _, _)| rate)
}

/// Where the offered rate, rising from `lo_rate` to `hi.rate`, meets the
/// capacity, moving from `lo_capacity` to `hi.capacity`, both log-linear
/// in between; infinite when `hi` is within its capacity.
fn saturation(lo_rate: f64, lo_capacity: f64, hi: &Rung) -> f64 {
    if hi.rate <= hi.capacity {
        return f64::INFINITY;
    }
    if !lo_capacity.is_finite() {
        return hi.capacity.max(lo_rate);
    }
    let headroom = (lo_capacity / lo_rate).ln();
    let t = headroom / ((hi.rate / lo_rate).ln() - (hi.capacity / lo_capacity).ln());
    lo_rate * (hi.rate / lo_rate).powf(t.clamp(0.0, 1.0))
}

/// The plausibility bound on `max_rps`: no system serves faster than its
/// workers can execute, so a rate above `workers / service_s * 1.1` is a
/// measurement artifact.
pub fn plausible_rps(max_rps: f64, workers: usize, mean_service_s: f64) -> bool {
    mean_service_s <= 0.0 || max_rps <= workers as f64 / mean_service_s * 1.1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(999), Some(0.95));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(19), None);
        for n in [20, 57, 100, 999, 1000, 4321] {
            let q = tail_quantile(n).unwrap();
            assert!(beyond(n, q) >= MIN_BEYOND, "n={n} q={q}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    fn rung(rate: f64, tail_ms: f64, healthy: bool) -> Rung {
        Rung {
            rate,
            tail_ms,
            healthy,
            capacity: f64::INFINITY,
        }
    }

    #[test]
    fn max_rps_interpolates_to_the_limit_crossing() {
        let ladder = [
            rung(100.0, 10.0, true),
            rung(200.0, 20.0, true),
            rung(400.0, 60.0, true),
        ];
        // 50 ms lies ln(2.5)/ln(3) of the way from 20 to 60 ms in log
        // latency, so the rate is 200 * 2^0.834.
        let expect = 200.0 * 2f64.powf(2.5f64.ln() / 3f64.ln());
        assert!((max_rps(&ladder, 50.0) - expect).abs() < 1e-9);
        assert!((356.0..357.0).contains(&expect));
        // Every rung passes: the top rung is a lower bound.
        assert_eq!(max_rps(&ladder, 100.0), 400.0);
        // The first rung fails: nothing meets the limit.
        assert_eq!(max_rps(&ladder, 5.0), 0.0);
    }

    #[test]
    fn max_rps_stops_where_the_backlog_starts_to_grow() {
        // 400 req/s met the latency limit only because the rung ended
        // before its backlog did: its workers carry 300 req/s.
        let over = Rung {
            capacity: 300.0,
            ..rung(400.0, 40.0, true)
        };
        let ladder = [rung(100.0, 10.0, true), over, rung(800.0, 500.0, true)];
        assert_eq!(max_rps(&ladder, 50.0), 300.0);
        // Below the latency crossing the capacity decides; above it the
        // crossing does.
        let over = Rung {
            capacity: 390.0,
            ..rung(400.0, 60.0, true)
        };
        let expect = 100.0 * 4f64.powf(5f64.ln() / 6f64.ln());
        assert!((max_rps(&[rung(100.0, 10.0, true), over], 50.0) - expect).abs() < 1e-9);
        // Capacity known at both rungs: 200 req/s at 100, falling to 100
        // at 400. Offered rate and capacity meet a third of the way, at
        // 100 * 4^(1/3) = 200 * 0.5^(1/3).
        let lo = Rung {
            capacity: 200.0,
            ..rung(100.0, 10.0, true)
        };
        let hi = Rung {
            capacity: 100.0,
            ..rung(400.0, 20.0, true)
        };
        let expect = 100.0 * 4f64.powf(1.0 / 3.0);
        assert!((max_rps(&[lo, hi], 50.0) - expect).abs() < 1e-9);
        assert!((expect - 200.0 * 0.5f64.powf(1.0 / 3.0)).abs() < 1e-9);
    }

    #[test]
    fn max_rps_gives_no_credit_past_a_failing_rung() {
        let ladder = [rung(100.0, 10.0, true), rung(200.0, 12.0, false)];
        assert_eq!(max_rps(&ladder, 50.0), 100.0);
    }

    #[test]
    fn max_rps_ignores_a_lucky_rung_above_the_knee() {
        // 300 req/s met the limit by chance after 200 req/s missed it:
        // latency is taken as non-decreasing, so 300 fails too.
        let ladder = [
            rung(100.0, 10.0, true),
            rung(200.0, 90.0, true),
            rung(300.0, 20.0, true),
        ];
        let expect = 100.0 * 2f64.powf(5f64.ln() / 9f64.ln());
        assert!((max_rps(&ladder, 50.0) - expect).abs() < 1e-9);
    }

    #[test]
    fn plausibility_bound_flags_impossible_rates() {
        assert!(plausible_rps(190.0, 2, 0.01));
        assert!(plausible_rps(219.0, 2, 0.01));
        assert!(!plausible_rps(221.0, 2, 0.01));
    }
}
