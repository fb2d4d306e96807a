//! Whole-window statistics and the open-loop schedule.

use std::time::Duration;

/// Nearest-rank percentile of an ascending slice (`q` in `0.0..=1.0`).
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual percentiles that still has at least ten samples
/// beyond it, or `None` when even the median does not.
pub fn supported_percentile(samples: usize) -> Option<f64> {
    // (percentile, samples beyond it per 10 000): whole numbers, because
    // 100 * (1.0 - 0.9) is 9.999999999999998.
    [
        (0.9999, 1),
        (0.999, 10),
        (0.99, 100),
        (0.95, 500),
        (0.9, 1000),
        (0.5, 5000),
    ]
    .into_iter()
    .find(|(_, beyond)| samples * beyond >= 10 * 10_000)
    .map(|(q, _)| q)
}

/// Median of unsorted floats (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of the values between the first and third quartile (all of them when
/// there are fewer than four): as robust as the median, but it moves
/// smoothly where the values cluster on a few levels and a median would jump
/// from one level to the next.
pub fn midmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let middle = &v[v.len() / 4..v.len() - v.len() / 4];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// `(max - min) / median` of the values: how far apart the window's segments
/// sit. 0 when there is nothing to compare.
pub fn relative_range(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m
}

/// An ascending copy of the samples, ready for [`percentile`].
pub fn sorted(samples: &[u64]) -> Vec<u64> {
    let mut v = samples.to_vec();
    v.sort_unstable();
    v
}

/// A fixed-rate open-loop schedule. Slot `i` is due at `i * period` after
/// the start whatever happened to the slots before it, so an operation that
/// overruns its period makes the *following* slots late instead of silently
/// stretching the schedule (no coordinated omission).
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    pub period: Duration,
}

/// What the generator should do about one slot, given the time now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// When the slot was due, measured from the schedule's start. Latency of
    /// the slot's operation is measured from here.
    pub due: Duration,
    /// How long to sleep before starting (zero when already due).
    pub wait: Duration,
    /// How late the generator is starting it (zero when on time).
    pub late: Duration,
}

impl OpenLoop {
    pub fn slot(&self, index: usize, now: Duration) -> Slot {
        let due = self.period * index as u32;
        Slot {
            due,
            wait: due.saturating_sub(now),
            late: now.saturating_sub(due),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.9), 90);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(0.5));
        assert_eq!(supported_percentile(99), Some(0.5));
        assert_eq!(supported_percentile(100), Some(0.9));
        assert_eq!(supported_percentile(200), Some(0.95));
        assert_eq!(supported_percentile(999), Some(0.95));
        assert_eq!(supported_percentile(1000), Some(0.99));
        assert_eq!(supported_percentile(10_000), Some(0.999));
        assert_eq!(supported_percentile(100_000), Some(0.9999));
    }

    #[test]
    fn median_and_relative_range() {
        assert_eq!(midmean(&[]), 0.0);
        assert_eq!(midmean(&[5.0, 1.0]), 3.0);
        // Two levels: the median sits on one of them, the midmean between.
        let levels = [37.0, 37.0, 37.0, 47.0, 47.0, 37.0, 47.0, 47.0];
        assert_eq!(median(&levels), 42.0);
        assert_eq!(midmean(&levels), 42.0);
        assert_eq!(median(&[37.0, 37.0, 37.0, 47.0, 47.0]), 37.0);
        assert_eq!(
            midmean(&[37.0, 37.0, 37.0, 47.0, 47.0]),
            (37.0 + 37.0 + 47.0) / 3.0
        );
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert!((relative_range(&[10.0, 11.0, 12.0]) - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(relative_range(&[5.0]), 0.0);
    }

    #[test]
    fn an_overrunning_publisher_is_late_not_rescheduled() {
        let schedule = OpenLoop {
            period: Duration::from_millis(100),
        };
        // On time: sleeps until the slot is due, nothing is late.
        let s = schedule.slot(1, Duration::from_millis(40));
        assert_eq!(s.due, Duration::from_millis(100));
        assert_eq!(s.wait, Duration::from_millis(60));
        assert_eq!(s.late, Duration::ZERO);
        // Every operation takes 250 ms against a 100 ms period: slot i is
        // still due at i * 100 ms, so the lateness grows by 150 ms a slot
        // and latency measured from `due` includes the queueing.
        let mut now = Duration::ZERO;
        let mut lates = Vec::new();
        for i in 0..4 {
            let s = schedule.slot(i, now);
            assert_eq!(s.due, Duration::from_millis(100 * i as u64));
            now += s.wait;
            lates.push(s.late);
            now += Duration::from_millis(250);
        }
        assert_eq!(
            lates,
            [0, 150, 300, 450].map(Duration::from_millis).to_vec()
        );
        // The last operation ended at 1000 ms but was due at 300 ms: its
        // latency from the scheduled time is 700 ms, not 250 ms.
        assert_eq!(now - schedule.slot(3, now).due, Duration::from_millis(700));
    }
}
