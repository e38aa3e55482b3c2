//! The benchmark's own statistics: medians, the tail-percentile rule, and
//! the open-loop ladder logic behind `goodput_rps`.

/// Fewest samples a reported tail percentile must have beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail percentile as reported: the quantile actually used, its value
/// and the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Quantile used, in `0..=1` (e.g. `0.99`).
    pub q: f64,
    /// The sample at that quantile.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
}

/// The tail-percentile rule: report `want` when at least
/// [`TAIL_MIN_BEYOND`] samples lie beyond it, otherwise the highest
/// quantile that still has that many beyond it, and never less than the
/// median. `NaN` value for an empty slice.
pub fn tail(xs: &[f64], want: f64) -> Tail {
    let n = xs.len();
    if n == 0 {
        return Tail { q: want, value: f64::NAN, n };
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Work in 1-based nearest ranks: rank r leaves n - r samples beyond
    // it, so n - 10 is the highest rank allowed. The small epsilon keeps
    // float error in `want * n` from bumping an exact rank up by one.
    let wanted = ((want * n as f64) - 1e-9).ceil() as usize;
    let floor = n.div_ceil(2);
    let rank = wanted.min(n.saturating_sub(TAIL_MIN_BEYOND)).max(floor).clamp(1, n);
    Tail { q: rank as f64 / n as f64, value: v[rank - 1], n }
}

/// [`tail`] of each consecutive `window`-sample slice of `xs` (a short
/// last slice is folded into the one before), and their median: a tail
/// that one host stall inside one window cannot decide. Returns the
/// median value, the quantile the windows used and the window count.
pub fn windowed_tail(xs: &[f64], window: usize, want: f64) -> (f64, f64, usize) {
    let n_win = (xs.len() / window.max(1)).max(1);
    let tails: Vec<Tail> = (0..n_win)
        .map(|w| {
            let end = if w + 1 == n_win { xs.len() } else { (w + 1) * window };
            tail(&xs[w * window..end], want)
        })
        .collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    let q = tails.iter().map(|t| t.q).fold(f64::INFINITY, f64::min);
    (median(&values), q, n_win)
}

/// One open-loop ladder step as measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests scheduled in the step.
    pub requests: u64,
    /// Requests that failed, diverged or were refused.
    pub failed: u64,
    /// The step's [`STEP_PARTS`] parts, in schedule order.
    pub parts: Vec<Part>,
    /// Completed requests per second, from the step's first scheduled
    /// send to its last completion.
    pub achieved_rps: f64,
}

/// A run of consecutive bursts of a ladder step.
#[derive(Debug, Clone, PartialEq)]
pub struct Part {
    /// Requests scheduled in the part.
    pub requests: u64,
    /// Tail latency of the part's requests, ms, at [`tail`]'s p99 rule;
    /// an unanswered request counts as infinitely slow.
    pub p99_ms: f64,
    /// Server queue depth just before the part's first burst.
    pub first_depth: usize,
    /// Server queue depth just before the part's last burst.
    pub last_depth: usize,
}

/// Parts a ladder step is judged in. A host stall of a tenth of a second
/// or more (common on the shared reference host) fails the part it falls
/// in; a step passes when most of its parts do, so one stall cannot fail
/// a step below capacity, while past capacity every part builds a
/// backlog.
pub const STEP_PARTS: usize = 3;

/// Split a step into [`STEP_PARTS`] runs of consecutive bursts (fewer when
/// it has fewer bursts). `lat_ms` holds each request's latency in schedule
/// order (infinite when unanswered), `depths` the queue depth just before
/// each burst of `burst` requests.
pub fn step_parts(lat_ms: &[f64], depths: &[usize], burst: usize) -> Vec<Part> {
    let bursts = depths.len();
    let n = STEP_PARTS.min(bursts).max(1);
    (0..n)
        .map(|k| {
            let b0 = k * bursts / n;
            let b1 = ((k + 1) * bursts / n).max(b0 + 1);
            let reqs = &lat_ms[(b0 * burst).min(lat_ms.len())..(b1 * burst).min(lat_ms.len())];
            Part {
                requests: reqs.len() as u64,
                p99_ms: tail(reqs, 0.99).value,
                first_depth: depths.get(b0).copied().unwrap_or(0),
                last_depth: depths.get(b1 - 1).copied().unwrap_or(0),
            }
        })
        .collect()
}

/// Queue growth allowed over a part before it counts as building a
/// backlog: one percent of the part plus 16 requests, one `serve` burst,
/// since a depth sampled just before a burst can be up to a burst deeper
/// or shallower depending on where the worker is in the one before.
pub fn backlog_slack(requests: u64) -> usize {
    16 + (requests / 100) as usize
}

/// Whether the queue grew over a part.
pub fn backlog_growing(part: &Part) -> bool {
    part.last_depth > part.first_depth + backlog_slack(part.requests)
}

/// Whether a part is within bounds: p99 within `limit_ms` and no growing
/// backlog.
pub fn part_passes(part: &Part, limit_ms: f64) -> bool {
    part.p99_ms <= limit_ms && !backlog_growing(part)
}

/// Whether a step counts toward goodput: no failures, and more than half
/// of its parts within bounds.
pub fn step_passes(step: &Step, limit_ms: f64) -> bool {
    let good = step.parts.iter().filter(|p| part_passes(p, limit_ms)).count();
    step.failed == 0 && 2 * good > step.parts.len()
}

/// Consecutive failing steps that end the ladder.
pub const LADDER_END_FAILS: usize = 2;

/// The goodput step of a ladder given in rising rate: the highest passing
/// step below the first [`LADDER_END_FAILS`] failing steps in a row. Past
/// capacity a short step can still pass by luck (a run of memo hits, a
/// deep queue batching well), and one host stall can fail a light step;
/// two failures in a row mark where capacity ends.
pub fn goodput_step(steps: &[Step], limit_ms: f64) -> Option<&Step> {
    let mut best = None;
    let mut fails = 0;
    for s in steps {
        if step_passes(s, limit_ms) {
            best = Some(s);
            fails = 0;
        } else {
            fails += 1;
            if fails == LADDER_END_FAILS {
                break;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the functions must sort.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn median_handles_odd_even_and_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_reports_the_asked_percentile_with_enough_samples() {
        // 1000 samples: p99 is rank 990, leaving exactly ten beyond.
        let t = tail(&ramp(1000), 0.99);
        assert_eq!(t.q, 0.99);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.n, 1000);
    }

    #[test]
    fn tail_falls_back_to_the_highest_percentile_with_ten_beyond() {
        // 200 samples: p99 would leave two beyond; p95 leaves ten.
        let t = tail(&ramp(200), 0.99);
        assert!((t.q - 0.95).abs() < 1e-12);
        assert_eq!(t.value, 190.0);
        let beyond = ramp(200).iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, TAIL_MIN_BEYOND);
        // p90 of 200 samples already has twenty beyond: unchanged.
        assert_eq!(tail(&ramp(200), 0.90).q, 0.90);
    }

    #[test]
    fn tail_never_drops_below_the_median() {
        let t = tail(&ramp(12), 0.99);
        assert_eq!(t.q, 0.5);
        assert_eq!(t.value, 6.0);
        assert!(tail(&[], 0.9).value.is_nan());
    }

    #[test]
    fn windowed_tail_ignores_a_stall_in_one_window() {
        // Ten windows of 200: one holds a 50-sample stall.
        let mut xs: Vec<f64> = (0..2000).map(|i| (i % 200) as f64).collect();
        for x in &mut xs[400..450] {
            *x = 1e6;
        }
        let (v, q, windows) = windowed_tail(&xs, 200, 0.9);
        assert_eq!((v, q, windows), (179.0, 0.9, 10));
        // Over the whole run the stall owns the p99 and shifts the p90.
        assert_eq!(tail(&xs, 0.99).value, 1e6);
        assert_eq!(tail(&xs, 0.9).value, 184.0);
        // A short tail slice joins the last window.
        assert_eq!(windowed_tail(&xs[..450], 200, 0.9).2, 2);
    }

    fn part(p99_ms: f64, first: usize, last: usize) -> Part {
        Part { requests: 300, p99_ms, first_depth: first, last_depth: last }
    }

    /// A step of three parts, the first `bad` of which build a backlog.
    fn step(rate: f64, bad: usize, failed: u64) -> Step {
        let parts =
            (0..STEP_PARTS).map(|k| if k < bad { part(5.0, 0, 400) } else { part(5.0, 3, 1) });
        Step { rate, requests: 900, failed, parts: parts.collect(), achieved_rps: rate * 0.99 }
    }

    #[test]
    fn step_parts_split_bursts_in_order() {
        // Nine bursts of four requests; a stall in the last three.
        let mut lat = vec![1.0; 36];
        lat[30] = 500.0;
        lat[35] = f64::INFINITY;
        let depths = [0, 1, 0, 2, 1, 0, 0, 40, 90];
        let parts = step_parts(&lat, &depths, 4);
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|p| p.requests == 12));
        assert_eq!((parts[0].first_depth, parts[0].last_depth), (0, 0));
        assert_eq!((parts[2].first_depth, parts[2].last_depth), (0, 90));
        // Twelve samples leave no p99 with ten beyond: the tail rule takes
        // the median, so two slow requests do not set a part's tail.
        assert_eq!((parts[0].p99_ms, parts[2].p99_ms), (1.0, 1.0));
        let slow: Vec<f64> = (0..120).map(|i| if i < 20 { 500.0 } else { 1.0 }).collect();
        assert_eq!(step_parts(&slow, &[0; 3], 40)[0].p99_ms, 500.0);
        // A short last burst, and fewer bursts than parts.
        let parts = step_parts(&lat[..6], &[0, 5], 4);
        assert_eq!(parts.iter().map(|p| p.requests).collect::<Vec<_>>(), vec![4, 2]);
        assert_eq!(step_parts(&[], &[], 16).len(), 1);
    }

    #[test]
    fn backlog_needs_growth_beyond_slack() {
        assert!(!backlog_growing(&part(1.0, 0, 19)));
        assert!(backlog_growing(&part(1.0, 0, 20)));
        // A deep but shrinking queue is not a growing backlog.
        assert!(!backlog_growing(&part(1.0, 400, 300)));
        assert!(!part_passes(&part(120.0, 0, 0), 100.0));
    }

    #[test]
    fn a_step_passes_on_most_of_its_parts() {
        assert!(step_passes(&step(1000.0, 0, 0), 100.0));
        // One stalled part does not fail the step; two do.
        assert!(step_passes(&step(1000.0, 1, 0), 100.0));
        assert!(!step_passes(&step(1000.0, 2, 0), 100.0));
        // A failed request fails it outright.
        assert!(!step_passes(&step(1000.0, 0, 1), 100.0));
    }

    #[test]
    fn goodput_takes_the_highest_passing_step() {
        let steps = vec![
            step(500.0, 0, 0),
            step(1000.0, 1, 0),
            step(2000.0, 0, 0),
            // Past saturation: the queue grows.
            step(4000.0, 3, 0),
            step(8000.0, 2, 0),
            // A lucky pass after two failures in a row does not count.
            step(9000.0, 0, 0),
        ];
        assert_eq!(goodput_step(&steps, 50.0).map(|s| s.rate), Some(2000.0));
        // A failure disqualifies a step however fast it was.
        let mut failing = steps.clone();
        failing[2].failed = 1;
        assert_eq!(goodput_step(&failing, 50.0).map(|s| s.rate), Some(1000.0));
        // One failing step alone does not end the ladder.
        let mut stalled = steps.clone();
        stalled[0] = step(500.0, 2, 0);
        assert_eq!(goodput_step(&stalled, 50.0).map(|s| s.rate), Some(2000.0));
        stalled[3] = step(4000.0, 0, 0);
        assert_eq!(goodput_step(&stalled, 50.0).map(|s| s.rate), Some(9000.0));
        // Nothing passes a limit below every p99.
        assert!(goodput_step(&steps, 1.0).is_none());
    }
}
