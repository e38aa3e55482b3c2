//! Host-speed calibration. The reference host is a shared virtual
//! machine whose speed drifts by up to half again over minutes, as other
//! tenants load it: the same seed, rerun, takes 39 ms or 58 ms per
//! from-scratch `delta` run, in stretches that outlast a whole run. No
//! median within a run can remove a drift that long.
//!
//! So every run also times a fixed calibration product, the benchmark's
//! own code on fixed inputs that no program change can touch, interleaved
//! with the measured work. Its median, over [`REFERENCE_MS`], is the run's
//! host slowdown, and the end-to-end timings are reported at the
//! reference host speed: times divided by the slowdown, rates multiplied
//! by it. A change to the program moves the reported figures exactly as
//! it moves the raw ones; a drift of the host moves them far less. The
//! raw figures and the slowdown go into the run's `notes`.

use crate::stats::median;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Rows (and columns) of the calibration operand.
const ROWS: usize = 1024;
/// Non-zeros per row of the calibration operand.
const ROW_NNZ: usize = 16;
/// Calibration product time on the reference host in a quiet stretch, ms
/// (see `perfbench/README.md`). Only the scale of the reported figures
/// depends on it.
pub const REFERENCE_MS: f64 = 4.0;

/// The calibration operand: `ROW_NNZ` pseudo-random columns and values per
/// row, fixed for every run and seed.
struct Operand {
    cols: Vec<usize>,
    vals: Vec<f64>,
}

fn operand() -> &'static Operand {
    static OPERAND: OnceLock<Operand> = OnceLock::new();
    OPERAND.get_or_init(|| {
        let mut state = 0xCA11_B4A7_E000_0001;
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        for _ in 0..ROWS * ROW_NNZ {
            cols.push((crate::splitmix(&mut state) % ROWS as u64) as usize);
            vals.push((crate::splitmix(&mut state) % 100) as f64 / 10.0);
        }
        Operand { cols, vals }
    })
}

/// `A · A` of the calibration operand by row-wise (Gustavson) products
/// with a dense accumulator and sorted row output, the same kind of work
/// the engine does: scattered reads, a hot accumulator, allocation. Returns
/// a checksum so the work cannot be optimized away.
fn product() -> f64 {
    let a = operand();
    let mut acc = vec![0.0f64; ROWS];
    let mut mark = vec![usize::MAX; ROWS];
    let mut row: Vec<usize> = Vec::with_capacity(ROWS);
    let mut sum = 0.0;
    for i in 0..ROWS {
        row.clear();
        for p in i * ROW_NNZ..(i + 1) * ROW_NNZ {
            let (k, x) = (a.cols[p], a.vals[p]);
            for q in k * ROW_NNZ..(k + 1) * ROW_NNZ {
                let j = a.cols[q];
                if mark[j] != i {
                    mark[j] = i;
                    acc[j] = 0.0;
                    row.push(j);
                }
                acc[j] += x * a.vals[q];
            }
        }
        row.sort_unstable();
        sum += row.iter().map(|&j| acc[j]).sum::<f64>();
    }
    sum
}

/// Calibration samples of one run.
#[derive(Debug, Default)]
pub struct HostSpeed {
    samples_ms: Vec<f64>,
}

impl HostSpeed {
    /// Time `n` calibration products.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let t0 = Instant::now();
            std::hint::black_box(product());
            self.samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }

    /// The run's host slowdown: median calibration time over
    /// [`REFERENCE_MS`]; 1 when nothing was sampled.
    pub fn slowdown(&self) -> f64 {
        if self.samples_ms.is_empty() {
            1.0
        } else {
            median(&self.samples_ms) / REFERENCE_MS
        }
    }

    /// Report `metrics` at the reference host speed, by unit: times (`s`,
    /// `ms`) are divided by the slowdown, rates (`1/s`) multiplied by it,
    /// anything else (memory) left as measured. Each raw value, the
    /// slowdown and the sample count go into `notes`.
    pub fn adjust(
        &self,
        metrics: &mut BTreeMap<&'static str, f64>,
        units: &[(&'static str, &'static str)],
        notes: &mut Vec<(String, String)>,
    ) {
        let slowdown = self.slowdown();
        notes.push(("host_slowdown".into(), format!("{slowdown} n={}", self.samples_ms.len())));
        for &(name, unit) in units {
            let Some(v) = metrics.get_mut(name) else { continue };
            let scaled = scale(*v, unit, slowdown);
            if scaled != *v {
                notes.push((format!("raw.{name}"), v.to_string()));
                *v = scaled;
            }
        }
    }
}

/// `value` in `unit` at the reference host speed, on a host `slowdown`
/// times slower.
pub fn scale(value: f64, unit: &str, slowdown: f64) -> f64 {
    match unit {
        "s" | "ms" | "us" => value / slowdown,
        "1/s" => value * slowdown,
        _ => value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_follows_the_unit() {
        assert_eq!(scale(3.0, "ms", 1.5), 2.0);
        assert_eq!(scale(3.0, "s", 0.5), 6.0);
        assert_eq!(scale(100.0, "1/s", 1.5), 150.0);
        assert_eq!(scale(80.0, "MB", 1.5), 80.0);
    }

    #[test]
    fn adjust_keeps_raw_values_in_notes() {
        let host = HostSpeed { samples_ms: vec![REFERENCE_MS * 2.0; 3] };
        let mut m: BTreeMap<&'static str, f64> =
            [("wall_s", 4.0), ("peak_rss_mb", 90.0), ("goodput_rps", 10.0)].into();
        let units = [("wall_s", "s"), ("peak_rss_mb", "MB"), ("goodput_rps", "1/s")];
        let mut notes = Vec::new();
        host.adjust(&mut m, &units, &mut notes);
        assert_eq!((m["wall_s"], m["peak_rss_mb"], m["goodput_rps"]), (2.0, 90.0, 20.0));
        assert!(notes.contains(&("raw.wall_s".to_string(), "4".to_string())));
        assert!(!notes.iter().any(|(k, _)| k == "raw.peak_rss_mb"));
        assert_eq!(notes[0], ("host_slowdown".to_string(), "2 n=3".to_string()));
    }

    #[test]
    fn calibration_is_deterministic_and_sampled() {
        assert_eq!(product().to_bits(), product().to_bits());
        let mut host = HostSpeed::default();
        assert_eq!(host.slowdown(), 1.0);
        host.sample(3);
        assert_eq!(host.samples_ms.len(), 3);
        assert!(host.slowdown() > 0.0);
    }
}
