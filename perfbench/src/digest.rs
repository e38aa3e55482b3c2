//! One 64-bit digest of every modeled number a workload produced. Host
//! timings never enter it, so it repeats exactly from run to run for a
//! given seed: a change that only moves host speed leaves it unchanged.

use drt_accel::incremental::IncrStats;
use drt_accel::report::RunReport;

/// FNV-1a over a canonical text rendering of the modeled fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold raw bytes in.
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold in a report's modeled numbers: report seconds (exact bits),
    /// traffic, cycles, tasks, action counts and phase/stage breakdowns.
    /// The functional output is checked separately and left out.
    pub fn report(&mut self, r: &RunReport) {
        let text = format!(
            "{}|{:016x}|{:?}|{}|{}|{}|{}|{}|{:?}|{:?}|{:?}|{}",
            r.name,
            r.seconds.to_bits(),
            r.traffic,
            r.maccs,
            r.compute_cycles,
            r.exposed_extract_cycles,
            r.tasks,
            r.skipped_tasks,
            r.actions,
            r.phases,
            r.stages,
            r.degradation.is_some(),
        );
        self.bytes(text.as_bytes());
    }

    /// Fold in an incremental run's counters.
    pub fn incr(&mut self, s: &IncrStats) {
        self.bytes(format!("{s:?}").as_bytes());
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}
