//! `delta`: one evolving operand receives a seeded stream of small
//! `DeltaBatch`es (1–16 ops each). After each batch `IncrementalSpmspm`
//! re-runs `Z = A · B`; a from-scratch `run_spmspm_exec` of the patched
//! operands is the bit-diff oracle. Here the DRT planner, plan cache,
//! fingerprinting and task splicing do the work and the S-U-C sweep does
//! none.

use crate::digest::Digest;
use crate::layers::{self, Counts};
use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::{splitmix, timed_setup, Args, Outcome};
use drt_accel::engine::{run_spmspm_exec, EngineConfig, ExecPolicy, Tiling};
use drt_accel::incremental::IncrementalSpmspm;
use drt_core::config::{DrtConfig, Partitions};
use drt_core::probe::{CountingSink, Probe};
use drt_tensor::{CsMatrix, DeltaBatch, MajorAxis};
use drt_workloads::patterns;
use std::sync::Arc;
use std::time::Instant;

/// Operand side; both operands are `N × N` with 16 non-zeros per row.
pub const N: u32 = 1024;
/// Updates folded into the model digest. Every run makes at least this
/// many, so the digest covers the same stream whatever the host speed.
/// `peak_rss_mb` is read after this many updates too: the incremental
/// engine keeps every executed task's result, so memory grows with the
/// updates made, and a reading at the end of a timed loop would track
/// host speed rather than the memory the stream needs.
pub const DIGEST_UPDATES: usize = 48;
/// Set-ups timed for `setup_s` (each a cold incremental run, ~0.15 s).
const SETUP_REPEATS: usize = 15;
/// Fewest traced updates in a traced run.
const MIN_TRACED: usize = 5;
/// Updates per window of the windowed `p90_ms`: the median over windows,
/// so a host stall inside one window cannot decide it.
const TAIL_WINDOW: usize = 100;
/// Updates per `wall_s` pass.
const PASS_UPDATES: usize = 16;

/// The engine configuration: DRT tiling with partitions small enough that
/// a from-scratch run has thousands of tasks, and `i` outermost so a
/// delta to `A`'s rows invalidates only the boxes crossing them.
pub fn config() -> EngineConfig {
    let parts = Partitions::from_bytes(&[("A", 8192), ("B", 8192), ("Z", 2048)]);
    let mut cfg = EngineConfig::new(("perfbench-delta", Tiling::Drt, DrtConfig::new(parts)));
    cfg.loop_order = vec!['i', 'k', 'j'];
    cfg
}

/// A seeded batch of 1–16 ops on `a`: half delete an existing entry, drawn
/// uniformly from `a`'s non-zeros, and half upsert a random position
/// (almost always a new entry). Entries come and go at the same rate, so
/// the operand keeps its size however many updates a run makes; deletes
/// at random positions would nearly all miss, and the operand, and every
/// update's cost with it, would grow with the run's length.
pub fn random_batch(state: &mut u64, a: &CsMatrix) -> DeltaBatch {
    let ops = 1 + splitmix(state) % 16;
    let mut d = DeltaBatch::new();
    for _ in 0..ops {
        if splitmix(state).is_multiple_of(2) && a.nnz() > 0 {
            let p = (splitmix(state) % a.nnz() as u64) as usize;
            let major = (a.seg().partition_point(|&s| s <= p) - 1) as u32;
            let minor = a.coord_array()[p];
            match a.major() {
                MajorAxis::Row => d.delete(major, minor),
                MajorAxis::Col => d.delete(minor, major),
            };
        } else {
            let r = (splitmix(state) % u64::from(a.nrows())) as u32;
            let c = (splitmix(state) % u64::from(a.ncols())) as u32;
            d.upsert(r, c, (splitmix(state) % 2_000) as f64 / 100.0 - 10.0);
        }
    }
    d
}

/// The evolving stream: operands, incremental engine and batch state.
pub struct Stream {
    pub a: CsMatrix,
    pub b: CsMatrix,
    pub cfg: EngineConfig,
    pub eng: IncrementalSpmspm,
    state: u64,
}

impl Stream {
    /// Generate the operands and make the cold incremental run (which
    /// fills the plan cache and result store: set-up, not measured).
    pub fn new(seed: u64, n: u32) -> Stream {
        let nnz = n as usize * 16;
        let a = patterns::unstructured(n, n, nnz, 1.0, seed.wrapping_add(3));
        let b = patterns::unstructured(n, n, nnz, 1.0, seed.wrapping_add(7));
        let cfg = config();
        let mut eng = IncrementalSpmspm::new(cfg.clone());
        eng.run(&a, &b).expect("cold incremental run");
        Stream { a, b, cfg, eng, state: seed ^ 0xF16D_E17A_0000_0001 }
    }
}

/// One update as measured.
pub struct Update {
    /// `apply_delta` + incremental run, ms.
    pub latency_ms: f64,
    /// From-scratch oracle run, ms.
    pub scratch_ms: f64,
    /// Whole cycle including the oracle and bit-diff, ms.
    pub cycle_ms: f64,
    /// Whether the incremental report matched the oracle bit for bit.
    pub ok: bool,
    /// Layer metrics of a traced update.
    pub layers: Option<Counts>,
}

/// Apply the next batch, re-run incrementally and check against a
/// from-scratch run. When traced, spans go under a `delta.update` root
/// and the oracle run carries a counting probe.
pub fn update(st: &mut Stream, digest: Option<&mut Digest>, tr: Option<&mut Tracer>) -> Update {
    let batch = random_batch(&mut st.state, &st.a);
    let t0 = Instant::now();
    st.a.apply_delta(&batch);
    let t1 = Instant::now();
    let incr = st.eng.run(&st.a, &st.b);
    let t2 = Instant::now();
    let sink = tr.is_some().then(|| Arc::new(CountingSink::new()));
    let probe = sink.clone().map_or_else(Probe::disabled, |s| Probe::new(s));
    let scratch = run_spmspm_exec(&st.a, &st.b, &st.cfg, &probe, &ExecPolicy::serial());
    let t3 = Instant::now();
    let ok = match (&incr, &scratch) {
        (Ok(i), Ok(s)) => s.bit_diff(i).is_none(),
        _ => false,
    };
    let t4 = Instant::now();
    let stats = st.eng.last_stats();
    if let (Some(d), Ok(i)) = (digest, &incr) {
        d.report(i);
        d.incr(&stats);
    }
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    let layers = tr.map(|tr| {
        let root = tr.record("delta.update", None, t0, t4);
        tr.record("tensor.apply_delta", Some(root), t0, t1);
        tr.record("accel.incr_run", Some(root), t1, t2);
        tr.record("accel.scratch_run", Some(root), t2, t3);
        let mut c = Counts::new();
        layers::add(&mut c, "tensor.apply_delta_ms", ms(t0, t1));
        layers::add(&mut c, "accel.incr_run_ms", ms(t1, t2));
        layers::add(&mut c, "accel.scratch_run_ms", ms(t2, t3));
        let frac = |f: Option<f64>| f.unwrap_or(0.0);
        layers::add(&mut c, "accel.incr_executed_fraction", frac(stats.executed_fraction()));
        layers::add(&mut c, "accel.incr_replanned_fraction", frac(stats.replanned_fraction()));
        layers::add(&mut c, "core.plan_reuse_ratio", 1.0 - frac(stats.replanned_fraction()));
        if let Some(s) = &sink {
            layers::add_probe_counts(s, &mut c);
        }
        if let Ok(s) = &scratch {
            layers::add(&mut c, "sim.dram_bytes", s.traffic.total() as f64);
            layers::add(&mut c, "sim.compute_cycles", s.compute_cycles as f64);
        }
        let replay = tr.open("delta.replay", None);
        layers::replay_taskgen(tr, replay, &st.a, &st.b, &st.cfg, &mut c);
        layers::replay_kernels(tr, replay, &st.a, &st.b, &mut c);
        tr.close(replay);
        c
    });
    Update { latency_ms: ms(t0, t2), scratch_ms: ms(t2, t3), cycle_ms: ms(t0, t4), ok, layers }
}

#[cfg(test)]
/// The model digest of the first `updates` updates of the stream for
/// `seed` on `n × n` operands.
pub fn stream_digest(seed: u64, n: u32, updates: usize) -> (u64, usize) {
    let mut st = Stream::new(seed, n);
    let mut d = Digest::default();
    let mut failed = 0;
    for _ in 0..updates {
        failed += usize::from(!update(&mut st, Some(&mut d), None).ok);
    }
    (d.value(), failed)
}

pub fn run(args: &Args) -> Outcome {
    let (setup_s, mut st) = timed_setup(SETUP_REPEATS, || Stream::new(args.seed, N));
    let mut out = Outcome { threads: 1, ..Outcome::default() };
    let mut digest = Digest::default();
    let mut ups: Vec<Update> = Vec::new();
    let mut tracer = args.trace.then(Tracer::default);
    // A traced run measures the digest updates and its first third
    // untraced (the baseline for the tracing overhead), then traces at
    // least `MIN_TRACED` updates.
    let untraced_until = args.seconds / 3.0;
    let start = Instant::now();
    let (mut untraced, mut traced_n) = (0, 0);
    while ups.len() < DIGEST_UPDATES
        || start.elapsed().as_secs_f64() < args.seconds
        || (args.trace && traced_n < MIN_TRACED)
    {
        let d = (ups.len() < DIGEST_UPDATES).then_some(&mut digest);
        let traced = args.trace
            && ups.len() >= DIGEST_UPDATES
            && start.elapsed().as_secs_f64() >= untraced_until;
        out.host.sample(1);
        let u = update(&mut st, d, tracer.as_mut().filter(|_| traced));
        if traced {
            traced_n += 1;
        } else {
            untraced += 1;
        }
        out.attempted += 1;
        out.failed += u64::from(!u.ok);
        ups.push(u);
        if ups.len() == DIGEST_UPDATES {
            if let Some(mb) = crate::peak_rss_mb() {
                out.metrics.insert("peak_rss_mb", mb);
            }
        }
    }
    let loop_s = start.elapsed().as_secs_f64();
    out.digest = digest.value();

    let lat: Vec<f64> = ups.iter().map(|u| u.latency_ms).collect();
    let scratch: Vec<f64> = ups.iter().map(|u| u.scratch_ms).collect();
    out.notes.push(("updates".into(), ups.len().to_string()));

    if let Some(tr) = tracer {
        let units: Vec<Counts> = ups.iter().filter_map(|u| u.layers.clone()).collect();
        let mut m = layers::medians(&units);
        layers::finish_ratios(&mut m);
        let residual = m["accel.scratch_run_ms"] - m["core.grid_build_ms"] - m["core.taskgen_ms"];
        m.insert("accel.engine_residual_ms", residual);
        let traced_p50 = median(&lat[untraced..]);
        let base_p50 = median(&lat[..untraced]);
        m.insert("trace.overhead_ms", traced_p50 - base_p50);
        let base_scratch = median(&scratch[..untraced]);
        out.notes.push(("traced_updates".into(), (ups.len() - untraced).to_string()));
        layers::print_layer_table(
            "delta",
            &m,
            &[("p50_ms", base_p50), ("scratch_p50_ms", base_scratch)],
            |name| match name {
                "tensor.apply_delta_ms" | "accel.incr_run_ms" | "trace.overhead_ms" => "p50_ms",
                _ => "scratch_p50_ms",
            },
        );
        m.remove("accel.scratch_run_ms");
        out.metrics = m;
        out.tracer = Some(tr);
        return out;
    }

    let passes: Vec<f64> = ups
        .chunks_exact(PASS_UPDATES)
        .map(|c| c.iter().map(|u| u.cycle_ms).sum::<f64>() / 1e3)
        .collect();
    out.notes.push(("passes".into(), passes.len().to_string()));
    out.metrics.insert("setup_s", setup_s);
    out.metrics.insert("wall_s", median(&passes));
    out.metrics.insert("p50_ms", median(&lat));
    let (p90, q, windows) = stats::windowed_tail(&lat, TAIL_WINDOW, 0.90);
    out.metrics.insert("p90_ms", p90);
    out.notes.push(("p90_ms".into(), format!("q={q:.4} windows={windows}x{TAIL_WINDOW}")));
    out.metrics.insert("scratch_p50_ms", median(&scratch));
    // Correct updates per second of the whole loop, oracle included.
    let ok = ups.iter().filter(|u| u.ok).count() as f64;
    out.metrics.insert("goodput_rps", ok / loop_s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_keep_the_operand_size_steady() {
        let mut a = patterns::unstructured(N, N, N as usize * 16, 1.0, 3);
        let (start, mut state) = (a.nnz(), 42);
        for _ in 0..400 {
            let batch = random_batch(&mut state, &a);
            a.apply_delta(&batch);
        }
        let drift = a.nnz() as f64 / start as f64 - 1.0;
        assert!(drift.abs() < 0.03, "nnz drifted by {drift:.3} over 400 batches");
    }

    #[test]
    fn digest_repeats_across_in_process_runs() {
        let (d1, f1) = stream_digest(11, 96, 4);
        let (d2, f2) = stream_digest(11, 96, 4);
        assert_eq!((f1, f2), (0, 0), "incremental diverged from from-scratch");
        assert_eq!(d1, d2, "model digest must repeat for the same seed");
        assert_ne!(d1, stream_digest(12, 96, 4).0, "digest must depend on the inputs");
    }
}
