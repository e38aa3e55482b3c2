//! `sweep`: the four-variant Figure 6 suite through `Session` over a fixed
//! subset of the Table 3 catalog (both pattern classes) at scale 16, the
//! way figures are regenerated. The S-U-C candidate sweeps and engine
//! compute do almost all the work; DRT planning does almost none.
//!
//! One pass runs every variant on every matrix (`Z = A · A`, as Figure 6
//! does), cross-checks each DRT output against the CPU reference and
//! repeats the DRT run for `scratch_p50_ms`.

use crate::digest::Digest;
use crate::host::HostSpeed;
use crate::layers::{self, Counts};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Args, Outcome};
use drt_accel::cpu::CpuSpec;
use drt_accel::report::{RunOutcome, RunReport};
use drt_accel::session::Session;
use drt_accel::spec::RunCtx;
use drt_accel::workload::Workload;
use drt_core::probe::{CountingSink, Probe};
use drt_sim::memory::HierarchySpec;
use drt_tensor::CsMatrix;
use drt_workloads::suite::Catalog;
use std::sync::Arc;
use std::time::Instant;

/// Registry names of the suite, in Figure 6's column order.
pub const VARIANTS: [&str; 4] = ["cpu-mkl", "extensor", "extensor-op", "extensor-op-drt"];
/// Per-layer metric of each variant's run time, in [`VARIANTS`] order.
const RUN_MS: [&str; 4] = [
    "accel.run_ms.cpu-mkl",
    "accel.run_ms.extensor",
    "accel.run_ms.extensor-op",
    "accel.run_ms.extensor-op-drt",
];
const CPU: usize = 0;
const SUC: usize = 1;
const DRT: usize = 3;
/// Catalog down-scaling factor (Figure 6's default).
const SCALE: u32 = 16;
/// The Figure 6 matrices swept: two diamond-band and one unstructured.
/// A pass takes about three seconds on one core, most of it `rma10`,
/// whose cost varies least with the seed (the unstructured surrogates'
/// sweep costs move by a third from seed to seed).
pub const SUBSET: [&str; 3] = ["bcsstk17", "rma10", "sx-mathoverflow"];
/// Set-ups timed for `setup_s` after each untraced pass. A set-up takes
/// about 20 ms, so a burst of them samples the host at one moment; spread
/// through the run, their median covers the same stretch of time as the
/// other figures.
const SETUPS_PER_PASS: usize = 4;
/// `extensor-op-drt` runs per matrix and pass: the one in the suite and
/// repeats, each timed for `scratch_p50_ms`. One run per pass would give
/// that median only eight samples in a run.
const DRT_RUNS: usize = 4;
/// Tolerance of the DRT-vs-CPU functional check (the bench harness's).
const TOL: f64 = 1e-6;

struct Matrix {
    a: Arc<CsMatrix>,
    workload: Workload,
}

struct Setup {
    ctx: RunCtx,
    sessions: Vec<Session>,
    matrices: Vec<Matrix>,
}

fn setup(seed: u64) -> Setup {
    let ctx = RunCtx {
        hier: HierarchySpec::default().scaled_down(u64::from(SCALE)),
        cpu: CpuSpec::default().scaled_down(u64::from(SCALE)),
        ..RunCtx::default()
    };
    let sessions = VARIANTS
        .iter()
        .map(|v| {
            Session::from_registry(v)
                .expect("suite variants are registered")
                .with_run_ctx(ctx.clone())
        })
        .collect();
    let catalog = Catalog::figure6_order();
    let matrices = SUBSET
        .iter()
        .map(|name| {
            let e = catalog.iter().find(|e| e.name == *name).expect("subset names are in Figure 6");
            let a = Arc::new(e.generate(SCALE, seed));
            Matrix { workload: Workload::spmspm(a.clone(), a.clone()), a }
        })
        .collect();
    Setup { ctx, sessions, matrices }
}

/// One pass's results.
#[derive(Default)]
struct Pass {
    seconds: f64,
    /// Per-run latency, ms, in (matrix, variant) order.
    run_ms: Vec<f64>,
    /// Time of the `r`-th DRT run of every matrix together, ms, for each
    /// of the [`DRT_RUNS`] runs.
    scratch_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    digest: Digest,
    /// Modeled DRAM bytes and compute cycles of each matrix's DRT run.
    drt_model: Vec<(u64, u64)>,
}

impl Pass {
    /// Total run time of variant `v` over the pass, ms.
    fn variant_ms(&self, v: usize) -> f64 {
        self.run_ms.iter().skip(v).step_by(VARIANTS.len()).sum()
    }
}

/// Run every variant on every matrix, recording `accel.run.<variant>`
/// spans under the given span when traced, with a host calibration
/// sample before each run.
fn pass(s: &Setup, host: &mut HostSpeed, mut tr: Option<(&mut Tracer, usize)>) -> Pass {
    let mut p = Pass { scratch_ms: vec![0.0; DRT_RUNS], ..Pass::default() };
    let t_pass = Instant::now();
    for m in &s.matrices {
        let mut reports: Vec<Option<RunReport>> = Vec::with_capacity(VARIANTS.len());
        for (v, session) in VARIANTS.iter().zip(&s.sessions) {
            host.sample(1);
            let t0 = Instant::now();
            let out = session.run_workload(&m.workload);
            let t1 = Instant::now();
            p.run_ms.push((t1 - t0).as_secs_f64() * 1e3);
            if let Some((tr, parent)) = tr.as_mut() {
                tr.record(format!("accel.run.{v}"), Some(*parent), t0, t1);
            }
            p.attempted += 1;
            reports.push(match out {
                Ok(RunOutcome::Complete(r)) => Some(r),
                Ok(RunOutcome::Degraded(_)) | Err(_) => {
                    p.failed += 1;
                    None
                }
            });
        }
        let agrees = match (&reports[DRT], &reports[CPU]) {
            (Some(d), Some(c)) => match (&d.output, &c.output) {
                (Some(z), Some(want)) => z.approx_eq(want, TOL),
                _ => false,
            },
            _ => true, // already counted as failed runs
        };
        if !agrees {
            p.failed += 1;
        }
        p.scratch_ms[0] += p.run_ms[p.run_ms.len() - VARIANTS.len() + DRT];
        // The repeats must reproduce the suite's DRT report bit for bit.
        for r in 1..DRT_RUNS {
            host.sample(1);
            let t0 = Instant::now();
            let out = s.sessions[DRT].run_workload(&m.workload);
            p.scratch_ms[r] += t0.elapsed().as_secs_f64() * 1e3;
            p.attempted += 1;
            let same = match (&reports[DRT], out) {
                (Some(want), Ok(RunOutcome::Complete(got))) => want.bit_diff(&got).is_none(),
                _ => false,
            };
            p.failed += u64::from(!same);
        }
        for r in reports.iter().flatten() {
            p.digest.report(r);
        }
        if let Some(r) = &reports[DRT] {
            p.drt_model.push((r.traffic.total(), r.compute_cycles));
        }
    }
    p.seconds = t_pass.elapsed().as_secs_f64();
    p
}

/// Traced replays of one pass's layers under a `sweep.replay` span.
fn replay(s: &Setup, tr: &mut Tracer, p: &Pass) -> Counts {
    let root = tr.open("sweep.replay", None);
    let mut c = Counts::new();
    for (v, name) in RUN_MS.iter().enumerate() {
        layers::add(&mut c, name, p.variant_ms(v));
    }
    for &(dram_bytes, cycles) in &p.drt_model {
        layers::add(&mut c, "sim.dram_bytes", dram_bytes as f64);
        layers::add(&mut c, "sim.compute_cycles", cycles as f64);
    }
    for m in &s.matrices {
        let (a, b) = (m.a.as_ref(), m.a.as_ref());
        let t0 = Instant::now();
        std::hint::black_box(s.sessions[SUC].resolved_engine_config(a, b)).ok();
        let span = tr.record("accel.suc_sweep", Some(root), t0, Instant::now());
        layers::add(&mut c, "accel.suc_sweep_ms", tr.spans()[span].ms());

        let drt_cfg = s.sessions[DRT]
            .resolved_engine_config(a, b)
            .expect("the measured run resolved this config")
            .expect("extensor-op-drt is engine-backed");
        layers::replay_taskgen(tr, root, a, b, &drt_cfg, &mut c);
        layers::replay_kernels(tr, root, a, b, &mut c);

        let sink = Arc::new(CountingSink::new());
        let probed = Session::from_registry(VARIANTS[DRT])
            .expect("registered")
            .with_run_ctx(s.ctx.clone())
            .probe(Probe::new(sink.clone()));
        let t0 = Instant::now();
        let out = probed.run_workload(&m.workload);
        tr.record("accel.run.probed", Some(root), t0, Instant::now());
        debug_assert!(out.is_ok());
        layers::add_probe_counts(&sink, &mut c);
    }
    tr.close(root);
    c
}

pub fn run(args: &Args) -> Outcome {
    let t0 = Instant::now();
    let s = setup(args.seed);
    let mut setup_times = vec![t0.elapsed().as_secs_f64()];
    let mut out = Outcome { threads: 1, ..Outcome::default() };
    let mut first_digest: Option<Digest> = None;
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    let mut tracer = args.trace.then(Tracer::default);
    let mut layer_units: Vec<Counts> = Vec::new();
    // A traced run makes its first pass untraced (the baseline for the
    // tracing overhead) and at least one traced pass.
    let min_passes = 1 + usize::from(args.trace);
    while passes.len() < min_passes || start.elapsed().as_secs_f64() < args.seconds {
        let p = match tracer.as_mut().filter(|_| !passes.is_empty()) {
            Some(tr) => {
                let root = tr.open("sweep.pass", None);
                let p = pass(&s, &mut out.host, Some((&mut *tr, root)));
                tr.close(root);
                layer_units.push(replay(&s, tr, &p));
                p
            }
            None => pass(&s, &mut out.host, None),
        };
        out.attempted += p.attempted;
        out.failed += p.failed;
        // The model is deterministic: every pass must reproduce the first.
        match first_digest {
            None => first_digest = Some(p.digest),
            Some(d) if d != p.digest => out.failed += 1,
            Some(_) => {}
        }
        passes.push(p);
        if !args.trace {
            for _ in 0..SETUPS_PER_PASS {
                let t0 = Instant::now();
                std::hint::black_box(setup(args.seed));
                setup_times.push(t0.elapsed().as_secs_f64());
            }
        }
    }
    out.digest = first_digest.expect("at least one pass").value();
    out.notes.push(("passes".into(), passes.len().to_string()));

    if let Some(tr) = tracer {
        let mut m = layers::medians(&layer_units);
        layers::finish_ratios(&mut m);
        let residual = m[RUN_MS[DRT]] - m["core.grid_build_ms"] - m["core.taskgen_ms"];
        m.insert("accel.engine_residual_ms", residual);
        let traced_ms: f64 = RUN_MS.iter().map(|name| m[name]).sum();
        m.insert("trace.overhead_ms", traced_ms - passes[0].run_ms.iter().sum::<f64>());
        let wall_ms = passes[0].seconds * 1e3;
        layers::print_layer_table("sweep", &m, &[("wall_s", wall_ms)], |_| "wall_s");
        out.metrics = m;
        out.tracer = Some(tr);
        return out;
    }

    let pass_s: Vec<f64> = passes.iter().map(|p| p.seconds).collect();
    let run_ms: Vec<f64> = passes.iter().flat_map(|p| p.run_ms.iter().copied()).collect();
    let drt_ms: Vec<f64> = passes.iter().flat_map(|p| p.scratch_ms.iter().copied()).collect();
    out.metrics.insert("setup_s", median(&setup_times));
    out.metrics.insert("wall_s", median(&pass_s));
    // Latency of one figure cell: a single variant run on one matrix.
    out.metrics.insert("p50_ms", median(&run_ms));
    out.tail("p90_ms", &run_ms, 0.90);
    out.metrics.insert("scratch_p50_ms", median(&drt_ms));
    // Goodput: correct variant runs per second of measured time.
    let ok_runs = out.attempted - out.failed.min(out.attempted);
    out.metrics.insert("goodput_rps", ok_runs as f64 / pass_s.iter().sum::<f64>());
    out
}
