//! Traced replays of single layers, called from the workloads' traced
//! runs. Each replay calls the layer's public functions on the same
//! inputs the measured run used and records a span around each call.

use crate::trace::Tracer;
use drt_accel::engine::{EngineConfig, Tiling};
use drt_core::kernel::Kernel;
use drt_core::probe::CountingSink;
use drt_core::taskgen::{TaskGenOptions, TaskStream};
use drt_kernels::spmspm;
use drt_tensor::CsMatrix;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Per-layer metrics of one unit of work (a sweep pass or a delta update),
/// by metric name.
pub type Counts = std::collections::BTreeMap<&'static str, f64>;

/// Add `v` to metric `name`.
pub fn add(c: &mut Counts, name: &'static str, v: f64) {
    *c.entry(name).or_insert(0.0) += v;
}

/// Replay the micro-grid build (`Kernel::spmspm_fmt`) and the task stream
/// (`TaskStream::build` and drain) of `cfg` on `a · b`, recording
/// `core.grid_build` and `core.taskgen` spans under `parent` and adding
/// their times and counts to `c`.
pub fn replay_taskgen(
    tr: &mut Tracer,
    parent: usize,
    a: &CsMatrix,
    b: &CsMatrix,
    cfg: &EngineConfig,
    c: &mut Counts,
) {
    let t0 = Instant::now();
    let kernel = Kernel::spmspm_fmt(a, b, cfg.micro, cfg.micro_format)
        .expect("the measured run built this kernel");
    let t1 = Instant::now();
    let mut opts = match &cfg.tiling {
        Tiling::Suc(sizes) => TaskGenOptions::suc(&cfg.loop_order, cfg.drt.clone(), sizes),
        Tiling::Drt => TaskGenOptions::drt(&cfg.loop_order, cfg.drt.clone()),
    };
    opts.plan_cache = cfg.plan_cache.clone();
    let mut stream = TaskStream::build(&kernel, opts).expect("the measured run built this stream");
    let tasks = stream.by_ref().count();
    let t2 = Instant::now();
    let g = tr.record("core.grid_build", Some(parent), t0, t1);
    let t = tr.record("core.taskgen", Some(parent), t1, t2);
    add(c, "core.grid_build_ms", tr.spans()[g].ms());
    add(c, "core.taskgen_ms", tr.spans()[t].ms());
    add(c, "core.tasks", tasks as f64);
    add(c, "core.plan_calls", stream.plan_calls() as f64);
    add(c, "core.skipped_empty", stream.skipped_empty() as f64);
}

/// Rows of `A` the inner-product kernel is timed on: it intersects every
/// row with every column, so the whole product would dwarf the run.
pub const INNER_PRODUCT_ROWS: u32 = 128;

/// Time the reference kernels: Gustavson row-wise on `a · b`, and the
/// intersection-bound inner product on the first [`INNER_PRODUCT_ROWS`]
/// rows of `a` times `b`, recording spans under `parent`.
pub fn replay_kernels(tr: &mut Tracer, parent: usize, a: &CsMatrix, b: &CsMatrix, c: &mut Counts) {
    let block = a.extract_rect(0..a.nrows().min(INNER_PRODUCT_ROWS), 0..a.ncols());
    let t0 = Instant::now();
    let g = std::hint::black_box(spmspm::gustavson(a, b));
    let t1 = Instant::now();
    std::hint::black_box(spmspm::inner_product(&block, b));
    let t2 = Instant::now();
    let gs = tr.record("kernels.gustavson", Some(parent), t0, t1);
    let is = tr.record("kernels.inner_product", Some(parent), t1, t2);
    add(c, "kernels.gustavson_ms", tr.spans()[gs].ms());
    add(c, "kernels.inner_product_ms", tr.spans()[is].ms());
    add(c, "kernels.maccs", g.maccs as f64);
}

/// Add a [`CountingSink`]'s probe counts to `c`.
pub fn add_probe_counts(sink: &CountingSink, c: &mut Counts) {
    let get = |x: &std::sync::atomic::AtomicU64| x.load(Ordering::Relaxed) as f64;
    add(c, "core.tiles_planned", get(&sink.tiles_planned));
    add(c, "core.grow_steps", get(&sink.grow_steps));
    add(c, "core.rejected_grows", get(&sink.rejected_grows));
    add(c, "core.fallbacks", get(&sink.fallbacks));
    add(c, "accel.fetches", get(&sink.fetches));
    add(c, "accel.hits", get(&sink.hits));
    add(c, "accel.fetch_bytes", get(&sink.fetch_bytes));
    add(c, "accel.spill_bytes", get(&sink.spill_bytes));
}

/// Per-metric medians over units of work.
pub fn medians(units: &[Counts]) -> Counts {
    let mut names: Vec<&'static str> = units.iter().flat_map(|u| u.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|n| {
            let xs: Vec<f64> = units.iter().map(|u| u.get(n).copied().unwrap_or(0.0)).collect();
            (n, crate::stats::median(&xs))
        })
        .collect()
}

/// Useful-work ratios from the probe counts.
pub fn finish_ratios(m: &mut Counts) {
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (g, r) = (m.get("core.grow_steps").copied(), m.get("core.rejected_grows").copied());
    if let (Some(g), Some(r)) = (g, r) {
        m.insert("core.grow_accept_ratio", ratio(g, g + r));
    }
    let (h, f) = (m.get("accel.hits").copied(), m.get("accel.fetches").copied());
    if let (Some(h), Some(f)) = (h, f) {
        m.insert("accel.reuse_hit_ratio", ratio(h, h + f));
    }
}

/// Print the layer table to stderr: each time metric with its share of
/// the end-to-end figure (in ms) that `base_of(metric)` names.
pub fn print_layer_table(
    workload: &str,
    m: &Counts,
    bases: &[(&str, f64)],
    base_of: impl Fn(&str) -> &'static str,
) {
    eprintln!("perfbench {workload}: per-layer table");
    for (b, base_ms) in bases {
        eprintln!("  {b:<32} {base_ms:>16.4} (untraced, ms)");
    }
    for (&name, &v) in m {
        let ms =
            if name.ends_with("_ms") { Some(v) } else { name.ends_with("_us").then_some(v / 1e3) };
        let base = bases.iter().find(|(b, _)| *b == base_of(name));
        let share = match (ms, base) {
            (Some(ms), Some((b, base_ms))) if *base_ms > 0.0 => {
                format!("{:>7.1}% of {b}", 100.0 * ms / base_ms)
            }
            _ => String::new(),
        };
        eprintln!("  {name:<32} {v:>16.4} {share}");
    }
}
