//! perfbench: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep|delta|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from `--seed`, measures for about
//! `--seconds`, checks every output against an independent oracle and
//! prints, as its last stdout line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end set ([`END_TO_END`]); with `--trace 1` they are the
//! per-layer set ([`PER_LAYER`]), measured by spans around calls into each
//! layer's public functions. The line before it stamps the run conditions
//! and the model digest. See `perfbench/README.md`.

mod delta;
mod digest;
mod host;
mod layers;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics, printed by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("wall_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("scratch_p50_ms", "ms"),
    ("goodput_rps", "1/s"),
];

/// Per-layer metrics, printed by every workload with tracing on. A
/// workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("accel.suc_sweep_ms", "ms"),
    ("accel.run_ms.cpu-mkl", "ms"),
    ("accel.run_ms.extensor", "ms"),
    ("accel.run_ms.extensor-op", "ms"),
    ("accel.run_ms.extensor-op-drt", "ms"),
    ("accel.engine_residual_ms", "ms"),
    ("accel.fetches", "count"),
    ("accel.hits", "count"),
    ("accel.reuse_hit_ratio", "ratio"),
    ("accel.fetch_bytes", "bytes"),
    ("accel.spill_bytes", "bytes"),
    ("accel.incr_run_ms", "ms"),
    ("accel.incr_executed_fraction", "ratio"),
    ("accel.incr_replanned_fraction", "ratio"),
    ("core.grid_build_ms", "ms"),
    ("core.taskgen_ms", "ms"),
    ("core.tasks", "count"),
    ("core.plan_calls", "count"),
    ("core.skipped_empty", "count"),
    ("core.plan_reuse_ratio", "ratio"),
    ("core.tiles_planned", "count"),
    ("core.grow_steps", "count"),
    ("core.rejected_grows", "count"),
    ("core.grow_accept_ratio", "ratio"),
    ("core.fallbacks", "count"),
    ("kernels.gustavson_ms", "ms"),
    ("kernels.inner_product_ms", "ms"),
    ("kernels.maccs", "count"),
    ("tensor.apply_delta_ms", "ms"),
    ("sim.dram_bytes", "bytes"),
    ("sim.compute_cycles", "cycles"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.exec_p50_us", "us"),
    ("serve.exec_p99_us", "us"),
    ("serve.hit_p50_us", "us"),
    ("serve.miss_p50_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.batched_ratio", "ratio"),
    ("serve.max_queue_depth", "count"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("serve.gen_late_p99_us", "us"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
];

/// Run `setup` `repeats` times; return the median seconds and the last
/// result. Each workload picks `repeats` so its set-up phase takes one to
/// two seconds: a median of many short set-ups is steadier than of a few.
pub fn timed_setup<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (stats::median(&times), last.expect("repeats is positive"))
}

/// Deterministic splitmix64 step: the benchmark's seeded input stream.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Command-line arguments, checked.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
            match flag.as_str() {
                "--workload" => args.workload = val.clone(),
                "--seed" => args.seed = val.parse().map_err(|e| bad(&e))?,
                "--seconds" => args.seconds = val.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    args.trace = match val.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !(args.seconds.is_finite() && args.seconds > 0.0 && args.seconds <= 600.0) {
            return Err(format!("--seconds {} out of range (0, 600]", args.seconds));
        }
        Ok(args)
    }
}

/// What a workload run hands back to [`main`].
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, diverged from their oracle or were refused.
    pub failed: u64,
    /// Digest of every modeled number (see [`digest`]).
    pub digest: u64,
    /// Threads the workload ran on (engine workers plus any generator).
    pub threads: usize,
    /// Metric values by name. A workload whose memory grows with the work
    /// it gets through sets `peak_rss_mb` itself, at a fixed point of its
    /// work; otherwise it is read when the workload returns.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra run facts for the conditions stamp (sample counts, the
    /// quantile each tail metric used, ...).
    pub notes: Vec<(String, String)>,
    /// Spans of a traced run.
    pub tracer: Option<trace::Tracer>,
    /// Calibration samples taken through the run (see [`host`]).
    pub host: host::HostSpeed,
}

impl Outcome {
    /// Record a tail metric and which quantile of how many samples it is.
    pub fn tail(&mut self, name: &'static str, samples: &[f64], want: f64) {
        let t = stats::tail(samples, want);
        self.metrics.insert(name, t.value);
        self.notes.push((name.to_string(), format!("q={:.4} n={}", t.q, t.n)));
    }
}

/// Peak resident set of this process so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The checkout's commit, read from `.git` without running git; `unknown`
/// outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| format!("{r} (packed)")),
            None => head,
        },
        None => "unknown".into(),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = match args.workload.as_str() {
        "sweep" => sweep::run(args),
        "delta" => delta::run(args),
        "serve" => serve::run(args),
        w => return Err(format!("unknown workload {w:?} (expected sweep, delta or serve)")),
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.trace {
        let spans = out.tracer.as_ref().map_or(0, |t| t.spans().len());
        out.metrics.insert("trace.spans", spans as f64);
        for (name, _) in table {
            out.metrics.entry(name).or_insert(0.0);
        }
    } else {
        if !out.metrics.contains_key("peak_rss_mb") {
            let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
            out.metrics.insert("peak_rss_mb", rss);
        }
        out.host.adjust(&mut out.metrics, &END_TO_END, &mut out.notes);
    }
    for (name, _) in table {
        match out.metrics.get(name) {
            Some(v) if v.is_finite() => {}
            other => return Err(format!("metric {name} missing or not finite: {other:?}")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    if let Some(tr) = &out.tracer {
        let path = format!(".bench_traces/{}-seed{}.jsonl", args.workload, args.seed);
        if let Err(e) = tr.write_jsonl(Path::new(&path)) {
            eprintln!("perfbench: cannot write {path}: {e}");
            return ExitCode::from(1);
        }
        eprintln!("perfbench: {} spans written to {path}", tr.spans().len());
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let notes: Vec<String> =
        out.notes.iter().map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))).collect();
    println!(
        "{{\"conditions\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"nproc\":{nproc},\"threads\":{},\"profile\":\"{profile}\",\"commit\":{},\
         \"model_digest\":\"{:016x}\",\"notes\":{{{}}}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.threads,
        json_str(&commit()),
        out.digest,
        notes.join(",")
    );
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                out.metrics[name],
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = Args::parse(&argv("--workload delta --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("delta", 7, 3.0, true));
        assert!(Args::parse(&argv("--trace 2")).is_err());
        assert!(Args::parse(&argv("--seconds 0")).is_err());
        assert!(Args::parse(&argv("--seed")).is_err());
        assert!(Args::parse(&argv("--bogus 1")).is_err());
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let entries = json.matches("\"name\"").count();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        // The workloads have names too.
        assert_eq!(entries, END_TO_END.len() + PER_LAYER.len() + 3);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| *n).collect();
        let ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!(names.iter().all(|n| ok(n)), "bad metric name");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
    }
}
