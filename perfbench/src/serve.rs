//! `serve`: an open-loop, seeded arrival schedule from one generator
//! thread against a one-worker `drt-serve` `Server`, stepped through a
//! fixed ladder of offered rates from light load to past saturation.
//! Requests arrive in bursts of [`BURST`] at each scheduled instant.
//!
//! Each step mixes about half recurring requests (a few fingerprints, so
//! memo-cache hits) with half requests on distinct operands generated
//! during set-up (engine misses), in small and medium sizes, over three
//! tenants and all three priority classes. Latency runs from each
//! request's *scheduled* send time, so generator slip and queueing both
//! count. Every served report is bit-diffed against a standalone
//! `Session` run of the same workload.

use crate::digest::Digest;
use crate::layers::{self, Counts};
use crate::stats::{self, median, Step};
use crate::trace::Tracer;
use crate::{splitmix, timed_setup, Args, Outcome};
use drt_accel::report::RunReport;
use drt_accel::session::Session;
use drt_accel::spec::RunCtx;
use drt_accel::workload::{Priority, Request, TenantId, Workload};
use drt_serve::{ServeConfig, ServeError, Served, Server, Ticket};
use drt_sim::memory::HierarchySpec;
use drt_workloads::patterns;
use std::time::{Duration, Instant};

/// Offered rates of the ladder, requests per second. From 3000 up, around
/// the one-worker server's capacity, the steps are 8–13% apart, so
/// `goodput_rps` follows capacity to within about a tenth.
pub const LADDER: [f64; 17] = [
    250.0, 500.0, 1000.0, 2000.0, 3000.0, 3400.0, 3800.0, 4200.0, 4600.0, 5000.0, 5500.0, 6000.0,
    6600.0, 7300.0, 8000.0, 9000.0, 10000.0,
];
/// The reference rate: `p50_ms` and `p90_ms` are the latencies of the
/// reference blocks, steps at this rate spread through the run.
pub const REFERENCE_RATE: f64 = 1000.0;
/// Fewest requests in all reference blocks together (a p99 with 20
/// beyond).
pub const REFERENCE_REQUESTS: usize = 2000;
/// Share of the run time the reference blocks take, when that is more.
const REFERENCE_SHARE: f64 = 0.3;
/// Share of the run time the ladder steps take between them. Steps near
/// capacity last most of a second each, so whether one passes does not
/// turn on a single short host stall.
const LADDER_SHARE: f64 = 0.5;
/// Offered rate of the past-saturation steps, far above capacity: the
/// worker is the bottleneck, and `wall_s` is the median time it takes to
/// drain [`SATURATION_REQUESTS`].
pub const SATURATION_RATE: f64 = 20000.0;
/// Requests in each past-saturation step, whatever `--seconds`.
pub const SATURATION_REQUESTS: usize = 3000;
/// Reference blocks and past-saturation steps, each spread evenly
/// through the ladder: a passing host slowdown then moves one of them,
/// not the whole figure.
pub const SPREAD_STEPS: usize = 5;
/// Requests sent together: arrivals come in bursts of this many at one
/// scheduled instant, so the queue holds work to order (priority classes,
/// tenant round-robin, small-request batching) even at light load, and
/// a request's latency is mostly its wait behind its burst, not the
/// host's thread wake-up time.
pub const BURST: usize = 16;
/// Requests per window of the reference blocks' windowed `p90_ms`: the
/// median over ten windows, so one host stall cannot decide it.
const TAIL_WINDOW: usize = 200;
/// Most requests in any ladder step.
const MAX_STEP_REQUESTS: usize = 8000;
/// Shortest step.
const MIN_STEP_S: f64 = 0.25;
/// p99 limit of a goodput step, ms: well above the host's scheduling
/// noise (a few ms to tens of ms at light load), far below a saturated
/// queue's delays (hundreds of ms).
pub const P99_LIMIT_MS: f64 = 100.0;
/// Distinct recurring workloads (memo hits after their first request).
const RECURRING: usize = 6;
/// Distinct one-off workloads, reused round-robin. With the default
/// 256-entry memo cache a pool this large is always evicted before reuse,
/// so every pool request is an engine miss.
const POOL: usize = 1024;
/// Host calibration samples before each step, while no server runs.
const CALIBRATIONS_PER_STEP: usize = 8;
/// Set-ups timed for `setup_s` (each ~0.3 s).
const SETUP_REPEATS: usize = 7;
/// Catalog-style down-scaling of the accelerator hierarchy (fig_serve's).
const SCALE: u64 = 16;

fn session() -> Session {
    let ctx = RunCtx { hier: HierarchySpec::default().scaled_down(SCALE), ..RunCtx::default() };
    Session::from_registry("extensor-op-drt").expect("registered").with_run_ctx(ctx)
}

/// A small (~400 nnz per operand) or medium (~1600 nnz) SpMSpM pair.
fn operands(seed: u64, medium: bool) -> Workload {
    let (m, k, n, nnz) = if medium { (96, 80, 88, 1600) } else { (48, 40, 44, 400) };
    let a = patterns::unstructured(m, k, nnz, 1.0, seed);
    let b = patterns::unstructured(k, n, nnz - nnz / 20, 1.0, seed ^ 0x5EED);
    Workload::spmspm(a, b)
}

/// One scheduled request: which workload, and how it is stamped.
#[derive(Debug, Clone, Copy)]
struct Slot {
    workload: usize,
    tenant: usize,
    priority: Priority,
}

/// What a step of the run is for.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// A step of [`LADDER`].
    Ladder,
    /// A reference block.
    Reference,
    /// A past-saturation step.
    Saturation,
}

/// Distinct workloads (recurring first, then the pool) and the run's
/// steps in the order they run: the ladder in rising rate, with the
/// reference blocks and past-saturation steps spread through it.
struct Setup {
    workloads: Vec<Workload>,
    steps: Vec<(Kind, f64, Vec<Slot>)>,
}

/// The run's steps and their request counts. The reference blocks take
/// [`REFERENCE_SHARE`] of the run time (at least [`REFERENCE_REQUESTS`]);
/// the ladder steps share [`LADDER_SHARE`] of it, at most
/// [`MAX_STEP_REQUESTS`] each; each past-saturation step offers
/// [`SATURATION_REQUESTS`].
fn plan(seconds: f64) -> Vec<(Kind, f64, usize)> {
    let share = (LADDER_SHARE * seconds / LADDER.len() as f64).max(MIN_STEP_S);
    let reference = (REFERENCE_SHARE * seconds * REFERENCE_RATE) as usize;
    let block = reference.max(REFERENCE_REQUESTS).div_ceil(SPREAD_STEPS);
    let every = LADDER.len().div_ceil(SPREAD_STEPS);
    let mut steps = Vec::with_capacity(LADDER.len() + 2 * SPREAD_STEPS);
    for (i, &rate) in LADDER.iter().enumerate() {
        if i % every == 0 {
            steps.push((Kind::Reference, REFERENCE_RATE, block));
            steps.push((Kind::Saturation, SATURATION_RATE, SATURATION_REQUESTS));
        }
        let n = ((rate * share) as usize).clamp(1, MAX_STEP_REQUESTS);
        steps.push((Kind::Ladder, rate, n));
    }
    steps
}

fn setup(seed: u64, seconds: f64) -> Setup {
    let mut workloads: Vec<Workload> =
        (0..RECURRING).map(|i| operands(seed.wrapping_mul(1000) + i as u64, i % 3 == 2)).collect();
    workloads.extend(
        (0..POOL).map(|i| operands(seed.wrapping_mul(1000) + (RECURRING + i) as u64, i % 3 == 2)),
    );
    let mut state = seed ^ 0x5E4E_0000_0000_0001;
    let mut next_pool = 0;
    let classes = [Priority::Interactive, Priority::Normal, Priority::Batch];
    let steps = plan(seconds)
        .into_iter()
        .map(|(kind, rate, n)| {
            let slots = (0..n)
                .map(|_| {
                    let r = splitmix(&mut state);
                    let workload = if r % 5 < 2 {
                        (r >> 8) as usize % RECURRING
                    } else {
                        next_pool = (next_pool + 1) % POOL;
                        RECURRING + next_pool
                    };
                    let tenant = (r >> 16) as usize % 3;
                    Slot { workload, tenant, priority: classes[(r >> 24) as usize % 3] }
                })
                .collect();
            (kind, rate, slots)
        })
        .collect();
    Setup { workloads, steps }
}

/// Sleep, then yield, until `target`; return the instant reached. The
/// last stretch yields instead of spinning so that, when the host gives
/// generator and worker one core between them, the worker still runs.
fn pace(target: Instant) -> Instant {
    loop {
        let now = Instant::now();
        if now >= target {
            return now;
        }
        let rem = target - now;
        if rem > Duration::from_micros(1500) {
            std::thread::sleep(rem - Duration::from_millis(1));
        } else {
            std::thread::yield_now();
        }
    }
}

/// The serving-side times of one answered request (the report itself is
/// checked and dropped at once, so memory stays flat).
struct Times {
    queue_wait: Duration,
    exec_time: Duration,
    total_time: Duration,
    cache_hit: bool,
}

impl From<&Served> for Times {
    fn from(s: &Served) -> Times {
        Times {
            queue_wait: s.queue_wait,
            exec_time: s.exec_time,
            total_time: s.total_time,
            cache_hit: s.cache_hit,
        }
    }
}

/// One request as observed by the generator.
struct Sent {
    scheduled: Instant,
    submitted: Instant,
    served: Option<Times>,
    ok: bool,
}

impl Sent {
    /// Latency from the scheduled send time, ms.
    fn latency_ms(&self) -> Option<f64> {
        let s = self.served.as_ref()?;
        Some((self.submitted - self.scheduled + s.total_time).as_secs_f64() * 1e3)
    }
}

/// A submitted request: when it was due and sent, and what it ran.
#[derive(Clone, Copy)]
struct Submission {
    scheduled: Instant,
    submitted: Instant,
    workload: usize,
}

impl Submission {
    /// Check an answer against the standalone reference and keep only its
    /// times, so served reports never pile up in memory.
    fn finish(self, served: Option<Served>, expected: &[RunReport]) -> Sent {
        let ok = served.as_ref().is_some_and(|sv| match &sv.response {
            Ok(resp) if !resp.is_degraded() => {
                expected[self.workload].bit_diff(resp.report()).is_none()
            }
            _ => false,
        });
        let served = served.as_ref().map(Times::from);
        Sent { scheduled: self.scheduled, submitted: self.submitted, served, ok }
    }
}

/// A measured step: its ladder summary, the requests and server counters.
struct StepRun {
    step: Step,
    sent: Vec<Sent>,
    stats: drt_serve::StatsSnapshot,
    makespan_s: f64,
}

/// The generator collects answers between sends only while the next send
/// is at least this far off.
const COLLECT_SLACK: Duration = Duration::from_micros(100);
/// Poll interval of the drain after a step's last send.
const DRAIN_POLL: Duration = Duration::from_millis(1);
/// The drain falls back to blocking waits after this long without an
/// answer, so a lost worker ends the step instead of hanging it.
const DRAIN_STALL: Duration = Duration::from_secs(10);

type Pending = Vec<(Submission, Result<Ticket, ServeError>)>;

/// Check and drop every answer already in, in whatever order they came.
/// The server answers by priority, not by arrival, so waiting on the
/// oldest request would hold every later answer in memory until the
/// oldest low-priority one is served, and the memory held would grow
/// with how far the worker got. Returns how many were collected.
fn collect_ready(pending: &mut Pending, sent: &mut Vec<Sent>, expected: &[RunReport]) -> usize {
    let before = pending.len();
    let mut i = 0;
    while i < pending.len() {
        let served = match &pending[i].1 {
            Ok(t) => match t.try_wait() {
                Some(sv) => Some(sv),
                None => {
                    i += 1;
                    continue;
                }
            },
            Err(_) => None,
        };
        let (sub, _) = pending.swap_remove(i);
        sent.push(sub.finish(served, expected));
    }
    before - pending.len()
}

/// Run one ladder step against a fresh one-worker server.
fn run_step(rate: f64, slots: &[Slot], s: &Setup, expected: &[RunReport]) -> StepRun {
    let cfg = ServeConfig::default().with_workers(1).with_queue_capacity(1 << 16);
    let server = Server::start(session(), cfg).expect("start a one-worker server");
    let tenants: Vec<TenantId> =
        ["alice", "bob", "carol"].iter().map(|n| TenantId::from_name(n)).collect();
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now() + Duration::from_millis(2);
    let mut depths = Vec::with_capacity(slots.len() / BURST + 1);
    let mut pending: Pending = Vec::new();
    let mut sent: Vec<Sent> = Vec::with_capacity(slots.len());
    for (i, slot) in slots.iter().enumerate() {
        let burst = i - i % BURST;
        let scheduled = start + interval.mul_f64(burst as f64);
        if i == burst && Instant::now() + COLLECT_SLACK < scheduled {
            collect_ready(&mut pending, &mut sent, expected);
        }
        let submitted = pace(scheduled);
        // Queue depth just before each burst, for the backlog check.
        if i == burst {
            depths.push(server.queue_len());
        }
        let req = Request::new(s.workloads[slot.workload].clone())
            .with_priority(slot.priority)
            .with_tenant(tenants[slot.tenant]);
        let sub = Submission { scheduled, submitted, workload: slot.workload };
        pending.push((sub, server.submit(req)));
    }
    let mut last_answer = Instant::now();
    while !pending.is_empty() && last_answer.elapsed() < DRAIN_STALL {
        if collect_ready(&mut pending, &mut sent, expected) > 0 {
            last_answer = Instant::now();
        } else {
            std::thread::sleep(DRAIN_POLL);
        }
    }
    for (sub, ticket) in pending {
        let served = ticket.ok().and_then(|t| t.wait().ok());
        sent.push(sub.finish(served, expected));
    }
    // Back into schedule order, for the windowed tail and the step's parts.
    sent.sort_by_key(|x| x.submitted);
    let last_done = sent
        .iter()
        .filter_map(|x| x.served.as_ref().map(|sv| x.submitted + sv.total_time))
        .max()
        .unwrap_or(start);
    let stats = server.shutdown();
    let failed = sent.iter().filter(|x| !x.ok).count() as u64;
    let makespan_s = (last_done - start).as_secs_f64();
    let all_lat: Vec<f64> = sent.iter().map(|x| x.latency_ms().unwrap_or(f64::INFINITY)).collect();
    let step = Step {
        rate,
        requests: slots.len() as u64,
        failed,
        parts: stats::step_parts(&all_lat, &depths, BURST),
        achieved_rps: (slots.len() as u64 - failed) as f64 / makespan_s,
    };
    StepRun { step, sent, stats, makespan_s }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Per-layer serve metrics of the reference blocks, and their spans.
fn layer_metrics(blocks: &[StepRun], tr: &mut Tracer) -> Counts {
    let mut c = Counts::new();
    let (mut qw, mut service, mut hit, mut miss, mut late) =
        (vec![], vec![], vec![], vec![], vec![]);
    for x in blocks.iter().flat_map(|r| &r.sent) {
        late.push(us(x.submitted - x.scheduled));
        let Some(sv) = &x.served else { continue };
        let root = tr.record("serve.request", None, x.scheduled, x.submitted + sv.total_time);
        tr.record("serve.gen_late", Some(root), x.scheduled, x.submitted);
        let dequeued = x.submitted + sv.queue_wait;
        tr.record("serve.queue_wait", Some(root), x.submitted, dequeued);
        let name = if sv.cache_hit { "serve.memo_hit" } else { "serve.exec" };
        tr.record(name, Some(root), dequeued, x.submitted + sv.total_time);
        qw.push(us(sv.queue_wait));
        let svc = us(sv.total_time.saturating_sub(sv.queue_wait));
        service.push(svc);
        if sv.cache_hit {
            hit.push(svc);
        } else {
            miss.push(us(sv.exec_time));
        }
    }
    c.insert("serve.queue_wait_p50_us", median(&qw));
    c.insert("serve.queue_wait_p99_us", stats::tail(&qw, 0.99).value);
    c.insert("serve.exec_p50_us", median(&service));
    c.insert("serve.exec_p99_us", stats::tail(&service, 0.99).value);
    c.insert("serve.hit_p50_us", median(&hit));
    c.insert("serve.miss_p50_us", median(&miss));
    c.insert("serve.gen_late_p99_us", stats::tail(&late, 0.99).value);
    let sum = |f: fn(&drt_serve::StatsSnapshot) -> u64| -> f64 {
        blocks.iter().map(|r| f(&r.stats) as f64).sum()
    };
    let done = sum(|s| s.completed).max(1.0);
    c.insert("serve.cache_hit_ratio", sum(|s| s.cache_hits) / done);
    c.insert("serve.batched_ratio", sum(|s| s.batched_requests) / done);
    let depth = blocks.iter().map(|r| r.stats.max_queue_depth).max().unwrap_or(0);
    c.insert("serve.max_queue_depth", depth as f64);
    c
}

pub fn run(args: &Args) -> Outcome {
    let (setup_s, s) = timed_setup(SETUP_REPEATS, || setup(args.seed, args.seconds));
    let mut out = Outcome { threads: 2, ..Outcome::default() };

    // Standalone references: the bit-diff oracle of every distinct
    // workload.
    let standalone = session();
    let mut digest = Digest::default();
    let expected: Vec<RunReport> = s
        .workloads
        .iter()
        .map(|w| {
            let r = standalone.run_workload(w).expect("standalone reference run").into_report();
            digest.report(&r);
            r
        })
        .collect();
    out.digest = digest.value();

    // A traced run measures a reference block once untraced first: the
    // baseline for the tracing overhead.
    let (_, ref_rate, ref_slots) =
        s.steps.iter().find(|st| st.0 == Kind::Reference).expect("the plan holds reference blocks");
    let baseline = args.trace.then(|| run_step(*ref_rate, ref_slots, &s, &expected));
    // Before each step, re-run a slice of the workloads standalone: their
    // times give `scratch_p50_ms`, spread over the whole run like the
    // served latencies, and each must reproduce its reference.
    let per_step = s.workloads.len().div_ceil(s.steps.len());
    let mut scratch_ms = Vec::with_capacity(s.workloads.len());
    let (mut runs, mut blocks, mut saturated) = (Vec::new(), Vec::new(), Vec::new());
    for (i, (kind, rate, slots)) in s.steps.iter().enumerate() {
        out.host.sample(CALIBRATIONS_PER_STEP);
        for (w, want) in s.workloads.iter().zip(&expected).skip(i * per_step).take(per_step) {
            let t0 = Instant::now();
            let got = standalone.run_workload(w);
            scratch_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            if !got.is_ok_and(|r| want.bit_diff(r.report()).is_none()) {
                out.failed += 1;
            }
        }
        let r = run_step(*rate, slots, &s, &expected);
        match kind {
            Kind::Ladder => runs.push(r),
            Kind::Reference => blocks.push(r),
            Kind::Saturation => saturated.push(r),
        }
    }
    for r in blocks.iter().chain(&saturated) {
        out.attempted += r.step.requests;
        out.failed += r.step.failed;
    }
    let drains: Vec<f64> = saturated.iter().map(|r| r.makespan_s).collect();
    let drain_notes: Vec<String> = drains.iter().map(|d| format!("{d:.3}")).collect();
    out.notes.push(("saturation_makespans_s".into(), drain_notes.join(" ")));
    for r in &runs {
        out.attempted += r.step.requests;
        out.failed += r.step.failed;
        let p99: Vec<String> = r.step.parts.iter().map(|p| format!("{:.3}", p.p99_ms)).collect();
        let depths: Vec<String> =
            r.step.parts.iter().map(|p| format!("{}-{}", p.first_depth, p.last_depth)).collect();
        out.notes.push((
            format!("step_{}", r.step.rate),
            format!(
                "p99_ms={} depths={} failed={} achieved_rps={:.1} pass={}",
                p99.join("/"),
                depths.join("/"),
                r.step.failed,
                r.step.achieved_rps,
                stats::step_passes(&r.step, P99_LIMIT_MS)
            ),
        ));
    }
    let lat: Vec<f64> = blocks.iter().flat_map(|r| &r.sent).filter_map(Sent::latency_ms).collect();

    if let (true, Some(base)) = (args.trace, baseline) {
        let mut tr = Tracer::default();
        let mut m = layer_metrics(&blocks, &mut tr);
        m.insert("serve.latency_p99_ms", stats::tail(&lat, 0.99).value);
        let all = || runs.iter().chain(&blocks).chain(&saturated);
        m.insert("serve.shed", all().map(|r| r.stats.shed as f64).sum());
        m.insert("serve.rejected", all().map(|r| r.stats.rejected as f64).sum());
        let base_lat: Vec<f64> = base.sent.iter().filter_map(Sent::latency_ms).collect();
        let base_p50 = median(&base_lat);
        m.insert("trace.overhead_ms", median(&lat) - base_p50);
        layers::print_layer_table("serve", &m, &[("p50_ms", base_p50)], |_| "p50_ms");
        out.metrics = m;
        out.tracer = Some(tr);
        return out;
    }

    out.metrics.insert("setup_s", setup_s);
    out.metrics.insert("wall_s", median(&drains));
    out.metrics.insert("p50_ms", median(&lat));
    let (p90, q, windows) = stats::windowed_tail(&lat, TAIL_WINDOW, 0.90);
    out.metrics.insert("p90_ms", p90);
    out.notes.push(("p90_ms".into(), format!("q={q:.4} windows={windows}x{TAIL_WINDOW}")));
    out.metrics.insert("scratch_p50_ms", median(&scratch_ms));
    let steps: Vec<Step> = runs.iter().map(|r| r.step.clone()).collect();
    let goodput = stats::goodput_step(&steps, P99_LIMIT_MS).map_or(0.0, |st| st.achieved_rps);
    out.metrics.insert("goodput_rps", goodput);
    out
}
