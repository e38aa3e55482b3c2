//! Multi-stage fused pipelines over one DRT co-tiling (the §7 outlook:
//! "DRT is not specific to SpMSpM"): MTTKRP, TTV and Gram over CSF, the
//! fused SDDMM→SpMM "GNN attention layer", and A·B·C chains, all runnable
//! through [`crate::session::Session::run_pipeline`].
//!
//! A [`PipelineSpec`] is a list of 1..N [`Stage`]s applied to one sparse
//! input. Single-stage SpMSpM is the degenerate case and delegates
//! verbatim to the engine ([`crate::spec::AccelSpec::run_ft`]), so its
//! reports and traces stay bit-identical to `Session::run_spmspm` for
//! every registered variant. Multi-stage and tensor pipelines run through
//! modeled task streams (one per stage, sharing the spec's tiling
//! discipline) and additionally fill [`crate::report::RunReport::stages`]
//! with one [`StagePhases`] entry per stage; the per-stage breakdowns
//! partition the report's phase totals
//! ([`crate::report::RunReport::stage_partition_violation`]). The three
//! CSF kernels share one tensor-stage runner; they differ only in their
//! output, dense operand windows, per-task MACC count, merge key and
//! reference kernel.
//!
//! **Gram** (§6.1.3, Figure 9) picks its model from the spec: `cpu-mkl`
//! runs the TACO-like CPU baseline, DRT engine specs the Gram task stream,
//! and statically tiled engine specs a closed-form S-U-C model.
//!
//! **Fusion.** When `fused` is set (the default), inter-stage
//! intermediates stay tile-resident: the producing stage charges no
//! writeback for them and the consuming stage charges no loads — exactly
//! the residency discipline of the row-panel reference kernels
//! (`drt_kernels::sddmm::fused_sddmm_spmm`). The `unfused` baseline
//! charges the full round trip (intermediate writeback plus per-tile
//! re-loads), so a fused run's total modeled traffic is strictly lower
//! whenever the intermediate is non-empty.
//!
//! The modeled multi-stage runners are serial and thread-independent:
//! reports are identical for every `Session::threads` setting by
//! construction. Budgets and cancellation/deadlines ride on every stage
//! stream exactly as on the single-stage engine path: an exhausted DRT
//! cap degrades the remaining region to S-U-C fallback tiles (the run
//! completes, the report records why), an expired token stops the run
//! at the next task boundary with a degraded partial report. Chaos
//! injection remains engine-path-only.

use crate::error::DrtError;
use crate::report::{Degradation, PhaseBreakdown, RunOutcome, RunReport, StagePhases};
use crate::spec::{llc_hierarchy, AccelSpec, EngineSpec, RunCtx, SpecKind, TilingSpec};
use crate::zcache::{OutputCache, TileKey};
use drt_core::budget::ExecBudget;
use drt_core::cancel::ExpiryKind;
use drt_core::config::{DrtConfig, Partitions};
use drt_core::drt::{RankRanges, TilePlan};
use drt_core::kernel::{Kernel, TensorBinding};
use drt_core::micro::MicroGrid;
use drt_core::taskgen::{fallback_suc_coord_sizes, TaskGenOptions, TaskStream};
use drt_core::{CoreError, RankId};
use drt_sim::energy::ActionCounts;
use drt_sim::memory::HierarchySpec;
use drt_sim::traffic::TrafficCounter;
use drt_tensor::format::SizeModel;
use drt_tensor::{CsMatrix, CsfTensor, DenseMatrix, MajorAxis};
use std::collections::BTreeMap;
use std::ops::Range;

/// The sparse input a pipeline starts from.
#[derive(Debug, Clone, Copy)]
pub enum PipelineInput<'a> {
    /// A 2-D compressed matrix (SpMSpM chains, SDDMM→SpMM).
    Matrix(&'a CsMatrix),
    /// A 3-D CSF tensor (MTTKRP, TTV, Gram).
    Tensor(&'a CsfTensor),
}

/// One stage of a pipeline. Each stage consumes the previous stage's
/// output (the pipeline input for the first stage) as its sparse operand;
/// the stage's own dense/sparse operands ride in the variant.
#[derive(Debug, Clone)]
pub enum Stage {
    /// `T' = T · B` (sparse × sparse).
    Spmspm {
        /// Right-hand sparse operand.
        b: CsMatrix,
    },
    /// `S_ij = T_ij · (U · Vᵀ)_ij` sampled at the sparse operand's
    /// non-zeros.
    Sddmm {
        /// Left dense factor, `I × R`.
        u: DenseMatrix,
        /// Right dense factor, `J × R`.
        v: DenseMatrix,
    },
    /// `Z = T · H` (sparse × dense, dense output).
    Spmm {
        /// Dense right operand, `J × F`.
        h: DenseMatrix,
    },
    /// `M_ir = Σ_jk χ_ijk · B_jr · C_kr` over a CSF 3-tensor.
    Mttkrp {
        /// Mode-1 dense factor, `J × R`.
        b: DenseMatrix,
        /// Mode-2 dense factor, `K × R`.
        c: DenseMatrix,
    },
    /// `Y_ij = Σ_k χ_ijk · v_k` over a CSF 3-tensor.
    Ttv {
        /// Dense vector over mode 2.
        v: Vec<f64>,
    },
    /// `G_il = Σ_jk χ_ijk · χ_ljk`: a CSF 3-tensor contracted with itself
    /// over its last two modes (the paper's Gram kernel, §6.1.3).
    Gram,
}

impl Stage {
    /// Stable stage label used in [`StagePhases`] and traffic rows.
    pub fn label(&self) -> &'static str {
        match self {
            Stage::Spmspm { .. } => "spmspm",
            Stage::Sddmm { .. } => "sddmm",
            Stage::Spmm { .. } => "spmm",
            Stage::Mttkrp { .. } => "mttkrp",
            Stage::Ttv { .. } => "ttv",
            Stage::Gram => "gram",
        }
    }
}

/// A staged pipeline: 1..N [`Stage`]s over one sparse input, sharing one
/// co-tiling discipline (the session spec's), with inter-stage
/// intermediates tile-resident when `fused`.
#[derive(Debug, Clone)]
pub struct PipelineSpec {
    /// Pipeline label, appended to the variant name in reports
    /// (`"ExTensor-OP-DRT+mttkrp"`).
    pub name: String,
    /// The stages, in execution order.
    pub stages: Vec<Stage>,
    /// Keep inter-stage intermediates on chip (`true`, default) or round
    /// them through DRAM between stages (`false`, the unfused baseline).
    pub fused: bool,
    /// Micro-tile shape for 3-D (CSF) kernels; 2-D stages use the spec's
    /// own micro shape.
    pub micro3: [u32; 3],
}

impl PipelineSpec {
    fn new(name: &str, stages: Vec<Stage>) -> PipelineSpec {
        PipelineSpec { name: name.into(), stages, fused: true, micro3: [8, 8, 8] }
    }

    /// Single-stage SpMSpM — the degenerate pipeline, bit-identical to
    /// [`crate::session::Session::run_spmspm`].
    pub fn spmspm(b: CsMatrix) -> PipelineSpec {
        PipelineSpec::new("spmspm", vec![Stage::Spmspm { b }])
    }

    /// The `Z = (A · B) · C` chain, intermediate `A · B` tile-resident.
    pub fn abc(b: CsMatrix, c: CsMatrix) -> PipelineSpec {
        PipelineSpec::new("abc", vec![Stage::Spmspm { b }, Stage::Spmspm { b: c }])
    }

    /// The fused SDDMM→SpMM "GNN attention layer":
    /// `Z = (spy(A) ⊙ (U · Vᵀ)) · H`.
    pub fn sddmm_spmm(u: DenseMatrix, v: DenseMatrix, h: DenseMatrix) -> PipelineSpec {
        PipelineSpec::new("sddmm-spmm", vec![Stage::Sddmm { u, v }, Stage::Spmm { h }])
    }

    /// MTTKRP over a CSF 3-tensor with dense factors `B` (J × R) and
    /// `C` (K × R).
    pub fn mttkrp(b: DenseMatrix, c: DenseMatrix) -> PipelineSpec {
        PipelineSpec::new("mttkrp", vec![Stage::Mttkrp { b, c }])
    }

    /// Tensor-times-vector over a CSF 3-tensor's last mode.
    pub fn ttv(v: Vec<f64>) -> PipelineSpec {
        PipelineSpec::new("ttv", vec![Stage::Ttv { v }])
    }

    /// The Gram kernel `G_il = χ_ijk · χ_ljk` over a CSF 3-tensor
    /// (Figure 9), on `cpu-mkl` (TACO-like) or any engine spec.
    pub fn gram() -> PipelineSpec {
        PipelineSpec::new("gram", vec![Stage::Gram])
    }

    /// The unfused baseline of this pipeline: identical stages, but every
    /// inter-stage intermediate rounds through DRAM (written back by its
    /// producer, re-loaded tile-by-tile by its consumer).
    #[must_use]
    pub fn unfused(mut self) -> PipelineSpec {
        self.fused = false;
        self.name.push_str("-unfused");
        self
    }

    /// Override the 3-D micro-tile shape used by tensor (CSF) stages.
    #[must_use]
    pub fn with_micro3(mut self, micro3: [u32; 3]) -> PipelineSpec {
        self.micro3 = micro3;
        self
    }
}

pub(crate) fn bad(detail: String) -> DrtError {
    DrtError::Core(CoreError::BadConfig { detail })
}

/// Run a pipeline on `input` under `spec`'s tiling discipline.
///
/// Single-stage SpMSpM delegates to [`AccelSpec::run_ft`] (all registered
/// variants, reports bit-identical to `Session::run_spmspm`). Gram also
/// runs on `cpu-mkl`. Every other pipeline shape requires an
/// engine-backed spec and runs through the modeled stage streams
/// described in the module docs.
///
/// # Errors
///
/// [`DrtError::Core`] with `BadConfig` for unsupported input/stage
/// combinations or analytic (non-engine) specs on multi-stage pipelines;
/// tiling configuration errors propagate from `drt-core`.
pub fn run_pipeline(
    input: PipelineInput<'_>,
    pipe: &PipelineSpec,
    spec: &AccelSpec,
    ctx: &RunCtx,
) -> Result<RunReport, DrtError> {
    if pipe.stages.is_empty() {
        return Err(bad("pipeline has no stages".into()));
    }
    match (input, pipe.stages.as_slice()) {
        // Degenerate single-stage SpMSpM: the existing engine path,
        // verbatim — works for all registered variants and keeps reports
        // and traces bit-identical to `Session::run_spmspm`.
        (PipelineInput::Matrix(a), [Stage::Spmspm { b }]) => {
            spec.run_ft(a, b, ctx).map(RunOutcome::into_report)
        }
        (PipelineInput::Matrix(a), stages)
            if stages.iter().all(|s| matches!(s, Stage::Spmspm { .. })) =>
        {
            let bs: Vec<&CsMatrix> = stages
                .iter()
                .map(|s| match s {
                    Stage::Spmspm { b } => b,
                    _ => unreachable!("guard checked"),
                })
                .collect();
            run_chain(a, &bs, pipe, spec, ctx)
        }
        (PipelineInput::Matrix(a), [Stage::Sddmm { u, v }, Stage::Spmm { h }]) => {
            run_sddmm_spmm(a, u, v, h, pipe, spec, ctx)
        }
        (PipelineInput::Tensor(x), [Stage::Mttkrp { b, c }]) => {
            run_tensor_stage(x, pipe, spec, ctx, mttkrp_stage(x, b, c, spec.size_model))
        }
        (PipelineInput::Tensor(x), [Stage::Ttv { v }]) => {
            run_tensor_stage(x, pipe, spec, ctx, ttv_stage(x, v, spec.size_model))
        }
        (PipelineInput::Tensor(x), [Stage::Gram]) => crate::gram::run(x, pipe, spec, ctx),
        (input, stages) => Err(bad(format!(
            "unsupported pipeline shape: {:?} input through stages [{}]",
            match input {
                PipelineInput::Matrix(_) => "matrix",
                PipelineInput::Tensor(_) => "tensor",
            },
            stages.iter().map(Stage::label).collect::<Vec<_>>().join(", ")
        ))),
    }
}

/// The engine spec a modeled pipeline resolves against, the hierarchy it
/// runs on, and its report name (`"<machine>+<pipeline>"`).
pub(crate) fn engine_parts<'s>(
    spec: &'s AccelSpec,
    ctx: &RunCtx,
    pipe: &PipelineSpec,
) -> Result<(&'s EngineSpec, HierarchySpec, String), DrtError> {
    match &spec.kind {
        SpecKind::Engine(es) => {
            let hier = if es.hier_from_cpu { llc_hierarchy(&ctx.cpu) } else { ctx.hier };
            Ok((es, hier, format!("{}+{}", es.display, pipe.name)))
        }
        _ => Err(bad(format!(
            "pipeline `{}` needs an engine-backed spec; `{}` is an analytic model",
            pipe.name, spec.name
        ))),
    }
}

/// Task-generation options for one stage stream: the spec's DRT
/// discipline, or (for any static scheme) the capacity-derived fallback
/// S-U-C shape for this stage's kernel — per-stage kernels have their own
/// rank sets, so pre-swept 2-rank SpMSpM shapes don't transfer.
fn stage_opts(
    kernel: &Kernel,
    es: &EngineSpec,
    cfg: &DrtConfig,
    order: &[RankId],
) -> TaskGenOptions {
    match &es.tiling {
        TilingSpec::Drt => TaskGenOptions::drt(order, cfg.clone()),
        _ => {
            let coords = fallback_suc_coord_sizes(kernel, cfg);
            TaskGenOptions::suc(order, cfg.clone(), &coords)
        }
    }
}

/// [`stage_opts`] armed with the run context's budget and cancellation —
/// used for the real stage streams (the `feasible_micro` probe builds
/// stay unarmed so the shape search never consumes budget). The
/// resident-bytes cap is an engine-level cap on materialized task lists
/// and does not ride on task generation, mirroring the engine's
/// gen-budget discipline.
fn armed_opts(
    kernel: &Kernel,
    es: &EngineSpec,
    cfg: &DrtConfig,
    order: &[RankId],
    ctx: &RunCtx,
) -> TaskGenOptions {
    let gen_budget = ExecBudget {
        max_tasks: ctx.budget.max_tasks,
        max_resident_bytes: None,
        max_plan_candidates: ctx.budget.max_plan_candidates,
    };
    stage_opts(kernel, es, cfg, order).with_budget(gen_budget).with_cancel(ctx.cancel.clone())
}

/// The degradation record for a pipeline stopped at a task boundary by
/// an expired token (the pipeline analogue of the engine's clean stop).
fn expiry_degradation(kind: ExpiryKind, completed: u64) -> Degradation {
    Degradation {
        reason: crate::engine::expiry_reason(kind),
        completed_tasks: completed,
        detail: if completed == 0 {
            "expired before any work ran".into()
        } else {
            format!("pipeline stopped at a task boundary after {completed} committed task(s)")
        },
    }
}

/// The degraded report for a pipeline whose token was already expired at
/// entry (an all-zero report, no work); `None` while the token is live.
pub(crate) fn expired_entry(name: &str, ctx: &RunCtx) -> Option<RunReport> {
    ctx.cancel.expiry_kind().map(|kind| {
        let mut report = RunReport::empty(name);
        report.degradation = Some(expiry_degradation(kind, 0));
        report
    })
}

/// Configuration-time micro-shape adjustment for a pipeline stage
/// (§5.2.4, mirroring the engine's adapt-micro): starting from `start`,
/// halve the square micro shape until the stage's kernel and task stream
/// build (the constructors enforce the worst-case-dense capacity rule).
fn feasible_micro(
    make_kernel: impl Fn(u32) -> Result<Kernel, CoreError>,
    es: &EngineSpec,
    cfg: &DrtConfig,
    order: &[RankId],
    start: u32,
) -> Result<u32, CoreError> {
    let mut m = start.max(2);
    loop {
        let attempt = make_kernel(m).and_then(|k| {
            let opts = stage_opts(&k, es, cfg, order);
            TaskStream::build(&k, opts).map(|_| ())
        });
        match attempt {
            Ok(()) => return Ok(m),
            // Halve on either capacity failure: `TileTooLarge` is the
            // DRT preflight's densest-actual-tile rule,
            // `ShapeOverflowsBuffer` is the S-U-C worst-case-dense rule
            // (the static fallback shape is one micro tile per rank, so
            // it shrinks with the micro shape too).
            Err(CoreError::TileTooLarge { .. } | CoreError::ShapeOverflowsBuffer { .. })
                if m >= 4 =>
            {
                m /= 2
            }
            Err(e) => return Err(e),
        }
    }
}

/// The coordinate window of `ranks` in `r`, flattened to
/// `[start, end, …]` — a load ledger key.
fn window(r: &RankRanges, ranks: &[RankId]) -> Vec<u32> {
    ranks.iter().flat_map(|k| [r[k].start, r[k].end]).collect()
}

/// One stage's traffic and phase breakdown, plus its load ledger: a tile
/// or dense window is charged once per distinct coordinate-range visit
/// (the stationarity idiom shared with the engine).
#[derive(Default)]
pub(crate) struct StageLedger {
    last: BTreeMap<String, Vec<u32>>,
    traffic: TrafficCounter,
    phases: PhaseBreakdown,
}

impl StageLedger {
    /// Charge a load of `bytes` of `tensor` unconditionally.
    pub(crate) fn read(&mut self, tensor: &str, bytes: u64) {
        self.traffic.read(tensor, bytes);
        self.phases.load.bytes += bytes;
    }

    /// Charge a load of `bytes` of `tensor` unless `ranges` is the window
    /// its last load covered.
    fn load(&mut self, tensor: &str, ranges: Vec<u32>, bytes: u64) {
        match self.last.get_mut(tensor) {
            Some(last) if *last == ranges => return,
            Some(last) => *last = ranges,
            None => {
                self.last.insert(tensor.to_string(), ranges);
            }
        }
        self.read(tensor, bytes);
    }

    /// Load every input tile of `plan` under its own name, windowed by
    /// its binding's ranks.
    fn load_tiles(&mut self, kernel: &Kernel, plan: &TilePlan) {
        for (tile, input) in plan.tiles.iter().zip(kernel.inputs()) {
            self.load(&tile.name, window(&plan.coord_ranges, &input.ranks), tile.footprint());
        }
    }

    /// Load the rows of a dense operand that fall in one coordinate range.
    fn load_window(&mut self, tensor: &str, range: &Range<u32>, bytes_per_coord: u64) {
        self.load(tensor, vec![range.start, range.end], bytes_per_coord * range.len() as u64);
    }

    /// Charge a writeback of `bytes` of `tensor`.
    pub(crate) fn write_back(&mut self, tensor: &str, bytes: u64) {
        self.traffic.write(tensor, bytes);
        self.phases.writeback.bytes += bytes;
    }
}

/// A pipeline run's totals across its stages.
#[derive(Default)]
pub(crate) struct StageRun {
    pub(crate) traffic: TrafficCounter,
    pub(crate) stages: Vec<StagePhases>,
    pub(crate) maccs: u64,
    pub(crate) tasks: u64,
    pub(crate) skipped: u64,
    pub(crate) degradation: Option<Degradation>,
}

impl StageRun {
    /// Fold a drained stage stream's task counts and budget degradation
    /// in. `Some` when the stream stopped at a task boundary on an
    /// expired token.
    fn close(&mut self, stream: &TaskStream<'_>) -> Option<ExpiryKind> {
        self.tasks += stream.emitted();
        self.skipped += stream.skipped_empty();
        if let Some(cause) = stream.degraded() {
            let tasks = self.tasks;
            self.degradation.get_or_insert_with(|| crate::engine::budget_degradation(cause, tasks));
        }
        stream.aborted()
    }

    /// Append one stage: its traffic and its phase breakdown.
    pub(crate) fn push(&mut self, stage: &str, ledger: StageLedger) {
        self.traffic.merge(&ledger.traffic);
        self.stages.push(StagePhases { stage: stage.into(), phases: ledger.phases });
    }

    /// The report, with `seconds` as the modeled runtime.
    pub(crate) fn report(self, name: String, seconds: f64, output: Option<CsMatrix>) -> RunReport {
        let mut phases = PhaseBreakdown::default();
        for s in &self.stages {
            phases.add(&s.phases);
        }
        let actions = ActionCounts {
            dram_bytes: self.traffic.total(),
            maccs: self.maccs,
            ..Default::default()
        };
        RunReport {
            name,
            traffic: self.traffic,
            maccs: self.maccs,
            compute_cycles: 0,
            exposed_extract_cycles: 0,
            seconds,
            output,
            tasks: self.tasks,
            skipped_tasks: self.skipped,
            actions,
            phases,
            stages: self.stages,
            degradation: self.degradation,
        }
    }

    /// The report of a DRAM-bound run that produced `output`.
    pub(crate) fn finish(self, name: String, hier: &HierarchySpec, output: CsMatrix) -> RunReport {
        let seconds = hier.dram.seconds_for(self.traffic.total());
        self.report(name, seconds, Some(output))
    }

    /// The report of a run stopped at a task boundary by an expired
    /// token: its partial traffic stands, later stages never run, and the
    /// (incomplete) functional output is dropped — engine abort semantics.
    fn stop(mut self, name: String, hier: &HierarchySpec, kind: ExpiryKind) -> RunReport {
        self.degradation = Some(expiry_degradation(kind, self.tasks));
        let seconds = hier.dram.seconds_for(self.traffic.total());
        self.report(name, seconds, None)
    }
}

/// `Z = A · B₀ · B₁ · …` — each stage a row-wise SpMSpM whose sparse left
/// operand is the previous stage's output. Fused: intermediates stay
/// tile-resident (no writeback, no re-loads). Unfused: each intermediate
/// is written back whole and its tiles re-loaded by the next stage.
fn run_chain(
    a: &CsMatrix,
    bs: &[&CsMatrix],
    pipe: &PipelineSpec,
    spec: &AccelSpec,
    ctx: &RunCtx,
) -> Result<RunReport, DrtError> {
    let (es, hier, name) = engine_parts(spec, ctx, pipe)?;
    if let Some(report) = expired_entry(&name, ctx) {
        return Ok(report);
    }
    let base = spec.engine_config(es, &hier);
    let sm = base.drt.size_model;
    // Output-row-outer dataflow: the i panel of every stage is live at
    // once, which is what makes the intermediates fusable.
    let order: [RankId; 3] = ['i', 'k', 'j'];
    let mut run = StageRun::default();
    let mut cur = a.clone();
    for (si, b) in bs.iter().enumerate() {
        let m = feasible_micro(
            |m| Kernel::spmspm_fmt(&cur, b, (m, m), base.micro_format),
            es,
            &base.drt,
            &order,
            base.micro.0.max(base.micro.1),
        )?;
        let kernel = Kernel::spmspm_fmt(&cur, b, (m, m), base.micro_format)?;
        let mut stream =
            TaskStream::build(&kernel, armed_opts(&kernel, es, &base.drt, &order, ctx))?;
        let mut ledger = StageLedger::default();
        let left_name = if si == 0 { "A".to_string() } else { format!("T{si}") };
        let right_name = ((b'B' + si as u8) as char).to_string();
        let left_is_fused_intermediate = pipe.fused && si > 0;
        for task in &mut stream {
            for (tile, input) in task.plan.tiles.iter().zip(kernel.inputs()) {
                let left = tile.name == "A";
                if left && left_is_fused_intermediate {
                    continue; // produced on chip by the previous stage
                }
                let display = if left { &left_name } else { &right_name };
                let ranges = window(&task.plan.coord_ranges, &input.ranks);
                ledger.load(display, ranges, tile.footprint());
            }
        }
        let label = format!("spmspm#{si}");
        if let Some(kind) = run.close(&stream) {
            run.push(&label, ledger);
            return Ok(run.stop(name, &hier, kind));
        }
        let product = drt_kernels::spmspm::gustavson(&cur, b);
        run.maccs += product.maccs;
        if si + 1 == bs.len() {
            ledger.write_back("Z", sm.cs_matrix_bytes(&product.z) as u64);
        } else if !pipe.fused {
            // Unfused: the intermediate rounds through DRAM — written
            // whole here, re-loaded tile-by-tile by the next stage.
            ledger.write_back(&format!("T{}", si + 1), sm.cs_matrix_bytes(&product.z) as u64);
        }
        run.push(&label, ledger);
        cur = product.z;
    }
    Ok(run.finish(name, &hier, cur))
}

/// Fused SDDMM→SpMM: stage 0 samples `U · Vᵀ` at the sparse operand's
/// non-zeros, stage 1 multiplies the surviving entries into dense `H`.
/// The intermediate `S` stays row-panel-resident when fused.
fn run_sddmm_spmm(
    a: &CsMatrix,
    u: &DenseMatrix,
    v: &DenseMatrix,
    h: &DenseMatrix,
    pipe: &PipelineSpec,
    spec: &AccelSpec,
    ctx: &RunCtx,
) -> Result<RunReport, DrtError> {
    let (es, hier, name) = engine_parts(spec, ctx, pipe)?;
    if let Some(report) = expired_entry(&name, ctx) {
        return Ok(report);
    }
    let base = spec.engine_config(es, &hier);
    let sm = base.drt.size_model;
    let vb = sm.value_bytes as u64;
    let rank = u.ncols() as u64;
    let feat = h.ncols() as u64;
    let order: [RankId; 2] = ['i', 'j'];
    let start = base.micro.0.max(base.micro.1);
    let mut run = StageRun::default();

    // Stage 0: SDDMM over A's occupancy (nothing contracted).
    let sddmm_kernel = |m: u32| Kernel::sddmm_fmt(a, (m, m), base.micro_format);
    let kernel0 = sddmm_kernel(feasible_micro(sddmm_kernel, es, &base.drt, &order, start)?)?;
    let mut stream0 =
        TaskStream::build(&kernel0, armed_opts(&kernel0, es, &base.drt, &order, ctx))?;
    let mut ledger0 = StageLedger::default();
    for task in &mut stream0 {
        ledger0.load_tiles(&kernel0, &task.plan);
        // Dense factor row windows stream in with their coordinate range.
        ledger0.load_window("U", &task.plan.coord_ranges[&'i'], vb * rank);
        ledger0.load_window("V", &task.plan.coord_ranges[&'j'], vb * rank);
    }
    if let Some(kind) = run.close(&stream0) {
        run.push("sddmm", ledger0);
        return Ok(run.stop(name, &hier, kind));
    }
    let s = drt_kernels::spmm::sddmm(a, u, v);
    run.maccs += (rank + 1) * a.nnz() as u64;
    if !pipe.fused {
        ledger0.write_back("S", sm.cs_matrix_bytes(&s) as u64);
    }
    run.push("sddmm", ledger0);

    // Stage 1: SpMM of the intermediate into dense H (contracts j).
    let spmm_kernel = |m: u32| -> Result<Kernel, CoreError> {
        let grid_s = MicroGrid::from_matrix_fmt(&s, (m, m), base.micro_format)?;
        let binding = TensorBinding { name: "S".into(), ranks: vec!['i', 'j'], grid: grid_s };
        Kernel::new(vec![binding], "Z", vec!['i'])
    };
    let llb = hier.llb.capacity_bytes;
    let cfg1 = DrtConfig::new(Partitions::split(llb, &[("S", 0.5), ("Z", 0.5)]))
        .with_growth(base.drt.growth)
        .with_size_model(sm);
    let kernel1 = spmm_kernel(feasible_micro(spmm_kernel, es, &cfg1, &order, start)?)?;
    let mut stream1 = TaskStream::build(&kernel1, armed_opts(&kernel1, es, &cfg1, &order, ctx))?;
    let mut ledger1 = StageLedger::default();
    for task in &mut stream1 {
        // Fused, the S panel is already on chip: stage 0 produced it.
        if !pipe.fused {
            ledger1.load_tiles(&kernel1, &task.plan);
        }
        ledger1.load_window("H", &task.plan.coord_ranges[&'j'], vb * feat);
    }
    if let Some(kind) = run.close(&stream1) {
        run.push("spmm", ledger1);
        return Ok(run.stop(name, &hier, kind));
    }
    run.maccs += feat * s.nnz() as u64;
    let fused_ref = drt_kernels::sddmm::fused_sddmm_spmm(a, u, v, h);
    debug_assert_eq!(run.maccs, fused_ref.maccs, "stage MACCs must sum to the fused reference");
    // The dense Z streams out once either way.
    ledger1.write_back("Z", vb * feat * a.nrows() as u64);
    run.push("spmm", ledger1);
    Ok(run.finish(name, &hier, fused_ref.z.to_sparse(MajorAxis::Row)))
}

/// A tensor stage's tiling configuration for an engine spec and an LLB
/// capacity.
pub(crate) type StageConfig<'a> = Box<dyn Fn(&EngineSpec, u64) -> DrtConfig + 'a>;

/// A tensor stage's per-task charge: `(MACCs, output-cache key, output
/// bytes the task adds)`.
pub(crate) type TaskCharge<'a> = Box<dyn Fn(&RankRanges) -> (u64, TileKey, u64) + 'a>;

/// What sets one CSF tensor stage apart. Everything else — the armed
/// stream, the load ledger, the output-cache merge, the writeback and the
/// degraded/aborted epilogue — belongs to [`run_tensor_stage`].
pub(crate) struct TensorStage<'a> {
    /// Output tensor name; its partition sizes the output cache.
    pub(crate) output: &'static str,
    /// Loop order, outermost first.
    pub(crate) order: &'static [RankId],
    /// The stage kernel at a micro shape.
    pub(crate) kernel: fn(&CsfTensor, &[u32; 3]) -> Result<Kernel, CoreError>,
    /// The stage's tiling configuration.
    pub(crate) config: StageConfig<'a>,
    /// Dense operands that stream one rank's coordinate window per task:
    /// `(tensor, rank, bytes per coordinate)`.
    pub(crate) dense: Vec<(&'static str, RankId, u64)>,
    /// The per-task charge.
    pub(crate) task: TaskCharge<'a>,
    /// The reference output and its kernel's MACC total.
    pub(crate) reference: Box<dyn FnOnce() -> (CsMatrix, u64) + 'a>,
}

/// Partitions for a single-CSF-operand kernel stream: the sparse operand
/// gets the lion's share, the output panel the rest; growth and size
/// model follow the spec.
fn tensor_config(output: &'static str, sm: SizeModel) -> StageConfig<'static> {
    Box::new(move |es, llb| {
        DrtConfig::new(Partitions::split(llb, &[("X", 0.6), (output, 0.4)]))
            .with_growth(es.growth)
            .with_size_model(sm)
    })
}

/// The non-zeros of `x` inside one task's `(i, j, k)` box.
fn box_nnz(x: &CsfTensor, r: &RankRanges) -> u64 {
    x.nnz_in_box(&[r[&'i'].clone(), r[&'j'].clone(), r[&'k'].clone()]) as u64
}

/// MTTKRP: factor row windows stream with their coordinate ranges, the
/// dense `M` panel is output-row-stationary.
fn mttkrp_stage<'a>(
    x: &'a CsfTensor,
    b: &'a DenseMatrix,
    c: &'a DenseMatrix,
    sm: SizeModel,
) -> TensorStage<'a> {
    let vb = sm.value_bytes as u64;
    let rank = b.ncols() as u64;
    TensorStage {
        output: "M",
        order: &['i', 'j', 'k'],
        kernel: Kernel::mttkrp,
        config: tensor_config("M", sm),
        dense: vec![("B", 'j', vb * rank), ("C", 'k', vb * rank)],
        task: Box::new(move |r| {
            let (ir, nnz) = (&r[&'i'], box_nnz(x, r));
            // The task's M panel rows: at most one per non-zero, at most
            // the i-range.
            (2 * rank * nnz, [ir.start, ir.end, 0, 0], vb * rank * nnz.min(ir.len() as u64))
        }),
        reference: Box::new(|| {
            let m = drt_kernels::mttkrp::mttkrp(x, b, c);
            (m.m.to_sparse(MajorAxis::Row), m.maccs)
        }),
    }
}

/// TTV: `Y_ij = Σ_k χ_ijk · v_k` under MTTKRP's stream shape, with a
/// sparse `(i, j)` output.
fn ttv_stage<'a>(x: &'a CsfTensor, v: &'a [f64], sm: SizeModel) -> TensorStage<'a> {
    TensorStage {
        output: "Y",
        order: &['i', 'j', 'k'],
        kernel: Kernel::ttv,
        config: tensor_config("Y", sm),
        dense: vec![("v", 'k', sm.value_bytes as u64)],
        task: Box::new(move |r| {
            let (ir, jr, nnz) = (&r[&'i'], &r[&'j'], box_nnz(x, r));
            let cells = ir.len() as u64 * jr.len() as u64;
            let added = sm.coo_bytes(nnz.min(cells) as usize, 2) as u64;
            (nnz, [ir.start, ir.end, jr.start, jr.end], added)
        }),
        reference: Box::new(|| (drt_kernels::ttv::ttv(x, v), x.nnz() as u64)),
    }
}

/// Run one CSF tensor stage: a budget- and cancel-armed task stream over
/// the co-tiled space. Sparse tiles and dense operand windows load
/// through the stage ledger, each task's output panel merges through the
/// output cache, and the cache's final pass is the writeback.
pub(crate) fn run_tensor_stage(
    x: &CsfTensor,
    pipe: &PipelineSpec,
    spec: &AccelSpec,
    ctx: &RunCtx,
    stage: TensorStage<'_>,
) -> Result<RunReport, DrtError> {
    let (es, hier, name) = engine_parts(spec, ctx, pipe)?;
    if let Some(report) = expired_entry(&name, ctx) {
        return Ok(report);
    }
    let cfg = (stage.config)(es, hier.llb.capacity_bytes);
    let kernel_at = |m: u32| (stage.kernel)(x, &pipe.micro3.map(|d| d.min(m)));
    let start = pipe.micro3.iter().copied().max().unwrap_or(8);
    let kernel = kernel_at(feasible_micro(kernel_at, es, &cfg, stage.order, start)?)?;
    let mut stream = TaskStream::build(&kernel, armed_opts(&kernel, es, &cfg, stage.order, ctx))?;
    let out = stage.output;
    let mut run = StageRun::default();
    let mut ledger = StageLedger::default();
    let mut zcache = OutputCache::new(cfg.partitions.get(out));
    for task in &mut stream {
        let r = &task.plan.coord_ranges;
        ledger.load_tiles(&kernel, &task.plan);
        for &(tensor, rank, bytes_per_coord) in &stage.dense {
            ledger.load_window(tensor, &r[&rank], bytes_per_coord);
        }
        let (maccs, key, added) = (stage.task)(r);
        run.maccs += maccs;
        let charge = zcache.access(&key, added);
        ledger.traffic.write(out, charge.spill_writes);
        ledger.traffic.read(out, charge.refill_reads);
        ledger.phases.merge.bytes += charge.spill_writes + charge.refill_reads;
    }
    let fin = zcache.finish();
    ledger.traffic.read(out, fin.merge_reads);
    ledger.traffic.write(out, fin.final_writes);
    ledger.phases.writeback.bytes += fin.merge_reads + fin.final_writes;
    let aborted = run.close(&stream);
    run.push(pipe.stages[0].label(), ledger);
    if let Some(kind) = aborted {
        return Ok(run.stop(name, &hier, kind));
    }
    let (output, maccs) = (stage.reference)();
    debug_assert_eq!(run.maccs, maccs, "task MACCs must sum to the kernel total");
    Ok(run.finish(name, &hier, output))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use crate::workload::Workload;
    use drt_workloads::patterns::unstructured;
    use drt_workloads::tensor3::{dense_factor, skewed_tensor};

    fn small_hier() -> HierarchySpec {
        HierarchySpec::default().scaled_down(256)
    }

    #[test]
    fn one_stage_pipeline_is_bit_identical_to_run_spmspm() {
        let a = unstructured(96, 96, 700, 2.0, 1);
        for threads in [1usize, 4] {
            let session = Session::new(AccelSpec::extensor_op_drt())
                .hierarchy(&small_hier())
                .threads(threads);
            let direct = session.run_spmspm(&a, &a).expect("direct");
            let piped = session
                .run_pipeline(PipelineInput::Matrix(&a), &PipelineSpec::spmspm(a.clone()))
                .expect("piped");
            assert!(direct.bit_diff(&piped).is_none(), "{:?}", direct.bit_diff(&piped));
            assert!(piped.stages.is_empty(), "degenerate pipeline keeps stages empty");
        }
    }

    #[test]
    fn abc_chain_fused_beats_unfused_and_matches_reference() {
        let a = unstructured(64, 64, 600, 2.0, 2);
        let b = unstructured(64, 64, 600, 2.0, 3);
        let c = unstructured(64, 64, 600, 2.0, 4);
        let session = Session::new(AccelSpec::extensor_op_drt()).hierarchy(&small_hier());
        let fused = session
            .run_pipeline(PipelineInput::Matrix(&a), &PipelineSpec::abc(b.clone(), c.clone()))
            .expect("fused");
        let unfused = session
            .run_pipeline(
                PipelineInput::Matrix(&a),
                &PipelineSpec::abc(b.clone(), c.clone()).unfused(),
            )
            .expect("unfused");
        let t = drt_kernels::spmspm::gustavson(&a, &b).z;
        assert!(t.nnz() > 0, "intermediate must be non-empty for this test");
        assert!(
            fused.traffic.total() < unfused.traffic.total(),
            "fused {} must beat unfused {}",
            fused.traffic.total(),
            unfused.traffic.total()
        );
        let want = drt_kernels::spmspm::gustavson(&t, &c).z;
        assert!(fused.output.as_ref().expect("out").approx_eq(&want, 1e-9));
        assert_eq!(fused.stages.len(), 2);
        assert!(fused.stage_partition_violation().is_none());
        assert!(fused.phase_partition_violation().is_none());
    }

    #[test]
    fn sddmm_spmm_fused_beats_unfused_and_matches_reference() {
        let a = unstructured(48, 40, 300, 2.0, 5);
        let u = dense_factor(48, 6, 6);
        let v = dense_factor(40, 6, 7);
        let h = dense_factor(40, 5, 8);
        let session = Session::new(AccelSpec::extensor_op_drt()).hierarchy(&small_hier());
        let pipe = PipelineSpec::sddmm_spmm(u.clone(), v.clone(), h.clone());
        let fused = session.run_pipeline(PipelineInput::Matrix(&a), &pipe).expect("fused");
        let unfused = session
            .run_pipeline(PipelineInput::Matrix(&a), &pipe.clone().unfused())
            .expect("unfused");
        assert!(fused.traffic.total() < unfused.traffic.total());
        let want = drt_kernels::sddmm::fused_sddmm_spmm(&a, &u, &v, &h).z.to_sparse(MajorAxis::Row);
        assert!(fused.output.as_ref().expect("out").approx_eq(&want, 1e-9));
        assert!(fused.stage_partition_violation().is_none());
        assert!(fused.phase_partition_violation().is_none());
    }

    #[test]
    fn mttkrp_maccs_and_output_match_reference() {
        let x = skewed_tensor(32, 24, 28, 900, 9);
        let b = dense_factor(24, 4, 10);
        let c = dense_factor(28, 4, 11);
        let session = Session::new(AccelSpec::extensor_op_drt()).hierarchy(&small_hier());
        let r = session
            .run_workload(&Workload::mttkrp(x.clone(), b.clone(), c.clone()))
            .expect("mttkrp")
            .into_report();
        assert_eq!(r.maccs, drt_kernels::mttkrp::mttkrp_maccs(&x, 4));
        let want = drt_kernels::mttkrp::mttkrp(&x, &b, &c).m.to_sparse(MajorAxis::Row);
        assert!(r.output.as_ref().expect("out").approx_eq(&want, 1e-9));
        assert!(r.stage_partition_violation().is_none());
        assert!(r.phase_partition_violation().is_none());
    }

    #[test]
    fn ttv_runs_on_suc_and_drt_variants() {
        let x = skewed_tensor(24, 24, 24, 600, 12);
        let v: Vec<f64> = (0..24).map(|k| 1.0 + k as f64 * 0.125).collect();
        let want = drt_kernels::ttv::ttv(&x, &v);
        for spec in [AccelSpec::extensor_op_drt(), AccelSpec::extensor_op()] {
            let session = Session::new(spec).hierarchy(&small_hier());
            let r = session
                .run_workload(&Workload::ttv(x.clone(), v.clone()))
                .expect("ttv")
                .into_report();
            assert_eq!(r.maccs, x.nnz() as u64);
            assert!(r.output.as_ref().expect("out").approx_eq(&want, 1e-9));
            assert!(r.phase_partition_violation().is_none());
        }
    }

    #[test]
    fn analytic_spec_rejects_multi_stage_pipelines() {
        let x = skewed_tensor(8, 8, 8, 40, 13);
        let b = dense_factor(8, 2, 1);
        let c = dense_factor(8, 2, 2);
        let session = Session::new(AccelSpec::outerspace());
        let err =
            session.run_workload(&Workload::mttkrp(x, b, c)).expect_err("analytic must reject");
        assert!(err.to_string().contains("engine-backed"), "{err}");
    }
}
