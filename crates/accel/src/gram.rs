//! The Gram kernel `G_il = χ_ijk · χ_ljk` (paper §6.1.3, Figure 9), run
//! through [`crate::pipeline::PipelineSpec::gram`].
//!
//! The kernel binds the same 3-tensor twice (the second operand with `i`
//! renamed `l`) and contracts over *two* ranks, so DRT must grow tiles
//! across three dimensions per operand — two of them contracted. The
//! dataflow keeps the first operand's `i` slab stationary while `l`
//! sweeps, with the contracted `(j, k)` ranges co-tiled between the
//! operands. The session spec picks the model:
//!
//! * `cpu-mkl` runs the TACO-like CPU baseline ([`crate::taco`]);
//! * DRT engine specs (ExTensor-OP-DRT) run the Gram task stream on the
//!   shared tensor-stage runner;
//! * statically tiled engine specs (ExTensor-OP) run the best of four
//!   uniform S-U-C shapes under a closed-form traffic model.

use crate::error::DrtError;
use crate::pipeline::{
    bad, engine_parts, expired_entry, run_tensor_stage, PipelineSpec, StageLedger, StageRun,
    TensorStage,
};
use crate::report::RunReport;
use crate::spec::{AccelSpec, PartitionPreset, RunCtx, SpecKind, TilingSpec};
use drt_core::config::DrtConfig;
use drt_core::drt::RankRanges;
use drt_core::kernel::Kernel;
use drt_core::micro::{MicroFormat, MicroGrid};
use drt_sim::memory::HierarchySpec;
use drt_tensor::format::SizeModel;
use drt_tensor::CsfTensor;
use std::collections::BTreeMap;
use std::ops::Range;

/// Pre-grouped non-zeros for fast per-task MACC counting:
/// `j → k → sorted list of i coordinates`.
#[derive(Debug)]
struct GramCounter {
    jk: BTreeMap<u32, BTreeMap<u32, Vec<u32>>>,
}

impl GramCounter {
    fn new(x: &CsfTensor) -> GramCounter {
        let mut jk: BTreeMap<u32, BTreeMap<u32, Vec<u32>>> = BTreeMap::new();
        for (p, _) in x.iter_points() {
            jk.entry(p[1]).or_default().entry(p[2]).or_default().push(p[0]);
        }
        for ks in jk.values_mut() {
            for is in ks.values_mut() {
                is.sort_unstable();
            }
        }
        GramCounter { jk }
    }

    /// `(maccs, output-pair upper bound)` for one task box.
    fn count(&self, r: &RankRanges) -> (u64, u64) {
        let (ir, lr) = (&r[&'i'], &r[&'l']);
        let in_range = |is: &[u32], rr: &Range<u32>| {
            is.partition_point(|&v| v < rr.end) - is.partition_point(|&v| v < rr.start)
        };
        let mut maccs = 0u64;
        for (_, ks) in self.jk.range(r[&'j'].clone()) {
            for (_, is) in ks.range(r[&'k'].clone()) {
                maccs += (in_range(is, ir) * in_range(is, lr)) as u64;
            }
        }
        let cells = ir.len() as u64 * lr.len() as u64;
        (maccs, maccs.min(cells))
    }
}

/// Run the Gram kernel on `x` under the model `spec` selects (see the
/// module docs).
pub(crate) fn run(
    x: &CsfTensor,
    pipe: &PipelineSpec,
    spec: &AccelSpec,
    ctx: &RunCtx,
) -> Result<RunReport, DrtError> {
    if x.ndim() != 3 {
        return Err(bad(format!("gram expects a 3-tensor, got {} modes", x.ndim())));
    }
    match &spec.kind {
        SpecKind::CpuRoofline => {
            let name = format!("TACO+{}", pipe.name);
            Ok(expired_entry(&name, ctx)
                .unwrap_or_else(|| crate::taco::run_gram(x, &ctx.cpu, &spec.size_model, name)))
        }
        SpecKind::Engine(es) if es.tiling == TilingSpec::Drt => {
            run_tensor_stage(x, pipe, spec, ctx, drt_stage(x))
        }
        _ => {
            let (_, hier, name) = engine_parts(spec, ctx, pipe)?;
            match expired_entry(&name, ctx) {
                Some(report) => Ok(report),
                None => best_suc(x, &hier, pipe.micro3, name),
            }
        }
    }
}

/// The Gram task stream: loop order `i → l → (j, k)`, the Gram3
/// partitions and the default DRT configuration. Each task's `(i, l)`
/// output tile merges through the output cache.
fn drt_stage(x: &CsfTensor) -> TensorStage<'_> {
    let counter = GramCounter::new(x);
    let sm = SizeModel::default();
    TensorStage {
        output: "G",
        order: &['i', 'l', 'j', 'k'],
        kernel: Kernel::gram,
        config: Box::new(|_, llb| DrtConfig::new(PartitionPreset::Gram3.partitions(llb))),
        dense: Vec::new(),
        task: Box::new(move |r| {
            let (maccs, out_pairs) = counter.count(r);
            let (ir, lr) = (&r[&'i'], &r[&'l']);
            (
                maccs,
                [ir.start, ir.end, lr.start, lr.end],
                sm.coo_bytes(out_pairs as usize, 2) as u64,
            )
        }),
        reference: Box::new(|| {
            let g = drt_kernels::gram::gram(x);
            (g.g, g.maccs)
        }),
    }
}

/// The best of four uniform S-U-C shapes (`micro × {1, 2, 4, 8}`) —
/// Figure 9's S-U-C points (the paper sweeps static shapes per
/// workload).
///
/// Uniform tiles under the `i → l → (j, k)` dataflow admit a closed-form
/// traffic model (used here instead of enumerating the task grid, which is
/// intractable for hypersparse tensors whose static grids have trillions
/// of mostly-empty boxes — the hardware skips those through compressed
/// traversal, and the closed form reproduces that):
///
/// * the `X` operand's tiled footprint streams once per `l` chunk,
/// * the `Y` operand's tiled footprint streams once per `i` chunk,
/// * each `(i, l)` output tile is stationary for its whole `(j, k)` sweep,
///   so `G` is written once.
///
/// A shape that overflows `u32` or breaks the worst-case-dense capacity
/// rule is infeasible; `BadConfig` when no shape is feasible.
fn best_suc(
    x: &CsfTensor,
    hier: &HierarchySpec,
    micro: [u32; 3],
    name: String,
) -> Result<RunReport, DrtError> {
    let kernel = Kernel::gram(x, &micro)?;
    let cfg = DrtConfig::new(PartitionPreset::Gram3.partitions(hier.llb.capacity_bytes));
    // Per shape: (bytes each operand streams, (i, l) tile pairs). `i` and
    // `l` tile alike, so both operands share one tiled footprint — from an
    // S-U-C grid at the tile shape itself (plain T-UC tiles, as the static
    // scheme stores them).
    let shape_cost = |mult: u32| -> Option<(u64, u64)> {
        let [si, sj, sk] =
            [micro[0].checked_mul(mult)?, micro[1].checked_mul(mult)?, micro[2].checked_mul(mult)?];
        let sizes = BTreeMap::from([('i', si), ('l', si), ('j', sj), ('k', sk)]);
        drt_core::suc::validate_shape(&kernel, &sizes, &cfg.partitions, &cfg.size_model).ok()?;
        let grid = MicroGrid::from_csf_fmt(x, &[si, sj, sk], MicroFormat::Uc).ok()?;
        let chunks = x.shape()[0].div_ceil(si) as u64;
        Some((grid.total_data_bytes() * chunks, chunks * chunks))
    };
    let (operand_bytes, tasks) = [1, 2, 4, 8]
        .into_iter()
        .filter_map(shape_cost)
        .min_by_key(|&(bytes, _)| bytes)
        .ok_or_else(|| bad("no feasible S-U-C Gram shape".into()))?;
    let reference = drt_kernels::gram::gram(x);
    let mut ledger = StageLedger::default();
    ledger.read("X", operand_bytes);
    ledger.read("Y", operand_bytes);
    ledger.write_back("G", cfg.size_model.cs_matrix_bytes(&reference.g) as u64);
    let mut run = StageRun { maccs: reference.maccs, tasks, ..StageRun::default() };
    run.push("gram", ledger);
    Ok(run.finish(name, hier, reference.g))
}

#[cfg(test)]
mod tests {
    use crate::error::DrtError;
    use crate::pipeline::{PipelineInput, PipelineSpec};
    use crate::report::RunReport;
    use crate::session::Session;
    use crate::spec::AccelSpec;
    use drt_core::CoreError;
    use drt_sim::memory::{BufferSpec, HierarchySpec};
    use drt_tensor::CsfTensor;
    use drt_workloads::tensor3::skewed_tensor;

    fn hier() -> HierarchySpec {
        HierarchySpec {
            llb: BufferSpec { capacity_bytes: 32 * 1024, ports: 2 },
            ..HierarchySpec::default()
        }
    }

    fn gram(spec: AccelSpec, x: &CsfTensor, micro3: [u32; 3]) -> Result<RunReport, DrtError> {
        Session::new(spec)
            .hierarchy(&hier())
            .run_pipeline(PipelineInput::Tensor(x), &PipelineSpec::gram().with_micro3(micro3))
    }

    #[test]
    fn drt_maccs_match_reference() {
        let x = skewed_tensor(24, 24, 24, 800, 1);
        let r = gram(AccelSpec::extensor_op_drt(), &x, [4, 4, 4]).expect("run");
        assert_eq!(
            r.maccs,
            drt_kernels::gram::gram_maccs(&x),
            "task MACCs must sum to the kernel total"
        );
        assert!(r.stage_partition_violation().is_none());
        assert!(r.phase_partition_violation().is_none());
    }

    #[test]
    fn suc_maccs_match_reference() {
        let x = skewed_tensor(16, 16, 16, 400, 2);
        let r = gram(AccelSpec::extensor_op(), &x, [4, 4, 4]).expect("run");
        assert_eq!(r.maccs, drt_kernels::gram::gram_maccs(&x));
        assert!(r.phase_partition_violation().is_none());
    }

    #[test]
    fn drt_ai_at_least_suc_ai() {
        let x = skewed_tensor(32, 32, 32, 1500, 3);
        let drt = gram(AccelSpec::extensor_op_drt(), &x, [4, 4, 4]).expect("drt");
        let suc = gram(AccelSpec::extensor_op(), &x, [4, 4, 4]).expect("suc");
        assert!(
            drt.arithmetic_intensity() >= suc.arithmetic_intensity() * 0.9,
            "DRT AI {:.4} vs S-U-C AI {:.4}",
            drt.arithmetic_intensity(),
            suc.arithmetic_intensity()
        );
    }

    #[test]
    fn gram_output_attached_for_validation() {
        let x = skewed_tensor(12, 12, 12, 200, 4);
        let reference = drt_kernels::gram::gram(&x).g;
        for spec in [AccelSpec::extensor_op_drt(), AccelSpec::extensor_op(), AccelSpec::cpu_mkl()] {
            let r = gram(spec, &x, [4, 4, 4]).expect("run");
            assert!(r.output.as_ref().expect("out").approx_eq(&reference, 1e-9), "{}", r.name);
        }
    }

    /// Hostile Gram inputs return `BadConfig` on every model instead of
    /// panicking: a non-3-D tensor everywhere, and a micro shape whose
    /// S-U-C multiples overflow `u32` on the static model.
    #[test]
    fn hostile_inputs_are_typed_errors() {
        let x = skewed_tensor(12, 12, 12, 200, 5);
        let flat = CsfTensor::from_points(vec![4, 4], &[(&[1, 2][..], 1.0), (&[3, 0][..], 2.0)])
            .expect("2-D tensor");
        let huge = [1 << 30; 3];
        for spec in [AccelSpec::cpu_mkl(), AccelSpec::extensor_op(), AccelSpec::extensor_op_drt()] {
            let name = spec.name.clone();
            let err = gram(spec.clone(), &flat, [4, 4, 4]).expect_err("2-D input");
            assert!(matches!(err, DrtError::Core(CoreError::BadConfig { .. })), "{name}: {err}");
            match gram(spec, &x, huge) {
                Ok(r) => assert_ne!(name, "extensor-op", "{}", r.name),
                Err(err) => assert!(
                    matches!(err, DrtError::Core(CoreError::BadConfig { .. })),
                    "{name}: {err}"
                ),
            }
        }
    }
}
