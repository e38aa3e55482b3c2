//! TACO-like CPU baseline for the Gram kernel (paper §6.1.3, Figure 9),
//! what [`crate::pipeline::PipelineSpec::gram`] runs on `cpu-mkl`.
//!
//! The paper passes the Gram Einsum `G_il = χ_ijk · χ_ljk` to the TACO
//! compiler and measures its memory behaviour. TACO's generated loop nest
//! iterates `i` over the first operand's slices and, for each `i`,
//! co-iterates the second operand's full `(l, j, k)` space — so the tensor
//! is effectively re-read once per occupied `i` slice unless it fits in
//! the LLC. Figure 9 reports arithmetic intensity relative to this
//! baseline, which this model computes from the CSF footprint.

use crate::cpu::CpuSpec;
use crate::pipeline::{StageLedger, StageRun};
use crate::report::RunReport;
use drt_tensor::format::SizeModel;
use drt_tensor::CsfTensor;

/// Run the TACO-like Gram baseline on a 3-tensor `x`.
pub(crate) fn run_gram(x: &CsfTensor, spec: &CpuSpec, sm: &SizeModel, name: String) -> RunReport {
    let result = drt_kernels::gram::gram(x);
    let x_bytes = sm.csf_bytes(x) as u64;
    let occupied_slices = x.level_len(0) as u64;
    // First operand streams once. Second operand: one pass per occupied i
    // slice, discounted by LLC hits (most of the LLC is available — the
    // slice stream is small).
    let hit_rate = ((spec.llc_bytes as f64) * 0.9 / x_bytes as f64).min(1.0);
    let repeat_passes = occupied_slices.saturating_sub(1) as f64 * (1.0 - hit_rate);
    let mut ledger = StageLedger::default();
    ledger.read("X", x_bytes);
    ledger.read("Y", x_bytes + (x_bytes as f64 * repeat_passes) as u64);
    ledger.write_back("G", sm.cs_matrix_bytes(&result.g) as u64);
    let mut run = StageRun { maccs: result.maccs, tasks: occupied_slices, ..StageRun::default() };
    run.push("gram", ledger);

    let mem_seconds =
        run.traffic.total() as f64 / (spec.bandwidth_bytes_per_sec * spec.bandwidth_efficiency);
    let cmp_seconds = result.maccs as f64 / spec.peak_maccs_per_sec;
    run.report(name, mem_seconds.max(cmp_seconds), Some(result.g))
}

#[cfg(test)]
mod tests {
    use crate::cpu::CpuSpec;
    use crate::pipeline::{PipelineInput, PipelineSpec};
    use crate::report::RunReport;
    use crate::session::Session;
    use crate::spec::AccelSpec;
    use drt_tensor::format::SizeModel;
    use drt_tensor::CsfTensor;
    use drt_workloads::tensor3::skewed_tensor;

    fn run_gram(x: &CsfTensor, cpu: CpuSpec) -> RunReport {
        Session::new(AccelSpec::cpu_mkl())
            .cpu(cpu)
            .run_pipeline(PipelineInput::Tensor(x), &PipelineSpec::gram())
            .expect("taco gram")
    }

    #[test]
    fn output_matches_reference_gram() {
        let x = skewed_tensor(16, 16, 16, 300, 1);
        let r = run_gram(&x, CpuSpec::default());
        let reference = drt_kernels::gram::gram(&x).g;
        assert!(r.output.as_ref().expect("out").approx_eq(&reference, 1e-9));
        assert_eq!(r.maccs, drt_kernels::gram::gram_maccs(&x));
        assert!(r.phase_partition_violation().is_none());
    }

    #[test]
    fn small_llc_multiplies_y_traffic() {
        let x = skewed_tensor(24, 24, 24, 2000, 2);
        let big = run_gram(&x, CpuSpec::default());
        let tiny = run_gram(&x, CpuSpec { llc_bytes: 256, ..CpuSpec::default() });
        assert!(tiny.traffic.reads_of("Y") > big.traffic.reads_of("Y"));
        assert!(tiny.arithmetic_intensity() < big.arithmetic_intensity());
    }

    #[test]
    fn x_always_read_once() {
        let x = skewed_tensor(12, 12, 12, 200, 3);
        let sm = SizeModel::default();
        let r = run_gram(&x, CpuSpec::default());
        assert_eq!(r.traffic.reads_of("X"), sm.csf_bytes(&x) as u64);
    }
}
