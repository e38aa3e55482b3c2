//! # drt-accel — accelerator and baseline models
//!
//! Every machine the paper evaluates (§5.2), modelled at the paper's own
//! fidelity (bandwidth/queuing, §5.2.1) on top of `drt-sim`. SpMSpM runs
//! have one public door: build a [`session::Session`] around a
//! registered [`spec::AccelSpec`] (or a name, via
//! [`session::Session::from_registry`]) and call `run_spmspm`; every
//! other workload kind goes through the same session as a
//! [`workload::Workload`].
//!
//! * [`spec`] — declarative accelerator specs ([`spec::AccelSpec`]), the
//!   §5.2.4 partition presets, and the name → variant [`spec::Registry`]
//!   of all fourteen machines: ExTensor, ExTensor-OP and ExTensor-OP-DRT
//!   (a.k.a. TACTile); OuterSPACE and MatRaptor untiled, S-U-C and DRT
//!   (Study 2); the GAMMA-like and SpArch-like extensions; the MKL-like
//!   CPU roofline; and Study 3's software S-U-C / DRT. The per-machine
//!   closed-form models behind the registry are crate-private.
//! * [`session`] — the unified run API ([`session::Session`]): the one
//!   entry point fronting the engine and every registered variant.
//! * [`workload`] — the unified typed request API: one
//!   [`workload::Workload`] enum covering every session entry point,
//!   wrapped in [`workload::Request`] / [`workload::Response`] pairs that
//!   standalone sessions and the `drt-serve` pool execute identically.
//! * [`engine`] — the shared SpMSpM simulation engine: task streams from
//!   `drt-core`, stationarity-aware input reuse, an LRU output-tile cache
//!   for partial-sum spilling, intersection/PE cycle models, and functional
//!   output collection for validation. Supports sharded parallel execution
//!   with a deterministic reduction — reports and traces are bit-identical
//!   across thread counts.
//! * [`cpu`] — the CPU parameters ([`cpu::CpuSpec`]: 30 MB LLC,
//!   68.25 GB/s) of the MKL-like baseline every speedup figure
//!   normalizes to.
//! * [`pipeline`] — multi-stage fused pipelines over one co-tiling
//!   ([`pipeline::PipelineSpec`]): MTTKRP, TTV and Gram over CSF, fused
//!   SDDMM→SpMM, and A·B·C chains, with tile-resident inter-stage
//!   intermediates and per-stage phase breakdowns. Gram also runs on
//!   `cpu-mkl` as the TACO-like Figure 9 baseline; its models are
//!   crate-private.
//! * [`incremental`] — incremental re-execution across operand deltas:
//!   a cross-run plan cache plus content-addressed per-task result
//!   splicing, bit-identical to from-scratch runs.
//! * [`hier2`] — two-level (DRAM → LLB → PE) traffic analysis composing
//!   hierarchical DRT streams with the NoC model (§4.3).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cpu;
pub mod engine;
pub mod error;
pub(crate) mod gamma;
pub(crate) mod gram;
pub mod hier2;
pub mod incremental;
pub(crate) mod matraptor;
pub(crate) mod outerspace;
pub mod pipeline;
pub mod report;
pub mod session;
pub(crate) mod sparch;
pub mod spec;
pub(crate) mod taco;
pub mod workload;
pub mod zcache;
