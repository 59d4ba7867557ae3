//! # paragraph
//!
//! Umbrella crate of the ParaGraph reproduction. It re-exports the public API
//! of the workspace crates so downstream users can depend on a single crate:
//!
//! * [`engine`] — the unified serving facade: one trait-based prediction API
//!   (`Engine` / `RuntimePredictor`) over the simulator, GNN and COMPOFF
//!   backends, with a memoized frontend,
//! * [`frontend`] — C-subset + OpenMP parser producing Clang-style ASTs,
//! * [`core`] — the ParaGraph weighted graph representation itself,
//! * [`kernels`] — the Table I benchmark applications as source templates,
//! * [`advisor`] — kernel variant generation (cpu / gpu / collapse / mem),
//! * [`analyze`] — static loop-dependence / data-race analysis that gates
//!   every variant the advisor proposes (diagnostics + legality verdicts),
//! * [`perfsim`] — the analytical accelerator simulator used as the runtime
//!   "measurement" step,
//! * [`dataset`] — the end-to-end labelled-dataset pipeline,
//! * [`gnn`] — the RGAT runtime-prediction model and training loop,
//! * [`compoff`] — the COMPOFF baseline cost model,
//! * [`tensor`] — the dense matrix / autodiff / optimiser substrate,
//! * [`tune`] — budgeted search over the variant × launch space with the
//!   engine as cost model (exhaustive / beam / hillclimb),
//! * [`serve`] — the HTTP tier exposing `/advise` and `/tune`.
//!
//! See `examples/quickstart.rs` for a five-minute tour,
//! `examples/engine_advise.rs` for the engine API, and `DESIGN.md` for the
//! full system inventory and the request-path diagram.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// The unified prediction engine (`Engine`, `RuntimePredictor`, backends).
pub use pg_engine as engine;

/// The ParaGraph representation (the paper's primary contribution).
pub use paragraph_core as core;

/// Compiler frontend: lexer, parser, AST, symbol resolution, loop analysis.
pub use pg_frontend as frontend;

/// Benchmark kernel catalogue (Table I).
pub use pg_kernels as kernels;

/// OpenMP Advisor substitute: variant generation and pragma rewriting.
pub use pg_advisor as advisor;

/// Static loop-dependence and data-race analysis gating proposed variants.
pub use pg_analyze as analyze;

/// Accelerator performance simulator (Summit/Corona substitute).
pub use pg_perfsim as perfsim;

/// Dataset pipeline: variants → graphs → simulated runtimes.
pub use pg_dataset as dataset;

/// RGAT runtime-prediction model, training loop, metrics.
pub use pg_gnn as gnn;

/// COMPOFF baseline cost model.
pub use pg_compoff as compoff;

/// Observability core: request tracing, stage-latency histograms,
/// structured logging (`/debug/traces`, `paragraph_stage_duration_seconds`).
pub use pg_obs as obs;

/// HTTP serving tier: micro-batching, admission control, model hot-loading.
pub use pg_serve as serve;

/// Budgeted variant-space search over the engine (exhaustive / beam /
/// hillclimb strategies, deterministic seeds, batched frontier evaluation).
pub use pg_tune as tune;

/// Dense matrices, reverse-mode autodiff, Adam, scalers, metrics.
pub use pg_tensor as tensor;

#[cfg(test)]
mod tests {
    use super::*;
    use engine::{AdviseRequest, Engine, SimulatorBackend};

    /// Rank a catalogue kernel at one launch configuration with the
    /// noise-free simulator backend.
    fn rank(
        kernel: &str,
        platform: perfsim::Platform,
        launch: advisor::LaunchConfig,
    ) -> Vec<engine::VariantPrediction> {
        let engine = Engine::builder()
            .platform(platform)
            .backend(SimulatorBackend::noise_free())
            .build();
        let report = engine
            .advise(&AdviseRequest::catalog(kernel).with_launch(launch))
            .unwrap();
        assert!(report.failures.is_empty());
        report.rankings
    }

    #[test]
    fn rank_variants_produces_sorted_gpu_candidates() {
        let ranked = rank(
            "MM/matmul",
            perfsim::Platform::SummitV100,
            advisor::LaunchConfig {
                teams: 80,
                threads: 128,
            },
        );
        assert_eq!(
            ranked.len(),
            4,
            "four GPU variants for a collapsible kernel"
        );
        assert!(ranked
            .windows(2)
            .all(|w| w[0].predicted_ms <= w[1].predicted_ms));
        assert!(ranked.iter().all(|r| r.variant.unwrap().is_gpu()));
    }

    #[test]
    fn rank_variants_cpu_platform_uses_cpu_variants() {
        let ranked = rank(
            "MV/matvec",
            perfsim::Platform::CoronaEpyc7401,
            advisor::LaunchConfig {
                teams: 1,
                threads: 16,
            },
        );
        assert_eq!(
            ranked.len(),
            1,
            "matvec is not collapsible: only the plain cpu variant"
        );
        assert!(!ranked[0].variant.unwrap().is_gpu());
    }
}
