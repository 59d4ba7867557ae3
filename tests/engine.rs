//! Integration tests of the unified prediction engine: all three backends
//! serve the same request shape, the simulator backend reproduces the
//! pre-engine ranking function exactly, and repeated requests hit the
//! frontend cache.

use paragraph::advisor::{KernelInstance, LaunchConfig, Variant};
use paragraph::compoff;
use paragraph::compoff::CompoffBackend;
use paragraph::dataset::{collect_platform, DatasetScale, PipelineConfig};
use paragraph::engine::{AdviseRequest, Engine, SimulatorBackend};
use paragraph::gnn::GnnBackend;
use paragraph::gnn::{TrainConfig, TrainedModel};
use paragraph::kernels::find_kernel;
use paragraph::perfsim::Platform;

const PLATFORM: Platform = Platform::SummitV100;
const LAUNCH: LaunchConfig = LaunchConfig {
    teams: 80,
    threads: 128,
};

fn fast_dataset() -> paragraph::dataset::PlatformDataset {
    collect_platform(
        PLATFORM,
        &PipelineConfig {
            scale: DatasetScale::Fast,
            seed: 17,
            noise_sigma: 0.03,
        },
    )
}

/// All three backends rank the same kernel through the same request shape
/// without panicking, and produce positive, finite, sorted predictions.
#[test]
fn all_three_backends_rank_the_same_kernel() {
    let dataset = fast_dataset();
    let (bundle, _) = TrainedModel::fit(&dataset, &TrainConfig::fast()).unwrap();
    let compoff_model = compoff::train_model(&dataset, &compoff::CompoffConfig::fast());

    let engines = [
        Engine::builder()
            .platform(PLATFORM)
            .backend(SimulatorBackend::noise_free())
            .build(),
        Engine::builder()
            .platform(PLATFORM)
            .backend(GnnBackend::new(bundle, PLATFORM))
            .build(),
        Engine::builder()
            .platform(PLATFORM)
            .backend(CompoffBackend::new(compoff_model))
            .build(),
    ];

    let request = AdviseRequest::catalog("MM/matmul").with_launch(LAUNCH);
    let mut backends_seen = Vec::new();
    for engine in &engines {
        let report = engine.advise(&request).unwrap();
        backends_seen.push(report.backend.clone());
        assert_eq!(
            report.rankings.len(),
            4,
            "{}: four GPU variants expected",
            report.backend
        );
        assert!(
            report.failures.is_empty(),
            "{}: no failures expected",
            report.backend
        );
        assert!(
            report
                .rankings
                .iter()
                .all(|r| r.predicted_ms.is_finite() && r.predicted_ms >= 0.0),
            "{}: predictions must be finite and non-negative",
            report.backend
        );
        assert!(
            report
                .rankings
                .windows(2)
                .all(|w| w[0].predicted_ms <= w[1].predicted_ms),
            "{}: rankings must be sorted fastest-first",
            report.backend
        );
        assert!(report.rankings.iter().all(|r| r.variant.unwrap().is_gpu()));
    }
    assert_eq!(backends_seen, vec!["simulator", "gnn", "compoff"]);
}

/// The noise-free simulator backend reproduces the pre-engine ranking
/// function exactly — same variants, same order, same floating-point
/// runtimes.
#[test]
fn simulator_backend_matches_legacy_ranking_exactly() {
    let engine = Engine::builder()
        .platform(PLATFORM)
        .backend(SimulatorBackend::noise_free())
        .build();
    for kernel_name in ["MM/matmul", "MV/matvec", "Laplace/copy"] {
        let kernel = find_kernel(kernel_name).unwrap();
        let sizes = kernel.default_sizes();

        // The legacy implementation, reproduced inline from the pre-engine
        // umbrella crate (this is the byte-for-byte behaviour contract).
        let noise = paragraph::perfsim::NoiseModel::disabled();
        let mut legacy: Vec<(Variant, f64)> = Variant::applicable_variants(&kernel)
            .into_iter()
            .filter(|v| v.is_gpu() == PLATFORM.is_gpu())
            .filter_map(|variant| {
                let instance = paragraph::advisor::instantiate(&kernel, variant, &sizes, LAUNCH);
                paragraph::perfsim::measure(&instance, PLATFORM, &noise)
                    .ok()
                    .map(|m| (variant, m.runtime_ms))
            })
            .collect();
        legacy.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));

        let report = engine
            .advise(&AdviseRequest::catalog(kernel_name).with_launch(LAUNCH))
            .unwrap();
        assert!(report.failures.is_empty());
        let advised: Vec<(Variant, f64)> = report
            .rankings
            .iter()
            .map(|r| (r.variant.unwrap(), r.predicted_ms))
            .collect();
        assert_eq!(
            legacy, advised,
            "{kernel_name}: the engine must reproduce the legacy ranking bit-for-bit"
        );
    }
}

/// A second identical request is served from the graph/AST cache: no
/// frontend misses, only hits, and identical rankings.
#[test]
fn second_identical_request_hits_the_graph_cache() {
    let engine = Engine::builder()
        .platform(PLATFORM)
        .cache_capacity(64)
        .build();
    let request = AdviseRequest::catalog("MM/matmul").with_launch(LAUNCH);

    let cold = engine.advise(&request).unwrap();
    assert!(
        cold.cache.misses > 0,
        "cold request must populate the cache"
    );

    let warm = engine.advise(&request).unwrap();
    assert_eq!(
        warm.cache.misses, 0,
        "warm request must not re-run the frontend"
    );
    assert!(
        warm.cache.hits > 0,
        "warm request must be served from the cache"
    );
    assert_eq!(
        cold.rankings, warm.rankings,
        "caching must not change results"
    );

    // The engine-lifetime counters add up across both requests.
    let counters = engine.cache_counters();
    assert_eq!(counters.hits, cold.cache.hits + warm.cache.hits);
    assert_eq!(counters.misses, cold.cache.misses);
}

/// The GNN backend also benefits from the graph cache, and its warm-path
/// predictions are identical to the cold path.
#[test]
fn gnn_backend_uses_the_cache_and_stays_deterministic() {
    let dataset = fast_dataset();
    let (bundle, _) = TrainedModel::fit(&dataset, &TrainConfig::fast()).unwrap();
    let engine = Engine::builder()
        .platform(PLATFORM)
        .backend(GnnBackend::new(bundle, PLATFORM))
        .build();
    let request = AdviseRequest::catalog("MV/matvec").with_launch(LAUNCH);

    let cold = engine.advise(&request).unwrap();
    let warm = engine.advise(&request).unwrap();
    assert!(cold.cache.misses > 0);
    assert_eq!(warm.cache.misses, 0);
    assert_eq!(cold.rankings, warm.rankings);
}

/// Backends refuse platforms they cannot speak for: a GNN bundle trained on
/// one platform rejects requests for another, and COMPOFF (GPU-only, as in
/// the paper) rejects CPU platforms — instead of extrapolating silently
/// wrong numbers.
#[test]
fn mismatched_backend_platform_is_refused() {
    let dataset = fast_dataset();
    let (bundle, _) = TrainedModel::fit(&dataset, &TrainConfig::fast()).unwrap();
    let gnn_on_cpu = Engine::builder()
        .platform(Platform::SummitPower9)
        .backend(GnnBackend::new(bundle, PLATFORM)) // trained on the V100
        .build();
    let request = AdviseRequest::catalog("MM/matmul").with_launch(LaunchConfig {
        teams: 1,
        threads: 16,
    });
    let err = gnn_on_cpu.advise(&request).unwrap_err();
    assert!(
        err.to_string().contains("trained on"),
        "expected a BackendUnavailable failure, got: {err}"
    );

    let compoff_model = compoff::train_model(&dataset, &compoff::CompoffConfig::fast());
    let compoff_on_cpu = Engine::builder()
        .platform(Platform::CoronaEpyc7401)
        .backend(CompoffBackend::new(compoff_model))
        .build();
    let err = compoff_on_cpu.advise(&request).unwrap_err();
    assert!(
        err.to_string().contains("GPU offloading only"),
        "expected a BackendUnavailable failure, got: {err}"
    );
}

/// Hand-built candidates rank through `Engine::predict_instances` even
/// when their template is not in the catalogue: nothing is re-resolved by
/// name.
#[test]
fn predict_instances_ranks_custom_templates() {
    let base = find_kernel("MV/matvec").unwrap();
    let custom = paragraph::kernels::KernelTemplate {
        application: "Custom",
        kernel: "not_in_catalog",
        ..base
    };
    let sizes = custom.default_sizes();
    let instances: Vec<KernelInstance> = Variant::applicable_variants(&custom)
        .into_iter()
        .filter(|v| v.is_gpu() == PLATFORM.is_gpu())
        .map(|variant| paragraph::advisor::instantiate(&custom, variant, &sizes, LAUNCH))
        .collect();
    assert!(
        !instances.is_empty(),
        "a custom template must yield candidates"
    );
    let engine = Engine::builder()
        .platform(PLATFORM)
        .backend(SimulatorBackend::noise_free())
        .build();
    let predictions = engine.predict_instances(&instances);
    assert_eq!(predictions.len(), instances.len());
    // The numbers match measuring the custom template directly.
    let noise = paragraph::perfsim::NoiseModel::disabled();
    for (instance, predicted_ms) in instances.iter().zip(predictions) {
        let measured = paragraph::perfsim::measure(instance, PLATFORM, &noise).unwrap();
        assert_eq!(predicted_ms.unwrap(), measured.runtime_ms);
    }
}
