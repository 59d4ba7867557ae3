//! Golden-equivalence tests for the batched execution path: the disjoint
//! union encoding, the reused tape and the blocked matmul kernel are only
//! admissible if the numbers they produce match the per-sample path. Every
//! comparison here runs on a fixed seed; 1e-5 is the pinned tolerance from
//! the execution-path contract (rows of batched matrices are computed by
//! the same kernels as per-sample rows, so the only drift is float
//! re-association across samples in the loss and gradient reductions).

use pg_dataset::{collect_platform, DatasetScale, PipelineConfig, PlatformDataset};
use pg_gnn::{
    evaluate, prepare, reference, train_prepared, BatchedGraph, GnnBackend, ModelConfig,
    ParaGraphModel, PreparedDataset, PreparedGraph, TrainConfig, TrainedModel,
};
use pg_perfsim::Platform;
use pg_tensor::{Matrix, Tape};

const TOLERANCE: f32 = 1e-5;

fn tiny_dataset() -> PlatformDataset {
    collect_platform(
        Platform::SummitV100,
        &PipelineConfig {
            scale: DatasetScale::Fast,
            seed: 3,
            noise_sigma: 0.02,
        },
    )
}

/// Predict every sample through chunked disjoint unions on one reused tape
/// and compare against the per-sample reference (one fresh tape per sample,
/// concat-based attention — the pre-batching execution path).
fn assert_batched_predictions_match_reference(model: &ParaGraphModel, seed: u64, chunk: usize) {
    let ds = tiny_dataset();
    let prepared = prepare(&ds, paragraph_core::Representation::ParaGraph, seed);
    let reference: Vec<f32> = prepared
        .samples
        .iter()
        .map(|s| reference::predict_graph(model, &s.graph, s.side))
        .collect();

    let mut tape = Tape::new();
    let mut batched = Vec::with_capacity(prepared.samples.len());
    for members in prepared.prepared.chunks(chunk) {
        let offset = batched.len();
        let items: Vec<(&PreparedGraph, [f32; 2])> = members
            .iter()
            .enumerate()
            .map(|(i, graph)| (graph, prepared.samples[offset + i].side))
            .collect();
        let batch = BatchedGraph::build(&items);
        batched.extend(model.predict_batched(&mut tape, &batch));
    }

    assert_eq!(reference.len(), batched.len());
    for (i, (r, b)) in reference.iter().zip(batched.iter()).enumerate() {
        assert!(
            (r - b).abs() <= TOLERANCE,
            "chunk {chunk}, sample {i}: per-sample {r} vs batched {b}"
        );
    }
}

/// One forward/backward over the disjoint union of `batch_indices` on
/// `tape` (reset first) must reproduce the mean of the per-sample reference
/// losses and gradients, averaged by hand the way the pre-batching training
/// loop did.
fn assert_batched_gradients_match_reference(
    model: &ParaGraphModel,
    prepared: &PreparedDataset,
    tape: &mut Tape,
    batch_indices: &[usize],
) {
    assert!(batch_indices.len() >= 4, "need a real batch to compare");
    let mut mean_loss = 0.0f32;
    let mut mean_grads: Vec<Matrix> = model
        .parameters()
        .iter()
        .map(|p| Matrix::zeros(p.rows(), p.cols()))
        .collect();
    for &i in batch_indices {
        let (loss, grads) = reference::loss_and_gradients(model, &prepared.samples[i]);
        mean_loss += loss;
        for (acc, g) in mean_grads.iter_mut().zip(grads.iter()) {
            acc.add_assign(g);
        }
    }
    let scale = 1.0 / batch_indices.len() as f32;
    mean_loss *= scale;
    for g in &mut mean_grads {
        *g = g.scale(scale);
    }

    let items: Vec<(&PreparedGraph, [f32; 2])> = batch_indices
        .iter()
        .map(|&i| (&prepared.prepared[i], prepared.samples[i].side))
        .collect();
    let targets: Vec<f32> = batch_indices
        .iter()
        .map(|&i| prepared.samples[i].target)
        .collect();
    let batch = BatchedGraph::build(&items);
    tape.reset();
    let (_, loss, param_vars) = model.forward_batched(tape, &batch, Some(&targets));
    let loss = loss.unwrap();
    tape.backward(loss);

    assert!(
        (tape.value(loss).get(0, 0) - mean_loss).abs() <= TOLERANCE,
        "batch-mean loss {} vs mean of per-sample losses {mean_loss}",
        tape.value(loss).get(0, 0)
    );
    for (key, (reference, var)) in mean_grads.iter().zip(param_vars.iter()).enumerate() {
        let batched = tape.grad(*var);
        let diff = reference.max_abs_diff(&batched);
        assert!(
            diff <= TOLERANCE,
            "gradient {key} diverged by {diff} (per-sample mean vs batched)"
        );
    }
}

#[test]
fn batched_predictions_match_per_sample_within_tolerance() {
    assert_batched_predictions_match_reference(&ParaGraphModel::new(ModelConfig::tiny(), 7), 7, 17);
}

#[test]
fn batched_gradients_match_mean_of_per_sample_gradients() {
    let prepared = prepare(
        &tiny_dataset(),
        paragraph_core::Representation::ParaGraph,
        11,
    );
    let model = ParaGraphModel::new(ModelConfig::tiny(), 11);
    let batch: Vec<usize> = prepared.train_idx.iter().copied().take(12).collect();
    assert_batched_gradients_match_reference(&model, &prepared, &mut Tape::new(), &batch);
}

#[test]
fn batched_gradients_on_a_reused_tape_match_per_sample_gradients() {
    // One tape across batches of different sizes, as the training loop
    // holds it: every backward must start from clean gradient buffers, never
    // the previous batch's retained slots.
    let prepared = prepare(
        &tiny_dataset(),
        paragraph_core::Representation::ParaGraph,
        19,
    );
    let model = ParaGraphModel::new(ModelConfig::tiny(), 11);
    let order = &prepared.train_idx;
    assert!(order.len() >= 20, "need two distinct batches");
    let mut tape = Tape::new();
    for window in [&order[..12], &order[12..20], &order[..12]] {
        assert_batched_gradients_match_reference(&model, &prepared, &mut tape, window);
    }
}

#[test]
fn default_config_predictions_match_per_sample_at_every_batch_size() {
    // The served configuration (three layers, hidden 24) through a batch of
    // one (the shared-index `BatchedGraph::single` path), an odd chunk and
    // the whole dataset as one disjoint union.
    let model = ParaGraphModel::new(ModelConfig::default(), 13);
    for chunk in [1, 9, usize::MAX] {
        assert_batched_predictions_match_reference(&model, 13, chunk);
    }
}

#[test]
fn batched_and_per_sample_evaluation_agree() {
    let ds = tiny_dataset();
    let prepared = prepare(&ds, paragraph_core::Representation::ParaGraph, 5);
    let model = ParaGraphModel::new(ModelConfig::tiny(), 5);
    let batched = evaluate(&model, &prepared, &prepared.val_idx);
    let reference = reference::evaluate(&model, &prepared, &prepared.val_idx);
    assert_eq!(batched.len(), reference.len());
    for (b, r) in batched.iter().zip(reference.iter()) {
        assert_eq!(b.id, r.id);
        let scale = r.predicted_ms.abs().max(1.0);
        assert!(
            (b.predicted_ms - r.predicted_ms).abs() <= TOLERANCE * scale,
            "id {}: batched {} vs per-sample {}",
            b.id,
            b.predicted_ms,
            r.predicted_ms
        );
    }
}

#[test]
fn trained_bundles_score_identically_on_the_validation_split() {
    // Training through the batched path must produce a model that scores the
    // validation split like one trained through the per-sample path. Both
    // run the same seed, shuffle order and update rule; only float
    // re-association in the gradient reductions differs, so the tolerance is
    // wider than the single-step pin but still tight in relative terms.
    let ds = tiny_dataset();
    let config = TrainConfig {
        epochs: 4,
        ..TrainConfig::fast()
    };
    let prepared = prepare(&ds, config.representation, config.seed);
    let batched = train_prepared(&prepared, &config).unwrap();
    let reference = reference::train_prepared(&prepared, &config).unwrap();

    assert_eq!(batched.validation.len(), reference.validation.len());
    for (b, r) in batched.validation.iter().zip(reference.validation.iter()) {
        assert_eq!(b.id, r.id);
        let scale = r.predicted_ms.abs().max(1.0);
        assert!(
            (b.predicted_ms - r.predicted_ms).abs() <= 1e-2 * scale,
            "id {}: batched-trained {} vs per-sample-trained {}",
            b.id,
            b.predicted_ms,
            r.predicted_ms
        );
    }
    let rel = (batched.rmse_ms - reference.rmse_ms).abs() / reference.rmse_ms.max(1e-6);
    assert!(
        rel <= 1e-2,
        "validation RMSE diverged: batched {} vs per-sample {}",
        batched.rmse_ms,
        reference.rmse_ms
    );
}

#[test]
fn engine_gnn_backend_batch_matches_per_instance_predictions() {
    use pg_engine::{AdviseRequest, Engine};

    let ds = tiny_dataset();
    let config = TrainConfig::fast();
    let (bundle, _) = TrainedModel::fit(&ds, &config).unwrap();

    let source = "void saxpy(float *x, float *y) {\n\
                  #pragma omp target teams distribute parallel for\n\
                  for (int i = 0; i < 65536; i++) { y[i] = y[i] + 2.0 * x[i]; }\n}";

    // Batched: the engine's advise path goes through predict_batch.
    let engine = Engine::builder()
        .platform(Platform::SummitV100)
        .backend(GnnBackend::new(bundle.clone(), Platform::SummitV100))
        .build();
    let report = engine
        .advise(&AdviseRequest::source("mine/saxpy", source))
        .unwrap();
    assert!(report.failures.is_empty());
    assert!(report.rankings.len() > 1, "sweep should produce candidates");

    // Per-instance reference: the bundle's single-graph path per candidate.
    for ranked in &report.rankings {
        let graph = paragraph_core::to_relational(&paragraph_core::build(
            &pg_frontend::parse(source).unwrap(),
            &bundle.builder_config(ranked.launch.teams, ranked.launch.threads),
        ));
        let reference =
            bundle.predict_relational(&graph, ranked.launch.teams, ranked.launch.threads);
        let scale = reference.abs().max(1.0);
        assert!(
            (ranked.predicted_ms as f32 - reference).abs() <= TOLERANCE * scale,
            "launch {:?}: batched {} vs per-instance {}",
            ranked.launch,
            ranked.predicted_ms,
            reference
        );
    }
}

#[test]
fn batch_with_failing_candidate_reports_in_place() {
    use pg_advisor::{KernelInstance, LaunchConfig, Variant};
    use pg_engine::Engine;

    let ds = tiny_dataset();
    let (bundle, _) = TrainedModel::fit(&ds, &TrainConfig::fast()).unwrap();
    let engine = Engine::builder()
        .platform(Platform::SummitV100)
        .backend(GnnBackend::new(bundle, Platform::SummitV100))
        .build();

    let instance = |source: &str| KernelInstance {
        application: "T".into(),
        kernel: "t".into(),
        variant: Variant::Gpu,
        sizes: Default::default(),
        launch: LaunchConfig {
            teams: 80,
            threads: 128,
        },
        source: source.to_string(),
        bytes_to_device: 0,
        bytes_from_device: 0,
    };
    let good = "void f(float *a) { for (int i = 0; i < 64; i++) { a[i] = 2.0 * a[i]; } }";
    let results =
        engine.predict_instances(&[instance(good), instance("not C at all"), instance(good)]);
    assert_eq!(results.len(), 3);
    assert!(results[0].is_ok());
    assert!(results[1].is_err());
    assert!(results[2].is_ok());
    // The two identical good candidates must agree exactly.
    assert_eq!(results[0].as_ref().unwrap(), results[2].as_ref().unwrap());
}

#[test]
fn advise_many_coalescing_is_bit_identical_to_advise_for_the_default_config() {
    // Serving coalesces concurrent requests into one disjoint union, so a
    // candidate's matmul rows sit in products of very different heights
    // depending on what else is in the batch. The served default
    // configuration (three layers, hidden 24) must still rank every
    // request bit-identically to answering it alone.
    use pg_engine::{AdviseRequest, Engine};

    let config = TrainConfig {
        model: ModelConfig::default(),
        ..TrainConfig::fast()
    };
    let (bundle, _) = TrainedModel::fit(&tiny_dataset(), &config).unwrap();
    let engine = Engine::builder()
        .platform(Platform::SummitV100)
        .backend(GnnBackend::new(bundle, Platform::SummitV100))
        .cache_capacity(1024)
        .build();
    let requests: Vec<AdviseRequest> = pg_kernels::all_kernels()
        .iter()
        .map(|kernel| AdviseRequest::catalog(kernel.full_name()))
        .collect();
    let alone: Vec<_> = requests
        .iter()
        .map(|request| engine.advise(request).unwrap().rankings)
        .collect();

    let mut differing = Vec::new();
    for (i, first) in requests.iter().enumerate() {
        for (j, second) in requests.iter().enumerate() {
            if i == j {
                continue;
            }
            let coalesced = engine.advise_many(&[first.clone(), second.clone()]);
            let exact = [i, j]
                .into_iter()
                .zip(coalesced)
                .all(|(k, report)| report.unwrap().rankings == alone[k]);
            if !exact {
                differing.push((i, j));
            }
        }
    }
    assert!(
        differing.is_empty(),
        "{} of {} coalesced pairs ranked differently from advise: {:?}",
        differing.len(),
        requests.len() * (requests.len() - 1),
        &differing[..differing.len().min(8)]
    );
}
