//! In-process, single-threaded replay of a workload's requests that calls
//! each layer's public functions in the engine's order — enumerate, gate,
//! parse, build, predict — and wraps every call in a benchmark span. Like
//! the engine, it parses, builds and assesses only sources it has not seen.

use crate::spans::Recorder;
use paragraph_core::{build, to_relational, RelationalGraph};
use pg_advisor::{instantiate, KernelInstance, LaunchConfig, Variant};
use pg_analyze::LegalityVerdict;
use pg_engine::{AdviseRequest, KernelSpec};
use pg_frontend::{Ast, ParseOptions};
use pg_gnn::TrainedModel;
use std::collections::HashMap;

/// What one legality assessment contributes to a request.
#[derive(Clone, Copy)]
struct Assessment {
    race: bool,
    diagnostics: usize,
}

/// Counts the replay keeps beside its spans.
#[derive(Debug, Default, Clone)]
pub struct ReplayCounts {
    /// Candidates predicted.
    pub candidates: u64,
    /// AST nodes produced by the parses.
    pub ast_nodes: u64,
    /// Sum of edges over every predicted candidate graph.
    pub edges: u64,
    /// Diagnostics of the assessments each request relied on.
    pub diagnostics: u64,
}

/// The replay's memo tables and recorder.
pub struct Replay<'a> {
    bundle: &'a TrainedModel,
    launches: &'a [LaunchConfig],
    asts: HashMap<String, Ast>,
    graphs: HashMap<(String, u64, u64), RelationalGraph>,
    assessed: HashMap<String, Assessment>,
    /// Spans of the recorded requests.
    pub recorder: Recorder,
    /// Counts of the recorded requests.
    pub counts: ReplayCounts,
}

impl<'a> Replay<'a> {
    /// A replay against `bundle` over a GPU platform's launch sweep.
    pub fn new(bundle: &'a TrainedModel, launches: &'a [LaunchConfig], traced: bool) -> Self {
        Self {
            bundle,
            launches,
            asts: HashMap::new(),
            graphs: HashMap::new(),
            assessed: HashMap::new(),
            recorder: Recorder::new(traced),
            counts: ReplayCounts::default(),
        }
    }

    /// The same memo tables with a fresh recorder and counts: a warm-up
    /// replay becomes the recorded one.
    pub fn into_recording(self, traced: bool) -> Self {
        Self {
            recorder: Recorder::new(traced),
            counts: ReplayCounts::default(),
            ..self
        }
    }

    /// Replay one request as request `id`; returns its predictions sorted
    /// ascending (the engine's ranking order).
    pub fn request(&mut self, id: u64, request: &AdviseRequest) -> Vec<f64> {
        let root = self.recorder.open(id, None, "request");
        let mut candidates = self.recorder.wrap(id, Some(root), "advisor.enumerate", || {
            enumerate(request, self.launches)
        });
        let mut keep = vec![true; candidates.len()];
        if let KernelSpec::Source { source, .. } = &request.kernel {
            // The engine validates a raw source before anything else.
            self.ast(id, root, source);
        }
        // One legality probe per variant, at its first launch.
        let per_variant = match request.kernel {
            KernelSpec::Catalog(_) => self.launches.len(),
            KernelSpec::Source { .. } => candidates.len(),
        };
        for (chunk, keep) in candidates
            .chunks(per_variant)
            .zip(keep.chunks_mut(per_variant))
        {
            let assessment = self.assess(id, root, &chunk[0]);
            self.counts.diagnostics += assessment.diagnostics as u64;
            if assessment.race && matches!(request.kernel, KernelSpec::Catalog(_)) {
                keep.fill(false);
            }
        }
        let mut kept = keep.into_iter();
        candidates.retain(|_| kept.next().unwrap_or(false));
        for instance in &candidates {
            self.graph(id, root, instance);
        }
        let items: Vec<(&RelationalGraph, u64, u64)> = candidates
            .iter()
            .map(|c| {
                let key = (c.source.clone(), c.launch.teams, c.launch.threads);
                (&self.graphs[&key], c.launch.teams, c.launch.threads)
            })
            .collect();
        self.counts.candidates += items.len() as u64;
        self.counts.edges += items
            .iter()
            .map(|(g, _, _)| g.edge_count() as u64)
            .sum::<u64>();
        let bundle = self.bundle;
        let predictions = self.recorder.wrap(id, Some(root), "gnn.predict_batch", || {
            bundle.predict_relational_batch(&items)
        });
        self.recorder.close(root);
        let mut out: Vec<f64> = predictions.into_iter().map(f64::from).collect();
        out.sort_by(f64::total_cmp);
        out
    }

    fn ast(&mut self, id: u64, root: usize, source: &str) {
        if self.asts.contains_key(source) {
            return;
        }
        let ast = self.recorder.wrap(id, Some(root), "frontend.parse", || {
            pg_frontend::parse_with_options(source, ParseOptions::default())
                .expect("generated and catalogue sources parse")
        });
        self.counts.ast_nodes += ast.len() as u64;
        self.asts.insert(source.to_string(), ast);
    }

    fn assess(&mut self, id: u64, root: usize, probe: &KernelInstance) -> Assessment {
        let key = format!(
            "{}/{}\u{0}{}",
            probe.application, probe.kernel, probe.source
        );
        if let Some(found) = self.assessed.get(&key) {
            return *found;
        }
        let report = self.recorder.wrap(id, Some(root), "analyze.assess", || {
            pg_advisor::assess_instance(probe)
        });
        let assessment = Assessment {
            race: matches!(report.verdict, LegalityVerdict::Race(_)),
            diagnostics: report.diagnostics.len(),
        };
        self.assessed.insert(key, assessment);
        assessment
    }

    fn graph(&mut self, id: u64, root: usize, instance: &KernelInstance) {
        let key = (
            instance.source.clone(),
            instance.launch.teams,
            instance.launch.threads,
        );
        if self.graphs.contains_key(&key) {
            return;
        }
        self.ast(id, root, &instance.source);
        let ast = &self.asts[&instance.source];
        let config = self
            .bundle
            .builder_config(instance.launch.teams, instance.launch.threads);
        let graph = self.recorder.wrap(id, Some(root), "core.build", || {
            to_relational(&build(ast, &config))
        });
        self.graphs.insert(key, graph);
    }
}

/// The candidate instances of a request, variant-major, before the gate.
fn enumerate(request: &AdviseRequest, launches: &[LaunchConfig]) -> Vec<KernelInstance> {
    match &request.kernel {
        KernelSpec::Catalog(name) => {
            let kernel = pg_kernels::find_kernel(name).expect("catalogue kernel");
            let sizes = kernel.default_sizes();
            Variant::applicable_variants(&kernel)
                .into_iter()
                .filter(|v| v.is_gpu())
                .flat_map(|variant| {
                    launches
                        .iter()
                        .map(|&launch| instantiate(&kernel, variant, &sizes, launch))
                        .collect::<Vec<_>>()
                })
                .collect()
        }
        KernelSpec::Source { name, source } => {
            let (application, kernel) = name.split_once('/').unwrap_or((name, name));
            launches
                .iter()
                .map(|&launch| KernelInstance {
                    application: application.to_string(),
                    kernel: kernel.to_string(),
                    variant: Variant::Gpu,
                    sizes: Default::default(),
                    launch,
                    source: source.clone(),
                    bytes_to_device: 0,
                    bytes_from_device: 0,
                })
                .collect()
        }
    }
}
