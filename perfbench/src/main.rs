//! The repository benchmark: `/advise` round trips over loopback on warm
//! and raw kernels, a training run, and a per-layer ledger.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload advise_warm --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Every process of the benchmark runs on one CPU (see [`pin_to_one_cpu`]).
//! With `--trace 0` a run starts [`PARTS`] processes of itself, one after
//! another. Each stands the service up the way it ships — collect a
//! dataset, fit the GNN bundle, start a `pg_serve::Server` on loopback with
//! the default `ServeConfig` — times a few fits, and drives a closed-loop
//! keep-alive client for its share of `--seconds`, pausing every
//! [`SLICE_S`] to probe the host's speed (see [`probe`]); the run prints
//! the end-to-end metrics over all parts, in reference-host time. With
//! `--trace 1` one process runs a shorter
//! socket phase for the serving counters and then replays the workload
//! in-process, single-threaded, with a benchmark span around every layer
//! call, and prints the per-layer metrics. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod client;
mod pin;
mod probe;
mod replay;
mod spans;
mod stats;

use pg_advisor::LaunchConfig;
use pg_dataset::{generate_platform, DatasetScale, PipelineConfig, PlatformDataset, ShardStore};
use pg_engine::{AdviseReport, AdviseRequest, Engine, VariantPrediction, DEFAULT_CACHE_CAPACITY};
use pg_frontend::testing::{Generator, Rng};
use pg_gnn::{evaluate, prepare, train_prepared, GnnBackend, TrainConfig, TrainedModel};
use pg_obs::{obs, HistogramSnapshot, Stage};
use pg_perfsim::Platform;
use pg_serve::{MetricsSnapshot, ServeConfig, Server};
use probe::Probe;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// The platform the GNN backend serves.
const PLATFORM: Platform = Platform::SummitV100;
/// Client threads and connections. With two, the pairs of requests the
/// server coalesces settle into a different rhythm in every process, and
/// throughput differs by a third from one process to the next; with one,
/// processes agree within a few percent.
const CLIENTS: usize = 1;
/// Processes per end-to-end run, one after another, each standing the
/// service up and measuring for its share of `--seconds`. On a shared
/// virtual machine throughput and fit speed differ by 5-10% from one
/// process to the next under the same load, more than inside one process;
/// so a run reports medians over processes, and `setup_s` is the median
/// set-up.
const PARTS: u64 = 10;
/// Epochs of the `train` workload's fit (batch 16, default model).
const TRAIN_EPOCHS: usize = 1;
/// Share of a `train` part's seconds spent serving after its refits.
const SERVE_SHARE: f64 = 0.6;
/// Fits each process times after its set-up, each between two probes of
/// the host's speed: one fit is too short to be steady on a shared host.
const FITS: usize = 2;
/// Length of one slice of load. The clients pause after each while the
/// host's speed is probed, so every slice is timed between two probes.
const SLICE_S: f64 = 0.25;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Traffic {
    /// Catalogue kernels whose candidate graphs all fit the frontend cache.
    Warm,
    /// Never-repeated generated sources.
    Raw,
}

#[derive(Clone, Copy, Debug)]
struct Workload {
    name: &'static str,
    traffic: Traffic,
    /// The run first refits the laptop-scale model, then serves.
    retrain: bool,
}

/// The `train` workload's fit: default model at batch 16.
fn laptop(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: TRAIN_EPOCHS,
        seed,
        ..TrainConfig::default()
    }
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "advise_warm",
        traffic: Traffic::Warm,
        retrain: false,
    },
    Workload {
        name: "advise_raw",
        traffic: Traffic::Raw,
        retrain: false,
    },
    Workload {
        name: "train",
        traffic: Traffic::Warm,
        retrain: true,
    },
];

/// Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`,
/// plus `--part <i>` when an end-to-end run starts its `i`-th process.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    part: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = value("--workload")?;
    let workload = *WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} expects a whole number"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace: match number("--trace")? {
            0 => false,
            1 => true,
            _ => return Err("--trace expects 0 or 1".into()),
        },
        part: argv
            .iter()
            .any(|a| a == "--part")
            .then(|| number("--part"))
            .transpose()?,
    })
}

/// Independent stream `stream` of the run seed.
fn derive(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// Seed streams; every input of a run derives from `--seed` through one.
const STREAM_DATASET: u64 = 1;
const STREAM_TRAIN: u64 = 2;
const STREAM_ORDER: u64 = 100;
const STREAM_RAW: u64 = 200;
const STREAM_RAW_WARMUP: u64 = 300;

/// What every request of a run draws from.
struct Inputs {
    seed: u64,
    traffic: Traffic,
    /// Warm traffic: the catalogue kernels served, in catalogue order.
    kernels: Vec<String>,
    /// The platform-default launch sweep.
    launches: Vec<LaunchConfig>,
}

impl Inputs {
    fn new(seed: u64, traffic: Traffic) -> Self {
        let launches = PLATFORM.default_budget().gpu_launches();
        let kernels = match traffic {
            Traffic::Warm => warm_kernels(),
            Traffic::Raw => Vec::new(),
        };
        Self {
            seed,
            traffic,
            kernels,
            launches,
        }
    }

    /// The request stream of connection `conn`: warm traffic cycles the
    /// kernels in a fresh seeded order each pass; raw traffic generates a
    /// new program per request.
    fn stream(&self, conn: u64) -> impl FnMut() -> AdviseRequest + '_ {
        let mut rng = Rng::new(derive(self.seed, STREAM_ORDER + conn));
        let mut generator = Generator::new(derive(self.seed, STREAM_RAW + conn));
        let mut order: Vec<usize> = Vec::new();
        let mut sent = 0u64;
        move || {
            sent += 1;
            match self.traffic {
                Traffic::Warm => {
                    if order.is_empty() {
                        order = (0..self.kernels.len()).collect();
                        for i in (1..order.len()).rev() {
                            order.swap(i, rng.below(i + 1));
                        }
                    }
                    let k = order.pop().expect("refilled above");
                    AdviseRequest::catalog(self.kernels[k].clone())
                }
                Traffic::Raw => raw_request(&mut generator, conn, sent),
            }
        }
    }
}

/// A generated program, made unique by a leading comment.
fn raw_request(generator: &mut Generator, conn: u64, n: u64) -> AdviseRequest {
    let program = generator.program();
    AdviseRequest::source(
        format!("raw/c{conn}r{n}"),
        format!("// request {conn}.{n}\n{program}"),
    )
}

/// Catalogue kernels, in catalogue order, while their candidates together
/// fit the engine's default frontend cache: the whole catalogue's
/// candidate graphs outnumber the cache, and cycling through all of them
/// would evict every entry before its next use.
fn warm_kernels() -> Vec<String> {
    let probe = Engine::builder().platform(PLATFORM).build();
    let mut kernels = Vec::new();
    let mut graphs = 0;
    for kernel in pg_kernels::all_kernels() {
        let name = kernel.full_name();
        let Ok(report) = probe.advise(&AdviseRequest::catalog(name.clone())) else {
            continue;
        };
        graphs += report.candidates();
        if graphs > DEFAULT_CACHE_CAPACITY {
            break;
        }
        kernels.push(name);
    }
    kernels
}

/// Timings of one fit.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Fit {
    /// As measured.
    samples_per_s: f64,
    rmse_ms: f32,
    /// Host speed while it ran (1 where the caller did not probe).
    speed: f64,
}

impl Fit {
    /// Training samples per second of reference-host time.
    fn reference_samples_per_s(&self) -> f64 {
        self.samples_per_s / self.speed
    }
}

/// Layer timings of a traced fit.
#[derive(Debug, Default, Clone, Copy)]
struct TrainLayers {
    collect_ms: f64,
    prepare_ms: f64,
    epoch_ms: f64,
    evaluate_ms: f64,
}

/// The dataset of a scale and pipeline seed.
fn collect(scale: DatasetScale, seed: u64) -> PlatformDataset {
    let pipeline = PipelineConfig {
        scale,
        seed,
        ..PipelineConfig::default()
    };
    generate_platform(PLATFORM, &pipeline, &ShardStore::disabled()).dataset
}

/// Fit a bundle; with `layers`, through `prepare`, `train_prepared` and
/// `evaluate` one by one, timing each.
fn fit(
    dataset: &PlatformDataset,
    config: &TrainConfig,
    layers: Option<&mut TrainLayers>,
) -> (TrainedModel, Fit) {
    let started = Instant::now();
    let (bundle, rmse_ms) = match layers {
        None => {
            let (bundle, outcome) = TrainedModel::fit(dataset, config).expect("training succeeds");
            (bundle, outcome.rmse_ms)
        }
        Some(layers) => {
            let prepared = prepare(dataset, config.representation, config.seed);
            let prepared_at = Instant::now();
            let outcome = train_prepared(&prepared, config).expect("training succeeds");
            let trained_at = Instant::now();
            evaluate(&outcome.model, &prepared, &prepared.val_idx);
            layers.prepare_ms = ms(prepared_at - started);
            layers.epoch_ms = ms(trained_at - prepared_at) / config.epochs as f64;
            layers.evaluate_ms = ms(trained_at.elapsed());
            let bundle = TrainedModel {
                model: outcome.model,
                representation: config.representation,
                target_transform: prepared.target_transform,
                side_scaler: prepared.side_scaler,
            };
            (bundle, outcome.rmse_ms)
        }
    };
    let train_samples = dataset.split(config.seed).0.len();
    let fit = Fit {
        samples_per_s: (config.epochs * train_samples) as f64 / started.elapsed().as_secs_f64(),
        rmse_ms,
        speed: 1.0,
    };
    (bundle, fit)
}

/// The served stack of one set-up.
struct Stack {
    engine: Arc<Engine>,
    server: Server,
    bundle: TrainedModel,
    fit: Fit,
    /// Warm traffic: request body -> reference rankings.
    references: HashMap<String, Vec<VariantPrediction>>,
    /// The served bundle's dataset.
    dataset: PlatformDataset,
    /// The `train` workload's laptop-scale dataset.
    retrain: Option<PlatformDataset>,
    /// Set-up wall time, and the host speed probed around it.
    seconds: f64,
    speed: f64,
}

/// Stand the service up as the `serve` example's `--train-fast` path
/// ships it — the fast dataset and `TrainConfig::fast()` at their default
/// seeds, so every run serves the same bundle — start the server and warm
/// it up. The `train` workload also collects its seeded laptop-scale
/// dataset here. The host's speed is probed before and after.
fn stand_up(
    workload: &Workload,
    inputs: &Inputs,
    mut layers: Option<&mut TrainLayers>,
    probe: &mut Probe,
) -> Stack {
    let speed_before = probe.speed();
    let started = Instant::now();
    let dataset = collect(DatasetScale::Fast, PipelineConfig::default().seed);
    let collected = started.elapsed();
    let serving_layers = layers.as_deref_mut().filter(|_| !workload.retrain);
    let (bundle, fit) = fit(&dataset, &TrainConfig::fast(), serving_layers);
    if let (Some(layers), false) = (layers.as_deref_mut(), workload.retrain) {
        layers.collect_ms = ms(collected);
    }
    let engine = Arc::new(
        Engine::builder()
            .platform(PLATFORM)
            .backend(GnnBackend::new(bundle.clone(), PLATFORM))
            .build(),
    );
    let server = Server::start(Arc::clone(&engine), ServeConfig::default())
        .expect("binding a loopback port");
    let mut references = HashMap::new();
    match inputs.traffic {
        Traffic::Warm => {
            for kernel in &inputs.kernels {
                let request = AdviseRequest::catalog(kernel.clone());
                let report = engine.advise(&request).expect("catalogue advise succeeds");
                let wire: AdviseReport = serde_json::from_str(
                    &serde_json::to_string(&report).expect("reports serialize"),
                )
                .expect("reports round-trip");
                let body = serde_json::to_string(&request).expect("requests serialize");
                references.insert(body, wire.rankings);
            }
        }
        Traffic::Raw => {
            let mut generator = Generator::new(derive(inputs.seed, STREAM_RAW_WARMUP));
            for n in 0..4 {
                let request = raw_request(&mut generator, u64::MAX, n);
                engine.advise(&request).expect("raw advise succeeds");
            }
        }
    }
    let retrain = workload.retrain.then(|| {
        let collecting = Instant::now();
        let dataset = collect(DatasetScale::Default, derive(inputs.seed, STREAM_DATASET));
        if let Some(layers) = layers {
            layers.collect_ms = ms(collecting.elapsed());
        }
        dataset
    });
    let seconds = started.elapsed().as_secs_f64();
    let speed = (speed_before + probe.speed()) / 2.0;
    Stack {
        engine,
        server,
        bundle,
        fit,
        dataset,
        references,
        retrain,
        seconds,
        speed,
    }
}

fn ms(duration: std::time::Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// The oracle a response is checked against.
fn check(
    inputs: &Inputs,
    references: &HashMap<String, Vec<VariantPrediction>>,
    body: &str,
    response: &str,
) -> Result<(), String> {
    let report: AdviseReport =
        serde_json::from_str(response).map_err(|e| format!("unparseable report: {e}"))?;
    match inputs.traffic {
        Traffic::Warm => {
            let reference = references
                .get(body)
                .ok_or_else(|| format!("no reference for {body}"))?;
            if &report.rankings != reference {
                let worst = report
                    .rankings
                    .iter()
                    .zip(reference)
                    .map(|(a, b)| ((a.predicted_ms - b.predicted_ms) / b.predicted_ms).abs())
                    .fold(0.0f64, f64::max);
                let reordered = report
                    .rankings
                    .iter()
                    .zip(reference)
                    .any(|(a, b)| a.variant != b.variant || a.launch != b.launch);
                return Err(format!(
                    "{} rankings differ from the reference (largest relative difference {worst:e}, reordered: {reordered})",
                    report.kernel
                ));
            }
        }
        Traffic::Raw => {
            if report.rankings.len() != inputs.launches.len() || !report.failures.is_empty() {
                return Err(format!(
                    "{}: {} rankings and {} failures for {} launches",
                    report.kernel,
                    report.rankings.len(),
                    report.failures.len(),
                    inputs.launches.len()
                ));
            }
            if let Some(bad) = report
                .rankings
                .iter()
                .find(|r| !r.predicted_ms.is_finite() || r.predicted_ms < 0.0)
            {
                return Err(format!(
                    "{}: prediction {}",
                    report.kernel, bad.predicted_ms
                ));
            }
        }
    }
    Ok(())
}

/// One slice of load and the host speed around it.
struct Slice {
    tally: stats::Tally,
    wall_s: f64,
    /// The mean of the probes before and after the slice.
    speed: f64,
}

/// What a closed loop against the server measured.
struct Load {
    slices: Vec<Slice>,
    /// CPU time of the serving side: the process minus the client threads,
    /// over the slices only.
    server_cpu_s: f64,
    /// Share of every CPU's time the host stole during the load.
    steal_frac: f64,
    cache_misses: u64,
    serve: MetricsSnapshot,
    serve_before: MetricsSnapshot,
    stages_before: Vec<(Stage, HistogramSnapshot)>,
    stages_after: Vec<(Stage, HistogramSnapshot)>,
}

impl Load {
    /// Every request, latencies as measured.
    fn tally(&self) -> stats::Tally {
        let mut tally = stats::Tally::default();
        for slice in &self.slices {
            tally.merge(slice.tally.clone());
        }
        tally
    }

    /// Every request, latencies in reference-host milliseconds.
    fn reference_tally(&self) -> stats::Tally {
        let mut tally = stats::Tally::default();
        for slice in &self.slices {
            tally.merge(slice.tally.scaled(slice.speed));
        }
        tally
    }

    /// Wall seconds under load.
    fn wall_s(&self) -> f64 {
        self.slices.iter().map(|s| s.wall_s).sum()
    }

    /// Reference-host seconds under load.
    fn reference_s(&self) -> f64 {
        self.slices
            .iter()
            .map(|s| probe::reference_seconds(s.wall_s, s.speed))
            .sum()
    }
}

/// Drive `CLIENTS` closed-loop connections for `seconds`, in slices of
/// about [`SLICE_S`] with a host-speed probe between two slices while the
/// clients wait; connection `c` draws request stream `first_conn + c`.
fn drive(stack: &Stack, inputs: &Inputs, seconds: f64, first_conn: u64, probe: &mut Probe) -> Load {
    let addr: SocketAddr = stack.server.addr();
    let slices = ((seconds / SLICE_S).round() as usize).max(1);
    let slice_length = Duration::from_secs_f64(seconds / slices as f64);
    let cache_before = stack.engine.cache_counters();
    let serve_before = stack.server.metrics();
    let stages_before = obs().stage_snapshot();
    let oracle = |body: &str, response: &str| check(inputs, &stack.references, body, response);
    let ticks_before = cpu_ticks();
    // Both ends of a slice: every client and this thread meet here.
    let barrier = Barrier::new(CLIENTS + 1);
    let deadline = Mutex::new(Instant::now());
    let mut walls = Vec::with_capacity(slices);
    let mut speeds = vec![probe.speed()];
    let mut process_cpu = 0.0;
    let clients: Vec<(Vec<stats::Tally>, f64)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (first_conn..first_conn + CLIENTS as u64)
            .map(|conn| {
                let mut stream = inputs.stream(conn);
                let (barrier, deadline, oracle) = (&barrier, &deadline, &oracle);
                scope.spawn(move || {
                    let cpu = cpu_s("/proc/thread-self/stat");
                    let mut client = client::Client::new(addr);
                    let mut tallies = Vec::with_capacity(slices);
                    for _ in 0..slices {
                        barrier.wait();
                        let until = *deadline.lock().expect("deadline lock");
                        let next = || {
                            (Instant::now() < until).then(|| {
                                serde_json::to_string(&stream()).expect("requests serialize")
                            })
                        };
                        tallies.push(client.run(next, oracle));
                        barrier.wait();
                    }
                    (tallies, cpu_s("/proc/thread-self/stat") - cpu)
                })
            })
            .collect();
        for _ in 0..slices {
            let cpu_before = cpu_s("/proc/self/stat");
            let started = Instant::now();
            *deadline.lock().expect("deadline lock") = started + slice_length;
            barrier.wait();
            barrier.wait();
            walls.push(started.elapsed().as_secs_f64());
            process_cpu += cpu_s("/proc/self/stat") - cpu_before;
            speeds.push(probe.speed());
        }
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let ticks_after = cpu_ticks();
    let client_cpu: f64 = clients.iter().map(|(_, cpu)| cpu).sum();
    let slices = (0..slices)
        .map(|i| {
            let mut tally = stats::Tally::default();
            for (tallies, _) in &clients {
                tally.merge(tallies[i].clone());
            }
            Slice {
                tally,
                wall_s: walls[i],
                speed: (speeds[i] + speeds[i + 1]) / 2.0,
            }
        })
        .collect();
    Load {
        slices,
        server_cpu_s: process_cpu - client_cpu,
        steal_frac: (ticks_after.1 - ticks_before.1) as f64
            / (ticks_after.0 - ticks_before.0).max(1) as f64,
        cache_misses: stack.engine.cache_counters().since(cache_before).misses,
        serve: stack.server.metrics(),
        serve_before,
        stages_before,
        stages_after: obs().stage_snapshot(),
    }
}

/// An ordered list of `(name, value, unit)`.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    number(*value)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// A JSON number; non-finite values (a tail that lands on a failed
/// request) become `null`.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// A JSON array of [`number`]s.
fn numbers(values: impl Iterator<Item = f64>) -> String {
    let values: Vec<String> = values.map(number).collect();
    format!("[{}]", values.join(","))
}

fn json_string(text: &str) -> String {
    serde_json::to_string(&text.to_string()).expect("strings serialize")
}

/// Aggregate `(total, steal)` jiffies of every CPU since boot.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (
        fields.iter().take(8).sum(),
        fields.get(7).copied().unwrap_or(0),
    )
}

/// CPU time used by this process (`/proc/self/stat`) or by the calling
/// thread (`/proc/thread-self/stat`), seconds.
fn cpu_s(stat_path: &str) -> f64 {
    let stat = std::fs::read_to_string(stat_path).unwrap_or_default();
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    // utime and stime are fields 14 and 15, in USER_HZ (100 on Linux)
    // ticks; `fields` starts at field 3.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// First line of a command's output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Pin this process to the last CPU it may use, and return it (`None`
/// when the kernel refuses). The server, its parallel kernels (which size
/// themselves to the CPUs the process may use, so they run sequentially),
/// the client and the probe then share one CPU. On the shared two-vCPU
/// virtual machine the benchmark was built on, serving spread over both
/// vCPUs was no faster and swung by a third from one process to the next;
/// on one CPU processes agree within a few percent, and the probe, on the
/// same CPU, sees the host's drift where the load does.
fn pin_to_one_cpu() -> Option<usize> {
    let cpu = *pin::allowed_cpus().last()?;
    pin::pin_current_thread(cpu).then_some(cpu)
}

/// Where and how a result was measured.
/// `nproc` is the number of CPUs the process could use before it pinned
/// itself to one.
fn host_fingerprint(workload: &Workload, nproc: usize) -> String {
    let mut obs_env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("PARAGRAPH_OBS"))
        .map(|(k, v)| format!("{}:{}", json_string(&k), json_string(&v)))
        .collect();
    obs_env.sort();
    format!(
        "{{\"nproc\":{nproc},\"rustc\":{},\"commit\":{},\"obs_enabled\":{},\"obs_env\":{{{}}},\
         \"dataset_scale\":{}}}",
        json_string(&command_line("rustc", &["-V"])),
        json_string(&command_line("git", &["rev-parse", "HEAD"])),
        obs().enabled(),
        obs_env.join(","),
        if workload.retrain {
            "{\"served\":\"Fast\",\"retrained\":\"Default\"}"
        } else {
            "{\"served\":\"Fast\"}"
        }
    )
}

/// A validity check: the workload still exercises what it was chosen for.
#[derive(Default)]
struct Validity(Vec<Check>);

/// One validity check and whether it held.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Check {
    check: String,
    ok: bool,
}

impl Validity {
    fn require(&mut self, check: String, ok: bool) {
        if !ok {
            eprintln!("perfbench: workload invalid: {check}");
        }
        self.0.push(Check { check, ok });
    }

    fn ok(&self) -> bool {
        self.0.iter().all(|c| c.ok)
    }

    fn json(&self) -> String {
        serde_json::to_string(&self.0).expect("checks serialize")
    }
}

/// Misses per request must show the workload's intended cache use.
fn require_cache_use(validity: &mut Validity, inputs: &Inputs, misses_per_request: f64) {
    match inputs.traffic {
        Traffic::Warm => validity.require(
            format!("warm traffic misses the frontend cache {misses_per_request} times a request (want < 0.01)"),
            misses_per_request < 0.01,
        ),
        Traffic::Raw => {
            let least = 1 + inputs.launches.len();
            validity.require(
                format!("raw traffic misses the frontend cache {misses_per_request} times a request (want >= {least})"),
                misses_per_request >= least as f64,
            )
        }
    }
}

/// The outcome of one run before printing.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    validity: Validity,
    record: Vec<(String, String)>,
}

/// What one process of an end-to-end run measured.
#[derive(Debug, Serialize, Deserialize)]
struct Part {
    /// Latencies, reference-host milliseconds.
    latencies_ms: Vec<f64>,
    failed: u64,
    refused: u64,
    /// Successful responses per reference-host second.
    rps: f64,
    /// Mean latency, reference-host milliseconds.
    mean_ms: f64,
    /// Set-up, reference-host seconds.
    setup_s: f64,
    /// The same three as measured, before scaling by the host's speed.
    measured_rps: f64,
    measured_mean_ms: f64,
    measured_setup_s: f64,
    /// Median host speed over the slices of load.
    speed: f64,
    fits: Vec<Fit>,
    peak_rss_mb: f64,
    steal_frac: f64,
    server_cpu_ms_per_request: f64,
    batch_size_mean: f64,
    validity: Vec<Check>,
}

/// One process of an end-to-end run: stand up, refit (`train`), serve.
fn measure_part(args: &Args, inputs: &Inputs, part: u64) -> Part {
    let seconds = args.seconds / PARTS as f64;
    let mut probe = Probe::new();
    let stack = stand_up(&args.workload, inputs, None, &mut probe);
    // The timed fits: `train` refits its laptop-scale model and serves the
    // shipped bundle for the rest of its share; the other workloads fit
    // the served configuration again, outside their share.
    let (dataset, config, serve_seconds) = match &stack.retrain {
        Some(dataset) => (
            dataset,
            laptop(derive(inputs.seed, STREAM_TRAIN)),
            seconds * SERVE_SHARE,
        ),
        None => (&stack.dataset, TrainConfig::fast(), seconds),
    };
    let fits: Vec<Fit> = (0..FITS)
        .map(|_| {
            let speed_before = probe.speed();
            let (_, timed) = fit(dataset, &config, None);
            let speed = (speed_before + probe.speed()) / 2.0;
            Fit { speed, ..timed }
        })
        .collect();
    let load = drive(
        &stack,
        inputs,
        serve_seconds,
        part * CLIENTS as u64,
        &mut probe,
    );
    stack.server.shutdown();
    let measured = load.tally();
    let reference = load.reference_tally();
    let requests = measured.attempted();
    let mut validity = Validity::default();
    require_cache_use(
        &mut validity,
        inputs,
        load.cache_misses as f64 / requests.max(1) as f64,
    );
    let speeds: Vec<f64> = load.slices.iter().map(|s| s.speed).collect();
    Part {
        rps: reference.rate(load.reference_s()),
        mean_ms: reference.latency_mean().unwrap_or(f64::NAN),
        latencies_ms: reference.latencies_ms,
        failed: reference.failed,
        refused: reference.refused,
        setup_s: probe::reference_seconds(stack.seconds, stack.speed),
        measured_rps: measured.rate(load.wall_s()),
        measured_mean_ms: measured.latency_mean().unwrap_or(f64::NAN),
        measured_setup_s: stack.seconds,
        speed: stats::median(&speeds).unwrap_or(f64::NAN),
        fits,
        peak_rss_mb: peak_rss_mb(),
        steal_frac: load.steal_frac,
        server_cpu_ms_per_request: load.server_cpu_s * 1e3 / requests.max(1) as f64,
        batch_size_mean: (load.serve.batched_requests - load.serve_before.batched_requests) as f64
            / (load.serve.batches - load.serve_before.batches).max(1) as f64,
        validity: validity.0,
    }
}

/// Run part `part` in a process of its own and read back what it measured.
fn run_part(args: &Args, part: u64) -> Result<Part, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", args.workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &(args.seconds as u64).to_string()])
        .args(["--trace", "0", "--part", &part.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting part {part}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("part "))
        .filter(|_| output.status.success())
        .ok_or_else(|| format!("part {part} exited with {} and no result", output.status))?;
    serde_json::from_str(line).map_err(|e| format!("part {part}: {e}"))
}

/// Fits whose validation RMSE is not finite or differs from the first:
/// every fit of one run uses one seed, so they must agree bit for bit.
fn reproducibility_failures(fits: &[Fit]) -> u64 {
    fits.iter()
        .filter(|f| !f.rmse_ms.is_finite() || f.rmse_ms.to_bits() != fits[0].rmse_ms.to_bits())
        .count() as u64
}

fn end_to_end(args: &Args) -> Outcome {
    let mut validity = Validity::default();
    let mut tally = stats::Tally::default();
    let mut parts = Vec::new();
    for part in 0..PARTS {
        match run_part(args, part) {
            Ok(measured) => {
                tally.merge(stats::Tally {
                    latencies_ms: measured.latencies_ms.clone(),
                    failed: measured.failed,
                    refused: measured.refused,
                });
                validity.0.extend(measured.validity.iter().cloned());
                parts.push(measured);
            }
            Err(error) => validity.require(error, false),
        }
    }
    let requests = tally.attempted();
    let tail = stats::tail_percentile(requests as usize);
    validity.require(
        format!("{requests} requests support p99 (tail supported: {tail:?})"),
        tail.is_some_and(|p| p >= 99.0),
    );
    let fits: Vec<Fit> = parts.iter().flat_map(|p| p.fits.iter().copied()).collect();
    let fit_failures = reproducibility_failures(&fits);
    let median_of = |value: &dyn Fn(&Part) -> f64| {
        let values: Vec<f64> = parts.iter().map(value).collect();
        stats::median(&values).unwrap_or(f64::NAN)
    };
    let list_of = |value: &dyn Fn(&Part) -> f64| numbers(parts.iter().map(value));

    let mut metrics = Metrics::default();
    metrics.put("advise_rps", median_of(&|p| p.rps), "1/s");
    metrics.put("advise_mean_ms", median_of(&|p| p.mean_ms), "ms");
    let samples_per_s: Vec<f64> = fits.iter().map(Fit::reference_samples_per_s).collect();
    metrics.put(
        "train_samples_per_s",
        stats::median(&samples_per_s).unwrap_or(f64::NAN),
        "1/s",
    );
    metrics.put("setup_s", median_of(&|p| p.setup_s), "s");
    metrics.put("peak_rss_mb", median_of(&|p| p.peak_rss_mb), "MiB");

    let record = vec![
        ("requests_attempted".into(), requests.to_string()),
        ("requests_succeeded".into(), tally.succeeded().to_string()),
        ("requests_failed".into(), tally.failed.to_string()),
        ("requests_refused".into(), tally.refused.to_string()),
        (
            "tail_percentile_supported".into(),
            number(tail.unwrap_or(f64::NAN)),
        ),
        // Reported, not gated. Warm traffic's latencies fall in two
        // clusters (small and large kernels) with the median between them,
        // so it jumps from one to the other from run to run; the tail's
        // spread over ten runs leaves too little room under any bound.
        (
            "advise_p50_ms".into(),
            number(tally.latency_percentile(50.0).unwrap_or(f64::NAN)),
        ),
        (
            "advise_p99_ms".into(),
            number(tally.latency_percentile(99.0).unwrap_or(f64::NAN)),
        ),
        ("fits".into(), fits.len().to_string()),
        (
            "fit_val_rmse_ms".into(),
            number(fits.first().map_or(f64::NAN, |f| f64::from(f.rmse_ms))),
        ),
        (
            "fits_measured_samples_per_s".into(),
            numbers(fits.iter().map(|f| f.samples_per_s)),
        ),
        ("fits_speed".into(), numbers(fits.iter().map(|f| f.speed))),
        ("parts_rps".into(), list_of(&|p| p.rps)),
        ("parts_measured_rps".into(), list_of(&|p| p.measured_rps)),
        (
            "parts_measured_mean_ms".into(),
            list_of(&|p| p.measured_mean_ms),
        ),
        ("parts_setup_s".into(), list_of(&|p| p.setup_s)),
        (
            "parts_measured_setup_s".into(),
            list_of(&|p| p.measured_setup_s),
        ),
        ("parts_speed".into(), list_of(&|p| p.speed)),
        ("parts_cpu_steal_frac".into(), list_of(&|p| p.steal_frac)),
        (
            "parts_server_cpu_ms_per_request".into(),
            list_of(&|p| p.server_cpu_ms_per_request),
        ),
        (
            "parts_batch_size_mean".into(),
            list_of(&|p| p.batch_size_mean),
        ),
    ];
    Outcome {
        metrics,
        // Each part's set-up (with its fit) is one operation, and so is
        // each timed fit.
        attempted: requests + PARTS + fits.len() as u64,
        failed: tally.failed + fit_failures + PARTS - parts.len() as u64,
        validity,
        record,
    }
}

/// p50 of a log2-bucketed histogram delta, interpolated inside its bucket,
/// microseconds.
fn histogram_p50_us(after: &HistogramSnapshot, before: &HistogramSnapshot) -> (f64, u64) {
    let counts: Vec<u64> = after
        .buckets
        .iter()
        .zip(&before.buckets)
        .map(|(a, b)| a - b)
        .collect();
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return (0.0, 0);
    }
    let target = total.div_ceil(2);
    let mut seen = 0;
    for (i, &c) in counts.iter().enumerate() {
        if seen + c >= target {
            let hi = pg_obs::bucket_bound_seconds(i) * 1e6;
            let lo = if i == 0 {
                0.0
            } else {
                pg_obs::bucket_bound_seconds(i - 1) * 1e6
            };
            let hi = if hi.is_finite() { hi } else { lo * 2.0 };
            let within = (target - seen) as f64 / c as f64;
            return (lo + (hi - lo) * within, total);
        }
        seen += c;
    }
    (0.0, total)
}

fn p50_us(durations_ns: &[u64]) -> f64 {
    let values: Vec<f64> = durations_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    stats::median(&values).unwrap_or(0.0)
}

fn traced(args: &Args, inputs: &Inputs) -> Outcome {
    let mut layers = TrainLayers::default();
    let mut probe = Probe::new();
    let stack = stand_up(&args.workload, inputs, Some(&mut layers), &mut probe);
    let mut validity = Validity::default();
    let mut metrics = Metrics::default();

    // Socket phase: serving counters and the pg-obs stage histograms.
    let load = drive(&stack, inputs, args.seconds / 3.0, 0, &mut probe);
    let socket = load.tally();
    let socket_p50_us = socket.latency_percentile(50.0).unwrap_or(f64::NAN) * 1e3;
    let batches = load.serve.batches - load.serve_before.batches;
    let batched = load.serve.batched_requests - load.serve_before.batched_requests;
    stack.server.shutdown();

    // In-process engine pass over a fresh request list.
    let mut stream = inputs.stream(CLIENTS as u64);
    let mut requests = Vec::new();
    let mut engine_us = Vec::new();
    let mut engine_candidates = 0u64;
    let mut engine_predictions: Vec<Vec<f64>> = Vec::new();
    let misses_before = stack.engine.cache_counters();
    let budget = std::time::Duration::from_secs_f64(args.seconds / 8.0);
    let pass_started = Instant::now();
    let mut failed = socket.failed;
    while pass_started.elapsed() < budget || requests.is_empty() {
        let request = stream();
        let started = Instant::now();
        let result = stack.engine.advise(&request);
        engine_us.push(started.elapsed().as_secs_f64() * 1e6);
        match result {
            Ok(report) => {
                engine_candidates += report.candidates() as u64;
                let mut predicted: Vec<f64> =
                    report.rankings.iter().map(|r| r.predicted_ms).collect();
                predicted.sort_by(f64::total_cmp);
                engine_predictions.push(predicted);
            }
            Err(error) => {
                eprintln!("perfbench: in-process advise failed: {error}");
                failed += 1;
                engine_predictions.push(Vec::new());
            }
        }
        requests.push(request);
    }
    let n = requests.len() as u64;
    let engine_misses = stack.engine.cache_counters().since(misses_before).misses;
    let engine_p50_us = stats::median(&engine_us).unwrap_or(f64::NAN);

    // Replays of the same requests in the order untraced, traced, traced,
    // untraced, so that drift over the run cancels out of the overhead.
    let replay_once = |traced: bool| {
        let mut replay = replay::Replay::new(&stack.bundle, &inputs.launches, traced);
        if inputs.traffic == Traffic::Warm {
            let mut warmup = replay::Replay::new(&stack.bundle, &inputs.launches, false);
            for kernel in &inputs.kernels {
                warmup.request(0, &AdviseRequest::catalog(kernel.clone()));
            }
            replay = warmup.into_recording(traced);
        }
        let started = Instant::now();
        let predictions: Vec<Vec<f64>> = requests
            .iter()
            .enumerate()
            .map(|(i, r)| replay.request(i as u64, r))
            .collect();
        (replay, predictions, started.elapsed().as_secs_f64())
    };
    let (_, _, untraced_first) = replay_once(false);
    let (replay, predictions, traced_first) = replay_once(true);
    let (_, _, traced_second) = replay_once(true);
    let (_, _, untraced_second) = replay_once(false);
    let traced_s = traced_first + traced_second;
    let untraced_s = untraced_first + untraced_second;
    let mismatches = predictions
        .iter()
        .zip(&engine_predictions)
        .filter(|(a, b)| a != b)
        .count() as u64;
    if mismatches > 0 {
        eprintln!("perfbench: {mismatches} replayed requests disagree with Engine::advise");
    }
    failed += mismatches;

    let per_request = |x: f64| x / n as f64;
    let spans = replay.recorder.spans();
    let layer_totals = spans::by_layer(spans);
    let empty = spans::LayerTotals::default();
    let layer = |name: &str| layer_totals.get(name).unwrap_or(&empty);
    let counts = &replay.counts;

    let predict = layer("gnn.predict_batch");
    metrics.put(
        "gnn.predict_batch_p50_us",
        p50_us(&predict.durations_ns),
        "us",
    );
    metrics.put(
        "gnn.predict_us_per_candidate",
        predict.total_ns as f64 / 1e3 / counts.candidates.max(1) as f64,
        "us",
    );
    let parse = layer("frontend.parse");
    metrics.put("frontend.parse_p50_us", p50_us(&parse.durations_ns), "us");
    metrics.put(
        "frontend.ast_nodes_per_ms",
        if parse.total_ns == 0 {
            0.0
        } else {
            counts.ast_nodes as f64 / (parse.total_ns as f64 / 1e6)
        },
        "1/ms",
    );
    let build = layer("core.build");
    metrics.put("core.build_p50_us", p50_us(&build.durations_ns), "us");
    metrics.put(
        "core.builds_per_request",
        per_request(build.count as f64),
        "count",
    );
    metrics.put(
        "core.edges_per_graph",
        counts.edges as f64 / counts.candidates.max(1) as f64,
        "count",
    );
    let assess = layer("analyze.assess");
    metrics.put("analyze.assess_p50_us", p50_us(&assess.durations_ns), "us");
    metrics.put(
        "analyze.diagnostics_per_request",
        per_request(counts.diagnostics as f64),
        "count",
    );
    for (name, span) in [
        ("advisor", "advisor.enumerate"),
        ("frontend", "frontend.parse"),
        ("core", "core.build"),
        ("analyze", "analyze.assess"),
        ("gnn", "gnn.predict_batch"),
    ] {
        metrics.put(
            format!("{name}.self_us_per_request"),
            per_request(layer(span).self_ns as f64 / 1e3),
            "us",
        );
    }
    metrics.put("engine.advise_p50_us", engine_p50_us, "us");
    metrics.put(
        "engine.candidates_per_request",
        per_request(engine_candidates as f64),
        "count",
    );
    let misses_per_request = per_request(engine_misses as f64);
    metrics.put(
        "engine.cache_misses_per_request",
        misses_per_request,
        "count",
    );
    require_cache_use(&mut validity, inputs, misses_per_request);
    metrics.put("serve.overhead_p50_us", socket_p50_us - engine_p50_us, "us");
    metrics.put(
        "serve.cpu_ms_per_request",
        load.server_cpu_s * 1e3 / socket.attempted().max(1) as f64,
        "ms",
    );
    let batch_size_mean = batched as f64 / batches.max(1) as f64;
    metrics.put("serve.batch_size_mean", batch_size_mean, "count");
    validity.require(
        format!("serve.batch_size_mean reported ({batch_size_mean} over {batches} batches)"),
        batches > 0,
    );
    for ((stage, after), (_, before)) in load.stages_after.iter().zip(&load.stages_before) {
        let (p50, count) = histogram_p50_us(after, before);
        metrics.put(format!("obs.stage.{}.p50_us", stage.name()), p50, "us");
        metrics.put(
            format!("obs.stage.{}.count", stage.name()),
            count as f64,
            "count",
        );
    }
    let root = layer("request");
    metrics.put(
        "obs.unattributed_frac",
        root.self_ns as f64 / root.total_ns.max(1) as f64,
        "ratio",
    );
    metrics.put(
        "bench.trace_overhead_frac",
        (traced_s - untraced_s) / untraced_s,
        "ratio",
    );
    // The fit the workload measures: the served bundle's, or the
    // laptop-scale retrain.
    let measured_fit = match &stack.retrain {
        Some(dataset) => {
            fit(
                dataset,
                &laptop(derive(inputs.seed, STREAM_TRAIN)),
                Some(&mut layers),
            )
            .1
        }
        None => stack.fit,
    };
    metrics.put("dataset.collect_ms", layers.collect_ms, "ms");
    metrics.put("gnn.prepare_ms", layers.prepare_ms, "ms");
    metrics.put("gnn.train_epoch_ms", layers.epoch_ms, "ms");
    metrics.put("gnn.evaluate_ms", layers.evaluate_ms, "ms");
    metrics.put("train_val_rmse_ms", f64::from(measured_fit.rmse_ms), "ms");
    if !measured_fit.rmse_ms.is_finite() {
        failed += 1;
    }

    let record = vec![
        ("socket_requests".into(), socket.attempted().to_string()),
        ("replayed_requests".into(), n.to_string()),
        ("spans".into(), spans.len().to_string()),
        ("replay_mismatches".into(), mismatches.to_string()),
    ];
    Outcome {
        metrics,
        attempted: socket.attempted() + 2 * n + 1,
        failed,
        validity,
        record,
    }
}

fn main() {
    let nproc = pin::allowed_cpus().len();
    // Before any thread starts, so that every thread inherits it.
    let cpu = pin_to_one_cpu();
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            std::process::exit(2);
        }
    };
    let inputs = Inputs::new(args.seed, args.workload.traffic);
    if let Some(part) = args.part {
        let measured = measure_part(&args, &inputs, part);
        println!(
            "part {}",
            serde_json::to_string(&measured).expect("parts serialize")
        );
        return;
    }
    let outcome = if args.trace {
        traced(&args, &inputs)
    } else {
        end_to_end(&args)
    };
    let correct = outcome.failed == 0 && outcome.validity.ok();

    for (name, value, unit) in &outcome.metrics.0 {
        println!("{name:<40} {value:>14.4} {unit}");
    }
    let mut record = vec![
        ("workload".to_string(), json_string(args.workload.name)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), number(args.seconds)),
        ("trace".into(), args.trace.to_string()),
        ("host".into(), host_fingerprint(&args.workload, nproc)),
        ("cpu".into(), cpu.map_or("null".into(), |c| c.to_string())),
        ("warm_kernels".into(), inputs.kernels.len().to_string()),
        ("launches".into(), inputs.launches.len().to_string()),
        ("attempted".into(), outcome.attempted.to_string()),
        (
            "succeeded".into(),
            (outcome.attempted - outcome.failed).to_string(),
        ),
        ("failed".into(), outcome.failed.to_string()),
        ("validity".into(), outcome.validity.json()),
    ];
    record.extend(outcome.record);
    let fields: Vec<String> = record
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_string(k)))
        .collect();
    println!("record {{{}}}", fields.join(","));
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.attempted,
        outcome.failed,
        outcome.metrics.json()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_median_interpolates_inside_the_delta_bucket() {
        let before = HistogramSnapshot::default();
        let mut after = HistogramSnapshot::default();
        after.buckets[3] = 2; // [8, 16) us
        after.buckets[4] = 2; // [16, 32) us
        assert_eq!(histogram_p50_us(&after, &before), (16.0, 4));
        let mut later = after;
        later.buckets[4] += 4;
        assert_eq!(histogram_p50_us(&later, &after), (24.0, 4));
        assert_eq!(histogram_p50_us(&after, &after), (0.0, 0));
    }
}
