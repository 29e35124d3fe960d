//! In-process traced pass of the repository benchmark.
//!
//! `perfbench/run.py --trace 1` runs this binary once per workload. It
//! plans the workload's sweep with `SweepPlan::new`, executes every job in
//! dependency order through `mbcr_engine::execute_stage` at one thread, and
//! times each call into a crate's public API from the outside: the program
//! itself carries no extra span. Store traffic is timed by a forwarding
//! `StageStore` wrapper around `ArtifactStore`, so a stage's self time is
//! its wall time minus its store time.
//!
//! After the passes it re-issues the layer calls of the executed stages on
//! the same inputs (PUB transform, trace execution, TAC, convergence
//! sampling versus fit and IID, the batched campaign kernel), decodes and
//! re-encodes every artifact of the store, and frames the stage jobs'
//! wire messages. Every re-issued call is checked against the artifact the
//! pass stored, so a timing is only reported for work that reproduced.
//!
//! ```text
//! mbcr-perfbench-tracer --spec SPEC.json --work DIR --mode cold|warm --seconds T
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"metrics": {name: value}, "passes": n, "failed": k, "stores": [dir, ...]}`.
//! Human-readable notes go to standard error.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mbcr::stage::{
    campaign_marker_sample, AnalysisStage, PipelineKind, StageKind, StageStore, TraceStage,
};
use mbcr::AnalysisConfig;
use mbcr_cpu::{campaign_slice, campaign_with, Parallelism, ResolvedTrace};
use mbcr_engine::{
    execute_combine, execute_stage, finalize_sweep, run_sweep, AnalysisKind, AnalysisKnobs,
    ArtifactStore, JobKind, JobRecord, JobSpec, JobStatus, JobSummary, Registry, RunOptions,
    SweepPlan, SweepSpec,
};
use mbcr_evt::{converge, IidReport, Pwcet};
use mbcr_ir::Inputs;
use mbcr_json::{Json, Serialize};
use mbcr_malardalen::Benchmark;
use mbcr_shard::protocol::{self, JobResult, Message, SamplePrefix, WireJob};

/// The stage kinds whose self time the benchmark reports.
const STAGE_KINDS: [StageKind; 7] = [
    StageKind::Pub,
    StageKind::Trace,
    StageKind::TacIl1,
    StageKind::TacDl1,
    StageKind::Converge,
    StageKind::Campaign,
    StageKind::Fit,
];

/// Campaign runs re-simulated per executed campaign node when measuring the
/// batched kernel: enough for a steady rate, small enough that the traced
/// run stays a fraction of the timed runs.
const BATCHED_RUNS_CAP: usize = 20_000;

/// Repetitions of the in-memory HTTP request parse (one parse is a few
/// microseconds, below the clock's useful resolution).
const REQUEST_PARSES: u32 = 2_000;

type Fallible<T> = Result<T, String>;

/// Accumulated time and call count of one timed call site. Relaxed
/// atomics: the values are statistics and publish no other data.
#[derive(Default)]
struct Tally {
    nanos: AtomicU64,
    count: AtomicU64,
}

impl Tally {
    fn add(&self, d: Duration) {
        self.nanos.fetch_add(nanos(d), Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(start.elapsed());
        out
    }

    fn secs(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Forwards every `StageStore` call to an `ArtifactStore`, timing each.
struct TimedStore<'a> {
    inner: &'a ArtifactStore,
    load_stage: Tally,
    save_stage: Tally,
    load_samples: Tally,
    append_samples: Tally,
    reset_samples: Tally,
}

impl<'a> TimedStore<'a> {
    fn new(inner: &'a ArtifactStore) -> Self {
        Self {
            inner,
            load_stage: Tally::default(),
            save_stage: Tally::default(),
            load_samples: Tally::default(),
            append_samples: Tally::default(),
            reset_samples: Tally::default(),
        }
    }

    fn total_nanos(&self) -> u64 {
        [
            &self.load_stage,
            &self.save_stage,
            &self.load_samples,
            &self.append_samples,
            &self.reset_samples,
        ]
        .iter()
        .map(|t| t.nanos.load(Ordering::Relaxed))
        .sum()
    }
}

impl StageStore for TimedStore<'_> {
    fn load_stage(&self, digest: u64) -> Option<Json> {
        self.load_stage.time(|| self.inner.load_stage(digest))
    }

    fn save_stage(&self, digest: u64, artifact: &Json) -> io::Result<()> {
        self.save_stage
            .time(|| self.inner.save_stage(digest, artifact))
    }

    fn load_samples(&self, digest: u64) -> Option<Vec<u64>> {
        self.load_samples.time(|| self.inner.load_samples(digest))
    }

    fn append_samples(
        &self,
        digest: u64,
        start: usize,
        total: usize,
        samples: &[u64],
    ) -> io::Result<()> {
        self.append_samples
            .time(|| self.inner.append_samples(digest, start, total, samples))
    }

    fn reset_samples(&self, digest: u64) -> io::Result<()> {
        self.reset_samples.time(|| self.inner.reset_samples(digest))
    }
}

/// What one traced pass measured.
#[derive(Default)]
struct Pass {
    wall: f64,
    plan: f64,
    cached_summary: f64,
    finalize: f64,
    write_job: Tally,
    combine: Tally,
    stage_self: BTreeMap<&'static str, (f64, u64)>,
    store_wall: f64,
    store: [(f64, u64); 4],
    hits: usize,
    jobs: usize,
    failed: usize,
    executed: Vec<usize>,
}

impl Pass {
    /// Share of the pass's wall time that the timed calls account for.
    fn accounted_share(&self) -> f64 {
        let stage_self: f64 = self.stage_self.values().map(|&(s, _)| s).sum();
        let accounted = self.plan
            + self.cached_summary
            + stage_self
            + self.store_wall
            + self.write_job.secs()
            + self.combine.secs()
            + self.finalize;
        accounted / self.wall
    }
}

/// Runs one sweep job by job at one thread, timing every layer call.
fn traced_pass(spec: &SweepSpec, registry: &Registry, dir: &Path) -> Fallible<Pass> {
    let start = Instant::now();
    let store = ArtifactStore::open(dir).map_err(|e| e.to_string())?;
    let opts = RunOptions {
        threads: 1,
        ..RunOptions::default()
    };
    let mut pass = Pass::default();
    let t = Instant::now();
    let plan = SweepPlan::new(spec, registry, &opts).map_err(|e| e.to_string())?;
    pass.plan = t.elapsed().as_secs_f64();
    pass.jobs = plan.len();

    let timed = TimedStore::new(&store);
    let mut hit_digests = Vec::new();
    let mut slots: Vec<Option<JobSummary>> = vec![None; plan.len()];
    let mut records = Vec::with_capacity(plan.len());
    let mut cached_nanos = 0u64;
    for i in 0..plan.len() {
        let job = &plan.graph.jobs[i];
        let key = &plan.keys[i];
        let record = |status, error, summary| JobRecord {
            key: key.clone(),
            label: job.label(),
            status,
            error,
            summary,
        };
        let t = Instant::now();
        let cached = plan.cached_summary(i, &store);
        cached_nanos += nanos(t.elapsed());
        if let Some(summary) = cached {
            pass.hits += 1;
            if let (JobKind::Stage { stage, .. }, Some(digest)) = (&job.kind, plan.graph.digests[i])
            {
                hit_digests.push((*stage, digest));
            }
            slots[i] = Some(summary.clone());
            records.push(record(JobStatus::Skipped, None, Some(summary)));
            continue;
        }
        pass.executed.push(i);
        let outcome = match &job.kind {
            JobKind::Stage { stage, .. } => {
                let cfg = plan.cfgs[i].as_ref().expect("stage jobs carry a config");
                let before = timed.total_nanos();
                let t = Instant::now();
                let out = execute_stage(job, key, cfg, registry, &timed, false);
                let wall = nanos(t.elapsed());
                let in_store = timed.total_nanos() - before;
                let slot = pass.stage_self.entry(stage.name()).or_insert((0.0, 0));
                slot.0 += wall.saturating_sub(in_store) as f64 * 1e-9;
                slot.1 += 1;
                out.map_err(|e| e.to_string()).and_then(|out| {
                    if let Some((result, sample)) = out.fit {
                        pass.write_job
                            .time(|| store.write_job(key, &out.summary, result, sample.as_deref()))
                            .map_err(|e| e.to_string())?;
                    }
                    Ok(out.summary)
                })
            }
            JobKind::MultipathCombine => pass.combine.time(|| {
                let deps: Vec<Option<JobSummary>> = plan.graph.deps[i]
                    .iter()
                    .map(|&d| slots[d].clone())
                    .collect();
                execute_combine(job, key, &deps)
                    .and_then(|(summary, result)| {
                        store.write_job(key, &summary, result, None)?;
                        Ok(summary)
                    })
                    .map_err(|e| e.to_string())
            }),
        };
        match outcome {
            Ok(summary) => {
                slots[i] = Some(summary.clone());
                records.push(record(JobStatus::Executed, None, Some(summary)));
            }
            Err(e) => {
                pass.failed += 1;
                records.push(record(JobStatus::Failed, Some(e), None));
            }
        }
    }
    pass.cached_summary = cached_nanos as f64 * 1e-9;
    let t = Instant::now();
    finalize_sweep(spec, records, registry, &store, start.elapsed()).map_err(|e| e.to_string())?;
    pass.finalize = t.elapsed().as_secs_f64();
    pass.wall = start.elapsed().as_secs_f64();
    pass.store_wall = timed.total_nanos() as f64 * 1e-9;
    // The loads of a cache hit happen inside `cached_summary`, which takes
    // the concrete store. Re-issuing them through the wrapper, outside the
    // pass's wall time, shows the store layer's read share on warm
    // workloads too.
    let replay = TimedStore::new(&store);
    for (stage, digest) in hit_digests {
        if let Some(doc) = replay.load_stage(digest) {
            if stage == StageKind::Campaign {
                let data = doc.get("data").cloned().unwrap_or(Json::Null);
                let _ = campaign_marker_sample(&data, &replay, digest);
            }
        }
    }
    let tallies = [
        (&timed.load_stage, &replay.load_stage),
        (&timed.save_stage, &replay.save_stage),
        (&timed.load_samples, &replay.load_samples),
        (&timed.append_samples, &replay.append_samples),
    ];
    for (slot, (a, b)) in pass.store.iter_mut().zip(tallies) {
        *slot = (a.secs() + b.secs(), a.count() + b.count());
    }
    Ok(pass)
}

fn untraced_pass(spec: &SweepSpec, registry: &Registry, dir: &Path) -> Fallible<f64> {
    let start = Instant::now();
    let store = ArtifactStore::open(dir).map_err(|e| e.to_string())?;
    let opts = RunOptions {
        threads: 1,
        ..RunOptions::default()
    };
    let outcome = run_sweep(spec, registry, &store, &opts).map_err(|e| e.to_string())?;
    if outcome.failed > 0 {
        return Err(format!("{} failed jobs", outcome.failed));
    }
    Ok(start.elapsed().as_secs_f64())
}

/// FNV-1a over `table2.csv` and every file under `stages/`, in name order:
/// equality of two stores' outputs, not a pinned digest (the driver pins
/// those with SHA-256).
fn output_digest(dir: &Path) -> Fallible<u64> {
    let mut h = mbcr_json::FNV_OFFSET;
    let mut names: Vec<PathBuf> = fs::read_dir(dir.join("stages"))
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    names.sort();
    names.insert(0, dir.join("table2.csv"));
    for path in names {
        let bytes = fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        h = mbcr_json::fnv1a(h, &path.file_name().unwrap_or_default().to_string_lossy());
        h = mbcr_json::fnv1a_bytes(h, &bytes);
    }
    Ok(h)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn resolve_input<'b>(benchmark: &'b Benchmark, input: Option<&str>) -> Fallible<&'b Inputs> {
    match input {
        None | Some("default") => Ok(&benchmark.default_input),
        Some(name) => benchmark
            .input_vectors
            .iter()
            .find(|v| v.name == name)
            .map(|v| &v.inputs)
            .ok_or_else(|| format!("{}: unknown input {name}", benchmark.name)),
    }
}

/// Layer calls re-issued on the inputs of the stages a pass executed.
#[derive(Default)]
struct Layers {
    pub_transform: Tally,
    ir_execute: Tally,
    tac_analyze: Tally,
    resolve: Tally,
    sample: Tally,
    converge_refit: f64,
    fit: Tally,
    iid: Tally,
    serial_runs: u64,
    batched: Tally,
    batched_runs: u64,
}

/// Re-runs the public layer calls behind every executed stage node and
/// checks each result against the artifact the pass stored.
fn layer_calls(
    plan: &SweepPlan,
    registry: &Registry,
    store: &ArtifactStore,
    executed: &[usize],
) -> Fallible<Layers> {
    let mut layers = Layers::default();
    for &i in executed {
        let job = &plan.graph.jobs[i];
        let JobKind::Stage {
            analysis,
            stage,
            input,
        } = &job.kind
        else {
            continue;
        };
        let cfg = plan.cfgs[i].as_ref().expect("stage jobs carry a config");
        let benchmark = registry
            .get(&job.benchmark)
            .ok_or_else(|| format!("unknown benchmark {}", job.benchmark))?;
        let digests = plan
            .stage_digests(i, registry)
            .map_err(|e| e.to_string())?
            .expect("stage node");
        let artifact = |kind: StageKind| -> Fallible<Json> {
            let digest = digests
                .get(kind)
                .ok_or_else(|| format!("{}: no {} digest", job.label(), kind.name()))?;
            store
                .load_stage(digest)
                .and_then(|doc| doc.get("data").cloned())
                .ok_or_else(|| format!("{}: {} artifact missing", job.label(), kind.name()))
        };
        let pipeline = match analysis {
            AnalysisKind::PubTac => PipelineKind::PubTac,
            _ => PipelineKind::Original,
        };
        let load_trace = || {
            TraceStage { pipeline }
                .decode(&artifact(StageKind::Trace)?)
                .ok_or_else(|| format!("{}: trace artifact does not decode", job.label()))
        };
        match stage {
            StageKind::Pub => {
                let result = layers
                    .pub_transform
                    .time(|| mbcr_pub::pub_transform(&benchmark.program, &cfg.pub_cfg))
                    .map_err(|e| e.to_string())?;
                check(
                    result.report.to_json() == artifact(StageKind::Pub)?,
                    job,
                    "PUB report",
                )?;
            }
            StageKind::Trace => {
                let inputs = resolve_input(benchmark, input.as_deref())?;
                let pubbed;
                let program = if pipeline == PipelineKind::PubTac {
                    pubbed = mbcr_pub::pub_transform(&benchmark.program, &cfg.pub_cfg)
                        .map_err(|e| e.to_string())?
                        .program;
                    &pubbed
                } else {
                    &benchmark.program
                };
                let run = layers
                    .ir_execute
                    .time(|| mbcr_ir::execute(program, inputs))
                    .map_err(|e| e.to_string())?;
                check(run.trace == load_trace()?, job, "trace")?;
            }
            StageKind::TacIl1 | StageKind::TacDl1 => {
                let trace = load_trace()?;
                let (geometry, salt) = if *stage == StageKind::TacIl1 {
                    (&cfg.platform.il1, 1)
                } else {
                    (&cfg.platform.dl1, 2)
                };
                let tac_cfg = cfg
                    .tac
                    .for_cache(geometry, mbcr_rng::derive_seed(cfg.seed, salt));
                let lines = if *stage == StageKind::TacIl1 {
                    trace.instr_lines(geometry.line_size())
                } else {
                    trace.data_lines(geometry.line_size())
                };
                let tac = layers
                    .tac_analyze
                    .time(|| mbcr_tac::analyze_lines(&lines, &tac_cfg));
                let stored = artifact(*stage)?
                    .get("runs_required")
                    .and_then(Json::as_u64);
                check(Some(tac.runs_required) == stored, job, "TAC runs_required")?;
            }
            StageKind::Converge => {
                let trace = load_trace()?;
                layers
                    .resolve
                    .time(|| std::hint::black_box(ResolvedTrace::resolve(&cfg.platform, &trace)));
                let seed = campaign_seed(cfg);
                let mut collected: Vec<u64> = Vec::new();
                let start = Instant::now();
                let outcome = converge(
                    |count| {
                        let out = layers.sample.time(|| {
                            campaign_slice(&cfg.platform, &trace, collected.len(), count, seed)
                        });
                        collected.extend_from_slice(&out);
                        out
                    },
                    &cfg.convergence,
                )
                .map_err(|e| e.to_string())?;
                let total = start.elapsed().as_secs_f64();
                layers.converge_refit += total;
                let stored: Option<Vec<u64>> = artifact(StageKind::Converge)?
                    .get("sample")
                    .and_then(Json::as_array)
                    .and_then(|a| a.iter().map(Json::as_u64).collect());
                check(
                    stored.as_deref() == Some(&collected[..]),
                    job,
                    "converge sample",
                )?;
                layers.serial_runs += collected.len() as u64;
                refit_steps(&mut layers, &collected, cfg, outcome.runs);
            }
            StageKind::Campaign => {
                let trace = load_trace()?;
                let digest = digests.get(StageKind::Campaign).expect("campaign digest");
                let logged = store
                    .load_samples(digest)
                    .ok_or_else(|| format!("{}: campaign log missing", job.label()))?;
                let runs = logged.len().min(BATCHED_RUNS_CAP);
                let par = Parallelism::serial();
                let seed = campaign_seed(cfg);
                let sample = layers
                    .batched
                    .time(|| campaign_with(&cfg.platform, &trace, runs, seed, &par));
                check(sample[..] == logged[..runs], job, "batched campaign sample")?;
                layers.batched_runs += runs as u64;
            }
            _ => {}
        }
    }
    // The converge call's own time minus its sampler time is the refit
    // (fit + IID per step) the procedure performs.
    layers.converge_refit -= layers.sample.secs();
    Ok(layers)
}

/// Replays the convergence procedure's per-step refits on the collected
/// sample, timing `Pwcet::fit` and `IidReport::evaluate` separately.
fn refit_steps(layers: &mut Layers, sample: &[u64], cfg: &AnalysisConfig, runs: usize) {
    let conv = &cfg.convergence;
    let mut n = conv.initial;
    while n <= runs {
        let prefix = &sample[..n];
        let fitted = layers
            .fit
            .time(|| Pwcet::fit(prefix, conv.method, &conv.tail, conv.dither));
        if fitted.is_ok() {
            let float_sample: Vec<f64> = prefix.iter().map(|&v| v as f64).collect();
            layers
                .iid
                .time(|| std::hint::black_box(IidReport::evaluate(&float_sample)));
        }
        n += conv.step;
    }
}

/// The campaign seed stream of a config, as the analysis session derives
/// it (the converge sample and the campaign log are both checked against
/// it, so a drift here fails the run instead of skewing a rate).
fn campaign_seed(cfg: &AnalysisConfig) -> u64 {
    mbcr_rng::derive_seed(cfg.seed, 0xCA)
}

fn check(ok: bool, job: &JobSpec, what: &str) -> Fallible<()> {
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{}: re-issued {what} differs from the stored artifact",
            job.label()
        ))
    }
}

/// Decodes then re-encodes every JSON document of the store.
fn json_codec(dir: &Path) -> Fallible<(f64, f64, u64)> {
    let mut files = vec![dir.join("manifest.json")];
    for sub in ["stages", "jobs"] {
        for entry in fs::read_dir(dir.join(sub)).map_err(|e| e.to_string())? {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.extension().is_some_and(|x| x == "json") {
                files.push(path);
            }
        }
    }
    let (mut decode, mut encode, mut bytes) = (0.0, 0.0, 0u64);
    for path in files {
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        bytes += text.len() as u64;
        let t = Instant::now();
        let doc = mbcr_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        decode += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let back = std::hint::black_box(doc.to_pretty());
        encode += t.elapsed().as_secs_f64();
        if back != text {
            return Err(format!(
                "{}: decode + encode does not round-trip",
                path.display()
            ));
        }
    }
    Ok((decode, encode, bytes))
}

/// Frames the wire messages a sharded run of this plan exchanges: one
/// `Job` (upstream artifacts shipped in full, campaign prefix included)
/// and one `Done` per stage node.
fn frames(
    spec: &SweepSpec,
    plan: &SweepPlan,
    registry: &Registry,
    store: &ArtifactStore,
) -> Fallible<(f64, f64, u64)> {
    let (mut encode, mut decode, mut bytes) = (0.0, 0.0, 0u64);
    let knobs = AnalysisKnobs::from_spec(spec, None, None);
    for i in 0..plan.len() {
        let job = &plan.graph.jobs[i];
        let JobKind::Stage { stage: target, .. } = &job.kind else {
            continue;
        };
        let digests = plan
            .stage_digests(i, registry)
            .map_err(|e| e.to_string())?
            .expect("stage node");
        let stages = digests.pipeline().stages();
        let at = stages
            .iter()
            .position(|s| s == target)
            .expect("target in pipeline");
        let artifacts = stages[..at]
            .iter()
            .filter_map(|&s| digests.get(s))
            .filter_map(|d| store.load_stage(d))
            .collect();
        let prefix = digests.get(StageKind::Campaign).and_then(|digest| {
            let campaign_at = stages.iter().position(|&s| s == StageKind::Campaign)?;
            (at >= campaign_at)
                .then(|| store.load_samples(digest))
                .flatten()
                .filter(|s| !s.is_empty())
                .map(|samples| SamplePrefix { digest, samples })
        });
        let stage_docs = digests
            .get(*target)
            .and_then(|d| store.load_stage(d))
            .into_iter()
            .collect();
        let key = &plan.keys[i];
        let fit = if *target == StageKind::Fit {
            let text = fs::read_to_string(store.job_path(key)).map_err(|e| e.to_string())?;
            let doc = mbcr_json::parse(&text).map_err(|e| e.to_string())?;
            let result = doc.get("result").cloned().unwrap_or(Json::Null);
            Some((result, store.load_job_sample(key)))
        } else {
            None
        };
        let messages = [
            Message::Job(Box::new(WireJob {
                sweep: "perfbench".to_string(),
                job: i,
                key: key.clone(),
                spec: job.clone(),
                knobs,
                artifacts,
                prefix,
            })),
            Message::Done(Box::new(JobResult {
                sweep: "perfbench".to_string(),
                job: i,
                error: None,
                summary: plan.cached_summary(i, store),
                stage_docs,
                fit,
            })),
        ];
        for message in messages {
            let doc = message.to_json();
            let mut buf = Vec::new();
            let t = Instant::now();
            protocol::write_frame(&mut buf, &doc).map_err(|e| e.to_string())?;
            encode += t.elapsed().as_secs_f64();
            bytes += buf.len() as u64;
            let t = Instant::now();
            let back = protocol::read_frame(&mut buf.as_slice()).map_err(|e| e.to_string())?;
            decode += t.elapsed().as_secs_f64();
            if back.map(|b| b.to_compact()) != Some(doc.to_compact()) {
                return Err(format!("{}: wire frame does not round-trip", job.label()));
            }
        }
    }
    Ok((encode, decode, bytes))
}

/// Mean time of `read_request` over the `POST /v1/sweeps` request that
/// submits this spec.
fn request_parse(spec: &SweepSpec) -> Fallible<f64> {
    let body = Json::Obj(vec![("spec".to_string(), spec.to_json())]).to_compact();
    let raw = format!(
        "POST /v1/sweeps HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let start = Instant::now();
    for _ in 0..REQUEST_PARSES {
        let request = mbcr_gateway::read_request(&mut raw.as_bytes())
            .map_err(|e| e.to_string())?
            .ok_or("empty request")?;
        std::hint::black_box(request);
    }
    Ok(start.elapsed().as_secs_f64() / f64::from(REQUEST_PARSES))
}

struct Args {
    spec: PathBuf,
    work: PathBuf,
    warm: bool,
    seconds: f64,
}

fn parse_args() -> Fallible<Args> {
    let mut spec = None;
    let mut work = None;
    let mut warm = None;
    let mut seconds = 10.0;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--spec" => spec = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            "--mode" => {
                warm = Some(match value.as_str() {
                    "cold" => false,
                    "warm" => true,
                    other => return Err(format!("unknown mode {other}")),
                });
            }
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--spec is required")?,
        work: work.ok_or("--work is required")?,
        warm: warm.ok_or("--mode is required")?,
        seconds,
    })
}

fn fresh_dir(path: &Path) -> Fallible<()> {
    if path.exists() {
        fs::remove_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    fs::create_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn run() -> Fallible<String> {
    let args = parse_args()?;
    let spec = SweepSpec::load(&args.spec).map_err(|e| e.to_string())?;
    let registry = Registry::malardalen();
    fs::create_dir_all(&args.work).map_err(|e| e.to_string())?;
    let untraced_dir = args.work.join("untraced");
    let traced_dir = args.work.join("traced");

    // Warm mode: one untimed cold sweep populates the store both sides of
    // every pair then re-run.
    if args.warm {
        fresh_dir(&untraced_dir)?;
        untraced_pass(&spec, &registry, &untraced_dir)?;
    }
    let reference = args
        .warm
        .then(|| output_digest(&untraced_dir))
        .transpose()?;

    let start = Instant::now();
    let (mut untraced, mut traced, mut passes) = (Vec::new(), Vec::new(), Vec::new());
    let mut failed = 0u64;
    while passes.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        if !args.warm {
            fresh_dir(&untraced_dir)?;
            fresh_dir(&traced_dir)?;
        }
        untraced.push(untraced_pass(&spec, &registry, &untraced_dir)?);
        let dir = if args.warm {
            &untraced_dir
        } else {
            &traced_dir
        };
        let pass = traced_pass(&spec, &registry, dir)?;
        let expected = match reference {
            Some(digest) => digest,
            None => output_digest(&untraced_dir)?,
        };
        if pass.failed > 0 || output_digest(dir)? != expected {
            eprintln!(
                "traced pass {}: outputs differ from the untraced sweep",
                passes.len()
            );
            failed += 1;
        }
        traced.push(pass.wall);
        passes.push(pass);
    }
    let last = passes.last().expect("at least one pass");
    let store_dir = if args.warm {
        &untraced_dir
    } else {
        &traced_dir
    };
    let store = ArtifactStore::open(store_dir).map_err(|e| e.to_string())?;
    let plan =
        SweepPlan::new(&spec, &registry, &RunOptions::default()).map_err(|e| e.to_string())?;

    let layers = layer_calls(&plan, &registry, &store, &last.executed)?;
    let (decode, encode, json_bytes) = json_codec(store_dir)?;
    let (frame_encode, frame_decode, frame_bytes) = frames(&spec, &plan, &registry, &store)?;
    let read_request = request_parse(&spec)?;

    let med = |f: &dyn Fn(&Pass) -> f64| median(&mut passes.iter().map(f).collect::<Vec<_>>());
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| metrics.push((name.to_string(), value));
    put("json.decode_s", decode);
    put("json.decode_bytes", json_bytes as f64);
    put(
        "json.decode_mb_per_s",
        json_bytes as f64 / 1e6 / decode.max(1e-9),
    );
    put("json.encode_s", encode);
    let store_names = ["load_stage", "save_stage", "load_samples", "append_samples"];
    for (k, name) in store_names.iter().enumerate() {
        put(&format!("store.{name}_s"), med(&|p| p.store[k].0));
        put(&format!("store.{name}_count"), last.store[k].1 as f64);
    }
    put("store.write_job_s", med(&|p| p.write_job.secs()));
    put("store.write_job_count", last.write_job.count() as f64);
    put("engine.plan_s", med(&|p| p.plan));
    put("engine.cached_summary_s", med(&|p| p.cached_summary));
    put("engine.finalize_s", med(&|p| p.finalize));
    put(
        "engine.cache_hit_ratio",
        last.hits as f64 / last.jobs.max(1) as f64,
    );
    for kind in STAGE_KINDS {
        let name = kind.name();
        put(
            &format!("engine.stage.{name}_self_s"),
            med(&|p| p.stage_self.get(name).map_or(0.0, |s| s.0)),
        );
        put(
            &format!("engine.stage.{name}_count"),
            last.stage_self.get(name).map_or(0, |s| s.1) as f64,
        );
    }
    put("engine.pass_wall_s", median(&mut traced));
    put("cpu.resolve_s", layers.resolve.secs());
    put(
        "cpu.serial_runs_per_s",
        rate(layers.serial_runs, layers.sample.secs()),
    );
    put(
        "cpu.batched_runs_per_s",
        rate(layers.batched_runs, layers.batched.secs()),
    );
    put("evt.sample_s", layers.sample.secs());
    put("evt.converge_refit_s", layers.converge_refit.max(0.0));
    put("evt.fit_s", layers.fit.secs());
    put("evt.iid_s", layers.iid.secs());
    put("tac.analyze_s", layers.tac_analyze.secs());
    put("pub.transform_s", layers.pub_transform.secs());
    put("ir.execute_s", layers.ir_execute.secs());
    put("shard.frame_encode_s", frame_encode);
    put("shard.frame_decode_s", frame_decode);
    put("shard.frame_bytes", frame_bytes as f64);
    put("gateway.read_request_s", read_request);
    put(
        "obs.trace_overhead",
        median(&mut traced) / median(&mut untraced),
    );
    put("obs.accounted_share", med(&|p| p.accounted_share()));

    report(last, &layers, median(&mut untraced));
    let body: Vec<(String, Json)> = metrics
        .into_iter()
        .map(|(k, v)| (k, Json::Num(v)))
        .collect();
    let out = Json::Obj(vec![
        ("metrics".to_string(), Json::Obj(body)),
        ("passes".to_string(), Json::UInt(passes.len() as u64)),
        ("failed".to_string(), Json::UInt(failed)),
        (
            "stores".to_string(),
            Json::Arr(vec![
                untraced_dir.display().to_string().into(),
                store_dir.display().to_string().into(),
            ]),
        ),
    ]);
    Ok(out.to_compact())
}

fn rate(runs: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        runs as f64 / secs
    } else {
        0.0
    }
}

/// Prints the last pass's wall-time breakdown and the baseline-split
/// verdicts to standard error.
fn report(pass: &Pass, layers: &Layers, untraced: f64) {
    let share = |s: f64| 100.0 * s / pass.wall;
    eprintln!(
        "traced pass: {:.3} s wall ({} jobs, {} cache hits), untraced in-process sweep {:.3} s",
        pass.wall, pass.jobs, pass.hits, untraced
    );
    eprintln!("  {:<22} {:>9} {:>6} {:>7}", "part", "s", "n", "share");
    let mut rows: Vec<(String, f64, u64)> = vec![
        ("engine.plan".into(), pass.plan, 1),
        (
            "engine.cached_summary".into(),
            pass.cached_summary,
            pass.hits as u64,
        ),
        ("engine.finalize".into(), pass.finalize, 1),
        ("store (all calls)".into(), pass.store_wall, 0),
        (
            "store.write_job".into(),
            pass.write_job.secs(),
            pass.write_job.count(),
        ),
        (
            "engine.combine".into(),
            pass.combine.secs(),
            pass.combine.count(),
        ),
    ];
    for (name, &(secs, n)) in &pass.stage_self {
        rows.push((format!("stage.{name} self"), secs, n));
    }
    for (name, secs, n) in &rows {
        eprintln!("  {name:<22} {secs:>9.4} {n:>6} {:>6.1}%", share(*secs));
    }
    eprintln!(
        "  accounted for: {:.1}% of the pass's wall time",
        100.0 * pass.accounted_share()
    );
    let self_of = |k: &str| pass.stage_self.get(k).map_or(0.0, |s| s.0);
    let compute = self_of("converge") + self_of("fit") + self_of("tac_il1") + self_of("tac_dl1");
    let loads = pass.cached_summary;
    if pass.hits < pass.jobs {
        eprintln!(
            "  baseline split (converge + fit + TAC dominate a cold sweep): {} — {:.1}% of wall",
            if compute > 0.5 * pass.wall {
                "holds"
            } else {
                "does not hold"
            },
            share(compute)
        );
    } else {
        eprintln!(
            "  baseline split (load + decode dominate a warm sweep): {} — cache checks {:.1}% of wall",
            if loads > 0.5 * pass.wall { "holds" } else { "does not hold" },
            share(loads)
        );
    }
    if layers.serial_runs > 0 {
        eprintln!(
            "  converge re-run: sampling {:.3} s ({} runs), refit {:.3} s (Pwcet::fit {:.3} s + IID {:.3} s replayed)",
            layers.sample.secs(),
            layers.serial_runs,
            layers.converge_refit,
            layers.fit.secs(),
            layers.iid.secs()
        );
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mbcr-perfbench-tracer: {e}");
            ExitCode::from(1)
        }
    }
}
