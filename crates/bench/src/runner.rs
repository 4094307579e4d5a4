//! Simulation runners shared by all experiment binaries.

use std::path::PathBuf;

use chrome_sim::{PrefetcherConfig, SimConfig, SimResults, System};
use chrome_telemetry::{AttribProfiler, EpochSeries, TelemetryConfig, TelemetrySink};
use chrome_traces::mix;

use crate::registry::build_any_slot;

/// Parameters for one experiment run. Command-line parsing for the
/// experiment binaries lives in [`RunParams::from_args`].
#[derive(Debug, Clone)]
pub struct RunParams {
    /// Cores in the simulated system.
    pub cores: usize,
    /// Measured instructions per core.
    pub instructions: u64,
    /// Warmup instructions per core.
    pub warmup: u64,
    /// Prefetcher configuration.
    pub prefetchers: PrefetcherConfig,
    /// Base seed for workload generators.
    pub seed: u64,
    /// Directory for telemetry artifacts (`--telemetry-out DIR`); when
    /// set, every run exports its epoch series, event trace and metrics
    /// there, named `<workload>_<scheme>_*`.
    pub telemetry_out: Option<PathBuf>,
    /// Record the epoch series even without exporting it (experiment
    /// binaries that consume [`SchemeResult::epochs`] set this).
    pub record_epochs: bool,
    /// Enable the per-request latency-attribution profiler
    /// (`--profile`); implies a recording telemetry sink and populates
    /// [`SchemeResult::attrib`].
    pub profile: bool,
    /// Grid-engine worker threads (`--jobs N`); `None` means available
    /// parallelism.
    pub jobs: Option<usize>,
    /// Extra attempts for a panicking cell (`--retries K`).
    pub retries: u32,
    /// Skip cells already recorded `ok` in the manifest (`--resume`).
    pub resume: bool,
    /// Checkpoint manifest path (`--manifest PATH`); defaults to
    /// `results/manifest.jsonl` for grid runs.
    pub manifest: Option<PathBuf>,
    /// Directory of recorded `.ctf` trace files (`--trace-dir DIR`);
    /// grid cells whose workload identity matches a recorded trace
    /// replay from the file instead of the live generator, and mix the
    /// trace content hash into their checkpoint identity.
    pub trace_dir: Option<PathBuf>,
    /// Heterogeneous mix count for experiments that sweep mixes
    /// (`--mixes N`); each experiment applies its own default.
    pub mixes: Option<usize>,
    /// Cap on per-experiment workload lists (`--homo-workloads N`);
    /// each experiment applies its own default.
    pub homo_workloads: Option<usize>,
    /// Paint live grid progress to stderr (tests switch it off).
    pub progress: bool,
    /// Record a per-decision audit trail bounded to this many records
    /// (`--audit N`); populates [`SchemeResult::audit`] for auditable
    /// policies (CHROME and its ablations).
    pub audit: Option<usize>,
    /// Representative-interval sampling spec (`--sampling k=<k>,ramp=<n>`);
    /// file-backed grid cells replay only clustered representative
    /// intervals with functional warmup and reconstruct full-run
    /// metrics. Requires `--trace-dir`.
    pub sampling: Option<String>,
    /// Mesh-NoC spec in [`chrome_noc::NocConfig::canonical`] form
    /// (`--noc slices=4,hop=2,...`); empty keeps the NoC off and the
    /// simulator byte-identical to the uniform-latency model.
    pub noc: String,
}

impl Default for RunParams {
    fn default() -> Self {
        RunParams {
            cores: 4,
            instructions: 3_000_000,
            warmup: 600_000,
            prefetchers: PrefetcherConfig::default_paper(),
            seed: 0x5EED,
            telemetry_out: None,
            record_epochs: false,
            profile: false,
            jobs: None,
            retries: 2,
            resume: false,
            manifest: None,
            trace_dir: None,
            mixes: None,
            homo_workloads: None,
            progress: true,
            audit: None,
            sampling: None,
            noc: String::new(),
        }
    }
}

impl RunParams {
    /// Parse common experiment flags from `std::env::args`:
    /// `--cores N`, `--instructions N`, `--warmup N`, `--quick`
    /// (divides the instruction budget by 10), `--full` (multiplies it
    /// by 10), `--seed N`, `--telemetry-out DIR`.
    pub fn from_args() -> Self {
        Self::from_args_ignoring(&[])
    }

    /// Like [`RunParams::from_args`], but skips the listed
    /// experiment-specific flags (each consuming one value argument);
    /// read those with [`RunParams::arg_usize`].
    ///
    /// # Panics
    ///
    /// Panics on unknown flags or malformed flag values.
    pub fn from_args_ignoring(extra_value_flags: &[&str]) -> Self {
        let mut p = RunParams::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            if extra_value_flags.contains(&args[i].as_str()) {
                i += 2;
                continue;
            }
            match args[i].as_str() {
                "--cores" => {
                    i += 1;
                    p.cores = args[i].parse().expect("--cores takes a number");
                }
                "--instructions" => {
                    i += 1;
                    p.instructions = args[i].parse().expect("--instructions takes a number");
                }
                "--warmup" => {
                    i += 1;
                    p.warmup = args[i].parse().expect("--warmup takes a number");
                }
                "--seed" => {
                    i += 1;
                    p.seed = args[i].parse().expect("--seed takes a number");
                }
                "--telemetry-out" => {
                    i += 1;
                    p.telemetry_out = Some(PathBuf::from(
                        args.get(i).expect("--telemetry-out takes a dir"),
                    ));
                }
                "--profile" => {
                    p.profile = true;
                }
                "--jobs" => {
                    i += 1;
                    p.jobs = Some(args[i].parse().expect("--jobs takes a number"));
                }
                "--retries" => {
                    i += 1;
                    p.retries = args[i].parse().expect("--retries takes a number");
                }
                "--resume" => {
                    p.resume = true;
                }
                "--manifest" => {
                    i += 1;
                    p.manifest = Some(PathBuf::from(args.get(i).expect("--manifest takes a path")));
                }
                "--trace-dir" => {
                    i += 1;
                    p.trace_dir =
                        Some(PathBuf::from(args.get(i).expect("--trace-dir takes a dir")));
                }
                "--mixes" => {
                    i += 1;
                    p.mixes = Some(args[i].parse().expect("--mixes takes a number"));
                }
                "--homo-workloads" => {
                    i += 1;
                    p.homo_workloads =
                        Some(args[i].parse().expect("--homo-workloads takes a number"));
                }
                "--audit" => {
                    i += 1;
                    p.audit = Some(args[i].parse().expect("--audit takes a record cap"));
                }
                "--sampling" => {
                    i += 1;
                    let spec = args.get(i).expect("--sampling takes k=<k>,ramp=<n>");
                    chrome_simpoint::SamplingSpec::parse(spec)
                        .unwrap_or_else(|e| panic!("--sampling: {e}"));
                    p.sampling = Some(spec.clone());
                }
                "--noc" => {
                    i += 1;
                    let spec = args.get(i).expect("--noc takes slices=..,hop=..,..");
                    let cfg =
                        chrome_noc::NocConfig::parse(spec).unwrap_or_else(|e| panic!("--noc: {e}"));
                    // Canonicalize at the CLI boundary so spec hashes
                    // never depend on key order or omitted defaults.
                    p.noc = cfg.canonical();
                }
                "--quick" => {
                    p.instructions /= 10;
                    p.warmup /= 10;
                }
                "--full" => {
                    p.instructions *= 10;
                    p.warmup *= 10;
                }
                other => panic!("unknown flag {other}"),
            }
            i += 1;
        }
        p
    }

    /// Read an experiment-specific `--flag N` from the command line.
    pub fn arg_usize(name: &str, default: usize) -> usize {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// The [`SimConfig`] this run implies.
    ///
    /// # Panics
    ///
    /// Panics if [`RunParams::noc`] is non-empty but unparsable.
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::with_cores(self.cores);
        cfg.prefetchers = self.prefetchers;
        if !self.noc.is_empty() {
            cfg.noc = Some(
                chrome_noc::NocConfig::parse(&self.noc)
                    .unwrap_or_else(|e| panic!("bad noc spec {:?}: {e}", self.noc)),
            );
        }
        cfg
    }
}

/// The results of running one scheme on one workload/mix.
#[derive(Debug, Clone)]
pub struct SchemeResult {
    /// Scheme name.
    pub scheme: String,
    /// Raw simulation results.
    pub results: SimResults,
    /// Scheme-specific report metrics (e.g. CHROME's UPKSA).
    pub report: Vec<(String, f64)>,
    /// Epoch-resolved telemetry series (empty unless the run recorded
    /// telemetry via `--telemetry-out` or [`RunParams::record_epochs`]).
    pub epochs: EpochSeries,
    /// Latency-attribution profiler state (populated only when
    /// [`RunParams::profile`] was set).
    pub attrib: Option<AttribProfiler>,
    /// Telemetry artifact files this run exported (empty without
    /// `--telemetry-out`).
    pub artifacts: Vec<PathBuf>,
    /// Binary per-decision audit trail (empty unless
    /// [`RunParams::audit`] was set and the policy is auditable).
    pub audit: Vec<u8>,
}

impl SchemeResult {
    /// Sum of per-core IPCs.
    pub fn ipc_sum(&self) -> f64 {
        self.results.ipc_sum()
    }

    /// Normalized weighted speedup against a baseline run of the same
    /// mix: `(1/n) Σ IPC_i / IPC_i^base`.
    pub fn weighted_speedup_vs(&self, base: &SchemeResult) -> f64 {
        let n = self.results.per_core.len() as f64;
        self.results
            .per_core
            .iter()
            .zip(&base.results.per_core)
            .map(|(a, b)| {
                let (ia, ib) = (a.ipc(), b.ipc());
                if ib > 0.0 {
                    ia / ib
                } else {
                    0.0
                }
            })
            .sum::<f64>()
            / n
    }
}

/// Run `scheme` on a homogeneous mix of `workload` (`cores` copies).
///
/// # Panics
///
/// Panics if the workload or scheme name is unknown.
pub fn run_workload(params: &RunParams, workload: &str, scheme: &str) -> SchemeResult {
    run_workload_tracked(params, workload, scheme, false)
}

/// [`run_workload`] with optional Fig.-2 evicted-unused tracking.
pub fn run_workload_tracked(
    params: &RunParams,
    workload: &str,
    scheme: &str,
    track_unused: bool,
) -> SchemeResult {
    let traces = mix::homogeneous(workload, params.cores, params.seed)
        .unwrap_or_else(|| panic!("unknown workload {workload}"));
    run_traces(params, traces, scheme, track_unused, workload, None)
}

/// Run `scheme` on a named heterogeneous mix.
///
/// # Panics
///
/// Panics if any workload or the scheme name is unknown.
pub fn run_mix(params: &RunParams, names: &[&str], scheme: &str) -> SchemeResult {
    let traces =
        mix::build_mix(names, params.seed).unwrap_or_else(|| panic!("unknown mix {names:?}"));
    run_traces(params, traces, scheme, false, &names.join("+"), None)
}

/// Turn a workload/scheme label into a safe artifact-file prefix. Grid
/// cells pass their spec hash as `tag`, which keeps artifact names
/// collision-free when concurrent cells from different experiments
/// share one `--telemetry-out` directory.
fn artifact_prefix(label: &str, scheme: &str, tag: Option<&str>) -> String {
    let raw = match tag {
        Some(t) => format!("{label}_{scheme}_{t}"),
        None => format!("{label}_{scheme}"),
    };
    raw.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '-'
            }
        })
        .collect()
}

pub(crate) fn run_traces(
    params: &RunParams,
    traces: Vec<Box<dyn chrome_sim::trace::TraceSource>>,
    scheme: &str,
    track_unused: bool,
    label: &str,
    artifact_tag: Option<&str>,
) -> SchemeResult {
    let policy = build_any_slot(scheme).unwrap_or_else(|| panic!("unknown scheme {scheme}"));
    let mut sys = System::with_policy(params.sim_config(), traces, policy);
    if track_unused {
        sys.enable_unused_tracking();
    }
    if let Some(cap) = params.audit {
        sys.enable_audit(0, cap);
    }
    if params.telemetry_out.is_some() || params.record_epochs || params.profile {
        let cfg = TelemetryConfig {
            profile: params.profile,
            ..TelemetryConfig::default()
        };
        sys.set_telemetry(TelemetrySink::recording(cfg));
    }
    let results = sys.run(params.instructions, params.warmup);
    let report = sys.hierarchy().llc.policy.report();
    let epochs = sys
        .telemetry()
        .with(|t| t.epochs.clone())
        .unwrap_or_default();
    let attrib = if params.profile {
        sys.telemetry().with(|t| t.attrib.clone())
    } else {
        None
    };
    let artifacts = if let Some(dir) = &params.telemetry_out {
        sys.telemetry()
            .export(dir, &artifact_prefix(label, scheme, artifact_tag))
            .unwrap_or_else(|e| panic!("telemetry export to {dir:?} failed: {e}"))
    } else {
        Vec::new()
    };
    let audit = if params.audit.is_some() {
        sys.audit_bytes()
    } else {
        Vec::new()
    };
    SchemeResult {
        scheme: scheme.to_string(),
        results,
        report,
        epochs,
        attrib,
        artifacts,
        audit,
    }
}

/// The raw outputs of a sampled replay: one [`SimResults`] per
/// representative interval, in plan order, plus the shared policy
/// report and exported artifacts.
pub(crate) struct SampledRun {
    /// Per-interval measured results, plan order.
    pub results: Vec<SimResults>,
    /// Scheme-specific report metrics from the end-of-run policy state.
    pub report: Vec<(String, f64)>,
    /// Epoch-resolved telemetry (sequential across intervals).
    pub epochs: EpochSeries,
    /// Telemetry artifact files (includes `*_sampling.json`).
    pub artifacts: Vec<PathBuf>,
}

/// Run `scheme` over a sampled-replay plan: functionally warm to each
/// representative interval, run a detailed-but-unmeasured ramp, then
/// measure. The sampling manifest is attached to the telemetry sink so
/// exported artifact sets are self-describing.
pub(crate) fn run_traces_sampled(
    params: &RunParams,
    traces: Vec<Box<dyn chrome_sim::trace::TraceSource>>,
    scheme: &str,
    plan: &chrome_simpoint::WorkloadPlan,
    kernel: chrome_sim::Kernel,
    label: &str,
    artifact_tag: Option<&str>,
) -> SampledRun {
    let policy = build_any_slot(scheme).unwrap_or_else(|| panic!("unknown scheme {scheme}"));
    let mut sys = System::with_policy(params.sim_config(), traces, policy);
    if params.telemetry_out.is_some() || params.record_epochs {
        sys.set_telemetry(TelemetrySink::recording(TelemetryConfig::default()));
    }
    sys.telemetry().set_sampling(sampling_manifest(plan));
    let results = sys.run_sampled(&plan.to_sim_plan(), kernel);
    let report = sys.hierarchy().llc.policy.report();
    let epochs = sys
        .telemetry()
        .with(|t| t.epochs.clone())
        .unwrap_or_default();
    let artifacts = if let Some(dir) = &params.telemetry_out {
        sys.telemetry()
            .export(dir, &artifact_prefix(label, scheme, artifact_tag))
            .unwrap_or_else(|e| panic!("telemetry export to {dir:?} failed: {e}"))
    } else {
        Vec::new()
    };
    SampledRun {
        results,
        report,
        epochs,
        artifacts,
    }
}

/// Functional-only profiling pass over a plan's aligned interval grid:
/// a fresh system (same scheme, same deterministic initial state as
/// the sampled run) walks the whole trace with the functional model,
/// yielding the per-interval control variates
/// [`chrome_simpoint::reconstruct::reconstruct_with_profile`] pairs
/// with detailed measurements. Costs zero detailed instructions.
pub(crate) fn run_functional_profile(
    params: &RunParams,
    traces: Vec<Box<dyn chrome_sim::trace::TraceSource>>,
    scheme: &str,
    plan: &chrome_simpoint::WorkloadPlan,
) -> chrome_sim::FunctionalProfile {
    let policy = build_any_slot(scheme).unwrap_or_else(|| panic!("unknown scheme {scheme}"));
    let mut sys = System::with_policy(params.sim_config(), traces, policy);
    sys.run_functional_profile(&plan.boundaries)
}

/// JSON manifest describing a sampled run's shape — the contract
/// `tldiff` uses to refuse silently diffing sampled against full runs.
pub(crate) fn sampling_manifest(plan: &chrome_simpoint::WorkloadPlan) -> String {
    let segments: Vec<String> = plan
        .segments
        .iter()
        .map(|s| {
            format!(
                "{{\"interval\":{},\"weight\":{},\"detail\":{}}}",
                s.interval,
                chrome_exec::json::num(s.weight),
                s.detail
            )
        })
        .collect();
    format!(
        "{{\"spec\":\"{}\",\"segments\":[{}],\"total_instructions\":{},\
         \"detailed_instructions\":{}}}",
        plan.spec.render(),
        segments.join(","),
        plan.total_instructions,
        plan.detailed_instructions,
    )
}

/// Geometric mean of a slice (ignores non-positive values defensively).
pub fn geomean(values: &[f64]) -> f64 {
    let vals: Vec<f64> = values.iter().copied().filter(|&v| v > 0.0).collect();
    if vals.is_empty() {
        return 0.0;
    }
    (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RunParams {
        RunParams {
            cores: 1,
            instructions: 30_000,
            warmup: 3_000,
            ..Default::default()
        }
    }

    #[test]
    fn run_workload_produces_results() {
        let r = run_workload(&quick(), "libquantum", "LRU");
        assert!(r.ipc_sum() > 0.0);
        assert!(r.results.llc.demand_accesses > 0);
    }

    #[test]
    fn weighted_speedup_vs_self_is_one() {
        let r = run_workload(&quick(), "gcc", "LRU");
        assert!((r.weighted_speedup_vs(&r) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chrome_report_is_populated() {
        let r = run_workload(&quick(), "mcf", "CHROME");
        assert!(r.report.iter().any(|(k, _)| k == "upksa"));
    }

    #[test]
    fn profile_run_populates_attrib_exactly() {
        let params = RunParams {
            warmup: 0,
            profile: true,
            ..quick()
        };
        let r = run_workload(&params, "libquantum", "LRU");
        let attrib = r.attrib.expect("profiling run returns attrib state");
        if cfg!(feature = "telemetry") {
            assert!(attrib.total_requests() > 0);
            assert_eq!(attrib.mismatches(), 0, "per-stage sums must telescope");
        }
        let plain = run_workload(&quick(), "libquantum", "LRU");
        assert!(plain.attrib.is_none());
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, 0.0]) - 2.0).abs() < 1e-12); // ignores zero
    }

    #[test]
    fn mix_runs_multiple_cores() {
        let params = RunParams {
            cores: 2,
            instructions: 20_000,
            warmup: 2_000,
            ..Default::default()
        };
        let r = run_mix(&params, &["mcf", "libquantum"], "LRU");
        assert_eq!(r.results.per_core.len(), 2);
    }

    /// Diagnostic (opt-in): isolate plan-selection error from
    /// functional-gap state error. Runs every interval with contiguous
    /// timed state (exhaustive plan, ramp 0), then reconstructs the
    /// full-run metrics from the k-plan's representatives using those
    /// oracle-state per-interval results. The residual is pure
    /// clustering/selection error; the gap to a real sampled run is
    /// functional-warmup state error.
    ///
    /// `SP_TRACE_DIR` must point at recorded traces;
    /// `SP_WORKLOADS`/`SP_SCHEME`/`SP_SAMPLING` narrow the sweep.
    #[test]
    #[ignore = "diagnostic: needs recorded traces in SP_TRACE_DIR"]
    fn oracle_state_reconstruction() {
        use chrome_simpoint::{build_plan_windowed, reconstruct, SamplingSpec};
        let dir = std::env::var("SP_TRACE_DIR").expect("SP_TRACE_DIR");
        let wls = std::env::var("SP_WORKLOADS").unwrap_or_else(|_| "pr-or".into());
        let scheme = std::env::var("SP_SCHEME").unwrap_or_else(|_| "LRU".into());
        let spec_str =
            std::env::var("SP_SAMPLING").unwrap_or_else(|_| "k=26,ramp=2200,reps=3".into());
        let mut params = RunParams {
            cores: 1,
            instructions: 6_000_000,
            warmup: 60_000,
            ..Default::default()
        };
        // SP_PREFETCH=none isolates prefetcher-state divergence from
        // demand-path divergence across functional gaps.
        if std::env::var("SP_PREFETCH").as_deref() == Ok("none") {
            params.prefetchers = chrome_sim::PrefetcherConfig::none();
        }
        let index = chrome_tracefile::TraceIndex::scan(std::path::Path::new(&dir)).unwrap();
        for wl in wls.split(',') {
            let seed = chrome_exec::workload_seed(wl, 1, params.seed);
            let entry = index.lookup(wl, 1, seed).expect("trace recorded");
            let tf = chrome_tracefile::TraceFile::open(&entry.path).unwrap();
            let exhaustive = SamplingSpec {
                k: usize::MAX / 2,
                ramp: 0,
                reps: 1,
            };
            let ex = build_plan_windowed(&tf, exhaustive, seed, params.warmup, params.instructions)
                .unwrap();
            let truth = run_traces_sampled(
                &params,
                tf.sources().unwrap(),
                &scheme,
                &ex,
                chrome_sim::Kernel::EventDriven,
                wl,
                None,
            );
            let w_ex: Vec<f64> = ex.segments.iter().map(|s| s.weight).collect();
            let full = reconstruct::reconstruct(&w_ex, &truth.results);
            let spec = SamplingSpec::parse(&spec_str).unwrap();
            let mut plan =
                build_plan_windowed(&tf, spec, seed, params.warmup, params.instructions).unwrap();
            // SP_RUNS=NxM replaces the clustered plan with N evenly
            // spaced systematic runs of M consecutive intervals each —
            // probes how state error scales with measured-run length.
            if let Ok(runs) = std::env::var("SP_RUNS") {
                let (n_runs, run_len) = runs.split_once('x').unwrap();
                let (n_runs, run_len): (usize, usize) =
                    (n_runs.parse().unwrap(), run_len.parse().unwrap());
                let spacing = ex.segments.len() / n_runs;
                let mut segs = Vec::new();
                for r in 0..n_runs {
                    let i = r * spacing + (spacing - run_len) / 2;
                    let group = &ex.segments[i..i + run_len];
                    segs.push(chrome_simpoint::Segment {
                        interval: group[0].interval,
                        weight: group.iter().map(|s| s.weight).sum(),
                        start: group[0].start.clone(),
                        detail: group.iter().map(|s| s.detail).sum(),
                    });
                }
                plan.detailed_instructions = segs.iter().map(|s| s.detail + plan.spec.ramp).sum();
                plan.segments = segs;
            }
            // SP_PROLOGUE=N prepends a weight-0 timed segment over the
            // last N warmup instructions, mirroring the full run's
            // timed warmup before the first functional gap.
            if let Ok(n) = std::env::var("SP_PROLOGUE") {
                let n: u64 = n.parse().unwrap();
                let n = n.min(params.warmup);
                if n > 0 {
                    plan.segments.insert(
                        0,
                        chrome_simpoint::Segment {
                            interval: usize::MAX,
                            weight: 0.0,
                            start: vec![params.warmup - n; 1],
                            detail: n,
                        },
                    );
                    plan.detailed_instructions += n;
                }
            }
            let by_interval: std::collections::HashMap<usize, &chrome_sim::SimResults> = ex
                .segments
                .iter()
                .zip(&truth.results)
                .map(|(s, r)| (s.interval, r))
                .collect();
            let sel: Vec<chrome_sim::SimResults> = plan
                .segments
                .iter()
                .filter(|s| s.interval != usize::MAX)
                .map(|s| by_interval[&s.interval].clone())
                .collect();
            let w_sel: Vec<f64> = plan
                .segments
                .iter()
                .filter(|s| s.interval != usize::MAX)
                .map(|s| s.weight)
                .collect();
            let w: Vec<f64> = plan.segments.iter().map(|s| s.weight).collect();
            let oracle = reconstruct::reconstruct(&w_sel, &sel);
            let real_run = run_traces_sampled(
                &params,
                tf.sources().unwrap(),
                &scheme,
                &plan,
                chrome_sim::Kernel::EventDriven,
                wl,
                None,
            );
            let real = reconstruct::reconstruct(&w, &real_run.results);
            let pct = |a: f64, b: f64| 100.0 * (a - b) / b;
            // SP_DETAIL=1 prints per-interval sampled-vs-oracle stat
            // deltas to localize which machine state diverges.
            if std::env::var("SP_DETAIL").as_deref() == Ok("1") {
                for ((seg, s), o) in plan
                    .segments
                    .iter()
                    .zip(&real_run.results)
                    .filter(|(seg, _)| seg.interval != usize::MAX)
                    .zip(&sel)
                {
                    eprintln!(
                        "  iv {:>4} w {:.3}: ipc {:+6.2}% dmiss {:+6.2}% l2pf {:+6.2}% \
                         llcpf {:+6.2}% pfuse {:+6.2}% shed {:+6.2}% [o: dmiss {} l2pf {} shed {}]",
                        seg.interval,
                        seg.weight,
                        pct(s.ipc_sum(), o.ipc_sum()),
                        pct(
                            s.llc.demand_misses as f64,
                            o.llc.demand_misses.max(1) as f64
                        ),
                        pct(
                            s.l2.iter().map(|c| c.prefetch_accesses).sum::<u64>() as f64,
                            o.l2.iter().map(|c| c.prefetch_accesses).sum::<u64>().max(1) as f64
                        ),
                        pct(
                            s.llc.prefetch_accesses as f64,
                            o.llc.prefetch_accesses.max(1) as f64
                        ),
                        pct(
                            s.llc.prefetch_useful as f64,
                            o.llc.prefetch_useful.max(1) as f64
                        ),
                        pct(
                            (s.llc.prefetch_dropped
                                + s.l2.iter().map(|c| c.prefetch_dropped).sum::<u64>())
                                as f64,
                            (o.llc.prefetch_dropped
                                + o.l2.iter().map(|c| c.prefetch_dropped).sum::<u64>())
                            .max(1) as f64
                        ),
                        o.llc.demand_misses,
                        o.l2.iter().map(|c| c.prefetch_accesses).sum::<u64>(),
                        o.llc.prefetch_dropped
                            + o.l2.iter().map(|c| c.prefetch_dropped).sum::<u64>(),
                    );
                }
            }
            eprintln!(
                "{wl}: full ipc {:.4} mpki {:.3} | oracle({}) ipc {:+.2}% mpki {:+.2}% | sampled ipc {:+.2}% mpki {:+.2}%",
                full.ipc,
                full.mpki,
                plan.segments.len(),
                pct(oracle.ipc, full.ipc),
                pct(oracle.mpki, full.mpki),
                pct(real.ipc, full.ipc),
                pct(real.mpki, full.mpki),
            );
        }
    }
}
