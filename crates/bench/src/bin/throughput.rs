//! Simulator-throughput matrix benchmark: wall-clock cost of the paper
//! grid's inner loop across workloads, core counts and schemes.
//!
//! Each cell of the matrix (workload x cores x scheme) is timed under
//! the event-driven kernel with best-of-N repetitions — the minimum
//! elapsed time over `--reps` runs — because the benchmark box is a
//! shared machine whose per-run noise is one-sided (interference only
//! ever makes a run slower). Warmup instructions run *untimed* before
//! the measured region, so small cells are not dominated by cache/page
//! ramp-up. One reference-kernel run per cell provides the
//! event-vs-reference speedup; the differential tests guarantee both
//! kernels produce identical results, so the ratio is a pure
//! scheduling-overhead measurement.
//!
//! ```text
//! throughput [--workloads A,B,...] [--core-counts 1,4,16]
//!            [--schemes A,B,...] [--reps N] [--out FILE]
//!            [--baseline FILE] [common flags: --quick, --seed, ...]
//! ```
//!
//! With `--out FILE` a machine-readable summary is written (the
//! checked-in `BENCH_sim_throughput.json` is one of these). With
//! `--baseline FILE` the run exits non-zero if any matrix cell's MIPS
//! fell more than 10% below the same cell in the baseline, or if the
//! aggregate did — the CI perf-smoke regression gate. Baseline cells
//! with no counterpart in the current run (and vice versa) are skipped,
//! so the gate tolerates matrix reshapes.

use std::time::Instant;

use chrome_bench::registry::build_any_slot;
use chrome_bench::runner::RunParams;
use chrome_exec::json;
use chrome_sim::{Kernel, System};
use chrome_traces::mix;

/// Per-cell and aggregate MIPS floor vs the checked-in baseline: fail
/// on a >10% drop (CI gate). Best-of-N timing keeps the noise inside
/// this band on the shared benchmark box.
const MIPS_REGRESSION_FLOOR: f64 = 0.9;

/// Default measured instructions per core. Small enough that the full
/// 18-cell matrix runs in seconds, large enough that per-cell elapsed
/// time (with warmup untimed) is dominated by the simulation loop.
const DEFAULT_INSTRUCTIONS: u64 = 400_000;
const DEFAULT_WARMUP: u64 = 80_000;

fn arg_string(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn arg_list(name: &str, default: &[&str]) -> Vec<String> {
    match arg_string(name) {
        Some(s) => s
            .split(',')
            .filter(|x| !x.is_empty())
            .map(Into::into)
            .collect(),
        None => default.iter().map(|s| s.to_string()).collect(),
    }
}

#[derive(Clone)]
struct CellTiming {
    workload: String,
    cores: usize,
    scheme: String,
    /// Canonical mesh-NoC spec; empty = uniform-latency LLC. Part of
    /// the cell key (suffix) only when set, so pre-NoC baselines keep
    /// matching their cells.
    noc: String,
    sim_cycles: u64,
    /// Total measured instructions (per-core quota x cores).
    instructions: u64,
    /// Best-of-N event-kernel elapsed seconds.
    event_elapsed: f64,
    /// Single-run reference-kernel elapsed seconds.
    reference_elapsed: f64,
}

impl CellTiming {
    fn mips(&self) -> f64 {
        self.instructions as f64 / self.event_elapsed / 1e6
    }

    fn speedup(&self) -> f64 {
        self.reference_elapsed / self.event_elapsed
    }

    /// Stable identity of a cell across runs (the gate's join key).
    fn key(&self) -> String {
        if self.noc.is_empty() {
            format!("{}/{}c/{}", self.workload, self.cores, self.scheme)
        } else {
            format!("{}/{}c/{}/noc", self.workload, self.cores, self.scheme)
        }
    }
}

/// Run one (workload, cores, scheme, kernel) configuration once:
/// untimed warmup, then a timed measured region. Returns (elapsed
/// seconds, measured simulated cycles).
fn run_once(
    params: &RunParams,
    workload: &str,
    cores: usize,
    scheme: &str,
    noc: &str,
    kernel: Kernel,
) -> (f64, u64) {
    let traces = mix::homogeneous(workload, cores, params.seed)
        .unwrap_or_else(|| panic!("unknown workload {workload}"));
    let policy = build_any_slot(scheme).unwrap_or_else(|| panic!("unknown scheme {scheme}"));
    let mut p = params.clone();
    p.cores = cores;
    p.noc = noc.to_string();
    let mut sys = System::with_policy(p.sim_config(), traces, policy);
    // Warm caches, TLBs, DRAM rows and policy state outside the timed
    // region (the warmup quota is measured-but-discarded).
    if params.warmup > 0 {
        sys.run_with_kernel(params.warmup, 0, kernel);
    }
    let t0 = Instant::now();
    let results = sys.run_with_kernel(params.instructions, 0, kernel);
    (t0.elapsed().as_secs_f64().max(1e-9), results.total_cycles)
}

/// Time one matrix cell: best-of-`reps` under the event kernel plus one
/// reference-kernel run, with the cycle-count cross-check.
fn time_cell(
    params: &RunParams,
    workload: &str,
    cores: usize,
    scheme: &str,
    noc: &str,
    reps: usize,
) -> CellTiming {
    let mut event_elapsed = f64::INFINITY;
    let mut sim_cycles = 0;
    for _ in 0..reps.max(1) {
        let (elapsed, cycles) = run_once(params, workload, cores, scheme, noc, Kernel::EventDriven);
        event_elapsed = event_elapsed.min(elapsed);
        sim_cycles = cycles;
    }
    let (reference_elapsed, ref_cycles) =
        run_once(params, workload, cores, scheme, noc, Kernel::Reference);
    assert_eq!(
        sim_cycles, ref_cycles,
        "kernels must simulate identical cycle counts ({workload}/{cores}c/{scheme})"
    );
    CellTiming {
        workload: workload.to_string(),
        cores,
        scheme: scheme.to_string(),
        noc: noc.to_string(),
        sim_cycles,
        instructions: params.instructions * cores as u64,
        event_elapsed,
        reference_elapsed,
    }
}

fn main() {
    let mut params = RunParams::from_args_ignoring(&[
        "--workloads",
        "--core-counts",
        "--schemes",
        "--reps",
        "--out",
        "--baseline",
        "--merge-baseline",
        "--noc-core-counts",
    ]);
    // Bench-specific quota defaults (the library default of 3M/core is
    // sized for experiments, not an 18-cell matrix); explicit
    // --instructions / --warmup still win.
    let args: Vec<String> = std::env::args().collect();
    if !args.iter().any(|a| a == "--instructions") {
        params.instructions = DEFAULT_INSTRUCTIONS;
        if args.iter().any(|a| a == "--quick") {
            params.instructions /= 10;
        }
    }
    if !args.iter().any(|a| a == "--warmup") {
        params.warmup = DEFAULT_WARMUP;
        if args.iter().any(|a| a == "--quick") {
            params.warmup /= 10;
        }
    }

    let workloads = arg_list("--workloads", &["mcf", "libquantum", "bfs-ur"]);
    let core_counts: Vec<usize> = arg_list("--core-counts", &["1", "4", "16"])
        .iter()
        .map(|s| s.parse().expect("--core-counts takes numbers"))
        .collect();
    let schemes = arg_list("--schemes", &["LRU", "CHROME"]);
    let reps: usize = arg_string("--reps").map_or(3, |s| s.parse().expect("--reps takes a number"));

    println!(
        "== sim throughput matrix: {} instr/core, warmup {} (untimed), best of {reps}, probe \
         kernel {} ==",
        params.instructions,
        params.warmup,
        chrome_sim::probe::kernel_name()
    );
    println!(
        "{:<24} {:>12} {:>12} {:>10} {:>9}",
        "cell", "Mcycles/s", "MIPS", "event(s)", "speedup"
    );

    let mut cells = Vec::new();
    let mut run = |workload: &str, cores: usize, scheme: &str, noc: &str| {
        let cell = time_cell(&params, workload, cores, scheme, noc, reps);
        println!(
            "{:<24} {:>12.2} {:>12.2} {:>10.3} {:>8.2}x",
            cell.key(),
            cell.sim_cycles as f64 / cell.event_elapsed / 1e6,
            cell.mips(),
            cell.event_elapsed,
            cell.speedup()
        );
        cells.push(cell);
    };
    for workload in &workloads {
        for &cores in &core_counts {
            for scheme in &schemes {
                run(workload, cores, scheme, "");
            }
        }
    }
    // Mesh-NoC cells: the sliced-LLC hot path (routing, link queues,
    // per-slice accounting) has its own cost profile, so it gets its own
    // gated rows at the scaling sweep's machine sizes. One slice per
    // four cores, matching the scaling_sweep experiment.
    let noc_core_counts: Vec<usize> = arg_list("--noc-core-counts", &["16", "64"])
        .iter()
        .map(|s| s.parse().expect("--noc-core-counts takes numbers"))
        .collect();
    for &cores in &noc_core_counts {
        let noc = chrome_noc::NocConfig {
            slices: (cores / 4).max(1),
            ..chrome_noc::NocConfig::default()
        }
        .canonical();
        for scheme in &schemes {
            run(&workloads[0], cores, scheme, &noc);
        }
    }

    let total_instr: u64 = cells.iter().map(|c| c.instructions).sum();
    let total_event: f64 = cells.iter().map(|c| c.event_elapsed).sum();
    let total_ref: f64 = cells.iter().map(|c| c.reference_elapsed).sum();
    let aggregate_mips = total_instr as f64 / total_event / 1e6;
    let aggregate_speedup = total_ref / total_event;
    println!(
        "aggregate: {aggregate_mips:.2} MIPS, event-driven speedup {aggregate_speedup:.2}x over \
         reference"
    );

    if let Some(path) = arg_string("--out") {
        let payload = render_json(&params, reps, &cells, aggregate_mips, aggregate_speedup);
        std::fs::write(&path, payload).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }

    if let Some(path) = arg_string("--merge-baseline") {
        merge_baseline(&path, &params, reps, cells.as_slice());
    }

    if let Some(path) = arg_string("--baseline") {
        let failures = check_baseline(&path, &params, &cells, aggregate_mips);
        if failures > 0 {
            eprintln!("THROUGHPUT REGRESSION: {failures} gate(s) failed against {path}");
            std::process::exit(1);
        }
    }
}

/// Apply the per-cell and aggregate regression gates against a baseline
/// JSON. Returns the number of failed gates (0 = pass).
///
/// MIPS is not scale-invariant: short `--quick` cells are dominated by
/// fixed per-run costs (system construction, first-touch page mapping),
/// so their throughput sits far below the same cell at full scale.
/// Gates therefore only engage when the baseline was measured at the
/// same per-core instruction count as this run; otherwise the
/// comparison is reported as skipped and passes.
fn check_baseline(
    path: &str,
    params: &RunParams,
    cells: &[CellTiming],
    aggregate_mips: f64,
) -> u32 {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let doc = json::parse(&text).unwrap_or_else(|| panic!("{path}: malformed JSON"));
    let mut failures = 0;

    let base_scale = doc
        .get("instructions_per_core")
        .and_then(json::JsonValue::as_f64);
    if base_scale != Some(params.instructions as f64) {
        println!(
            "baseline {path} was measured at a different instruction scale ({} vs {} per core); \
             MIPS gates skipped",
            base_scale.map_or_else(|| "unknown".to_string(), |s| format!("{s:.0}")),
            params.instructions
        );
        return 0;
    }

    // Per-cell gates over the intersection of the two matrices, while
    // accumulating both sides' matched totals so the aggregate gate
    // compares the *same* cell set (a reduced smoke matrix against a
    // full-matrix baseline would otherwise compare different mixes of
    // cheap and expensive cells).
    let mut matched = 0usize;
    let mut base_instr = 0u64;
    let mut base_elapsed = 0.0f64;
    let mut cur_instr = 0u64;
    let mut cur_elapsed = 0.0f64;
    for base in cells_from_json(path, &doc) {
        let Some(cur) = cells.iter().find(|c| c.key() == base.key()) else {
            continue; // matrix reshapes are not regressions
        };
        matched += 1;
        base_instr += base.instructions;
        base_elapsed += base.event_elapsed;
        cur_instr += cur.instructions;
        cur_elapsed += cur.event_elapsed;
        let base_mips = base.mips();
        let floor = base_mips * MIPS_REGRESSION_FLOOR;
        let cur_mips = cur.mips();
        let verdict = if cur_mips < floor { "FAIL" } else { "ok" };
        println!(
            "gate {:<24} current {cur_mips:>8.2} MIPS vs baseline {base_mips:>8.2} (floor \
             {floor:>8.2}) {verdict}",
            cur.key()
        );
        if cur_mips < floor {
            failures += 1;
        }
    }

    let (label, base_mips, cur_mips) = if matched > 0 {
        (
            "aggregate (matched)",
            base_instr as f64 / base_elapsed / 1e6,
            cur_instr as f64 / cur_elapsed / 1e6,
        )
    } else {
        // No shared cells (e.g. a schema-1 baseline without a cell
        // array): fall back to the stored whole-run aggregate.
        let stored = doc
            .get("aggregate_mips")
            .and_then(json::JsonValue::as_f64)
            .unwrap_or_else(|| panic!("{path}: missing aggregate_mips"));
        ("aggregate", stored, aggregate_mips)
    };
    let floor = base_mips * MIPS_REGRESSION_FLOOR;
    let verdict = if cur_mips < floor { "FAIL" } else { "ok" };
    println!(
        "gate {label:<24} current {cur_mips:>8.2} MIPS vs baseline {base_mips:>8.2} (floor \
         {floor:>8.2}) {verdict}"
    );
    if cur_mips < floor {
        failures += 1;
    }
    failures
}

/// Parse a schema-2 baseline document's cell array back into timings.
fn cells_from_json(path: &str, doc: &json::JsonValue) -> Vec<CellTiming> {
    let Some(rows) = doc.get("cells").and_then(json::JsonValue::as_arr) else {
        return Vec::new();
    };
    rows.iter()
        .map(|row| {
            let field = |name: &str| {
                row.get(name)
                    .unwrap_or_else(|| panic!("{path}: baseline cell missing {name}"))
            };
            CellTiming {
                workload: field("workload")
                    .as_str()
                    .unwrap_or_else(|| panic!("{path}: bad workload"))
                    .to_string(),
                // Absent in pre-NoC baselines: tolerate, meaning "off".
                noc: row
                    .get("noc")
                    .and_then(json::JsonValue::as_str)
                    .unwrap_or("")
                    .to_string(),
                cores: field("cores")
                    .as_u64()
                    .unwrap_or_else(|| panic!("{path}: bad cores")) as usize,
                scheme: field("scheme")
                    .as_str()
                    .unwrap_or_else(|| panic!("{path}: bad scheme"))
                    .to_string(),
                sim_cycles: field("sim_cycles")
                    .as_u64()
                    .unwrap_or_else(|| panic!("{path}: bad sim_cycles")),
                instructions: field("instructions")
                    .as_u64()
                    .unwrap_or_else(|| panic!("{path}: bad instructions")),
                event_elapsed: field("event_elapsed_sec")
                    .as_f64()
                    .unwrap_or_else(|| panic!("{path}: bad event_elapsed_sec")),
                reference_elapsed: field("reference_elapsed_sec")
                    .as_f64()
                    .unwrap_or_else(|| panic!("{path}: bad reference_elapsed_sec")),
            }
        })
        .collect()
}

/// Fold this run into the baseline at `path`, keeping the *slower*
/// record per cell (and any baseline cells this run did not revisit),
/// then rewrite the file with recomputed aggregates.
///
/// A drop-gate is only as good as its baseline: one lucky fast run
/// checked in as the yardstick turns every subsequent honest run into a
/// "regression" on a noisy host. Repeated `--merge-baseline` refreshes
/// ratchet the baseline toward the slowest best-of-N observed per cell
/// — the conservative envelope the 10% floor is meant to police. A
/// baseline at a different instruction scale (or missing) is replaced
/// outright.
fn merge_baseline(path: &str, params: &RunParams, reps: usize, cells: &[CellTiming]) {
    let mut merged: Vec<CellTiming> = match std::fs::read_to_string(path) {
        Ok(text) => {
            let doc = json::parse(&text).unwrap_or_else(|| panic!("{path}: malformed JSON"));
            let base_scale = doc
                .get("instructions_per_core")
                .and_then(json::JsonValue::as_f64);
            if base_scale == Some(params.instructions as f64) {
                cells_from_json(path, &doc)
            } else {
                println!("baseline {path} is at a different instruction scale; replacing");
                Vec::new()
            }
        }
        Err(_) => Vec::new(),
    };
    for cur in cells {
        match merged.iter_mut().find(|b| b.key() == cur.key()) {
            Some(base) if base.mips() <= cur.mips() => {}
            Some(base) => *base = cur.clone(),
            None => merged.push(cur.clone()),
        }
    }
    let total_instr: u64 = merged.iter().map(|c| c.instructions).sum();
    let total_event: f64 = merged.iter().map(|c| c.event_elapsed).sum();
    let total_ref: f64 = merged.iter().map(|c| c.reference_elapsed).sum();
    let aggregate_mips = total_instr as f64 / total_event / 1e6;
    let aggregate_speedup = total_ref / total_event;
    let payload = render_json(params, reps, &merged, aggregate_mips, aggregate_speedup);
    std::fs::write(path, payload).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!(
        "merged into {path}: {} cell(s), aggregate {aggregate_mips:.2} MIPS (slowest per-cell \
         records kept)",
        merged.len()
    );
}

/// A JSON string literal (escaped and quoted).
fn quoted(s: &str) -> String {
    format!("\"{}\"", json::escape(s))
}

fn render_json(
    params: &RunParams,
    reps: usize,
    cells: &[CellTiming],
    aggregate_mips: f64,
    aggregate_speedup: f64,
) -> String {
    let cell_rows: Vec<String> = cells
        .iter()
        .map(|c| {
            let noc = if c.noc.is_empty() {
                String::new()
            } else {
                format!("\"noc\":{},", quoted(&c.noc))
            };
            format!(
                "    {{\"workload\":{},\"cores\":{},\"scheme\":{},{noc}\"sim_cycles\":{},\
                 \"instructions\":{},\"event_elapsed_sec\":{:.4},\"reference_elapsed_sec\":{:.4},\
                 \"mips\":{:.3},\"speedup\":{:.3}}}",
                quoted(&c.workload),
                c.cores,
                quoted(&c.scheme),
                c.sim_cycles,
                c.instructions,
                c.event_elapsed,
                c.reference_elapsed,
                c.mips(),
                c.speedup(),
            )
        })
        .collect();
    format!(
        "{{\n  \"name\": \"sim_throughput\",\n  \"schema\": 2,\n  \"reps\": {},\n  \
         \"probe_kernel\": {},\n  \"instructions_per_core\": {},\n  \"warmup_per_core\": {},\n  \
         \"cells\": [\n{}\n  ],\n  \"aggregate_mips\": {:.3},\n  \"aggregate_speedup\": {:.3}\n}}\n",
        reps,
        quoted(chrome_sim::probe::kernel_name()),
        params.instructions,
        params.warmup,
        cell_rows.join(",\n"),
        aggregate_mips,
        aggregate_speedup,
    )
}
