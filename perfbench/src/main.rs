//! The repository's benchmark. One workload per run:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1`
//! the per-layer split, and as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md` in
//! this directory for what each workload and metric means.

mod layers;
mod report;
mod serve;
mod sim;

use std::process::ExitCode;
use std::time::Instant;

use report::Metrics;
use serve::ServeSize;
use sim::SimSize;

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Every per-layer metric and its unit. A traced run reports all of
/// them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("traced_wall_ns", "ns"),
    ("tracing_overhead", "ratio"),
    ("tracing.timer_ns", "ns"),
    ("unattributed_ns", "ns"),
    ("host_ns_per_op", "ns"),
    ("trace.records", "count"),
    ("trace.ns_per_record", "ns"),
    ("trace.share", "ratio"),
    ("policy.on_hit.calls", "count"),
    ("policy.on_hit.ns_per_call", "ns"),
    ("policy.on_miss.calls", "count"),
    ("policy.on_miss.ns_per_call", "ns"),
    ("policy.choose_victim.calls", "count"),
    ("policy.choose_victim.ns_per_call", "ns"),
    ("policy.on_fill.calls", "count"),
    ("policy.on_fill.ns_per_call", "ns"),
    ("policy.on_evict.calls", "count"),
    ("policy.on_evict.ns_per_call", "ns"),
    ("policy.on_epoch.calls", "count"),
    ("policy.on_epoch.ns_per_call", "ns"),
    ("policy.share", "ratio"),
    ("agent.q_updates", "count"),
    ("agent.sampled_accesses", "count"),
    ("agent.explorations", "count"),
    ("agent.bypasses", "count"),
    ("sim.cycles", "cycles"),
    ("sim.ipc", "instr/cycle"),
    ("hier.residual_ns", "ns"),
    ("l1d.accesses", "count"),
    ("l1d.miss_ratio", "ratio"),
    ("l2.accesses", "count"),
    ("l2.miss_ratio", "ratio"),
    ("llc.accesses", "count"),
    ("llc.miss_ratio", "ratio"),
    ("llc.bypass_ratio", "ratio"),
    ("llc.prefetch_useful_ratio", "ratio"),
    ("dram.reads", "count"),
    ("dram.writes", "count"),
    ("dram.row_hit_rate", "ratio"),
    ("dram.avg_read_latency_cyc", "cycles"),
    ("mmu.ns_per_translate", "ns"),
    ("mmu.share", "ratio"),
    ("llc.ns_per_access", "ns"),
    ("llc.share", "ratio"),
    ("dram.ns_per_access", "ns"),
    ("dram.share", "ratio"),
    ("camat.llc_cyc", "cycles"),
    ("obstructed_epoch_share", "ratio"),
    ("noc.messages", "count"),
    ("noc.link_wait_cyc", "cycles"),
    ("noc.slice_imbalance", "ratio"),
    ("noc.ns_per_route", "ns"),
    ("noc.share", "ratio"),
    ("serve.admit.calls", "count"),
    ("serve.admit.ns_per_call", "ns"),
    ("serve.hit.calls", "count"),
    ("serve.hit.ns_per_call", "ns"),
    ("serve.victim.calls", "count"),
    ("serve.victim.ns_per_call", "ns"),
    ("serve.insert.calls", "count"),
    ("serve.insert.ns_per_call", "ns"),
    ("serve.policy.share", "ratio"),
    ("serve.shard_index.ns_per_key", "ns"),
    ("serve.shard_index.share", "ratio"),
    ("serve.store.residual_ns", "ns"),
    ("serve.admit_ratio", "ratio"),
    ("serve.hit_ratio", "ratio"),
    ("serve.resident_bytes", "bytes"),
];

/// Start a traced run's metric set with every per-layer metric at 0.
pub fn zero_per_layer(m: &mut Metrics) {
    for &(name, unit) in PER_LAYER {
        m.set(name, 0.0, unit);
    }
}

/// Call `step` until `seconds` have passed and at least `min_reps`
/// times; `step` gets the repetition index.
pub fn repeat(seconds: f64, min_reps: usize, mut step: impl FnMut(usize)) {
    let start = Instant::now();
    let mut n = 0;
    while n < min_reps || start.elapsed().as_secs_f64() < seconds {
        step(n);
        n += 1;
    }
}

enum Workload {
    Sim(sim::SimSpec, SimSize),
    Serve(ServeSize),
}

fn workload(name: &str, tiny: bool) -> Option<Workload> {
    let w = match (name, tiny) {
        ("sim-4c-mix-chrome", false) => Workload::Sim(
            sim::MIX_4C,
            SimSize {
                warmup: 400_000,
                chunk: 5_000,
                chunks: 100,
            },
        ),
        ("sim-4c-mix-chrome", true) => Workload::Sim(
            sim::MIX_4C,
            SimSize {
                warmup: 5_000,
                chunk: 2_000,
                chunks: 4,
            },
        ),
        ("sim-64c-mesh-lru", false) => Workload::Sim(
            sim::MESH_64C,
            SimSize {
                warmup: 20_000,
                chunk: 1_000,
                chunks: 20,
            },
        ),
        ("sim-64c-mesh-lru", true) => Workload::Sim(
            sim::MESH_64C,
            SimSize {
                warmup: 1_000,
                chunk: 500,
                chunks: 4,
            },
        ),
        ("serve-mixed-chrome", false) => Workload::Serve(ServeSize {
            warmup: 100_000,
            measured: 150_000,
        }),
        ("serve-mixed-chrome", true) => Workload::Serve(ServeSize {
            warmup: 2_000,
            measured: 9_000,
        }),
        _ => return None,
    };
    Some(w)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad --seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--size" => {
                tiny = match value.as_str() {
                    "full" => false,
                    "tiny" => true,
                    _ => return Err(format!("--size takes full or tiny, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload, args.tiny) else {
        eprintln!(
            "perfbench: unknown workload {} (sim-4c-mix-chrome, sim-64c-mesh-lru, serve-mixed-chrome)",
            args.workload
        );
        return ExitCode::from(2);
    };
    let mut out = match (w, args.trace) {
        (Workload::Sim(spec, size), false) => sim::run(&spec, &size, args.seed, args.seconds),
        (Workload::Sim(spec, size), true) => sim::run_traced(&spec, &size, args.seed, args.seconds),
        (Workload::Serve(size), false) => serve::run(&size, args.seed, args.seconds),
        (Workload::Serve(size), true) => serve::run_traced(&size, args.seed, args.seconds),
    };
    let bad = out.metrics.non_finite();
    if !bad.is_empty() {
        out.notes
            .push(format!("non-finite metrics: {}", bad.join(", ")));
        out.failed += 1;
    }
    println!(
        "perfbench {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for n in &out.notes {
        println!("  {n}");
    }
    print!("{}", out.metrics.table());
    let correct = out.failed == 0;
    println!(
        "{}",
        out.metrics
            .json_line(correct, out.attempted.max(1), out.failed)
    );
    ExitCode::SUCCESS
}
