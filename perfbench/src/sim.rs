//! The two simulator workloads: build the machine through the default
//! entry points (`System::with_policy`, `System::run`), run an untimed
//! warmup, then time a fixed measured region in equal chunks.

use std::time::Instant;

use chrome_bench::build_any_policy;
use chrome_noc::NocConfig;
use chrome_sim::policy::{BuiltinLru, PolicySlot};
use chrome_sim::trace::TraceSource;
use chrome_sim::{CacheStats, LlcPolicy, SimConfig, SimResults, System};
use chrome_traces::mix;

use crate::layers::{self, CountingSource, TimedPolicy, HOOKS};
use crate::report::{best_per_position, median, quantile, Metrics};
use crate::Outcome;

/// The LLC management scheme under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// CHROME as the paper grid builds it (`registry::build_any_policy`).
    Chrome,
    /// The simulator's built-in, statically dispatched LRU.
    Lru,
}

/// One simulator workload. Only trace-generator seeds come from the
/// benchmark seed; everything here is fixed.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    pub cores: usize,
    /// Per-core workloads, or a single name repeated on every core.
    pub mix: &'static [&'static str],
    pub scheme: Scheme,
    /// Mesh NoC spec (`NocConfig::parse` syntax); `None` = uniform LLC.
    pub noc: Option<&'static str>,
}

/// Run length, per core.
#[derive(Debug, Clone, Copy)]
pub struct SimSize {
    /// Untimed warmup instructions (part of set-up).
    pub warmup: u64,
    /// Instructions per timed chunk.
    pub chunk: u64,
    /// Timed chunks per repetition.
    pub chunks: usize,
}

pub const MIX_4C: SimSpec = SimSpec {
    cores: 4,
    mix: &["mcf", "libquantum", "omnetpp", "bfs-ur"],
    scheme: Scheme::Chrome,
    noc: None,
};

pub const MESH_64C: SimSpec = SimSpec {
    cores: 64,
    mix: &["mcf"],
    scheme: Scheme::Lru,
    noc: Some("slices=16"),
};

impl SimSpec {
    fn sources(&self, seed: u64) -> Vec<Box<dyn TraceSource>> {
        let built = if self.mix.len() == self.cores {
            mix::build_mix(self.mix, seed)
        } else {
            mix::homogeneous(self.mix[0], self.cores, seed)
        };
        built.expect("workload names are known to chrome-traces")
    }

    pub fn config(&self) -> SimConfig {
        let mut cfg = SimConfig::with_cores(self.cores);
        cfg.noc = self
            .noc
            .map(|s| NocConfig::parse(s).expect("benchmark NoC spec is valid"));
        cfg
    }

    fn boxed_policy(&self) -> Box<dyn LlcPolicy> {
        match self.scheme {
            Scheme::Chrome => build_any_policy("CHROME").expect("CHROME is registered"),
            Scheme::Lru => Box::new(BuiltinLru::new()),
        }
    }

    /// The policy exactly as the throughput matrix passes it: LRU in
    /// the static slot, everything else boxed.
    fn policy(&self) -> PolicySlot {
        match self.scheme {
            Scheme::Chrome => self.boxed_policy().into(),
            Scheme::Lru => BuiltinLru::new().into(),
        }
    }
}

/// Hierarchy counters that `SimResults` does not reset at the
/// measurement boundary, read before and after the measured region.
#[derive(Debug, Clone, Default, PartialEq)]
struct Counters {
    dram_reads: u64,
    dram_writes: u64,
    dram_row_hits: u64,
    dram_avg_read_latency: f64,
    noc_messages: u64,
    noc_link_wait: u64,
    slice_accesses: Vec<u64>,
    /// `LlcPolicy::report()` values (cumulative).
    agent: Vec<(String, f64)>,
}

impl Counters {
    fn read(sys: &System) -> Self {
        let h = sys.hierarchy();
        let noc = h.noc();
        Counters {
            dram_reads: h.dram.reads,
            dram_writes: h.dram.writes,
            dram_row_hits: h.dram.row_hits,
            dram_avg_read_latency: h.dram.avg_read_latency(),
            noc_messages: noc.map_or(0, |n| n.mesh().messages()),
            noc_link_wait: noc.map_or(0, |n| n.mesh().link_wait().iter().sum()),
            slice_accesses: noc.map_or_else(Vec::new, |n| n.slice_accesses().to_vec()),
            agent: h.llc.policy.report(),
        }
    }

    /// Measured-region deltas (`self` after, `before` at the boundary).
    fn since(&self, before: &Counters) -> Counters {
        let agent = self
            .agent
            .iter()
            .map(|(k, v)| {
                let b = before
                    .agent
                    .iter()
                    .find(|(bk, _)| bk == k)
                    .map_or(0.0, |x| x.1);
                (k.clone(), v - b)
            })
            .collect();
        Counters {
            dram_reads: self.dram_reads - before.dram_reads,
            dram_writes: self.dram_writes - before.dram_writes,
            dram_row_hits: self.dram_row_hits - before.dram_row_hits,
            dram_avg_read_latency: self.dram_avg_read_latency,
            noc_messages: self.noc_messages - before.noc_messages,
            noc_link_wait: self.noc_link_wait - before.noc_link_wait,
            slice_accesses: self
                .slice_accesses
                .iter()
                .zip(&before.slice_accesses)
                .map(|(a, b)| a - b)
                .collect(),
            agent,
        }
    }

    fn agent(&self, key: &str) -> f64 {
        self.agent
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |x| x.1)
    }
}

/// What one repetition observed.
struct Rep {
    setup_s: f64,
    measured_s: f64,
    /// Host ns per simulated instruction, one per chunk.
    chunk_ns: Vec<f64>,
    /// Every chunk's `SimResults`: the program's output under test.
    results: Vec<SimResults>,
    counters: Counters,
    /// Present on traced repetitions.
    traced: Option<TracedRep>,
}

struct TracedRep {
    hook_calls: [u64; 6],
    hook_ns: [u64; 6],
    /// Records each core read during warmup, and in the measured region.
    warm_records: Vec<u64>,
    measured_records: Vec<u64>,
    /// Per core, the digest of every record read (warmup included).
    digests: Vec<u64>,
    ledger: std::rc::Rc<std::cell::RefCell<layers::HookLedger>>,
}

/// One repetition: set up (traces, machine, untimed warmup), then the
/// timed measured region. `capture` > 0 records that many LLC accesses
/// for the standalone replays (traced repetitions only).
fn run_rep(spec: &SimSpec, size: &SimSize, seed: u64, traced: bool, capture: usize) -> Rep {
    let t0 = Instant::now();
    let sources = spec.sources(seed);
    let cfg = spec.config();
    let (mut sys, counts, ledger) = if traced {
        let (wrapped, counts): (Vec<_>, Vec<_>) =
            sources.into_iter().map(CountingSource::wrap).unzip();
        let (policy, ledger) = TimedPolicy::wrap(spec.boxed_policy());
        (
            System::with_policy(cfg, wrapped, policy),
            counts,
            Some(ledger),
        )
    } else {
        (
            System::with_policy(cfg, sources, spec.policy()),
            Vec::new(),
            None,
        )
    };
    if size.warmup > 0 {
        sys.run(size.warmup, 0);
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let read_counts = || -> Vec<u64> {
        counts
            .iter()
            .map(|t| t.count.load(std::sync::atomic::Ordering::Relaxed))
            .collect()
    };
    let warm_records = read_counts();
    if let Some(l) = &ledger {
        let mut l = l.borrow_mut();
        l.reset_counts();
        l.cap = capture;
    }
    let before = Counters::read(&sys);
    let per_chunk = (size.chunk * spec.cores as u64) as f64;
    let mut chunk_ns = Vec::with_capacity(size.chunks);
    let mut results = Vec::with_capacity(size.chunks);
    let tm = Instant::now();
    for _ in 0..size.chunks {
        let tc = Instant::now();
        let r = sys.run(size.chunk, 0);
        chunk_ns.push(tc.elapsed().as_nanos() as f64 / per_chunk);
        results.push(r);
    }
    let measured_s = tm.elapsed().as_secs_f64();
    let counters = Counters::read(&sys).since(&before);

    let traced = ledger.map(|ledger| {
        let end = read_counts();
        let (hook_calls, hook_ns) = {
            let mut l = ledger.borrow_mut();
            l.cap = 0;
            (l.calls, l.ns)
        };
        TracedRep {
            hook_calls,
            hook_ns,
            measured_records: end.iter().zip(&warm_records).map(|(e, w)| e - w).collect(),
            warm_records,
            digests: counts
                .iter()
                .map(|t| t.digest.load(std::sync::atomic::Ordering::Relaxed))
                .collect(),
            ledger,
        }
    });
    Rep {
        setup_s,
        measured_s,
        chunk_ns,
        results,
        counters,
        traced,
    }
}

/// Exact totals over a repetition's chunks.
#[derive(Default)]
struct Totals {
    instructions: u64,
    ipc: f64,
    cycles: u64,
    l1d: CacheStats,
    l2: CacheStats,
    llc: CacheStats,
    camat_llc: f64,
    obstructed_share: f64,
}

impl Totals {
    fn of(results: &[SimResults], cores: usize) -> Self {
        let mut t = Totals::default();
        let mut core_instr = vec![0u64; cores];
        let mut core_cycles = vec![0u64; cores];
        let (mut active, mut accesses, mut obstructed, mut epochs) = (0u64, 0u64, 0u64, 0u64);
        for r in results {
            t.cycles += r.total_cycles;
            t.llc.merge(&r.llc);
            for s in &r.l1d {
                t.l1d.merge(s);
            }
            for s in &r.l2 {
                t.l2.merge(s);
            }
            for (i, c) in r.per_core.iter().enumerate() {
                core_instr[i] += c.instructions;
                core_cycles[i] += c.cycles;
                active += c.llc_active_cycles;
                accesses += c.llc_accesses;
                obstructed += c.obstructed_epochs;
                epochs += c.total_epochs;
            }
        }
        t.instructions = core_instr.iter().sum();
        t.ipc = core_instr
            .iter()
            .zip(&core_cycles)
            .map(|(&i, &c)| i as f64 / c.max(1) as f64)
            .sum();
        t.camat_llc = ratio(active, accesses);
        t.obstructed_share = ratio(obstructed, epochs);
        t
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Operations checked in one repetition and how many failed: each
/// (chunk, core) must meet its quota, and the whole output must equal
/// the reference repetition's (same seed, so the same machine).
fn check(spec: &SimSpec, size: &SimSize, rep: &Rep, reference: &[SimResults]) -> (u64, u64) {
    let attempted = (size.chunks * spec.cores) as u64;
    let mut failed = 0u64;
    for r in &rep.results {
        let short = (0..spec.cores)
            .filter(|&i| {
                r.per_core
                    .get(i)
                    .is_none_or(|c| c.instructions < size.chunk || c.cycles == 0)
            })
            .count();
        failed += short as u64;
    }
    if rep.results != reference {
        failed = attempted;
    }
    (attempted, failed)
}

/// The default (untraced) run: end-to-end metrics.
pub fn run(spec: &SimSpec, size: &SimSize, seed: u64, seconds: f64) -> Outcome {
    let mut reps: Vec<Rep> = Vec::new();
    crate::repeat(seconds, 3, |_| {
        reps.push(run_rep(spec, size, seed, false, 0))
    });

    let mut out = Outcome::default();
    for rep in &reps {
        let (a, f) = check(spec, size, rep, &reps[0].results);
        out.attempted += a;
        out.failed += f;
    }
    let instr = (size.chunk * size.chunks as u64 * spec.cores as u64) as f64;
    let best = best_per_position(reps.iter().map(|r| r.chunk_ns.as_slice()));
    let mean_best = best.iter().sum::<f64>() / best.len() as f64;
    let mut pooled: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.chunk_ns.iter().copied())
        .collect();
    pooled.sort_by(f64::total_cmp);
    let measured: Vec<f64> = reps.iter().map(|r| r.measured_s).collect();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let t = Totals::of(&reps[0].results, spec.cores);
    let llc_mpki = t.llc.demand_misses as f64 * 1000.0 / t.instructions as f64;

    let m = &mut out.metrics;
    m.set("setup_s", median(&setups), "s");
    m.set("host_mops", 1e3 / mean_best, "Mop/s");
    m.set("op_p50_ns", median(&best), "ns");
    m.set("misses_per_kop", llc_mpki, "1/kop");
    m.set("peak_rss_mb", crate::report::peak_rss_mb(), "MiB");
    out.notes.push(format!(
        "{} repetitions x {} chunks of {} instr/core; host_mops and op_p50_ns from the fastest \
         repetition of each chunk; all {} chunks pooled: p50 {:.2} ns, p90 {:.2} ns, \
         median-repetition {:.3} Mop/s; sim_ipc {:.6}, llc_mpki {:.6}",
        reps.len(),
        size.chunks,
        size.chunk,
        pooled.len(),
        quantile(&pooled, 0.5),
        quantile(&pooled, 0.9),
        instr / median(&measured) / 1e6,
        t.ipc,
        llc_mpki,
    ));
    out.notes.push(format!(
        "measured s per repetition: {measured:.3?}; setup s: {setups:.3?}"
    ));
    out
}

/// LLC accesses kept from the first traced repetition for replays.
const CAPTURE: usize = 400_000;

/// The traced run: alternate untraced and traced repetitions of the
/// same seed, compare their outputs, and split the traced wall time by
/// layer.
pub fn run_traced(spec: &SimSpec, size: &SimSize, seed: u64, seconds: f64) -> Outcome {
    let timer = layers::timer_cost();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    crate::repeat(seconds, 1, |i| {
        plain.push(run_rep(spec, size, seed, false, 0));
        traced.push(run_rep(
            spec,
            size,
            seed,
            true,
            if i == 0 { CAPTURE } else { 0 },
        ));
    });

    let mut out = Outcome::default();
    let reference = plain[0].results.clone();
    for rep in plain.iter().chain(&traced) {
        let (a, f) = check(spec, size, rep, &reference);
        out.attempted += a;
        out.failed += f;
    }
    // the hierarchy and agent counters outside `SimResults` must match
    // too, and every traced repetition must have read the same records
    for (p, t) in plain.iter().zip(&traced) {
        out.attempted += 1;
        if p.counters != t.counters {
            out.failed += 1;
        }
    }
    let first = traced[0].traced.as_ref().expect("traced rep");
    for rep in &traced[1..] {
        let t = rep.traced.as_ref().expect("traced rep");
        out.attempted += 1;
        if t.warm_records != first.warm_records
            || t.measured_records != first.measured_records
            || t.digests != first.digests
        {
            out.failed += 1;
        }
    }

    let reps = traced.len() as f64;
    let cfg = spec.config();
    let t = Totals::of(&reference, spec.cores);
    let c = &traced[0].counters;
    let wall_ns = traced.iter().map(|r| r.measured_s).sum::<f64>() * 1e9 / reps;
    let plain_wall: f64 = plain.iter().map(|r| r.measured_s).sum();
    let traced_wall: f64 = traced.iter().map(|r| r.measured_s).sum();

    // policy layer: measured in place, minus what the timer itself reads
    let mut calls = [0u64; 6];
    let mut ns = [0u64; 6];
    for rep in &traced {
        let tr = rep.traced.as_ref().expect("traced rep");
        for h in 0..6 {
            calls[h] += tr.hook_calls[h];
            ns[h] += tr.hook_ns[h];
        }
    }
    let all_calls: u64 = calls.iter().sum();
    let self_ns = |h: usize| (ns[h] as f64 - calls[h] as f64 * timer.in_interval_ns).max(0.0);
    let policy_ns = (0..6).map(self_ns).sum::<f64>() / reps;
    let timer_ns = all_calls as f64 * timer.per_call_ns / reps;

    // trace layer: counted in place, timed by draining fresh sources,
    // which must hand out the very records the run read
    let drained = layers::drain(
        spec.sources(seed),
        &first.warm_records,
        &first.measured_records,
    );
    out.attempted += spec.cores as u64;
    out.failed += drained
        .digests
        .iter()
        .zip(&first.digests)
        .filter(|(a, b)| a != b)
        .count() as u64;
    let samples = drained.samples;
    let records: u64 = first.measured_records.iter().sum();
    let trace_ns = drained.ns as f64;

    // standalone replays of layers without a seam
    let mut refs = Vec::new();
    let longest = samples.iter().map(Vec::len).max().unwrap_or(0);
    for k in 0..longest {
        for (core, s) in samples.iter().enumerate() {
            if let Some(r) = s.get(k) {
                refs.push((core, r.vaddr));
            }
        }
    }
    let ledger = first.ledger.borrow();
    let mmu = layers::replay_mmu(&refs);
    let llc = layers::replay_llc(&cfg, &ledger.accesses);
    let dram = layers::replay_dram(&cfg, &ledger.misses);
    let noc = cfg
        .noc
        .map(|n| layers::replay_mesh(&cfg, n, &ledger.accesses))
        .unwrap_or_default();
    let llc_ops = t.llc.demand_accesses + t.llc.prefetch_accesses;
    let mmu_ns = mmu.ns_per_op * records as f64;
    let llc_ns = llc.ns_per_op * llc_ops as f64;
    let dram_ns = dram.ns_per_op * (c.dram_reads + c.dram_writes) as f64;
    let noc_ns = noc.ns_per_op * c.noc_messages as f64;

    let residual_ns = wall_ns - trace_ns - policy_ns - timer_ns;
    let unattributed_ns = residual_ns - mmu_ns - llc_ns - dram_ns - noc_ns;

    let m = &mut out.metrics;
    crate::zero_per_layer(m);
    m.set("traced_wall_ns", wall_ns, "ns");
    m.set("tracing_overhead", traced_wall / plain_wall, "ratio");
    m.set("tracing.timer_ns", timer_ns, "ns");
    m.set("unattributed_ns", unattributed_ns, "ns");
    m.set("host_ns_per_op", wall_ns / t.instructions as f64, "ns");
    m.set("trace.records", records as f64, "count");
    m.set(
        "trace.ns_per_record",
        trace_ns / records.max(1) as f64,
        "ns",
    );
    m.set("trace.share", trace_ns / wall_ns, "ratio");
    for (h, name) in HOOKS.iter().enumerate() {
        let per_rep = calls[h] as f64 / reps;
        m.set(&format!("policy.{name}.calls"), per_rep, "count");
        let per_call = if calls[h] == 0 {
            0.0
        } else {
            self_ns(h) / calls[h] as f64
        };
        m.set(&format!("policy.{name}.ns_per_call"), per_call, "ns");
    }
    m.set("policy.share", policy_ns / wall_ns, "ratio");
    m.set("agent.q_updates", c.agent("q_updates"), "count");
    m.set(
        "agent.sampled_accesses",
        c.agent("sampled_accesses"),
        "count",
    );
    m.set("agent.explorations", c.agent("explorations"), "count");
    m.set("agent.bypasses", c.agent("agent_bypasses"), "count");
    m.set("sim.cycles", t.cycles as f64, "cycles");
    m.set("sim.ipc", t.ipc, "instr/cycle");
    m.set("hier.residual_ns", residual_ns, "ns");
    set_cache(m, "l1d", &t.l1d);
    set_cache(m, "l2", &t.l2);
    set_cache(m, "llc", &t.llc);
    m.set(
        "llc.bypass_ratio",
        ratio(t.llc.bypasses, t.llc.demand_misses + t.llc.prefetch_misses),
        "ratio",
    );
    m.set("llc.prefetch_useful_ratio", t.llc.ephr(), "ratio");
    m.set("dram.reads", c.dram_reads as f64, "count");
    m.set("dram.writes", c.dram_writes as f64, "count");
    m.set(
        "dram.row_hit_rate",
        ratio(c.dram_row_hits, c.dram_reads + c.dram_writes),
        "ratio",
    );
    m.set(
        "dram.avg_read_latency_cyc",
        c.dram_avg_read_latency,
        "cycles",
    );
    m.set("mmu.ns_per_translate", mmu.ns_per_op, "ns");
    m.set("mmu.share", mmu_ns / wall_ns, "ratio");
    m.set("llc.ns_per_access", llc.ns_per_op, "ns");
    m.set("llc.share", llc_ns / wall_ns, "ratio");
    m.set("dram.ns_per_access", dram.ns_per_op, "ns");
    m.set("dram.share", dram_ns / wall_ns, "ratio");
    m.set("camat.llc_cyc", t.camat_llc, "cycles");
    m.set("obstructed_epoch_share", t.obstructed_share, "ratio");
    m.set("noc.messages", c.noc_messages as f64, "count");
    m.set("noc.link_wait_cyc", c.noc_link_wait as f64, "cycles");
    let slices = &c.slice_accesses;
    let imbalance = if slices.is_empty() {
        0.0
    } else {
        let mean = slices.iter().sum::<u64>() as f64 / slices.len() as f64;
        *slices.iter().max().expect("nonempty") as f64 / mean.max(1e-9)
    };
    m.set("noc.slice_imbalance", imbalance, "ratio");
    m.set("noc.ns_per_route", noc.ns_per_op, "ns");
    m.set("noc.share", noc_ns / wall_ns, "ratio");

    let layers_ns = trace_ns + policy_ns + timer_ns + mmu_ns + llc_ns + dram_ns + noc_ns;
    out.notes.push(format!(
        "{} traced + {} untraced repetitions; reconciliation: trace {:.0} + policy {:.0} + timer \
         {:.0} + mmu {:.0} + llc {:.0} + dram {:.0} + noc {:.0} + unattributed {:.0} = {:.0} ns \
         (traced wall {:.0} ns per repetition); timer {:.1} ns in-interval, {:.1} ns per call; \
         replays on {} mmu / {} llc / {} dram / {} noc ops",
        traced.len(),
        plain.len(),
        trace_ns,
        policy_ns,
        timer_ns,
        mmu_ns,
        llc_ns,
        dram_ns,
        noc_ns,
        unattributed_ns,
        layers_ns + unattributed_ns,
        wall_ns,
        timer.in_interval_ns,
        timer.per_call_ns,
        mmu.ops,
        llc.ops,
        dram.ops,
        noc.ops,
    ));
    out
}

fn set_cache(m: &mut Metrics, level: &str, s: &CacheStats) {
    m.set(
        &format!("{level}.accesses"),
        (s.demand_accesses + s.prefetch_accesses) as f64,
        "count",
    );
    m.set(
        &format!("{level}.miss_ratio"),
        s.demand_miss_ratio(),
        "ratio",
    );
}
