//! The serve workload: one client thread in a closed loop over the
//! pre-generated `mixed` stream, driving `ServeCache` (CHROME policy,
//! `servebench` default shard geometry) through `ServeCache::access`.

use std::time::Instant;

use chrome_exec::workload_seed;
use chrome_serve::{
    CacheStats, PolicyKind, PolicyTiming, Request, RequestStream, ServeCache, ServeConfig,
    StreamKind,
};

use crate::layers;
use crate::report::{best_per_position, median, NsHist};
use crate::Outcome;

/// `servebench` defaults (`chrome_serve::BenchParams::default()`).
const SHARDS: usize = 16;
const SHARD_SLOTS: usize = 512;
const SHARD_BYTES: u64 = 256 * 1024;
const KEYSPACE: u64 = 20_000;
/// Per-shard policy RNG root: fixed, so the benchmark seed moves only
/// the request stream.
const POLICY_SEED: u64 = 0xC42;

/// Requests per timed block: the unit host throughput is taken over.
const BLOCK: usize = 3000;

/// Requests per repetition.
#[derive(Debug, Clone, Copy)]
pub struct ServeSize {
    /// Untimed warmup requests (part of set-up).
    pub warmup: usize,
    /// Timed requests.
    pub measured: usize,
}

fn config(time_policy: bool) -> ServeConfig {
    ServeConfig {
        policy: PolicyKind::Chrome,
        shards: SHARDS,
        shard_slots: SHARD_SLOTS,
        shard_bytes: SHARD_BYTES,
        seed: POLICY_SEED,
        time_policy,
    }
}

/// Split `reqs` by shard, keeping stream order within each shard — the
/// order `chrome_serve::bench::run` serves them in.
fn by_shard(cache: &ServeCache, reqs: &[Request]) -> Vec<Vec<Request>> {
    let mut parts: Vec<Vec<Request>> = (0..cache.shards()).map(|_| Vec::new()).collect();
    for r in reqs {
        parts[cache.shard_index(r.key)].push(*r);
    }
    parts
}

struct Rep {
    setup_s: f64,
    measured_s: f64,
    /// Counter deltas over the measured region: the output under test.
    stats: CacheStats,
    /// Hits as `access` reported them, to cross-check `stats`.
    hits_returned: u64,
    resident_bytes: u64,
    /// Policy-callback timing over the measured region (traced only).
    timing: Option<PolicyTiming>,
    /// Measured keys, kept for the `shard_index` replay.
    keys: Vec<u64>,
    /// Host latency of every measured `access` call.
    hist: NsHist,
    /// Host seconds per block of `BLOCK` measured requests.
    block_s: Vec<f64>,
    /// Median request latency (ns) within each block.
    block_p50: Vec<f64>,
}

fn stats_since(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        requests: after.requests - before.requests,
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        admits: after.admits - before.admits,
        bypasses: after.bypasses - before.bypasses,
        evictions: after.evictions - before.evictions,
        errors: after.errors - before.errors,
    }
}

fn timing_since(after: PolicyTiming, before: PolicyTiming) -> PolicyTiming {
    PolicyTiming {
        admit_ns: after.admit_ns - before.admit_ns,
        admit_calls: after.admit_calls - before.admit_calls,
        hit_ns: after.hit_ns - before.hit_ns,
        hit_calls: after.hit_calls - before.hit_calls,
        victim_ns: after.victim_ns - before.victim_ns,
        victim_calls: after.victim_calls - before.victim_calls,
        insert_ns: after.insert_ns - before.insert_ns,
        insert_calls: after.insert_calls - before.insert_calls,
    }
}

/// One repetition; every request's host latency goes into `hist`.
fn run_rep(size: &ServeSize, seed: u64, traced: bool, keep_keys: bool) -> Rep {
    assert!(
        size.measured > 0 && size.measured.is_multiple_of(BLOCK),
        "measured requests must be whole blocks"
    );
    let t0 = Instant::now();
    let stream_seed = workload_seed(StreamKind::MixedTenant.name(), SHARDS as u32, seed);
    let reqs = RequestStream::generate(
        StreamKind::MixedTenant,
        size.warmup + size.measured,
        KEYSPACE,
        stream_seed,
    );
    let cache = ServeCache::new(&config(traced));
    let warm = by_shard(&cache, &reqs[..size.warmup]);
    let measured = by_shard(&cache, &reqs[size.warmup..]);
    for r in warm.iter().flatten() {
        cache.access(r);
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let before = cache.stats();
    let timing_before = cache.timing();
    let mut hist = NsHist::new();
    let mut block_s = Vec::with_capacity(size.measured / BLOCK);
    let mut block_p50 = Vec::with_capacity(size.measured / BLOCK);
    let mut block_ns: Vec<u64> = Vec::with_capacity(BLOCK);
    let mut hits_returned = 0u64;
    let mut measured_s = 0.0;
    let mut prev = Instant::now();
    let mut block_start = prev;
    for r in measured.iter().flatten() {
        hits_returned += u64::from(cache.access(r));
        let now = Instant::now();
        let ns = (now - prev).as_nanos() as u64;
        hist.record(ns);
        block_ns.push(ns);
        prev = now;
        if block_ns.len() == BLOCK {
            let secs = (now - block_start).as_secs_f64();
            measured_s += secs;
            block_s.push(secs);
            block_p50.push(median_ns(&mut block_ns));
            block_ns.clear();
            // the bookkeeping above stays outside every timed block
            prev = Instant::now();
            block_start = prev;
        }
    }
    let timing = match (cache.timing(), timing_before) {
        (Some(a), Some(b)) => Some(timing_since(a, b)),
        _ => None,
    };
    Rep {
        setup_s,
        measured_s,
        stats: stats_since(cache.stats(), before),
        hits_returned,
        resident_bytes: cache.resident_bytes(),
        timing,
        keys: if keep_keys {
            measured.iter().flatten().map(|r| r.key).collect()
        } else {
            Vec::new()
        },
        hist,
        block_s,
        block_p50,
    }
}

/// Median of whole-nanosecond latencies, spreading the samples that
/// read `m` uniformly over `[m, m + 1)` as `NsHist` does, so the clock's
/// 1 ns step does not quantise the result.
fn median_ns(ns: &mut [u64]) -> f64 {
    let half = ns.len() / 2;
    let (_, &mut m, _) = ns.select_nth_unstable(half);
    let below = ns.iter().filter(|&&v| v < m).count();
    let equal = ns.iter().filter(|&&v| v == m).count();
    m as f64 + (half - below) as f64 / equal as f64
}

/// Requests checked in one repetition and how many failed: read-path
/// integrity errors, a hit count that disagrees with what `access`
/// returned, and any difference from the reference repetition's
/// counters (same seed, so the same cache).
fn check(size: &ServeSize, rep: &Rep, reference: &CacheStats) -> (u64, u64) {
    let attempted = size.measured as u64;
    let s = &rep.stats;
    let mut failed = s.errors;
    if s.requests != attempted
        || s.hits + s.misses != s.requests
        || s.hits != rep.hits_returned
        || s != reference
    {
        failed = attempted;
    }
    (attempted, failed.min(attempted))
}

/// The default (untraced) run: end-to-end metrics.
pub fn run(size: &ServeSize, seed: u64, seconds: f64) -> Outcome {
    let mut reps: Vec<Rep> = Vec::new();
    crate::repeat(seconds, 3, |_| reps.push(run_rep(size, seed, false, false)));

    let mut out = Outcome::default();
    for rep in &reps {
        let (a, f) = check(size, rep, &reps[0].stats);
        out.attempted += a;
        out.failed += f;
    }
    let measured: Vec<f64> = reps.iter().map(|r| r.measured_s).collect();
    let best = best_per_position(reps.iter().map(|r| r.block_s.as_slice()));
    let best_p50 = best_per_position(reps.iter().map(|r| r.block_p50.as_slice()));
    let mut hist = NsHist::new();
    for rep in &reps {
        hist.merge(&rep.hist);
    }
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let s = &reps[0].stats;

    let m = &mut out.metrics;
    m.set("setup_s", median(&setups), "s");
    m.set(
        "host_mops",
        (BLOCK * best.len()) as f64 / best.iter().sum::<f64>() / 1e6,
        "Mop/s",
    );
    m.set("op_p50_ns", median(&best_p50), "ns");
    m.set(
        "misses_per_kop",
        s.misses as f64 * 1000.0 / s.requests as f64,
        "1/kop",
    );
    m.set("peak_rss_mb", crate::report::peak_rss_mb(), "MiB");
    out.notes.push(format!(
        "{} repetitions x {} requests after {} warmup; host_mops and op_p50_ns from the fastest \
         repetition of each {BLOCK}-request block; all {} latency samples (one per access) \
         pooled: p50 {:.1} ns, p90 {:.1} ns, p99 {:.1} ns; median-repetition {:.3} Mop/s; \
         serve_hit_ratio {:.6}",
        reps.len(),
        size.measured,
        size.warmup,
        hist.count(),
        hist.quantile(0.5),
        hist.quantile(0.9),
        hist.quantile(0.99),
        size.measured as f64 / median(&measured) / 1e6,
        s.hit_ratio(),
    ));
    out.notes.push(format!(
        "measured s per repetition: {measured:.3?}; setup s: {setups:.3?}"
    ));
    out
}

/// The traced run: alternate untraced and policy-timed repetitions of
/// the same seed, compare their counters, and split the traced wall
/// time by layer.
pub fn run_traced(size: &ServeSize, seed: u64, seconds: f64) -> Outcome {
    let timer = layers::timer_cost();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    crate::repeat(seconds, 1, |i| {
        plain.push(run_rep(size, seed, false, false));
        traced.push(run_rep(size, seed, true, i == 0));
    });

    let mut out = Outcome::default();
    let reference = plain[0].stats;
    for rep in plain.iter().chain(&traced) {
        let (a, f) = check(size, rep, &reference);
        out.attempted += a;
        out.failed += f;
    }

    let reps = traced.len() as f64;
    let wall_ns = traced.iter().map(|r| r.measured_s).sum::<f64>() * 1e9 / reps;
    let plain_wall: f64 = plain.iter().map(|r| r.measured_s).sum();
    let traced_wall: f64 = traced.iter().map(|r| r.measured_s).sum();

    let mut t = PolicyTiming::default();
    for rep in &traced {
        t.merge(&rep.timing.expect("traced repetitions time the policy"));
    }
    let hooks = [
        ("admit", t.admit_calls, t.admit_ns),
        ("hit", t.hit_calls, t.hit_ns),
        ("victim", t.victim_calls, t.victim_ns),
        ("insert", t.insert_calls, t.insert_ns),
    ];
    let self_ns = |calls: u64, ns: u64| (ns as f64 - calls as f64 * timer.in_interval_ns).max(0.0);
    let all_calls: u64 = hooks.iter().map(|h| h.1).sum();
    let policy_ns = hooks.iter().map(|h| self_ns(h.1, h.2)).sum::<f64>() / reps;
    let timer_ns = all_calls as f64 * timer.per_call_ns / reps;

    let index = replay_shard_index(&traced[0].keys);
    let index_ns = index.ns_per_op * size.measured as f64;
    let residual_ns = wall_ns - policy_ns - timer_ns;
    let unattributed_ns = residual_ns - index_ns;

    let s = &reference;
    let m = &mut out.metrics;
    crate::zero_per_layer(m);
    m.set("traced_wall_ns", wall_ns, "ns");
    m.set("tracing_overhead", traced_wall / plain_wall, "ratio");
    m.set("tracing.timer_ns", timer_ns, "ns");
    m.set("unattributed_ns", unattributed_ns, "ns");
    m.set("host_ns_per_op", wall_ns / size.measured as f64, "ns");
    for (name, calls, ns) in hooks {
        m.set(&format!("serve.{name}.calls"), calls as f64 / reps, "count");
        let per_call = if calls == 0 {
            0.0
        } else {
            self_ns(calls, ns) / calls as f64
        };
        m.set(&format!("serve.{name}.ns_per_call"), per_call, "ns");
    }
    m.set("serve.policy.share", policy_ns / wall_ns, "ratio");
    m.set("serve.shard_index.ns_per_key", index.ns_per_op, "ns");
    m.set("serve.shard_index.share", index_ns / wall_ns, "ratio");
    m.set("serve.store.residual_ns", residual_ns, "ns");
    let admit_ratio = if s.misses == 0 {
        0.0
    } else {
        s.admits as f64 / s.misses as f64
    };
    m.set("serve.admit_ratio", admit_ratio, "ratio");
    m.set("serve.hit_ratio", s.hit_ratio(), "ratio");
    m.set(
        "serve.resident_bytes",
        traced[0].resident_bytes as f64,
        "bytes",
    );
    out.notes.push(format!(
        "{} traced + {} untraced repetitions; reconciliation: policy {:.0} + timer {:.0} + \
         shard_index {:.0} + unattributed {:.0} = {:.0} ns (traced wall {:.0} ns per repetition); \
         timer {:.1} ns in-interval, {:.1} ns per call",
        traced.len(),
        plain.len(),
        policy_ns,
        timer_ns,
        index_ns,
        unattributed_ns,
        policy_ns + timer_ns + index_ns + unattributed_ns,
        wall_ns,
        timer.in_interval_ns,
        timer.per_call_ns,
    ));
    out
}

/// `ServeCache::shard_index` on a fresh cache over the measured keys.
fn replay_shard_index(keys: &[u64]) -> layers::Replay {
    let cache = ServeCache::new(&config(false));
    let t0 = Instant::now();
    for &k in keys {
        std::hint::black_box(cache.shard_index(std::hint::black_box(k)));
    }
    layers::Replay {
        ns_per_op: t0.elapsed().as_nanos() as f64 / keys.len().max(1) as f64,
        ops: keys.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::median_ns;

    #[test]
    fn median_ns_interpolates_inside_the_tied_nanosecond() {
        assert_eq!(median_ns(&mut [1, 2, 3, 4]), 3.0);
        // two of four samples read 5: the median sits halfway into 5
        assert_eq!(median_ns(&mut [5, 9, 5, 1]), 5.5);
    }
}
