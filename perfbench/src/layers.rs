//! Layer measurement from outside the program: wrappers around the
//! simulator's two public seams (`TraceSource`, `LlcPolicy`), the cost
//! of the timer itself, and standalone replays that time one layer's
//! public function on a stream captured from the traced run.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use chrome_noc::{slice_of_set, slice_tile, Mesh, NocConfig};
use chrome_sim::dram::Dram;
use chrome_sim::llc::SharedLlc;
use chrome_sim::mmu::Mmu;
use chrome_sim::overhead::StorageOverhead;
use chrome_sim::policy::BuiltinLru;
use chrome_sim::trace::TraceSource;
use chrome_sim::types::LineAddr;
use chrome_sim::{
    AccessInfo, CandidateLine, FillDecision, LlcPolicy, SimConfig, SystemFeedback, TraceRecord,
};

/// What a [`CountingSource`] has handed out: how many records, and an
/// order-sensitive digest of them.
#[derive(Default)]
pub struct Tally {
    pub count: AtomicU64,
    pub digest: AtomicU64,
}

/// Fold one record into a running digest (FNV-1a style over the fields
/// that identify it).
#[inline]
pub fn fold(h: u64, r: &TraceRecord) -> u64 {
    const PRIME: u64 = 0x0100_0000_01b3;
    let h = (h ^ r.vaddr).wrapping_mul(PRIME);
    let h = (h ^ r.pc).wrapping_mul(PRIME);
    (h ^ u64::from(r.nonmem_before)).wrapping_mul(PRIME)
}

/// A trace source that counts and digests the records it hands out.
/// That is all it does, so the traced run pays a few arithmetic
/// operations per record; the trace layer's time is measured
/// separately by draining a fresh, identical source (see [`drain`]),
/// whose digest must match.
pub struct CountingSource {
    inner: Box<dyn TraceSource>,
    tally: Arc<Tally>,
}

impl CountingSource {
    pub fn wrap(inner: Box<dyn TraceSource>) -> (Box<dyn TraceSource>, Arc<Tally>) {
        let tally = Arc::new(Tally::default());
        let src = CountingSource {
            inner,
            tally: Arc::clone(&tally),
        };
        (Box::new(src), tally)
    }
}

impl TraceSource for CountingSource {
    #[inline]
    fn next_record(&mut self) -> TraceRecord {
        let r = self.inner.next_record();
        // Single writer (the core that owns this source), so plain
        // load/store pairs suffice; the tally publishes no other data.
        let t = &self.tally;
        t.count
            .store(t.count.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        t.digest.store(
            fold(t.digest.load(Ordering::Relaxed), &r),
            Ordering::Relaxed,
        );
        r
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// The policy callbacks, in the order metrics are reported.
pub const HOOKS: [&str; 6] = [
    "on_hit",
    "on_miss",
    "choose_victim",
    "on_fill",
    "on_evict",
    "on_epoch",
];

/// What the policy wrapper saw: calls and timed nanoseconds per hook,
/// plus the first `cap` LLC accesses for replays (none while `cap` is 0).
#[derive(Default)]
pub struct HookLedger {
    pub calls: [u64; 6],
    pub ns: [u64; 6],
    pub cap: usize,
    /// Every LLC access (each one reaches `on_hit` or `on_miss`).
    pub accesses: Vec<AccessInfo>,
    /// The accesses that missed (the DRAM-bound stream).
    pub misses: Vec<AccessInfo>,
}

impl HookLedger {
    pub fn reset_counts(&mut self) {
        self.calls = [0; 6];
        self.ns = [0; 6];
    }

    fn charge(&mut self, hook: usize, t0: Instant) {
        self.ns[hook] += t0.elapsed().as_nanos() as u64;
        self.calls[hook] += 1;
    }

    fn record(&mut self, info: &AccessInfo, miss: bool) {
        if self.accesses.len() < self.cap {
            self.accesses.push(*info);
            if miss {
                self.misses.push(*info);
            }
        }
    }
}

/// An `LlcPolicy` that times every callback of the policy it wraps.
pub struct TimedPolicy {
    inner: Box<dyn LlcPolicy>,
    ledger: Rc<RefCell<HookLedger>>,
}

impl TimedPolicy {
    pub fn wrap(inner: Box<dyn LlcPolicy>) -> (Box<dyn LlcPolicy>, Rc<RefCell<HookLedger>>) {
        let ledger = Rc::new(RefCell::new(HookLedger::default()));
        let p = TimedPolicy {
            inner,
            ledger: Rc::clone(&ledger),
        };
        (Box::new(p), ledger)
    }
}

impl LlcPolicy for TimedPolicy {
    fn initialize(&mut self, num_sets: usize, ways: usize, cores: usize) {
        self.inner.initialize(num_sets, ways, cores);
    }

    fn on_hit(&mut self, set: usize, way: usize, info: &AccessInfo, fb: &SystemFeedback) {
        let t0 = Instant::now();
        self.inner.on_hit(set, way, info, fb);
        let mut l = self.ledger.borrow_mut();
        l.charge(0, t0);
        l.record(info, false);
    }

    fn on_miss(&mut self, set: usize, info: &AccessInfo, fb: &SystemFeedback) -> FillDecision {
        let t0 = Instant::now();
        let d = self.inner.on_miss(set, info, fb);
        let mut l = self.ledger.borrow_mut();
        l.charge(1, t0);
        l.record(info, true);
        d
    }

    fn choose_victim(&mut self, set: usize, c: &[CandidateLine], info: &AccessInfo) -> usize {
        let t0 = Instant::now();
        let w = self.inner.choose_victim(set, c, info);
        self.ledger.borrow_mut().charge(2, t0);
        w
    }

    fn on_fill(&mut self, set: usize, way: usize, info: &AccessInfo, fb: &SystemFeedback) {
        let t0 = Instant::now();
        self.inner.on_fill(set, way, info, fb);
        self.ledger.borrow_mut().charge(3, t0);
    }

    fn on_evict(&mut self, set: usize, way: usize, line: LineAddr, was_hit: bool) {
        let t0 = Instant::now();
        self.inner.on_evict(set, way, line, was_hit);
        self.ledger.borrow_mut().charge(4, t0);
    }

    fn on_epoch(&mut self, fb: &SystemFeedback) {
        let t0 = Instant::now();
        self.inner.on_epoch(fb);
        self.ledger.borrow_mut().charge(5, t0);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn report(&self) -> Vec<(String, f64)> {
        self.inner.report()
    }

    fn storage_overhead(&self, llc_blocks: usize) -> StorageOverhead {
        self.inner.storage_overhead(llc_blocks)
    }
}

/// Cost of timing one call with a pair of `Instant::now()` reads.
#[derive(Debug, Clone, Copy)]
pub struct TimerCost {
    /// What an empty timed interval reads: added to every measured call.
    pub in_interval_ns: f64,
    /// Wall time the whole pair adds per timed call.
    pub per_call_ns: f64,
}

/// Measure [`TimerCost`] on this machine, as the median of a few
/// batches so one preempted batch cannot skew it.
pub fn timer_cost() -> TimerCost {
    const N: u32 = 200_000;
    let mut inside = Vec::new();
    let mut whole = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        let mut sum = 0u64;
        for _ in 0..N {
            let t0 = Instant::now();
            sum += black_box(t0.elapsed().as_nanos() as u64);
        }
        whole.push(start.elapsed().as_nanos() as f64 / f64::from(N));
        inside.push(sum as f64 / f64::from(N));
    }
    TimerCost {
        in_interval_ns: crate::report::median(&inside),
        per_call_ns: crate::report::median(&whole),
    }
}

/// Standalone cost of one layer: nanoseconds per operation on a fresh
/// instance, over `ops` timed operations.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    pub ns_per_op: f64,
    pub ops: u64,
}

/// Time `f` over the second half of `items`, after warming the fresh
/// instance behind `f` on the first half (the traced run's layer was
/// warm, too).
fn replay_halves<T>(items: &[T], mut f: impl FnMut(&T)) -> Replay {
    let half = items.len() / 2;
    for it in &items[..half] {
        f(it);
    }
    let timed = &items[half..];
    let t0 = Instant::now();
    for it in timed {
        f(it);
    }
    let ns = t0.elapsed().as_nanos() as f64;
    Replay {
        ns_per_op: if timed.is_empty() {
            0.0
        } else {
            ns / timed.len() as f64
        },
        ops: timed.len() as u64,
    }
}

/// `Mmu::translate` over `(core, virtual address)` pairs.
pub fn replay_mmu(refs: &[(usize, u64)]) -> Replay {
    let mut mmu = Mmu::default_8gb();
    replay_halves(refs, |&(core, vaddr)| {
        black_box(mmu.translate(core, vaddr));
    })
}

/// `SharedLlc::access` with the built-in LRU, over the captured LLC
/// access stream.
pub fn replay_llc(cfg: &SimConfig, accesses: &[AccessInfo]) -> Replay {
    let mut llc = SharedLlc::new(&cfg.llc(), cfg.cores, BuiltinLru::new());
    let fb = SystemFeedback::new(cfg.cores);
    replay_halves(accesses, |info| {
        black_box(llc.access(info, &fb));
    })
}

/// `Dram::access` over the captured miss stream, at the cycles the
/// misses reached the LLC.
pub fn replay_dram(cfg: &SimConfig, misses: &[AccessInfo]) -> Replay {
    let mut dram = Dram::new(cfg.dram);
    replay_halves(misses, |info| {
        black_box(dram.access(info.line, info.cycle, false));
    })
}

/// `Mesh::route` for the request and response of every captured LLC
/// access, homed the way the simulator homes slices.
pub fn replay_mesh(cfg: &SimConfig, noc: NocConfig, accesses: &[AccessInfo]) -> Replay {
    let tiles = cfg.cores.max(noc.slices);
    let mut mesh = Mesh::new(tiles, noc);
    let set_mask = cfg.llc().sets() as u64 - 1;
    let latency = cfg.llc_latency;
    let r = replay_halves(accesses, |info| {
        let slice = slice_of_set((info.line.0 & set_mask) as usize, noc.slices);
        let tile = slice_tile(slice, noc.slices, tiles);
        let at = mesh.route(info.core, tile, info.cycle);
        black_box(mesh.route(tile, info.core, at + latency));
    });
    // two routes per access
    Replay {
        ns_per_op: r.ns_per_op / 2.0,
        ops: r.ops * 2,
    }
}

/// Records read per timed `drain` batch.
const DRAIN_BATCH: usize = 4096;

/// Trace records kept across all cores as the MMU replay's sample.
const SAMPLE_RECORDS: usize = 1 << 19;

/// What [`drain`] measured.
pub struct Drain {
    /// Timed nanoseconds, all cores.
    pub ns: u64,
    /// Per core, the first measured records (an equal share of
    /// [`SAMPLE_RECORDS`]), copied outside the timed batches.
    pub samples: Vec<Vec<TraceRecord>>,
    /// Per core, the [`fold`] digest of every record read.
    pub digests: Vec<u64>,
}

/// Time `TraceSource::next_record` on fresh sources identical to the
/// traced run's: skip each core's warmup records untimed, then time
/// reading exactly as many records as that core consumed in the
/// measured region.
pub fn drain(mut sources: Vec<Box<dyn TraceSource>>, skip: &[u64], take: &[u64]) -> Drain {
    let keep = SAMPLE_RECORDS / sources.len().max(1);
    let mut buf = vec![TraceRecord::load(0, 0, 0); DRAIN_BATCH];
    let mut out = Drain {
        ns: 0,
        samples: Vec::with_capacity(sources.len()),
        digests: Vec::with_capacity(sources.len()),
    };
    for (i, src) in sources.iter_mut().enumerate() {
        let mut digest = 0u64;
        for _ in 0..skip[i] {
            digest = fold(digest, &src.next_record());
        }
        let mut left = take[i] as usize;
        let mut kept = Vec::new();
        while left > 0 {
            let n = left.min(DRAIN_BATCH);
            let t0 = Instant::now();
            for slot in &mut buf[..n] {
                *slot = src.next_record();
            }
            black_box(&buf);
            out.ns += t0.elapsed().as_nanos() as u64;
            digest = buf[..n].iter().fold(digest, fold);
            let room = keep.saturating_sub(kept.len()).min(n);
            kept.extend_from_slice(&buf[..room]);
            left -= n;
        }
        out.samples.push(kept);
        out.digests.push(digest);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chrome_sim::trace::StridedSource;

    #[test]
    fn counting_source_counts_and_forwards() {
        let (mut src, tally) = CountingSource::wrap(Box::new(StridedSource::new(0, 64, 4096, 1)));
        let mut plain = StridedSource::new(0, 64, 4096, 1);
        for _ in 0..10 {
            assert_eq!(src.next_record(), plain.next_record());
        }
        assert_eq!(tally.count.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn drain_reads_exactly_the_requested_records() {
        let (mut counted, tally) =
            CountingSource::wrap(Box::new(StridedSource::new(0, 64, 1 << 20, 0)));
        for _ in 0..8 {
            counted.next_record();
        }
        let sources: Vec<Box<dyn TraceSource>> =
            vec![Box::new(StridedSource::new(0, 64, 1 << 20, 0))];
        let d = drain(sources, &[3], &[5]);
        let mut plain = StridedSource::new(0, 64, 1 << 20, 0);
        for _ in 0..3 {
            plain.next_record();
        }
        let want: Vec<TraceRecord> = (0..5).map(|_| plain.next_record()).collect();
        assert_eq!(d.samples[0], want);
        assert_eq!(d.digests[0], tally.digest.load(Ordering::Relaxed));
    }
}
