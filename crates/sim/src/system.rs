//! The full simulated system: cores + hierarchy + DRAM + feedback loop.

use crate::cache::PrivateCache;
use crate::camat::{CamatEpoch, CamatTracker};
use crate::config::SimConfig;
use crate::core_model::Core;
use crate::dram::Dram;
use crate::llc::{LlcOutcome, SharedLlc};
use crate::mmu::Mmu;
use crate::mshr::{MshrFile, MshrOutcome};
use crate::policy::{AccessInfo, BuiltinLru, PolicySlot, SystemFeedback};
use crate::prefetch::{AnyPrefetcher, FillLevel, PrefetchRequest};
use crate::stats::{CacheStats, CoreStats, SimResults};
use crate::trace::TraceSource;
use crate::types::{AccessKind, LineAddr, TraceRecord};
use chrome_telemetry::{EpochRecord, EventKind, ServiceLevel, SpanBuilder, Stage, TelemetrySink};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Resolve an MSHR for `line` starting at cycle `t`: either the miss is
/// merged with an outstanding one (`Err(ready)`), or the caller may issue
/// at the returned cycle (`Ok(issue_at)`), possibly delayed by a full
/// file — this is what bounds each level's demand MLP. Only demand
/// misses allocate MSHRs; prefetch timing rides on per-block arrival
/// stamps and the DRAM queue-depth shedding instead.
fn mshr_acquire(mshr: &mut MshrFile, line: LineAddr, mut t: u64) -> Result<u64, u64> {
    loop {
        match mshr.lookup(line, t) {
            MshrOutcome::Merged { ready } => return Err(ready),
            MshrOutcome::Available => return Ok(t),
            MshrOutcome::Full { free_at } => {
                debug_assert!(free_at > t, "full MSHR must free strictly later");
                t = free_at;
            }
        }
    }
}

/// Memory-controller prefetch shedding threshold: a prefetch whose
/// target bank/bus queue exceeds this many cycles is dropped rather
/// than queued behind demand traffic.
const PREFETCH_SHED_CYCLES: u64 = 500;

/// Mesh-NoC timing wrapped around the shared LLC: the cache is split
/// into address-interleaved slices homed on mesh tiles, and every
/// core↔slice message crosses the [`chrome_noc::Mesh`] contention
/// model. Pure timing — hit/miss outcomes, policy decisions and fill
/// contents are untouched, so the NoC only shifts *when* completions
/// become visible, never *what* happens.
pub struct NocState {
    mesh: chrome_noc::Mesh,
    /// Number of address-interleaved LLC slices.
    slices: usize,
    /// `llc sets - 1` (power-of-two asserted by the LLC), so the slice
    /// interleave keys on the set index.
    set_mask: u64,
    /// Home tile of each slice (cores sit on tiles `0..cores`).
    slice_tiles: Vec<usize>,
    /// Cumulative accesses routed to each slice.
    slice_accesses: Vec<u64>,
    /// Counter snapshots at the last epoch boundary, so epoch records
    /// carry per-epoch deltas.
    epoch_slice_base: Vec<u64>,
    epoch_link_base: Vec<u64>,
}

impl NocState {
    fn new(cfg: chrome_noc::NocConfig, cores: usize, llc_sets: usize) -> Self {
        let slices = cfg.slices;
        let tiles = cores.max(slices);
        let mesh = chrome_noc::Mesh::new(tiles, cfg);
        let links = mesh.links();
        NocState {
            mesh,
            slices,
            set_mask: llc_sets as u64 - 1,
            slice_tiles: (0..slices)
                .map(|s| chrome_noc::slice_tile(s, slices, tiles))
                .collect(),
            slice_accesses: vec![0; slices],
            epoch_slice_base: vec![0; slices],
            epoch_link_base: vec![0; links],
        }
    }

    /// Number of address-interleaved LLC slices.
    pub fn slices(&self) -> usize {
        self.slices
    }

    /// Cumulative accesses routed to each slice.
    pub fn slice_accesses(&self) -> &[u64] {
        &self.slice_accesses
    }

    /// The underlying mesh (geometry, link counters, message count).
    pub fn mesh(&self) -> &chrome_noc::Mesh {
        &self.mesh
    }

    /// Route a request from `core` to `line`'s home slice, departing at
    /// `t`. Returns the arrival cycle at the slice and the slice index.
    fn request(&mut self, core: usize, line: LineAddr, t: u64) -> (u64, usize) {
        let set = (line.0 & self.set_mask) as usize;
        let slice = chrome_noc::slice_of_set(set, self.slices);
        self.slice_accesses[slice] += 1;
        (self.mesh.route(core, self.slice_tiles[slice], t), slice)
    }

    /// Route the response for a request served by `slice` back to
    /// `core`, departing at `t`. Returns the core-visible completion.
    fn respond(&mut self, slice: usize, core: usize, t: u64) -> u64 {
        self.mesh.route(self.slice_tiles[slice], core, t)
    }

    /// Per-slice access and per-link busy-cycle deltas since the
    /// previous call, advancing the epoch baselines.
    fn epoch_deltas(&mut self) -> (Vec<u64>, Vec<u64>) {
        let slices = self
            .slice_accesses
            .iter()
            .zip(&self.epoch_slice_base)
            .map(|(a, b)| a - b)
            .collect();
        let links = self
            .mesh
            .link_busy()
            .iter()
            .zip(&self.epoch_link_base)
            .map(|(a, b)| a - b)
            .collect();
        self.epoch_rebase();
        (slices, links)
    }

    /// Snap the epoch baselines to the current counters (used at the
    /// measurement boundary so the first measured epoch starts clean).
    fn epoch_rebase(&mut self) {
        self.epoch_slice_base.copy_from_slice(&self.slice_accesses);
        self.epoch_link_base.copy_from_slice(self.mesh.link_busy());
    }
}

/// Route a slice→core response through the mesh, or pass the time
/// through untouched when the NoC is off.
#[inline]
fn noc_respond(noc: Option<&mut NocState>, slice: usize, core: usize, t: u64) -> u64 {
    match noc {
        Some(n) => n.respond(slice, core, t),
        None => t,
    }
}

/// The memory hierarchy: private L1D/L2 per core, a shared LLC, DRAM,
/// prefetchers, the MMU and C-AMAT instrumentation.
pub struct MemHierarchy {
    l1d: Vec<PrivateCache>,
    l2: Vec<PrivateCache>,
    /// The shared last-level cache.
    pub llc: SharedLlc,
    /// The DRAM subsystem.
    pub dram: Dram,
    /// Mesh-NoC timing between cores and LLC slices; `None` keeps the
    /// classic uniform-latency LLC, byte-identical to pre-NoC results.
    noc: Option<NocState>,
    l1_pref: Vec<AnyPrefetcher>,
    l2_pref: Vec<AnyPrefetcher>,
    mmu: Mmu,
    /// Per-core C-AMAT accounting at the LLC.
    pub camat: CamatTracker,
    /// Epoch-refreshed concurrency feedback, shared with the LLC policy.
    pub feedback: SystemFeedback,
    l1_latency: u64,
    l2_latency: u64,
    scratch: Vec<PrefetchRequest>,
    /// Telemetry handle for the latency-attribution profiler; spans are
    /// only stamped when the sink is profiling.
    sink: TelemetrySink,
}

impl MemHierarchy {
    fn new(cfg: &SimConfig, policy: PolicySlot) -> Self {
        let cores = cfg.cores;
        let mut camat = CamatTracker::new(cores);
        camat.set_epoch_boundary(cfg.epoch_cycles);
        MemHierarchy {
            l1d: (0..cores).map(|_| PrivateCache::new(&cfg.l1d)).collect(),
            l2: (0..cores).map(|_| PrivateCache::new(&cfg.l2)).collect(),
            llc: SharedLlc::new(&cfg.llc(), cores, policy),
            dram: Dram::new(cfg.dram),
            noc: cfg.noc.map(|nc| NocState::new(nc, cores, cfg.llc().sets())),
            l1_pref: (0..cores)
                .map(|_| AnyPrefetcher::build(cfg.prefetchers.l1, cfg.prefetch_degree))
                .collect(),
            l2_pref: (0..cores)
                .map(|_| AnyPrefetcher::build(cfg.prefetchers.l2, cfg.prefetch_degree))
                .collect(),
            mmu: Mmu::default_8gb(),
            camat,
            feedback: SystemFeedback::new(cores),
            l1_latency: cfg.l1d.latency,
            l2_latency: cfg.l2.latency,
            scratch: Vec::with_capacity(16),
            sink: TelemetrySink::noop(),
        }
    }

    /// Open a latency-attribution span when profiling; compiles to
    /// `None` (and folds the hot path away) without the `telemetry`
    /// feature.
    #[inline]
    fn span_start(
        &self,
        core: usize,
        pc: u64,
        line: LineAddr,
        is_prefetch: bool,
        cycle: u64,
    ) -> Option<SpanBuilder> {
        if cfg!(feature = "telemetry") && self.sink.profiling() {
            Some(SpanBuilder::start(
                core as u32,
                pc,
                line.0,
                is_prefetch,
                cycle,
            ))
        } else {
            None
        }
    }

    /// Seal a span and hand it to the profiler.
    fn finish_span(
        &self,
        b: SpanBuilder,
        level: ServiceLevel,
        tail: Stage,
        end: u64,
        merged: bool,
    ) {
        self.sink.record_span(b.finish(level, tail, end, merged));
    }

    /// Write `line` back into L2 (allocating if absent), cascading dirty
    /// victims toward DRAM.
    fn writeback_to_l2(&mut self, core: usize, line: LineAddr, cycle: u64) {
        if self.l2[core].mark_dirty(line) {
            return;
        }
        if let Some(ev) = self.l2[core].fill(line, true, false, cycle) {
            if ev.dirty {
                self.writeback_to_llc(ev.line, cycle);
            }
        }
    }

    /// Write `line` back at the LLC: mark dirty if resident, otherwise
    /// send it to DRAM (non-inclusive hierarchy).
    fn writeback_to_llc(&mut self, line: LineAddr, cycle: u64) {
        if !self.llc.writeback(line) {
            self.dram.access(line, cycle, true);
        }
    }

    /// Fill `line` into L2 for `core`, handling the dirty-victim cascade.
    /// `ready` is the arrival cycle of the data.
    fn fill_l2(&mut self, core: usize, line: LineAddr, is_prefetch: bool, ready: u64) {
        if self.l2[core].probe(line).is_some() {
            return;
        }
        if let Some(ev) = self.l2[core].fill(line, false, is_prefetch, ready) {
            if ev.dirty {
                self.writeback_to_llc(ev.line, ready);
            }
        }
    }

    /// Fill `line` into L1D for `core`, handling the dirty-victim cascade.
    fn fill_l1(&mut self, core: usize, line: LineAddr, dirty: bool, is_prefetch: bool, ready: u64) {
        if self.l1d[core].probe(line).is_some() {
            return;
        }
        if let Some(ev) = self.l1d[core].fill(line, dirty, is_prefetch, ready) {
            if ev.dirty {
                self.writeback_to_l2(core, ev.line, ready);
            }
        }
    }

    /// Access the LLC (and DRAM beneath it) for a line that missed in L2.
    /// `t_llc` is the cycle at which the request reaches the LLC.
    /// Returns the completion cycle.
    ///
    /// Fills happen eagerly at lookup time, so a hit may be on a block
    /// whose data is still in flight (e.g. just prefetched); the MSHR
    /// holds the arrival time and the hit waits for it.
    fn access_llc(
        &mut self,
        core: usize,
        pc: u64,
        line: LineAddr,
        is_prefetch: bool,
        t_llc: u64,
        span: &mut Option<SpanBuilder>,
    ) -> u64 {
        if let Some(s) = span.as_mut() {
            s.mark_llc_entry(t_llc);
        }
        // With the mesh NoC enabled, the request first crosses the mesh
        // to the line's home slice; all LLC/DRAM math below then runs in
        // slice-local time, and each completion is routed back before it
        // becomes core-visible. With it off, both hops are the identity
        // and every expression below is bit-for-bit the classic
        // uniform-latency path. C-AMAT spans issue (`t_entry`) to the
        // core-visible completion, so NoC queueing shows up as memory
        // stall time exactly like MSHR or bank contention.
        let t_entry = t_llc;
        let (t_llc, slice) = match self.noc.as_mut() {
            Some(noc) => noc.request(core, line, t_llc),
            None => (t_llc, 0),
        };
        let info = AccessInfo {
            core,
            pc,
            line,
            is_prefetch,
            is_write: false,
            cycle: t_llc,
        };
        let done = match self.llc.access(&info, &self.feedback) {
            LlcOutcome::Hit { ready } => {
                // the block may still be in flight: wait for its arrival
                let base = t_llc + self.llc.latency;
                let done = noc_respond(self.noc.as_mut(), slice, core, ready.max(base));
                if let Some(mut s) = span.take() {
                    s.mark(Stage::LlcLookup, base);
                    self.finish_span(s, ServiceLevel::Llc, Stage::FillWait, done, false);
                }
                done
            }
            LlcOutcome::Miss {
                bypassed,
                writeback,
            } => {
                // `ready` is the slice-side fill time (what the cache
                // block and MSHR wait on); `done` is the core-visible
                // completion after the response hop.
                let (ready, done) = if is_prefetch {
                    // prefetches do not allocate MSHRs; shedding happens
                    // upstream in the prefetch path
                    let t = self
                        .dram
                        .access_timed(line, t_llc + self.llc.latency, false);
                    let done = noc_respond(self.noc.as_mut(), slice, core, t.done);
                    if let Some(mut s) = span.take() {
                        s.mark(Stage::LlcLookup, t_llc + self.llc.latency);
                        s.mark(Stage::DramQueue, t.start);
                        s.mark(Stage::DramService, t.row_done);
                        s.mark(Stage::DramQueue, t.xfer_start);
                        self.finish_span(s, ServiceLevel::Mem, Stage::DramTransfer, done, false);
                    }
                    (t.done, done)
                } else {
                    match mshr_acquire(&mut self.llc.mshr, line, t_llc) {
                        Err(merged_ready) => {
                            // no LlcLookup mark: the merged completion may
                            // predate the lookup latency, and the whole
                            // remainder is one MSHR wait either way
                            let done = noc_respond(self.noc.as_mut(), slice, core, merged_ready);
                            if let Some(s) = span.take() {
                                self.finish_span(
                                    s,
                                    ServiceLevel::Llc,
                                    Stage::LlcMshrWait,
                                    done,
                                    true,
                                );
                            }
                            (merged_ready, done)
                        }
                        Ok(t_issue) => {
                            let t = self
                                .dram
                                .access_timed(line, t_issue + self.llc.latency, false);
                            let done = noc_respond(self.noc.as_mut(), slice, core, t.done);
                            if let Some(mut s) = span.take() {
                                s.mark(Stage::LlcMshrWait, t_issue);
                                s.mark(Stage::LlcLookup, t_issue + self.llc.latency);
                                s.mark(Stage::DramQueue, t.start);
                                s.mark(Stage::DramService, t.row_done);
                                s.mark(Stage::DramQueue, t.xfer_start);
                                self.finish_span(
                                    s,
                                    ServiceLevel::Mem,
                                    Stage::DramTransfer,
                                    done,
                                    false,
                                );
                            }
                            self.llc.mshr.register(line, t.done);
                            (t.done, done)
                        }
                    }
                };
                if !bypassed {
                    self.llc.set_ready(line, ready);
                }
                if let Some(wb) = writeback {
                    self.dram.access(wb, t_llc, true);
                }
                done
            }
        };
        if !is_prefetch {
            self.camat.record(core, t_entry, done);
        }
        done
    }

    /// A demand access from `core`. Returns the completion cycle.
    pub fn demand_access(&mut self, core: usize, rec: &TraceRecord, cycle: u64) -> u64 {
        let is_write = rec.kind == AccessKind::Store;
        let line = self.mmu.translate(core, rec.vaddr);
        let mut span = self.span_start(core, rec.pc, line, false, cycle);

        self.l1d[core].stats.demand_accesses += 1;
        if let Some(block_ready) = self.l1d[core].lookup(line, is_write, false) {
            // the block may still be in flight (filled eagerly by a
            // prefetch or an earlier miss): wait for its arrival
            let done = (cycle + self.l1_latency).max(block_ready);
            self.trigger_l1_prefetcher(core, rec.pc, line, true, cycle);
            if let Some(mut s) = span {
                s.mark(Stage::L1Lookup, cycle + self.l1_latency);
                self.finish_span(s, ServiceLevel::L1, Stage::FillWait, done, false);
            }
            return done;
        }
        self.l1d[core].stats.demand_misses += 1;
        self.trigger_l1_prefetcher(core, rec.pc, line, false, cycle);

        let t_issue = match mshr_acquire(&mut self.l1d[core].mshr, line, cycle) {
            Err(ready) => {
                let done = ready.max(cycle + self.l1_latency);
                if let Some(mut s) = span {
                    s.mark(Stage::L1Lookup, cycle + self.l1_latency);
                    self.finish_span(s, ServiceLevel::L1, Stage::L1MshrWait, done, true);
                }
                return done;
            }
            Ok(t) => t,
        };
        let t_l2 = t_issue + self.l1_latency;
        if let Some(s) = span.as_mut() {
            s.mark(Stage::L1MshrWait, t_issue);
            s.mark(Stage::L1Lookup, t_l2);
        }

        self.l2[core].stats.demand_accesses += 1;
        let l2_res = self.l2[core].lookup(line, false, false);
        self.trigger_l2_prefetcher(core, rec.pc, line, l2_res.is_some(), t_l2);
        let ready = match l2_res {
            Some(block_ready) => {
                let done = (t_l2 + self.l2_latency).max(block_ready);
                if let Some(mut s) = span.take() {
                    s.mark(Stage::L2Lookup, t_l2 + self.l2_latency);
                    self.finish_span(s, ServiceLevel::L2, Stage::FillWait, done, false);
                }
                done
            }
            None => {
                self.l2[core].stats.demand_misses += 1;
                match mshr_acquire(&mut self.l2[core].mshr, line, t_l2) {
                    Err(ready) => {
                        if let Some(s) = span.take() {
                            self.finish_span(s, ServiceLevel::L2, Stage::L2MshrWait, ready, true);
                        }
                        ready
                    }
                    Ok(t2) => {
                        let t_llc = t2 + self.l2_latency;
                        if let Some(s) = span.as_mut() {
                            s.mark(Stage::L2MshrWait, t2);
                            s.mark(Stage::L2Lookup, t_llc);
                        }
                        let done = self.access_llc(core, rec.pc, line, false, t_llc, &mut span);
                        self.l2[core].mshr.register(line, done);
                        self.fill_l2(core, line, false, done);
                        done
                    }
                }
            }
        };
        debug_assert!(span.is_none(), "every demand path must seal its span");
        self.fill_l1(core, line, is_write, false, ready);
        self.l1d[core].mshr.register(line, ready);
        ready
    }

    /// Issue a prefetch generated at L1 (fills L1, L2 and — policy
    /// permitting — the LLC).
    fn prefetch_from_l1(&mut self, core: usize, pc: u64, line: LineAddr, cycle: u64) {
        if self.l1d[core].probe(line).is_some() {
            return; // already resident (also dedupes in-flight prefetches)
        }
        self.l1d[core].stats.prefetch_accesses += 1;
        self.l1d[core].stats.prefetch_misses += 1;
        let t_l2 = cycle + self.l1_latency;
        // L1 prefetches extend the demand stream, so they also train the
        // L2 prefetcher (otherwise an L1 prefetcher that covers the
        // stream starves the level below of training input).
        if let Some(ready) = self.prefetch_into_l2(core, pc, line, t_l2, true) {
            self.fill_l1(core, line, false, true, ready);
        }
    }

    /// Issue a prefetch generated at L2 (fills L2 and — policy
    /// permitting — the LLC, but not L1).
    fn prefetch_from_l2(&mut self, core: usize, pc: u64, line: LineAddr, cycle: u64) {
        let _ = self.prefetch_into_l2(core, pc, line, cycle, false);
    }

    /// Shared tail of the prefetch paths: look up L2, then LLC/DRAM, and
    /// fill L2. Returns the completion cycle, or `None` if the prefetch
    /// was shed because the target DRAM bank queue is too deep.
    /// `train_l2` lets L1-originated prefetches feed the L2 prefetcher
    /// (L2's own prefetches never re-train it, bounding the feedback
    /// loop).
    fn prefetch_into_l2(
        &mut self,
        core: usize,
        pc: u64,
        line: LineAddr,
        t_l2: u64,
        train_l2: bool,
    ) -> Option<u64> {
        if let Some(block_ready) = self.l2[core].lookup(line, false, true) {
            return Some((t_l2 + self.l2_latency).max(block_ready));
        }
        self.l2[core].stats.prefetch_accesses += 1;
        self.l2[core].stats.prefetch_misses += 1;
        // memory-controller shedding: if the line is not in the LLC and
        // its bank queue is deep, drop the prefetch instead of queueing
        // it behind demand traffic
        if self.llc.probe(line).is_none()
            && self.dram.queue_delay(line, t_l2) > PREFETCH_SHED_CYCLES
        {
            self.l2[core].stats.prefetch_dropped += 1;
            return None;
        }
        if train_l2 {
            self.trigger_l2_prefetcher(core, pc, line, false, t_l2);
        }
        let t_llc = t_l2 + self.l2_latency;
        let mut span = self.span_start(core, pc, line, true, t_l2);
        if let Some(s) = span.as_mut() {
            s.mark(Stage::L2Lookup, t_llc);
        }
        let done = self.access_llc(core, pc, line, true, t_llc, &mut span);
        self.fill_l2(core, line, true, done);
        Some(done)
    }

    fn trigger_l1_prefetcher(
        &mut self,
        core: usize,
        pc: u64,
        line: LineAddr,
        hit: bool,
        cycle: u64,
    ) {
        let mut proposals = std::mem::take(&mut self.scratch);
        proposals.clear();
        self.l1_pref[core].on_access(pc, line, hit, &mut proposals);
        for req in proposals.drain(..) {
            match req.fill {
                FillLevel::L1 => self.prefetch_from_l1(core, pc, req.line, cycle),
                FillLevel::L2 => self.prefetch_from_l2(core, pc, req.line, cycle),
                FillLevel::LlcOnly => self.prefetch_llc_only(core, pc, req.line, cycle),
            }
        }
        self.scratch = proposals;
    }

    fn trigger_l2_prefetcher(
        &mut self,
        core: usize,
        pc: u64,
        line: LineAddr,
        hit: bool,
        cycle: u64,
    ) {
        let mut proposals = std::mem::take(&mut self.scratch);
        proposals.clear();
        self.l2_pref[core].on_access(pc, line, hit, &mut proposals);
        for req in proposals.drain(..) {
            match req.fill {
                // an L2-resident prefetcher cannot fill L1
                FillLevel::L1 | FillLevel::L2 => self.prefetch_from_l2(core, pc, req.line, cycle),
                FillLevel::LlcOnly => self.prefetch_llc_only(core, pc, req.line, cycle),
            }
        }
        self.scratch = proposals;
    }

    /// A far-lookahead prefetch that fills only the shared LLC (subject
    /// to the management policy's bypass decision).
    fn prefetch_llc_only(&mut self, core: usize, pc: u64, line: LineAddr, cycle: u64) {
        if self.llc.probe(line).is_none()
            && self.dram.queue_delay(line, cycle) > PREFETCH_SHED_CYCLES
        {
            self.llc.stats.prefetch_dropped += 1;
            return;
        }
        let t_llc = cycle + self.l1_latency + self.l2_latency;
        let mut span = self.span_start(core, pc, line, true, cycle);
        if let Some(s) = span.as_mut() {
            s.mark(Stage::L1Lookup, cycle + self.l1_latency);
            s.mark(Stage::L2Lookup, t_llc);
        }
        let _ = self.access_llc(core, pc, line, true, t_llc, &mut span);
    }

    // ---- Functional path for sampled-replay warmup ----
    //
    // These mirror the timed access/prefetch cascade above (fills and
    // dirty-victim writebacks reuse its helpers), driven by per-core
    // *pseudo-clocks* instead of the real scheduler: cache contents,
    // LLC policy state, prefetcher training, the MMU and the DRAM
    // bank/bus model all update exactly as in timed mode, while
    // MSHRs, C-AMAT accounting and latency spans are never touched. The
    // pseudo-clock (see [`System::functional_warm_to`]) advances at the
    // CPI the last detailed phase measured, so DRAM traffic arrives at
    // a realistic density and the memory-controller prefetch shed test
    // (`queue_delay > PREFETCH_SHED_CYCLES`) fires with the same
    // burstiness as in the full run — shed-sensitive prefetcher and
    // LLC warmup was by far the largest sampled-replay error source.

    /// LLC leg of the functional path: policy callbacks, statistics,
    /// eager fills and the DRAM traffic beneath a miss run exactly as
    /// in timed mode (warming replacement/bypass state and the bank
    /// queues), but there is no MSHR or C-AMAT activity. Returns the
    /// completion estimate (hit latency or real DRAM completion) and
    /// whether the access went to memory.
    fn functional_access_llc(
        &mut self,
        core: usize,
        pc: u64,
        line: LineAddr,
        is_prefetch: bool,
        cycle: u64,
    ) -> (u64, bool) {
        // Same NoC gating as the timed path, against the pseudo-clock:
        // requests route to the home slice, completions route back, so
        // functional warmup sees the same traffic skew and link pressure
        // a timed run would.
        let (cycle, slice) = match self.noc.as_mut() {
            Some(noc) => noc.request(core, line, cycle),
            None => (cycle, 0),
        };
        let info = AccessInfo {
            core,
            pc,
            line,
            is_prefetch,
            is_write: false,
            cycle,
        };
        match self.llc.access(&info, &self.feedback) {
            LlcOutcome::Hit { ready } => {
                let done = (cycle + self.llc.latency).max(ready);
                (noc_respond(self.noc.as_mut(), slice, core, done), false)
            }
            LlcOutcome::Miss {
                bypassed,
                writeback,
            } => {
                let done = self.dram.access(line, cycle + self.llc.latency, false);
                if !bypassed {
                    self.llc.set_ready(line, done);
                }
                if let Some(wb) = writeback {
                    self.dram.access(wb, cycle, true);
                }
                (noc_respond(self.noc.as_mut(), slice, core, done), true)
            }
        }
    }

    fn functional_prefetch_l2(
        &mut self,
        core: usize,
        pc: u64,
        line: LineAddr,
        train_l2: bool,
        cycle: u64,
    ) -> Option<u64> {
        if let Some(ready) = self.l2[core].lookup(line, false, true) {
            return Some((cycle + self.l2_latency).max(ready));
        }
        self.l2[core].stats.prefetch_accesses += 1;
        self.l2[core].stats.prefetch_misses += 1;
        // the real memory-controller shed test, against the pseudo-time
        // bank queues — without it DRAM-bound workloads warm up far
        // beyond timed reality
        if self.llc.probe(line).is_none()
            && self.dram.queue_delay(line, cycle) > PREFETCH_SHED_CYCLES
        {
            self.l2[core].stats.prefetch_dropped += 1;
            return None;
        }
        if train_l2 {
            self.functional_trigger_l2(core, pc, line, false, cycle);
        }
        let (done, _) = self.functional_access_llc(core, pc, line, true, cycle);
        self.fill_l2(core, line, true, done);
        Some(done)
    }

    fn functional_prefetch(&mut self, core: usize, pc: u64, req: PrefetchRequest, cycle: u64) {
        match req.fill {
            FillLevel::L1 => {
                if self.l1d[core].probe(req.line).is_some() {
                    return;
                }
                self.l1d[core].stats.prefetch_accesses += 1;
                self.l1d[core].stats.prefetch_misses += 1;
                if let Some(ready) = self.functional_prefetch_l2(core, pc, req.line, true, cycle) {
                    self.fill_l1(core, req.line, false, true, ready);
                }
            }
            FillLevel::L2 => {
                let _ = self.functional_prefetch_l2(core, pc, req.line, false, cycle);
            }
            FillLevel::LlcOnly => {
                if self.llc.probe(req.line).is_none()
                    && self.dram.queue_delay(req.line, cycle) > PREFETCH_SHED_CYCLES
                {
                    self.llc.stats.prefetch_dropped += 1;
                    return;
                }
                let _ = self.functional_access_llc(core, pc, req.line, true, cycle);
            }
        }
    }

    fn functional_trigger_l1(
        &mut self,
        core: usize,
        pc: u64,
        line: LineAddr,
        hit: bool,
        cycle: u64,
    ) {
        let mut proposals = std::mem::take(&mut self.scratch);
        proposals.clear();
        self.l1_pref[core].on_access(pc, line, hit, &mut proposals);
        for req in proposals.drain(..) {
            self.functional_prefetch(core, pc, req, cycle);
        }
        self.scratch = proposals;
    }

    fn functional_trigger_l2(
        &mut self,
        core: usize,
        pc: u64,
        line: LineAddr,
        hit: bool,
        cycle: u64,
    ) {
        let mut proposals = std::mem::take(&mut self.scratch);
        proposals.clear();
        self.l2_pref[core].on_access(pc, line, hit, &mut proposals);
        for mut req in proposals.drain(..) {
            // an L2-resident prefetcher cannot fill L1
            if req.fill == FillLevel::L1 {
                req.fill = FillLevel::L2;
            }
            self.functional_prefetch(core, pc, req, cycle);
        }
        self.scratch = proposals;
    }

    /// Apply one trace record functionally: the full demand cascade
    /// (L1 → L2 → LLC → DRAM, prefetcher training included) at the
    /// caller-supplied pseudo-clock, with no scheduler involvement.
    /// Used by sampled replay to fast-forward between representative
    /// intervals. Returns the estimated completion cycle of the demand
    /// access (hit latency at whichever level served it, or the real
    /// DRAM completion) and whether it went all the way to memory —
    /// the warmup driver replays dependence chains and MSHR occupancy
    /// from these, so pseudo-time stalls where the timed core stalls.
    pub(crate) fn functional_access(
        &mut self,
        core: usize,
        rec: &TraceRecord,
        cycle: u64,
    ) -> (u64, bool) {
        let is_write = rec.kind == AccessKind::Store;
        let line = self.mmu.translate(core, rec.vaddr);
        self.l1d[core].stats.demand_accesses += 1;
        if let Some(ready) = self.l1d[core].lookup(line, is_write, false) {
            self.functional_trigger_l1(core, rec.pc, line, true, cycle);
            return ((cycle + self.l1_latency).max(ready), false);
        }
        self.l1d[core].stats.demand_misses += 1;
        self.functional_trigger_l1(core, rec.pc, line, false, cycle);
        self.l2[core].stats.demand_accesses += 1;
        let t_l2 = cycle + self.l1_latency;
        let l2_res = self.l2[core].lookup(line, false, false);
        self.functional_trigger_l2(core, rec.pc, line, l2_res.is_some(), cycle);
        let (done, dram) = match l2_res {
            Some(ready) => ((t_l2 + self.l2_latency).max(ready), false),
            None => {
                self.l2[core].stats.demand_misses += 1;
                let r =
                    self.functional_access_llc(core, rec.pc, line, false, t_l2 + self.l2_latency);
                self.fill_l2(core, line, false, r.0);
                r
            }
        };
        self.fill_l1(core, line, is_write, false, done);
        (done, dram)
    }

    /// Reset all measurement counters (used at the warmup boundary).
    fn reset_stats(&mut self) {
        for c in &mut self.l1d {
            c.stats = Default::default();
        }
        for c in &mut self.l2 {
            c.stats = Default::default();
        }
        self.llc.stats = Default::default();
        self.camat.reset_totals();
        if let Some(noc) = &mut self.noc {
            noc.epoch_rebase();
        }
    }

    /// The mesh-NoC timing state, when enabled.
    pub fn noc(&self) -> Option<&NocState> {
        self.noc.as_ref()
    }
}

/// Which scheduling kernel drives [`System::run`].
///
/// Both kernels execute the identical per-core retire/issue semantics;
/// the event-driven kernel merely skips provable no-op work. Results
/// (final stats, epoch telemetry, obstruction vectors) are byte-identical
/// by construction, and the differential tests in `chrome-bench` assert
/// it for every policy, workload class and core count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// Cycle-skipping scheduler: per-core next-activity watermarks in a
    /// min-heap, so a stepped cycle costs O(due · log N) rather than
    /// O(N), and direct clock jumps to `min(next event, next epoch
    /// boundary)`.
    #[default]
    EventDriven,
    /// Naive uniform stepping: touch every core every cycle. Kept as
    /// the ground-truth reference for differential testing and as the
    /// denominator of the throughput benchmark's speedup metric.
    Reference,
}

/// One representative interval of a sampled-replay plan (see
/// [`System::run_sampled`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampledInterval {
    /// Per-core absolute trace fetch positions (instructions pulled,
    /// counting non-memory runs) at which the measured interval starts.
    /// Per-core rather than global because cores drift: each core's
    /// position comes from its own manifest interval sums.
    pub start: Vec<u64>,
    /// Detailed-but-unmeasured lead-in instructions per core, simulated
    /// with full timing after the functional fast-forward so MSHR, DRAM
    /// and ROB state are realistic when measurement begins.
    pub ramp: u64,
    /// Measured instructions per core.
    pub detail: u64,
}

/// Per-interval metrics from a functional-only profiling pass (see
/// [`System::run_functional_profile`]): the cheap full-coverage
/// auxiliary series that sampled reconstruction uses as control
/// variates for its detailed measurements.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FunctionalProfile {
    /// Pseudo-clock cycles each aligned interval took.
    pub cycles: Vec<u64>,
    /// LLC demand misses in each aligned interval.
    pub llc_misses: Vec<u64>,
}

/// The complete simulated machine.
pub struct System {
    cfg: SimConfig,
    cores: Vec<Core>,
    hier: MemHierarchy,
    cycle: u64,
    next_epoch: u64,
    obstructed_epochs: Vec<u64>,
    total_epochs: u64,
    telemetry: TelemetrySink,
    /// LLC counter snapshot at the last telemetry epoch boundary, so
    /// epoch records carry per-epoch deltas that sum to the final stats.
    epoch_base: CacheStats,
    epoch_seq: u64,
    /// Per-core conservative wake-up cycles of the event-driven kernel,
    /// exactly one `(next_event, core)` entry per core in a min-heap. A
    /// watermark above `c` proves stepping that core at cycle `c` would
    /// be a no-op; the top is the earliest cycle any core can progress.
    events: BinaryHeap<Reverse<(u64, u32)>>,
    /// Reused buffer for per-core epoch samples, so epoch boundaries do
    /// not allocate.
    epoch_scratch: Vec<CamatEpoch>,
    /// Cores the last stepped event-kernel advance stepped, in rotation
    /// order (see [`System::collect_due`]).
    due: Vec<usize>,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cores", &self.cores.len())
            .field("cycle", &self.cycle)
            .field("policy", &self.hier.llc.policy.name())
            .finish_non_exhaustive()
    }
}

impl System {
    /// Build a system with the built-in LRU policy at the LLC.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len() != cfg.cores`.
    pub fn new(cfg: SimConfig, traces: Vec<Box<dyn TraceSource>>) -> Self {
        Self::with_policy(cfg, traces, BuiltinLru::new())
    }

    /// Build a system with an explicit LLC management policy.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len() != cfg.cores`.
    pub fn with_policy(
        cfg: SimConfig,
        traces: Vec<Box<dyn TraceSource>>,
        policy: impl Into<PolicySlot>,
    ) -> Self {
        assert_eq!(traces.len(), cfg.cores, "one trace per core required");
        let hier = MemHierarchy::new(&cfg, policy.into());
        let cores = traces
            .into_iter()
            .map(|t| Core::new(t, cfg.rob_size, cfg.width))
            .collect();
        let next_epoch = cfg.epoch_cycles;
        let n = cfg.cores;
        let mut sys = System {
            cfg,
            cores,
            hier,
            cycle: 0,
            next_epoch,
            obstructed_epochs: Vec::new(),
            total_epochs: 0,
            telemetry: TelemetrySink::noop(),
            epoch_base: CacheStats::default(),
            epoch_seq: 0,
            events: BinaryHeap::with_capacity(n),
            epoch_scratch: Vec::with_capacity(n),
            due: Vec::with_capacity(n),
        };
        sys.reset_events(0);
        sys
    }

    /// Attach a telemetry sink; it is forwarded to the LLC and the
    /// management policy so decision events flow into the same buffers
    /// as the epoch series.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.hier.llc.set_telemetry(sink.clone());
        self.hier.sink = sink.clone();
        self.telemetry = sink;
    }

    /// The attached telemetry sink (no-op by default).
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }

    /// Enable Fig. 2 evicted-unused tracking on the LLC.
    pub fn enable_unused_tracking(&mut self) {
        self.hier.llc.enable_unused_tracking();
    }

    /// Name of the active LLC policy.
    pub fn policy_name(&self) -> &str {
        self.hier.llc.policy.name()
    }

    /// Turn on per-decision audit recording in the LLC policy, tagged
    /// `stream` and bounded to `cap` records. Returns false when the
    /// policy keeps no decision stream (heuristics).
    pub fn enable_audit(&mut self, stream: u32, cap: usize) -> bool {
        self.hier.llc.policy.enable_audit(stream, cap)
    }

    /// The recorded audit trail as a binary blob (empty unless
    /// [`System::enable_audit`] was called on an auditable policy).
    pub fn audit_bytes(&self) -> Vec<u8> {
        self.hier
            .llc
            .policy
            .audit()
            .map(|log| log.to_bytes())
            .unwrap_or_default()
    }

    /// Immutable access to the memory hierarchy (stats, DRAM, feedback).
    pub fn hierarchy(&self) -> &MemHierarchy {
        &self.hier
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// One cycle of the naive reference kernel: every core retires and
    /// issues, unconditionally. Ground truth for the event-driven
    /// scheduler. Always returns `true` (a cycle was stepped).
    fn step_reference(&mut self) -> bool {
        let cycle = self.cycle;
        let n = self.cores.len();
        let start = cycle as usize % n;
        let hier = &mut self.hier;
        for k in 0..n {
            // rotation `(k + cycle) % n` without the per-core modulo
            let i = start + k;
            let i = if i >= n { i - n } else { i };
            let core = &mut self.cores[i];
            core.retire(cycle);
            core.issue(cycle, |rec, t| hier.demand_access(i, rec, t));
        }
        self.cycle += 1;
        if self.cycle >= self.next_epoch {
            self.end_epoch();
        }
        true
    }

    /// Set every core's watermark to `cycle`: each core is due then.
    fn reset_events(&mut self, cycle: u64) {
        self.events.clear();
        self.events
            .extend((0..self.cores.len() as u32).map(|i| Reverse((cycle, i))));
    }

    /// Pop every core whose watermark is `<= cycle` into `self.due`,
    /// ordered by rotation distance `(i + n - cycle % n) % n` — the
    /// order `(k + cycle) % n` in which the reference kernel steps them.
    /// The popped cores own no heap entry until they push their
    /// refreshed watermark back after stepping.
    fn collect_due(&mut self, cycle: u64) {
        self.due.clear();
        while let Some(&Reverse((ev, i))) = self.events.peek() {
            if ev > cycle {
                break;
            }
            self.events.pop();
            self.due.push(i as usize);
        }
        let n = self.cores.len();
        let start = cycle as usize % n;
        self.due.sort_unstable_by_key(|&i| (i + n - start) % n);
    }

    /// One advance of the event-driven kernel: step exactly the cores
    /// that are due this cycle (in the same rotation order as the
    /// reference) and push their refreshed watermarks back; if none are
    /// due, jump the clock straight to `min(next event, next epoch)`. A
    /// stepped cycle costs O(due · log N), not O(N): on 64 `mcf` cores
    /// behind a 16-slice mesh only about 1.1 cores are due per stepped
    /// cycle.
    ///
    /// Skipped work is provably a no-op — a core with `next_event > c`
    /// has a full ROB whose head completes after `c`, so both `retire`
    /// and `issue` would leave all state untouched — which is what makes
    /// this a pure scheduling transform: the sequence of *effectful*
    /// `(core, cycle)` calls is identical to the reference kernel's.
    ///
    /// Returns `true` when a cycle was stepped, `false` on a clock jump.
    fn step_event(&mut self) -> bool {
        let cycle = self.cycle;
        let min_event = self.events.peek().map_or(u64::MAX, |&Reverse((ev, _))| ev);
        if min_event > cycle {
            // No core can retire or issue before `min_event`; the epoch
            // boundary clamps the jump so feedback epochs still tick at
            // exactly the same cycles as the reference kernel. Jumps
            // leave every watermark untouched.
            self.cycle = min_event.min(self.next_epoch);
            if self.cycle >= self.next_epoch {
                self.end_epoch();
            }
            return false;
        }
        self.collect_due(cycle);
        let hier = &mut self.hier;
        for &i in &self.due {
            let core = &mut self.cores[i];
            core.retire(cycle);
            core.issue(cycle, |rec, t| hier.demand_access(i, rec, t));
            let next = core.next_activity(cycle + 1);
            self.events.push(Reverse((next, i as u32)));
        }
        self.cycle = cycle + 1;
        if self.cycle >= self.next_epoch {
            self.end_epoch();
        }
        true
    }

    /// Advance the simulation by one kernel step (one cycle, or one
    /// clock jump under the event-driven kernel). Returns `true` when a
    /// cycle was stepped — only then can any core have retired
    /// instructions.
    #[inline]
    fn advance(&mut self, kernel: Kernel) -> bool {
        match kernel {
            Kernel::EventDriven => self.step_event(),
            Kernel::Reference => self.step_reference(),
        }
    }

    /// Advance until `reached(core, i, cycle)` has held once for every
    /// core. A core's progress changes only when it is stepped, so after
    /// each stepped advance only the cores that advance stepped are
    /// re-tested — the due set under the event kernel, every core under
    /// the reference kernel — and a clock jump tests none. `cycle` is the
    /// clock after the step; a core that has reached is not asked again.
    fn advance_until(
        &mut self,
        kernel: Kernel,
        mut reached: impl FnMut(&mut Core, usize, u64) -> bool,
    ) {
        let n = self.cores.len();
        let cycle = self.cycle;
        let mut pending: Vec<bool> = (0..n)
            .map(|i| !reached(&mut self.cores[i], i, cycle))
            .collect();
        let mut remaining = pending.iter().filter(|&&p| p).count();
        while remaining > 0 {
            if !self.advance(kernel) {
                continue;
            }
            let cycle = self.cycle;
            let mut check = |i: usize| {
                if pending[i] && reached(&mut self.cores[i], i, cycle) {
                    pending[i] = false;
                    remaining -= 1;
                }
            };
            match kernel {
                Kernel::EventDriven => self.due.iter().for_each(|&i| check(i)),
                Kernel::Reference => (0..n).for_each(check),
            }
        }
    }

    fn end_epoch(&mut self) {
        self.next_epoch += self.cfg.epoch_cycles;
        // T_mem is the characteristic main-memory latency (paper §IV-C);
        // using the load-inflated measured average would make obstruction
        // undetectable precisely when contention is worst.
        let t_mem = self.hier.dram.unloaded_latency();
        let mut per_core = std::mem::take(&mut self.epoch_scratch);
        self.hier
            .camat
            .end_epoch_into(self.next_epoch, &mut per_core);
        let fb = &mut self.hier.feedback;
        fb.t_mem = t_mem;
        fb.epoch += 1;
        for (i, e) in per_core.iter().enumerate() {
            fb.camat_llc[i] = e.camat;
            fb.obstructed[i] = e.accesses > 0 && e.camat > t_mem;
        }
        self.total_epochs += 1;
        if self.obstructed_epochs.len() == self.cores.len() {
            for (i, o) in self.obstructed_epochs.iter_mut().enumerate() {
                if fb.obstructed[i] {
                    *o += 1;
                }
            }
        }
        // Split borrows: hand the feedback to the policy without cloning
        // its per-core vectors.
        let MemHierarchy { llc, feedback, .. } = &mut self.hier;
        llc.policy.on_epoch(feedback);
        self.record_epoch(&per_core);
        self.epoch_scratch = per_core;
    }

    /// Append one epoch record to the telemetry sink (free when
    /// telemetry is disabled). `per_core` is the [`CamatEpoch`] slice of
    /// the epoch being closed; LLC counters are recorded as deltas
    /// against the previous boundary so the per-epoch columns sum
    /// exactly to the end-of-run [`CacheStats`].
    fn record_epoch(&mut self, per_core: &[CamatEpoch]) {
        if !cfg!(feature = "telemetry") || !self.telemetry.is_enabled() {
            return;
        }
        let t_mem = self.hier.dram.unloaded_latency();
        let llc = self.hier.llc.stats;
        let base = &self.epoch_base;
        let (dram_queue_avg, dram_queue_max) = self.hier.dram.bank_backlog(self.cycle);
        let (noc_slice_accesses, noc_link_busy) = match self.hier.noc.as_mut() {
            Some(noc) => noc.epoch_deltas(),
            None => (Vec::new(), Vec::new()),
        };
        let rec = EpochRecord {
            epoch: self.epoch_seq,
            end_cycle: self.cycle,
            camat: per_core.iter().map(|e| e.camat).collect(),
            amat: per_core.iter().map(|e| e.amat).collect(),
            obstructed: per_core
                .iter()
                .map(|e| e.accesses > 0 && e.camat > t_mem)
                .collect(),
            llc_active: per_core.iter().map(|e| e.active_cycles).collect(),
            llc_accesses: per_core.iter().map(|e| e.accesses).collect(),
            l1_mshr_occupancy: self
                .hier
                .l1d
                .iter()
                .map(|c| c.mshr.live_occupancy(self.cycle) as u32)
                .collect(),
            l2_mshr_occupancy: self
                .hier
                .l2
                .iter()
                .map(|c| c.mshr.live_occupancy(self.cycle) as u32)
                .collect(),
            demand_accesses: llc.demand_accesses - base.demand_accesses,
            demand_misses: llc.demand_misses - base.demand_misses,
            bypasses: llc.bypasses - base.bypasses,
            evictions: llc.evictions - base.evictions,
            writebacks: llc.writebacks - base.writebacks,
            mshr_occupancy: self.hier.llc.mshr.live_occupancy(self.cycle) as u32,
            mshr_capacity: self.hier.llc.mshr.capacity() as u32,
            dram_queue_avg,
            dram_queue_max,
            noc_slice_accesses,
            noc_link_busy,
            policy: self.hier.llc.policy.epoch_probe(),
        };
        self.telemetry.emit(
            self.cycle,
            0,
            EventKind::EpochBoundary {
                epoch: self.epoch_seq,
            },
        );
        self.telemetry.push_epoch(rec);
        self.epoch_base = llc;
        self.epoch_seq += 1;
    }

    /// Run `warmup` instructions per core (unmeasured), then run until
    /// every core has retired `instructions` more, under the default
    /// event-driven kernel. Returns the measured results.
    ///
    /// # Panics
    ///
    /// Panics if `instructions` is zero.
    pub fn run(&mut self, instructions: u64, warmup: u64) -> SimResults {
        self.run_with_kernel(instructions, warmup, Kernel::default())
    }

    /// [`System::run`] with an explicit scheduling [`Kernel`]. The
    /// reference kernel exists for differential testing and as the
    /// throughput benchmark's speedup denominator; both produce
    /// identical [`SimResults`] and telemetry.
    ///
    /// # Panics
    ///
    /// Panics if `instructions` is zero.
    pub fn run_with_kernel(
        &mut self,
        instructions: u64,
        warmup: u64,
        kernel: Kernel,
    ) -> SimResults {
        assert!(instructions > 0, "instruction quota must be positive");
        // Warmup phase. The quota is re-checked after every stepped
        // cycle, so the last action before the measurement boundary is
        // always the quota-meeting step — a clock jump retires nothing
        // and thus can never be the final advance.
        self.advance_until(kernel, |core, _, _| core.retired >= warmup);
        // Measurement boundary: warmup telemetry is discarded so the
        // epoch series covers exactly the measured region.
        self.telemetry.clear();
        self.epoch_seq = 0;
        self.run_measured(instructions, kernel)
    }

    /// Reset measurement counters at the current cycle, run until every
    /// core retires `instructions` more, and collect results. Shared by
    /// [`System::run_with_kernel`] (once, after timed warmup) and
    /// [`System::run_sampled`] (once per representative interval).
    /// Telemetry is *not* cleared here, so a sampled run's epoch series
    /// spans all of its measured intervals.
    fn run_measured(&mut self, instructions: u64, kernel: Kernel) -> SimResults {
        assert!(instructions > 0, "instruction quota must be positive");
        self.hier.reset_stats();
        self.epoch_base = CacheStats::default();
        let dram_reads0 = self.hier.dram.reads;
        let dram_writes0 = self.hier.dram.writes;
        self.obstructed_epochs = vec![0; self.cores.len()];
        self.total_epochs = 0;
        for core in &mut self.cores {
            core.measure_start_retired = core.retired;
            core.measure_start_rob_lag = core.rob_release_lag;
            core.measure_start_cycle = self.cycle;
            core.done_cycle = None;
        }
        // Measured phase: run until all cores meet their quota; cores
        // that finish early keep running to preserve contention. Each
        // core's done cycle is the clock after the step that met it.
        self.advance_until(kernel, |core, _, cycle| {
            let done = core.measured_instructions() >= instructions;
            if done {
                core.done_cycle = Some(cycle);
            }
            done
        });
        // Close the still-open partial epoch so the telemetry series
        // accounts for every measured access.
        if cfg!(feature = "telemetry") && self.telemetry.is_enabled() {
            let mut partial = std::mem::take(&mut self.epoch_scratch);
            self.hier.camat.epoch_snapshot_into(&mut partial);
            self.record_epoch(&partial);
            self.epoch_scratch = partial;
        }
        self.collect_results(instructions, dram_reads0, dram_writes0)
    }

    /// Functionally fast-forward every core's trace cursor to the given
    /// absolute per-core fetch position (no-op for cores already past
    /// it). Every record on the way updates caches, policy state,
    /// prefetchers and DRAM; in-flight timing state (ROB contents,
    /// dependence chains) is discarded at the switch.
    ///
    /// Each core carries a *pseudo-clock* that starts at the shared
    /// clock and paces itself the way the timed front end does: between
    /// stalls, instructions issue at fetch-width speed, and the stalls
    /// themselves are replayed from completion estimates — a ROB-window
    /// clamp on the oldest in-flight load, `dep_prev` serialization on
    /// the producer's completion at whatever level served it, and
    /// L1-MSHR occupancy delaying the access itself. Average CPI then
    /// *emerges* from the machine model instead of being imposed, and —
    /// crucially — issue stays bursty: stall-then-drain spikes are what
    /// push DRAM bank queues past the memory-controller shed threshold,
    /// so a smooth average-CPI clock under-sheds prefetches by an order
    /// of magnitude on stall-heavy workloads. Cores are interleaved
    /// lowest-clock-first, so the DRAM model sees demand and prefetch
    /// traffic at realistic density and ordering. At the end the shared
    /// clock jumps to the farthest pseudo-clock, so the following
    /// detailed ramp continues from DRAM queues that are genuinely warm
    /// rather than fossilized in the past.
    ///
    /// Learned policies keep training through the fast-forward:
    /// freezing them was measured to be far worse (greedy decisions
    /// over a virgin/stale Q-table degenerate to a single tie-rank
    /// action for the whole gap, and the policy arrives at the
    /// measured segment untrained relative to the full run).
    fn functional_warm_to(&mut self, targets: &[u64]) {
        let n = self.cores.len();
        let warmed: Vec<bool> = (0..n).map(|i| self.cores[i].fetched < targets[i]).collect();
        let width = self.cfg.width as f64;
        let rob_size = self.cfg.rob_size as u64;
        let mut ft: Vec<f64> = vec![self.cycle as f64; n];
        // In-flight loads per core as (fetch position, completion):
        // the in-order retire window. Fetch cannot pass an incomplete
        // load by more than the ROB size — the only front-end stall the
        // timed core has, replayed here as a pseudo-clock jump.
        let mut rob: Vec<std::collections::VecDeque<(u64, u64)>> = vec![Default::default(); n];
        // Outstanding DRAM-bound misses per core, capped at the L1 MSHR
        // capacity. As in timed `mshr_acquire`, a full file delays the
        // *access* (not the front end) to the oldest completion.
        let mshr_cap: Vec<usize> = (0..n).map(|i| self.hier.l1d[i].mshr.capacity()).collect();
        let mut mshr: Vec<std::collections::VecDeque<u64>> = vec![Default::default(); n];
        // Completion of each core's most recent load, for `dep_prev`
        // serialization — pointer-chase chains run at MLP 1 in timed
        // mode and must do so here too.
        let mut last_load: Vec<u64> = vec![0; n];
        loop {
            // next record comes from the core whose pseudo-clock is
            // furthest behind (deterministic: ties break by index)
            let mut pick = None;
            let mut best = f64::INFINITY;
            for i in 0..n {
                if self.cores[i].fetched < targets[i] && ft[i] < best {
                    best = ft[i];
                    pick = Some(i);
                }
            }
            let Some(i) = pick else { break };
            let core = &mut self.cores[i];
            let rec = core.take_pending().unwrap_or_else(|| core.fetch_record());
            let pos = core.fetched;
            // Retire completed loads; stall fetch on the ROB window.
            while let Some(&(p, done)) = rob[i].front() {
                if (done as f64) <= ft[i] {
                    rob[i].pop_front();
                } else if p + rob_size <= pos {
                    ft[i] = done as f64;
                    rob[i].pop_front();
                } else {
                    break;
                }
            }
            // The leading non-memory run issues at width per cycle.
            ft[i] += f64::from(rec.nonmem_before) / width;
            let mut at = ft[i];
            if rec.dep_prev {
                at = at.max(last_load[i] as f64);
            }
            while mshr[i].front().is_some_and(|&d| (d as f64) <= at) {
                mshr[i].pop_front();
            }
            if mshr[i].len() >= mshr_cap[i] {
                let oldest = mshr[i].pop_front().unwrap();
                at = at.max(oldest as f64);
            }
            let (done, dram) = self.hier.functional_access(i, &rec, at as u64);
            if dram {
                mshr[i].push_back(done);
            }
            if rec.kind == AccessKind::Load {
                last_load[i] = done;
                rob[i].push_back((pos, done));
            }
            ft[i] += 1.0 / width;
        }
        for (i, core) in self.cores.iter_mut().enumerate() {
            if warmed[i] {
                core.reset_timing();
            }
        }

        // Rebase the shared clock onto pseudo-time so the detailed ramp
        // runs against live DRAM queues instead of long-drained ones.
        let end = ft.iter().fold(self.cycle as f64, |a, &b| a.max(b)) as u64;
        self.cycle = end;
        // No epoch machinery ran during the gap; realign the next
        // boundary to the epoch grid so the ramp doesn't replay a burst
        // of empty feedback epochs.
        if self.cycle >= self.next_epoch {
            let e = self.cfg.epoch_cycles;
            self.next_epoch = (self.cycle / e + 1) * e;
        }
        // Pre-switch watermarks may lie arbitrarily far in the future
        // (full-ROB stalls that no longer exist); after the switch every
        // core is immediately due.
        self.reset_events(self.cycle);
    }

    /// Run detailed (timed, unmeasured) simulation until every core's
    /// fetch cursor reaches its target position — the timing ramp that
    /// re-establishes MSHR, DRAM-queue and ROB state after a functional
    /// fast-forward.
    fn run_detailed_until(&mut self, targets: &[u64], kernel: Kernel) {
        self.advance_until(kernel, |core, i, _| core.fetched >= targets[i]);
    }

    /// Sampled replay: for each representative interval, functionally
    /// fast-forward to `start - ramp`, run a detailed-but-unmeasured
    /// timing ramp to `start`, then measure `detail` instructions per
    /// core. Returns one [`SimResults`] per interval, in plan order;
    /// full-run metrics are reconstructed by weighting them with the
    /// plan's cluster weights (see `chrome-simpoint`).
    ///
    /// Intervals must be sorted by ascending start position (traces are
    /// forward-only). Overlapping phases degrade gracefully: a core
    /// already past a functional or ramp target simply skips it.
    ///
    /// # Panics
    ///
    /// Panics if the plan is empty, an interval's `start` length does
    /// not match the core count, its `detail` is zero, or start
    /// positions are not non-decreasing.
    pub fn run_sampled(&mut self, plan: &[SampledInterval], kernel: Kernel) -> Vec<SimResults> {
        assert!(
            !plan.is_empty(),
            "sampled plan must have at least one interval"
        );
        for w in plan.windows(2) {
            assert!(
                w[0].start.iter().zip(&w[1].start).all(|(a, b)| a <= b),
                "sampled intervals must be sorted by start position"
            );
        }
        self.telemetry.clear();
        self.epoch_seq = 0;
        let mut out = Vec::with_capacity(plan.len());
        let mut warm_targets = Vec::with_capacity(self.cores.len());
        for seg in plan {
            assert_eq!(
                seg.start.len(),
                self.cores.len(),
                "one start position per core"
            );
            warm_targets.clear();
            warm_targets.extend(seg.start.iter().map(|s| s.saturating_sub(seg.ramp)));
            self.functional_warm_to(&warm_targets);
            self.run_detailed_until(&seg.start, kernel);
            out.push(self.run_measured(seg.detail, kernel));
        }
        out
    }

    /// Functional-only profiling pass: walk every aligned interval with
    /// the functional model (no detailed simulation at all), recording
    /// per-interval pseudo-cycles and LLC demand misses. These are the
    /// *control variates* sampled reconstruction pairs with detailed
    /// measurements: the functional model tracks per-interval metric
    /// *variation* far more tightly than any clustering of summary
    /// features, so estimating `full = functional_total + weighted
    /// mean(detailed − functional)` over the sampled intervals removes
    /// most of the stratified estimator's selection variance.
    ///
    /// `boundaries[c]` holds core `c`'s cumulative fetch positions at
    /// every aligned interval boundary (`n + 1` entries starting at 0).
    /// Cycles are shared-clock deltas — exact for single-core traces,
    /// a lowest-clock-sync approximation across cores.
    ///
    /// # Panics
    ///
    /// Panics if `boundaries` is empty or disagrees with the core count.
    pub fn run_functional_profile(&mut self, boundaries: &[Vec<u64>]) -> FunctionalProfile {
        assert_eq!(
            boundaries.len(),
            self.cores.len(),
            "one boundary list per core"
        );
        let n = boundaries.iter().map(|b| b.len()).min().unwrap_or(0);
        assert!(n > 1, "profile needs at least one aligned interval");
        let mut cycles = Vec::with_capacity(n - 1);
        let mut llc_misses = Vec::with_capacity(n - 1);
        let mut targets = vec![0u64; self.cores.len()];
        for j in 1..n {
            for (t, b) in targets.iter_mut().zip(boundaries) {
                *t = b[j];
            }
            let cycle0 = self.cycle;
            let miss0 = self.hier.llc.stats.demand_misses;
            self.functional_warm_to(&targets);
            cycles.push(self.cycle - cycle0);
            llc_misses.push(self.hier.llc.stats.demand_misses - miss0);
        }
        FunctionalProfile { cycles, llc_misses }
    }

    fn collect_results(
        &self,
        instructions: u64,
        dram_reads0: u64,
        dram_writes0: u64,
    ) -> SimResults {
        let per_core = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, core)| {
                let (active, accesses) = self.hier.camat.totals(i);
                CoreStats {
                    instructions,
                    cycles: core
                        .done_cycle
                        .expect("all cores done")
                        .saturating_sub(core.measure_start_cycle)
                        .max(1),
                    llc_accesses: accesses,
                    llc_active_cycles: active,
                    llc_latency_cycles: self.hier.camat.total_latency(i),
                    rob_release_lag: core.measured_rob_release_lag(),
                    obstructed_epochs: self.obstructed_epochs.get(i).copied().unwrap_or(0),
                    total_epochs: self.total_epochs,
                }
            })
            .collect::<Vec<_>>();
        let total_cycles = per_core.iter().map(|c| c.cycles).max().unwrap_or(0);
        SimResults {
            l1d: self.hier.l1d.iter().map(|c| c.stats).collect(),
            l2: self.hier.l2.iter().map(|c| c.stats).collect(),
            llc: self.hier.llc.stats,
            dram_reads: self.hier.dram.reads - dram_reads0,
            dram_writes: self.hier.dram.writes - dram_writes0,
            dram_avg_latency: self.hier.dram.avg_read_latency(),
            total_cycles,
            evicted_unused: self.hier.llc.unused_tracker.summary(),
            bypassed_outcome: self.hier.llc.bypass_tracker.summary(),
            per_core,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{RandomSource, StridedSource};

    fn boxed(t: impl TraceSource + 'static) -> Box<dyn TraceSource> {
        Box::new(t)
    }

    #[test]
    fn single_core_strided_runs() {
        let cfg = SimConfig::small_test(1);
        let mut sys = System::new(cfg, vec![boxed(StridedSource::new(0, 64, 1 << 16, 2))]);
        let r = sys.run(20_000, 2_000);
        assert_eq!(r.per_core.len(), 1);
        assert!(r.per_core[0].ipc() > 0.1, "ipc = {}", r.per_core[0].ipc());
        assert!(r.per_core[0].ipc() <= 6.0);
    }

    #[test]
    fn cache_friendly_beats_cache_hostile() {
        // A tiny working set (fits in L1) must be much faster than a
        // random scan over a large one.
        let cfg = SimConfig::small_test(1);
        let mut friendly =
            System::new(cfg.clone(), vec![boxed(StridedSource::new(0, 64, 2048, 2))]);
        let rf = friendly.run(20_000, 2_000);
        let mut hostile = System::new(cfg, vec![boxed(RandomSource::new(0, 64 << 20, 2, 9))]);
        let rh = hostile.run(20_000, 2_000);
        assert!(
            rf.per_core[0].ipc() > 2.0 * rh.per_core[0].ipc(),
            "friendly {} vs hostile {}",
            rf.per_core[0].ipc(),
            rh.per_core[0].ipc()
        );
    }

    #[test]
    fn multicore_contention_slows_cores() {
        let mk = || boxed(RandomSource::new(0, 32 << 20, 1, 5));
        let mut alone = System::new(SimConfig::small_test(1), vec![mk()]);
        let ra = alone.run(10_000, 1_000);
        let cfg4 = SimConfig::small_test(4);
        let mut shared = System::new(cfg4, (0..4).map(|_| mk()).collect());
        let rs = shared.run(10_000, 1_000);
        assert!(
            rs.per_core[0].ipc() < ra.per_core[0].ipc() * 1.05,
            "shared {} vs alone {}",
            rs.per_core[0].ipc(),
            ra.per_core[0].ipc()
        );
    }

    #[test]
    fn llc_sees_traffic_and_camat_is_positive() {
        let cfg = SimConfig::small_test(1);
        let mut sys = System::new(cfg, vec![boxed(RandomSource::new(0, 32 << 20, 1, 3))]);
        let r = sys.run(20_000, 1_000);
        assert!(r.llc.demand_accesses > 0);
        assert!(r.per_core[0].llc_accesses > 0);
        assert!(r.per_core[0].camat_llc() > 0.0);
    }

    #[test]
    fn prefetcher_reduces_misses_on_streams() {
        let mut cfg = SimConfig::small_test(1);
        cfg.prefetchers = crate::config::PrefetcherConfig::none();
        let trace = || boxed(StridedSource::new(0, 64, 8 << 20, 2));
        let mut nopf = System::new(cfg.clone(), vec![trace()]);
        let r0 = nopf.run(30_000, 2_000);
        cfg.prefetchers = crate::config::PrefetcherConfig::default_paper();
        let mut withpf = System::new(cfg, vec![trace()]);
        let r1 = withpf.run(30_000, 2_000);
        assert!(
            r1.per_core[0].ipc() > r0.per_core[0].ipc(),
            "prefetch {} vs none {}",
            r1.per_core[0].ipc(),
            r0.per_core[0].ipc()
        );
    }

    #[test]
    fn determinism() {
        let run = || {
            let cfg = SimConfig::small_test(2);
            let traces = vec![
                boxed(RandomSource::new(0, 16 << 20, 1, 7)),
                boxed(StridedSource::new(0, 128, 1 << 20, 2)),
            ];
            let mut sys = System::new(cfg, traces);
            let r = sys.run(10_000, 1_000);
            (
                r.per_core[0].cycles,
                r.per_core[1].cycles,
                r.llc.demand_misses,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn epochs_advance() {
        let cfg = SimConfig::small_test(1);
        let mut sys = System::new(cfg, vec![boxed(RandomSource::new(0, 32 << 20, 1, 3))]);
        let r = sys.run(30_000, 1_000);
        assert!(r.per_core[0].total_epochs > 0, "epochs should tick");
    }

    #[test]
    #[should_panic(expected = "one trace per core")]
    fn trace_count_mismatch_panics() {
        let cfg = SimConfig::small_test(2);
        let _ = System::new(cfg, vec![boxed(StridedSource::new(0, 64, 1024, 0))]);
    }

    #[test]
    fn store_heavy_workload_produces_dram_writes() {
        struct Stores {
            pos: u64,
        }
        impl TraceSource for Stores {
            fn next_record(&mut self) -> TraceRecord {
                self.pos += 64;
                // alternate store and load over a big region: dirty lines
                // eventually wash out of the hierarchy as DRAM writes
                if self.pos.is_multiple_of(128) {
                    TraceRecord::store(0x400, self.pos % (64 << 20), 1)
                } else {
                    TraceRecord::load(0x404, self.pos % (64 << 20), 1)
                }
            }
            fn name(&self) -> &str {
                "stores"
            }
        }
        let cfg = SimConfig::small_test(1);
        let mut sys = System::new(cfg, vec![boxed(Stores { pos: 0 })]);
        let r = sys.run(40_000, 4_000);
        assert!(r.dram_writes > 0, "dirty evictions must reach DRAM");
        assert!(r.llc.writebacks > 0 || r.l2[0].writebacks > 0);
    }

    #[test]
    fn obstruction_flags_fire_for_serialized_miss_chains() {
        // Obstruction is a *concurrency* judgement: a pointer-chasing
        // core (no MLP) pays the full LLC-and-beyond latency per access,
        // so its C-AMAT(LLC) exceeds T_mem; a high-MLP core does not.
        struct Chase {
            pos: u64,
        }
        impl TraceSource for Chase {
            fn next_record(&mut self) -> TraceRecord {
                self.pos = crate::types::mix64(self.pos) % (1 << 19);
                TraceRecord::dep_load(0x500, self.pos * 64, 0)
            }
            fn name(&self) -> &str {
                "chase"
            }
        }
        let mut cfg = SimConfig::small_test(2);
        cfg.epoch_cycles = 20_000;
        cfg.prefetchers = crate::config::PrefetcherConfig::none();
        let traces: Vec<Box<dyn TraceSource>> = vec![
            boxed(Chase { pos: 1 }),
            boxed(RandomSource::new(0, 32 << 20, 0, 11)),
        ];
        let mut sys = System::new(cfg, traces);
        let r = sys.run(15_000, 1_000);
        assert!(
            r.per_core[0].obstructed_epochs > 0,
            "serialized chaser should be LLC-obstructed (camat={:.0})",
            r.per_core[0].camat_llc()
        );
    }

    #[test]
    fn compute_bound_core_is_never_obstructed() {
        // a tiny working set hits in L1: C-AMAT(LLC) ~ 0
        let cfg = SimConfig::small_test(1);
        let mut sys = System::new(cfg, vec![boxed(StridedSource::new(0, 64, 1024, 8))]);
        let r = sys.run(30_000, 2_000);
        assert_eq!(r.per_core[0].obstructed_epochs, 0);
    }

    #[test]
    fn prefetches_are_shed_under_saturation() {
        let cfg = SimConfig::small_test(2);
        let traces = (0..2)
            .map(|i| boxed(StridedSource::new((i as u64) << 32, 64, 32 << 20, 0)))
            .collect();
        let mut sys = System::new(cfg, traces);
        let r = sys.run(60_000, 5_000);
        let dropped: u64 =
            r.l2.iter().map(|c| c.prefetch_dropped).sum::<u64>() + r.llc.prefetch_dropped;
        assert!(dropped > 0, "dense streams must trigger prefetch shedding");
    }

    #[test]
    fn dependent_chains_have_lower_mlp_than_streams() {
        // same miss volume, but pointer chasing serializes: fewer
        // overlapping accesses => higher C-AMAT per access at the LLC
        struct Chase {
            pos: u64,
        }
        impl TraceSource for Chase {
            fn next_record(&mut self) -> TraceRecord {
                self.pos = crate::types::mix64(self.pos) % (32 << 14); // lines
                TraceRecord::dep_load(0x500, self.pos * 64, 1)
            }
            fn name(&self) -> &str {
                "chase"
            }
        }
        let mut cfg = SimConfig::small_test(1);
        cfg.prefetchers = crate::config::PrefetcherConfig::none();
        let mut chase_sys = System::new(cfg.clone(), vec![boxed(Chase { pos: 1 })]);
        let chase = chase_sys.run(20_000, 2_000);
        let mut stream_sys = System::new(cfg, vec![boxed(RandomSource::new(0, 32 << 20, 1, 5))]);
        let stream = stream_sys.run(20_000, 2_000);
        assert!(
            chase.per_core[0].ipc() < stream.per_core[0].ipc(),
            "chase {} should be slower than independent random {}",
            chase.per_core[0].ipc(),
            stream.per_core[0].ipc()
        );
    }

    #[test]
    fn event_kernel_jumps_but_never_past_epoch_boundary() {
        // A pointer-chasing workload stalls its ROB on long DRAM round
        // trips, so the event kernel must take multi-cycle jumps — but a
        // jump may never overshoot the epoch boundary, or feedback
        // epochs would fire at different cycles than the reference.
        struct Chase {
            pos: u64,
        }
        impl TraceSource for Chase {
            fn next_record(&mut self) -> TraceRecord {
                self.pos = crate::types::mix64(self.pos) % (1 << 19);
                TraceRecord::dep_load(0x500, self.pos * 64, 0)
            }
            fn name(&self) -> &str {
                "chase"
            }
        }
        let mut cfg = SimConfig::small_test(1);
        cfg.prefetchers = crate::config::PrefetcherConfig::none();
        let mut sys = System::new(cfg, vec![boxed(Chase { pos: 1 })]);
        let mut jumped = false;
        for _ in 0..200_000 {
            let before = sys.cycle;
            let epoch_target = sys.next_epoch;
            sys.advance(Kernel::EventDriven);
            // the clamp invariant: a jump lands on or before the epoch
            // boundary that was pending when it was taken
            assert!(
                sys.cycle <= epoch_target,
                "advance jumped from {before} past the epoch boundary {epoch_target} to {}",
                sys.cycle
            );
            if sys.cycle > before + 1 {
                jumped = true;
            }
        }
        assert!(jumped, "memory-bound chase should trigger clock jumps");
        assert!(sys.total_epochs > 0, "epochs must still tick while jumping");
    }

    #[test]
    fn policy_report_is_accessible_after_run() {
        let cfg = SimConfig::small_test(1);
        let mut sys = System::new(cfg, vec![boxed(RandomSource::new(0, 1 << 20, 1, 3))]);
        let _ = sys.run(5_000, 500);
        // the built-in LRU reports no custom metrics, but the plumbing
        // must be reachable through the trait object
        assert!(sys.hierarchy().llc.policy.report().is_empty());
        assert_eq!(sys.policy_name(), "LRU");
    }
}
