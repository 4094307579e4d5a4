//! Micro-benchmarks for the hot structures: Q-table lookup and update,
//! CHROME's decision path, cache access paths, DRAM timing, and
//! workload-generator throughput. These are the operations that bound
//! simulation speed and, conceptually, the hardware's decision latency
//! (paper §V-G estimates ~2 cycles for the pipelined Q-table lookup).
//!
//! Run with `cargo bench -p chrome-bench --features bench-harness`.

use chrome_bench::harness::{bench, black_box};
use chrome_core::agent::Chrome;
use chrome_core::config::ChromeConfig;
use chrome_core::qtable::QTable;
use chrome_sim::cache::PrivateCache;
use chrome_sim::config::{CacheConfig, DramConfig};
use chrome_sim::dram::Dram;
use chrome_sim::llc::SharedLlc;
use chrome_sim::policy::{AccessInfo, BuiltinLru, LlcPolicy, SystemFeedback};
use chrome_sim::types::{mix64, LineAddr};

fn bench_qtable() {
    let mut table = QTable::new(2, 4, 2048, 1.582);
    let mut i = 0u64;
    bench("qtable_lookup", || {
        i += 1;
        let state = [mix64(i), i % 4096];
        black_box(table.q_state(&state, (i % 7) as usize))
    });
    let mut i = 0u64;
    bench("qtable_q_all", || {
        i += 1;
        let state = [mix64(i), i % 4096];
        black_box(table.q_all(&state))
    });
    let mut i = 0u64;
    bench("qtable_update", || {
        i += 1;
        let state = [mix64(i), i % 4096];
        table.update(&state, (i % 7) as usize, 10.0, 0.05);
    });
}

fn bench_chrome_decision() {
    let mut chrome = Chrome::new(ChromeConfig::default());
    chrome.initialize(16384, 12, 4);
    let fb = SystemFeedback::new(4);
    let mut i = 0u64;
    bench("chrome_miss_decision", || {
        i += 1;
        let info = AccessInfo {
            core: (i % 4) as usize,
            pc: 0x400 + (i % 64) * 4,
            line: LineAddr(mix64(i) % (1 << 24)),
            is_prefetch: i.is_multiple_of(5),
            is_write: false,
            cycle: i,
        };
        black_box(chrome.on_miss((mix64(i) % 16384) as usize, &info, &fb))
    });
}

fn bench_cache_paths() {
    let cfg = CacheConfig {
        capacity: 48 * 1024,
        ways: 12,
        latency: 5,
        mshr_entries: 16,
    };
    let mut l1 = PrivateCache::new(&cfg);
    let mut i = 0u64;
    bench("l1_lookup_fill", || {
        i += 1;
        let line = LineAddr(mix64(i) % 4096);
        if l1.lookup(line, false, false).is_none() {
            l1.fill(line, false, false, i);
        }
    });

    let llc_cfg = CacheConfig {
        capacity: 12 << 20,
        ways: 12,
        latency: 40,
        mshr_entries: 256,
    };
    let mut llc = SharedLlc::new(&llc_cfg, 4, Box::new(BuiltinLru::new()));
    let fb = SystemFeedback::new(4);
    let mut i = 0u64;
    bench("llc_access_lru", || {
        i += 1;
        let info = AccessInfo {
            core: (i % 4) as usize,
            pc: 0x400,
            line: LineAddr(mix64(i) % (1 << 20)),
            is_prefetch: false,
            is_write: false,
            cycle: i,
        };
        black_box(llc.access(&info, &fb))
    });
}

fn bench_dram() {
    let mut dram = Dram::new(DramConfig::default());
    let mut i = 0u64;
    bench("dram_access", || {
        i += 1;
        black_box(dram.access(LineAddr(mix64(i) % (1 << 22)), i * 4, false))
    });
}

fn bench_generators() {
    let mut spec = chrome_traces::build_workload("mcf", 1).expect("known");
    bench("trace_gen_spec_mcf", || black_box(spec.next_record()));
    let mut gap = chrome_traces::build_workload("pr-ur", 1).expect("known");
    bench("trace_gen_gap_pr", || black_box(gap.next_record()));
}

fn main() {
    bench_qtable();
    bench_chrome_decision();
    bench_cache_paths();
    bench_dram();
    bench_generators();
}
