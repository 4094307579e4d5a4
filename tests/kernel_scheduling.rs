//! The event-driven kernel against the reference kernel on a machine
//! wider than one 64-bit word of cores: scheduling must not change any
//! result. The per-policy, NoC and worker-pool sweeps live in the
//! `chrome-bench` equivalence suites; this case keeps the default
//! scheduler under the root package's tests.

use chrome_repro::sim::{Kernel, SimConfig, SimResults, System};
use chrome_repro::traces::mix;

fn run(kernel: Kernel) -> SimResults {
    // 66 cores is not a power of two, so the rotation order wraps at an
    // unaligned core count. 33 LLC ways keep the set count a power of
    // two: 66 × 64 KiB / (64 B × 33) = 2048 sets.
    let mut cfg = SimConfig::small_test(66);
    cfg.llc_ways = 33;
    let traces = mix::homogeneous("mcf", cfg.cores, 0x66).expect("mcf exists");
    let mut sys = System::new(cfg, traces);
    sys.run_with_kernel(2_000, 200, kernel)
}

#[test]
fn event_kernel_matches_reference_at_66_cores() {
    let reference = run(Kernel::Reference);
    let event = run(Kernel::EventDriven);
    assert!(reference.llc.demand_accesses > 0, "the LLC saw no traffic");
    assert_eq!(reference, event, "event kernel diverged at 66 cores");
}
