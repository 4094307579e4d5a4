//! Differential tests for the mesh NoC.
//!
//! The event-driven kernel's clock jumps must stay exact when LLC
//! latency is no longer uniform (per-slice routing, link contention):
//! for every registered policy, with the NoC off and on, running a cell
//! under [`Kernel::EventDriven`] must produce byte-identical
//! [`SimResults`] and identical epoch telemetry to [`Kernel::Reference`].
//! Slice-count and queue-depth sweeps stress the same claim under
//! different mesh footprints and backpressure, and a final check proves
//! the mesh actually changes timing.

use chrome_bench::registry::{all_schemes, build_any_policy};
use chrome_noc::NocConfig;
use chrome_sim::{Kernel, SimConfig, SimResults, System};
use chrome_telemetry::{EpochSeries, TelemetryConfig, TelemetrySink};
use chrome_traces::mix;

/// Run one cell with an explicit kernel.
fn run_cell(
    cfg: &SimConfig,
    workload: &str,
    scheme: &str,
    kernel: Kernel,
    instructions: u64,
    warmup: u64,
) -> (SimResults, EpochSeries) {
    let traces = mix::homogeneous(workload, cfg.cores, 0x0C11).expect("known workload");
    let policy = build_any_policy(scheme).expect("known scheme");
    let mut sys = System::with_policy(cfg.clone(), traces, policy);
    sys.set_telemetry(TelemetrySink::recording(TelemetryConfig::default()));
    let results = sys.run_with_kernel(instructions, warmup, kernel);
    let epochs = sys
        .telemetry()
        .with(|t| t.epochs.clone())
        .unwrap_or_default();
    (results, epochs)
}

/// Assert the event-driven kernel agrees exactly with the reference
/// kernel on one cell.
fn assert_invariant(cfg: &SimConfig, workload: &str, scheme: &str, instructions: u64, warmup: u64) {
    let run = |kernel| run_cell(cfg, workload, scheme, kernel, instructions, warmup);
    let (r_ref, e_ref) = run(Kernel::Reference);
    let (r_evt, e_evt) = run(Kernel::EventDriven);
    assert_eq!(
        r_ref, r_evt,
        "SimResults diverged: {scheme} on {workload}, {} cores, noc={:?}",
        cfg.cores, cfg.noc
    );
    assert_eq!(
        e_ref.records(),
        e_evt.records(),
        "epoch series diverged: {scheme} on {workload}, {} cores, noc={:?}",
        cfg.cores,
        cfg.noc
    );
}

/// A 4-slice mesh config sized for the small-test LLC.
fn noc_on(cores: usize) -> SimConfig {
    let mut cfg = SimConfig::small_test(cores);
    cfg.noc = Some(NocConfig::default());
    cfg
}

/// NoC off: both kernels agree for every policy in the lineup.
#[test]
fn every_policy_is_kernel_invariant_with_noc_off() {
    let cfg = SimConfig::small_test(4);
    for scheme in all_schemes() {
        assert_invariant(&cfg, "mcf", scheme, 6_000, 600);
    }
}

/// NoC on: routing and contention state must be insensitive to the
/// kernel for every policy in the lineup.
#[test]
fn every_policy_is_kernel_invariant_with_noc_on() {
    let cfg = noc_on(4);
    for scheme in all_schemes() {
        assert_invariant(&cfg, "mcf", scheme, 6_000, 600);
        assert_invariant(&cfg, "libquantum", scheme, 4_000, 400);
    }
}

/// 16 cores on an 8×-entry mesh make multi-hop routes common.
#[test]
fn sixteen_core_mesh_is_kernel_invariant() {
    let cfg = noc_on(16);
    assert_invariant(&cfg, "mcf", "CHROME", 3_000, 300);
}

/// Single-core degenerate case: one core tile, four slices.
#[test]
fn single_core_mesh_is_kernel_invariant() {
    let cfg = noc_on(1);
    assert_invariant(&cfg, "libquantum", "LRU", 6_000, 600);
}

/// Slice-count sweep: 1, 2 and 8 slices change the set-to-slice map and
/// the mesh footprint; each must stay kernel-invariant.
#[test]
fn slice_counts_are_invariant() {
    for slices in [1usize, 2, 8] {
        let mut cfg = SimConfig::small_test(4);
        cfg.noc = Some(NocConfig {
            slices,
            ..NocConfig::default()
        });
        assert_invariant(&cfg, "omnetpp", "LRU", 4_000, 400);
    }
}

/// Deep contention: single-flit queues with a depth cap of 1 maximize
/// backpressure, the hardest case for event-driven clock jumps.
#[test]
fn tight_queues_are_invariant() {
    let mut cfg = SimConfig::small_test(8);
    cfg.noc = Some(NocConfig {
        slices: 8,
        hop_latency: 3,
        flits: 2,
        queue_depth: 1,
    });
    for scheme in ["LRU", "CHROME"] {
        assert_invariant(&cfg, "mcf", scheme, 4_000, 400);
    }
}

/// The NoC must actually change timing (otherwise these tests prove
/// nothing): the same cell with the mesh on must differ from the
/// uniform-latency model.
#[test]
fn noc_actually_perturbs_timing() {
    let off = SimConfig::small_test(4);
    let on = noc_on(4);
    let (r_off, _) = run_cell(&off, "mcf", "LRU", Kernel::Reference, 6_000, 600);
    let (r_on, _) = run_cell(&on, "mcf", "LRU", Kernel::Reference, 6_000, 600);
    assert_ne!(
        r_off, r_on,
        "a default mesh must add hop latency somewhere; identical results \
         mean the NoC is not wired into the LLC path"
    );
}
