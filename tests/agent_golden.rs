//! Golden digests of the CHROME decision path, as the two environments
//! that drive the SARSA engine see it: the serving cache (`chrome` and
//! `chrome-nc` on the mixed-tenant stream) and the hardware LLC agent
//! (`chrome_core::agent::Chrome` on a 2-core mix).
//!
//! Each cell is rendered canonically and hashed with FNV-1a:
//!
//! * serve — merged `CacheStats` and virtual-latency percentiles, the
//!   per-decision audit blob (state, action and per-feature Q of every
//!   decision), and the decision-event JSONL (sampled `serve_decision`,
//!   `reward_applied` and `q_update` events, the latter carrying the
//!   pre-update TD delta);
//! * sim — the full `SimResults` and the audit blob.
//!
//! Every pinned part is independent of the `telemetry` feature (the
//! serve event ring and both audit logs are not gated by it), so the
//! pins hold under `--no-default-features` and under any workspace
//! feature unification.
//!
//! A change to Q-table layout, action selection or the training step
//! that is meant to be behaviour-preserving must leave every digest
//! untouched. Regenerate a pin only for a deliberate change of agent
//! semantics; the failure message prints the observed value.

use chrome_exec::fnv1a64;
use chrome_repro::chrome::agent::Chrome;
use chrome_repro::chrome::ChromeConfig;
use chrome_repro::sim::{SimConfig, System};
use chrome_repro::traces::mix;
use chrome_serve::{bench, BenchParams, PolicyKind, StreamKind};

const SEED: u64 = 0x601D;

/// `servebench --quick` geometry on the mixed-tenant stream.
fn serve_params(policy: PolicyKind, threads: usize) -> BenchParams {
    BenchParams {
        policy,
        stream: StreamKind::MixedTenant,
        threads,
        requests: 30_000,
        keyspace: 5_000,
        seed: SEED,
        shards: 8,
        shard_slots: 256,
        shard_bytes: 128 * 1024,
        time_policy: false,
    }
}

/// `[stats, audit, events]` digests of one serve cell.
fn serve_digests(policy: PolicyKind) -> [u64; 3] {
    let (result, audit) = bench::run_audited(&serve_params(policy, 2), 1 << 20);
    let (evented, jsonl) = bench::run_with_events(&serve_params(policy, 1));
    assert_eq!(
        result.stats, evented.stats,
        "audit must not perturb the run"
    );
    assert!(!audit.is_empty() && !jsonl.is_empty());
    let stats = format!("{:?}|{}|{}", result.stats, result.p50_us, result.p99_us);
    [
        fnv1a64(stats.as_bytes()),
        fnv1a64(&audit),
        fnv1a64(jsonl.as_bytes()),
    ]
}

/// `[results, audit]` digests of the CHROME sim cell.
fn sim_digests() -> [u64; 2] {
    let traces = mix::build_mix(&["mcf", "libquantum"], SEED).expect("known workloads");
    let policy = Box::new(Chrome::new(ChromeConfig::default()));
    let mut sys = System::with_policy(SimConfig::small_test(2), traces, policy);
    assert!(sys.enable_audit(0, 1 << 20));
    let results = sys.run(40_000, 4_000);
    [
        fnv1a64(format!("{results:?}").as_bytes()),
        fnv1a64(&sys.audit_bytes()),
    ]
}

fn check(cell: &str, got: &[u64], want: &[u64], failures: &mut Vec<String>) {
    let shown: Vec<String> = got.iter().map(|g| format!("{g:#018x}")).collect();
    println!("{cell}: [{}]", shown.join(", "));
    for (part, (g, w)) in ["stats", "audit", "events"]
        .iter()
        .zip(got.iter().zip(want))
    {
        if g != w {
            failures.push(format!("{cell} {part}: got {g:#018x}, pinned {w:#018x}"));
        }
    }
}

#[test]
fn serve_decision_path_matches_pinned_digests() {
    let mut failures = Vec::new();
    check(
        "chrome",
        &serve_digests(PolicyKind::Chrome),
        &[0x4eb85e5b6735f198, 0x1a9187904d9b5d78, 0x4df303280c0959fe],
        &mut failures,
    );
    check(
        "chrome-nc",
        &serve_digests(PolicyKind::ChromeNc),
        &[0x092012c118337023, 0x1563de828c2038e2, 0xb9309e52e2debdcd],
        &mut failures,
    );
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn sim_decision_path_matches_pinned_digests() {
    let mut failures = Vec::new();
    check(
        "sim CHROME",
        &sim_digests(),
        &[0x84207b2905773471, 0x0b6c55811acf0d36],
        &mut failures,
    );
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
