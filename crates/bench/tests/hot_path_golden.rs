//! Golden-digest pin for the data-oriented hot-path refactor: every
//! cell's `SimResults` and epoch-telemetry series must stay *byte
//! identical* to the digests captured on `main` before the SoA/SIMD/
//! enum-dispatch rework landed. `kernel_equiv.rs` proves the two
//! scheduling kernels agree with each other; this test proves the
//! whole simulator still agrees with its own past across policies,
//! kernels, prefetcher presets and geometries (including the full
//! Table V 12/20/12-way caches the SIMD probe has to mask correctly).
//! Sampled-replay cells pin the functional fast-forward path as well:
//! the per-interval `SimResults` (plus epochs) of `run_sampled` and the
//! `FunctionalProfile` of `run_functional_profile`.
//!
//! Regenerate (only when an *intentional* semantic change lands) with:
//!
//! ```text
//! REGEN_HOT_PATH_GOLDEN=1 cargo test -p chrome-bench --test hot_path_golden
//! ```

use chrome_bench::registry::build_any_slot;
use chrome_noc::NocConfig;
use chrome_sim::{Kernel, PrefetcherConfig, SampledInterval, SimConfig, System};
use chrome_telemetry::{TelemetryConfig, TelemetrySink};
use chrome_traces::mix;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/hot_path_digests.txt"
);

/// FNV-1a over the canonical debug rendering — the same stable-hash
/// idiom the grid engine uses for spec hashes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

struct Cell {
    label: &'static str,
    workload: &'static str,
    scheme: &'static str,
    cores: usize,
    prefetchers: PrefetcherConfig,
    /// Use the full Table V geometry instead of `small_test`.
    full_geometry: bool,
    instructions: u64,
    warmup: u64,
}

fn cells() -> Vec<Cell> {
    let c =
        |label, workload, scheme, cores, prefetchers, full_geometry, instructions, warmup| Cell {
            label,
            workload,
            scheme,
            cores,
            prefetchers,
            full_geometry,
            instructions,
            warmup,
        };
    vec![
        // Policy coverage on the small geometry (8-way LLC).
        c(
            "lru-mcf-1",
            "mcf",
            "LRU",
            1,
            PrefetcherConfig::default_paper(),
            false,
            20_000,
            2_000,
        ),
        c(
            "lru-mcf-4",
            "mcf",
            "LRU",
            4,
            PrefetcherConfig::default_paper(),
            false,
            12_000,
            1_000,
        ),
        c(
            "chrome-mcf-1",
            "mcf",
            "CHROME",
            1,
            PrefetcherConfig::default_paper(),
            false,
            20_000,
            2_000,
        ),
        c(
            "chrome-mcf-4",
            "mcf",
            "CHROME",
            4,
            PrefetcherConfig::default_paper(),
            false,
            12_000,
            1_000,
        ),
        c(
            "hawkeye-mcf-2",
            "mcf",
            "Hawkeye",
            2,
            PrefetcherConfig::default_paper(),
            false,
            12_000,
            1_000,
        ),
        c(
            "glider-lib-2",
            "libquantum",
            "Glider",
            2,
            PrefetcherConfig::default_paper(),
            false,
            12_000,
            1_000,
        ),
        c(
            "mockingjay-mcf-2",
            "mcf",
            "Mockingjay",
            2,
            PrefetcherConfig::default_paper(),
            false,
            12_000,
            1_000,
        ),
        c(
            "care-mcf-2",
            "mcf",
            "CARE",
            2,
            PrefetcherConfig::default_paper(),
            false,
            12_000,
            1_000,
        ),
        // Prefetcher-kind coverage (every enum arm of the dispatcher).
        c(
            "lru-lib-none",
            "libquantum",
            "LRU",
            1,
            PrefetcherConfig::none(),
            false,
            16_000,
            1_000,
        ),
        c(
            "lru-lib-ss",
            "libquantum",
            "LRU",
            1,
            PrefetcherConfig::stride_streamer(),
            false,
            16_000,
            1_000,
        ),
        c(
            "lru-lib-ipcp",
            "libquantum",
            "LRU",
            1,
            PrefetcherConfig::ipcp(),
            false,
            16_000,
            1_000,
        ),
        // GAP workload + non-power-of-two full Table V geometry
        // (12-way L1, 20-way L2, 12-way LLC: the SIMD probe's masked
        // remainder lanes).
        c(
            "lru-bfs-full",
            "bfs-ur",
            "LRU",
            2,
            PrefetcherConfig::default_paper(),
            true,
            12_000,
            1_000,
        ),
        c(
            "chrome-mcf-full",
            "mcf",
            "CHROME",
            2,
            PrefetcherConfig::default_paper(),
            true,
            12_000,
            1_000,
        ),
    ]
}

fn digest_cell(cell: &Cell, kernel: Kernel) -> u64 {
    let mut cfg = if cell.full_geometry {
        SimConfig::with_cores(cell.cores)
    } else {
        SimConfig::small_test(cell.cores)
    };
    cfg.prefetchers = cell.prefetchers;
    let traces = mix::homogeneous(cell.workload, cfg.cores, 0xC0FFEE).expect("known workload");
    let policy = build_any_slot(cell.scheme).expect("known scheme");
    let mut sys = System::with_policy(cfg, traces, policy);
    sys.set_telemetry(TelemetrySink::recording(TelemetryConfig::default()));
    let results = sys.run_with_kernel(cell.instructions, cell.warmup, kernel);
    let epochs = sys
        .telemetry()
        .with(|t| t.epochs.clone())
        .unwrap_or_default();
    // Canonical rendering: Debug formatting of both payloads. f64 Debug
    // is shortest-roundtrip, so equal digests imply bit-equal floats.
    let rendered = format!("{results:?}|{:?}", epochs.records());
    fnv1a(rendered.as_bytes())
}

/// Sampled-replay coverage: 1 and 4 cores, LRU and CHROME, NoC off
/// and on (4 slices), on the small geometry.
struct SampledCell {
    scheme: &'static str,
    cores: usize,
    noc: bool,
}

impl SampledCell {
    fn label(&self) -> String {
        let noc = if self.noc { "noc4" } else { "flat" };
        format!("{}-mcf-{}-{noc}", self.scheme.to_lowercase(), self.cores)
    }

    fn system(&self) -> System {
        let mut cfg = SimConfig::small_test(self.cores);
        if self.noc {
            cfg.noc = Some(NocConfig {
                slices: 4,
                ..NocConfig::default()
            });
        }
        let traces = mix::homogeneous("mcf", cfg.cores, 0xC0FFEE).expect("known workload");
        let policy = build_any_slot(self.scheme).expect("known scheme");
        System::with_policy(cfg, traces, policy)
    }
}

fn sampled_cells() -> Vec<SampledCell> {
    let mut out = Vec::new();
    for cores in [1, 4] {
        for scheme in ["LRU", "CHROME"] {
            for noc in [false, true] {
                out.push(SampledCell { scheme, cores, noc });
            }
        }
    }
    out
}

/// Two representative intervals: functional fast-forward, a timed ramp,
/// then a measured slice, with telemetry spanning both measured parts.
fn digest_sampled(cell: &SampledCell, kernel: Kernel) -> u64 {
    let plan: Vec<SampledInterval> = [6_000, 18_000]
        .iter()
        .map(|&start| SampledInterval {
            start: vec![start; cell.cores],
            ramp: 1_000,
            detail: 3_000,
        })
        .collect();
    let mut sys = cell.system();
    sys.set_telemetry(TelemetrySink::recording(TelemetryConfig::default()));
    let results = sys.run_sampled(&plan, kernel);
    let epochs = sys
        .telemetry()
        .with(|t| t.epochs.clone())
        .unwrap_or_default();
    fnv1a(format!("{results:?}|{:?}", epochs.records()).as_bytes())
}

/// Functional-only profile over four aligned 5K-instruction intervals.
fn digest_profile(cell: &SampledCell) -> u64 {
    let boundaries = vec![vec![0, 5_000, 10_000, 15_000, 20_000]; cell.cores];
    let profile = cell.system().run_functional_profile(&boundaries);
    fnv1a(format!("{profile:?}").as_bytes())
}

#[test]
fn hot_paths_match_pre_refactor_golden_digests() {
    let regen = std::env::var("REGEN_HOT_PATH_GOLDEN").is_ok();
    let mut lines = Vec::new();
    for cell in cells() {
        for (kname, kernel) in [
            ("event", Kernel::EventDriven),
            ("reference", Kernel::Reference),
        ] {
            let digest = digest_cell(&cell, kernel);
            lines.push(format!("{}/{kname} {digest:#018x}", cell.label));
        }
    }
    for cell in sampled_cells() {
        let label = cell.label();
        for (kname, kernel) in [
            ("event", Kernel::EventDriven),
            ("reference", Kernel::Reference),
        ] {
            let digest = digest_sampled(&cell, kernel);
            lines.push(format!("sampled-{label}/{kname} {digest:#018x}"));
        }
        let digest = digest_profile(&cell);
        lines.push(format!("profile-{label} {digest:#018x}"));
    }
    let current = lines.join("\n") + "\n";
    if regen {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN_PATH, &current).unwrap();
        eprintln!("regenerated {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden digest file missing — run with REGEN_HOT_PATH_GOLDEN=1 to create it");
    let golden_map: std::collections::BTreeMap<&str, &str> =
        golden.lines().filter_map(|l| l.split_once(' ')).collect();
    let mut mismatches = Vec::new();
    for line in current.lines() {
        let (label, digest) = line.split_once(' ').unwrap();
        match golden_map.get(label) {
            Some(&want) if want == digest => {}
            Some(&want) => mismatches.push(format!("{label}: got {digest}, golden {want}")),
            None => mismatches.push(format!("{label}: missing from golden file")),
        }
    }
    assert!(
        mismatches.is_empty(),
        "hot-path results diverged from the pre-refactor golden digests:\n{}",
        mismatches.join("\n")
    );
}
