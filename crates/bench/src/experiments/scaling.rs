//! NoC scaling sweep: CHROME vs LRU on 16- and 64-core meshes with
//! sliced LLCs, heterogeneous SPEC mixes.
//!
//! Where Fig. 11 sweeps core counts under the uniform-latency LLC,
//! this sweep turns the mesh NoC on and scales the slice count with
//! the machine (one slice per four cores), so LLC access cost grows
//! with distance and contention instead of staying flat.

use chrome_exec::CellOutcome;
use chrome_noc::NocConfig;
use chrome_traces::mix::heterogeneous_names;

use super::{cell, ExperimentPlan};
use crate::grid::{metric, CellResult};
use crate::runner::{geomean, RunParams};
use crate::table::TableWriter;

const CORE_COUNTS: [usize; 2] = [16, 64];
const SCHEMES: [&str; 2] = ["LRU", "CHROME"];

/// Canonical NoC spec for a machine of `cores` cores: one LLC slice
/// per four cores, default hop/serialization/queue parameters.
fn noc_spec(cores: usize) -> String {
    NocConfig {
        slices: (cores / 4).max(1),
        ..NocConfig::default()
    }
    .canonical()
}

pub fn plan(params: &RunParams) -> ExperimentPlan {
    let mixes = params.mixes.unwrap_or(3);
    // `--cores 16` / `--cores 64` narrows the sweep to one machine size
    // (the CI smoke runs just the 16-core half); any other value keeps
    // the full sweep.
    let core_counts: Vec<usize> = if CORE_COUNTS.contains(&params.cores) {
        vec![params.cores]
    } else {
        CORE_COUNTS.to_vec()
    };
    let mut cells = Vec::new();
    let mut groups: Vec<(usize, Vec<String>)> = Vec::new();
    for cores in core_counts {
        let labels: Vec<String> = heterogeneous_names(cores, mixes, 0x5CA1E)
            .iter()
            .map(|names| names.join("+"))
            .collect();
        for wl in &labels {
            for scheme in SCHEMES {
                let mut c = cell(params, "scaling_sweep", wl, scheme);
                c.cores = cores as u32;
                c.noc = noc_spec(cores);
                // Hold the total simulated-instruction budget roughly
                // flat across machine sizes so the 64-core rows stay
                // tractable at the default budget.
                c.instructions = params.instructions * 16 / cores as u64;
                c.warmup = params.warmup * 16 / cores as u64;
                cells.push(c);
            }
        }
        groups.push((cores, labels));
    }

    ExperimentPlan {
        name: "scaling_sweep",
        cells,
        assemble: Box::new(move |out: &[CellOutcome<CellResult>]| {
            let mut table = TableWriter::new(
                "scaling_sweep",
                &["config", "lru_ipc", "chrome_ipc", "speedup", "chrome_camat"],
            );
            let mut cursor = 0;
            for (cores, labels) in &groups {
                // per-mix columns: lru_ipc, chrome_ipc, speedup, chrome_camat
                let mut cols: [Vec<f64>; 4] = Default::default();
                for wl in labels {
                    let lru = cursor;
                    let chrome = cursor + 1;
                    cursor += SCHEMES.len();
                    let s = match (
                        out.get(lru).and_then(CellOutcome::value),
                        out.get(chrome).and_then(CellOutcome::value),
                    ) {
                        (Some(l), Some(c)) => c.weighted_speedup_vs(l),
                        _ => f64::NAN,
                    };
                    let row = [
                        metric(out, lru, CellResult::ipc_sum),
                        metric(out, chrome, CellResult::ipc_sum),
                        s,
                        metric(out, chrome, |r| {
                            r.report_metric("camat").unwrap_or(f64::NAN)
                        }),
                    ];
                    for (col, v) in cols.iter_mut().zip(row) {
                        col.push(v);
                    }
                    let short: String = wl.chars().take(40).collect();
                    table.row_f(&format!("{cores}c {short}"), &row);
                }
                // C-AMAT is a latency, so it aggregates as a plain mean;
                // IPC sums and speedups are ratios and take the geomean.
                let camat = &cols[3];
                table.row_f(
                    &format!("{cores}-core geomean"),
                    &[
                        geomean(&cols[0]),
                        geomean(&cols[1]),
                        geomean(&cols[2]),
                        camat.iter().sum::<f64>() / camat.len() as f64,
                    ],
                );
            }
            vec![table]
        }),
    }
}
