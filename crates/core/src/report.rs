//! Plain-text rendering of the regenerated tables and figures, matching
//! the layout of the paper's artefacts, plus JSON export.

use crate::experiments::{AppResult, KernelResult};
use crate::tables::{table4, Table2Row};
use simdsim_isa::{Class, Ext};
use simdsim_rf::Table1Row;
use std::fmt::Write as _;

const EXT_ORDER: [&str; 4] = ["mmx64", "mmx128", "vmmx64", "vmmx128"];

/// Renders Table I (register-file scaling).
#[must_use]
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<14} {:>7} {:>8} {:>5} {:>10} {:>6} {:>6} {:>11} {:>9} {:>9}",
        "config",
        "logical",
        "physical",
        "lanes",
        "banks/lane",
        "rports",
        "wports",
        "storage KB",
        "area",
        "paper"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<14} {:>7} {:>8} {:>5} {:>10} {:>6} {:>6} {:>11.2} {:>8.2}X {:>8}",
            r.label,
            r.logical,
            r.physical,
            r.lanes,
            r.banks_per_lane,
            r.read_ports,
            r.write_ports,
            r.storage_kb,
            r.rel_area,
            r.paper_rel_area
                .map_or_else(|| "-".into(), |v| format!("{v:.2}X")),
        );
    }
    s
}

/// Renders Table II (benchmark set).
#[must_use]
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<10} {:<10} {:<42} data size",
        "app", "kernel", "description"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<10} {:<10} {:<42} {}",
            r.app, r.kernel, r.description, r.data_size
        );
    }
    s
}

/// Renders Table III (processor models).
#[must_use]
pub fn render_table3(rows: &[simdsim_pipe::PipeConfig]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<14} {:>9} {:>4} {:>4} {:>7} {:>8} {:>8} {:>6} {:>8} {:>8}",
        "config",
        "phys-simd",
        "rob",
        "iq",
        "int-fus",
        "fp-fus",
        "simd-iss",
        "lanes",
        "mem-fus",
        "l2-port"
    );
    for c in rows {
        let _ = writeln!(
            s,
            "{:<14} {:>9} {:>4} {:>4} {:>7} {:>8} {:>8} {:>6} {:>8} {:>7}B",
            c.label(),
            c.phys_simd,
            c.rob,
            c.iq,
            c.int_fus,
            c.fp_fus,
            c.simd_issue,
            c.lanes,
            c.mem_fus,
            c.mem.l2.port_width,
        );
    }
    s
}

/// Renders Table IV (memory hierarchy).
#[must_use]
pub fn render_table4() -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<6} {:<6} {:>8} {:>9} {:>8} {:>8} {:>9} {:>8} {:>8}",
        "way", "kind", "l1-size", "l1-ports", "l1-lat", "l2-size", "l2-width", "l2-lat", "mem-lat"
    );
    for (way, matrix, m) in table4() {
        let _ = writeln!(
            s,
            "{:<6} {:<6} {:>7}K {:>9} {:>8} {:>7}K {:>8}B {:>8} {:>8}",
            way,
            if matrix { "vmmx" } else { "mmx" },
            m.l1.size / 1024,
            m.l1.ports,
            m.l1.latency,
            m.l2.size / 1024,
            m.l2.port_width,
            m.l2.latency,
            m.mem_latency,
        );
    }
    s
}

/// Renders Figure 4 (kernel speed-ups over same-width MMX64).
#[must_use]
pub fn render_fig4(rows: &[KernelResult]) -> String {
    let mut s = String::new();
    let mut kernels: Vec<String> = rows.iter().map(|r| r.kernel.clone()).collect();
    kernels.dedup();
    let _ = writeln!(
        s,
        "{:<10} {:>8} {:>8} {:>8} {:>8}",
        "kernel", "mmx64", "mmx128", "vmmx64", "vmmx128"
    );
    for k in &kernels {
        let get = |e: &str| {
            rows.iter()
                .find(|r| &r.kernel == k && r.ext == e)
                .map_or(f64::NAN, |r| r.speedup)
        };
        let _ = writeln!(
            s,
            "{:<10} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            k,
            get("mmx64"),
            get("mmx128"),
            get("vmmx64"),
            get("vmmx128")
        );
    }
    s
}

/// Renders Figure 5 (application speed-ups over 2-way MMX64).
#[must_use]
pub fn render_fig5(rows: &[AppResult]) -> String {
    let mut s = String::new();
    let mut apps: Vec<String> = rows.iter().map(|r| r.app.clone()).collect();
    apps.dedup();
    let _ = writeln!(
        s,
        "{:<10} {:>4} {:>8} {:>8} {:>8} {:>8}",
        "app", "way", "mmx64", "mmx128", "vmmx64", "vmmx128"
    );
    let avg_cell = |way: usize, e: &str| {
        let vals: Vec<f64> = apps
            .iter()
            .filter_map(|a| {
                rows.iter()
                    .find(|r| &r.app == a && r.way == way && r.ext == e)
                    .map(|r| r.speedup)
            })
            .collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    };
    for app in &apps {
        for way in crate::WAYS {
            let get = |e: &str| {
                rows.iter()
                    .find(|r| &r.app == app && r.way == way && r.ext == e)
                    .map_or(f64::NAN, |r| r.speedup)
            };
            let _ = writeln!(
                s,
                "{:<10} {:>4} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
                app,
                way,
                get("mmx64"),
                get("mmx128"),
                get("vmmx64"),
                get("vmmx128")
            );
        }
    }
    for way in crate::WAYS {
        let _ = writeln!(
            s,
            "{:<10} {:>4} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            "average",
            way,
            avg_cell(way, "mmx64"),
            avg_cell(way, "mmx128"),
            avg_cell(way, "vmmx64"),
            avg_cell(way, "vmmx128")
        );
    }
    s
}

/// Renders Figure 6 (jpegdec cycle breakdown, normalized to 2-way MMX64).
#[must_use]
pub fn render_fig6(rows: &[AppResult]) -> String {
    let base = rows
        .iter()
        .find(|r| r.way == 2 && r.ext == "mmx64")
        .map_or(1, |r| r.cycles) as f64;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<6} {:<9} {:>9} {:>9} {:>9} {:>7}",
        "way", "ext", "vector%", "scalar%", "total%", "vec/tot"
    );
    for way in crate::WAYS {
        for ext in EXT_ORDER {
            if let Some(r) = rows.iter().find(|r| r.way == way && r.ext == ext) {
                let v = r.vector_cycles as f64 / base * 100.0;
                let sc = r.scalar_cycles as f64 / base * 100.0;
                let _ = writeln!(
                    s,
                    "{:<6} {:<9} {:>8.1} {:>8.1} {:>8.1} {:>6.1}%",
                    way,
                    ext,
                    v,
                    sc,
                    v + sc,
                    r.vector_cycles as f64 / (r.vector_cycles + r.scalar_cycles) as f64 * 100.0,
                );
            }
        }
    }
    s
}

/// Renders Figure 7 (dynamic instruction mix, normalized to MMX64).
#[must_use]
pub fn render_fig7(rows: &[AppResult]) -> String {
    let mut s = String::new();
    let mut apps: Vec<String> = rows.iter().map(|r| r.app.clone()).collect();
    apps.dedup();
    let _ = writeln!(
        s,
        "{:<10} {:<9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "app", "ext", "varith", "vmem", "sctrl", "sarith", "smem", "total"
    );
    for app in &apps {
        let base = rows
            .iter()
            .find(|r| &r.app == app && r.ext == "mmx64")
            .map_or(1, |r| r.counts.total()) as f64;
        for ext in EXT_ORDER {
            if let Some(r) = rows.iter().find(|r| &r.app == app && r.ext == ext) {
                let pct = |c: Class| r.counts.get(c) as f64 / base * 100.0;
                let _ = writeln!(
                    s,
                    "{:<10} {:<9} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1}",
                    app,
                    ext,
                    pct(Class::VArith),
                    pct(Class::VMem),
                    pct(Class::SCtrl),
                    pct(Class::SArith),
                    pct(Class::SMem),
                    r.counts.total() as f64 / base * 100.0,
                );
            }
        }
    }
    s
}

/// Serialises any experiment result set to pretty JSON.
///
/// # Panics
///
/// Panics if serialisation fails (it cannot for these types).
#[must_use]
pub fn to_json<T: serde::Serialize>(rows: &T) -> String {
    serde_json::to_string_pretty(rows).expect("serialisable experiment results")
}

/// Renders per-cell simulation throughput (wall time and simulated MIPS)
/// of one sweep run — the human-readable companion of the
/// `BENCH_simdsim.json` artifact.
#[must_use]
pub fn render_throughput(report: &simdsim_sweep::SweepReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<44} {:>12} {:>10} {:>8}",
        "cell", "instrs", "wall ms", "MIPS"
    );
    for o in &report.outcomes {
        match &o.stats {
            Ok(stats) if !o.cached => {
                let _ = writeln!(
                    s,
                    "{:<44} {:>12} {:>10.2} {:>8.1}",
                    o.cell.label(),
                    stats.instrs,
                    o.wall.as_secs_f64() * 1.0e3,
                    o.mips().unwrap_or(0.0)
                );
            }
            Ok(_) => {
                let _ = writeln!(s, "{:<44} (cached)", o.cell.label());
            }
            Err(e) => {
                let _ = writeln!(s, "{:<44} FAILED: {}", o.cell.label(), e.message);
            }
        }
    }
    if let Some(mips) = report.simulated_mips() {
        let _ = writeln!(
            s,
            "total: {:.2} s simulated wall, {mips:.1} MIPS",
            report.simulated_wall().as_secs_f64()
        );
    }
    s
}

/// Renders a `simdsim-serve` counter block and its sampled gauges as a
/// human-readable table — the plain-text companion of the `/metrics`
/// Prometheus endpoint, used by `loadgen --spawn` to summarise what the
/// in-process server did.
#[must_use]
pub fn render_server_stats(m: &simdsim_serve::Metrics, g: &simdsim_serve::Gauges) -> String {
    let get = |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed);
    let requests =
        |method, path| m.http_ms[simdsim_serve::metrics::endpoint_index(method, path)].count();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "server: {} requests ({} submit, {} status, {} errors), queue depth {}",
        m.http_ms.iter().map(|h| h.count()).sum::<u64>(),
        requests("POST", "/sweeps"),
        requests("GET", "/sweeps/0"),
        get(&m.requests_errors),
        g.queue_depth,
    );
    let _ = writeln!(
        out,
        "jobs:   {} submitted ({} coalesced), {} completed, {} failed, {} cancelled, {} rejected",
        get(&m.jobs_submitted),
        get(&m.jobs_coalesced),
        get(&m.jobs_completed),
        get(&m.jobs_failed),
        get(&m.jobs_cancelled),
        get(&m.jobs_rejected),
    );
    let _ = writeln!(
        out,
        "cells:  {} cached, {} simulated ({:.1}% cache hits)",
        get(&m.cells_cached),
        get(&m.cells_simulated),
        m.cache_hit_ratio() * 100.0,
    );
    let _ = writeln!(
        out,
        "sim:    {} instrs in {:.2}s wall ({:.1} MIPS)",
        get(&m.sim_instrs),
        m.sim_wall_seconds(),
        m.simulated_mips(),
    );
    out
}

/// The extension order used across reports.
#[must_use]
pub fn ext_order() -> [Ext; 4] {
    Ext::ALL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renderers_are_nonempty() {
        assert!(render_table1(&crate::tables::table1()).lines().count() == 9);
        assert!(render_table2(&crate::tables::table2()).contains("motion1"));
        assert!(render_table3(&crate::tables::table3()).contains("8way-vmmx128"));
        assert!(render_table4().contains("512K"));
    }

    #[test]
    fn fig_renderers_handle_empty() {
        assert!(render_fig4(&[]).contains("kernel"));
        assert!(render_fig6(&[]).contains("vector%"));
    }
}
