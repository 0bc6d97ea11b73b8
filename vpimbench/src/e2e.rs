//! The end-to-end table: what a user of the system sees, in both clocks.

use std::collections::BTreeMap;

use crate::common::{Metric, SETUP_BATCH};
use crate::stats::{geomean, ratio, Samples};

/// Inputs to the end-to-end table.
#[derive(Debug, Default)]
pub struct E2eInputs {
    /// Wall seconds of each set-up round, in order.
    pub setup_s: Samples,
    /// Ops, wall seconds and guest-to-host messages (`vmm.vmexits`) of
    /// the timed part of the measured phase. The single-guest workloads
    /// report one pass made of each app's median op over the timed passes,
    /// `tenant-churn` one window of its timed phase at a fixed quantile of
    /// the windows' throughput.
    pub timed_ops: f64,
    pub timed_wall_s: f64,
    pub timed_msgs: f64,
    /// Ops behind those figures.
    pub timed_samples: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Virtual time of each op of the fixed digest set, ns.
    pub op_vt_ns: Vec<u64>,
    /// `(app, vPIM vt ns, native vt ns)` of each PrIM op of the digest set.
    pub app_vt: Vec<(&'static str, u64, u64)>,
    /// `VpimSystem::launch` wall latency of each timed launch, ms (reported
    /// per layer: see `layers::metrics`).
    pub launch_ms: Samples,
    /// Boot plus op virtual time of each session of the digest set, ms.
    pub session_vt_ms: Samples,
}

/// Per-app vPIM ÷ native virtual time, summed over the app's ops.
pub fn overheads(app_vt: &[(&'static str, u64, u64)]) -> Vec<f64> {
    let mut by_app: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for &(app, vt, nvt) in app_vt {
        let e = by_app.entry(app).or_default();
        e.0 += vt;
        e.1 += nvt;
    }
    by_app
        .values()
        .map(|&(vt, nvt)| ratio(vt as f64, nvt as f64))
        .collect()
}

pub fn metrics(x: &E2eInputs, peak_rss_mib: f64) -> Vec<Metric> {
    let factors = overheads(&x.app_vt);
    let vt_per_op = ratio(
        x.op_vt_ns.iter().sum::<u64>() as f64,
        x.op_vt_ns.len() as f64,
    ) / 1e6;
    vec![
        Metric::new("setup_s", x.setup_s.median_of_means(SETUP_BATCH), "s").n(x.setup_s.len()),
        Metric::new("ops_per_s", ratio(x.timed_ops, x.timed_wall_s), "1/s").n(x.timed_samples),
        Metric::new(
            "host_us_per_msg",
            ratio(x.timed_wall_s * 1e6, x.timed_msgs),
            "us",
        )
        .n(x.timed_samples),
        Metric::new("peak_rss_mib", peak_rss_mib, "MiB"),
        Metric::new(
            "verified_ratio",
            ratio((x.attempted - x.failed) as f64, x.attempted as f64),
            "ratio",
        )
        .n(x.attempted as usize),
        Metric::new("vt_ms_per_op", vt_per_op, "ms").n(x.op_vt_ns.len()),
        Metric::new("vt_overhead_x", geomean(&factors), "x").n(factors.len()),
        Metric::new(
            "vt_overhead_max_x",
            factors.iter().copied().fold(0.0, f64::max),
            "x",
        )
        .n(factors.len()),
        Metric::new("session_vt_p50_ms", x.session_vt_ms.quantile(0.5), "ms")
            .n(x.session_vt_ms.len()),
        Metric::new("session_vt_p99_ms", x.session_vt_ms.quantile(0.99), "ms")
            .n(x.session_vt_ms.len()),
    ]
}
