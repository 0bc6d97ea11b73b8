//! Pieces shared by every workload: the timed set-up rounds, one verified
//! PrIM op (vPIM run plus its native twin), the launch retry loop, the
//! layer drills, registry snapshot deltas and the metric rows a run
//! reports.

use std::sync::Arc;
use std::time::{Duration, Instant};

use prim::{PrimApp, ScaleParams};
use simkit::{CostModel, DriverSegment, MetricValue, MetricsSnapshot, WriteStep};
use upmem_driver::UpmemDriver;
use upmem_sdk::DpuSet;
use vpim::frontend::Frontend;
use vpim::{TenantSpec, VpimError, VpimSystem, VpimVm};

use crate::drills;
use crate::layers::Drills;
use crate::stats::{Digest, Samples};
use crate::trace::Tracer;

/// How long a launch keeps retrying while released ranks are still being
/// reset asynchronously; after that the launch counts as failed.
pub const LAUNCH_DEADLINE: Duration = Duration::from_secs(10);

/// Set-up rounds per run, taken in batches of [`SETUP_BATCH`]; `setup_s`
/// is the median of the batch means. One set-up's time is bimodal on the
/// 2-vCPU host (whether the guest's first messages find warm heap memory),
/// so a plain median flips between the modes from run to run while a batch
/// mean moves with the mix.
pub const SETUP_ROUNDS: usize = 10 * SETUP_BATCH;
pub const SETUP_BATCH: usize = 10;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a quantile or mean (0 when not applicable).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: 0,
        }
    }

    pub fn n(mut self, samples: usize) -> Self {
        self.samples = samples;
        self
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub digest: Digest,
    /// Human-readable context lines (host, inputs, sample counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Ends a run that could not reach its measured phase.
    pub fn abort(mut self, why: String) -> Self {
        self.attempted += 1;
        self.fail(why);
        self
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(why);
        }
    }
}

/// Virtual and wall results of one PrIM op: the app on the VM and its
/// native twin on the same inputs.
#[derive(Debug, Clone, Default)]
pub struct AppOp {
    pub vt_ns: u64,
    pub native_vt_ns: u64,
    pub msgs: u64,
    pub rank_ops: u64,
    pub steps_ns: [u64; 5],
    pub driver_ns: [u64; 3],
    pub checksum: u64,
    pub error: Option<String>,
}

fn timeline_steps(tl: &simkit::Timeline) -> [u64; 5] {
    WriteStep::ALL.map(|s| tl.write_step(s).as_nanos())
}

fn timeline_driver(tl: &simkit::Timeline) -> [u64; 3] {
    DRIVER_SEGMENTS.map(|s| tl.driver(s).as_nanos())
}

/// Driver segments in the order [`AppOp::driver_ns`] stores them.
pub const DRIVER_SEGMENTS: [DriverSegment; 3] = [
    DriverSegment::WriteRank,
    DriverSegment::ReadRank,
    DriverSegment::Ci,
];

/// Runs `app` on the VM's `frontends` and then on a native set of the same
/// size, and checks both runs verified and produced equal checksums (the
/// paper's transparency requirement R3).
#[allow(clippy::too_many_arguments)]
pub fn run_app(
    tr: &Tracer,
    app: &dyn PrimApp,
    frontends: &[Arc<Frontend>],
    native: &Arc<UpmemDriver>,
    cm: &CostModel,
    dpus: usize,
    elements: usize,
    seed: u64,
) -> AppOp {
    let scale = ScaleParams::of(elements);
    let mut op = AppOp::default();
    let vpim = tr
        .span("alloc_vm", || DpuSet::alloc_vm(frontends, dpus, cm.clone()))
        .and_then(|mut set| {
            tr.span("vpim_run", || {
                let run = app.run(&mut set, &scale, seed)?;
                Ok((run, set.take_timeline()))
            })
        });
    let (run, tl) = match vpim {
        Ok(x) => x,
        Err(e) => {
            op.error = Some(format!("{} vPIM run failed: {e}", app.name()));
            return op;
        }
    };
    op.vt_ns = tl.app_total().as_nanos();
    op.msgs = tl.messages();
    op.rank_ops = tl.rank_ops();
    op.steps_ns = timeline_steps(&tl);
    op.driver_ns = timeline_driver(&tl);
    op.checksum = run.checksum;
    let twin = tr.span("native_run", || {
        let mut set = DpuSet::alloc_native(native, dpus, cm.clone())?;
        let run = app.run(&mut set, &scale, seed)?;
        Ok::<_, upmem_sdk::SdkError>((run, set.take_timeline()))
    });
    match twin {
        Ok((nrun, ntl)) => {
            op.native_vt_ns = ntl.app_total().as_nanos();
            if !run.verified || !nrun.verified {
                op.error = Some(format!(
                    "{} unverified (vPIM {}, native {})",
                    app.name(),
                    run.verified,
                    nrun.verified
                ));
            } else if run.checksum != nrun.checksum {
                op.error = Some(format!(
                    "{} checksum differs: vPIM {:#x} vs native {:#x}",
                    app.name(),
                    run.checksum,
                    nrun.checksum
                ));
            }
        }
        Err(e) => op.error = Some(format!("{} native twin failed: {e}", app.name())),
    }
    op
}

/// What the set-up rounds leave for the measured phase: the last round's
/// host, system and guest, and every round's timings.
pub struct SetUp<H> {
    pub host: H,
    pub sys: VpimSystem,
    pub vm: VpimVm,
    /// Wall seconds of each round: machine build, system start, launch.
    pub setup_s: Samples,
    /// `VpimSystem::launch` wall latency of each round, ms.
    pub launch_ms: Samples,
    /// Refused launch attempts over all rounds.
    pub refused: u64,
}

/// Set-up, [`SETUP_ROUNDS`] times: `build` makes the workload's machine
/// and starts the system on it, then one guest is launched from `spec`.
/// Only these calls are timed; scaffolding such as a native twin's machine
/// is built once by the caller. Every round but the last releases its
/// guest and shuts its system down.
pub fn set_up<H>(
    tr: &Tracer,
    spec: &TenantSpec,
    mut build: impl FnMut() -> (H, VpimSystem),
) -> Result<SetUp<H>, String> {
    let (mut setup_s, mut launch_ms, mut refused) = (Samples::new(), Samples::new(), 0);
    let mut round = || {
        let t = Instant::now();
        let (host, sys, l) = tr.op(true, "setup", || {
            let (host, sys) = build();
            let l = tr.span("launch", || launch(&sys, spec));
            (host, sys, l)
        });
        setup_s.push(t.elapsed().as_secs_f64());
        launch_ms.push(l.wall_s * 1e3);
        refused += l.refused;
        l.vm.map(|vm| (host, sys, vm))
            .ok_or_else(|| l.error.unwrap_or_default())
    };
    for _ in 1..SETUP_ROUNDS {
        let (_, sys, vm) = round()?;
        tr.op(true, "release", || release(vm))?;
        tr.op(true, "shutdown", || sys.shutdown());
    }
    let (host, sys, vm) = round()?;
    Ok(SetUp {
        host,
        sys,
        vm,
        setup_s,
        launch_ms,
        refused,
    })
}

/// Runs every layer drill in `vm`, a guest of `sys`, as one traced op.
pub fn run_drills(tr: &Tracer, sys: &VpimSystem, vm: &VpimVm) -> Result<Drills, String> {
    tr.op(true, "drill", || {
        let f = vm.frontend(0);
        let mut dr = Drills::default();
        (dr.write_us, dr.read_us) = drills::frontend(tr, f)?;
        dr.ddr_vt_ms = drills::ddr(tr, f)?;
        dr.mem_alloc_us = drills::mem_alloc(tr, vm.vm().memory())?;
        dr.transform_mib_s = drills::transform(tr)?;
        (dr.persist_vt_us, dr.persist_wall_us, dr.recover_vt_us) = drills::pheap(tr, sys, f)?;
        Ok(dr)
    })
}

/// A launch, retried while the manager refuses it because released ranks
/// are still being reset.
pub struct Launch {
    pub vm: Option<VpimVm>,
    pub wall_s: f64,
    pub refused: u64,
    pub error: Option<String>,
}

pub fn launch(sys: &VpimSystem, spec: &TenantSpec) -> Launch {
    let t = Instant::now();
    let mut refused = 0;
    loop {
        match sys.launch(spec.clone()) {
            Ok(vm) => {
                return Launch {
                    vm: Some(vm),
                    wall_s: t.elapsed().as_secs_f64(),
                    refused,
                    error: None,
                }
            }
            Err(VpimError::NoRankAvailable | VpimError::NotLinked)
                if t.elapsed() < LAUNCH_DEADLINE =>
            {
                refused += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) => {
                return Launch {
                    vm: None,
                    wall_s: t.elapsed().as_secs_f64(),
                    refused,
                    error: Some(format!("launch of {} failed: {e}", spec.tag())),
                }
            }
        }
    }
}

/// Releases the guest's ranks back to the manager and drops the guest.
pub fn release(vm: VpimVm) -> Result<(), String> {
    let res = vm
        .release_all()
        .map_err(|e| format!("release of a guest failed: {e}"));
    drop(vm);
    res
}

/// The change of the registry between two snapshots.
pub struct Delta<'a> {
    pub before: &'a MetricsSnapshot,
    pub after: &'a MetricsSnapshot,
}

impl Delta<'_> {
    pub fn count(&self, name: &str) -> u64 {
        self.after
            .count(name)
            .saturating_sub(self.before.count(name))
    }

    pub fn time_ns(&self, name: &str) -> u64 {
        self.after
            .time(name)
            .as_nanos()
            .saturating_sub(self.before.time(name).as_nanos())
    }

    /// Summed time change of every metric under `prefix` (histograms
    /// contribute their totals).
    pub fn prefix_time_ns(&self, prefix: &str) -> u64 {
        self.after
            .with_prefix(prefix)
            .map(|(name, _)| self.time_ns(name))
            .sum()
    }

    /// Folds the registry changes that are a pure function of the inputs
    /// into `digest`. Metrics driven by wall-clock races (the scratch
    /// pool's hit pattern, the manager's asynchronous rank recycling, the
    /// scheduler's admission waits, the live-tenant gauge) are left out.
    pub fn digest_into(&self, digest: &mut Digest) {
        for (name, value) in self.after.iter() {
            if !DIGEST_PREFIXES.iter().any(|p| name.starts_with(p)) {
                continue;
            }
            match value {
                MetricValue::Count(_) => digest.add(name, self.count(name)),
                MetricValue::Time(_) => digest.add(name, self.time_ns(name)),
                MetricValue::Level(_) | MetricValue::Histogram { .. } => {}
            }
        }
    }
}

/// Registry name prefixes whose changes enter the virtual digest.
const DIGEST_PREFIXES: [&str; 9] = [
    "frontend.",
    "backend.",
    "virtio.irq",
    "vmm.vmexits",
    "datapath.bytes",
    "retry.",
    "pheap.",
    "system.tenants.launched",
    "inject.",
];

/// Peak resident memory of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A 64-bit mix of `seed` and `tag`, for deriving independent input seeds.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
