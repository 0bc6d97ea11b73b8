//! The `tenant-churn` workload: short tenant sessions on a 4-rank ×
//! 16-DPU host. Each session launches a 16 MiB guest with one vUPMEM
//! device, runs one seeded op and drops the guest. Two client threads run
//! sessions in a closed loop.
//!
//! Ops are tiny-scale PrIM apps (each with a native twin on a second
//! machine) and persistent-heap KV episodes (`loadmix::pheap_kv_op`:
//! persist, crash, recover, verify), weighted from the seed. Sessions
//! `0..DIGEST_SESSIONS` are the fixed digest set every virtual-clock
//! metric comes from; the wall-clock metrics come from the sessions after
//! it.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use prim::ScaleParams;
use simkit::{CostModel, SimRng};
use upmem_driver::UpmemDriver;
use upmem_sim::PimMachine;
use vpim::{PheapOptions, StartOpts, TenantSpec, VpimConfig, VpimSystem};
use vpim_system::loadmix;

use crate::common::{self, run_app, AppOp, Delta, Outcome, SetUp};
use crate::e2e::{self, E2eInputs};
use crate::layers::{self, Drills, LayerInputs};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::Config;

/// Sessions in the fixed digest set (whole blocks).
pub const DIGEST_SESSIONS: usize = 3 * BLOCK;
const CLIENTS: usize = 2;
const HOST_RANKS: usize = 4;
const SESSION_DPUS: usize = 16;
const GUEST_MIB: u64 = 16;
/// Session op kinds and their weights per block; the last kind is the
/// persistent-heap episode. The weights are the repository's session mix:
/// `loadmix::prim_mix` weights its linalg (VA, GEMV), analytics (RED,
/// HST-S) and search (BS, TS) tenants 4 : 3 : 2 and `loadmix::
/// pheap_kv_profile` weighs 2 beside them. A session here runs one op, so
/// each tenant's weight is split evenly over its two ops (doubled to whole
/// numbers).
const KINDS: [(&str, usize); 7] = [
    ("VA", 4),
    ("GEMV", 4),
    ("RED", 3),
    ("HST-S", 3),
    ("BS", 2),
    ("TS", 2),
    ("pheap.kv", 4),
];
const PHEAP: usize = KINDS.len() - 1;
/// Sessions per block: each block holds every kind exactly as often as its
/// weight, in an order drawn from the seed, so every seed runs the same mix.
const BLOCK: usize = {
    let (mut n, mut i) = (0, 0);
    while i < KINDS.len() {
        n += KINDS[i].1;
        i += 1;
    }
    n
};
/// Sessions per block in the traced run; blocks alternate traced and
/// untraced to measure the tracing overhead.
const TRACE_BLOCK: usize = 8;
/// Length of one throughput window of the timed phase.
const WINDOW: Duration = Duration::from_secs(1);
/// Quantile of the windows' throughput that `ops_per_s` reports. Load from
/// other tenants of the shared host comes and goes within a run and only
/// ever slows a window down, so the fast end of the windows tracks the
/// program's own speed more steadily than the mean does.
const WINDOW_QUANTILE: f64 = 0.9;
/// Entries and base value length of one persistent-KV episode.
const KV_ENTRIES: usize = 12;
const KV_VALUE_LEN: usize = 512;

/// The seeded inputs of one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionInput {
    pub kind: usize,
    /// PrIM element count (tiny scale, ±25 %) or KV value length in bytes.
    pub size: usize,
    pub seed: u64,
}

/// The seeded inputs of session `idx`.
pub fn session_input(seed: u64, idx: usize) -> SessionInput {
    let mut block: Vec<usize> = KINDS
        .iter()
        .enumerate()
        .flat_map(|(k, &(_, w))| std::iter::repeat_n(k, w))
        .collect();
    let mut order = SimRng::stream(seed, u64::MAX - (idx / BLOCK) as u64);
    for i in (1..block.len()).rev() {
        block.swap(i, order.usize_below(i + 1));
    }
    let kind = block[idx % BLOCK];
    let mut rng = SimRng::stream(seed, idx as u64);
    let k = rng.usize_below(9);
    let size = if kind == PHEAP {
        KV_VALUE_LEN * 3 / 4 + k * KV_VALUE_LEN / 16
    } else {
        let tiny = ScaleParams::tiny().elements;
        tiny * 3 / 4 + k * tiny / 16
    };
    SessionInput {
        kind,
        size,
        seed: u64::from(rng.u32()) << 32 | u64::from(rng.u32()),
    }
}

#[derive(Debug, Default)]
struct Session {
    idx: usize,
    kind: usize,
    boot_ns: u64,
    op_vt_ns: u64,
    checksum: u64,
    app: Option<AppOp>,
    launch_ms: f64,
    refused: u64,
    wall_s: f64,
    /// When the session ended.
    end: Option<Instant>,
    traced: bool,
    error: Option<String>,
}

struct Host {
    sys: VpimSystem,
    native: Arc<UpmemDriver>,
    cm: CostModel,
}

/// The vPIM host's machine with the session kernels registered, and the
/// system started on it.
fn start_system(tr: &Tracer) -> VpimSystem {
    let machine = tr.span("machine", || {
        let m = PimMachine::new(loadmix::load_host_config(HOST_RANKS));
        loadmix::register_workloads(&m);
        m
    });
    tr.span("start", || {
        VpimSystem::start(
            Arc::new(UpmemDriver::new(machine)),
            VpimConfig::full(),
            StartOpts::new(),
        )
    })
}

fn run_session(tr: &Tracer, host: &Host, seed: u64, idx: usize, traced: bool) -> Session {
    let input = session_input(seed, idx);
    let kind = input.kind;
    let t = Instant::now();
    let mut s = tr.op(traced, "session", || {
        let mut s = Session {
            idx,
            kind,
            traced,
            ..Session::default()
        };
        let spec = TenantSpec::new(format!("churn-{idx}")).mem_mib(GUEST_MIB);
        let l = tr.span("launch", || common::launch(&host.sys, &spec));
        s.launch_ms = l.wall_s * 1e3;
        s.refused = l.refused;
        let Some(vm) = l.vm else {
            s.error = l.error;
            return s;
        };
        s.boot_ns = vm.boot_report().total().as_nanos();
        if kind == PHEAP {
            let op = loadmix::pheap_kv_op(
                PheapOptions::new().attach(&host.sys),
                KV_ENTRIES,
                input.size,
            );
            match tr.span("pheap_op", || op.run(&vm, input.seed)) {
                Ok(o) => {
                    s.op_vt_ns = o.cost.as_nanos();
                    s.checksum = o.checksum;
                }
                Err(e) => s.error = Some(format!("pheap.kv episode failed: {e}")),
            }
        } else {
            let app = prim::by_name(KINDS[kind].0).expect("PrIM app");
            let op = run_app(
                tr,
                &*app,
                vm.frontends(),
                &host.native,
                &host.cm,
                SESSION_DPUS,
                input.size,
                input.seed,
            );
            s.op_vt_ns = op.vt_ns;
            s.checksum = op.checksum;
            s.error.clone_from(&op.error);
            s.app = Some(op);
        }
        if let Err(err) = tr.span("release", || common::release(vm)) {
            s.error.get_or_insert(err);
        }
        s
    });
    s.wall_s = t.elapsed().as_secs_f64();
    s.end = Some(Instant::now());
    s
}

/// Sessions ended in each whole [`WINDOW`] of the `wall_s` seconds after
/// `start`.
fn window_counts(sessions: &[Session], start: Instant, wall_s: f64) -> Samples {
    let mut counts = vec![0.0; (wall_s / WINDOW.as_secs_f64()) as usize];
    for end in sessions.iter().filter_map(|s| s.end) {
        let w = end.saturating_duration_since(start).as_nanos() / WINDOW.as_nanos();
        if let Some(c) = counts.get_mut(w as usize) {
            *c += 1.0;
        }
    }
    let mut out = Samples::new();
    for c in counts {
        out.push(c);
    }
    out
}

/// Runs sessions with `CLIENTS` closed-loop clients, claiming indices from
/// `next` until `stop` says so.
fn clients(
    tr: &Tracer,
    host: &Host,
    seed: u64,
    next: &AtomicUsize,
    stop: &(dyn Fn(usize) -> bool + Sync),
) -> Vec<Session> {
    let done = Mutex::new(Vec::new());
    std::thread::scope(|sc| {
        for _ in 0..CLIENTS {
            sc.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if stop(idx) {
                    break;
                }
                let traced = (idx / TRACE_BLOCK).is_multiple_of(2);
                let s = run_session(tr, host, seed, idx, traced);
                done.lock().expect("sessions").push(s);
            });
        }
    });
    let mut v = done.into_inner().expect("sessions");
    v.sort_by_key(|s| s.idx);
    v
}

pub fn run(cfg: &Config) -> Outcome {
    let tr = Tracer::new(cfg.trace);
    let mut out = Outcome::default();
    let mut e = E2eInputs::default();

    // The native twins' machine is scaffolding, built once and untimed:
    // one rank per client.
    let native = tr.op(true, "native_machine", || {
        let m = PimMachine::new(loadmix::load_host_config(CLIENTS));
        prim::register_all(&m);
        Arc::new(UpmemDriver::new(m))
    });
    // Set-up: machine build, system start and one guest launch, several
    // times; the last round's system runs the sessions, after its guest is
    // released.
    let spec = TenantSpec::new("churn-setup").mem_mib(GUEST_MIB);
    let SetUp {
        sys,
        vm,
        setup_s,
        mut refused,
        ..
    } = match common::set_up(&tr, &spec, || ((), start_system(&tr))) {
        Ok(s) => s,
        Err(err) => return out.abort(err),
    };
    e.setup_s = setup_s;
    if let Err(err) = tr.op(true, "release", || common::release(vm)) {
        return out.abort(err);
    }
    let cm = sys.cost_model().clone();
    let host = Host { sys, native, cm };

    let stop_sampler = AtomicBool::new(false);
    let queue_max = AtomicU64::new(0);
    let start = host.sys.registry().snapshot();
    let (digest_set, timed, mid, t_timed, timed_wall) = std::thread::scope(|sc| {
        if cfg.trace {
            sc.spawn(|| {
                while !stop_sampler.load(Ordering::Relaxed) {
                    queue_max
                        .fetch_max(host.sys.scheduler().queue_depth() as u64, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_micros(200));
                }
            });
        }
        let t_phase = Instant::now();
        let next = AtomicUsize::new(0);
        let digest_set = clients(&tr, &host, cfg.seed, &next, &|idx| idx >= DIGEST_SESSIONS);
        let mid = host.sys.registry().snapshot();
        let next = AtomicUsize::new(DIGEST_SESSIONS);
        let t_timed = Instant::now();
        let timed = clients(&tr, &host, cfg.seed, &next, &|_| {
            t_phase.elapsed().as_secs_f64() >= cfg.seconds
        });
        let timed_wall = t_timed.elapsed().as_secs_f64();
        stop_sampler.store(true, Ordering::Relaxed);
        (digest_set, timed, mid, t_timed, timed_wall)
    });
    let end = host.sys.registry().snapshot();

    Delta {
        before: &start,
        after: &mid,
    }
    .digest_into(&mut out.digest);
    let mut apps = Vec::new();
    let (mut traced_wall, mut untraced_wall) = (Samples::new(), Samples::new());
    let mut boot_ms = Samples::new();
    for (i, s) in digest_set.iter().chain(&timed).enumerate() {
        out.attempted += 1;
        if let Some(err) = &s.error {
            out.fail(err.clone());
        }
        refused += s.refused;
        boot_ms.push(s.boot_ns as f64 / 1e6);
        if i < digest_set.len() {
            let d = &mut out.digest;
            d.add(&format!("s{}.kind", s.idx), s.kind as u64);
            d.add(&format!("s{}.boot_ns", s.idx), s.boot_ns);
            d.add(&format!("s{}.vt_ns", s.idx), s.op_vt_ns);
            d.add(&format!("s{}.checksum", s.idx), s.checksum);
            e.op_vt_ns.push(s.op_vt_ns);
            e.session_vt_ms.push((s.boot_ns + s.op_vt_ns) as f64 / 1e6);
            if let Some(a) = &s.app {
                d.add(&format!("s{}.native_vt_ns", s.idx), a.native_vt_ns);
                d.add(&format!("s{}.msgs", s.idx), a.msgs);
                d.add(&format!("s{}.rank_ops", s.idx), a.rank_ops);
                e.app_vt.push((KINDS[s.kind].0, a.vt_ns, a.native_vt_ns));
            }
        } else {
            e.launch_ms.push(s.launch_ms);
            if s.traced {
                &mut traced_wall
            } else {
                &mut untraced_wall
            }
            .push(s.wall_s);
        }
        if let Some(a) = &s.app {
            apps.push(a.clone());
        }
    }
    // One window at the reported quantile of the windows' throughput; its
    // messages are the timed phase's messages per session.
    let windows = window_counts(&timed, t_timed, timed_wall);
    let msgs = Delta {
        before: &mid,
        after: &end,
    }
    .count("vmm.vmexits") as f64;
    e.timed_ops = windows.quantile(WINDOW_QUANTILE);
    e.timed_samples = windows.len();
    e.timed_wall_s = WINDOW.as_secs_f64();
    e.timed_msgs = e.timed_ops * msgs / timed.len().max(1) as f64;
    e.attempted = out.attempted;
    e.failed = out.failed;
    out.notes.push(format!(
        "sessions: {} digest + {} timed by {CLIENTS} clients, {refused} refused launch attempts",
        digest_set.len(),
        timed.len()
    ));
    out.notes.push(format!(
        "sessions per {:?} window: mean {:.1}, median {:.1}, p{:.0} {:.1} (n={})",
        WINDOW,
        windows.mean(),
        windows.median(),
        WINDOW_QUANTILE * 100.0,
        e.timed_ops,
        windows.len()
    ));

    let mut dr = Drills::default();
    if cfg.trace {
        let spec = TenantSpec::new("churn-drill").mem_mib(GUEST_MIB);
        let l = common::launch(&host.sys, &spec);
        refused += l.refused;
        let res =
            l.vm.ok_or_else(|| l.error.unwrap_or_default())
                .and_then(|vm| {
                    let d = common::run_drills(&tr, &host.sys, &vm);
                    common::release(vm).and(d)
                });
        match res {
            Ok(d) => dr = d,
            Err(err) => {
                out.attempted += 1;
                out.fail(err);
            }
        }
    }
    let Host { sys, .. } = host;
    tr.op(true, "shutdown", || sys.shutdown());

    out.end_to_end = e2e::metrics(&e, common::peak_rss_mib());
    let spans = tr.stats();
    out.per_layer = layers::metrics(&LayerInputs {
        ops: (digest_set.len() + timed.len()) as u64,
        apps: &apps,
        delta: Delta {
            before: &start,
            after: &end,
        },
        spans: &spans,
        drills: &dr,
        boot_vt_ms: boot_ms.mean(),
        launch_ms: &e.launch_ms,
        launch_refused: refused,
        queue_depth_max: queue_max.load(Ordering::Relaxed),
        traced_wall: &traced_wall,
        untraced_wall: &untraced_wall,
    });
    if cfg.trace {
        crate::write_trace(cfg, &tr);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_count_sessions_by_end_and_drop_the_partial_one() {
        let start = Instant::now();
        let ended = |ms: u64| Session {
            end: Some(start + Duration::from_millis(ms)),
            ..Session::default()
        };
        let sessions: Vec<Session> = [500, 1200, 1700, 2999, 3500].map(ended).into();
        let w = window_counts(&sessions, start, 3.2);
        assert_eq!(w.len(), 3);
        assert_eq!(
            (w.quantile(0.0), w.median(), w.quantile(1.0)),
            (1.0, 1.0, 2.0)
        );
    }

    #[test]
    fn every_block_runs_the_weighted_mix() {
        let weights: Vec<usize> = KINDS.iter().map(|k| k.1).collect();
        for seed in [1, 2] {
            for b in 0..3 {
                let mut n = vec![0; KINDS.len()];
                for i in b * BLOCK..(b + 1) * BLOCK {
                    n[session_input(seed, i).kind] += 1;
                }
                assert_eq!(n, weights, "seed {seed} block {b}");
            }
        }
    }
}
