//! The single-guest workloads (`sync-read`, `sync-write`, `bulk`): PrIM
//! apps in one 768 MiB guest with eight vUPMEM devices (the figure
//! harness's quick-scale testbed: 8 ranks × 60 DPUs), each run followed by
//! its native twin on a second machine of the same geometry. One client,
//! closed loop: the measured phase repeats one pass over the apps.
//!
//! Pass 0 warms the guest and is the fixed digest set every virtual-clock
//! metric comes from; the wall-clock metrics come from the later passes.

use std::sync::Arc;
use std::time::Instant;

use prim::PrimApp;
use simkit::SimRng;
use vpim::{StartOpts, TenantSpec, VpimConfig, VpimSystem};
use vpim_bench::{BenchEnv, Scale};

use crate::common::{self, run_app, AppOp, Delta, Outcome, SetUp};
use crate::e2e::{self, E2eInputs};
use crate::layers::{self, Drills, LayerInputs};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::Config;

/// Passes after the warm-up pass that are always timed, whatever the
/// time budget.
const MIN_TIMED_PASSES: usize = 2;
/// vUPMEM devices of the guest (one per physical rank).
const GUEST_DEVICES: usize = 8;

/// One app of a workload with its seeded inputs.
pub struct AppSpec {
    pub app: Arc<dyn PrimApp>,
    pub name: &'static str,
    pub dpus: usize,
    pub elements: usize,
    pub seed: u64,
}

/// The apps of a single-guest workload at the figure harness's
/// quick-scale element budgets: `(name, DPUs, base elements, jitter)`,
/// where the seed moves the element count by up to ±jitter/256 of its
/// base. NW and TRNS round their problem to whole blocks and tiles; their
/// wider jitter spans one rounding step, so the seed changes their shape.
fn base(workload: &str) -> Vec<(&'static str, usize, usize, usize)> {
    let q = Scale::Quick.prim_elements();
    match workload {
        "sync-read" => vec![
            ("BFS", 480, q / 8, 4),
            ("SEL", 480, q, 4),
            ("RED", 480, q, 4),
        ],
        "sync-write" => vec![("NW", 60, q / 16, 6), ("TRNS", 60, q / 16, 6)],
        "bulk" => vec![("VA", 480, q, 4), ("GEMV", 480, q, 4)],
        _ => Vec::new(),
    }
}

/// Seeded inputs: each app gets its own element count and data seed.
pub fn specs(workload: &str, seed: u64) -> Vec<AppSpec> {
    base(workload)
        .into_iter()
        .enumerate()
        .map(|(i, (name, dpus, elements, jitter))| {
            let mut rng = SimRng::stream(seed, i as u64);
            let step = elements / 256;
            let k = rng.usize_below(2 * jitter + 1);
            AppSpec {
                app: prim::by_name(name).expect("PrIM app"),
                name,
                dpus,
                elements: elements - jitter * step + k * step,
                seed: u64::from(rng.u32()) << 32 | u64::from(rng.u32()),
            }
        })
        .collect()
}

fn digest_op(out: &mut Outcome, name: &str, op: &AppOp) {
    let d = &mut out.digest;
    d.add(&format!("{name}.vt_ns"), op.vt_ns);
    d.add(&format!("{name}.native_vt_ns"), op.native_vt_ns);
    d.add(&format!("{name}.msgs"), op.msgs);
    d.add(&format!("{name}.rank_ops"), op.rank_ops);
    d.add(&format!("{name}.checksum"), op.checksum);
    for (i, v) in op.steps_ns.iter().chain(&op.driver_ns).enumerate() {
        d.add(&format!("{name}.seg{i}"), *v);
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let apps = specs(&cfg.workload, cfg.seed);
    let tr = Tracer::new(cfg.trace);
    let mut out = Outcome::default();
    let mut e = E2eInputs::default();
    for a in &apps {
        out.notes.push(format!(
            "input {} dpus={} elements={} seed={:#x}",
            a.name, a.dpus, a.elements, a.seed
        ));
    }
    let spec = TenantSpec::new("vpimbench")
        .devices(GUEST_DEVICES)
        .mem_mib(Scale::Quick.guest_mem_mib());

    // The native twins' machine is scaffolding, built once and untimed.
    let native = tr.op(true, "native_machine", || BenchEnv::new(Scale::Quick));
    // Set-up: machine build, system start and guest launch, several times;
    // the last round's guest runs the measured phase.
    let setup = common::set_up(&tr, &spec, || {
        let env = tr.span("machine", || BenchEnv::new(Scale::Quick));
        let sys = tr.span("start", || {
            VpimSystem::start(
                env.driver().clone(),
                VpimConfig::full(),
                StartOpts::new().cost_model(env.cost_model().clone()),
            )
        });
        (env, sys)
    });
    let SetUp {
        host: env,
        sys,
        vm,
        setup_s,
        launch_ms,
        refused,
    } = match setup {
        Ok(s) => s,
        Err(err) => return out.abort(err),
    };
    (e.setup_s, e.launch_ms) = (setup_s, launch_ms);
    let cm = env.cost_model().clone();
    let boot_ms = vm.boot_report().total().as_millis_f64();

    let start = sys.registry().snapshot();
    let t_phase = Instant::now();
    let mut ops = Vec::new();
    let mut pass_wall = Samples::new();
    let mut app_wall = vec![Samples::new(); apps.len()];
    let mut app_msgs = vec![Samples::new(); apps.len()];
    let (mut traced_wall, mut untraced_wall) = (Samples::new(), Samples::new());
    let mut queue_max = 0u64;
    for pass in 0.. {
        // In the traced run, odd passes run untraced to measure the
        // tracing overhead.
        let traced = pass % 2 == 0;
        let tp = Instant::now();
        for (i, a) in apps.iter().enumerate() {
            let before = sys.registry().snapshot();
            let t = Instant::now();
            let op = tr.op(traced, "op", || {
                run_app(
                    &tr,
                    &*a.app,
                    vm.frontends(),
                    native.driver(),
                    &cm,
                    a.dpus,
                    a.elements,
                    a.seed,
                )
            });
            let wall = t.elapsed().as_secs_f64();
            let after = sys.registry().snapshot();
            let delta = Delta {
                before: &before,
                after: &after,
            };
            queue_max = queue_max.max(sys.scheduler().queue_depth() as u64);
            out.attempted += 1;
            if let Some(err) = &op.error {
                out.fail(err.clone());
            }
            if pass == 0 {
                digest_op(&mut out, a.name, &op);
                delta.digest_into(&mut out.digest);
                e.op_vt_ns.push(op.vt_ns);
                e.app_vt.push((a.name, op.vt_ns, op.native_vt_ns));
                e.session_vt_ms.push(boot_ms + op.vt_ns as f64 / 1e6);
            } else {
                e.timed_samples += 1;
                app_wall[i].push(wall);
                app_msgs[i].push(delta.count("vmm.vmexits") as f64);
                if traced {
                    &mut traced_wall
                } else {
                    &mut untraced_wall
                }
                .push(wall);
            }
            ops.push(op);
        }
        let wall = tp.elapsed().as_secs_f64();
        if pass > 0 {
            pass_wall.push(wall);
        }
        let timed = pass_wall.len();
        let next_end = t_phase.elapsed().as_secs_f64() + pass_wall.median().max(wall);
        if timed >= MIN_TIMED_PASSES && next_end > cfg.seconds {
            break;
        }
    }
    let end = sys.registry().snapshot();
    e.timed_ops = apps.len() as f64;
    e.timed_wall_s = app_wall.iter().map(Samples::median).sum();
    e.timed_msgs = app_msgs.iter().map(Samples::median).sum();
    e.attempted = out.attempted;
    e.failed = out.failed;
    out.notes.push(format!(
        "passes: 1 warm-up/digest + {} timed, pass wall median {:.3} s",
        pass_wall.len(),
        pass_wall.median()
    ));

    let mut dr = Drills::default();
    if cfg.trace {
        match common::run_drills(&tr, &sys, &vm) {
            Ok(d) => dr = d,
            Err(err) => {
                out.attempted += 1;
                out.fail(err);
            }
        }
    }
    if let Err(err) = tr.op(true, "release", || common::release(vm)) {
        out.attempted += 1;
        out.fail(err);
    }
    tr.op(true, "shutdown", || sys.shutdown());

    out.end_to_end = e2e::metrics(&e, common::peak_rss_mib());
    let spans = tr.stats();
    out.per_layer = layers::metrics(&LayerInputs {
        ops: ops.len() as u64,
        apps: &ops,
        delta: Delta {
            before: &start,
            after: &end,
        },
        spans: &spans,
        drills: &dr,
        boot_vt_ms: boot_ms,
        launch_ms: &e.launch_ms,
        launch_refused: refused,
        queue_depth_max: queue_max,
        traced_wall: &traced_wall,
        untraced_wall: &untraced_wall,
    });
    if cfg.trace {
        crate::write_trace(cfg, &tr);
    }
    out
}
