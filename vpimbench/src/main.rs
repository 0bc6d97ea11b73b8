//! vpimbench — one two-clock benchmark of the vPIM reproduction.
//!
//! ```text
//! cargo run --release --manifest-path vpimbench/Cargo.toml -- \
//!     --workload <sync-read|sync-write|bulk|tenant-churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the system only through its public API and times the calls it
//! makes into each layer from outside. With `--trace 0` it prints the
//! end-to-end metrics; with `--trace 1` it records spans around its calls,
//! runs the layer drills and prints the per-layer metrics. Every output is
//! checked; the last line of standard output is one JSON object, and any
//! failed or unverified op makes the exit code non-zero. The virtual
//! digest line hashes every virtual-clock output of the run's fixed digest
//! set: equal seeds give equal digests.

mod churn;
mod common;
mod drills;
mod e2e;
mod layers;
mod single;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

use common::{Metric, Outcome};

/// Every workload the command runs. `BENCHMARK.json` lists `bulk` and
/// `tenant-churn`; `sync-read` and `sync-write` run on demand (see NOTES.md).
pub const WORKLOADS: [&str; 4] = ["sync-read", "sync-write", "bulk", "tenant-churn"];

/// One run's settings, from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => cfg.workload.clone_from(val),
            "--seed" => cfg.seed = val.parse().map_err(bad)?,
            "--seconds" => {
                cfg.seconds = val
                    .parse::<f64>()
                    .map_err(|_| format!("bad value for {flag}: {val}"))?
            }
            "--trace" => {
                cfg.trace = val
                    .parse::<u8>()
                    .map_err(|_| format!("bad value for {flag}: {val}"))?
                    != 0
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            cfg.workload
        ));
    }
    Ok(cfg)
}

/// Writes the run's spans to `.vpimbench/trace-<workload>-<seed>.json`.
pub fn write_trace(cfg: &Config, tr: &trace::Tracer) {
    let dir = std::path::Path::new(".vpimbench");
    let path = dir.join(format!("trace-{}-{}.json", cfg.workload, cfg.seed));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.to_json()))
    {
        eprintln!("vpimbench: could not write {}: {e}", path.display());
    }
}

fn run(cfg: &Config) -> Outcome {
    if cfg.workload == "tenant-churn" {
        churn::run(cfg)
    } else {
        single::run(cfg)
    }
}

fn json(out: &Outcome, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0,
        out.attempted,
        out.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        let n = if m.samples > 0 {
            format!("  (n={})", m.samples)
        } else {
            String::new()
        };
        // Context only: the model is not validated against hardware.
        let ctx = if m.name == "vt_overhead_x" {
            "  [paper, on hardware: 1.01-2.07x]"
        } else {
            ""
        };
        println!("  {:<40} {:>16.6} {}{n}{ctx}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("vpimbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "vpimbench workload={} seed={} seconds={} trace={} host: nproc={nproc} {}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        env!("VPIMBENCH_RUSTC")
    );
    let out = run(&cfg);
    for n in &out.notes {
        println!("  {n}");
    }
    print_table(
        "end-to-end (untraced clocks: wall, virtual, host):",
        &out.end_to_end,
    );
    if cfg.trace {
        print_table("per-layer (traced run, drills):", &out.per_layer);
    } else {
        let launch: Vec<Metric> = out
            .per_layer
            .iter()
            .filter(|m| m.name.starts_with("launch_wall"))
            .cloned()
            .collect();
        print_table("launch latency (reported per layer):", &launch);
    }
    let fail_ratio = stats::ratio(out.failed as f64, out.attempted as f64);
    println!(
        "  fail_ratio = {fail_ratio} ({} of {} ops)",
        out.failed, out.attempted
    );
    println!(
        "  virtual_digest = {:#018x} ({} items)",
        out.digest.hash(),
        out.digest.items()
    );
    for f in &out.failures {
        eprintln!("vpimbench: FAILED: {f}");
    }
    let metrics = if cfg.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    println!("{}", json(&out, metrics));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(workload: &str, seed: u64) -> Config {
        Config {
            workload: workload.into(),
            seed,
            seconds: 0.0,
            trace: false,
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in ["sync-read", "sync-write", "bulk"] {
            let key = |seed| {
                single::specs(w, seed)
                    .iter()
                    .map(|a| (a.elements, a.seed))
                    .collect::<Vec<_>>()
            };
            assert_eq!(key(3), key(3));
            assert_ne!(key(3), key(4), "{w}");
        }
        let sessions = |seed| {
            (0..32)
                .map(|i| churn::session_input(seed, i))
                .collect::<Vec<_>>()
        };
        assert_eq!(sessions(3), sessions(3));
        assert_ne!(sessions(3), sessions(4));
    }

    /// With `--seconds 0` a run is its fixed digest set (plus the two
    /// timed passes a single-guest run always makes).
    #[test]
    fn digest_repeats_for_a_seed_and_moves_with_it() {
        let vt = |o: &Outcome| {
            o.end_to_end
                .iter()
                .filter(|m| m.name.contains("vt"))
                .map(|m| m.value.to_bits())
                .collect::<Vec<_>>()
        };
        for w in ["sync-write", "tenant-churn"] {
            let (a, b, c) = (run(&cfg(w, 5)), run(&cfg(w, 5)), run(&cfg(w, 6)));
            assert_eq!(a.failed, 0, "{w}: {:?}", a.failures);
            assert_eq!(a.digest.hash(), b.digest.hash(), "{w}");
            assert_ne!(a.digest.hash(), c.digest.hash(), "{w}");
            assert_eq!(vt(&a), vt(&b), "{w}");
        }
    }

    #[test]
    fn parse_rejects_unknown_workloads_and_flags() {
        let args = |v: &[&str]| v.iter().map(|s| (*s).to_string()).collect::<Vec<_>>();
        assert!(parse(&args(&["--workload", "bulk", "--seed", "3"])).is_ok());
        assert!(parse(&args(&["--workload", "nope"])).is_err());
        assert!(parse(&args(&["--workload", "bulk", "--bogus", "1"])).is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let out = Outcome {
            attempted: 2,
            failed: 0,
            ..Outcome::default()
        };
        let line = json(&out, &[Metric::new("setup_s", 0.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
