//! End-to-end wall-clock benchmark of qdp-jit-rs, with a traced run that
//! reports per-layer metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cg_8x4|hmc_4x4|serve_mix_4x4|campaign_2rank> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload builds its inputs from `--seed`, measures for about
//! `--seconds` on the host wall clock, checks the program's outputs with
//! an independent oracle, and prints as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones:
//!
//! * `setup_s` — median over repeated set-ups of the time from workload
//!   start until timing may begin (contexts, server or cluster bring-up,
//!   field initialisation, warm-up that compiles and tunes every kernel);
//! * `peak_rss_mb` — `VmHWM` of this process, which runs one workload;
//! * `op_p50_ms` — median wall time of the workload's operation: a CG
//!   solve (`cg_8x4`), an HMC trajectory (`hmc_4x4`), a served job from its
//!   scheduled send time to completion (`serve_mix_4x4`), a completed
//!   campaign trajectory including the restore (`campaign_2rank`). On
//!   `serve_mix_4x4` it is the median latency of each job kind, weighted by
//!   the kind's share of the jobs (`report::mix_median`): the plain median of
//!   the mix falls between the fast plaquette jobs and the slow ones, and
//!   jumped by a third from run to run of the same code.
//!
//! A run of one workload also prints the figure under the workload's own
//! name with its sample count (`cg_solve_s`, `hmc_traj_s`, `serve_p50_ms`
//! and `serve_p95_ms`, `campaign_traj_s`). No 95th percentile is an
//! end-to-end metric: the closed-loop workloads time two to four
//! operations per run, where it is only their maximum.
//!
//! With `--trace 1` the run repeats the operations twice over identical
//! inputs — once with the program's telemetry and the benchmark's own
//! spans on, once without — and reports every per-layer metric of
//! `common::PER_LAYER` (0 where the workload does not use the layer), the
//! tracing overhead, and whether every simulated count repeated exactly.
//! The benchmark spans go to `perfbench/out/<workload>-trace.json`
//! (Chrome trace format) and the program's counters and spans to
//! `perfbench/out/<workload>-telemetry.json`.

mod campaign;
mod cg;
mod common;
mod hmc;
mod report;
mod serve;
mod tracer;

use common::Run;
use report::Outcome;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tracer::Tracer;

const WORKLOADS: &[&str] = &["cg_8x4", "hmc_4x4", "serve_mix_4x4", "campaign_2rank"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

/// Remove every `QDP_*` variable: contexts the program builds itself (the
/// campaign's rank contexts) read them. Runs before any thread starts.
fn clear_qdp_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("QDP_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout when it is a git work tree.
fn commit(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "none (not a git checkout)".into();
    }
    let root = root.to_string_lossy();
    command_line("git", &["-C", &root, "rev-parse", "--short", "HEAD"])
}

/// FNV-1a over the path and bytes of every Rust source and manifest under
/// `dirs`, in sorted order: identifies the code measured even where the
/// checkout carries no commit.
fn source_fingerprint(dirs: &[PathBuf]) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs") || p.ends_with("Cargo.toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in dirs {
        walk(d, &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x} ({} files)", files.len())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cleared = clear_qdp_env();
    let bench_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = bench_dir
        .parent()
        .expect("the benchmark lives in the repository")
        .to_path_buf();
    let out_dir = bench_dir.join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        std::process::exit(2);
    }
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        out: out_dir,
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} commit={} sources={} nproc={} rustc={:?}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        commit(&root),
        source_fingerprint(&[root.join("crates"), bench_dir.join("src")]),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        command_line("rustc", &["--version"]),
    );
    if !cleared.is_empty() {
        println!("cleared from the environment: {}", cleared.join(" "));
    }

    let t0 = Instant::now();
    let mut out = Outcome::default();
    let result = match args.workload.as_str() {
        "cg_8x4" => cg::run(&run, &mut out),
        "hmc_4x4" => hmc::run(&run, &mut out),
        "serve_mix_4x4" => serve::run(&run, &mut out),
        _ => campaign::run(&run, &mut out),
    };
    if let Err(e) = result {
        out.attempted = out.attempted.max(1);
        out.fail(format!("run aborted: {e}"), true);
    }
    if run.traced() {
        let path = run.out.join(format!("{}-trace.json", args.workload));
        match run.tracer.write_chrome_trace(&path) {
            Ok(()) => out.detail(format!("{} spans -> {}", run.tracer.len(), path.display())),
            Err(e) => out.fail(format!("cannot write {}: {e}", path.display()), false),
        }
    }
    for line in &out.details {
        println!("  {line}");
    }
    for line in &out.failures {
        println!("  FAILED: {line}");
    }
    println!("  wall {:.2} s", t0.elapsed().as_secs_f64());
    println!("{}", out.json_line());
    let ok = out.failures.is_empty() && out.failed == 0;
    std::process::exit(if ok { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use qdp_telemetry::json::{parse, Value};

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// the runs print, in the same order and units.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            doc.get(key)
                .and_then(Value::as_array)
                .expect(key)
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(crate::report::END_TO_END));
        assert_eq!(listed("per_layer"), own(crate::common::PER_LAYER));
    }
}
