//! The repository benchmark: four workloads measured end to end
//! (`--trace 0`) or per layer (`--trace 1`).
//!
//! ```text
//! perfbench --workload <train_r1|train_r2_ovl|train_epochs_r2_proc|serve_open>
//!           --seed <n> --seconds <s> --trace <0|1> --out <dir>
//!           [--light-rps r --heavy-rps r --ladder-rps r1,r2,.. --p99-limit-ms ms]
//!           [--rustc <version>] [--target-cpu <cpu>]
//! ```
//!
//! The four serving settings are required for `serve_open`.
//!
//! Every setting comes from the command line. The last line of standard
//! output is the result: `{"correct", "attempted", "failed", "metrics"}`.
//! A traced run also writes its spans as Chrome Trace Event JSON under
//! `--out`. Child rank processes of the cross-process workload re-enter
//! through `--rank-worker` and join only the launch that spawned them.
//! `run.py` next to this package builds and drives it.

mod serve;
mod trace;
mod train;
mod util;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use util::{json_str, Metrics, RunOutcome};

/// End-to-end metrics, reported by every untraced run.
const END_TO_END: &[&str] = &[
    "setup_s",
    "throughput_per_s",
    "latency_p50_ms",
    "latency_tail_ms",
    "peak_rss_mb",
];

/// Per-layer metrics and units, reported by every traced run (zero where
/// the workload does not exercise the layer).
const PER_LAYER: &[(&str, &str)] = &[
    ("session.build_ms", "ms"),
    ("session.launch_ms", "ms"),
    ("session.data_ms", "ms"),
    ("trainer.forward_ms", "ms"),
    ("trainer.loss_ms", "ms"),
    ("tape.backward_ms", "ms"),
    ("pool.workers", "count"),
    ("exchange.calls_per_step", "count"),
    ("exchange.ms_per_step", "ms"),
    ("exchange.share", "ratio"),
    ("exchange.ovl_window_ms", "ms"),
    ("exchange.ovl_wait_ms", "ms"),
    ("comm.bytes_per_step", "bytes"),
    ("comm.messages_per_step", "count"),
    ("comm.allreduce_bytes_per_step", "bytes"),
    ("ddp.flatten_ms", "ms"),
    ("ddp.allreduce_ms", "ms"),
    ("optim.adam_ms", "ms"),
    ("checkpoint.write_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("train.epoch_s", "s"),
    ("serve.http_ms_p50", "ms"),
    ("serve.server_ms_p50", "ms"),
    ("serve.server_ms_p99", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.mean_batch", "count"),
    ("serve.rejected", "count"),
    ("serve.forward_ms_per_batch", "ms"),
    ("serve.latency_p99_ms.light", "ms"),
    ("serve.latency_p50_ms.heavy", "ms"),
    ("loadgen.late_ms_p99", "ms"),
    ("step.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("error_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    light_rps: Option<f64>,
    heavy_rps: Option<f64>,
    ladder_rps: Option<Vec<f64>>,
    p99_limit_ms: Option<f64>,
    rustc: String,
    target_cpu: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".bench_build/perfbench"),
        light_rps: None,
        heavy_rps: None,
        ladder_rps: None,
        p99_limit_ms: None,
        rustc: "unknown".into(),
        target_cpu: "unknown".into(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let num = |v: &str| {
            v.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x > 0.0)
                .ok_or_else(|| format!("{flag} needs a positive number, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value.to_string(),
            "--seed" => {
                a.seed = value
                    .parse()
                    .map_err(|_| format!("--seed needs an integer, got {value:?}"))?
            }
            "--seconds" => a.seconds = num(value)?,
            "--trace" => {
                a.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace needs 0 or 1, got {value:?}")),
                }
            }
            "--out" => a.out = PathBuf::from(value),
            "--light-rps" => a.light_rps = Some(num(value)?),
            "--heavy-rps" => a.heavy_rps = Some(num(value)?),
            "--ladder-rps" => {
                let rungs = value.split(',').map(num).collect::<Result<Vec<_>, _>>()?;
                if rungs.windows(2).any(|w| w[0] >= w[1]) {
                    return Err("--ladder-rps must rise".into());
                }
                a.ladder_rps = Some(rungs);
            }
            "--p99-limit-ms" => a.p99_limit_ms = Some(num(value)?),
            "--rustc" => a.rustc = value.to_string(),
            "--target-cpu" => a.target_cpu = value.to_string(),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// CPU model from `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `path` relative to the working directory when it lies below it.
/// Rendezvous socket paths must stay within the 108 bytes of a Unix
/// socket address, however deep the checkout is.
fn short_path(path: &Path) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or_else(|| path.to_path_buf())
}

/// Copy the logs and failure reports that failed cross-process launches
/// left under `dir` to standard error.
fn dump_rank_logs(dir: &Path) {
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for path in entries.flatten().map(|e| e.path()) {
            let name = path
                .file_name()
                .map_or(String::new(), |n| n.to_string_lossy().into());
            if path.is_dir() {
                stack.push(path);
            } else if name.ends_with(".log") || name.ends_with(".fail") {
                let text = std::fs::read_to_string(&path).unwrap_or_default();
                eprintln!("perfbench: {}:\n{text}", path.display());
            }
        }
    }
}

/// Scratch directory for checkpoints and rendezvous sockets, removed
/// when dropped.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_workload(a: &Args, tmp: &Path) -> Result<RunOutcome, String> {
    if let Some(kind) = train::Kind::parse(&a.workload) {
        let s = train::Settings {
            kind,
            seed: a.seed,
            seconds: a.seconds,
            tmp: tmp.to_path_buf(),
        };
        return train::run(&s, a.trace);
    }
    if a.workload == "serve_open" {
        let (Some(light_rps), Some(heavy_rps), Some(ladder_rps), Some(p99_limit_ms)) = (
            a.light_rps,
            a.heavy_rps,
            a.ladder_rps.clone(),
            a.p99_limit_ms,
        ) else {
            return Err(
                "serve_open needs --light-rps, --heavy-rps, --ladder-rps and --p99-limit-ms".into(),
            );
        };
        let s = serve::Settings {
            seed: a.seed,
            seconds: a.seconds,
            light_rps,
            heavy_rps,
            ladder_rps,
            p99_limit_ms,
        };
        return serve::run(&s, a.trace).map_err(|e| format!("serving failed: {e}"));
    }
    Err(format!("unknown workload {:?}", a.workload))
}

/// `--setup-probe <workload> <seed> [<tmp>]`: one set-up, its seconds.
fn setup_probe(args: &[String]) -> Result<f64, String> {
    let (workload, seed, tmp) = match args {
        [w, seed] => (w, seed, None),
        [w, seed, tmp] => (w, seed, Some(tmp)),
        _ => return Err(format!("malformed --setup-probe arguments {args:?}")),
    };
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed {seed}"))?;
    match (train::Kind::parse(workload), tmp) {
        (Some(kind), Some(tmp)) => Ok(train::setup_probe(&train::Settings {
            kind,
            seed,
            seconds: 0.0,
            tmp: PathBuf::from(tmp),
        })),
        (None, None) if workload == "serve_open" => {
            serve::setup_probe(seed).map_err(|e| format!("serving failed: {e}"))
        }
        _ => Err(format!("malformed --setup-probe arguments {args:?}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--setup-probe") {
        return match setup_probe(&argv[1..]) {
            Ok(v) => {
                println!("{v:?}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench set-up probe: {e}");
                ExitCode::from(2)
            }
        };
    }
    if argv.first().map(String::as_str) == Some("--rank-worker") {
        return match train::rank_worker(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench rank worker: {e}");
                ExitCode::from(2)
            }
        };
    }
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tmp = TempDir(short_path(
        &a.out.join(format!("tmp-{}", std::process::id())),
    ));
    if let Err(e) = std::fs::create_dir_all(&tmp.0) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.0.display());
        return ExitCode::from(2);
    }
    // Cross-process rendezvous sockets go under the scratch directory.
    std::env::set_var("CGNN_PROC_DIR", &tmp.0);

    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_workload(&a, &tmp.0)));
    let outcome = match run {
        Ok(Ok(o)) => o,
        Ok(Err(e)) => {
            eprintln!("perfbench: {e}");
            dump_rank_logs(&tmp.0);
            return ExitCode::from(2);
        }
        Err(_) => {
            eprintln!("perfbench: the workload panicked");
            dump_rank_logs(&tmp.0);
            return ExitCode::from(3);
        }
    };
    for note in &outcome.notes {
        eprintln!("perfbench: {note}");
    }

    let error_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    let mut metrics = Metrics::default();
    if a.trace {
        for (name, unit) in PER_LAYER {
            let v = match *name {
                "error_frac" => error_frac,
                _ => outcome.metrics.get(name).unwrap_or(0.0),
            };
            metrics.put(name, v, unit);
        }
    } else {
        for name in END_TO_END {
            let (_, v, unit) = outcome
                .metrics
                .0
                .iter()
                .find(|(n, _, _)| n == name)
                .cloned()
                .unwrap_or((name.to_string(), f64::NAN, "?"));
            metrics.put(name, v, unit);
        }
    }
    let correct = outcome.failed == 0 && metrics.all_finite();

    let ranks = match train::Kind::parse(&a.workload) {
        Some(kind) => kind.ranks(),
        None => 1,
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host {{\"cores\": {cores}, \"cpu\": {}, \"rustc\": {}, \"target_cpu\": {}, \
         \"kernel_workers\": {}, \"ranks\": {ranks}, \"workload\": {}, \"seed\": {}, \
         \"seconds\": {:?}, \"trace\": {}}}",
        json_str(&cpu_model()),
        json_str(&a.rustc),
        json_str(&a.target_cpu),
        rayon::current_num_threads(),
        json_str(&a.workload),
        a.seed,
        a.seconds,
        a.trace as u8,
    );
    println!("detail {}", outcome.detail);
    if a.trace && !outcome.spans.is_empty() {
        let path = a
            .out
            .join(format!("trace-{}-seed{}.json", a.workload, a.seed));
        match std::fs::write(&path, trace::chrome_json(&outcome.spans)) {
            Ok(()) => eprintln!("perfbench: wrote {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        eprint!("{}", trace::self_time_table(&outcome.spans));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics.to_json()
    );
    drop(tmp);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
