//! Hot-path throughput benchmark: training steps/sec and exchange-hidden
//! fraction across rank counts and halo-exchange modes.
//!
//! Sweeps `R x mode` (all built-in [`HaloExchangeMode`]s at `R > 1`; the
//! exchange is an identity at `R = 1`), measuring:
//!
//! * **steps/sec** — full training steps (forward, consistent loss,
//!   backward, fused DDP all-reduce, Adam) per wall-clock second, best of
//!   `CGNN_BENCH_REPS` repetitions (the machine this tracks runs on is a
//!   shared VM; best-of filters scheduler noise),
//! * **exchange-hidden fraction** — for the overlapped schedule (`Ovl-SR`),
//!   `window / (window + wait)` from `cgnn-core`'s overlap timers: the
//!   share of exchange latency hidden behind the interior-node MLP,
//! * **consistency** — the per-step loss trajectories of all consistent
//!   modes must be bit-identical at every `R` (asserted, recorded).
//!
//! Results are written to `BENCH_hotpath.json` at the repo root so the
//! perf trajectory is tracked in-tree. The committed file also records the
//! pre-PR baseline throughput measured at the default bench size, and the
//! host (core count, CPU model) every run was measured on; the speedup is
//! only reported when the run's core count matches the baseline host's.
//! Regenerate with:
//!
//! ```sh
//! cargo run --release -p cgnn-bench --bin hotpath
//! ```
//!
//! A `weak_scaling` section additionally sweeps the **backend axis**
//! (`CGNN_BENCH_BACKENDS`, default `threads,proc`) on a per-rank-constant
//! problem: the mesh doubles one axis per rank doubling, so every rank
//! always owns the same sub-problem and aggregate rank-throughput
//! (`ranks x steps/s`) is the weak-scaling figure of merit. Cross-process
//! cells re-exec this binary with a `--weak-worker` argv (the cell rides
//! in `CGNN_BENCH_WEAK`), and each rank process runs under the per-rank
//! thread budget (`max(1, cores / world)`).
//!
//! Env overrides: `CGNN_BENCH_ELEMS` (6), `CGNN_BENCH_POLY` (2),
//! `CGNN_BENCH_STEPS` (10), `CGNN_BENCH_WARMUP` (2), `CGNN_BENCH_REPS`
//! (3), `CGNN_BENCH_RANKS` ("1,2,4,8"), `CGNN_BENCH_MODEL`
//! ("small"/"large"), `CGNN_BENCH_BACKENDS` ("threads,proc"),
//! `CGNN_NUM_THREADS` (kernel worker pinning, overrides the budget).

use std::time::Instant;

use cgnn_bench::{env_usize, serde_json, BASELINE_CORES, BASELINE_STEPS_PER_SEC};
use cgnn_comm::{reexec_scope, Backend};
use cgnn_core::config;
use cgnn_core::mp_layer::overlap_stats;
use cgnn_core::{GnnConfig, HaloExchangeMode};
use cgnn_mesh::{BoxMesh, TaylorGreen};
use cgnn_session::Session;
use serde_json::json;

/// The host CPU's model name from `/proc/cpuinfo`, or `"unknown"`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, name)| name.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One measured `R x mode` cell.
struct Cell {
    ranks: usize,
    mode: HaloExchangeMode,
    steps_per_sec: f64,
    hidden_fraction: f64,
    losses: Vec<f64>,
}

fn measure(session: &Session, mode: HaloExchangeMode, steps: usize, warmup: usize) -> Cell {
    let session = session.with_exchange(mode);
    let field = TaylorGreen::new(0.01);
    let per_rank = session.run(move |handle| {
        let data = handle.autoencode_data(&field, 0.0);
        for _ in 0..warmup {
            handle.step(&data);
        }
        overlap_stats::reset();
        handle.comm().barrier();
        let t0 = Instant::now();
        let losses: Vec<f64> = (0..steps).map(|_| handle.step(&data)).collect();
        handle.comm().barrier();
        let elapsed = t0.elapsed().as_secs_f64();
        (elapsed, overlap_stats::snapshot(), losses)
    });
    let elapsed = per_rank.iter().map(|(e, _, _)| *e).fold(0.0f64, f64::max);
    let windows: u64 = per_rank.iter().map(|(_, w, _)| w.windows).sum();
    let hidden = if windows == 0 {
        0.0
    } else {
        // Mean of per-rank hidden fractions, ranks without windows excluded.
        let (sum, n) = per_rank
            .iter()
            .filter(|(_, w, _)| w.windows > 0)
            .fold((0.0, 0u32), |(s, n), (_, w, _)| {
                (s + w.hidden_fraction(), n + 1)
            });
        sum / n.max(1) as f64
    };
    Cell {
        ranks: session.ranks(),
        mode,
        steps_per_sec: steps as f64 / elapsed,
        hidden_fraction: hidden,
        losses: per_rank.into_iter().next().expect("rank 0").2,
    }
}

/// One weak-scaling row: per-rank-constant problem at `ranks` on `backend`.
struct WeakRow {
    backend: Backend,
    ranks: usize,
    dims: (usize, usize, usize),
    steps_per_sec: f64,
    per_rank_threads: usize,
}

/// Per-rank-constant mesh for `ranks = 2^k`: one axis doubles per rank
/// doubling, so every rank always owns an `e^3`-element block.
fn weak_dims(e: usize, ranks: usize) -> Option<(usize, usize, usize)> {
    if !ranks.is_power_of_two() {
        return None;
    }
    let k = ranks.trailing_zeros() as usize;
    Some((e << k.div_ceil(3), e << ((k + 1) / 3), e << (k / 3)))
}

/// Measure one weak-scaling cell: a single launch (cross-process backends
/// re-exec into `weak_worker`), reps timed *inside* the SPMD region over
/// synchronized barriers, best rep wins. Returns rank 0's steps/sec.
fn weak_cell(
    backend: Backend,
    ranks: usize,
    dims: (usize, usize, usize),
    poly: usize,
    model: GnnConfig,
    steps: usize,
    warmup: usize,
    reps: usize,
) -> f64 {
    let mode = if ranks == 1 {
        HaloExchangeMode::None
    } else {
        HaloExchangeMode::NeighborAllToAll
    };
    let session = Session::builder()
        .mesh(BoxMesh::new(dims, poly, (1.0, 1.0, 1.0), false))
        .ranks(ranks)
        .exchange(mode)
        .backend(backend)
        .model(model)
        .seed(42)
        .learning_rate(1e-3)
        .build()
        .unwrap_or_else(|e| panic!("weak cell {}/R{ranks}: {e:?}", backend.label()));
    let field = TaylorGreen::new(0.01);
    let per_rank = session.run(move |handle| {
        let data = handle.autoencode_data(&field, 0.0);
        for _ in 0..warmup {
            handle.step(&data);
        }
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(1) {
            handle.comm().barrier();
            let t0 = Instant::now();
            for _ in 0..steps {
                handle.step(&data);
            }
            handle.comm().barrier();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    });
    steps as f64 / per_rank[0]
}

/// The cell a `--weak-worker` re-exec carries in `CGNN_BENCH_WEAK`:
/// `backend/ranks/elems/poly/model/steps/warmup/reps`.
fn encode_weak(backend: Backend, ranks: usize, e: usize, poly: usize, model: &str) -> String {
    format!("{}/{ranks}/{e}/{poly}/{model}", backend.label())
}

/// Child-rank entry point: re-exec'd processes land here (argv
/// `--weak-worker`), rebuild the cell from the environment, and join the
/// spawned world at the same launch the parent is waiting on.
fn weak_worker() {
    let cell = config::CGNN_BENCH_WEAK.string_or("");
    let parts: Vec<&str> = cell.split('/').collect();
    let [backend, ranks, e, poly, model] = parts.as_slice() else {
        panic!("malformed CGNN_BENCH_WEAK {cell:?}");
    };
    let backend = match *backend {
        "proc" => Backend::Proc,
        "socket" => Backend::Socket,
        other => panic!("unexpected weak-worker backend {other:?}"),
    };
    let ranks: usize = ranks.parse().expect("weak-worker ranks");
    let e: usize = e.parse().expect("weak-worker elems");
    let poly: usize = poly.parse().expect("weak-worker poly");
    let model = match *model {
        "large" => GnnConfig::large(),
        _ => GnnConfig::small(),
    };
    let steps = env_usize(&config::CGNN_BENCH_STEPS, 10);
    let warmup = env_usize(&config::CGNN_BENCH_WARMUP, 2);
    let reps = env_usize(&config::CGNN_BENCH_REPS, 3);
    let dims = weak_dims(e, ranks).expect("weak-worker rank count");
    let _scope = reexec_scope(["--weak-worker"]);
    weak_cell(backend, ranks, dims, poly, model, steps, warmup, reps);
}

fn main() {
    // Re-exec'd child ranks of a cross-process weak-scaling cell skip the
    // whole bench and join their world directly.
    if std::env::args().nth(1).as_deref() == Some("--weak-worker") {
        weak_worker();
        return;
    }
    let elems = env_usize(&config::CGNN_BENCH_ELEMS, 6);
    let poly = env_usize(&config::CGNN_BENCH_POLY, 2);
    let steps = env_usize(&config::CGNN_BENCH_STEPS, 10);
    let warmup = env_usize(&config::CGNN_BENCH_WARMUP, 2);
    let reps = env_usize(&config::CGNN_BENCH_REPS, 3);
    let model = config::CGNN_BENCH_MODEL.string_or("small");
    let config = match model.as_str() {
        "large" => GnnConfig::large(),
        _ => GnnConfig::small(),
    };
    let ranks: Vec<usize> = config::CGNN_BENCH_RANKS
        .string_or("1,2,4,8")
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();

    let mesh = BoxMesh::new((elems, elems, elems), poly, (1.0, 1.0, 1.0), false);
    let probe = Session::builder()
        .mesh(mesh.clone())
        .model(config)
        .seed(42)
        .build()
        .expect("probe session");
    let (nodes, edges) = (probe.graph(0).n_local(), probe.graph(0).n_edges());
    println!(
        "hotpath: {elems}^3 elements p={poly} ({nodes} nodes, {edges} edges), \
         model {model}, {steps} steps x {reps} reps (warmup {warmup})\n"
    );
    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>9}",
        "ranks", "mode", "steps/s", "ms/step", "hidden"
    );

    let mut cells: Vec<Cell> = Vec::new();
    for &r in &ranks {
        let session = Session::builder()
            .mesh(mesh.clone())
            .ranks(r)
            .model(config)
            .seed(42)
            .learning_rate(1e-3)
            .build()
            .unwrap_or_else(|e| panic!("R={r} session: {e:?}"));
        // The exchange is an identity at R = 1; sweep modes only beyond it.
        let modes: Vec<HaloExchangeMode> = if r == 1 {
            vec![HaloExchangeMode::None]
        } else {
            HaloExchangeMode::all().to_vec()
        };
        for mode in modes {
            let mut best: Option<Cell> = None;
            for _ in 0..reps {
                let cell = measure(&session, mode, steps, warmup);
                if best
                    .as_ref()
                    .is_none_or(|b| cell.steps_per_sec > b.steps_per_sec)
                {
                    best = Some(cell);
                }
            }
            let cell = best.expect("at least one rep");
            println!(
                "{:>6} {:>10} {:>12.3} {:>12.3} {:>9.3}",
                cell.ranks,
                cell.mode,
                cell.steps_per_sec,
                1e3 / cell.steps_per_sec,
                cell.hidden_fraction
            );
            cells.push(cell);
        }
    }

    // Weak-scaling sweep across the backend axis: per-rank-constant
    // problem, one launch per cell (cross-process cells re-exec this
    // binary with `--weak-worker`; ranks that are not a power of two are
    // skipped and logged, never silently dropped).
    let backends: Vec<Backend> = config::CGNN_BENCH_BACKENDS
        .string_or("threads,proc")
        .split(',')
        .filter_map(|s| match s.trim() {
            "" => None,
            "threads" => Some(Backend::Threads),
            "serial" => Some(Backend::Serial),
            "proc" => Some(Backend::Proc),
            "socket" => Some(Backend::Socket),
            other => {
                eprintln!("weak scaling: skipping unknown backend {other:?}");
                None
            }
        })
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\nweak scaling: per-rank-constant {elems}^3-element block, N-A2A, \
         {cores} core(s), budget max(1, cores/world)"
    );
    println!(
        "{:>8} {:>6} {:>14} {:>12} {:>14} {:>8}",
        "backend", "ranks", "mesh", "steps/s", "agg(r*st/s)", "threads"
    );
    let mut weak_rows: Vec<WeakRow> = Vec::new();
    for &backend in &backends {
        for &r in &ranks {
            let Some(dims) = weak_dims(elems, r) else {
                eprintln!("weak scaling: skipping R={r} (not a power of two)");
                continue;
            };
            // Cross-process worlds beyond one rank spawn children that
            // re-enter through `--weak-worker`; everything else launches
            // in-process with no re-exec protocol.
            let sps = if backend.is_in_process() || r == 1 {
                weak_cell(backend, r, dims, poly, config, steps, warmup, reps)
            } else {
                std::env::set_var(
                    config::CGNN_BENCH_WEAK.name,
                    encode_weak(backend, r, elems, poly, &model),
                );
                let _scope = reexec_scope(["--weak-worker"]);
                weak_cell(backend, r, dims, poly, config, steps, warmup, reps)
            };
            let row = WeakRow {
                backend,
                ranks: r,
                dims,
                steps_per_sec: sps,
                per_rank_threads: config::per_rank_thread_budget(cores, r),
            };
            println!(
                "{:>8} {:>6} {:>14} {:>12.3} {:>14.3} {:>8}",
                row.backend.label(),
                row.ranks,
                format!("{}x{}x{}", row.dims.0, row.dims.1, row.dims.2),
                row.steps_per_sec,
                row.steps_per_sec * row.ranks as f64,
                row.per_rank_threads,
            );
            weak_rows.push(row);
        }
    }
    assert!(
        weak_rows
            .iter()
            .all(|w| w.steps_per_sec.is_finite() && w.steps_per_sec > 0.0),
        "non-positive weak-scaling throughput"
    );

    // Invariants the CI perf-smoke relies on.
    let consistent_ok = ranks.iter().all(|&r| {
        let consistent: Vec<&Cell> = cells
            .iter()
            .filter(|c| c.ranks == r && c.mode.is_consistent())
            .collect();
        consistent.windows(2).all(|p| {
            if p[0].losses != p[1].losses {
                eprintln!(
                    "R={r}: consistent modes {} and {} diverged",
                    p[0].mode, p[1].mode
                );
            }
            p[0].losses == p[1].losses
        })
    });
    assert!(consistent_ok, "consistent exchange modes diverged");
    for c in &cells {
        assert!(
            c.steps_per_sec.is_finite() && c.steps_per_sec > 0.0,
            "non-positive throughput"
        );
        assert!(
            (0.0..=1.0).contains(&c.hidden_fraction),
            "hidden fraction out of range"
        );
        if c.mode == HaloExchangeMode::Overlapped {
            assert!(
                c.hidden_fraction > 0.0,
                "overlapped mode opened no compute window"
            );
        }
    }

    // The committed baseline is an R=1 measurement at the default bench
    // size on a `BASELINE_CORES`-core host: a run only yields a comparable
    // speedup when it uses that size, actually swept R=1, and ran on a host
    // with as many cores. Without the rank check, a
    // `CGNN_BENCH_RANKS=2,4` run at default size would fold `r1` over an
    // empty set (0.0) and silently publish a 0x "speedup" as comparable.
    let default_size = elems == 6 && poly == 2 && model == "small" && steps == 10;
    let baseline_comparable = default_size && ranks.contains(&1) && cores == BASELINE_CORES;
    let r1 = cells
        .iter()
        .filter(|c| c.ranks == 1)
        .map(|c| c.steps_per_sec)
        .fold(0.0f64, f64::max);
    assert!(
        !baseline_comparable || r1 > 0.0,
        "comparable run produced no R=1 throughput"
    );
    let json = json!({
        "bench": "hotpath",
        "mesh": {"elems": elems, "poly": poly, "nodes": nodes, "edges": edges},
        "model": model,
        "host": {"cores": cores, "cpu_model": cpu_model()},
        "protocol": {
            "steps": steps,
            "warmup": warmup,
            "reps": reps,
            "metric": "best-of-reps wall-clock steps/sec (shared-VM noise filter)",
        },
        "baseline": {
            "steps_per_sec": BASELINE_STEPS_PER_SEC,
            "cores": BASELINE_CORES,
            "note": "pre-PR commit 2c6dbcf, R=1, default bench size, same methodology",
            "applies_to_this_run": baseline_comparable,
        },
        "speedup_vs_baseline": if baseline_comparable { Some(r1 / BASELINE_STEPS_PER_SEC) } else { None },
        "consistent_modes_bit_identical": consistent_ok,
        "results": cells.iter().map(|c| json!({
            "backend": "threads",
            "ranks": c.ranks,
            "mode": c.mode.label(),
            "steps_per_sec": c.steps_per_sec,
            "ms_per_step": 1e3 / c.steps_per_sec,
            "exchange_hidden_fraction": c.hidden_fraction,
            "final_loss": c.losses.last(),
        })).collect::<Vec<_>>(),
        "weak_scaling": {
            "protocol": "per-rank-constant problem: the mesh doubles one axis per rank \
                         doubling so every rank owns an elems^3 block; N-A2A exchange; \
                         steps/s is rank 0's best-of-reps over synchronized barriers; \
                         aggregate rank-throughput (ranks x steps/s) is the weak-scaling \
                         figure of merit and is flat under ideal weak scaling",
            "cores": cores,
            "thread_budget": "max(1, cores / world), unless CGNN_NUM_THREADS pins it",
            "mode": "N-A2A",
            "rows": weak_rows.iter().map(|w| json!({
                "backend": w.backend.label(),
                "ranks": w.ranks,
                "mesh_elems": [w.dims.0, w.dims.1, w.dims.2],
                "steps_per_sec": w.steps_per_sec,
                "agg_rank_steps_per_sec": w.steps_per_sec * w.ranks as f64,
                "per_rank_threads": w.per_rank_threads,
            })).collect::<Vec<_>>(),
        },
    });
    let path = "BENCH_hotpath.json";
    std::fs::write(
        path,
        serde_json::to_string_pretty(&json).expect("serialize"),
    )
    .expect("write BENCH_hotpath.json");
    println!("\n[wrote {path}]");
    if baseline_comparable {
        println!(
            "R=1 throughput {:.3} steps/s = {:.2}x the pre-PR baseline ({:.3} steps/s)",
            r1,
            r1 / BASELINE_STEPS_PER_SEC,
            BASELINE_STEPS_PER_SEC
        );
    }
}
