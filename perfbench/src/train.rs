//! The three training workloads: `train_r1`, `train_r2_ovl` and
//! `train_epochs_r2_proc`.
//!
//! Every workload trains the small model (Table I) to autoencode the
//! Taylor-Green field on the same 6^3-element, p = 2 mesh (2197 nodes).
//! A run makes [`SETUP_REPS`] set-up-only launches, then one measured
//! launch: warm-up steps and the timed loop. The number of timed steps
//! follows from `--seconds` and a fixed nominal pace per workload, never
//! from a measurement, so every commit does the same work. The traced run
//! (`--trace 1`) repeats the measured launch, driving each step from its
//! public pieces
//! (`ParamSet::bind`, `ConsistentGnn::forward`, `consistent_mse`,
//! `Tape::backward`, the DDP helpers and `Adam::step`) inside spans, and
//! timing every halo exchange through a delegating [`HaloExchange`].

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use cgnn_comm::{reexec_scope, Backend, Comm};
use cgnn_core::ddp::{flatten_local_gradients, reduce_flat_gradients};
use cgnn_core::exchange::PendingExchange;
use cgnn_core::mp_layer::overlap_stats;
use cgnn_core::{
    consistent_mse, EpochSchedule, ExchangeTraffic, GnnConfig, HaloExchange, HaloExchangeMode,
    RankData, Trainer,
};
use cgnn_graph::LocalGraph;
use cgnn_mesh::{BoxMesh, TaylorGreen};
use cgnn_session::{CheckpointPolicy, Dataset, RankHandle, Session};
use cgnn_tensor::{Tape, Tensor};

use crate::trace::{self, Span};
use crate::util::{
    median, peak_rss_mb, quantile, rel_diff, setup_samples, Metrics, RunOutcome, SplitMix64,
};

/// Elements per mesh axis and GLL order: 2197 nodes, 12,168 edges.
const ELEMS: usize = 6;
const POLY: usize = 2;
/// Set-up-only launches per run, each in a fresh process; the measured
/// launch adds one more sample to the `setup_s` median.
pub const SETUP_REPS: usize = 14;
/// Fewest timed steps in a run, so that p90 has ten samples beyond it.
const MIN_STEPS: usize = 100;
/// Untimed warm-up steps (whole epochs for the epoch workload).
const WARMUP_STEPS: usize = 4;
/// Snapshots and mini-batch size of the epoch workload's dataset.
const SNAPSHOTS: usize = 8;
const BATCH: usize = 2;
/// Leading steps of each R = 2 trajectory checked against an R = 1 run.
const REFERENCE_STEPS: usize = 16;
/// Largest relative loss difference the consistency gate accepts.
const CONSISTENCY_TOL: f64 = 1e-12;

/// Which training workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    R1,
    R2Ovl,
    EpochsProc,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "train_r1" => Some(Kind::R1),
            "train_r2_ovl" => Some(Kind::R2Ovl),
            "train_epochs_r2_proc" => Some(Kind::EpochsProc),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::R1 => "train_r1",
            Kind::R2Ovl => "train_r2_ovl",
            Kind::EpochsProc => "train_epochs_r2_proc",
        }
    }

    pub fn ranks(self) -> usize {
        match self {
            Kind::R1 => 1,
            Kind::R2Ovl | Kind::EpochsProc => 2,
        }
    }

    fn backend(self) -> Backend {
        match self {
            Kind::EpochsProc => Backend::Proc,
            Kind::R1 | Kind::R2Ovl => Backend::Threads,
        }
    }

    /// Timed steps per second of `--seconds`: about the pace of a 2-core
    /// host, so a run lasts about `--seconds` there.
    fn nominal_steps_per_s(self) -> f64 {
        match self {
            Kind::R1 => 24.0,
            Kind::R2Ovl => 36.0,
            Kind::EpochsProc => 16.0,
        }
    }

    fn steps_per_epoch(self) -> usize {
        match self {
            Kind::EpochsProc => SNAPSHOTS.div_ceil(BATCH),
            Kind::R1 | Kind::R2Ovl => 1,
        }
    }

    /// Timed steps of a run of `seconds`: at least [`MIN_STEPS`], in
    /// whole epochs.
    fn timed_steps(self, seconds: f64) -> usize {
        let n = (seconds * self.nominal_steps_per_s()).ceil() as usize;
        n.max(MIN_STEPS).div_ceil(self.steps_per_epoch()) * self.steps_per_epoch()
    }

    fn mode(self) -> HaloExchangeMode {
        match self {
            Kind::R1 => HaloExchangeMode::None,
            Kind::R2Ovl => HaloExchangeMode::Overlapped,
            Kind::EpochsProc => HaloExchangeMode::NeighborAllToAll,
        }
    }
}

/// Everything a launch depends on; child rank processes receive it on
/// their command line.
#[derive(Debug, Clone)]
pub struct Settings {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    /// Scratch directory for checkpoints (removed by the caller).
    pub tmp: PathBuf,
}

/// What one launch does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Build, launch and extract data, then stop: one `setup_s` sample.
    Setup,
    /// The measured launch.
    Run,
    /// The measured launch, traced.
    Traced,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Run => "run",
            Phase::Traced => "traced",
        }
    }

    fn parse(name: &str) -> Option<Phase> {
        [Phase::Setup, Phase::Run, Phase::Traced]
            .into_iter()
            .find(|p| p.name() == name)
    }
}

/// Argv of a re-exec'd child rank: `--rank-worker <workload> <seed>
/// <seconds> <phase> <tmp>`.
fn worker_args(s: &Settings, phase: Phase) -> Vec<String> {
    vec![
        "--rank-worker".into(),
        s.kind.name().into(),
        s.seed.to_string(),
        s.seconds.to_string(),
        phase.name().into(),
        s.tmp.display().to_string(),
    ]
}

/// Entry point of a re-exec'd child rank (`args` follow `--rank-worker`):
/// it joins the one launch its parent is waiting on and exits there.
pub fn rank_worker(args: &[String]) -> Result<(), String> {
    let [kind, seed, seconds, phase, tmp] = args else {
        return Err(format!("malformed --rank-worker arguments {args:?}"));
    };
    let s = Settings {
        kind: Kind::parse(kind).ok_or_else(|| format!("unknown workload {kind}"))?,
        seed: seed.parse().map_err(|_| format!("bad seed {seed}"))?,
        seconds: seconds
            .parse()
            .map_err(|_| format!("bad seconds {seconds}"))?,
        tmp: PathBuf::from(tmp),
    };
    let phase = Phase::parse(phase).ok_or_else(|| format!("bad phase {phase}"))?;
    launch(&s, phase);
    Ok(())
}

fn mesh() -> BoxMesh {
    BoxMesh::new((ELEMS, ELEMS, ELEMS), POLY, (1.0, 1.0, 1.0), false)
}

fn field() -> TaylorGreen {
    TaylorGreen::new(0.01)
}

/// The autoencoded snapshot time(s), drawn from the seed.
fn snapshot_times(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_f64()).collect()
}

/// Delegating exchange that records a span around every exchange the
/// strategy performs (the split-phase wait is timed by the library's own
/// overlap counters).
struct TimedExchange(Arc<dyn HaloExchange>);

impl HaloExchange for TimedExchange {
    fn label(&self) -> &'static str {
        self.0.label()
    }

    fn is_consistent(&self) -> bool {
        self.0.is_consistent()
    }

    fn exchange(&self, a: &Tensor, graph: &LocalGraph, comm: &Comm) -> Tensor {
        trace::span(trace::EXCHANGE, || self.0.exchange(a, graph, comm))
    }

    fn begin(&self, a: &Tensor, graph: &LocalGraph, comm: &Comm) -> Option<PendingExchange> {
        let t0 = Instant::now();
        let pending = self.0.begin(a, graph, comm);
        if pending.is_some() {
            trace::leaf(trace::EXCHANGE, t0);
        }
        pending
    }

    fn traffic_per_exchange(
        &self,
        graph: &LocalGraph,
        world: usize,
        cols: usize,
    ) -> ExchangeTraffic {
        self.0.traffic_per_exchange(graph, world, cols)
    }
}

/// Set-up timings of one launch, as rank 0 sees them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    pub build_ms: f64,
    pub launch_ms: f64,
    pub data_ms: f64,
    /// Start of the workload to the first step.
    pub setup_s: f64,
}

/// Per-step layer figures of one rank, averaged over ranks by rank 0.
mod layer {
    pub const FORWARD: usize = 0;
    pub const LOSS: usize = 1;
    pub const BACKWARD: usize = 2;
    pub const FLATTEN: usize = 3;
    pub const ALLREDUCE: usize = 4;
    pub const ADAM: usize = 5;
    pub const EXCHANGE_CALLS: usize = 6;
    pub const EXCHANGE_MS: usize = 7;
    pub const OVL_WINDOW_MS: usize = 8;
    pub const OVL_WAIT_MS: usize = 9;
    pub const COVERAGE: usize = 10;
    pub const COMM_BYTES: usize = 11;
    pub const COMM_MESSAGES: usize = 12;
    pub const ALLREDUCE_BYTES: usize = 13;
    pub const LEN: usize = 14;
}

/// Rank 0's result of one launch.
#[derive(Debug, Default)]
pub struct LaunchOut {
    pub setup: Setup,
    /// Every step's loss, warm-up included.
    pub losses: Vec<f64>,
    /// Timed steps: per-step wall time, the slowest rank's.
    pub step_ms: Vec<f64>,
    pub elapsed_s: f64,
    /// Epoch wall times, checkpoint writes included (epoch workload).
    pub epoch_ms: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    pub checkpoint_bytes: u64,
    /// Largest peak RSS over the ranks' processes.
    pub rss_mb: f64,
    pub layer: Vec<f64>,
    pub workers: usize,
    /// Spans per rank (traced launches only).
    pub spans: Vec<(String, Vec<Span>)>,
}

/// The data a rank trains on.
enum Work {
    Single(RankData),
    Epochs {
        samples: Vec<RankData>,
        schedule: EpochSchedule,
    },
}

impl Work {
    fn extract(h: &RankHandle, seed: u64) -> Work {
        match (h.dataset_len(), h.dataset_schedule()) {
            (Some(n), Some(schedule)) => Work::Epochs {
                samples: (0..n).map(|i| h.dataset_sample(i).clone()).collect(),
                schedule,
            },
            _ => Work::Single(h.autoencode_data(&field(), snapshot_times(seed, 1)[0])),
        }
    }

    /// The mini-batch of global step `step`.
    fn batch(&self, step: u64) -> Vec<&RankData> {
        match self {
            Work::Single(d) => vec![d],
            Work::Epochs { samples, schedule } => {
                let (epoch, s) = schedule.position(step);
                let order = schedule.order(epoch);
                let (lo, hi) = schedule.batch_bounds(s);
                order[lo..hi].iter().map(|&i| &samples[i]).collect()
            }
        }
    }
}

/// One optimizer step built from the trainer's public pieces, each inside
/// a span. Arithmetic and order match `Trainer::step_batch`.
fn traced_step(tr: &mut Trainer, tape: &mut Tape, batch: &[&RankData]) -> f64 {
    trace::span(trace::STEP, || {
        let mut loss_sum = 0.0;
        let mut flat_sum: Vec<f64> = Vec::new();
        for data in batch {
            tape.reset();
            let bound = trace::span(trace::BIND, || tr.params.bind(tape));
            let x = tape.leaf_copy(&data.x);
            let e = tape.leaf_copy(&data.e);
            let y = trace::span(trace::FORWARD, || {
                tr.model
                    .forward(tape, &bound, x, e, &data.graph, &data.idx, &tr.ctx)
            });
            let l = trace::span(trace::LOSS, || {
                consistent_mse(
                    tape,
                    y,
                    &data.target,
                    &data.graph,
                    &data.idx.node_inv_degree,
                    &tr.ctx.comm,
                )
            });
            loss_sum += tape.value(l).item();
            let grads = trace::span(trace::BACKWARD, || tape.backward(l));
            let flat = trace::span(trace::FLATTEN, || {
                flatten_local_gradients(&tr.params, &bound, &grads)
            });
            tape.recycle(grads);
            if flat_sum.is_empty() {
                flat_sum = flat;
            } else {
                for (a, g) in flat_sum.iter_mut().zip(flat) {
                    *a += g;
                }
            }
        }
        if batch.len() > 1 {
            let inv = 1.0 / batch.len() as f64;
            for v in &mut flat_sum {
                *v *= inv;
            }
        }
        let reduced = trace::span(trace::ALLREDUCE, || {
            reduce_flat_gradients(&tr.params, flat_sum, &tr.ctx.comm)
        });
        trace::span(trace::ADAM, || tr.opt.step(&mut tr.params, &reduced));
        loss_sum / batch.len() as f64
    })
}

/// Rank 0's checkpoint writer: one file per epoch through
/// `cgnn_tensor::save_checkpoint`, keeping only the newest.
struct Checkpoints {
    policy: CheckpointPolicy,
    last: Option<PathBuf>,
    ms: Vec<f64>,
    bytes: u64,
}

impl Checkpoints {
    fn new(dir: &Path, every_steps: u64) -> Checkpoints {
        std::fs::create_dir_all(dir).expect("create the checkpoint directory");
        Checkpoints {
            policy: CheckpointPolicy::every(every_steps, dir),
            last: None,
            ms: Vec::new(),
            bytes: 0,
        }
    }

    fn after_step(&mut self, tr: &Trainer) {
        let step = tr.steps_taken();
        if !self.policy.is_due(step) {
            return;
        }
        let path = self.policy.path_for_step(step);
        let t0 = Instant::now();
        trace::span(trace::CHECKPOINT, || {
            cgnn_tensor::save_checkpoint(&tr.params, &tr.opt.state(), &path)
        })
        .expect("write a checkpoint");
        self.ms.push(t0.elapsed().as_secs_f64() * 1e3);
        self.bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        if let Some(old) = self.last.replace(path) {
            let _ = std::fs::remove_file(old);
        }
    }
}

/// Instants the launching process took before the world started.
#[derive(Clone, Copy)]
struct Before {
    origin: Instant,
    build: (Instant, Instant),
    dataset_ms: f64,
}

/// One launch of the workload's world. A cross-process world re-execs
/// this binary as `--rank-worker` with the same settings and phase, and
/// the child calls this function too, so both sides make the same launch.
pub fn launch(s: &Settings, phase: Phase) -> LaunchOut {
    let origin = Instant::now();
    let kind = s.kind;
    let mesh = mesh();
    let mut builder = Session::builder()
        .mesh(mesh.clone())
        .ranks(kind.ranks())
        .backend(kind.backend())
        .model(GnnConfig::small())
        .seed(s.seed)
        .learning_rate(1e-3);
    builder = if phase == Phase::Traced {
        let mode = kind.mode();
        builder.exchange_with(mode.label(), move |comm, graph| {
            Arc::new(TimedExchange(mode.build(comm, graph))) as Arc<dyn HaloExchange>
        })
    } else {
        builder.exchange(kind.mode())
    };
    let t_data = Instant::now();
    if kind == Kind::EpochsProc {
        let times = snapshot_times(s.seed, SNAPSHOTS);
        let dataset = Dataset::tgv_autoencode(&mesh, &field(), &times)
            .batch_size(BATCH)
            .shuffle_seed(s.seed);
        builder = builder.dataset(dataset);
    }
    let dataset_ms = t_data.elapsed().as_secs_f64() * 1e3;
    let t_build = Instant::now();
    let session = builder.build().expect("build the workload session");
    let before = Before {
        origin,
        build: (t_build, Instant::now()),
        dataset_ms,
    };
    let _scope = (kind.backend() == Backend::Proc).then(|| reexec_scope(worker_args(s, phase)));
    let outs = session.run(|h| rank_body(h, s, phase, before));
    outs.into_iter().next().expect("rank 0 returns a result")
}

/// Elementwise maximum of per-rank vectors.
fn max_over_ranks(per_rank: Vec<Vec<f64>>) -> Vec<f64> {
    let mut out = per_rank[0].clone();
    for v in &per_rank[1..] {
        for (o, x) in out.iter_mut().zip(v) {
            *o = o.max(*x);
        }
    }
    out
}

fn rank_body(h: &mut RankHandle, s: &Settings, phase: Phase, before: Before) -> LaunchOut {
    let entered = Instant::now();
    let traced = phase == Phase::Traced;
    if traced {
        trace::start(before.origin);
        trace::record(trace::BUILD, before.build.0, before.build.1);
        trace::record(trace::LAUNCH, before.build.1, entered);
    }
    let work = trace::span(trace::DATA, || Work::extract(h, s.seed));
    let setup = Setup {
        build_ms: (before.build.1 - before.build.0).as_secs_f64() * 1e3,
        launch_ms: (entered - before.build.1).as_secs_f64() * 1e3,
        data_ms: before.dataset_ms + entered.elapsed().as_secs_f64() * 1e3,
        setup_s: before.origin.elapsed().as_secs_f64(),
    };
    if phase == Phase::Setup {
        return LaunchOut {
            setup,
            ..LaunchOut::default()
        };
    }

    let per_epoch = s.kind.steps_per_epoch();
    let mut checkpoints = (h.rank() == 0 && per_epoch > 1).then(|| {
        let dir = s
            .tmp
            .join(format!("ckpt-{}-{}", phase.name(), std::process::id()));
        Checkpoints::new(&dir, per_epoch as u64)
    });
    let mut tape = Tape::new();
    let mut losses = Vec::new();
    let mut step = |h: &mut RankHandle| {
        let batch = work.batch(h.trainer().steps_taken());
        if traced {
            traced_step(h.trainer_mut(), &mut tape, &batch)
        } else {
            h.trainer_mut().step_batch(&batch)
        }
    };

    for _ in 0..WARMUP_STEPS.div_ceil(per_epoch) * per_epoch {
        losses.push(step(h));
        if let Some(c) = checkpoints.as_mut() {
            c.after_step(h.trainer());
        }
    }
    let n = s.kind.timed_steps(s.seconds);

    let mut spans = trace::finish();
    if traced {
        trace::start(before.origin);
    }
    h.comm().barrier();
    h.traffic_reset();
    overlap_stats::reset();
    let mut step_ms = Vec::with_capacity(n);
    let mut epoch_ms = Vec::new();
    let t_loop = Instant::now();
    let mut t_epoch = t_loop;
    for i in 0..n {
        let t0 = Instant::now();
        losses.push(step(h));
        step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Some(c) = checkpoints.as_mut() {
            c.after_step(h.trainer());
        }
        if (i + 1) % per_epoch == 0 {
            epoch_ms.push(t_epoch.elapsed().as_secs_f64() * 1e3);
            t_epoch = Instant::now();
        }
    }
    h.comm().barrier();
    let elapsed_s = t_loop.elapsed().as_secs_f64();
    let traffic = h.traffic();
    let ovl = overlap_stats::snapshot();
    let timed = trace::finish();

    let mut layer = vec![0.0; layer::LEN];
    let per_step = 1.0 / n as f64;
    let totals = trace::totals(&timed);
    let ms = |name: usize| totals[name].total_us / 1e3 * per_step;
    let wait_ms = ovl.wait_ns as f64 / 1e6 * per_step;
    if traced {
        // The split-phase wait runs inside the forward pass.
        layer[layer::FORWARD] = totals[trace::FORWARD].self_us / 1e3 * per_step - wait_ms;
        layer[layer::LOSS] = totals[trace::LOSS].self_us / 1e3 * per_step;
        layer[layer::BACKWARD] = totals[trace::BACKWARD].self_us / 1e3 * per_step;
        layer[layer::FLATTEN] = ms(trace::FLATTEN);
        layer[layer::ALLREDUCE] = ms(trace::ALLREDUCE);
        layer[layer::ADAM] = ms(trace::ADAM);
        layer[layer::EXCHANGE_CALLS] = totals[trace::EXCHANGE].count as f64 * per_step;
        layer[layer::EXCHANGE_MS] = ms(trace::EXCHANGE) + wait_ms;
        layer[layer::COVERAGE] = trace::coverage(&timed, trace::STEP);
    }
    layer[layer::OVL_WINDOW_MS] = ovl.window_ns as f64 / 1e6 * per_step;
    layer[layer::OVL_WAIT_MS] = wait_ms;
    layer[layer::COMM_BYTES] = traffic.total_bytes() as f64 * per_step;
    layer[layer::COMM_MESSAGES] =
        (traffic.sends + traffic.a2a_messages + traffic.all_reduces + traffic.all_gathers) as f64
            * per_step;
    layer[layer::ALLREDUCE_BYTES] = traffic.all_reduce_bytes as f64 * per_step;
    trace::append(&mut spans, timed);

    // Per-rank figures reach rank 0 through the communicator: a
    // cross-process launch returns rank 0's result only.
    let comm = h.comm();
    let step_ms = max_over_ranks(comm.all_gather(step_ms));
    let rss_mb = max_over_ranks(comm.all_gather(vec![peak_rss_mb()]))[0];
    let ranks = comm.all_gather(layer);
    let layer: Vec<f64> = (0..layer::LEN)
        .map(|i| ranks.iter().map(|r| r[i]).sum::<f64>() / ranks.len() as f64)
        .collect();
    let spans = if traced {
        comm.all_gather(trace::encode(&spans))
            .iter()
            .enumerate()
            .map(|(r, flat)| (format!("rank {r}"), trace::decode(flat)))
            .collect()
    } else {
        Vec::new()
    };
    let (checkpoint_ms, checkpoint_bytes) =
        checkpoints.map_or((Vec::new(), 0), |c| (c.ms, c.bytes));
    LaunchOut {
        setup,
        losses,
        step_ms,
        elapsed_s,
        epoch_ms,
        checkpoint_ms,
        checkpoint_bytes,
        rss_mb,
        layer,
        workers: rayon::current_num_threads(),
        spans,
    }
}

/// Loss trajectory of a plain single-rank threads run with the same
/// seed, data and batching: the consistency reference.
fn reference_losses(s: &Settings, steps: usize) -> Vec<f64> {
    let mesh = mesh();
    let mut builder = Session::builder()
        .mesh(mesh.clone())
        .ranks(1)
        .backend(Backend::Threads)
        .model(GnnConfig::small())
        .seed(s.seed)
        .learning_rate(1e-3);
    if s.kind == Kind::EpochsProc {
        let times = snapshot_times(s.seed, SNAPSHOTS);
        let dataset = Dataset::tgv_autoencode(&mesh, &field(), &times)
            .batch_size(BATCH)
            .shuffle_seed(s.seed);
        builder = builder.dataset(dataset);
    }
    let session = builder.build().expect("build the reference session");
    let mut out = session.run(|h| {
        if h.dataset_len().is_some() {
            let epochs =
                (steps as u64).div_ceil(h.dataset_schedule().map_or(1, |d| d.steps_per_epoch()));
            h.train_epochs(epochs)
                .into_iter()
                .flat_map(|r| r.batch_losses)
                .collect()
        } else {
            let data = h.autoencode_data(&field(), snapshot_times(s.seed, 1)[0]);
            h.train(&data, steps)
        }
    });
    let mut losses = out.pop().expect("one rank");
    losses.truncate(steps);
    losses
}

/// One set-up-only launch (`--setup-probe`): its `setup_s`.
pub fn setup_probe(s: &Settings) -> f64 {
    launch(s, Phase::Setup).setup.setup_s
}

/// Run a training workload: set-up samples, the measured launch, the
/// traced launch when asked, and the correctness gates.
pub fn run(s: &Settings, traced: bool) -> Result<RunOutcome, String> {
    // Only the untraced run reports `setup_s`. Half the samples are taken
    // before the measured launch and half after it, so they span the run
    // rather than one moment of a shared host.
    let probe_args = [
        s.kind.name().to_string(),
        s.seed.to_string(),
        s.tmp.display().to_string(),
    ];
    let probes = if traced { 0 } else { SETUP_REPS };
    let mut setups = setup_samples(&probe_args, probes / 2)?;
    let budget = if traced { s.seconds / 2.0 } else { s.seconds };
    let run_settings = Settings {
        seconds: budget,
        ..s.clone()
    };
    let plain = launch(&run_settings, Phase::Run);
    setups.push(plain.setup.setup_s);
    let n = plain.step_ms.len();

    let mut notes = Vec::new();
    let mut failed = 0u64;
    let nonfinite = plain.losses.iter().filter(|l| !l.is_finite()).count() as u64;
    if nonfinite > 0 {
        notes.push(format!("{nonfinite} non-finite losses"));
        failed += nonfinite;
    }
    if s.kind.ranks() > 1 {
        let k = REFERENCE_STEPS.min(plain.losses.len());
        let reference = reference_losses(s, k);
        let diffs: Vec<f64> = reference
            .iter()
            .zip(&plain.losses)
            .map(|(r, l)| rel_diff(*l, *r))
            .collect();
        let worst = diffs.iter().copied().fold(0.0f64, f64::max);
        let bad = diffs
            .iter()
            .filter(|d| d.is_nan() || **d > CONSISTENCY_TOL)
            .count() as u64;
        if bad > 0 || reference.len() < k {
            notes.push(format!(
                "R=2 trajectory differs from the R=1 reference at {bad} of {k} steps (worst rel {worst:e})"
            ));
            failed += bad.max(1);
        }
        notes.push(format!(
            "consistency: worst rel diff {worst:e} over {k} steps"
        ));
    }

    setups.extend(setup_samples(&probe_args, probes - probes / 2)?);

    let mut metrics = Metrics::default();
    let mut spans = Vec::new();
    if traced {
        let t = launch(&run_settings, Phase::Traced);
        if t.losses != plain.losses {
            let first = t
                .losses
                .iter()
                .zip(&plain.losses)
                .position(|(a, b)| a.to_bits() != b.to_bits());
            notes.push(format!(
                "traced trajectory is not bit-identical to the untraced one (first difference at step {first:?})"
            ));
            failed += 1;
        }
        let l = &t.layer;
        metrics.put("session.build_ms", t.setup.build_ms, "ms");
        metrics.put("session.launch_ms", t.setup.launch_ms, "ms");
        metrics.put("session.data_ms", t.setup.data_ms, "ms");
        metrics.put("trainer.forward_ms", l[layer::FORWARD], "ms");
        metrics.put("trainer.loss_ms", l[layer::LOSS], "ms");
        metrics.put("tape.backward_ms", l[layer::BACKWARD], "ms");
        metrics.put("pool.workers", t.workers as f64, "count");
        metrics.put("exchange.calls_per_step", l[layer::EXCHANGE_CALLS], "count");
        metrics.put("exchange.ms_per_step", l[layer::EXCHANGE_MS], "ms");
        let step_p50 = median(&t.step_ms);
        metrics.put("exchange.share", l[layer::EXCHANGE_MS] / step_p50, "ratio");
        metrics.put("exchange.ovl_window_ms", l[layer::OVL_WINDOW_MS], "ms");
        metrics.put("exchange.ovl_wait_ms", l[layer::OVL_WAIT_MS], "ms");
        metrics.put("comm.bytes_per_step", l[layer::COMM_BYTES], "bytes");
        metrics.put("comm.messages_per_step", l[layer::COMM_MESSAGES], "count");
        metrics.put(
            "comm.allreduce_bytes_per_step",
            l[layer::ALLREDUCE_BYTES],
            "bytes",
        );
        metrics.put("ddp.flatten_ms", l[layer::FLATTEN], "ms");
        metrics.put("ddp.allreduce_ms", l[layer::ALLREDUCE], "ms");
        metrics.put("optim.adam_ms", l[layer::ADAM], "ms");
        metrics.put("checkpoint.write_ms", median(&t.checkpoint_ms), "ms");
        metrics.put("checkpoint.bytes", t.checkpoint_bytes as f64, "bytes");
        metrics.put("train.epoch_s", median(&t.epoch_ms) / 1e3, "s");
        metrics.put("step.coverage", l[layer::COVERAGE], "ratio");
        metrics.put(
            "trace.overhead",
            step_p50 / median(&plain.step_ms) - 1.0,
            "ratio",
        );
        spans = t.spans;
    } else {
        metrics.put("setup_s", median(&setups), "s");
        metrics.put("throughput_per_s", n as f64 / plain.elapsed_s, "1/s");
        metrics.put("latency_p50_ms", median(&plain.step_ms), "ms");
        metrics.put("latency_tail_ms", quantile(&plain.step_ms, 0.9), "ms");
        metrics.put("peak_rss_mb", plain.rss_mb, "MiB");
    }
    let attempted = n as u64;
    let detail = format!(
        "{{\"steps\": {n}, \"ranks\": {}, \"workers_per_rank\": {}, \"exchange\": \"{}\", \
         \"backend\": \"{}\", \"epoch_s_p50\": {:?}, \"checkpoint_ms_p50\": {:?}, \
         \"setup_s_samples\": {:?}, \"final_loss\": {:?}}}",
        s.kind.ranks(),
        plain.workers,
        s.kind.mode().label(),
        s.kind.backend().label(),
        median(&plain.epoch_ms) / 1e3,
        median(&plain.checkpoint_ms),
        setups,
        plain.losses.last().copied().unwrap_or(f64::NAN),
    );
    Ok(RunOutcome {
        metrics,
        attempted,
        failed,
        notes,
        spans,
        detail,
    })
}
