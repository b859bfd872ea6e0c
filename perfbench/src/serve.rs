//! The `serve_open` workload: an in-process `cgnn_serve::Server` (one
//! replica, micro-batches of up to 32 with a 2 ms deadline, a 1-element
//! mesh of 27 nodes) driven by an open-loop load generator.
//!
//! The generator sends on a schedule fixed before the phase starts, over
//! two pipelined keep-alive connections with one thread each, and times
//! every request from when it was due, so a stall also delays the
//! requests behind it. Three kinds of phase run at rates given on the
//! command line: a light rate (mostly single-request batches), a heavy
//! rate (batches fill), and a ladder of rising rates whose highest rung
//! that meets the p99 limit, without a growing backlog, is the capacity.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cgnn_comm::LoopbackBackend;
use cgnn_core::{GnnConfig, HaloContext, RankData, Trainer};
use cgnn_graph::{build_global_graph, node_velocity_features, LocalGraph};
use cgnn_mesh::{BoxMesh, TaylorGreen};
use cgnn_serve::http::{decode_f64, encode_f64};
use cgnn_serve::stats::{BATCH_BUCKETS, LAT_BUCKETS};
use cgnn_serve::{ServeConfig, ServeSnapshot, Server};

use crate::trace::{self, Span};
use crate::util::{median, peak_rss_mb, quantile, setup_samples, Metrics, RunOutcome, SplitMix64};

/// Served mesh: elements per axis (GLL order 2 is fixed by the server).
const ELEMS: usize = 1;
const MAX_BATCH: usize = 32;
const BATCH_WAIT_US: u64 = 2000;
/// Connections, each with its own generator thread.
const CONNECTIONS: usize = 2;
/// Distinct request inputs drawn from the seed.
const INPUTS: usize = 64;
/// Fewest requests per phase, so that p99 has ten samples beyond it.
const MIN_REQUESTS: usize = 1000;
/// Server starts per run for the `setup_s` median, each in a fresh
/// process; the start that serves the measured phases adds one more.
const SETUP_REPS: usize = 9;
/// How long the generator waits for outstanding replies after its last
/// send before it counts them as timed out.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);
/// A phase whose sends ran later at p99 than this share of the p99
/// latency limit measured the generator more than the server, and is
/// invalid.
const LATE_SHARE: f64 = 0.5;
/// A ladder rung whose completions fall below this share of the offered
/// rate is building a backlog.
const MIN_COMPLETION_SHARE: f64 = 0.95;

/// Serving settings, all from the command line.
#[derive(Debug, Clone)]
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub light_rps: f64,
    pub heavy_rps: f64,
    pub ladder_rps: Vec<f64>,
    pub p99_limit_ms: f64,
}

/// Seeded request inputs and their reference predictions from
/// `Trainer::predict` with the weights the server starts from.
struct Inputs {
    bodies: Vec<Vec<u8>>,
    expected: Vec<Vec<u64>>,
}

/// The reference model and the inputs as rank data, for timing
/// `Trainer::predict_batch` outside the server.
struct Probe {
    graph: Arc<LocalGraph>,
    data: Vec<RankData>,
    trainer: Trainer,
}

impl Inputs {
    fn new(seed: u64) -> (Inputs, Probe) {
        let mesh = BoxMesh::new((ELEMS, ELEMS, ELEMS), 2, (1.0, 1.0, 1.0), false);
        let graph = Arc::new(build_global_graph(&mesh));
        let field = TaylorGreen::new(0.01);
        let trainer = Trainer::new(
            GnnConfig::small(),
            seed,
            1e-3,
            HaloContext::single(LoopbackBackend::comm()),
        );
        let mut rng = SplitMix64::new(seed);
        let mut bodies = Vec::with_capacity(INPUTS);
        let mut expected = Vec::with_capacity(INPUTS);
        let mut data = Vec::with_capacity(INPUTS);
        for _ in 0..INPUTS {
            let scale = 0.5 + rng.next_f64();
            let x: Vec<f64> = node_velocity_features(&graph, &field, rng.next_f64())
                .into_iter()
                .map(|v| v * scale)
                .collect();
            let d = RankData::new(Arc::clone(&graph), x.clone(), x.clone());
            expected.push(
                trainer
                    .predict(&d)
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect(),
            );
            bodies.push(encode_f64(&x));
            data.push(d);
        }
        (
            Inputs { bodies, expected },
            Probe {
                graph,
                data,
                trainer,
            },
        )
    }
}

fn request_head(len: usize) -> Vec<u8> {
    format!("POST /predict HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {len}\r\n\r\n")
        .into_bytes()
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Reply {
    /// Correct prediction; latency from due time in ms.
    Ok(f64),
    /// Refused with 503.
    Rejected,
    /// Any other status, or an unparsable body.
    Failed,
    /// A prediction that is not bit-identical to `Trainer::predict`.
    Wrong,
    /// No reply within the drain timeout.
    TimedOut,
}

/// One parsed HTTP response, or `None` while incomplete.
fn parse_response(buf: &[u8]) -> Option<(u16, std::ops::Range<usize>)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()?
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let len = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    let body = head_end + 4..head_end + 4 + len;
    (buf.len() >= body.end).then_some((status, body))
}

/// One request in flight on a connection.
struct InFlight {
    id: usize,
    input: usize,
    due: Instant,
}

/// What one generator thread saw.
struct Generated {
    /// `(request id, reply, reply time)`.
    replies: Vec<(usize, Reply, Instant)>,
    /// How late each send was, ms.
    late_ms: Vec<f64>,
    spans: Vec<Span>,
}

/// Per-connection generator: sends its share of the schedule on time,
/// reading replies while it waits, then drains.
fn generate(
    stream: &mut TcpStream,
    inputs: &Inputs,
    schedule: &[(usize, usize, Instant)],
    traced: bool,
) -> std::io::Result<Generated> {
    if traced {
        trace::start(schedule.first().map_or_else(Instant::now, |s| s.2));
    }
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut flight: VecDeque<InFlight> = VecDeque::new();
    let mut done = Vec::with_capacity(schedule.len());
    let mut late_ms = Vec::with_capacity(schedule.len());
    let mut read_until = |stream: &mut TcpStream,
                          flight: &mut VecDeque<InFlight>,
                          done: &mut Vec<(usize, Reply, Instant)>,
                          until: Instant|
     -> std::io::Result<()> {
        loop {
            let now = Instant::now();
            if now >= until || flight.is_empty() {
                return Ok(());
            }
            stream.set_read_timeout(Some((until - now).max(Duration::from_micros(20))))?;
            match stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(k) => {
                    let at = Instant::now();
                    buf.extend_from_slice(&chunk[..k]);
                    trace::span(trace::RECV, || {
                        while let Some((status, body)) = parse_response(&buf) {
                            let Some(req) = flight.pop_front() else {
                                break;
                            };
                            let outcome = match status {
                                200 => match decode_f64(&buf[body.clone()]) {
                                    Some(y)
                                        if y.iter()
                                            .map(|v| v.to_bits())
                                            .eq(inputs.expected[req.input].iter().copied()) =>
                                    {
                                        Reply::Ok((at - req.due).as_secs_f64() * 1e3)
                                    }
                                    Some(_) => Reply::Wrong,
                                    None => Reply::Failed,
                                },
                                503 => Reply::Rejected,
                                _ => Reply::Failed,
                            };
                            done.push((req.id, outcome, at));
                            buf.drain(..body.end);
                        }
                    });
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => return Err(e),
            }
        }
    };
    for &(id, input, due) in schedule {
        read_until(stream, &mut flight, &mut done, due)?;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        late_ms.push(due.elapsed().as_secs_f64() * 1e3);
        let body = &inputs.bodies[input];
        trace::span(trace::SEND, || -> std::io::Result<()> {
            let mut frame = request_head(body.len());
            frame.extend_from_slice(body);
            stream.write_all(&frame)
        })?;
        flight.push_back(InFlight { id, input, due });
    }
    read_until(
        stream,
        &mut flight,
        &mut done,
        Instant::now() + DRAIN_TIMEOUT,
    )?;
    let now = Instant::now();
    done.extend(flight.drain(..).map(|r| (r.id, Reply::TimedOut, now)));
    Ok(Generated {
        replies: done,
        late_ms,
        spans: trace::finish(),
    })
}

/// Result of one open-loop phase.
#[derive(Debug, Default)]
struct PhaseOut {
    rate: f64,
    sent: usize,
    /// Latencies (ms from due time) of correct replies, in request order.
    lat_ms: Vec<f64>,
    late_ms: Vec<f64>,
    rejected: usize,
    failed: usize,
    wrong: usize,
    timed_out: usize,
    /// Completed requests per second, first due time to last reply.
    achieved_rps: f64,
    /// Server-side telemetry over the phase.
    server: Option<(ServeSnapshot, ServeSnapshot)>,
    spans: Vec<(String, Vec<Span>)>,
}

impl PhaseOut {
    fn errors(&self) -> usize {
        self.rejected + self.failed + self.wrong + self.timed_out
    }

    fn late_p99(&self) -> f64 {
        quantile(&self.late_ms, 0.99)
    }

    fn behind(&self, limit_ms: f64) -> bool {
        self.late_p99() > LATE_SHARE * limit_ms
    }

    /// Completions lag the offered load.
    fn backlog(&self) -> bool {
        self.achieved_rps < MIN_COMPLETION_SHARE * self.rate
    }

    /// Whether this phase meets `limit_ms` at p99 with no error, no
    /// backlog and a generator that kept up.
    fn meets(&self, limit_ms: f64) -> bool {
        self.errors() == 0
            && !self.behind(limit_ms)
            && !self.backlog()
            && windowed_p99(&self.lat_ms) <= limit_ms
    }
}

/// Most windows a phase's p99 is taken over. A phase's tail is the median
/// of its windows' p99s (each window at least [`MIN_REQUESTS`] long), so
/// one scheduler stall on a shared host moves one window, not the figure.
const TAIL_WINDOWS: usize = 8;

/// Median over consecutive windows of each window's p99.
fn windowed_p99(lat_ms: &[f64]) -> f64 {
    let windows = (lat_ms.len() / MIN_REQUESTS).clamp(1, TAIL_WINDOWS);
    let len = lat_ms.len().div_ceil(windows).max(1);
    let p99s: Vec<f64> = lat_ms.chunks(len).map(|w| quantile(w, 0.99)).collect();
    median(&p99s)
}

/// Run `n` requests at `rate` per second over the connections.
fn open_loop(
    conns: &mut [TcpStream],
    server: &Server,
    inputs: &Inputs,
    rate: f64,
    n: usize,
    rng: &mut SplitMix64,
    traced: bool,
) -> std::io::Result<PhaseOut> {
    // Arrivals: fixed mean gap, uniformly jittered to +-50 %, so batches
    // mix sizes without the unbounded bursts of a Poisson stream.
    let start = Instant::now() + Duration::from_millis(20);
    let mut t = 0.0;
    let mut per_conn: Vec<Vec<(usize, usize, Instant)>> = vec![Vec::new(); conns.len()];
    for id in 0..n {
        let input = (rng.next_u64() % INPUTS as u64) as usize;
        per_conn[id % conns.len()].push((id, input, start + Duration::from_secs_f64(t)));
        t += (0.5 + rng.next_f64()) / rate;
    }
    let before = server.stats().snapshot();
    let results: Vec<std::io::Result<_>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&per_conn)
            .map(|(c, sched)| scope.spawn(move || generate(c, inputs, sched, traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a load generator thread panicked"))
            .collect()
    });
    let after = server.stats().snapshot();
    let mut all = Vec::with_capacity(n);
    let mut out = PhaseOut {
        rate,
        sent: n,
        server: Some((before, after)),
        ..PhaseOut::default()
    };
    for (i, r) in results.into_iter().enumerate() {
        let g = r?;
        all.extend(g.replies);
        out.late_ms.extend(g.late_ms);
        if traced {
            out.spans.push((format!("loadgen {i}"), g.spans));
        }
    }
    all.sort_by_key(|(id, _, _)| *id);
    let last_done = all.iter().map(|(_, _, at)| *at).max().unwrap_or(start);
    let mut ok = 0usize;
    for (_, outcome, _) in &all {
        match outcome {
            Reply::Ok(ms) => {
                ok += 1;
                out.lat_ms.push(*ms);
            }
            Reply::Rejected => out.rejected += 1,
            Reply::Failed => out.failed += 1,
            Reply::Wrong => out.wrong += 1,
            Reply::TimedOut => out.timed_out += 1,
        }
    }
    out.achieved_rps = ok as f64 / (last_done - start).as_secs_f64().max(1e-9);
    Ok(out)
}

/// Quantile `q` of the server's latency histogram between two snapshots
/// (power-of-two microsecond buckets, interpolated within a bucket), ms.
fn server_quantile_ms(before: &ServeSnapshot, after: &ServeSnapshot, q: f64) -> f64 {
    let hist: Vec<u64> = (0..LAT_BUCKETS)
        .map(|i| after.lat_hist[i] - before.lat_hist[i])
        .collect();
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = q * total as f64;
    let mut seen = 0.0;
    for (i, &c) in hist.iter().enumerate() {
        if c > 0 && seen + c as f64 >= target {
            let lo = (1u64 << i) as f64;
            let frac = (target - seen) / c as f64;
            return (lo + frac * lo) / 1e3;
        }
        seen += c as f64;
    }
    0.0
}

/// Batch-size histogram between two snapshots: `(size, batches)`.
fn batch_sizes(before: &ServeSnapshot, after: &ServeSnapshot) -> Vec<(usize, u64)> {
    (0..BATCH_BUCKETS)
        .map(|i| (i + 1, after.batch_hist[i] - before.batch_hist[i]))
        .filter(|(_, c)| *c > 0)
        .collect()
}

/// Mean `Trainer::predict_batch` time (ms) over the observed batch-size
/// mix, each size timed as the median of a few calls.
fn forward_ms_per_batch(probe: &Probe, sizes: &[(usize, u64)]) -> f64 {
    let mut weighted = 0.0;
    let mut batches = 0u64;
    for &(size, count) in sizes {
        let batch: Vec<&RankData> = (0..size).map(|i| &probe.data[i % INPUTS]).collect();
        let times: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                let out = trace::span(trace::SERVE_FORWARD, || probe.trainer.predict_batch(&batch));
                std::hint::black_box(out);
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        weighted += median(&times) * count as f64;
        batches += count;
    }
    if batches == 0 {
        0.0
    } else {
        weighted / batches as f64
    }
}

/// A started server and its connections.
struct Running {
    server: Server,
    conns: Vec<TcpStream>,
}

/// Start the server, open the connections and get one correct reply:
/// the set-up time (s) to the first served request.
fn start(seed: u64, inputs: &Inputs) -> std::io::Result<(Running, f64)> {
    let t0 = Instant::now();
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        replicas: 1,
        max_batch: MAX_BATCH,
        batch_wait_us: BATCH_WAIT_US,
        model: GnnConfig::small(),
        model_name: "small".to_string(),
        elems: ELEMS,
        seed,
        http_workers: CONNECTIONS,
        ckpt_dir: None,
        ..ServeConfig::default()
    };
    let server = Server::start(config)?;
    let addr: SocketAddr = server.addr();
    let mut conns = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let c = TcpStream::connect(addr)?;
        c.set_nodelay(true)?;
        conns.push(c);
    }
    let first = generate(&mut conns[0], inputs, &[(0, 0, Instant::now())], false)?;
    let setup_s = t0.elapsed().as_secs_f64();
    if !matches!(first.replies.first(), Some((_, Reply::Ok(_), _))) {
        return Err(std::io::Error::other(
            "the first request was not served correctly",
        ));
    }
    Ok((Running { server, conns }, setup_s))
}

fn requests_for(rate: f64, seconds: f64) -> usize {
    ((rate * seconds).ceil() as usize).max(MIN_REQUESTS)
}

/// Requests for the heavy phase: at least [`MIN_REQUESTS`] per tail window.
fn heavy_requests(rate: f64, seconds: f64) -> usize {
    requests_for(rate, seconds).max(MIN_REQUESTS * TAIL_WINDOWS)
}

/// One server start (`--setup-probe`): its `setup_s`. The process exits
/// right after, which stops the server's threads.
pub fn setup_probe(seed: u64) -> std::io::Result<f64> {
    let (inputs, _) = Inputs::new(seed);
    let (_running, setup_s) = start(seed, &inputs)?;
    Ok(setup_s)
}

/// Run the workload. `--trace 1` measures the light and heavy phases
/// untraced and then traced, for the per-layer figures; `--trace 0`
/// adds the capacity ladder and reports the end-to-end figures.
pub fn run(s: &Settings, traced: bool) -> std::io::Result<RunOutcome> {
    let (inputs, probe) = Inputs::new(s.seed);
    // Half the set-up samples are taken before the measured phases and
    // half after, so they span the run rather than one moment of a shared
    // host. Only the untraced run reports `setup_s`.
    let probe_args = ["serve_open".to_string(), s.seed.to_string()];
    let probes = if traced { 0 } else { SETUP_REPS };
    let mut setups = setup_samples(&probe_args, probes / 2).map_err(std::io::Error::other)?;
    let (Running { server, mut conns }, setup_s) = start(s.seed, &inputs)?;
    setups.push(setup_s);
    let mut rng = SplitMix64::new(s.seed ^ 0x5EED);
    let mut notes = Vec::new();

    // Warm-up: fill the server's per-batch-size graph cache.
    let warm = open_loop(
        &mut conns,
        &server,
        &inputs,
        s.heavy_rps,
        300,
        &mut rng,
        false,
    )?;
    let mut phases: Vec<PhaseOut> = Vec::new();
    let share = if traced { 0.25 } else { 0.3 };
    let light = open_loop(
        &mut conns,
        &server,
        &inputs,
        s.light_rps,
        requests_for(s.light_rps, s.seconds * share),
        &mut rng,
        false,
    )?;
    let heavy = open_loop(
        &mut conns,
        &server,
        &inputs,
        s.heavy_rps,
        heavy_requests(s.heavy_rps, s.seconds * share),
        &mut rng,
        false,
    )?;
    for (name, p) in [("light", &light), ("heavy", &heavy)] {
        if p.behind(s.p99_limit_ms) {
            notes.push(format!(
                "{name} phase invalid: the generator ran {:.3} ms late at p99",
                p.late_p99()
            ));
        }
    }
    let invalid = light.behind(s.p99_limit_ms) || heavy.behind(s.p99_limit_ms);
    // Peak memory of the fixed-rate phases: overloaded ladder rungs
    // buffer a backlog whose size is not the program's footprint.
    let rss_mb = peak_rss_mb();
    let mut metrics = Metrics::default();
    let mut spans = Vec::new();
    let mut ladder: Vec<String> = Vec::new();
    if traced {
        let t_light = open_loop(
            &mut conns,
            &server,
            &inputs,
            s.light_rps,
            requests_for(s.light_rps, s.seconds * share),
            &mut rng,
            true,
        )?;
        let t_heavy = open_loop(
            &mut conns,
            &server,
            &inputs,
            s.heavy_rps,
            heavy_requests(s.heavy_rps, s.seconds * share),
            &mut rng,
            true,
        )?;
        let (before, after) = t_heavy.server.as_ref().expect("server snapshots");
        let server_p50 = server_quantile_ms(before, after, 0.5);
        let sizes = batch_sizes(before, after);
        trace::start(Instant::now());
        let forward_ms = forward_ms_per_batch(&probe, &sizes);
        let probe_spans = trace::finish();
        let batches: u64 = sizes.iter().map(|(_, c)| c).sum();
        let mean_batch = sizes
            .iter()
            .map(|(b, c)| (*b as u64 * c) as f64)
            .sum::<f64>()
            / batches.max(1) as f64;
        let heavy_p50 = median(&t_heavy.lat_ms);
        metrics.put("pool.workers", rayon::current_num_threads() as f64, "count");
        metrics.put("serve.http_ms_p50", heavy_p50 - server_p50, "ms");
        metrics.put("serve.server_ms_p50", server_p50, "ms");
        metrics.put(
            "serve.server_ms_p99",
            server_quantile_ms(before, after, 0.99),
            "ms",
        );
        metrics.put("serve.queue_wait_ms", server_p50 - forward_ms, "ms");
        metrics.put("serve.mean_batch", mean_batch, "count");
        let rejected: usize = [&light, &heavy, &t_light, &t_heavy]
            .iter()
            .map(|p| p.rejected)
            .sum();
        metrics.put("serve.rejected", rejected as f64, "count");
        metrics.put("serve.forward_ms_per_batch", forward_ms, "ms");
        metrics.put(
            "serve.latency_p99_ms.light",
            quantile(&t_light.lat_ms, 0.99),
            "ms",
        );
        metrics.put("serve.latency_p50_ms.heavy", heavy_p50, "ms");
        let late: Vec<f64> = [&t_light, &t_heavy]
            .iter()
            .flat_map(|p| p.late_ms.iter().copied())
            .collect();
        metrics.put("loadgen.late_ms_p99", quantile(&late, 0.99), "ms");
        metrics.put(
            "trace.overhead",
            heavy_p50 / median(&heavy.lat_ms) - 1.0,
            "ratio",
        );
        for (phase, p) in [("light", &t_light), ("heavy", &t_heavy)] {
            spans.extend(
                p.spans
                    .iter()
                    .map(|(l, g)| (format!("{phase} {l}"), g.clone())),
            );
        }
        spans.push(("forward probe".to_string(), probe_spans));
        phases.push(t_light);
        phases.push(t_heavy);
    } else {
        let per_rung = s.seconds * (1.0 - 2.0 * share) / s.ladder_rps.len().max(1) as f64;
        let mut max_rate = None;
        for &rate in &s.ladder_rps {
            let p = open_loop(
                &mut conns,
                &server,
                &inputs,
                rate,
                requests_for(rate, per_rung),
                &mut rng,
                false,
            )?;
            let ok = p.meets(s.p99_limit_ms);
            ladder.push(format!(
                "{{\"rate\": {rate:?}, \"meets\": {ok}, \"p50_ms\": {:?}, \"p99_ms\": {:?}, \
                 \"achieved_rps\": {:?}, \"late_ms_p99\": {:?}, \"errors\": {}, \"backlog\": {}}}",
                median(&p.lat_ms),
                windowed_p99(&p.lat_ms),
                p.achieved_rps,
                p.late_p99(),
                p.errors(),
                p.backlog()
            ));
            if !ok {
                break;
            }
            max_rate = Some(p.achieved_rps);
        }
        if max_rate.is_none() {
            notes.push(format!(
                "no ladder rate met the {} ms p99 limit",
                s.p99_limit_ms
            ));
        }
        metrics.put("throughput_per_s", max_rate.unwrap_or(0.0), "1/s");
        metrics.put("latency_p50_ms", median(&light.lat_ms), "ms");
        metrics.put("latency_tail_ms", windowed_p99(&heavy.lat_ms), "ms");
        metrics.put("peak_rss_mb", rss_mb, "MiB");
        if max_rate.is_none() {
            // Counted below as a failed attempt of the workload.
            phases.push(PhaseOut {
                sent: 1,
                failed: 1,
                ..PhaseOut::default()
            });
        }
    }
    drop(conns);
    server.shutdown();
    setups.extend(setup_samples(&probe_args, probes - probes / 2).map_err(std::io::Error::other)?);
    if !traced {
        metrics.put("setup_s", median(&setups), "s");
    }

    // Refusals and errors of the light and heavy phases count as
    // failures; ladder rungs past capacity are expected to refuse.
    phases.push(light);
    phases.push(heavy);
    let attempted: usize = phases.iter().map(|p| p.sent).sum();
    let mut failed: usize = phases.iter().map(PhaseOut::errors).sum();
    for p in &phases {
        if p.wrong > 0 {
            notes.push(format!(
                "{} predictions were not bit-identical to Trainer::predict",
                p.wrong
            ));
        }
    }
    if invalid {
        failed += 1;
    }
    if warm.errors() > 0 {
        notes.push(format!("{} warm-up requests failed", warm.errors()));
    }
    let detail = format!(
        "{{\"nodes\": {}, \"connections\": {CONNECTIONS}, \"max_batch\": {MAX_BATCH}, \
         \"batch_wait_us\": {BATCH_WAIT_US}, \"kernel_workers\": {}, \"setup_s_samples\": {setups:?}, \
         \"ladder\": [{}]}}",
        probe.graph.n_local(),
        rayon::current_num_threads(),
        ladder.join(", ")
    );
    Ok(RunOutcome {
        metrics,
        attempted: attempted as u64,
        failed: failed as u64,
        notes,
        spans,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_parse_only_when_complete() {
        let full = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabcHTTP/1.1";
        assert_eq!(parse_response(full), Some((200, 38..41)));
        assert_eq!(parse_response(&full[..40]), None);
        assert_eq!(parse_response(b"HTTP/1.1 503 Busy\r\n"), None);
    }

    #[test]
    fn windowed_tail_ignores_one_stalled_window() {
        let mut lat = vec![1.0; 3 * MIN_REQUESTS];
        lat[10..40].iter_mut().for_each(|v| *v = 100.0);
        assert_eq!(windowed_p99(&lat), 1.0);
        assert_eq!(windowed_p99(&lat[..MIN_REQUESTS]), 100.0);
    }
}
