//! `serve_mix`: the release `busnet serve --unix <sock> --threads 2`
//! binary under an open-loop, seeded stream with on/off bursty arrivals
//! over two connections (one generator thread each).
//!
//! New points are mostly cheap `pfqn`/`fluid` evaluations, about a
//! third event-engine `sim` points at a small budget and a few
//! default-budget cycle-engine `sim` points. About half the requests
//! repeat an earlier point: most pick a popular old point (a cache
//! reply), some a recent one that may still be in flight (coalesced).
//!
//! Latency runs from each request's scheduled send time to its reply.
//! The nominal-rate stream gives the latency figures; then a ladder of
//! offered rates, each against a freshly started server, finds the
//! highest rate whose tail latency meets [`LATENCY_LIMIT_MS`] with the
//! backlog drained.
//!
//! The traced run drives an in-process `Broker` with the same lines:
//! spans for parse and submit, and a reply timestamp per request from
//! its `ReplySink` writer.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use busnet_core::cache::EvalCache;
use busnet_core::scenario::{
    evaluator_calls, run_sweep_with, Evaluator, EvaluatorKind, Supervisor, SweepOptions,
};
use busnet_core::serve::{parse_request, row_json, Broker, BrokerConfig, ReplySink, Request};
use busnet_sim::event::EngineKind;
use busnet_sim::exec::ExecutionMode;
use busnet_sim::sink::LineSink;

use crate::meter::{median, peak_rss_mb, proc_cpu_s, quantile, secs, tail};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::wrap::Traced;
use crate::{record_self_times, Ctx, Outcome};

/// Offered rate of the nominal stream, requests per second.
const NOMINAL_RPS: f64 = 200.0;
/// The tail-latency limit of the max-rate ladder.
const LATENCY_LIMIT_MS: f64 = 100.0;
/// Length of each on and off arrival phase, seconds.
const PHASE_S: f64 = 0.1;
/// Arrival rate in the on (off) phase, as a multiple of the mean rate.
const ON_FACTOR: f64 = 1.6;
const OFF_FACTOR: f64 = 0.4;
/// Measured cycles of an event-engine point.
const EVENT_CYCLES: u64 = 6_000;
/// Distinct points whose rows are re-evaluated in-process and compared.
const ROW_SAMPLES: usize = 12;

/// One generated request.
struct Req {
    /// Scheduled send time, seconds from the stream start.
    at: f64,
    conn: usize,
    /// Index of the point it asks for.
    point: usize,
    line: String,
}

/// The point kinds of the mix.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Pfqn,
    Fluid,
    EventSim,
    CycleSim,
}

fn point_json(kind: Kind, rng: &mut Rng) -> String {
    let bufferings = ["buffered", "depth4", "infinite"];
    let (evaluator, n, m, r, p, buffering, budget) = match kind {
        Kind::Pfqn => (
            "pfqn",
            1 + rng.below(64) as u32,
            rng.pick(&[4u32, 8, 16, 32]),
            rng.pick(&[2u32, 4, 8, 12, 16]),
            rng.pick(&[0.2, 0.5, 1.0]),
            rng.pick(&bufferings),
            String::new(),
        ),
        Kind::Fluid => (
            "fluid",
            1 + rng.below(64) as u32,
            rng.pick(&[4u32, 8, 16, 32]),
            rng.pick(&[2u32, 4, 8, 12, 16]),
            rng.pick(&[0.2, 0.5, 1.0]),
            rng.pick(&["unbuffered", "buffered", "depth4", "infinite"]),
            String::new(),
        ),
        // Simulation points share one size and differ in their seed, so
        // every fresh simulation costs about the same.
        Kind::EventSim => (
            "sim",
            8,
            rng.pick(&[8u32, 16]),
            rng.pick(&[4u32, 8]),
            1.0,
            rng.pick(&["unbuffered", "buffered"]),
            format!(
                ",\"budget\":{{\"engine\":\"event\",\"replications\":2,\"cycles\":{EVENT_CYCLES},\
                 \"warmup\":{},\"seed\":{}}}",
                EVENT_CYCLES / 10,
                rng.below(1 << 30)
            ),
        ),
        Kind::CycleSim => (
            "sim",
            8,
            8,
            8,
            1.0,
            "unbuffered",
            format!(",\"budget\":{{\"seed\":{}}}", rng.below(1 << 30)),
        ),
    };
    format!(
        "\"scenario\":{{\"n\":{n},\"m\":{m},\"r\":{r},\"p\":{p},\"buffering\":\"{buffering}\"}},\
         \"evaluator\":\"{evaluator}\"{budget}"
    )
}

/// Slots per block of [`MIX_BLOCK`] requests: repeats of earlier
/// points, then new points by kind. Each block holds exactly these
/// counts in seeded order, so every seed sends the same mix.
const MIX: [(Option<Kind>, usize); 5] = [
    (None, 60),
    (Some(Kind::Pfqn), 13),
    (Some(Kind::Fluid), 11),
    (Some(Kind::EventSim), 13),
    (Some(Kind::CycleSim), 3),
];
const MIX_BLOCK: usize = 100;

/// The seeded stream: Poisson arrivals whose rate alternates between
/// on and off phases of fixed length, at mean `rate` for `seconds`,
/// returned with the distinct points it asks for.
fn generate(seed: u64, rate: f64, seconds: f64) -> (Vec<Req>, Vec<String>) {
    let mut rng = Rng::new(seed);
    let mut points: Vec<String> = Vec::new();
    let mut reqs = Vec::new();
    let mut block: Vec<Option<Kind>> = Vec::new();
    let (mut t, mut on) = (0.0, rng.unit() < 0.5);
    let mut phase_end = PHASE_S;
    loop {
        let lambda = rate * if on { ON_FACTOR } else { OFF_FACTOR };
        let next = t + rng.exp(1.0 / lambda);
        if next > phase_end {
            // Memoryless arrivals: restart the gap at the phase switch.
            t = phase_end;
            on = !on;
            phase_end += PHASE_S;
            continue;
        }
        t = next;
        if t >= seconds {
            break;
        }
        if block.is_empty() {
            block = MIX.iter().flat_map(|&(kind, n)| std::iter::repeat_n(kind, n)).collect();
            debug_assert_eq!(block.len(), MIX_BLOCK);
            rng.shuffle(&mut block);
        }
        let point = match block.pop().flatten() {
            Some(kind) => {
                points.push(point_json(kind, &mut rng));
                points.len() - 1
            }
            None if points.is_empty() => {
                points.push(point_json(Kind::Pfqn, &mut rng));
                0
            }
            // Popular old points: a skewed pick toward the first ones.
            None if rng.unit() < 0.7 => (points.len() as f64 * rng.unit().powi(3)) as usize,
            // Recent points, possibly still in flight.
            None => points.len() - 1 - rng.below(points.len().min(3)),
        };
        let id = reqs.len();
        let line = format!("{{\"id\":{id},{}}}", points[point]);
        reqs.push(Req { at: t, conn: id % 2, point, line });
    }
    (reqs, points)
}

/// A running `busnet serve`, killed and reaped on drop.
struct Server {
    child: Child,
    sock: PathBuf,
}

impl Server {
    /// Spawns the server and waits for its first `stats` reply; returns
    /// it with the spawn-to-ready time.
    fn start(busnet: &Path, sock: PathBuf) -> Result<(Server, f64), String> {
        let t = Instant::now();
        let child = Command::new(busnet)
            .args(["serve", "--unix"])
            .arg(&sock)
            .args(["--threads", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", busnet.display()))?;
        let server = Server { child, sock };
        loop {
            if let Ok(stream) = UnixStream::connect(&server.sock) {
                let reply = stats_roundtrip(stream)?;
                if reply.contains("\"status\":\"stats\"") {
                    return Ok((server, secs(t)));
                }
            }
            if secs(t) > 20.0 {
                return Err("busnet serve did not become ready within 20 s".to_owned());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The server's `{"op":"stats"}` reply.
    fn stats(&self) -> Result<String, String> {
        let stream = UnixStream::connect(&self.sock).map_err(|e| format!("connect: {e}"))?;
        stats_roundtrip(stream)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.sock);
    }
}

fn stats_roundtrip(mut stream: UnixStream) -> Result<String, String> {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    stream.write_all(b"{\"id\":\"stats\",\"op\":\"stats\"}\n").map_err(|e| format!("send: {e}"))?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).map_err(|e| format!("stats reply: {e}"))?;
    Ok(line)
}

/// One reply, parsed just enough to match and classify it.
struct Reply {
    at: Instant,
    line: String,
}

impl Reply {
    fn field(&self, name: &str) -> Option<&str> {
        let key = format!("\"{name}\":");
        let start = self.line.find(&key)? + key.len();
        let rest = &self.line[start..];
        let rest = rest.strip_prefix('"').unwrap_or(rest);
        let end = rest.find(['"', ',', '}']).unwrap_or(rest.len());
        Some(&rest[..end])
    }

    fn id(&self) -> Option<usize> {
        self.field("id")?.parse().ok()
    }

    fn status(&self) -> &str {
        self.field("status").unwrap_or("")
    }

    fn row(&self) -> Option<&str> {
        let start = self.line.find("\"row\":")? + "\"row\":".len();
        self.line[start..].trim_end().strip_suffix('}')
    }
}

/// What a stream produced, per request.
struct Stream {
    /// Latency (ms) and reply per request; `None` when none arrived.
    replies: Vec<Option<(f64, Reply)>>,
    /// Replies per request id (exactly one is correct).
    counts: Vec<u32>,
    /// Generator lateness per request, ms.
    late_ms: Vec<f64>,
    /// Last reply's delay after the last scheduled send, ms.
    drain_ms: f64,
}

/// Sleeps until `due`.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Sends `reqs` on schedule over two connections and collects replies.
fn drive(sock: &Path, reqs: &[Req]) -> Result<Stream, String> {
    let mut conns = Vec::new();
    for _ in 0..2 {
        let s = UnixStream::connect(sock).map_err(|e| format!("connect: {e}"))?;
        let _ = s.set_read_timeout(Some(Duration::from_secs(30)));
        conns.push(s);
    }
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut late_ms = vec![0.0; reqs.len()];
    let mut received: Vec<Reply> = Vec::new();
    std::thread::scope(|scope| -> Result<(), String> {
        let mut readers = Vec::new();
        let mut senders = Vec::new();
        for (c, conn) in conns.iter().enumerate() {
            let reader = conn.try_clone().map_err(|e| format!("clone: {e}"))?;
            readers.push(scope.spawn(move || {
                let mut got = Vec::new();
                for line in BufReader::new(reader).lines() {
                    let Ok(line) = line else { break };
                    got.push(Reply { at: Instant::now(), line });
                }
                got
            }));
            let mut writer = conn.try_clone().map_err(|e| format!("clone: {e}"))?;
            senders.push(scope.spawn(move || {
                let mut late = Vec::new();
                for (i, req) in reqs.iter().enumerate().filter(|(_, r)| r.conn == c) {
                    let due = t0 + Duration::from_secs_f64(req.at);
                    wait_until(due);
                    let sent = Instant::now();
                    late.push((i, sent.saturating_duration_since(due).as_secs_f64() * 1e3));
                    let mut bytes = req.line.clone().into_bytes();
                    bytes.push(b'\n');
                    if writer.write_all(&bytes).is_err() {
                        break;
                    }
                }
                let _ = writer.shutdown(std::net::Shutdown::Write);
                late
            }));
        }
        for s in senders {
            for (i, ms) in s.join().map_err(|_| "sender thread panicked".to_owned())? {
                late_ms[i] = ms;
            }
        }
        for r in readers {
            received.extend(r.join().map_err(|_| "reader thread panicked".to_owned())?);
        }
        Ok(())
    })?;
    let mut counts = vec![0u32; reqs.len()];
    let mut replies: Vec<Option<(f64, Reply)>> = (0..reqs.len()).map(|_| None).collect();
    let last_due = t0 + Duration::from_secs_f64(reqs.last().map_or(0.0, |r| r.at));
    let mut last_reply = last_due;
    for reply in received {
        let Some(id) = reply.id().filter(|&id| id < reqs.len()) else { continue };
        counts[id] += 1;
        let due = t0 + Duration::from_secs_f64(reqs[id].at);
        let ms = reply.at.saturating_duration_since(due).as_secs_f64() * 1e3;
        last_reply = last_reply.max(reply.at);
        replies[id] = Some((ms, reply));
    }
    let drain_ms = last_reply.saturating_duration_since(last_due).as_secs_f64() * 1e3;
    Ok(Stream { replies, counts, late_ms, drain_ms })
}

impl Stream {
    fn latencies(&self) -> Vec<f64> {
        self.replies.iter().flatten().map(|(ms, _)| *ms).collect()
    }

    /// Latencies of the replies with `status`.
    fn latencies_with(&self, status: &str) -> Vec<f64> {
        self.replies
            .iter()
            .flatten()
            .filter(|(_, r)| r.status() == status)
            .map(|(ms, _)| *ms)
            .collect()
    }

    /// Requests without exactly one `fresh` or `cached` reply.
    fn bad(&self) -> usize {
        self.replies
            .iter()
            .zip(&self.counts)
            .filter(|(r, &n)| {
                n != 1 || !r.as_ref().is_some_and(|(_, r)| matches!(r.status(), "fresh" | "cached"))
            })
            .count()
    }

    fn status_counts(&self) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        for (_, r) in self.replies.iter().flatten() {
            *out.entry(r.status().to_owned()).or_insert(0) += 1;
        }
        out
    }
}

/// Re-evaluates a seeded sample of distinct points in-process and
/// compares each row with the server's reply byte for byte.
fn check_rows(seed: u64, reqs: &[Req], stream: &Stream, out: &mut Outcome) {
    let mut by_point: BTreeMap<usize, usize> = BTreeMap::new();
    for (i, r) in reqs.iter().enumerate() {
        by_point.entry(r.point).or_insert(i);
    }
    let mut firsts: Vec<usize> = by_point.into_values().collect();
    Rng::new(seed ^ 0x5A5A).shuffle(&mut firsts);
    let supervisor = Supervisor::default();
    let options =
        SweepOptions { supervise: Some(&supervisor), ..SweepOptions::new(ExecutionMode::Serial) };
    for &i in firsts.iter().take(ROW_SAMPLES) {
        let Ok(Request::Eval(req)) = parse_request(&reqs[i].line) else {
            out.violation(format!("request {i} does not parse in-process"));
            continue;
        };
        let evaluator = req.evaluator.build(req.budget);
        let records =
            run_sweep_with(&[req.scenario], &[evaluator.as_ref()], &options, |_, _, _| {});
        let expected = records.first().and_then(|r| r.result.as_ref().ok()).map(row_json);
        let served = stream.replies[i].as_ref().and_then(|(_, r)| r.row());
        if expected.is_none() || expected.as_deref() != served {
            out.failed += 1;
            out.violation(format!("request {i}: served row differs from in-process evaluation"));
        }
    }
}

/// Runs one stream against a fresh server; returns the server's setup
/// time, the stream, its CPU seconds and peak RSS, and the stats reply.
fn serve_stream(
    busnet: &Path,
    sock: PathBuf,
    reqs: &[Req],
) -> Result<(f64, Stream, f64, f64, String), String> {
    let (server, setup_s) = Server::start(busnet, sock.clone())?;
    let cpu0 = proc_cpu_s(server.pid()).unwrap_or(0.0);
    let stream = drive(&sock, reqs)?;
    let cpu = proc_cpu_s(server.pid()).unwrap_or(0.0) - cpu0;
    let stats = server.stats().unwrap_or_default();
    let rss = peak_rss_mb(Some(server.pid())).unwrap_or(0.0);
    Ok((setup_s, stream, cpu, rss, stats))
}

/// Whether `stream` meets the latency limit with its backlog drained.
fn meets_limit(stream: &Stream) -> bool {
    stream.bad() == 0
        && tail(&stream.latencies()) <= LATENCY_LIMIT_MS
        && stream.drain_ms <= LATENCY_LIMIT_MS
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let busnet = ctx.busnet.as_deref().ok_or("serve_mix needs --busnet PATH")?;
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let sock = |tag: &str| ctx.work_dir.join(format!("{tag}.sock"));
    let nominal_s = ctx.seconds * if ctx.trace { 0.3 } else { 0.5 };
    let (reqs, points) = generate(ctx.seed, NOMINAL_RPS, nominal_s);
    let mut setups = Vec::new();
    let (setup_s, stream, cpu, rss, stats) = serve_stream(busnet, sock("nominal"), &reqs)?;
    setups.push(setup_s);

    let lat = stream.latencies();
    out.attempted += reqs.len() as u64;
    let bad = stream.bad();
    if bad > 0 {
        out.failed += bad as u64;
        out.violation(format!(
            "{bad} of {} requests lacked exactly one fresh/cached reply ({:?})",
            reqs.len(),
            stream.status_counts()
        ));
    }
    check_rows(ctx.seed, &reqs, &stream, &mut out);
    // The median reply is a cache reply: about 0.2 ms of thread
    // wake-ups that swings by a third with the host's state between
    // runs. The median evaluated (`fresh`) request carries the serving
    // path plus its evaluation and holds steady.
    let fresh = stream.latencies_with("fresh");
    out.set("latency_p50_ms", median(&fresh));
    out.set("latency_p99_ms", tail(&lat));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    out.set("cpu_s", cpu);
    out.set("exec.cpu_util", cpu / (nominal_s * nproc));
    out.set("peak_rss_mb", rss);
    out.set("gen.late_ms_p99", tail(&stream.late_ms));
    out.note(format!(
        "generator lateness p50 {:.3} ms, tail {:.3} ms",
        median(&stream.late_ms),
        tail(&stream.late_ms)
    ));
    out.note(format!(
        "nominal stream: {} requests over {nominal_s:.1} s at {NOMINAL_RPS} req/s mean \
         (on/off bursts), {} distinct points, statuses {:?}",
        reqs.len(),
        points.len(),
        stream.status_counts()
    ));
    out.note(format!(
        "latency_p50_ms = {:.3} (median of {} fresh replies; {:.3} over all replies), \
         latency_p99_ms = {:.3} (p{:.1} of all {} replies)",
        median(&fresh),
        fresh.len(),
        median(&lat),
        tail(&lat),
        crate::meter::tail_quantile(lat.len()) * 100.0,
        lat.len()
    ));
    out.note(format!("server stats: {}", stats.trim()));
    let quantiles =
        [0.9, 0.95, 0.98, 0.99, 0.995, 1.0].map(|q| format!("{:.2}", quantile(&lat, q)));
    out.note(format!("latency p90/p95/p98/p99/p99.5/max: {} ms", quantiles.join("/")));

    if !ctx.trace {
        // Server CPU per request at the nominal rate bounds what two
        // workers can sustain; the ladder starts at half that bound.
        let bound = 2.0 * reqs.len() as f64 / cpu.max(1e-3);
        let max_rate = ladder(ctx, busnet, &sock, 0.5 * bound, &mut setups, &mut out)?;
        out.set("throughput_per_s", max_rate);
        out.note(format!("max_rate_rps = {max_rate:.1} req/s (tail <= {LATENCY_LIMIT_MS} ms)"));
    } else {
        traced(ctx, &reqs, &mut out)?;
    }
    out.set("setup_s", median(&setups));
    out.note(format!("setup_s = median of {} server starts", setups.len()));
    Ok(out)
}

/// The stepped offered rates: up by 1.3× from `first` until a step
/// misses the limit (down by 1.3× while none meets it), then three
/// bisection steps between the best met and the lowest missed rate.
fn ladder(
    ctx: &Ctx,
    busnet: &Path,
    sock: &dyn Fn(&str) -> PathBuf,
    first: f64,
    setups: &mut Vec<f64>,
    out: &mut Outcome,
) -> Result<f64, String> {
    let step_s = ctx.seconds / 14.0;
    let (mut good, mut bad): (f64, Option<f64>) = (0.0, None);
    let mut rate = first.max(2.0 * NOMINAL_RPS);
    let mut bisections = 0;
    for step in 0u64..16 {
        let (reqs, _) = generate(ctx.seed.wrapping_mul(1000).wrapping_add(step + 1), rate, step_s);
        let (setup_s, stream, _, _, _) = serve_stream(busnet, sock(&format!("step{step}")), &reqs)?;
        setups.push(setup_s);
        let ok = meets_limit(&stream);
        out.note(format!(
            "ladder step {step}: {rate:.1} req/s, {} requests, tail {:.2} ms, drain {:.2} ms -> {}",
            reqs.len(),
            tail(&stream.latencies()),
            stream.drain_ms,
            if ok { "meets" } else { "misses" }
        ));
        if ok {
            good = good.max(rate);
        } else {
            bad = Some(bad.map_or(rate, |b: f64| b.min(rate)));
        }
        rate = match bad {
            None => rate * 1.3,
            Some(_) if good == 0.0 => rate / 1.3,
            Some(b) => {
                bisections += 1;
                (good * b).sqrt()
            }
        };
        if bisections > 3 || rate < 1.0 {
            break;
        }
    }
    if good == 0.0 {
        out.violation("no offered rate met the latency limit".to_owned());
    }
    Ok(good)
}

/// A `Write` that timestamps each reply line the broker emits.
struct Stamped(Arc<Mutex<Vec<Reply>>>);

impl Write for Stamped {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let line = String::from_utf8_lossy(buf).trim_end().to_owned();
        let reply = Reply { at: Instant::now(), line };
        self.0.lock().unwrap_or_else(PoisonError::into_inner).push(reply);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Drives an in-process broker with `reqs`; with a tracer, records the
/// parse, submit and request spans. Returns latencies by reply status.
fn in_process(
    reqs: &[Req],
    tracer: Option<&Tracer>,
) -> (BTreeMap<String, Vec<f64>>, Broker, Arc<EvalCache>) {
    let cache = Arc::new(EvalCache::new());
    let broker =
        Broker::new(Arc::clone(&cache), BrokerConfig { threads: 2, ..BrokerConfig::default() });
    let log = Arc::new(Mutex::new(Vec::new()));
    let sink: Arc<ReplySink> =
        Arc::new(LineSink::new(Box::new(Stamped(Arc::clone(&log))) as Box<dyn Write + Send>));
    let ids: Vec<u64> = reqs.iter().map(|_| tracer.map_or(0, Tracer::reserve)).collect();
    let t0 = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        for c in 0..2 {
            let (broker, sink, ids) = (&broker, &sink, &ids);
            scope.spawn(move || {
                for (i, req) in reqs.iter().enumerate().filter(|(_, r)| r.conn == c) {
                    let due = t0 + Duration::from_secs_f64(req.at);
                    wait_until(due);
                    let parse = || parse_request(&req.line);
                    let parsed = match tracer {
                        Some(tr) => tr.span(ids[i], i as u64, "serve.parse", "parse", parse),
                        None => parse(),
                    };
                    let Ok(Request::Eval(eval)) = parsed else { continue };
                    let submit = || broker.submit(eval, sink);
                    match tracer {
                        Some(tr) => tr.span(ids[i], i as u64, "serve.submit", "submit", submit),
                        None => submit(),
                    }
                }
            });
        }
    });
    broker.drain();
    let mut by_status: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for reply in log.lock().unwrap_or_else(PoisonError::into_inner).iter() {
        let Some(i) = reply.id().filter(|&i| i < reqs.len()) else { continue };
        let due = t0 + Duration::from_secs_f64(reqs[i].at);
        let ms = reply.at.saturating_duration_since(due).as_secs_f64() * 1e3;
        by_status.entry(reply.status().to_owned()).or_default().push(ms);
        if let Some(tr) = tracer {
            let (start, end) = (tr.at(due), tr.at(reply.at));
            tr.record(ids[i], 0, i as u64, "serve.request", "request", start, end, 0);
        }
    }
    (by_status, broker, cache)
}

/// The traced run: in-process broker streams without and with spans,
/// then a replay of the stream's distinct points through traced
/// evaluators for the engine and analytic layers.
fn traced(ctx: &Ctx, reqs: &[Req], out: &mut Outcome) -> Result<(), String> {
    let (plain, _, _) = in_process(reqs, None);
    let tracer = Tracer::new();
    let calls0 = evaluator_calls();
    let (by_status, broker, cache) = in_process(reqs, Some(&tracer));
    let calls = evaluator_calls() - calls0;
    let all = |m: &BTreeMap<String, Vec<f64>>| m.values().flatten().copied().collect::<Vec<f64>>();
    out.set("trace.untraced_s", median(&all(&plain)) * 1e-3);
    out.set("trace.overhead_frac", median(&all(&by_status)) / median(&all(&plain)) - 1.0);
    let spans = tracer.spans();
    let durations = |layer: &str| -> Vec<f64> {
        spans.iter().filter(|s| s.layer == layer).map(|s| s.secs()).collect()
    };
    let parse = durations("serve.parse");
    out.set("serve.parse_us_p50", median(&parse) * 1e6);
    out.set("serve.parse_us_p99", tail(&parse) * 1e6);
    out.set("serve.submit_us_p99", tail(&durations("serve.submit")) * 1e6);
    let empty = Vec::new();
    out.set("serve.fresh_ms_p99", tail(by_status.get("fresh").unwrap_or(&empty)));
    out.set("serve.cached_ms_p99", tail(by_status.get("cached").unwrap_or(&empty)));
    let c = broker.counters();
    out.set("serve.coalesced", c.coalesced as f64);
    out.set("serve.cache_replies", c.cache_replies as f64);
    out.set("serve.overloaded", c.overloaded as f64);
    out.set("serve.calls_saved", 1.0 - calls as f64 / c.requests.max(1) as f64);
    let t = Instant::now();
    let stats = cache.stats();
    out.set("cache.stats_us", secs(t) * 1e6);
    out.set("cache.hits", stats.hits as f64);
    out.set("cache.misses", stats.misses as f64);
    out.set("cache.appended", stats.appended as f64);
    out.set("cache.hit_ratio", stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64);
    out.note(format!("in-process broker: {}", broker.stats_line("\"traced\"")));
    drop(broker);
    replay_points(reqs, &tracer);
    let spans = tracer.spans();
    out.set(
        "scenario.overhead_s",
        crate::trace::self_time_where(&spans, |s| s.layer == "scenario"),
    );
    record_self_times(out, &tracer, 1.0);
    crate::trace::record_layer_metrics(out, &spans, 1.0);
    if let Err(e) = tracer.dump(&ctx.spans_path("serve_mix")) {
        out.note(format!("could not write spans: {e}"));
    }
    Ok(())
}

/// Evaluates each distinct point of the stream once through a traced
/// evaluator, for the engine and analytic layer metrics.
fn replay_points(reqs: &[Req], tracer: &Tracer) {
    let mut seen = std::collections::BTreeSet::new();
    let supervisor = Supervisor::default();
    let options =
        SweepOptions { supervise: Some(&supervisor), ..SweepOptions::new(ExecutionMode::Serial) };
    for req in reqs {
        if !seen.insert(req.point) {
            continue;
        }
        let Ok(Request::Eval(eval)) = parse_request(&req.line) else { continue };
        let layer = match (eval.evaluator, eval.budget.engine) {
            (EvaluatorKind::Pfqn, _) => "analytic.pfqn",
            (EvaluatorKind::Fluid, _) => "analytic.fluid",
            (_, EngineKind::Event) => "engine.event",
            _ => "engine.cycle",
        };
        let evaluator = eval.evaluator.build(eval.budget);
        let traced = Traced::new(evaluator.as_ref(), tracer, layer);
        let refs: Vec<&dyn Evaluator> = vec![&traced];
        let id = tracer.reserve();
        traced.set_parent(id);
        let start = tracer.now();
        run_sweep_with(&[eval.scenario], &refs, &options, |_, _, _| {});
        tracer.record(id, 0, 0, "scenario", "replay", start, tracer.now(), 0);
    }
}
