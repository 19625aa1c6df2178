//! The served workloads, against an in-process
//! `EngineServer::bind_with(EngineConfig::default())` over loopback.
//!
//! * `serve_fleet` — open loop: short two-class sessions, each on its own
//!   connection, arriving on a seeded schedule at a reference rate; then
//!   [`FLEET_CONNS`] closed-loop clients saturate the engine to measure
//!   its throughput, and [`UNLOADED_SESSIONS`] sessions served one at a
//!   time give its latency. The traced run instead climbs a ladder of higher
//!   rates to find the highest whose p99 stays within
//!   [`LATENCY_LIMIT_MS`]: a p99 near saturation swings too far from run
//!   to run to gate on.
//! * `serve_bulk` — closed loop: [`BULK_CONNS`] persistent connections
//!   running MCS15 × 1500 B × 64-frame sessions back to back.
//!
//! The traced run serves the same load, then replays the served sessions
//! in-process layer by layer ([`crate::replay`]); served latency minus the
//! session's replayed compute is the time spent waiting in the engine.

use crate::loadgen::{self, bulk_session, fleet_schedule, Load, LoadOutcome, Planned};
use crate::replay::Worker;
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::sys;
use crate::trace::{Layer, NoTrace, Spans};
use mimonet::telemetry::{RxStage, StageProfile};
use mimonet_io::wire::SessionConfig;
use mimonet_io::{EngineConfig, EngineServer, EngineStats};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Session latency limit for the fleet ladder, ms.
pub const LATENCY_LIMIT_MS: f64 = 250.0;
/// Fleet reference arrival rate, sessions/s: about 60% of the rate the
/// engine sustains at saturation on a 2-CPU host (~210/s).
pub const FLEET_REF_RATE: f64 = 125.0;
/// Ladder rates, as multiples of the reference rate.
pub const LADDER: [f64; 3] = [1.35, 1.6, 1.85];
/// Sampling window of the saturation phase.
const WINDOW: Duration = Duration::from_secs(1);
/// Persistent connections of the fleet's closed-loop saturation phase.
pub const FLEET_CONNS: usize = 64;
/// Sessions per open-loop step: enough that p99 has ≥10 samples beyond.
pub const STEP_SESSIONS: usize = 1000;
/// 2×2 fleet sessions served one at a time for the unloaded latency.
pub const UNLOADED_SESSIONS: usize = 300;
/// Share of an untraced fleet run spent at saturation.
pub const SATURATION_SHARE: f64 = 0.75;
/// Alternating saturation / unloaded blocks of the untraced fleet run.
pub const BLOCKS: usize = 3;
/// Seed salt of the unloaded sessions.
const UNLOADED_TAG: u64 = 0x1D1E;
/// Longest pause before each unloaded session.
pub const UNLOADED_PAUSE: Duration = Duration::from_millis(20);
/// Persistent connections of the bulk workload.
pub const BULK_CONNS: usize = 2;

fn bind() -> EngineServer {
    EngineServer::bind_with("127.0.0.1:0", EngineConfig::default()).expect("bind engine")
}

/// Serves one session on a fresh connection, due when issued.
fn serve_one(server: &EngineServer, cfg: &SessionConfig) -> LoadOutcome {
    let plan = [Planned {
        due: Duration::ZERO,
        cfg: cfg.clone(),
    }];
    loadgen::run(
        server.local_addr(),
        Load::Open {
            plans: &plan,
            max_in_flight: 1,
        },
        || {},
    )
}

/// Set-up: bind the engine and complete one warm session, nine times;
/// the median time, and the last engine (kept for the measurement).
fn setup(warm: &SessionConfig, report: &mut Report) -> (f64, EngineServer) {
    let mut times = Vec::new();
    let mut server = None;
    for _ in 0..9 {
        drop(server.take());
        let t0 = Instant::now();
        let s = bind();
        let out = serve_one(&s, warm);
        times.push(t0.elapsed().as_secs_f64());
        if !out.sessions[0].ok() {
            report.fail(format!(
                "warm-up session failed: {:?}",
                out.sessions[0].error
            ));
        }
        server = Some(s);
    }
    (median(&times), server.expect("set-up ran"))
}

/// Counts sessions, checks each one, and fails `report` for every session
/// that is not correct and complete: the default engine config neither
/// refuses nor sheds, so any such session is an engine fault.
fn check(out: &LoadOutcome, report: &mut Report, what: &str) {
    report.attempted += out.sessions.len() as u64;
    for (i, s) in out.sessions.iter().enumerate() {
        if s.ok() {
            continue;
        }
        report.failed += 1;
        report.fail(format!(
            "{what}: session {i}: {}/{} frames, {} corrupted, {}",
            s.frames_ok,
            s.cfg.n_frames,
            s.corrupted,
            match (&s.error, s.done) {
                (Some(e), _) => e.as_str(),
                (None, None) => "no terminal reply",
                (None, Some(_)) => "completed short",
            }
        ));
    }
}

fn latencies_ms(out: &LoadOutcome) -> Vec<f64> {
    out.sessions
        .iter()
        .map(|s| match (s.ok(), s.latency()) {
            (true, Some(l)) => l.as_secs_f64() * 1e3,
            // A failed session misses every latency limit.
            _ => f64::INFINITY,
        })
        .collect()
}

fn ok_frames(out: &LoadOutcome) -> (u64, u64) {
    out.sessions
        .iter()
        .filter(|s| s.ok())
        .fold((0, 0), |(f, b), s| {
            (
                f + u64::from(s.cfg.n_frames),
                b + u64::from(s.cfg.n_frames) * u64::from(s.cfg.payload_len) * 8,
            )
        })
}

/// Wall time from the first session's due time to the last reply.
fn span_of(out: &LoadOutcome) -> f64 {
    let first = out
        .sessions
        .iter()
        .map(|s| s.due)
        .min()
        .expect("sessions ran");
    let last = out
        .sessions
        .iter()
        .filter_map(|s| s.done)
        .max()
        .unwrap_or(first);
    last.saturating_duration_since(first).as_secs_f64()
}

/// Runs one open-loop step and samples the engine's active-session gauge.
fn open_step(
    server: &EngineServer,
    plans: &[Planned],
    max_in_flight: usize,
    active_max: &mut u64,
) -> LoadOutcome {
    let stats = server.stats();
    loadgen::run(
        server.local_addr(),
        Load::Open {
            plans,
            max_in_flight,
        },
        || *active_max = (*active_max).max(stats.active_sessions()),
    )
}

/// One open-loop ladder step's verdict.
struct StepResult {
    rate: f64,
    p99: f64,
    pass: bool,
}

/// Runs `STEP_SESSIONS` sessions at `rate` (arrival stream `step`) and
/// judges them: p99 within the limit, every session correct, and no
/// growing backlog. Sessions in flight beyond twice what Little's law
/// allows at the limit abort the step early — its p99 cannot pass.
fn ladder_step(
    seed: u64,
    server: &EngineServer,
    step: usize,
    rate: f64,
    first: usize,
    report: &mut Report,
) -> StepResult {
    let plans = fleet_schedule(seed, step, rate, first, STEP_SESSIONS);
    let cap = (rate * LATENCY_LIMIT_MS * 2e-3).ceil() as usize;
    let out = open_step(server, &plans, cap, &mut 0);
    let issued: Vec<_> = out.sessions.iter().filter(|s| !s.skipped).collect();
    report.attempted += issued.len() as u64;
    for s in &issued {
        if s.corrupted > 0 {
            report.fail(format!(
                "ladder {rate:.1}/s: {} corrupted frames",
                s.corrupted
            ));
        }
    }
    let p99 = percentile(&latencies_ms(&out), 99.0).map_or(f64::INFINITY, |q| q.value);
    let all_ok = issued.iter().all(|s| s.ok());
    let pass = p99 <= LATENCY_LIMIT_MS && !out.backlog_abort && all_ok;
    println!(
        "ladder {rate:7.1}/s  p99 {p99:9.2} ms  in-flight max {:3}  {}",
        out.max_in_flight,
        if pass {
            "pass"
        } else if out.backlog_abort {
            "fail (backlog growing)"
        } else {
            "fail"
        }
    );
    StepResult { rate, p99, pass }
}

/// Closed-loop saturation: [`FLEET_CONNS`] persistent connections run
/// fleet sessions back to back until `until`, so the engine never idles.
/// Returns the sessions and the process CPU time sampled every second.
fn saturate(
    seed: u64,
    server: &EngineServer,
    first: usize,
    until: Instant,
) -> (LoadOutcome, Vec<(Instant, f64)>) {
    let session = |k: usize| loadgen::fleet_session(seed, first + k);
    let mut samples = vec![(Instant::now(), sys::cpu_seconds())];
    let out = loadgen::run(
        server.local_addr(),
        Load::Closed {
            conns: FLEET_CONNS,
            session: &session,
            until,
        },
        || {
            let next = samples[samples.len() - 1].0 + WINDOW;
            if Instant::now() >= next {
                samples.push((Instant::now(), sys::cpu_seconds()));
            }
        },
    );
    (out, samples)
}

/// Serves `n` sessions of the fleet's 2×2 MCS8 class one at a time, each
/// on its own connection and due when issued, after a seeded pause of up
/// to [`UNLOADED_PAUSE`] so arrivals do not lock in phase with any timer
/// inside the engine. One class only: the two-class mix's latencies are
/// bimodal (≈4 ms SISO, ≈12 ms 2×2), so its median would jump between
/// the modes from run to run.
fn unloaded(seed: u64, server: &EngineServer, first: usize, n: usize) -> LoadOutcome {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ UNLOADED_TAG ^ first as u64);
    let sessions = (first..first + n)
        .flat_map(|k| {
            std::thread::sleep(UNLOADED_PAUSE.mul_f64(rng.gen()));
            let cfg = loadgen::fleet_session(seed ^ UNLOADED_TAG, 2 * k);
            serve_one(server, &cfg).sessions
        })
        .collect();
    LoadOutcome {
        sessions,
        late: Vec::new(),
        backlog_abort: false,
        max_in_flight: 1,
    }
}

/// One sampling window of a saturation phase.
struct Window {
    secs: f64,
    frames: f64,
    bits: f64,
    cpu_s: f64,
}

/// Splits a saturation phase at its CPU samples, dropping the first
/// window (connections ramping up) and any after issuing stopped.
fn windows(out: &LoadOutcome, samples: &[(Instant, f64)], until: Instant) -> Vec<Window> {
    samples
        .windows(2)
        .skip(1)
        .filter(|w| w[1].0 <= until)
        .map(|w| {
            let done: Vec<_> = out
                .sessions
                .iter()
                .filter(|s| s.ok() && s.done.is_some_and(|d| d >= w[0].0 && d < w[1].0))
                .collect();
            let (frames, bits) = done.iter().fold((0.0, 0.0), |(f, b), s| {
                let n = f64::from(s.cfg.n_frames);
                (f + n, b + n * f64::from(s.cfg.payload_len) * 8.0)
            });
            Window {
                secs: w[1].0.saturating_duration_since(w[0].0).as_secs_f64(),
                frames,
                bits,
                cpu_s: w[1].1 - w[0].1,
            }
        })
        .collect()
}

/// The fleet's untraced measurement. Throughput and CPU cost are the
/// engine's at saturation (an open loop below capacity delivers what it
/// is offered), as medians over one-second windows. Latency is taken
/// without queueing, one session at a time: closed-loop latency is fixed
/// by the throughput (Little's law). The two alternate in [`BLOCKS`], so
/// a slow spell on the host moves one block rather than a whole figure.
/// The reference-rate open loop runs in the traced run.
fn fleet_capacity(seed: u64, seconds: f64, server: &EngineServer, report: &mut Report) {
    let block_s = (seconds * SATURATION_SHARE / BLOCKS as f64).max(3.0);
    let mut first = 0;
    let mut w = Vec::new();
    let mut one_lat = Vec::new();
    for _ in 0..BLOCKS {
        let until = Instant::now() + Duration::from_secs_f64(block_s);
        let (sat, samples) = saturate(seed, server, first, until);
        check(&sat, report, "saturation");
        w.extend(windows(&sat, &samples, until));
        first += sat.sessions.len();
        let one = unloaded(seed, server, first, UNLOADED_SESSIONS / BLOCKS);
        check(&one, report, "unloaded");
        let lat = latencies_ms(&one);
        println!(
            "block: {} sessions at saturation, unloaded p50 {:.2} ms",
            sat.sessions.len(),
            median(&lat)
        );
        one_lat.extend(lat);
        first += one.sessions.len();
    }
    let med = |f: &dyn Fn(&Window) -> f64| median(&w.iter().map(f).collect::<Vec<_>>());
    println!("saturation: {} windows", w.len());
    report.put("frames_per_s", med(&|w| w.frames / w.secs), "1/s");
    report.put("goodput_mbps", med(&|w| w.bits / w.secs / 1e6), "Mb/s");
    report.put("cpu_ms_per_frame", med(&|w| w.cpu_s * 1e3 / w.frames), "ms");
    report.put_percentile("latency_p50_ms", &one_lat, 50.0, "ms");
    report.put_percentile("latency_p90_ms", &one_lat, 90.0, "ms");
}

/// The ladder: fixed multiples of the reference rate until one fails,
/// then one bisection step between the last passing and the first failing
/// rate. The result interpolates where p99 crosses the limit between the
/// last passing step (the reference rate if none passed) and the first
/// failing one; the last passing rate when the failing p99 is unbounded
/// (the backlog grew); the top rate when every step passes.
fn ladder(
    seed: u64,
    server: &EngineServer,
    reference: StepResult,
    first: usize,
    report: &mut Report,
) -> f64 {
    let mut pass = reference;
    let mut fail = None;
    let mut index = first;
    for (i, mult) in LADDER.iter().enumerate() {
        let step = ladder_step(seed, server, i + 1, FLEET_REF_RATE * mult, index, report);
        index += STEP_SESSIONS;
        if !step.pass {
            fail = Some(step);
            break;
        }
        pass = step;
    }
    let Some(mut fail) = fail else {
        return pass.rate;
    };
    let mid_rate = (pass.rate + fail.rate) / 2.0;
    let mid = ladder_step(seed, server, LADDER.len() + 1, mid_rate, index, report);
    if mid.pass {
        pass = mid;
    } else {
        fail = mid;
    }
    if !fail.p99.is_finite() {
        return pass.rate;
    }
    let t = ((LATENCY_LIMIT_MS - pass.p99) / (fail.p99 - pass.p99)).clamp(0.0, 1.0);
    pass.rate + (fail.rate - pass.rate) * t
}

/// Engine counters at one instant.
#[derive(Clone, Copy, Default)]
struct EngineSnap {
    batches: u64,
    batched: u64,
    shed: u64,
    protocol_errors: u64,
    failed: u64,
}

impl EngineSnap {
    fn of(s: &EngineStats) -> Self {
        Self {
            batches: s.decode_batches(),
            batched: s.decode_batched_frames(),
            shed: s.shed_total(),
            protocol_errors: s.protocol_errors(),
            failed: s.sessions_failed(),
        }
    }
}

/// Which served workload.
#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    /// Open-loop fleet.
    Fleet,
    /// Closed-loop bulk.
    Bulk,
}

/// Runs a served workload for `seconds`, traced or not, into `report`.
pub fn run(kind: Kind, seed: u64, seconds: f64, threads: usize, traced: bool, report: &mut Report) {
    let warm = match kind {
        Kind::Fleet => loadgen::fleet_session(seed ^ 0x3A73, 0),
        Kind::Bulk => bulk_session(seed ^ 0x3A73, 0),
    };
    let (setup_s, server) = setup(&warm, report);
    report.put("setup_s", setup_s, "s");
    if kind == Kind::Fleet && !traced {
        fleet_capacity(seed, seconds, &server, report);
        report.put("peak_rss_mb", sys::peak_rss_mb(), "MB");
        return;
    }
    let before = EngineSnap::of(&server.stats());
    let mut active_max = 0u64;

    let cpu0 = sys::cpu_seconds();
    let out = match kind {
        Kind::Fleet => {
            let n = STEP_SESSIONS.max((FLEET_REF_RATE * seconds * 0.25) as usize);
            let plans = fleet_schedule(seed, 0, FLEET_REF_RATE, 0, n);
            open_step(&server, &plans, usize::MAX, &mut active_max)
        }
        Kind::Bulk => {
            let stats = server.stats();
            let session = |k: usize| bulk_session(seed, k);
            let share = if traced { 0.45 } else { 1.0 };
            loadgen::run(
                server.local_addr(),
                Load::Closed {
                    conns: BULK_CONNS,
                    session: &session,
                    until: Instant::now() + Duration::from_secs_f64(seconds * share),
                },
                || active_max = active_max.max(stats.active_sessions()),
            )
        }
    };
    let cpu_s = sys::cpu_seconds() - cpu0;
    check(&out, report, "reference load");
    let after = EngineSnap::of(&server.stats());

    let wall = span_of(&out);
    let (frames, bits) = ok_frames(&out);
    let lat = latencies_ms(&out);
    let first_ms: Vec<f64> = out
        .sessions
        .iter()
        .filter_map(|s| {
            s.first_frame
                .map(|f| f.saturating_duration_since(s.sent).as_secs_f64() * 1e3)
        })
        .collect();
    let late_ms: Vec<f64> = out.late.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    let sessions_ok = out.sessions.iter().filter(|s| s.ok()).count();
    let error_rate = 1.0 - sessions_ok as f64 / out.sessions.len() as f64;
    println!(
        "sessions {} ok {sessions_ok} error_rate {error_rate:.4}  span {wall:.2} s",
        out.sessions.len()
    );

    if !traced {
        // Only the bulk workload gets here untraced.
        report.put_percentile("latency_p50_ms", &lat, 50.0, "ms");
        report.put_percentile("latency_p90_ms", &lat, 90.0, "ms");
        report.put_percentile("first_frame_p50_ms", &first_ms, 50.0, "ms");
        report.put("error_rate", error_rate, "ratio");
        report.put("frames_per_s", frames as f64 / wall, "1/s");
        report.put("goodput_mbps", bits as f64 / wall / 1e6, "Mb/s");
        report.put("cpu_ms_per_frame", cpu_s * 1e3 / frames as f64, "ms");
        report.put("peak_rss_mb", sys::peak_rss_mb(), "MB");
        return;
    }

    // Traced: engine counters over the served load, client spans, then
    // the in-process replay of the served sessions.
    let d = |a: u64, b: u64| (a - b) as f64;
    report.put(
        "engine.decode_batches",
        d(after.batches, before.batches),
        "count",
    );
    report.put(
        "engine.mean_batch_frames",
        d(after.batched, before.batched) / d(after.batches, before.batches).max(1.0),
        "frames",
    );
    report.put("engine.active_sessions_max", active_max as f64, "count");
    report.put("engine.shed_total", d(after.shed, before.shed), "count");
    report.put(
        "engine.protocol_errors",
        d(after.protocol_errors, before.protocol_errors),
        "count",
    );
    report.put(
        "engine.sessions_failed",
        d(after.failed, before.failed),
        "count",
    );

    let epoch = Instant::now();
    let mut spans = Spans::new(epoch);
    for s in &out.sessions {
        spans.record(Layer::Connect, s.sent - s.connect, s.sent);
        if let (Some(first), Some(done)) = (s.first_frame, s.done) {
            spans.record(Layer::FirstFrame, s.sent, first);
            spans.record(Layer::Stream, first, done);
        }
    }
    // Reused connections record no connect time.
    let connect_ms: Vec<f64> = out
        .sessions
        .iter()
        .filter(|s| !s.connect.is_zero())
        .map(|s| s.connect.as_secs_f64() * 1e3)
        .collect();
    report.put(
        "client.connect_ms",
        connect_ms.iter().sum::<f64>() / connect_ms.len() as f64,
        "ms",
    );
    match kind {
        Kind::Fleet => {
            report.put_percentile("latency_p99_ms", &lat, 99.0, "ms");
            report.put_percentile("loadgen.late_ms_p99", &late_ms, 99.0, "ms");
            let reference = StepResult {
                rate: FLEET_REF_RATE,
                p99: percentile(&lat, 99.0).map_or(f64::INFINITY, |q| q.value),
                pass: out.sessions.iter().all(|s| s.ok()),
            };
            let max = ladder(seed, &server, reference, out.sessions.len(), report);
            report.put("ladder.max_sessions_per_s", max, "1/s");
        }
        Kind::Bulk => {
            report.put_na(
                "latency_p99_ms",
                "ms",
                "closed loop: too few sessions for p99",
            );
            report.put_na("loadgen.late_ms_p99", "ms", "closed loop has no schedule");
            report.put_na(
                "ladder.max_sessions_per_s",
                "1/s",
                "closed loop has no ladder",
            );
        }
    }
    report.put_percentile("first_frame_p50_ms", &first_ms, 50.0, "ms");

    drop(server);

    let served: Vec<usize> = (0..out.sessions.len())
        .filter(|&i| out.sessions[i].ok())
        .collect();
    let budget = Duration::from_secs_f64(seconds * 0.35);
    let replay = replay_all(&out, &served, threads, budget, &mut spans, report);

    let frames = replay.frames as f64;
    let us = |l: Layer| spans.total_ns(l) / frames / 1e3;
    report.put("tx.transmit_us", us(Layer::Tx), "us");
    report.put("channel.apply_us", us(Layer::Channel), "us");
    report.put("rx.receive_batch_us", us(Layer::RxBatch), "us");
    for stage in RxStage::ALL {
        let v = replay.profile.ns[stage as usize] as f64 / replay.profiled_frames as f64 / 1e3;
        report.put(&format!("rx.stage.{}_us", stage.name()), v, "us");
    }
    report.put("rx.ok_ratio", replay.frames_ok as f64 / frames, "ratio");
    report.put("link.other_us", us(Layer::Framing), "us");
    report.put_na(
        "sweep.busy_ratio",
        "ratio",
        "no sweep pool on the served path",
    );
    let sessions = replay.sessions as f64;
    report.put(
        "session.psdus_us",
        spans.total_ns(Layer::Psdus) / sessions / 1e3,
        "us",
    );
    report.put(
        "session.score_us",
        spans.total_ns(Layer::SessionScore) / sessions / 1e3,
        "us",
    );
    report.put(
        "wire.encode_ns",
        spans.total_ns(Layer::WireEncode) / frames,
        "ns",
    );
    report.put(
        "wire.decode_ns",
        spans.total_ns(Layer::WireDecode) / frames,
        "ns",
    );
    report.put(
        "wire.bytes_per_frame",
        replay.wire_bytes as f64 / frames,
        "B",
    );
    let wait: Vec<f64> = replay.compute_ms.iter().map(|&(i, c)| lat[i] - c).collect();
    report.put_percentile("engine.wait_ms_p50", &wait, 50.0, "ms");
    report.put_percentile("engine.wait_ms_p99", &wait, 99.0, "ms");
    report.put_na(
        "trace.reconcile_ratio",
        "ratio",
        "served time is not in-process compute: engine.wait_ms_* is the residual",
    );
    report.put(
        "trace.overhead_ratio",
        replay.traced_wall_ms / replay.untraced_wall_ms,
        "ratio",
    );
    report.put("peak_rss_mb", sys::peak_rss_mb(), "MB");
    report.spans = Some(spans);
}

/// What the replay passes measured.
struct ReplayOutcome {
    sessions: usize,
    frames: u64,
    frames_ok: u64,
    wire_bytes: u64,
    /// `(served session index, untraced compute wall ms)`.
    compute_ms: Vec<(usize, f64)>,
    untraced_wall_ms: f64,
    traced_wall_ms: f64,
    profile: StageProfile,
    profiled_frames: u64,
}

/// Replays served sessions, in order, on `threads` workers until
/// `budget` is spent: each session untraced and then traced, back to back
/// so both see the same host conditions. A profiled pass then splits RX
/// time by stage over the first sessions. Every replay must reproduce
/// the served stream's digest.
fn replay_all(
    out: &LoadOutcome,
    served: &[usize],
    threads: usize,
    budget: Duration,
    spans: &mut Spans,
    report: &mut Report,
) -> ReplayOutcome {
    let cfg = |i: usize| &out.sessions[i].cfg;
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::new());
    let epoch = Instant::now();
    std::thread::scope(|sc| {
        for _ in 0..threads {
            sc.spawn(|| {
                let mut w = Worker::default();
                while epoch.elapsed() < budget {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&i) = served.get(k) else { break };
                    let t = Instant::now();
                    w.replay(cfg(i), &mut NoTrace, None);
                    let plain_ms = t.elapsed().as_secs_f64() * 1e3;
                    let mut s = Spans::new(epoch);
                    let t = Instant::now();
                    let r = w.replay(cfg(i), &mut s, None);
                    let traced_ms = t.elapsed().as_secs_f64() * 1e3;
                    results.lock().unwrap().push((i, plain_ms, traced_ms, r, s));
                }
            });
        }
    });
    let mut results = results.into_inner().unwrap();
    results.sort_by_key(|r| r.0);
    let mut outcome = ReplayOutcome {
        sessions: results.len(),
        frames: 0,
        frames_ok: 0,
        wire_bytes: 0,
        compute_ms: Vec::new(),
        untraced_wall_ms: 0.0,
        traced_wall_ms: 0.0,
        profile: StageProfile::default(),
        profiled_frames: 0,
    };
    for (i, plain_ms, traced_ms, r, s) in results {
        let served = &out.sessions[i];
        if r.digest != served.digest || r.frames_ok != served.frames_ok {
            report.fail(format!(
                "session {i}: in-process replay differs from the served stream"
            ));
        }
        outcome.frames += u64::from(served.cfg.n_frames);
        outcome.frames_ok += u64::from(r.frames_ok);
        outcome.wire_bytes += r.wire_bytes;
        outcome.untraced_wall_ms += plain_ms;
        outcome.traced_wall_ms += traced_ms;
        outcome.compute_ms.push((i, plain_ms));
        spans.absorb(s);
    }

    // Profiled pass: the stage split over the first sessions (≥ 64 frames).
    let mut w = Worker::default();
    for &i in served {
        if outcome.profiled_frames >= 64 {
            break;
        }
        w.replay(cfg(i), &mut NoTrace, Some(&mut outcome.profile));
        outcome.profiled_frames += u64::from(cfg(i).n_frames);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{SessionRecord, FNV_OFFSET};

    fn record(frames_ok: u32, done: bool, error: Option<&str>) -> SessionRecord {
        let now = Instant::now();
        SessionRecord {
            cfg: loadgen::fleet_session(1, 0),
            due: now,
            sent: now,
            connect: Duration::ZERO,
            first_frame: Some(now),
            done: done.then_some(now),
            frames_ok,
            corrupted: 0,
            digest: FNV_OFFSET,
            error: error.map(String::from),
            skipped: false,
        }
    }

    fn outcome(sessions: Vec<SessionRecord>) -> LoadOutcome {
        LoadOutcome {
            sessions,
            late: Vec::new(),
            backlog_abort: false,
            max_in_flight: 1,
        }
    }

    #[test]
    fn complete_sessions_pass_the_gate() {
        let mut report = Report::default();
        check(&outcome(vec![record(6, true, None)]), &mut report, "t");
        assert!(report.correct());
        assert_eq!((report.attempted, report.failed), (1, 0));
    }

    #[test]
    fn errored_short_or_unfinished_sessions_fail_the_run() {
        for bad in [
            record(0, false, Some("give-up-overload: refused")),
            record(4, true, None),
            record(6, false, None),
        ] {
            let mut report = Report::default();
            check(&outcome(vec![record(6, true, None), bad]), &mut report, "t");
            assert!(!report.correct());
            assert_eq!((report.attempted, report.failed), (2, 1));
        }
    }
}
