//! `sweep_tgn`: the paper's own evaluation — a fixed-trial BER/PER sweep
//! of 2×2 spatial multiplexing (MCS 9/12/15) and one SISO MCS over TGn-D
//! and flat Rayleigh, one mid-waterfall and one high SNR per MCS, run by
//! `mimonet::sweep` with one `LinkSim` per shard (`link_shard`).
//!
//! The untraced run repeats the sweep in rounds (round `r` seeded from
//! `(seed, r)`) until the time is up. The traced run replays the same
//! rounds through [`MirrorLink`], a span-instrumented copy of `LinkSim`
//! built from public calls, and requires its statistics to equal
//! `LinkSim`'s bit for bit.

use crate::report::Report;
use crate::stats::median;
use crate::sys;
use crate::trace::{Layer, NoTrace, Spans, Tracer};
use mimonet::config::TxConfig;
use mimonet::sweep::{link_shard, shard_seed, ShardCtx};
use mimonet::telemetry::{RxStage, StageProfile};
use mimonet::tx::Transmitter;
use mimonet::{LinkConfig, LinkStats, Receiver, RxBatch, RxError, RxFrame, RxWorkspace, SweepSpec};
use mimonet_channel::{presets, ChannelSim, ChannelTruth};
use mimonet_dsp::complex::Complex64;
use mimonet_dsp::seedtree::{self, ROUND_TAG};
use mimonet_frame::psdu::Mpdu;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// MAC payload per frame, octets.
pub const PAYLOAD: usize = 1000;
/// Trials per shard — one `LinkSim` run of this many frames.
pub const SHARD: usize = 8;
/// Trials per point per round.
pub const TRIALS: usize = 16;

/// `(mcs, antennas, mid-waterfall SNR, high SNR)` per MCS.
const MCS_GRID: [(u8, usize, f64, f64); 4] = [
    (9, 2, 9.0, 25.0),
    (12, 2, 20.0, 35.0),
    (15, 2, 27.0, 40.0),
    (3, 1, 14.0, 30.0),
];

/// Channel presets of the grid.
const CHANNELS: [&str; 2] = ["tgn_d", "rayleigh"];

/// How far the traced layer sum may stray from `LinkSim`'s shard time.
pub const RECONCILE_TOLERANCE: f64 = 0.05;

/// Master seed of the pinned reference sweep.
const REF_SEED: u64 = 0x5EED_2014;
/// Trials per point of the pinned reference sweep.
const REF_TRIALS: usize = 8;

/// The reference sweep's per-point [`Counts`], pinned. They change only
/// when the PHY's random stream or decoding changes on purpose; a
/// mismatch prints the new counts to re-pin from.
const PINNED: [Counts; 16] = [
    [1, 0, 0, 7, 65408, 7576, 131456, 18278],
    [8, 0, 0, 0, 65408, 0, 131456, 282],
    [4, 0, 0, 4, 65408, 9506, 131456, 14075],
    [8, 0, 0, 0, 65408, 0, 131456, 570],
    [3, 0, 0, 5, 65408, 1153, 89856, 3571],
    [8, 0, 0, 0, 65408, 0, 89856, 91],
    [6, 0, 0, 2, 65408, 4067, 89856, 2745],
    [8, 0, 0, 0, 65408, 0, 89856, 0],
    [2, 0, 0, 6, 65408, 4301, 79872, 3173],
    [8, 0, 0, 0, 65408, 0, 79872, 207],
    [2, 0, 0, 6, 65408, 14607, 79872, 6038],
    [8, 0, 0, 0, 65408, 0, 79872, 42],
    [6, 0, 0, 2, 65408, 4179, 131456, 11082],
    [8, 0, 0, 0, 65408, 0, 131456, 484],
    [3, 0, 0, 5, 65408, 6449, 131456, 14698],
    [8, 0, 0, 0, 65408, 0, 131456, 6],
];

/// The sweep grid, MCS-major then channel then SNR.
pub fn points() -> Vec<LinkConfig> {
    let mut out = Vec::new();
    for (mcs, n, mid, high) in MCS_GRID {
        for ch in CHANNELS {
            for snr in [mid, high] {
                let chan = presets::channel(ch, n, n, snr).expect("registered preset");
                out.push(LinkConfig::new(mcs, PAYLOAD, chan));
            }
        }
    }
    out
}

/// Human label of point `i`.
fn label(cfg: &LinkConfig) -> String {
    format!(
        "mcs{} {}x{} {:?} {} dB",
        cfg.mcs, cfg.channel.n_tx, cfg.channel.n_rx, cfg.channel.fading, cfg.channel.snr_db
    )
}

/// The counts the correctness gate compares: PER outcomes
/// `[ok, sync, header, fcs]`, then payload `[bits, errors]`, then coded
/// `[bits, errors]`.
pub type Counts = [u64; 8];

/// A point's gate counts.
pub fn counts(s: &LinkStats) -> Counts {
    [
        s.per.ok(),
        s.per.sync_failures(),
        s.per.header_failures(),
        s.per.fcs_failures(),
        s.payload_ber.bits(),
        s.payload_ber.errors(),
        s.coded_ber.bits(),
        s.coded_ber.errors(),
    ]
}

fn round_seed(seed: u64, round: usize) -> u64 {
    seedtree::trial_seed(seed, ROUND_TAG, round)
}

fn spec(seed: u64, trials: usize, threads: usize) -> SweepSpec<LinkConfig> {
    SweepSpec::new("sweep_tgn", points(), trials)
        .seed(seed)
        .threads(threads)
        .shard_size(SHARD)
}

/// Runs the pinned reference sweep and compares it with [`PINNED`].
fn reference_gate(threads: usize, report: &mut Report) {
    let res = mimonet::run_link(&spec(REF_SEED, REF_TRIALS, threads));
    for (i, (cfg, s)) in points().iter().zip(&res.stats).enumerate() {
        if counts(s) != PINNED[i] {
            report.fail(format!(
                "reference sweep point {i} ({}): counts {:?}, pinned {:?}",
                label(cfg),
                counts(s),
                PINNED[i]
            ));
        }
    }
}

/// Set-up: building one simulator per point and warming the receive
/// workspaces of every sweep thread (a one-trial sweep), median of 7.
fn setup(threads: usize) -> f64 {
    let times: Vec<f64> = (0..7)
        .map(|i| {
            let t0 = Instant::now();
            mimonet::run_link(&spec(REF_SEED ^ (i + 1), 1, threads).shard_size(1));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// One executed shard, recorded for the post-run determinism recheck.
struct ShardRecord {
    round: usize,
    point: usize,
    shard: usize,
    trials: usize,
    counts: Counts,
}

/// An untraced round's outcome.
struct Round {
    stats: Vec<LinkStats>,
    wall: Duration,
    cpu_s: f64,
}

impl Round {
    fn frames(&self) -> f64 {
        (self.stats.len() * TRIALS) as f64
    }

    fn ok(&self) -> f64 {
        self.stats.iter().map(|s| s.per.ok()).sum::<u64>() as f64
    }
}

/// Rounds run through `link_shard`.
#[derive(Default)]
struct Untraced {
    rounds: Vec<Round>,
    shard_ms: Vec<f64>,
    /// Time spent inside the sweep's shard closure.
    shard_busy: Duration,
    shards: Vec<ShardRecord>,
}

impl Untraced {
    /// Runs the next round through `link_shard`, each shard also through
    /// the mirror when `probe` is given.
    fn round(&mut self, seed: u64, threads: usize, probe: Option<&Probe>) {
        let r = self.rounds.len();
        let records = Mutex::new(Vec::new());
        let cpu0 = sys::cpu_seconds();
        let res = spec(round_seed(seed, r), TRIALS, threads).run(|cfg, ctx, stats| {
            let busy = Instant::now();
            // Half the shards run the mirror first, so neither side
            // always finds the caches warmed by the other.
            let early = probe
                .filter(|_| (ctx.point_index + ctx.shard_index) % 2 == 1)
                .map(|p| p.mirror(cfg, ctx));
            let t = Instant::now();
            link_shard(cfg.clone(), ctx, stats);
            let dt = t.elapsed();
            if let Some(p) = probe {
                let m = early.unwrap_or_else(|| p.mirror(cfg, ctx));
                p.record(dt, m, stats);
            }
            records.lock().unwrap().push((
                dt,
                busy.elapsed(),
                ShardRecord {
                    round: r,
                    point: ctx.point_index,
                    shard: ctx.shard_index,
                    trials: ctx.trials,
                    counts: counts(stats),
                },
            ));
        });
        let cpu_s = sys::cpu_seconds() - cpu0;
        for (dt, busy, rec) in records.into_inner().unwrap() {
            self.shard_busy += busy;
            self.shard_ms.push(dt.as_secs_f64() * 1e3);
            self.shards.push(rec);
        }
        self.rounds.push(Round {
            stats: res.stats,
            wall: res.wall,
            cpu_s,
        });
    }
}

/// One shard run through [`MirrorLink`] with spans and without.
struct MirrorRun {
    traced: Duration,
    plain: Duration,
    spans: Spans,
    stats: [LinkStats; 2],
}

/// The traced run's shard-by-shard comparison of the mirror with
/// `LinkSim`: both run the same shard back to back on the same thread, so
/// they see the same host conditions.
struct Probe {
    epoch: Instant,
    spans: Mutex<Spans>,
    /// Per shard: `[LinkSim, traced mirror, untraced mirror, span sum]`, ns.
    times: Mutex<Vec<[f64; 4]>>,
    /// Shards whose mirror statistics differ from `LinkSim`'s.
    mismatches: Mutex<Vec<String>>,
}

impl Probe {
    fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Mutex::new(Spans::new(epoch)),
            times: Mutex::new(Vec::new()),
            mismatches: Mutex::new(Vec::new()),
        }
    }

    /// Runs the shard through the mirror traced and untraced, in an order
    /// that alternates from shard to shard.
    fn mirror(&self, cfg: &LinkConfig, ctx: &ShardCtx) -> MirrorRun {
        let mut none = StageProfile::default();
        let mut spans = Spans::new(self.epoch);
        let mut stats = [LinkStats::default(), LinkStats::default()];
        let [st, sp] = &mut stats;
        let mut traced = || {
            let t = Instant::now();
            mirror_shard(cfg, ctx, st, &mut spans, RxMode::Batch, &mut none);
            t.elapsed()
        };
        let mut none = StageProfile::default();
        let mut plain = || {
            let t = Instant::now();
            mirror_shard(cfg, ctx, sp, &mut NoTrace, RxMode::Batch, &mut none);
            t.elapsed()
        };
        let (traced, plain) = if ctx.shard_index.is_multiple_of(2) {
            let t = traced();
            (t, plain())
        } else {
            let p = plain();
            (traced(), p)
        };
        MirrorRun {
            traced,
            plain,
            spans,
            stats,
        }
    }

    /// Checks a mirror run against `LinkSim`'s statistics and keeps its
    /// times and spans.
    fn record(&self, linksim: Duration, m: MirrorRun, stats: &LinkStats) {
        let want = json(stats);
        if m.stats.iter().any(|s| json(s) != want) {
            self.mismatches
                .lock()
                .unwrap()
                .push(format!("{:?}", counts(stats)));
        }
        let span_sum: f64 = LINK_LAYERS.iter().map(|&l| m.spans.total_ns(l)).sum();
        self.times.lock().unwrap().push([
            linksim.as_nanos() as f64,
            m.traced.as_nanos() as f64,
            m.plain.as_nanos() as f64,
            span_sum,
        ]);
        self.spans.lock().unwrap().absorb(m.spans);
    }
}

/// The layers [`MirrorLink`] attributes its time to.
const LINK_LAYERS: [Layer; 6] = [
    Layer::Gen,
    Layer::Tx,
    Layer::Framing,
    Layer::Channel,
    Layer::RxBatch,
    Layer::Score,
];

/// Checks an untraced run: every point ran its trials with every frame
/// classified, merged statistics equal the fold of the recorded shards,
/// and a seeded sample of shards re-run serially reproduces exactly.
fn check_untraced(seed: u64, run: &Untraced, report: &mut Report) {
    let pts = points();
    for (r, round) in run.rounds.iter().enumerate() {
        for (p, s) in round.stats.iter().enumerate() {
            let mut folded = [0u64; 8];
            for rec in run.shards.iter().filter(|x| x.round == r && x.point == p) {
                for (f, c) in folded.iter_mut().zip(rec.counts) {
                    *f += c;
                }
            }
            if s.per.sent() != TRIALS as u64 || s.outcomes.total() != TRIALS as u64 {
                report.fail(format!(
                    "round {r} point {p}: {} frames, not {TRIALS}",
                    s.per.sent()
                ));
            }
            if folded != counts(s) {
                report.fail(format!(
                    "round {r} point {p}: merged counts differ from shards"
                ));
            }
        }
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC4EC);
    for _ in 0..4.min(run.shards.len()) {
        let rec = &run.shards[rng.gen_range(0..run.shards.len())];
        let ctx = ShardCtx {
            point_index: rec.point,
            shard_index: rec.shard,
            seed: shard_seed(round_seed(seed, rec.round), rec.point, rec.shard),
            trials: rec.trials,
            trial_offset: rec.shard * SHARD,
        };
        let mut stats = LinkStats::default();
        link_shard(pts[rec.point].clone(), &ctx, &mut stats);
        if counts(&stats) != rec.counts {
            report.fail(format!(
                "round {} point {} shard {}: serial re-run differs from the pooled run",
                rec.round, rec.point, rec.shard
            ));
        }
    }
}

/// How [`MirrorLink`] runs its receiver.
#[derive(Clone, Copy, PartialEq)]
enum RxMode {
    /// `Receiver::receive_batch`, as `LinkSim::run_batch` does.
    Batch,
    /// Per-frame `Receiver::receive_profiled_into`, for the stage split.
    Profiled,
}

/// `LinkSim`, rebuilt from public calls so each layer can be timed from
/// outside: same seeding, same RNG draws, same scoring.
struct MirrorLink {
    cfg: LinkConfig,
    tx: Transmitter,
    rx: Receiver,
    chan: ChannelSim,
    rng: ChaCha8Rng,
    seq: u16,
    batch: RxBatch,
}

impl MirrorLink {
    fn new(cfg: LinkConfig, seed: u64) -> Self {
        let tx = Transmitter::new(TxConfig::new(cfg.mcs).expect("valid MCS"));
        let rx = Receiver::new(cfg.rx.clone());
        let chan = ChannelSim::new(
            cfg.channel.clone(),
            seedtree::salted(seed, seedtree::CHANNEL_SALT),
        );
        Self {
            cfg,
            tx,
            rx,
            chan,
            rng: ChaCha8Rng::seed_from_u64(seed),
            seq: 0,
            batch: RxBatch::new(),
        }
    }

    fn run_batch<T: Tracer>(
        &mut self,
        n: usize,
        stats: &mut LinkStats,
        t: &mut T,
        mode: RxMode,
        profile: &mut StageProfile,
    ) {
        let mut psdus = Vec::with_capacity(n);
        let mut payloads = Vec::with_capacity(n);
        let mut captures = Vec::with_capacity(n);
        let mut truths = Vec::with_capacity(n);
        for _ in 0..n {
            let (psdu, payload) = t.span(Layer::Gen, || {
                let payload: Vec<u8> = (0..self.cfg.payload_len).map(|_| self.rng.gen()).collect();
                let mpdu = Mpdu::data([0x02; 6], [0x04; 6], self.seq, payload.clone());
                self.seq = (self.seq + 1) & 0x0FFF;
                (mpdu.to_psdu(), payload)
            });
            let mut streams = t.span(Layer::Tx, || self.tx.transmit(&psdu).expect("valid PSDU"));
            t.span(Layer::Framing, || {
                for s in &mut streams {
                    let mut padded = vec![Complex64::ZERO; self.cfg.lead_in];
                    padded.extend_from_slice(s);
                    padded.extend(std::iter::repeat_n(Complex64::ZERO, self.cfg.lead_out));
                    *s = padded;
                }
            });
            let (rx_streams, truth) = t.span(Layer::Channel, || self.chan.apply(&streams));
            psdus.push(psdu);
            payloads.push(payload);
            captures.push(rx_streams);
            truths.push(truth);
        }
        match mode {
            RxMode::Batch => {
                t.span(Layer::RxBatch, || {
                    mimonet::rx::with_workspace(|ws| {
                        self.rx.receive_batch(&captures, ws, &mut self.batch)
                    })
                });
                t.span(Layer::Score, || {
                    for i in 0..n {
                        let res = self.batch.result(i);
                        self.record_outcome(stats, &psdus[i], &payloads[i], &truths[i], res);
                    }
                });
            }
            RxMode::Profiled => {
                let mut ws = RxWorkspace::new();
                let mut frame = RxFrame::default();
                for i in 0..n {
                    let views: Vec<&[Complex64]> = captures[i].iter().map(Vec::as_slice).collect();
                    let res = self
                        .rx
                        .receive_profiled_into(&views, &mut ws, profile, &mut frame);
                    let res = res.as_ref().map(|()| &frame);
                    self.record_outcome(stats, &psdus[i], &payloads[i], &truths[i], res);
                }
            }
        }
    }

    /// `LinkSim::record_outcome`, verbatim in effect.
    fn record_outcome(
        &self,
        stats: &mut LinkStats,
        psdu: &[u8],
        payload: &[u8],
        truth: &ChannelTruth,
        res: Result<&RxFrame, &RxError>,
    ) {
        match res {
            Ok(frame) => {
                stats.snr_est_db.push(frame.snr_db);
                if let Some(e) = frame.evm_snr_db {
                    stats.evm_snr_db.push(e);
                }
                stats.cfo_error.push(frame.cfo - truth.cfo_norm);
                if truth.tdl.is_none() {
                    let intended = self.cfg.lead_in as f64 + truth.timing_offset + 160.0 + 32.0
                        - self.cfg.rx.timing_backoff as f64;
                    stats.timing_error.push(frame.timing as f64 - intended);
                }
                if frame.psdu.len() == psdu.len() {
                    stats.payload_ber.compare_bytes(psdu, &frame.psdu);
                    let reference = self.tx.coded_bits(psdu);
                    if frame.coded_hard.len() == reference.len() {
                        stats.coded_ber.compare_bits(&reference, &frame.coded_hard);
                    }
                    match Mpdu::from_psdu(&frame.psdu) {
                        Some(got) if got.payload == payload => {
                            stats.per.record_ok();
                            stats.outcomes.record_ok();
                        }
                        _ => {
                            stats.per.record_fcs_failure();
                            stats.outcomes.record_payload_fail();
                        }
                    }
                } else {
                    stats.per.record_header_failure();
                    stats.outcomes.header_fail += 1;
                }
            }
            Err(e) => {
                stats.outcomes.record_error(e);
                match e {
                    RxError::NoPacket
                    | RxError::SyncLost
                    | RxError::BufferTooShort
                    | RxError::Fec => stats.per.record_sync_failure(),
                    _ => stats.per.record_header_failure(),
                }
            }
        }
    }
}

/// `link_shard` over [`MirrorLink`].
fn mirror_shard<T: Tracer>(
    cfg: &LinkConfig,
    ctx: &ShardCtx,
    stats: &mut LinkStats,
    t: &mut T,
    mode: RxMode,
    profile: &mut StageProfile,
) {
    let mut sim = t.span(Layer::Gen, || MirrorLink::new(cfg.clone(), ctx.seed));
    let mut left = ctx.trials;
    while left > 0 {
        let take = left.min(SHARD);
        sim.run_batch(take, stats, t, mode, profile);
        left -= take;
    }
}

fn json(stats: &LinkStats) -> String {
    serde::json::to_string(&stats.serialize())
}

fn frames_of(rounds: usize) -> f64 {
    (rounds * points().len() * TRIALS) as f64
}

/// Runs `sweep_tgn` for `seconds`, traced or not, into `report`.
pub fn run(seed: u64, seconds: f64, threads: usize, traced: bool, report: &mut Report) {
    reference_gate(threads, report);
    let setup_s = setup(threads);
    report.put("setup_s", setup_s, "s");

    if !traced {
        let mut run = Untraced::default();
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < seconds {
            run.round(seed, threads, None);
        }
        check_untraced(seed, &run, report);
        // Rates are medians over rounds, so a transient stall elsewhere
        // on the host moves one round, not the result.
        let per_round =
            |f: &dyn Fn(&Round) -> f64| median(&run.rounds.iter().map(f).collect::<Vec<_>>());
        let wall = |r: &Round| r.wall.as_secs_f64();
        report.attempted = frames_of(run.rounds.len()) as u64;
        report.put("frames_per_s", per_round(&|r| r.frames() / wall(r)), "1/s");
        report.put(
            "goodput_mbps",
            per_round(&|r| r.ok() * PAYLOAD as f64 * 8.0 / wall(r) / 1e6),
            "Mb/s",
        );
        report.put_percentile("latency_p50_ms", &run.shard_ms, 50.0, "ms");
        report.put_percentile("latency_p90_ms", &run.shard_ms, 90.0, "ms");
        report.put(
            "cpu_ms_per_frame",
            per_round(&|r| r.cpu_s * 1e3 / r.frames()),
            "ms",
        );
        report.put("peak_rss_mb", sys::peak_rss_mb(), "MB");
        return;
    }

    // Traced: every shard runs through `link_shard` (A) and through the
    // mirror with spans (B) and without (B0), back to back on one thread;
    // then one round is decoded per frame with the stage profile (C).
    // B, B0 and C must reproduce A's statistics exactly.
    let mut a = Untraced::default();
    let probe = Probe::new(Instant::now());
    while probe.epoch.elapsed().as_secs_f64() < seconds * 0.85 {
        a.round(seed, threads, Some(&probe));
    }
    check_untraced(seed, &a, report);
    for m in probe.mismatches.lock().unwrap().iter() {
        report.fail(format!(
            "shard with counts {m}: mirror statistics differ from LinkSim"
        ));
    }
    let profile = Mutex::new(StageProfile::default());
    let c = spec(round_seed(seed, 0), TRIALS, threads).run(|cfg, ctx, stats| {
        let mut p = StageProfile::default();
        mirror_shard(cfg, ctx, stats, &mut NoTrace, RxMode::Profiled, &mut p);
        let mut all = profile.lock().unwrap();
        for i in 0..p.ns.len() {
            all.ns[i] += p.ns[i];
            all.calls[i] += p.calls[i];
        }
    });
    if c.stats
        .iter()
        .map(json)
        .ne(a.rounds[0].stats.iter().map(json))
    {
        report.fail("round 0: per-frame profiled decode statistics differ from LinkSim".into());
    }

    let spans = probe.spans.into_inner().unwrap();
    let times = probe.times.into_inner().unwrap();
    let frames = frames_of(a.rounds.len());
    let per_frame_us =
        |layers: &[Layer]| layers.iter().map(|&l| spans.total_ns(l)).sum::<f64>() / frames / 1e3;
    let a_wall: Duration = a.rounds.iter().map(|r| r.wall).sum();
    let a_ok: u64 = a
        .rounds
        .iter()
        .flat_map(|r| &r.stats)
        .map(|s| s.per.ok())
        .sum();
    let profile = profile.into_inner().unwrap();
    let c_frames = frames_of(1);

    report.attempted = (3.0 * frames + c_frames) as u64;
    report.put("tx.transmit_us", per_frame_us(&[Layer::Tx]), "us");
    report.put("channel.apply_us", per_frame_us(&[Layer::Channel]), "us");
    report.put("rx.receive_batch_us", per_frame_us(&[Layer::RxBatch]), "us");
    for stage in RxStage::ALL {
        let us = profile.ns[stage as usize] as f64 / c_frames / 1e3;
        report.put(&format!("rx.stage.{}_us", stage.name()), us, "us");
    }
    report.put("rx.ok_ratio", a_ok as f64 / frames, "ratio");
    report.put(
        "link.other_us",
        per_frame_us(&[Layer::Gen, Layer::Framing, Layer::Score]),
        "us",
    );
    report.put(
        "sweep.busy_ratio",
        a.shard_busy.as_secs_f64() / (a_wall.as_secs_f64() * threads as f64),
        "ratio",
    );
    // The mirror's layer spans must account for the time LinkSim spent on
    // the same shard: a mirror that leaves out LinkSim's work, or adds
    // work of its own, falls outside the tolerance. Medians over shards,
    // so a stall elsewhere on the host moves one shard, not the result.
    let shard_median =
        |f: &dyn Fn(&[f64; 4]) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    let reconcile = shard_median(&|t| t[3] / t[0]);
    if (1.0 - reconcile).abs() > RECONCILE_TOLERANCE {
        report.fail(format!(
            "layer spans sum to {reconcile:.3} of LinkSim's shard time, not 1 ± {RECONCILE_TOLERANCE}"
        ));
    }
    report.put("trace.reconcile_ratio", reconcile, "ratio");
    report.put(
        "trace.overhead_ratio",
        shard_median(&|t| t[1] / t[2]),
        "ratio",
    );
    report.put_percentile("latency_p99_ms", &a.shard_ms, 99.0, "ms");
    for (name, unit) in [
        ("session.psdus_us", "us"),
        ("session.score_us", "us"),
        ("wire.encode_ns", "ns"),
        ("wire.decode_ns", "ns"),
        ("wire.bytes_per_frame", "B"),
        ("client.connect_ms", "ms"),
        ("engine.wait_ms_p50", "ms"),
        ("engine.wait_ms_p99", "ms"),
        ("engine.mean_batch_frames", "frames"),
        ("engine.decode_batches", "count"),
        ("engine.active_sessions_max", "count"),
        ("engine.shed_total", "count"),
        ("engine.protocol_errors", "count"),
        ("engine.sessions_failed", "count"),
        ("first_frame_p50_ms", "ms"),
        ("ladder.max_sessions_per_s", "1/s"),
        ("loadgen.late_ms_p99", "ms"),
    ] {
        report.put_na(name, unit, "the sweep never touches io");
    }
    report.put("peak_rss_mb", sys::peak_rss_mb(), "MB");
    report.spans = Some(spans);
}
