//! In-process replay of served sessions, layer by layer.
//!
//! Mirrors the engine's direct executor (`engine/compute.rs`) with public
//! calls only: `session_psdus` → per frame `Transmitter::transmit`, burst
//! framing, `ChannelSim::apply` (AWGN, seeded as the engine seeds it) →
//! `Receiver::receive_batch` in groups of 8 → `wire::encode`/`decode` of
//! each `FrameDecoded` → `score_decoded`. The replay's delivered stream
//! must hash to exactly what the engine served, which proves the mirror
//! (and therefore the per-layer split) describes the served computation.

use crate::loadgen::{digest_frame, FNV_OFFSET};
use crate::trace::{Layer, Tracer};
use mimonet::blocks::{frame_burst_len, LEAD_IN, LEAD_OUT};
use mimonet::config::RxConfig;
use mimonet::telemetry::StageProfile;
use mimonet::tx::Transmitter;
use mimonet::{Receiver, RxBatch, RxFrame, RxWorkspace};
use mimonet_channel::{ChannelConfig, ChannelSim};
use mimonet_dsp::complex::Complex64;
use mimonet_io::session::{score_decoded, session_psdus, validate_config};
use mimonet_io::wire::{self, DecodedFrame, SessionConfig, WireMsg};

/// Frames per `receive_batch` call (the engine's `BATCH_MAX`).
pub const BATCH: usize = 8;

/// What one replayed session produced.
#[derive(Clone, Copy, Debug, Default)]
pub struct Replayed {
    /// Digest of the delivered `(index, snr, psdu)` stream.
    pub digest: u64,
    /// Frames that decoded.
    pub frames_ok: u32,
    /// Encoded `FrameDecoded` bytes.
    pub wire_bytes: u64,
}

/// Per-thread decode state, reused across sessions like a compute worker's.
#[derive(Default)]
pub struct Worker {
    rx: Vec<(usize, Receiver, RxWorkspace, RxBatch)>,
}

impl Worker {
    fn receiver(&mut self, n_streams: usize) -> &mut (usize, Receiver, RxWorkspace, RxBatch) {
        let i = match self.rx.iter().position(|r| r.0 == n_streams) {
            Some(i) => i,
            None => {
                self.rx.push((
                    n_streams,
                    Receiver::new(RxConfig::new(n_streams)),
                    RxWorkspace::new(),
                    RxBatch::new(),
                ));
                self.rx.len() - 1
            }
        };
        &mut self.rx[i]
    }

    /// Replays one session. With `profile`, every capture is also decoded
    /// once more through `receive_profiled_into` (outside any span) to
    /// split RX time by stage; its outcome must match the batch decode.
    pub fn replay<T: Tracer>(
        &mut self,
        cfg: &SessionConfig,
        t: &mut T,
        mut profile: Option<&mut StageProfile>,
    ) -> Replayed {
        let tx_cfg = validate_config(cfg).expect("benchmark sessions are valid");
        let n_streams = tx_cfg.mcs.n_streams;
        let burst_len = frame_burst_len(&tx_cfg, cfg.payload_len as usize);
        let psdus = t.span(Layer::Psdus, || session_psdus(cfg));
        let tx = Transmitter::new(tx_cfg);
        let mut sim = ChannelSim::new(
            ChannelConfig::awgn(n_streams, n_streams, cfg.snr_db),
            cfg.seed,
        );
        let (_, rx, ws, batch) = self.receiver(n_streams);
        let mut decoded: Vec<DecodedFrame> = Vec::with_capacity(psdus.len());
        let mut captures: Vec<Vec<Vec<Complex64>>> = Vec::with_capacity(BATCH);
        for chunk in psdus.chunks(BATCH) {
            captures.clear();
            for psdu in chunk {
                let streams = t.span(Layer::Tx, || tx.transmit(psdu).expect("valid PSDU"));
                let burst: Vec<Vec<Complex64>> = t.span(Layer::Framing, || {
                    streams
                        .into_iter()
                        .map(|s| {
                            let mut b = Vec::with_capacity(burst_len);
                            b.resize(LEAD_IN, Complex64::ZERO);
                            b.extend_from_slice(&s);
                            b.resize(b.len() + LEAD_OUT, Complex64::ZERO);
                            b
                        })
                        .collect()
                });
                let (out, _) = t.span(Layer::Channel, || sim.apply(&burst));
                let clipped = t.span(Layer::Framing, || {
                    out.into_iter()
                        .map(|mut s| {
                            s.truncate(burst_len);
                            s
                        })
                        .collect()
                });
                captures.push(clipped);
            }
            t.span(Layer::RxBatch, || rx.receive_batch(&captures, ws, batch));
            if let Some(p) = profile.as_deref_mut() {
                let mut frame = RxFrame::default();
                for (i, cap) in captures.iter().enumerate() {
                    let views: Vec<&[Complex64]> = cap.iter().map(Vec::as_slice).collect();
                    let res = rx.receive_profiled_into(&views, ws, p, &mut frame);
                    let agree = match (res, batch.result(i)) {
                        (Ok(()), Ok(b)) => b.psdu == frame.psdu && b.snr_db == frame.snr_db,
                        (Err(a), Err(b)) => &a == b,
                        _ => false,
                    };
                    assert!(agree, "profiled decode disagrees with receive_batch");
                }
            }
            for (_, f) in batch.ok_frames() {
                decoded.push(DecodedFrame {
                    index: decoded.len() as u32,
                    snr_db: f.snr_db,
                    psdu: f.psdu.clone(),
                    trace: 0,
                });
            }
        }
        let mut out = Replayed {
            digest: FNV_OFFSET,
            ..Replayed::default()
        };
        for d in &decoded {
            let msg = WireMsg::FrameDecoded(d.clone());
            let bytes = t.span(Layer::WireEncode, || wire::encode(&msg));
            out.wire_bytes += bytes.len() as u64;
            let back = t.span(Layer::WireDecode, || wire::decode(&bytes));
            match back {
                Ok((WireMsg::FrameDecoded(f), _)) => {
                    out.digest = digest_frame(out.digest, f.index, f.snr_db, &f.psdu)
                }
                other => panic!("FrameDecoded did not round-trip: {other:?}"),
            }
        }
        let stats = t.span(Layer::SessionScore, || score_decoded(&psdus, &decoded));
        out.frames_ok = stats.per.ok() as u32;
        out
    }
}
