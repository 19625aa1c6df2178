//! Composable end-to-end channel simulator — the workspace's stand-in for
//! the paper's USRP front ends and over-the-air propagation.
//!
//! [`ChannelSim`] applies, in physical order: MIMO fading → timing offset →
//! sampling-frequency offset → carrier frequency offset → IQ imbalance →
//! DC offset → AWGN → ADC quantization. Every knob defaults to "ideal", so
//! experiments enable exactly the impairments they study. The simulator is
//! seeded and returns the ground truth ([`ChannelTruth`]) for estimator-
//! accuracy experiments.

use crate::doppler::TimeVaryingChannel;
use crate::fading::{MimoChannelMatrix, TappedDelayLine};
use crate::impairments::{
    apply_cfo, apply_dc_offset, apply_iq_imbalance, apply_sfo, apply_timing_offset_into, quantize,
};
use crate::noise::{add_awgn, crandn, noise_power_for_snr_db};
use crate::tgn::TgnModel;
use mimonet_dsp::complex::Complex64;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;

/// Fading model selection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fading {
    /// Ideal identity channel (n_rx must equal n_tx).
    Ideal,
    /// Block flat Rayleigh, i.i.d. entries.
    RayleighFlat,
    /// Frequency-selective TGn-style model.
    Tgn(TgnModel),
    /// Time-varying flat Rayleigh (Jakes) with the given maximum Doppler
    /// in cycles/sample — the channel ages *within* the frame.
    Jakes {
        /// Maximum Doppler frequency, normalized to the sample rate.
        fd_norm: f64,
    },
}

/// Complete channel configuration. Start from `ChannelConfig::clean(...)`
/// and set fields.
#[derive(Clone, Debug)]
pub struct ChannelConfig {
    /// Transmit antennas.
    pub n_tx: usize,
    /// Receive antennas.
    pub n_rx: usize,
    /// SNR in dB (signal power is the *total* received signal power per RX
    /// antenna under unit-total-power transmission).
    pub snr_db: f64,
    /// Fading model.
    pub fading: Fading,
    /// Carrier frequency offset in subcarrier spacings (±0.5 is the
    /// acquisition range of CP-based estimators).
    pub cfo_norm: f64,
    /// Sampling frequency offset in ppm.
    pub sfo_ppm: f64,
    /// Timing offset in samples (≥ 0; the frame starts this late in the RX
    /// buffer).
    pub timing_offset: f64,
    /// IQ gain imbalance (linear fraction).
    pub iq_epsilon: f64,
    /// IQ phase skew in radians.
    pub iq_phi: f64,
    /// DC offset added at the receiver.
    pub dc_offset: Complex64,
    /// ADC bits (`None` = ideal converter).
    pub adc_bits: Option<u32>,
    /// ADC full scale.
    pub adc_full_scale: f64,
}

impl ChannelConfig {
    /// An ideal, noiseless, impairment-free wire between `n` antennas.
    pub fn clean(n_tx: usize, n_rx: usize) -> Self {
        Self {
            n_tx,
            n_rx,
            snr_db: f64::INFINITY,
            fading: Fading::Ideal,
            cfo_norm: 0.0,
            sfo_ppm: 0.0,
            timing_offset: 0.0,
            iq_epsilon: 0.0,
            iq_phi: 0.0,
            dc_offset: Complex64::ZERO,
            adc_bits: None,
            adc_full_scale: 4.0,
        }
    }

    /// AWGN-only channel at `snr_db`.
    pub fn awgn(n_tx: usize, n_rx: usize, snr_db: f64) -> Self {
        Self {
            snr_db,
            ..Self::clean(n_tx, n_rx)
        }
    }
}

/// Ground truth the simulator used for one frame, for estimator-accuracy
/// experiments.
#[derive(Clone, Debug)]
pub struct ChannelTruth {
    /// Flat channel matrix, when the fading model is flat.
    pub flat: Option<MimoChannelMatrix>,
    /// Tapped-delay-line realization, when frequency selective.
    pub tdl: Option<TappedDelayLine>,
    /// The CFO that was applied (subcarrier spacings).
    pub cfo_norm: f64,
    /// The timing offset that was applied (samples).
    pub timing_offset: f64,
    /// Noise power per RX antenna that was added.
    pub noise_power: f64,
}

/// Which fading the last frame through a [`ChannelWorkspace`] drew.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
enum Realized {
    #[default]
    Nothing,
    Flat,
    TappedDelayLine,
    TimeVarying,
}

/// Reusable scratch memory for [`ChannelSim::apply_into`]: the frame's
/// fading realization, the TGn power-delay profile and an impairment
/// staging buffer, following the receiver's `RxWorkspace` idiom.
/// Construction is cheap (empty vectors); buffers grow on first use,
/// after which a frame through an ideal, flat-Rayleigh or TGn channel
/// with integer timing offset and no SFO allocates nothing. It also keeps
/// the last frame's ground truth ([`Self::truth`]).
#[derive(Clone, Debug, Default)]
pub struct ChannelWorkspace {
    n_rx: usize,
    n_tx: usize,
    realized: Realized,
    /// Flat channel matrix, row-major `[rx][tx]`.
    flat: Vec<Complex64>,
    /// The model `tap_gains` was computed for.
    pdp_model: Option<TgnModel>,
    /// Per-tap amplitude `sqrt(p / total)` of the power-delay profile.
    tap_gains: Vec<f64>,
    /// Impulse responses, `taps[(rx * n_tx + tx) * n_taps + delay]`.
    taps: Vec<Complex64>,
    /// Staging buffer for impairments that move samples.
    scratch: Vec<Complex64>,
    cfo_norm: f64,
    timing_offset: f64,
    noise_power: f64,
}

impl ChannelWorkspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// The ground truth of the last frame (builds the channel matrices).
    pub fn truth(&self) -> ChannelTruth {
        let flat = (self.realized == Realized::Flat)
            .then(|| MimoChannelMatrix::new(self.n_rx, self.n_tx, self.flat.clone()));
        let tdl = (self.realized == Realized::TappedDelayLine).then(|| {
            let n_taps = self.tap_gains.len();
            let mut irs = self.taps.chunks(n_taps).map(<[Complex64]>::to_vec);
            TappedDelayLine::new(
                (0..self.n_rx)
                    .map(|_| irs.by_ref().take(self.n_tx).collect())
                    .collect(),
            )
        });
        ChannelTruth {
            flat,
            tdl,
            cfo_norm: self.cfo_norm,
            timing_offset: self.timing_offset,
            noise_power: self.noise_power,
        }
    }

    /// Caches the tap amplitudes of `model`'s power-delay profile.
    fn prepare_pdp(&mut self, model: TgnModel) {
        if self.pdp_model == Some(model) {
            return;
        }
        let pdp = model.pdp();
        let total: f64 = pdp.iter().sum();
        self.tap_gains.clear();
        self.tap_gains
            .extend(pdp.iter().map(|&p| (p / total).sqrt()));
        self.pdp_model = Some(model);
    }
}

thread_local! {
    static WORKSPACE: RefCell<ChannelWorkspace> = RefCell::new(ChannelWorkspace::new());
}

/// The seeded channel simulator.
#[derive(Clone, Debug)]
pub struct ChannelSim {
    cfg: ChannelConfig,
    rng: ChaCha8Rng,
}

impl ChannelSim {
    /// Creates a simulator with a deterministic seed.
    pub fn new(cfg: ChannelConfig, seed: u64) -> Self {
        assert!(
            cfg.n_tx > 0 && cfg.n_rx > 0,
            "antenna counts must be nonzero"
        );
        if matches!(cfg.fading, Fading::Ideal) {
            assert_eq!(cfg.n_tx, cfg.n_rx, "ideal channel requires n_tx == n_rx");
        }
        Self {
            cfg,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ChannelConfig {
        &self.cfg
    }

    /// Passes one frame (per-TX-antenna streams) through the channel,
    /// drawing a fresh fading realization, and returns the per-RX-antenna
    /// streams plus the ground truth.
    pub fn apply(&mut self, tx: &[Vec<Complex64>]) -> (Vec<Vec<Complex64>>, ChannelTruth) {
        WORKSPACE.with(|ws| {
            let ws = &mut ws.borrow_mut();
            let mut rx = Vec::new();
            self.apply_into(tx, ws, &mut rx);
            (rx, ws.truth())
        })
    }

    /// [`Self::apply`] writing the per-RX-antenna streams into `out`
    /// (resized to `n_rx` streams, each overwritten; capacities are
    /// reused) with scratch from `ws`, which also keeps the frame's ground
    /// truth. Consumes exactly the random draws [`Self::apply`] does, so
    /// the two are interchangeable mid-stream.
    ///
    /// # Panics
    ///
    /// Panics if `tx.len() != n_tx` or the TX streams differ in length.
    pub fn apply_into<S: AsRef<[Complex64]>>(
        &mut self,
        tx: &[S],
        ws: &mut ChannelWorkspace,
        out: &mut Vec<Vec<Complex64>>,
    ) {
        let (n_rx, n_tx) = (self.cfg.n_rx, self.cfg.n_tx);
        assert_eq!(tx.len(), n_tx, "expected {n_tx} TX streams");
        let len = tx.first().map_or(0, |s| s.as_ref().len());
        assert!(
            tx.iter().all(|s| s.as_ref().len() == len),
            "TX stream lengths differ"
        );
        out.resize_with(n_rx, Vec::new);
        ws.n_rx = n_rx;
        ws.n_tx = n_tx;

        // 1. Fading. Every output sample accumulates its TX terms from
        //    zero in TX order, exactly as `MimoChannelMatrix::apply`,
        //    `TappedDelayLine::apply` and `TimeVaryingChannel::apply` do.
        match self.cfg.fading {
            Fading::Ideal | Fading::RayleighFlat => {
                ws.flat.clear();
                if self.cfg.fading == Fading::Ideal {
                    ws.flat.extend((0..n_rx * n_tx).map(|i| {
                        if i / n_tx == i % n_tx {
                            Complex64::ONE
                        } else {
                            Complex64::ZERO
                        }
                    }));
                } else {
                    for _ in 0..n_rx * n_tx {
                        ws.flat.push(crandn(&mut self.rng));
                    }
                }
                ws.realized = Realized::Flat;
                for (y, h_row) in out.iter_mut().zip(ws.flat.chunks_exact(n_tx)) {
                    y.clear();
                    y.resize(len, Complex64::ZERO);
                    for (&h, x) in h_row.iter().zip(tx) {
                        for (yi, &xi) in y.iter_mut().zip(x.as_ref()) {
                            *yi += h * xi;
                        }
                    }
                }
            }
            Fading::Tgn(model) => {
                ws.prepare_pdp(model);
                ws.taps.clear();
                for _ in 0..n_rx * n_tx {
                    for &g in &ws.tap_gains {
                        ws.taps.push(crandn(&mut self.rng).scale(g));
                    }
                }
                ws.realized = Realized::TappedDelayLine;
                let n_taps = ws.tap_gains.len();
                for (y, h_row) in out.iter_mut().zip(ws.taps.chunks_exact(n_tx * n_taps)) {
                    y.clear();
                    y.resize(len + n_taps - 1, Complex64::ZERO);
                    if len == 0 {
                        continue;
                    }
                    for (h, x) in h_row.chunks_exact(n_taps).zip(tx) {
                        // Output-major convolution; each output's terms
                        // arrive in input order, as in `filter::convolve`.
                        let x = x.as_ref();
                        for (k, yk) in y.iter_mut().enumerate() {
                            let mut acc = Complex64::ZERO;
                            for i in k.saturating_sub(n_taps - 1)..=k.min(len - 1) {
                                acc += x[i] * h[k - i];
                            }
                            *yk += acc;
                        }
                    }
                }
            }
            Fading::Jakes { fd_norm } => {
                let ch = TimeVaryingChannel::new(&mut self.rng, n_rx, n_tx, fd_norm);
                ws.realized = Realized::TimeVarying;
                for (r, y) in out.iter_mut().enumerate() {
                    y.clear();
                    y.extend((0..len).map(|n| {
                        let mut acc = Complex64::ZERO;
                        for (t, x) in tx.iter().enumerate() {
                            acc += ch.gain(r, t, n as u64) * x.as_ref()[n];
                        }
                        acc
                    }));
                }
            }
        }

        // 2. Receiver clock/oscillator impairments: identical across RX
        //    chains (one LO and one sampling clock per device, as on a
        //    USRP with a shared daughterboard clock). 3. Noise and
        //    quantization.
        let phase0 = self.rng.gen::<f64>() * 2.0 * std::f64::consts::PI;
        let noise_power = if self.cfg.snr_db.is_finite() {
            noise_power_for_snr_db(self.cfg.snr_db)
        } else {
            0.0
        };
        for s in out.iter_mut() {
            if self.cfg.timing_offset != 0.0 {
                apply_timing_offset_into(s, self.cfg.timing_offset, &mut ws.scratch);
                s.clear();
                s.extend_from_slice(&ws.scratch);
            }
            if self.cfg.sfo_ppm != 0.0 {
                *s = apply_sfo(s, self.cfg.sfo_ppm);
            }
            if self.cfg.cfo_norm != 0.0 {
                apply_cfo(s, self.cfg.cfo_norm, phase0);
            }
            if self.cfg.iq_epsilon != 0.0 || self.cfg.iq_phi != 0.0 {
                apply_iq_imbalance(s, self.cfg.iq_epsilon, self.cfg.iq_phi);
            }
            if self.cfg.dc_offset != Complex64::ZERO {
                apply_dc_offset(s, self.cfg.dc_offset);
            }
            add_awgn(&mut self.rng, s, noise_power);
            if let Some(bits) = self.cfg.adc_bits {
                quantize(s, bits, self.cfg.adc_full_scale);
            }
        }
        ws.cfo_norm = self.cfg.cfo_norm;
        ws.timing_offset = self.cfg.timing_offset;
        ws.noise_power = noise_power;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimonet_dsp::complex::{mean_power, C64};

    fn tone(n: usize, f: f64) -> Vec<C64> {
        (0..n)
            .map(|i| C64::cis(2.0 * std::f64::consts::PI * f * i as f64))
            .collect()
    }

    #[test]
    fn clean_channel_is_identity() {
        let mut sim = ChannelSim::new(ChannelConfig::clean(2, 2), 1);
        let tx = vec![tone(100, 0.03), tone(100, 0.07)];
        let (rx, truth) = sim.apply(&tx);
        assert_eq!(rx.len(), 2);
        for (r, t) in rx.iter().zip(&tx) {
            for (a, b) in r.iter().zip(t) {
                assert!(a.dist(*b) < 1e-12);
            }
        }
        assert_eq!(truth.noise_power, 0.0);
        assert!(truth.flat.is_some());
    }

    #[test]
    fn awgn_snr_measured() {
        let cfg = ChannelConfig::awgn(1, 1, 15.0);
        let mut sim = ChannelSim::new(cfg, 2);
        let tx = vec![tone(100_000, 0.01)];
        let (rx, truth) = sim.apply(&tx);
        let noise: Vec<C64> = rx[0].iter().zip(&tx[0]).map(|(a, b)| *a - *b).collect();
        let snr = mimonet_dsp::stats::lin_to_db(mean_power(&tx[0]) / mean_power(&noise));
        assert!((snr - 15.0).abs() < 0.3, "snr {snr}");
        assert!((truth.noise_power - mimonet_dsp::stats::db_to_lin(-15.0)).abs() < 1e-12);
    }

    #[test]
    fn timing_offset_recorded_and_applied() {
        let mut cfg = ChannelConfig::clean(1, 1);
        cfg.timing_offset = 25.0;
        let mut sim = ChannelSim::new(cfg, 3);
        let tx = vec![vec![C64::ONE; 10]];
        let (rx, truth) = sim.apply(&tx);
        assert_eq!(truth.timing_offset, 25.0);
        assert_eq!(rx[0].len(), 35);
        assert!(rx[0][..25].iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn cfo_applied_identically_across_rx_antennas() {
        let mut cfg = ChannelConfig::clean(2, 2);
        cfg.cfo_norm = 0.2;
        let mut sim = ChannelSim::new(cfg, 4);
        let tx = vec![vec![C64::ONE; 64], vec![C64::ONE; 64]];
        let (rx, _) = sim.apply(&tx);
        // Identity fading + same input ⇒ the two RX streams stay equal if
        // (and only if) the CFO phase trajectory is shared.
        for (a, b) in rx[0].iter().zip(&rx[1]) {
            assert!(a.dist(*b) < 1e-12);
        }
        // The rotation rate itself is covered by the impairments tests.
    }

    #[test]
    fn rayleigh_frames_differ_between_applies() {
        let cfg = ChannelConfig {
            fading: Fading::RayleighFlat,
            ..ChannelConfig::clean(2, 2)
        };
        let mut sim = ChannelSim::new(cfg, 5);
        let tx = vec![vec![C64::ONE; 4], vec![C64::ONE; 4]];
        let (_, t1) = sim.apply(&tx);
        let (_, t2) = sim.apply(&tx);
        assert_ne!(t1.flat, t2.flat, "block fading must redraw per frame");
    }

    #[test]
    fn tgn_channel_extends_stream() {
        let cfg = ChannelConfig {
            fading: Fading::Tgn(TgnModel::D),
            ..ChannelConfig::clean(2, 2)
        };
        let mut sim = ChannelSim::new(cfg, 6);
        let tx = vec![vec![C64::ONE; 50], vec![C64::ONE; 50]];
        let (rx, truth) = sim.apply(&tx);
        let spread = truth.tdl.as_ref().unwrap().max_delay();
        assert!(spread > 1);
        assert_eq!(rx[0].len(), 50 + spread - 1);
    }

    #[test]
    fn same_seed_reproduces() {
        let cfg = ChannelConfig {
            fading: Fading::RayleighFlat,
            snr_db: 10.0,
            ..ChannelConfig::clean(2, 2)
        };
        let tx = vec![tone(64, 0.05), tone(64, 0.11)];
        let mut s1 = ChannelSim::new(cfg.clone(), 42);
        let mut s2 = ChannelSim::new(cfg, 42);
        let (r1, _) = s1.apply(&tx);
        let (r2, _) = s2.apply(&tx);
        assert_eq!(r1, r2);
    }

    #[test]
    fn apply_into_fading_matches_the_model_apply() {
        // Noiseless, impairment-free: the output is the fading alone, and
        // must equal the realized model's own `apply` bit for bit.
        let tx: Vec<Vec<C64>> = (0..2)
            .map(|t| {
                (0..300)
                    .map(|i| C64::new((i * 7 + t) as f64 % 13.0 - 6.0, (i % 5) as f64 * -0.5))
                    .collect()
            })
            .collect();
        let mut ws = ChannelWorkspace::new();
        let mut out = Vec::new();
        for (n_rx, fading) in [
            (2, Fading::Ideal),
            (3, Fading::RayleighFlat),
            (3, Fading::Tgn(TgnModel::D)),
            (2, Fading::Tgn(TgnModel::E)),
            (3, Fading::Jakes { fd_norm: 1e-4 }),
        ] {
            let cfg = ChannelConfig {
                fading,
                ..ChannelConfig::clean(2, n_rx)
            };
            let mut sim = ChannelSim::new(cfg, 8);
            for _ in 0..2 {
                let mut rng = sim.rng.clone();
                sim.apply_into(&tx, &mut ws, &mut out);
                let truth = ws.truth();
                let want = match fading {
                    Fading::Ideal | Fading::RayleighFlat => truth.flat.unwrap().apply(&tx),
                    Fading::Tgn(_) => truth.tdl.unwrap().apply(&tx),
                    Fading::Jakes { fd_norm } => {
                        TimeVaryingChannel::new(&mut rng, n_rx, 2, fd_norm).apply(&tx)
                    }
                };
                assert_eq!(out, want, "{fading:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "ideal channel requires")]
    fn ideal_requires_square() {
        ChannelSim::new(ChannelConfig::clean(2, 1), 0);
    }
}
