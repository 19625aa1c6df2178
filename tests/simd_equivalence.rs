//! SIMD/batch equivalence proptests: every vectorized kernel against its
//! scalar implementation (the Viterbi kernel against its closure-driven
//! oracle), and the multi-frame batch receive paths against per-frame
//! decoding.
//!
//! The contract is *bit identity*, not approximate agreement: each lane
//! of a vectorized kernel owns one independent output (a butterfly, a
//! lag, a symbol, a trellis state) and performs the scalar operation
//! sequence exactly, so outputs are compared with `to_bits`/`PartialEq`
//! on raw `f64`s. The `simd` cargo feature only selects which of the two
//! identical-result paths the receiver dispatches to — these tests pass
//! under both `--features simd` and default builds because both paths
//! are always compiled.

use mimonet::config::TxConfig;
use mimonet::rx_reference::ReferenceReceiver;
use mimonet::tx::Transmitter;
use mimonet::{with_workspace, Receiver, RxBatch, RxConfig, RxFrame, RxWorkspace};
use mimonet_channel::{ChannelConfig, ChannelSim};
use mimonet_detect::{prepare, CMat, DetectorKind};
use mimonet_dsp::complex::Complex64;
use mimonet_dsp::correlate::{
    normalized_cross_correlate_scalar_into, normalized_cross_correlate_simd_into,
};
use mimonet_dsp::fft::Direction;
use mimonet_dsp::Fft;
use mimonet_fec::viterbi::reference as viterbi_reference;
use mimonet_fec::ViterbiDecoder;
use mimonet_frame::Modulation;
use proptest::prelude::*;

fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn complex_bits_eq(a: Complex64, b: Complex64) -> bool {
    bits_eq(a.re, b.re) && bits_eq(a.im, b.im)
}

fn modulation(idx: u8) -> Modulation {
    match idx % 4 {
        0 => Modulation::Bpsk,
        1 => Modulation::Qpsk,
        2 => Modulation::Qam16,
        _ => Modulation::Qam64,
    }
}

fn detector_kind(idx: u8) -> DetectorKind {
    match idx % 3 {
        0 => DetectorKind::Mmse,
        1 => DetectorKind::Zf,
        _ => DetectorKind::Ml,
    }
}

/// Transmit one frame and pad it with lead-in/out silence.
fn padded_frame(mcs: u8, psdu: &[u8], lead: usize) -> Vec<Vec<Complex64>> {
    let tx = Transmitter::new(TxConfig::new(mcs).unwrap());
    let mut streams = tx.transmit(psdu).unwrap();
    for s in &mut streams {
        let mut padded = vec![Complex64::ZERO; lead];
        padded.extend_from_slice(s);
        padded.extend(vec![Complex64::ZERO; 80]);
        *s = padded;
    }
    streams
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// FFT: the pair-butterfly vector path against the scalar
    /// butterflies, across every planned size the transmit chain uses
    /// (including the tiny sizes whose stages are partly scalar) and
    /// both directions.
    #[test]
    fn fft_simd_matches_scalar(
        log_n in 0u32..10,
        dir_inv in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let n = 1usize << log_n;
        let plan = Fft::new(n);
        let dir = if dir_inv { Direction::Inverse } else { Direction::Forward };
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let src: Vec<Complex64> = (0..n).map(|_| Complex64::new(next(), next())).collect();
        let mut a = src.clone();
        let mut b = src;
        plan.run_scalar(&mut a, dir);
        plan.run_simd(&mut b, dir);
        prop_assert!(a.iter().zip(&b).all(|(x, y)| complex_bits_eq(*x, *y)));
    }

    /// Correlation: the four-lags-per-lane SoA kernel against the scalar
    /// sliding window, across lengths that leave 0..=7 remainder lags
    /// for the scalar tail (the 8/4/1-lane split points).
    #[test]
    fn correlate_simd_matches_scalar(
        sig_len in 8usize..120,
        ref_len in 1usize..24,
        seed in any::<u64>(),
    ) {
        prop_assume!(ref_len <= sig_len);
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let sig: Vec<Complex64> = (0..sig_len).map(|_| Complex64::new(next(), next())).collect();
        let pat: Vec<Complex64> = (0..ref_len).map(|_| Complex64::new(next(), next())).collect();
        let mut a = Vec::new();
        let mut b = Vec::new();
        normalized_cross_correlate_scalar_into(&sig, &pat, &mut a);
        normalized_cross_correlate_simd_into(&sig, &pat, &mut b);
        prop_assert_eq!(a.len(), b.len());
        prop_assert!(a.iter().zip(&b).all(|(x, y)| bits_eq(*x, *y)));
    }

    /// Soft demapping: four lanes at once against four scalar calls, for
    /// every constellation.
    #[test]
    fn demap_x4_matches_scalar(
        mod_idx in 0u8..4,
        nv_centi in 1u32..500,
        seed in any::<u64>(),
    ) {
        let m = modulation(mod_idx);
        let bp = m.bits_per_symbol();
        let nv = f64::from(nv_centi) / 100.0;
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            3.0 * ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
        };
        let ys = [
            Complex64::new(next(), next()),
            Complex64::new(next(), next()),
            Complex64::new(next(), next()),
            Complex64::new(next(), next()),
        ];
        let mut want = vec![0.0f64; 4 * bp];
        for (lane, &y) in ys.iter().enumerate() {
            m.demap_soft_into(y, nv, &mut want[lane * bp..(lane + 1) * bp]);
        }
        let mut got = vec![0.0f64; 4 * bp];
        {
            let (o0, rest) = got.split_at_mut(bp);
            let (o1, rest) = rest.split_at_mut(bp);
            let (o2, o3) = rest.split_at_mut(bp);
            let _ = m.demap_soft_x4_into(ys, nv, [o0, o1, o2, o3]);
        }
        prop_assert!(want.iter().zip(&got).all(|(x, y)| bits_eq(*x, *y)));
    }

    /// Butterfly Viterbi: four noisy LLR streams through one reused
    /// decoder against the closure-driven oracle — including zero LLRs
    /// (depunctured erasures) and near-tie metrics that would expose any
    /// compare-select or tie-break divergence.
    #[test]
    fn viterbi_matches_reference(
        steps in 1usize..80,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        let streams: Vec<Vec<f64>> = (0..4)
            .map(|_| {
                (0..2 * steps)
                    .map(|_| {
                        let r = next();
                        if r % 7 == 0 {
                            0.0 // erasure
                        } else {
                            ((r >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 8.0
                        }
                    })
                    .collect()
            })
            .collect();
        let mut dec = ViterbiDecoder::new();
        let mut got = Vec::new();
        for stream in &streams {
            dec.decode_soft_unterminated_into(stream, &mut got).unwrap();
            prop_assert_eq!(&got, &viterbi_reference::decode_soft_unterminated(stream).unwrap());
        }
    }

    /// Lane detection: four observations at once against four scalar
    /// `apply_into` calls, across detector kinds, stream counts, and
    /// constellations.
    #[test]
    fn detect_x4_matches_scalar(
        det_idx in 0u8..3,
        mod_idx in 0u8..4,
        n_ss in 1usize..3,
        nv_centi in 1u32..300,
        seed in any::<u64>(),
    ) {
        let m = modulation(mod_idx);
        let bp = m.bits_per_symbol();
        let nv = f64::from(nv_centi) / 100.0;
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut h = CMat::zeros(n_ss, n_ss);
        for r in 0..n_ss {
            for c in 0..n_ss {
                h[(r, c)] = Complex64::new(2.0 * next(), 2.0 * next())
                    + if r == c { Complex64::ONE } else { Complex64::ZERO };
            }
        }
        let prep = match prepare(detector_kind(det_idx), &h, nv, m) {
            Ok(p) => p,
            Err(_) => return Ok(()), // singular draw — nothing to compare
        };
        let ys: Vec<Vec<Complex64>> = (0..4)
            .map(|_| (0..n_ss).map(|_| Complex64::new(3.0 * next(), 3.0 * next())).collect())
            .collect();
        let mut want_syms = vec![Complex64::ZERO; 4 * n_ss];
        let mut want_llrs = vec![0.0f64; 4 * n_ss * bp];
        for lane in 0..4 {
            prep.apply_into(
                &ys[lane],
                &mut want_syms[lane * n_ss..(lane + 1) * n_ss],
                &mut want_llrs[lane * n_ss * bp..(lane + 1) * n_ss * bp],
            );
        }
        let mut got_syms = vec![Complex64::ZERO; 4 * n_ss];
        let mut got_llrs = vec![0.0f64; 4 * n_ss * bp];
        {
            let (s0, rest) = got_syms.split_at_mut(n_ss);
            let (s1, rest) = rest.split_at_mut(n_ss);
            let (s2, s3) = rest.split_at_mut(n_ss);
            let (l0, rest) = got_llrs.split_at_mut(n_ss * bp);
            let (l1, rest) = rest.split_at_mut(n_ss * bp);
            let (l2, l3) = rest.split_at_mut(n_ss * bp);
            prep.apply_x4_into(
                [&ys[0], &ys[1], &ys[2], &ys[3]],
                [s0, s1, s2, s3],
                [l0, l1, l2, l3],
            );
        }
        prop_assert!(want_syms.iter().zip(&got_syms).all(|(x, y)| complex_bits_eq(*x, *y)));
        prop_assert!(want_llrs.iter().zip(&got_llrs).all(|(x, y)| bits_eq(*x, *y)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `receive_batch` against per-frame `receive_into` *and* the
    /// pre-optimization reference receiver, across batch sizes 1..=16,
    /// mixed MCS (distinct coded lengths), detector kinds, and SNRs low
    /// enough to produce mixed Ok/Err slots.
    #[test]
    fn receive_batch_matches_per_frame(
        n in 1usize..17,
        mcs_base in 8u8..14,
        mixed in any::<bool>(),
        det_idx in 0u8..3,
        snr_centi in 700u32..3000,
        seed in any::<u64>(),
    ) {
        let snr = f64::from(snr_centi) / 100.0;
        let mut captures: Vec<Vec<Vec<Complex64>>> = Vec::new();
        for k in 0..n {
            // Mixed batches alternate MCS (different coded lengths);
            // uniform batches repeat one.
            let mcs = if mixed { 8 + ((mcs_base - 8 + k as u8) % 6) } else { mcs_base };
            let psdu: Vec<u8> = (0..30 + 7 * k).map(|i| (i as u8).wrapping_mul(29)).collect();
            let streams = padded_frame(mcs, &psdu, 60);
            let mut sim = ChannelSim::new(
                ChannelConfig::awgn(2, 2, snr),
                seed.wrapping_add(k as u64),
            );
            let (noisy, _) = sim.apply(&streams);
            captures.push(noisy);
        }

        let mut cfg = RxConfig::new(2);
        cfg.detector = detector_kind(det_idx);
        let rx = Receiver::new(cfg.clone());
        let reference = ReferenceReceiver::new(cfg);

        let mut ws = RxWorkspace::new();
        let mut batch = RxBatch::new();
        rx.receive_batch(&captures, &mut ws, &mut batch);
        prop_assert_eq!(batch.len(), n);

        let mut frame = RxFrame::default();
        for (i, cap) in captures.iter().enumerate() {
            let views: Vec<&[Complex64]> = cap.iter().map(|s| s.as_slice()).collect();
            let want = rx
                .receive_into(&views, &mut ws, &mut frame)
                .map(|()| frame.clone());
            let got = batch.result(i).cloned().map_err(Clone::clone);
            prop_assert_eq!(&got, &want, "slot {} disagrees with receive_into", i);
            let oracle = reference.receive(cap);
            prop_assert_eq!(got, oracle, "slot {} disagrees with the reference", i);
        }

        // The ok-view helpers agree with the per-slot outcomes.
        let oks: Vec<usize> = batch.ok_frames().map(|(i, _)| i).collect();
        let expect: Vec<usize> = (0..n).filter(|&i| batch.result(i).is_ok()).collect();
        prop_assert_eq!(batch.ok_count(), expect.len());
        prop_assert_eq!(oks, expect);
    }

    /// `scan_batch` against per-capture `scan`: identical frame lists
    /// (offsets + exact frames) and identical statistics for every
    /// capture, across capture counts, frames per capture, and SNR.
    #[test]
    fn scan_batch_matches_scan(
        n_caps in 1usize..7,
        n_frames in 1usize..3,
        gap in 150usize..300,
        mcs in 8u8..13,
        snr_centi in 900u32..3000,
        seed in any::<u64>(),
    ) {
        let snr = f64::from(snr_centi) / 100.0;
        let mut captures: Vec<Vec<Vec<Complex64>>> = Vec::new();
        for c in 0..n_caps {
            let mut capture: Vec<Vec<Complex64>> = vec![vec![Complex64::ZERO; 150]; 2];
            for k in 0..n_frames {
                let psdu: Vec<u8> = (0..40 + 9 * k + 5 * c).map(|i| i as u8).collect();
                let streams = padded_frame(mcs, &psdu, 0);
                for (cap, s) in capture.iter_mut().zip(&streams) {
                    cap.extend_from_slice(s);
                    cap.extend(vec![Complex64::ZERO; gap]);
                }
            }
            let mut sim = ChannelSim::new(
                ChannelConfig::awgn(2, 2, snr),
                seed.wrapping_add(1000 + c as u64),
            );
            let (noisy, _) = sim.apply(&capture);
            captures.push(noisy);
        }

        let rx = Receiver::new(RxConfig::new(2));
        let got = with_workspace(|ws| rx.scan_batch(&captures, ws));
        prop_assert_eq!(got.len(), n_caps);
        for (c, (got_frames, got_stats)) in got.into_iter().enumerate() {
            let (want_frames, want_stats) = rx.scan(&captures[c]);
            prop_assert_eq!(got_frames, want_frames, "capture {} frames disagree", c);
            prop_assert_eq!(got_stats, want_stats, "capture {} stats disagree", c);
        }
    }
}

/// Hard-decoding batches run the Viterbi kernel on `±1` LLRs; the batch
/// path must still agree slot-for-slot with per-frame receives.
#[test]
fn receive_batch_matches_hard_decoding() {
    let mut captures: Vec<Vec<Vec<Complex64>>> = Vec::new();
    for k in 0..5usize {
        let psdu: Vec<u8> = (0..50 + 10 * k).map(|i| i as u8).collect();
        let streams = padded_frame(9, &psdu, 60);
        let mut sim = ChannelSim::new(ChannelConfig::awgn(2, 2, 25.0), 42 + k as u64);
        let (noisy, _) = sim.apply(&streams);
        captures.push(noisy);
    }
    let mut cfg = RxConfig::new(2);
    cfg.soft_decoding = false;
    let rx = Receiver::new(cfg);
    let mut ws = RxWorkspace::new();
    let mut batch = RxBatch::new();
    rx.receive_batch(&captures, &mut ws, &mut batch);
    let mut frame = RxFrame::default();
    for (i, cap) in captures.iter().enumerate() {
        let views: Vec<&[Complex64]> = cap.iter().map(|s| s.as_slice()).collect();
        let want = rx
            .receive_into(&views, &mut ws, &mut frame)
            .map(|()| frame.clone());
        let got = batch.result(i).cloned().map_err(Clone::clone);
        assert_eq!(got, want, "hard-decoding slot {i}");
    }
}
