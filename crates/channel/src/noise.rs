//! Gaussian noise generation and SNR bookkeeping.
//!
//! Implemented with a Box–Muller transform over `rand`'s uniform source so
//! the workspace needs no external distribution crate. All SNRs in MIMONet
//! are defined as **total received signal power / noise power per receive
//! antenna**, with unit-power transmit normalization (see DESIGN.md).

use mimonet_dsp::complex::Complex64;
use rand::Rng;

/// Draws a standard normal (mean 0, variance 1) real sample.
pub fn randn<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    randn_from(|| rng.gen())
}

/// Box–Muller over a uniform source; rejects `u1 == 0` to keep `ln`
/// finite, drawing a fresh `u1` (and only then `u2`).
#[inline]
fn randn_from(mut uniform: impl FnMut() -> f64) -> f64 {
    loop {
        let u1 = uniform();
        if u1 > f64::MIN_POSITIVE {
            return box_muller(u1, uniform());
        }
    }
}

#[inline(always)]
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draws a circularly-symmetric complex Gaussian with **unit total
/// variance** (each component has variance 1/2).
pub fn crandn<R: Rng + ?Sized>(rng: &mut R) -> Complex64 {
    let s = std::f64::consts::FRAC_1_SQRT_2;
    Complex64::new(randn(rng) * s, randn(rng) * s)
}

/// Samples per bulk draw in [`add_awgn`] (four uniforms each).
const AWGN_CHUNK: usize = 256;

/// Adds complex AWGN of total variance `noise_power` to `signal` in place.
///
/// Bit-identical to adding `crandn(rng).scale(sigma)` sample by sample,
/// but draws the uniforms in bulk: each chunk of samples takes its four
/// words per sample (u1, u2 for the real part, then u1, u2 for the
/// imaginary part) in one [`rand::RngCore::fill_u64`] call, then runs
/// Box–Muller over the buffer. A rejected `u1` (probability 2⁻⁵³) shifts
/// every later draw by one word, so the rest of the burst then finishes
/// on the per-sample path, consuming the unused buffered words first.
pub fn add_awgn<R: Rng + ?Sized>(rng: &mut R, signal: &mut [Complex64], noise_power: f64) {
    assert!(noise_power >= 0.0, "noise power must be non-negative");
    if noise_power == 0.0 {
        return;
    }
    let sigma = noise_power.sqrt();
    let s = std::f64::consts::FRAC_1_SQRT_2;
    let mut words = [0u64; 4 * AWGN_CHUNK];
    let mut start = 0;
    while start < signal.len() {
        let n = (signal.len() - start).min(AWGN_CHUNK);
        let words = &mut words[..4 * n];
        rng.fill_u64(words);
        for (i, w) in words.chunks_exact(4).enumerate() {
            let [u1_re, u2_re, u1_im, u2_im] = [w[0], w[1], w[2], w[3]].map(rand::unit_f64);
            if !(u1_re > f64::MIN_POSITIVE && u1_im > f64::MIN_POSITIVE) {
                let mut buffered = words[4 * i..].iter().copied();
                let mut uniform = || buffered.next().map_or_else(|| rng.gen(), rand::unit_f64);
                for x in &mut signal[start + i..] {
                    let z =
                        Complex64::new(randn_from(&mut uniform) * s, randn_from(&mut uniform) * s);
                    *x += z.scale(sigma);
                }
                return;
            }
            let z = Complex64::new(box_muller(u1_re, u2_re) * s, box_muller(u1_im, u2_im) * s);
            signal[start + i] += z.scale(sigma);
        }
        start += n;
    }
}

/// Noise power per receive antenna for a given SNR in dB, assuming unit
/// total received signal power.
pub fn noise_power_for_snr_db(snr_db: f64) -> f64 {
    mimonet_dsp::stats::db_to_lin(-snr_db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimonet_dsp::complex::mean_power;
    use mimonet_dsp::stats::Running;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn randn_moments() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut r = Running::new();
        for _ in 0..200_000 {
            r.push(randn(&mut rng));
        }
        assert!(r.mean().abs() < 0.01, "mean {}", r.mean());
        assert!((r.variance() - 1.0).abs() < 0.02, "var {}", r.variance());
    }

    #[test]
    fn crandn_is_circular_unit_power() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let xs: Vec<_> = (0..100_000).map(|_| crandn(&mut rng)).collect();
        let p = mean_power(&xs);
        assert!((p - 1.0).abs() < 0.02, "power {p}");
        // Components uncorrelated: E[re*im] ≈ 0.
        let cross: f64 = xs.iter().map(|z| z.re * z.im).sum::<f64>() / xs.len() as f64;
        assert!(cross.abs() < 0.01);
        // Rotation invariance of the mean phasor.
        let m: Complex64 = xs
            .iter()
            .copied()
            .sum::<Complex64>()
            .scale(1.0 / xs.len() as f64);
        assert!(m.abs() < 0.02);
    }

    #[test]
    fn awgn_hits_requested_snr() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for snr_db in [0.0, 10.0, 20.0] {
            let clean = vec![Complex64::ONE; 50_000];
            let mut noisy = clean.clone();
            add_awgn(&mut rng, &mut noisy, noise_power_for_snr_db(snr_db));
            let noise: Vec<Complex64> = noisy.iter().zip(&clean).map(|(a, b)| *a - *b).collect();
            let measured = mimonet_dsp::stats::lin_to_db(mean_power(&clean) / mean_power(&noise));
            assert!(
                (measured - snr_db).abs() < 0.3,
                "target {snr_db} dB, measured {measured} dB"
            );
        }
    }

    #[test]
    fn zero_noise_is_identity() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut x = vec![Complex64::new(1.0, -2.0); 8];
        let orig = x.clone();
        add_awgn(&mut rng, &mut x, 0.0);
        assert_eq!(x, orig);
    }

    /// The per-sample definition [`add_awgn`] must reproduce bit for bit.
    fn add_awgn_per_sample<R: Rng + ?Sized>(rng: &mut R, signal: &mut [Complex64], p: f64) {
        let sigma = p.sqrt();
        for x in signal.iter_mut() {
            *x += crandn(rng).scale(sigma);
        }
    }

    #[test]
    fn bulk_awgn_matches_per_sample_draws() {
        for (seed, len) in [
            (1u64, 0usize),
            (2, 1),
            (3, 255),
            (4, 256),
            (5, 257),
            (6, 3400),
        ] {
            let clean: Vec<Complex64> = (0..len)
                .map(|i| Complex64::new(i as f64, -(i as f64)))
                .collect();
            let mut bulk = clean.clone();
            let mut reference = clean.clone();
            let mut a = ChaCha8Rng::seed_from_u64(seed);
            let mut b = ChaCha8Rng::seed_from_u64(seed);
            // An odd word offset makes every u64 straddle two buffered words.
            a.next_u32();
            b.next_u32();
            add_awgn(&mut a, &mut bulk, 0.3);
            add_awgn_per_sample(&mut b, &mut reference, 0.3);
            assert_eq!(bulk, reference, "len {len}");
            assert_eq!(a.next_u64(), b.next_u64(), "streams stay aligned");
        }
    }

    /// Replays a fixed word sequence, then counts upward.
    struct Scripted {
        words: Vec<u64>,
        at: usize,
    }

    impl rand::RngCore for Scripted {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            let w = self
                .words
                .get(self.at)
                .copied()
                .unwrap_or((self.at as u64) << 20 | 0x9E37);
            self.at += 1;
            w
        }
    }

    #[test]
    fn rejected_u1_finishes_the_burst_per_sample() {
        // A zero word is the one uniform `randn` rejects. Put one on the
        // real and one on the imaginary u1 of different samples, in the
        // first and in a later chunk.
        for zero_at in [[0usize, 9], [4 * 3 + 2, 4 * 300], [4 * 255, 4 * 256 + 2]] {
            let mut words: Vec<u64> = (0..4 * 600).map(|i| (i as u64 + 1) << 30).collect();
            for z in zero_at {
                words[z] = 0;
            }
            let mut bulk = vec![Complex64::ONE; 520];
            let mut reference = bulk.clone();
            let mut a = Scripted {
                words: words.clone(),
                at: 0,
            };
            let mut b = Scripted { words, at: 0 };
            add_awgn(&mut a, &mut bulk, 0.5);
            add_awgn_per_sample(&mut b, &mut reference, 0.5);
            assert_eq!(bulk, reference, "zeros at {zero_at:?}");
            assert_eq!(a.at, b.at, "same number of words consumed");
        }
    }

    #[test]
    fn seeded_noise_is_reproducible() {
        let gen = |seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut x = vec![Complex64::ZERO; 16];
            add_awgn(&mut rng, &mut x, 1.0);
            x
        };
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7), gen(8));
    }
}
