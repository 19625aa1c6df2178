//! RF front-end impairments.
//!
//! Everything a USRP front end would inflict on the baseband stream that
//! matters to this receiver: carrier frequency offset (the quantity the Van
//! de Beek extension estimates), sampling frequency offset, integer and
//! fractional timing offset, IQ imbalance, DC offset and ADC quantization.
//! Each impairment is a pure function on sample streams so they compose in
//! any order; [`crate::sim::ChannelSim`] wires the standard order.

use mimonet_dsp::complex::Complex64;
use mimonet_dsp::resample::{fractional_delay, resample};

/// Applies a carrier frequency offset of `cfo_norm` *subcarrier spacings*
/// (1 spacing = 312.5 kHz at 20 MHz / 64 carriers), starting at phase
/// `phase0`, i.e. multiplies sample `n` by
/// `exp(i (2 pi cfo_norm n / 64 + phase0))`.
///
/// Returns the phase after the last sample so multi-segment streams stay
/// continuous.
pub fn apply_cfo(signal: &mut [Complex64], cfo_norm: f64, phase0: f64) -> f64 {
    apply_cfo_raw(signal, cfo_norm, phase0).rem_euclid(2.0 * std::f64::consts::PI)
}

/// [`apply_cfo`] returning the *raw* accumulated phase (no `rem_euclid`
/// wrap). Chunked application is bit-identical to one whole-buffer call
/// only when the raw phase is carried across chunk boundaries — wrapping
/// perturbs the accumulator by one ulp-scale rounding and changes every
/// subsequent sample. The lazy-correction RX path depends on this.
pub fn apply_cfo_raw(signal: &mut [Complex64], cfo_norm: f64, phase0: f64) -> f64 {
    let step = 2.0 * std::f64::consts::PI * cfo_norm / 64.0;
    let mut phase = phase0;
    for x in signal.iter_mut() {
        *x *= Complex64::cis(phase);
        phase += step;
    }
    phase
}

/// Converts a CFO in parts-per-million of a carrier frequency into
/// normalized subcarrier spacings at 20 Msps. E.g. ±20 ppm at 5.2 GHz is
/// ±104 kHz ≈ ±0.33 spacings.
pub fn cfo_ppm_to_norm(ppm: f64, carrier_hz: f64) -> f64 {
    let hz = ppm * 1e-6 * carrier_hz;
    hz / (20e6 / 64.0)
}

/// Applies a sampling-frequency offset of `ppm` parts per million:
/// positive `ppm` means the receiver's clock runs fast (it samples the
/// waveform on a slightly compressed grid). Implemented by windowed-sinc
/// resampling; output length shrinks/grows accordingly.
pub fn apply_sfo(signal: &[Complex64], ppm: f64) -> Vec<Complex64> {
    let ratio = 1.0 + ppm * 1e-6;
    resample(signal, ratio, 16)
}

/// Delays the stream by `offset` samples: the integer part prepends zeros
/// (a late detection sees the packet start later in its buffer), the
/// fractional part is a sub-sample interpolation.
pub fn apply_timing_offset(signal: &[Complex64], offset: f64) -> Vec<Complex64> {
    let mut out = Vec::new();
    apply_timing_offset_into(signal, offset, &mut out);
    out
}

/// [`apply_timing_offset`] into a caller-owned vector (cleared first; its
/// capacity is reused). An integer offset allocates nothing.
pub fn apply_timing_offset_into(signal: &[Complex64], offset: f64, out: &mut Vec<Complex64>) {
    assert!(
        offset >= 0.0,
        "negative timing offsets are expressed by trimming"
    );
    let int = offset.floor() as usize;
    let frac = offset - int as f64;
    out.clear();
    out.resize(int, Complex64::ZERO);
    if frac > 1e-12 {
        out.extend(fractional_delay(signal, frac, 16));
    } else {
        out.extend_from_slice(signal);
    }
}

/// Transmit IQ imbalance: gain mismatch `epsilon` (linear, e.g. 0.05 = 5%)
/// and quadrature skew `phi` radians. Model:
/// `y = alpha * x + beta * conj(x)` with
/// `alpha = cos(phi/2) + i epsilon/2 sin(phi/2)`,
/// `beta = epsilon/2 cos(phi/2) - i sin(phi/2)` (small-angle standard form).
pub fn apply_iq_imbalance(signal: &mut [Complex64], epsilon: f64, phi: f64) {
    let (s, c) = (phi / 2.0).sin_cos();
    let alpha = Complex64::new(c, epsilon / 2.0 * s);
    let beta = Complex64::new(epsilon / 2.0 * c, -s);
    for x in signal.iter_mut() {
        *x = alpha * *x + beta * x.conj();
    }
}

/// Adds a constant DC offset.
pub fn apply_dc_offset(signal: &mut [Complex64], dc: Complex64) {
    for x in signal.iter_mut() {
        *x += dc;
    }
}

/// Quantizes both components to `bits`-bit two's-complement ADC codes over
/// the full-scale range `[-full_scale, +full_scale)`, with saturation.
/// Models the USRP's 12/14-bit converters.
pub fn quantize(signal: &mut [Complex64], bits: u32, full_scale: f64) {
    assert!((2..=24).contains(&bits), "ADC width {bits} out of range");
    assert!(full_scale > 0.0, "full scale must be positive");
    let levels = (1u64 << (bits - 1)) as f64; // codes per polarity
    let q = full_scale / levels;
    let clamp = |v: f64| -> f64 {
        let code = (v / q).round().clamp(-levels, levels - 1.0);
        code * q
    };
    for x in signal.iter_mut() {
        *x = Complex64::new(clamp(x.re), clamp(x.im));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimonet_dsp::complex::C64;

    #[test]
    fn cfo_rotates_at_expected_rate() {
        let mut x = vec![C64::ONE; 128];
        apply_cfo(&mut x, 1.0, 0.0);
        // One subcarrier spacing: full rotation every 64 samples.
        assert!(x[0].dist(C64::ONE) < 1e-12);
        assert!(x[64].dist(C64::ONE) < 1e-9);
        assert!(x[32].dist(-C64::ONE) < 1e-9);
        assert!(x[16].dist(C64::I) < 1e-9);
    }

    #[test]
    fn cfo_phase_continuity() {
        let mut whole = vec![C64::ONE; 100];
        apply_cfo(&mut whole, 0.37, 0.2);
        let mut a = vec![C64::ONE; 60];
        let mut b = vec![C64::ONE; 40];
        let mid = apply_cfo(&mut a, 0.37, 0.2);
        apply_cfo(&mut b, 0.37, mid);
        for (i, (x, y)) in whole.iter().zip(a.iter().chain(b.iter())).enumerate() {
            assert!(x.dist(*y) < 1e-9, "sample {i}");
        }
    }

    #[test]
    fn cfo_raw_phase_chunking_is_bit_identical() {
        // Raw-phase carry must reproduce the whole-buffer result exactly —
        // not just closely — because the receiver's lazy correction splits
        // one logical pass into many chunks.
        let src: Vec<C64> = (0..512).map(|i| C64::cis(i as f64 * 0.31) * 0.7).collect();
        let mut whole = src.clone();
        apply_cfo_raw(&mut whole, 0.4371, 0.93);
        let mut chunked = src;
        let mut phase = 0.93;
        for chunk in chunked.chunks_mut(37) {
            phase = apply_cfo_raw(chunk, 0.4371, phase);
        }
        for (i, (a, b)) in whole.iter().zip(&chunked).enumerate() {
            assert_eq!(a, b, "sample {i}");
        }
    }

    #[test]
    fn cfo_preserves_power() {
        let mut x: Vec<C64> = (0..64).map(|i| C64::new(i as f64, -1.0)).collect();
        let p0 = mimonet_dsp::complex::energy(&x);
        apply_cfo(&mut x, 0.23, 1.0);
        assert!((mimonet_dsp::complex::energy(&x) - p0).abs() < 1e-9);
    }

    #[test]
    fn ppm_conversion() {
        // 20 ppm at 5.2 GHz = 104 kHz; spacing = 312.5 kHz → 0.3328.
        let norm = cfo_ppm_to_norm(20.0, 5.2e9);
        assert!((norm - 0.3328).abs() < 1e-4);
    }

    #[test]
    fn sfo_changes_length() {
        let x = vec![C64::ONE; 100_000];
        let y = apply_sfo(&x, 40.0);
        // 40 ppm over 100k samples = 4 samples longer.
        assert_eq!(y.len(), 100_004);
        let z = apply_sfo(&x, -40.0);
        assert_eq!(z.len(), 99_996);
    }

    #[test]
    fn zero_sfo_is_near_identity() {
        let x: Vec<C64> = (0..200).map(|i| C64::cis(i as f64 * 0.1)).collect();
        let y = apply_sfo(&x, 0.0);
        assert_eq!(y.len(), x.len());
        for i in 20..180 {
            assert!(y[i].dist(x[i]) < 1e-6);
        }
    }

    #[test]
    fn integer_timing_offset_prepends_zeros() {
        let x = vec![C64::ONE; 5];
        let y = apply_timing_offset(&x, 3.0);
        assert_eq!(y.len(), 8);
        assert!(y[..3].iter().all(|v| v.abs() < 1e-12));
        assert!(y[3..].iter().all(|v| v.dist(C64::ONE) < 1e-9));
    }

    #[test]
    fn fractional_timing_offset_interpolates() {
        let f = 0.05;
        let x: Vec<C64> = (0..128)
            .map(|i| C64::cis(2.0 * std::f64::consts::PI * f * i as f64))
            .collect();
        let y = apply_timing_offset(&x, 0.5);
        let rot = C64::cis(-2.0 * std::f64::consts::PI * f * 0.5);
        for i in 20..108 {
            assert!(y[i].dist(x[i] * rot) < 1e-3, "i={i}");
        }
    }

    #[test]
    fn iq_imbalance_creates_image() {
        // A pure positive-frequency tone acquires a negative-frequency
        // image with power ~ (eps/2)^2 + (phi/2)^2.
        let n = 256;
        let k = 10.0;
        let mut x: Vec<C64> = (0..n)
            .map(|t| C64::cis(2.0 * std::f64::consts::PI * k * t as f64 / n as f64))
            .collect();
        apply_iq_imbalance(&mut x, 0.1, 0.05);
        let spec = mimonet_dsp::fft::fft(&x);
        let signal = spec[10].norm_sqr();
        let image = spec[n - 10].norm_sqr();
        assert!(image > 0.0);
        let irr = signal / image;
        // Expected image rejection ≈ |alpha|²/|beta|² ≈ 1/(0.05² + 0.025²)
        let expect = 1.0 / (0.05f64.powi(2) + 0.025f64.powi(2));
        assert!(
            (irr / expect).ln().abs() < 0.3,
            "IRR {irr}, expected ~{expect}"
        );
    }

    #[test]
    fn no_imbalance_is_identity() {
        let mut x = vec![C64::new(0.3, -0.7); 8];
        let orig = x.clone();
        apply_iq_imbalance(&mut x, 0.0, 0.0);
        for (a, b) in x.iter().zip(&orig) {
            assert!(a.dist(*b) < 1e-12);
        }
    }

    #[test]
    fn dc_offset_shifts_mean() {
        let mut x = vec![C64::ZERO; 10];
        apply_dc_offset(&mut x, C64::new(0.1, -0.2));
        for v in &x {
            assert!(v.dist(C64::new(0.1, -0.2)) < 1e-12);
        }
    }

    #[test]
    fn quantizer_error_bounded_by_half_lsb() {
        let mut x: Vec<C64> = (0..1000)
            .map(|i| C64::new((i as f64 * 0.013).sin(), (i as f64 * 0.027).cos()))
            .collect();
        let orig = x.clone();
        quantize(&mut x, 12, 2.0);
        let lsb = 2.0 / (1 << 11) as f64;
        for (a, b) in x.iter().zip(&orig) {
            assert!((a.re - b.re).abs() <= lsb / 2.0 + 1e-12);
            assert!((a.im - b.im).abs() <= lsb / 2.0 + 1e-12);
        }
    }

    #[test]
    fn quantizer_saturates() {
        let mut x = vec![C64::new(10.0, -10.0)];
        quantize(&mut x, 8, 1.0);
        let max_code = 1.0 - 1.0 / 128.0;
        assert!((x[0].re - max_code).abs() < 1e-12);
        assert!((x[0].im + 1.0).abs() < 1e-12);
    }

    #[test]
    fn coarse_quantizer_is_lossy_but_decodable_snr() {
        // 12-bit quantization of a unit-power signal leaves ~70 dB SQNR —
        // far above any operating point in the experiments.
        let mut x: Vec<C64> = (0..4096).map(|i| C64::cis(i as f64 * 0.11) * 0.5).collect();
        let orig = x.clone();
        quantize(&mut x, 12, 2.0);
        let err: Vec<C64> = x.iter().zip(&orig).map(|(a, b)| *a - *b).collect();
        let sqnr = mimonet_dsp::stats::lin_to_db(
            mimonet_dsp::complex::mean_power(&orig) / mimonet_dsp::complex::mean_power(&err),
        );
        assert!(sqnr > 60.0, "SQNR {sqnr} dB");
    }
}
