//! T5 — SIMD/batch kernels before/after: the five vectorized inner
//! loops of the SIMD PR plus the multi-frame batch receive path, each
//! measured against the scalar implementation kept in-tree as its
//! equivalence oracle:
//!
//! 1. **fft64** — four-butterfly-per-lane stages ([`Fft::run_simd`]) vs
//!    the scalar butterflies ([`Fft::run_scalar`]).
//! 2. **correlate** — four-lags-per-lane SoA correlation
//!    ([`normalized_cross_correlate_simd_into`]) vs the scalar sliding
//!    window ([`normalized_cross_correlate_scalar_into`]).
//! 3. **demap** — four-symbols-per-lane soft demapping
//!    ([`Modulation::demap_soft_x4_into`]) vs four scalar
//!    [`Modulation::demap_soft_into`] calls.
//! 4. **viterbi_x4** — four frames through the state-parallel butterfly
//!    kernel ([`ViterbiDecoder::decode_soft_unterminated_into`]) vs four
//!    closure-driven [`viterbi_reference`] decodes.
//! 5. **detect_x4** — four-observations-per-lane linear detection
//!    ([`Prepared::apply_x4_into`]) vs four scalar
//!    [`Prepared::apply_into`] calls.
//!
//! Then the frame-level payoff: **batchN** rows compare the per-frame
//! cost of [`Receiver::receive_batch`] over N captures against N scalar
//! [`Receiver::receive_into`] calls, for N in {1, 2, 4, 8, 16} — the
//! batch-size curve. The N=8 row carries the acceptance target. The
//! Viterbi kernel is as fast for one frame as for many, so
//! `receive_batch` decodes frame by frame and these rows read ≈1.0×.
//!
//! Every pair is checked for *bit-identical* output before timing (the
//! contract the `tests/simd_equivalence.rs` proptests enforce); a
//! speedup over an implementation that computes something else is
//! meaningless.
//!
//! ```sh
//! cargo run --release -p mimonet-bench --features simd --bin bench_simd [--quick]
//! ```
//!
//! Writes `results/BENCH_simd.json`. With `MIMONET_DETERMINISTIC=1`
//! timing is skipped entirely and every wall-clock field (`*_ns`,
//! `speedup`, `wall_s`, `threads`) is omitted, so the report is a pure
//! function of the seed — the property the CI job diffs against
//! `results/golden/BENCH_simd.json`.

use mimonet::{Receiver, RxBatch, RxConfig, RxFrame, RxWorkspace, Transmitter, TxConfig};
use mimonet_bench::report::FigureReport;
use mimonet_bench::{seeds, BenchOpts};
use mimonet_channel::{ChannelConfig, ChannelSim};
use mimonet_detect::{prepare, CMat, DetectorKind, Prepared};
use mimonet_dsp::complex::Complex64;
use mimonet_dsp::correlate::{
    normalized_cross_correlate_scalar_into, normalized_cross_correlate_simd_into,
};
use mimonet_dsp::fft::Direction;
use mimonet_dsp::Fft;
use mimonet_fec::viterbi::reference as viterbi_reference;
use mimonet_fec::{ConvEncoder, ViterbiDecoder};
use mimonet_frame::Modulation;
use serde::{Serialize, Value};
use std::hint::black_box;
use std::time::Instant;

/// One before/after measurement (scalar vs lane path).
struct BenchRow {
    name: &'static str,
    /// Outputs produced per call — the throughput basis.
    work_items: u64,
    /// Whether the lane path is bit-identical to the scalar path.
    matches: bool,
    /// Best-of-reps mean per-call nanoseconds; `None` in deterministic
    /// mode. For `batchN` rows these are *per-frame* nanoseconds.
    before_ns: Option<f64>,
    after_ns: Option<f64>,
}

impl BenchRow {
    fn speedup(&self) -> Option<f64> {
        match (self.before_ns, self.after_ns) {
            (Some(b), Some(a)) if a > 0.0 => Some(b / a),
            _ => None,
        }
    }

    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("name", self.name.serialize()),
            ("work_items", self.work_items.serialize()),
            ("matches", self.matches.serialize()),
        ];
        if let (Some(b), Some(a)) = (self.before_ns, self.after_ns) {
            fields.push(("before_ns", b.serialize()));
            fields.push(("after_ns", a.serialize()));
            fields.push(("speedup", self.speedup().unwrap().serialize()));
        }
        Value::object(fields)
    }
}

/// Best-of-`reps` mean per-call nanoseconds over `iters` calls.
fn time_ns(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn complex_bits_eq(a: Complex64, b: Complex64) -> bool {
    bits_eq(a.re, b.re) && bits_eq(a.im, b.im)
}

fn bench_fft(det: bool, opts: &BenchOpts) -> BenchRow {
    // A slab of 64 data-symbol-sized transforms per call, fresh input
    // each time (an in-place transform re-run on its own output would
    // drift numerically).
    const N: usize = 64;
    const SLAB: usize = 64;
    let plan = Fft::new(N);
    let src: Vec<Complex64> = (0..N * SLAB)
        .map(|i| Complex64::cis(i as f64 * 0.61) * (1.0 + 0.05 * (i % 5) as f64))
        .collect();

    let mut a = src.clone();
    let mut b = src.clone();
    for k in 0..SLAB {
        plan.run_scalar(&mut a[k * N..(k + 1) * N], Direction::Forward);
        plan.run_simd(&mut b[k * N..(k + 1) * N], Direction::Forward);
    }
    let matches = a.iter().zip(&b).all(|(x, y)| complex_bits_eq(*x, *y));

    let mut buf = vec![Complex64::ZERO; N * SLAB];
    let (before_ns, after_ns) = if det {
        (None, None)
    } else {
        let iters = opts.count(2000, 200);
        (
            Some(time_ns(3, iters, || {
                buf.copy_from_slice(&src);
                for k in 0..SLAB {
                    plan.run_scalar(&mut buf[k * N..(k + 1) * N], Direction::Forward);
                }
                black_box(buf[0].re);
            })),
            Some(time_ns(3, iters, || {
                buf.copy_from_slice(&src);
                for k in 0..SLAB {
                    plan.run_simd(&mut buf[k * N..(k + 1) * N], Direction::Forward);
                }
                black_box(buf[0].re);
            })),
        )
    };
    BenchRow {
        name: "fft64",
        work_items: (N * SLAB) as u64,
        matches,
        before_ns,
        after_ns,
    }
}

fn bench_correlate(det: bool, opts: &BenchOpts) -> BenchRow {
    // STF-search shape: a long capture scanned with a short preamble
    // pattern. Lanes are lags, so both paths fold in the same k order.
    let sig: Vec<Complex64> = (0..4096)
        .map(|i| Complex64::cis(i as f64 * 0.37) * (1.0 + 0.1 * (i % 7) as f64))
        .collect();
    let pat: Vec<Complex64> = sig[512..576].to_vec();

    let mut a = Vec::new();
    let mut b = Vec::new();
    normalized_cross_correlate_scalar_into(&sig, &pat, &mut a);
    normalized_cross_correlate_simd_into(&sig, &pat, &mut b);
    let matches = a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| bits_eq(*x, *y));

    let mut out = Vec::new();
    let (before_ns, after_ns) = if det {
        (None, None)
    } else {
        let iters = opts.count(300, 30);
        (
            Some(time_ns(3, iters, || {
                normalized_cross_correlate_scalar_into(&sig, &pat, &mut out);
                black_box(out.len());
            })),
            Some(time_ns(3, iters, || {
                normalized_cross_correlate_simd_into(&sig, &pat, &mut out);
                black_box(out.len());
            })),
        )
    };
    BenchRow {
        name: "correlate",
        work_items: a.len() as u64,
        matches,
        before_ns,
        after_ns,
    }
}

fn bench_demap(det: bool, opts: &BenchOpts) -> BenchRow {
    // 64-QAM, the widest axis scan. 512 symbol quads per call.
    const QUADS: usize = 512;
    let m = Modulation::Qam64;
    let bp = m.bits_per_symbol();
    let nv = 0.02;
    let ys: Vec<[Complex64; 4]> = (0..QUADS)
        .map(|q| {
            let mut quad = [Complex64::ZERO; 4];
            for (lane, y) in quad.iter_mut().enumerate() {
                let i = q * 4 + lane;
                *y = Complex64::cis(i as f64 * 0.913) * (0.4 + 0.9 * ((i % 11) as f64 / 10.0));
            }
            quad
        })
        .collect();

    let mut scalar_llrs = vec![0.0f64; QUADS * 4 * bp];
    let mut lane_llrs = vec![0.0f64; QUADS * 4 * bp];
    for (q, quad) in ys.iter().enumerate() {
        for (lane, &y) in quad.iter().enumerate() {
            let at = (q * 4 + lane) * bp;
            m.demap_soft_into(y, nv, &mut scalar_llrs[at..at + bp]);
        }
        let base = q * 4 * bp;
        let (o0, rest) = lane_llrs[base..base + 4 * bp].split_at_mut(bp);
        let (o1, rest) = rest.split_at_mut(bp);
        let (o2, o3) = rest.split_at_mut(bp);
        let _ = m.demap_soft_x4_into(*quad, nv, [o0, o1, o2, o3]);
    }
    let matches = scalar_llrs
        .iter()
        .zip(&lane_llrs)
        .all(|(x, y)| bits_eq(*x, *y));

    let mut out = vec![0.0f64; 4 * bp];
    let (before_ns, after_ns) = if det {
        (None, None)
    } else {
        let iters = opts.count(500, 50);
        (
            Some(time_ns(3, iters, || {
                for quad in &ys {
                    for (lane, &y) in quad.iter().enumerate() {
                        m.demap_soft_into(y, nv, &mut out[lane * bp..(lane + 1) * bp]);
                    }
                }
                black_box(out[0]);
            })),
            Some(time_ns(3, iters, || {
                for quad in &ys {
                    let (o0, rest) = out.split_at_mut(bp);
                    let (o1, rest) = rest.split_at_mut(bp);
                    let (o2, o3) = rest.split_at_mut(bp);
                    let _ = m.demap_soft_x4_into(*quad, nv, [o0, o1, o2, o3]);
                }
                black_box(out[0]);
            })),
        )
    };
    BenchRow {
        name: "demap",
        work_items: (QUADS * 4 * bp) as u64,
        matches,
        before_ns,
        after_ns,
    }
}

fn bench_viterbi_x4(det: bool, opts: &BenchOpts) -> BenchRow {
    // Four coded frames of 1500 data bits.
    let streams: Vec<Vec<f64>> = (0..4usize)
        .map(|lane| {
            let data: Vec<u8> = (0..1500)
                .map(|i: usize| (((i + 311 * lane) * 1103515245 + 12345) >> 16 & 1) as u8)
                .collect();
            ConvEncoder::new()
                .encode(&data)
                .iter()
                .enumerate()
                .map(|(i, &b)| {
                    let mag = 3.5 + 0.5 * ((i % 9) as f64 / 8.0);
                    if b == 0 {
                        mag
                    } else {
                        -mag
                    }
                })
                .collect()
        })
        .collect();

    let mut dec = ViterbiDecoder::new();
    let mut out = Vec::new();
    let matches = streams.iter().all(|s| {
        dec.decode_soft_unterminated_into(s, &mut out).unwrap();
        out == viterbi_reference::decode_soft_unterminated(s).unwrap()
    });

    let (before_ns, after_ns) = if det {
        (None, None)
    } else {
        let iters = opts.count(30, 3);
        (
            Some(time_ns(3, iters, || {
                for s in &streams {
                    black_box(viterbi_reference::decode_soft_unterminated(s).unwrap());
                }
            })),
            Some(time_ns(3, iters, || {
                for s in &streams {
                    dec.decode_soft_unterminated_into(s, &mut out).unwrap();
                }
                black_box(out.len());
            })),
        )
    };
    BenchRow {
        name: "viterbi_x4",
        work_items: streams.iter().map(|s| s.len() as u64).sum(),
        matches,
        before_ns,
        after_ns,
    }
}

fn bench_detect_x4(det: bool, opts: &BenchOpts) -> BenchRow {
    // 2x2 MMSE + 64-QAM across 256 observation quads — the per-carrier
    // inner loop of the blocked data-symbol path.
    const QUADS: usize = 256;
    let h = CMat::new(
        2,
        2,
        [
            Complex64::new(0.92, 0.11),
            Complex64::new(0.21, -0.33),
            Complex64::new(-0.27, 0.18),
            Complex64::new(1.04, -0.06),
        ],
    );
    let prep: Prepared = prepare(DetectorKind::Mmse, &h, 0.01, Modulation::Qam64).unwrap();
    let n_ss = 2usize;
    let bp = Modulation::Qam64.bits_per_symbol();
    let ys: Vec<[Complex64; 2]> = (0..QUADS * 4)
        .map(|i| {
            [
                Complex64::cis(i as f64 * 0.71) * (0.5 + 0.6 * ((i % 13) as f64 / 12.0)),
                Complex64::cis(i as f64 * 1.13) * (0.5 + 0.6 * ((i % 17) as f64 / 16.0)),
            ]
        })
        .collect();

    let mut scalar_syms = vec![Complex64::ZERO; QUADS * 4 * n_ss];
    let mut scalar_llrs = vec![0.0f64; QUADS * 4 * n_ss * bp];
    for (i, y) in ys.iter().enumerate() {
        prep.apply_into(
            y,
            &mut scalar_syms[i * n_ss..(i + 1) * n_ss],
            &mut scalar_llrs[i * n_ss * bp..(i + 1) * n_ss * bp],
        );
    }
    let mut lane_syms = vec![Complex64::ZERO; QUADS * 4 * n_ss];
    let mut lane_llrs = vec![0.0f64; QUADS * 4 * n_ss * bp];
    for q in 0..QUADS {
        let i = q * 4;
        let (s0, rest) = lane_syms[i * n_ss..(i + 4) * n_ss].split_at_mut(n_ss);
        let (s1, rest) = rest.split_at_mut(n_ss);
        let (s2, s3) = rest.split_at_mut(n_ss);
        let (l0, rest) = lane_llrs[i * n_ss * bp..(i + 4) * n_ss * bp].split_at_mut(n_ss * bp);
        let (l1, rest) = rest.split_at_mut(n_ss * bp);
        let (l2, l3) = rest.split_at_mut(n_ss * bp);
        prep.apply_x4_into(
            [&ys[i], &ys[i + 1], &ys[i + 2], &ys[i + 3]],
            [s0, s1, s2, s3],
            [l0, l1, l2, l3],
        );
    }
    let matches = scalar_syms
        .iter()
        .zip(&lane_syms)
        .all(|(x, y)| complex_bits_eq(*x, *y))
        && scalar_llrs
            .iter()
            .zip(&lane_llrs)
            .all(|(x, y)| bits_eq(*x, *y));

    let mut syms = vec![Complex64::ZERO; 4 * n_ss];
    let mut llrs = vec![0.0f64; 4 * n_ss * bp];
    let (before_ns, after_ns) = if det {
        (None, None)
    } else {
        let iters = opts.count(500, 50);
        (
            Some(time_ns(3, iters, || {
                for (i, y) in ys.iter().enumerate() {
                    let lane = i % 4;
                    prep.apply_into(
                        y,
                        &mut syms[lane * n_ss..(lane + 1) * n_ss],
                        &mut llrs[lane * n_ss * bp..(lane + 1) * n_ss * bp],
                    );
                }
                black_box(llrs[0]);
            })),
            Some(time_ns(3, iters, || {
                for q in 0..QUADS {
                    let i = q * 4;
                    let (s0, rest) = syms.split_at_mut(n_ss);
                    let (s1, rest) = rest.split_at_mut(n_ss);
                    let (s2, s3) = rest.split_at_mut(n_ss);
                    let (l0, rest) = llrs.split_at_mut(n_ss * bp);
                    let (l1, rest) = rest.split_at_mut(n_ss * bp);
                    let (l2, l3) = rest.split_at_mut(n_ss * bp);
                    prep.apply_x4_into(
                        [&ys[i], &ys[i + 1], &ys[i + 2], &ys[i + 3]],
                        [s0, s1, s2, s3],
                        [l0, l1, l2, l3],
                    );
                }
                black_box(llrs[0]);
            })),
        )
    };
    BenchRow {
        name: "detect_x4",
        work_items: (QUADS * 4) as u64,
        matches,
        before_ns,
        after_ns,
    }
}

/// One `batchN` row: per-frame cost of `receive_batch` over `n` captures
/// vs `n` scalar `receive_into` calls on the same captures.
fn bench_batch(n: usize, det: bool, opts: &BenchOpts) -> BenchRow {
    let tx = Transmitter::new(TxConfig::new(9).unwrap());
    let mut captures: Vec<Vec<Vec<Complex64>>> = Vec::new();
    for k in 0..n {
        let psdu: Vec<u8> = (0..300).map(|i| (i + 29 * k) as u8).collect();
        let mut streams = tx.transmit(&psdu).unwrap();
        for s in &mut streams {
            let mut p = vec![Complex64::ZERO; 160];
            p.extend_from_slice(s);
            p.extend(vec![Complex64::ZERO; 400]);
            *s = p;
        }
        let mut chan = ChannelSim::new(ChannelConfig::awgn(2, 2, 30.0), seeds::SIMD ^ k as u64);
        let (noisy, _) = chan.apply(&streams);
        captures.push(noisy);
    }
    let views: Vec<Vec<&[Complex64]>> = captures
        .iter()
        .map(|c| c.iter().map(|s| s.as_slice()).collect())
        .collect();

    let rx = Receiver::new(RxConfig::new(2));
    let mut ws = RxWorkspace::new();
    let mut frame = RxFrame::default();
    let mut want: Vec<RxFrame> = Vec::new();
    for v in &views {
        rx.receive_into(v, &mut ws, &mut frame).expect("decodes");
        want.push(frame.clone());
    }
    let mut batch = RxBatch::new();
    rx.receive_batch(&captures, &mut ws, &mut batch);
    let matches = (0..n).all(|i| batch.result(i).map(|f| f == &want[i]).unwrap_or(false));

    let (before_ns, after_ns) = if det {
        (None, None)
    } else {
        let iters = opts.count((160 / n).max(4), (16 / n).max(2));
        (
            Some(
                time_ns(3, iters, || {
                    for v in &views {
                        rx.receive_into(v, &mut ws, &mut frame).unwrap();
                        black_box(frame.psdu.len());
                    }
                }) / n as f64,
            ),
            Some(
                time_ns(3, iters, || {
                    rx.receive_batch(&captures, &mut ws, &mut batch);
                    black_box(batch.len());
                }) / n as f64,
            ),
        )
    };
    BenchRow {
        name: match n {
            1 => "batch1",
            2 => "batch2",
            4 => "batch4",
            8 => "batch8",
            16 => "batch16",
            _ => unreachable!("unlisted batch size"),
        },
        work_items: n as u64,
        matches,
        before_ns,
        after_ns,
    }
}

fn main() {
    let opts = BenchOpts::from_args();
    let mut report = FigureReport::new(
        "BENCH_simd",
        "SIMD/batch kernels before/after: lane FFT, SoA correlation, x4 demap/Viterbi/detect, multi-frame receive_batch",
        "benchmark index",
        seeds::SIMD,
        &opts,
    );
    let det = report.is_deterministic();

    let mut rows = vec![
        bench_fft(det, &opts),
        bench_correlate(det, &opts),
        bench_demap(det, &opts),
        bench_viterbi_x4(det, &opts),
        bench_detect_x4(det, &opts),
    ];
    let kernel_rows = rows.len();
    for n in [1usize, 2, 4, 8, 16] {
        rows.push(bench_batch(n, det, &opts));
    }

    println!("# T5: SIMD/batch kernels before/after (best-of-3, release)");
    if det {
        println!("{:<10} {:>10} {:>10}", "bench", "items", "matches");
        for r in &rows {
            println!("{:<10} {:>10} {:>10}", r.name, r.work_items, r.matches);
        }
    } else {
        println!(
            "{:<10} {:>10} {:>12} {:>12} {:>8}",
            "bench", "items", "before_us", "after_us", "speedup"
        );
        for r in &rows {
            println!(
                "{:<10} {:>10} {:>12.1} {:>12.1} {:>7.2}x",
                r.name,
                r.work_items,
                r.before_ns.unwrap() / 1e3,
                r.after_ns.unwrap() / 1e3,
                r.speedup().unwrap()
            );
        }
        let geomean = rows[..kernel_rows]
            .iter()
            .map(|r| r.speedup().unwrap().ln())
            .sum::<f64>()
            .exp()
            .powf(1.0 / kernel_rows as f64);
        println!("kernel speedup geomean: {geomean:.2}x");
        report.meta("kernel_geomean_speedup", geomean.serialize());
    }
    for r in &rows {
        assert!(r.matches, "{}: scalar/lane outputs must agree", r.name);
    }

    let x: Vec<f64> = (0..rows.len()).map(|i| i as f64).collect();
    let y: Vec<f64> = rows
        .iter()
        .map(|r| f64::from(u8::from(r.matches)))
        .collect();
    report.series("outputs_match", &x, &y);
    report.meta("bench_labels", Value::array(rows.iter().map(|r| r.name)));
    report.meta(
        "benches",
        Value::Array(rows.iter().map(BenchRow::to_value).collect()),
    );
    report.meta(
        "targets",
        Value::object([
            ("kernel_min_geomean_speedup", 1.5f64.serialize()),
            ("batch8_min_speedup", 1.15f64.serialize()),
        ]),
    );
    report.finish();
}
