//! Viterbi decoding for the K=7 (133, 171) convolutional code.
//!
//! Two front ends share one trellis kernel ([`ViterbiDecoder`]):
//!
//! * [`decode_hard`] takes hard bits (0/1) and decides exactly as Hamming
//!   branch metrics would;
//! * [`decode_soft`] takes log-likelihood ratios (LLRs, positive ⇒ bit 0
//!   more likely, the convention produced by `mimonet-detect`'s demappers)
//!   and uses correlation branch metrics, which is the max-likelihood
//!   metric for BPSK-like per-bit channels.
//!
//! Punctured positions are passed as *erasures*: [`Symbol::Erased`] for hard
//! input, LLR 0.0 for soft input — both contribute nothing to any branch
//! metric, which is exactly the ML treatment of depunctured bits.
//!
//! Decoding is block-oriented with a terminated trellis (six zero tail bits,
//! as produced by [`crate::conv::encode_terminated`]); `decode_*` returns the
//! data bits *without* the tail.

// Index-based loops here are the clearer expression of the math
// (matrix/carrier indexing); silence the iterator-style suggestion.
#![allow(clippy::needless_range_loop)]
use crate::conv::{encode_step, NUM_STATES, TAIL_BITS};

/// One received coded bit for hard-decision decoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Symbol {
    /// A received hard bit.
    Bit(u8),
    /// A punctured (never transmitted) position.
    Erased,
}

impl Symbol {
    /// Wraps a 0/1 bit.
    pub fn bit(b: u8) -> Self {
        debug_assert!(b <= 1);
        Symbol::Bit(b)
    }
}

/// Errors from the decoder front ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViterbiError {
    /// Input length is odd — the rate-1/2 mother code emits bit pairs.
    OddLength(usize),
    /// Input is shorter than the six tail-bit pairs.
    TooShort(usize),
}

impl std::fmt::Display for ViterbiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViterbiError::OddLength(n) => {
                write!(f, "coded input length {n} is odd; expected (A,B) pairs")
            }
            ViterbiError::TooShort(n) => {
                write!(f, "coded input length {n} too short for a terminated block")
            }
        }
    }
}

impl std::error::Error for ViterbiError {}

const NEG: f64 = f64::NEG_INFINITY;

/// Butterflies per trellis step: states `2j` and `2j + 1` feed states `j`
/// (input 0) and `j + 32` (input 1), because the encoder shifts right
/// (`next = (bit << 5) | (s >> 1)`).
const BUTTERFLIES: usize = NUM_STATES / 2;

/// Branch-metric masks for two adjacent butterflies, one per lane.
///
/// Both generators tap both ends of the shift register, so flipping the
/// input bit or the state's oldest bit flips both output bits. Branch
/// `(2j + 1, b)` therefore carries the negated reward of branch `(2j, b)`,
/// and so does `(2j, 1)` against `(2j, 0)`: the four branches of
/// butterfly `j` carry `±β_j` with `β_j = bm(2j, 0)`. Per step the reward
/// of output pair `(a, b)` is `u = r_a(0) + r_b(0)` for `(0, 0)`,
/// `v = r_a(0) + r_b(1)` for `(0, 1)`, and exactly `−v` and `−u` for
/// `(1, 0)` and `(1, 1)` (IEEE rounding is sign-symmetric; only the sign
/// of a zero sum can differ, which no comparison sees), so `β_j` is `u`
/// or `v` (`use_v` lanes all ones) with the sign bit in `negate` flipped.
#[derive(Clone, Copy)]
struct ButterflyMasks {
    use_v: [u64; 2],
    negate: [u64; 2],
}

const BUTTERFLY_MASKS: [ButterflyMasks; BUTTERFLIES / 2] = butterfly_masks();

const fn butterfly_masks() -> [ButterflyMasks; BUTTERFLIES / 2] {
    let mut masks = [ButterflyMasks {
        use_v: [0; 2],
        negate: [0; 2],
    }; BUTTERFLIES / 2];
    let mut j = 0;
    while j < BUTTERFLIES {
        let s = 2 * j as u8;
        let (a, b, next) = encode_step(s, 0);
        // The butterfly structure the kernel is written for, checked at
        // compile time against the encoder.
        let (a1, b1, next1) = encode_step(s + 1, 0);
        let (a2, b2, next2) = encode_step(s, 1);
        let (a3, b3, next3) = encode_step(s + 1, 1);
        assert!(next as usize == j && next1 as usize == j);
        assert!(next2 as usize == j + BUTTERFLIES && next3 as usize == j + BUTTERFLIES);
        assert!(a1 != a && b1 != b && a2 != a && b2 != b && a3 == a && b3 == b);
        if a != b {
            masks[j / 2].use_v[j % 2] = u64::MAX;
        }
        if a == 1 {
            masks[j / 2].negate[j % 2] = 1 << 63;
        }
        j += 1;
    }
    masks
}

/// Two adjacent butterflies' metrics, one butterfly per lane. Lanes never
/// mix, and every lane performs exactly the IEEE operation the scalar
/// formulation names.
trait Lanes: Copy {
    fn splat(x: f64) -> Self;
    /// Loads `m[i..i + 4]` as the even states `(m[i], m[i + 2])` and the
    /// odd states `(m[i + 1], m[i + 3])` of two butterflies.
    fn load_even_odd(m: &[f64; NUM_STATES], i: usize) -> (Self, Self);
    /// Stores the lanes to `m[i..i + 2]`.
    fn store(self, m: &mut [f64; NUM_STATES], i: usize);
    fn add(self, b: Self) -> Self;
    fn sub(self, b: Self) -> Self;
    /// `if self > b { self } else { b }`, lane-wise: a NaN `self` yields `b`.
    fn select_gt(self, b: Self) -> Self;
    /// Bit `l` set where lane `l` of `self > b`.
    fn gt_bits(self, b: Self) -> u64;
    /// `β` per lane: `v` where `use_v` is set, else `u`, sign bit flipped
    /// where `negate` is set.
    fn branch(u: Self, v: Self, mask: &ButterflyMasks) -> Self;
}

/// The portable lanes: plain arrays, element-wise. On x86-64 only the
/// tests run them, against the SSE2 lanes and the oracle.
#[cfg_attr(
    all(target_arch = "x86_64", target_feature = "sse2", not(test)),
    allow(dead_code)
)]
#[derive(Clone, Copy)]
struct PortableLanes([f64; 2]);

impl PortableLanes {
    #[inline(always)]
    fn zip(self, b: Self, f: impl Fn(f64, f64) -> f64) -> Self {
        Self([f(self.0[0], b.0[0]), f(self.0[1], b.0[1])])
    }
}

impl Lanes for PortableLanes {
    #[inline(always)]
    fn splat(x: f64) -> Self {
        Self([x; 2])
    }

    #[inline(always)]
    fn load_even_odd(m: &[f64; NUM_STATES], i: usize) -> (Self, Self) {
        (Self([m[i], m[i + 2]]), Self([m[i + 1], m[i + 3]]))
    }

    #[inline(always)]
    fn store(self, m: &mut [f64; NUM_STATES], i: usize) {
        m[i..i + 2].copy_from_slice(&self.0);
    }

    #[inline(always)]
    fn add(self, b: Self) -> Self {
        self.zip(b, |x, y| x + y)
    }

    #[inline(always)]
    fn sub(self, b: Self) -> Self {
        self.zip(b, |x, y| x - y)
    }

    #[inline(always)]
    fn select_gt(self, b: Self) -> Self {
        self.zip(b, |x, y| if x > y { x } else { y })
    }

    #[inline(always)]
    fn gt_bits(self, b: Self) -> u64 {
        (self.0[0] > b.0[0]) as u64 | ((self.0[1] > b.0[1]) as u64) << 1
    }

    #[inline(always)]
    fn branch(u: Self, v: Self, mask: &ButterflyMasks) -> Self {
        Self(std::array::from_fn(|l| {
            let pick = (u.0[l].to_bits() & !mask.use_v[l]) | (v.0[l].to_bits() & mask.use_v[l]);
            f64::from_bits(pick ^ mask.negate[l])
        }))
    }
}

/// SSE2 lanes. SSE2 is part of the x86-64 baseline, so this is chosen at
/// compile time — there is no runtime CPU detection.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
#[derive(Clone, Copy)]
struct Sse2Lanes(std::arch::x86_64::__m128d);

#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
impl Lanes for Sse2Lanes {
    #[inline(always)]
    fn splat(x: f64) -> Self {
        use std::arch::x86_64::*;
        // SAFETY: SSE2 is enabled for the whole build.
        Self(unsafe { _mm_set1_pd(x) })
    }

    #[inline(always)]
    fn load_even_odd(m: &[f64; NUM_STATES], i: usize) -> (Self, Self) {
        use std::arch::x86_64::*;
        let quad = &m[i..i + 4];
        // SAFETY: SSE2 is enabled for the whole build (the `cfg` on this
        // impl); the two unaligned loads read the four elements of `quad`.
        unsafe {
            let lo = _mm_loadu_pd(quad.as_ptr());
            let hi = _mm_loadu_pd(quad.as_ptr().add(2));
            (Self(_mm_unpacklo_pd(lo, hi)), Self(_mm_unpackhi_pd(lo, hi)))
        }
    }

    #[inline(always)]
    fn store(self, m: &mut [f64; NUM_STATES], i: usize) {
        use std::arch::x86_64::*;
        let pair = &mut m[i..i + 2];
        // SAFETY: SSE2 is enabled for the whole build; the unaligned store
        // writes the two elements of `pair`.
        unsafe { _mm_storeu_pd(pair.as_mut_ptr(), self.0) };
    }

    #[inline(always)]
    fn add(self, b: Self) -> Self {
        use std::arch::x86_64::*;
        // SAFETY: SSE2 is enabled for the whole build.
        Self(unsafe { _mm_add_pd(self.0, b.0) })
    }

    #[inline(always)]
    fn sub(self, b: Self) -> Self {
        use std::arch::x86_64::*;
        // SAFETY: SSE2 is enabled for the whole build.
        Self(unsafe { _mm_sub_pd(self.0, b.0) })
    }

    #[inline(always)]
    fn select_gt(self, b: Self) -> Self {
        use std::arch::x86_64::*;
        // MAXPD returns its first operand only where it compares greater,
        // and its second operand otherwise — NaN and equal lanes included.
        // SAFETY: SSE2 is enabled for the whole build.
        Self(unsafe { _mm_max_pd(self.0, b.0) })
    }

    #[inline(always)]
    fn gt_bits(self, b: Self) -> u64 {
        use std::arch::x86_64::*;
        // SAFETY: SSE2 is enabled for the whole build.
        unsafe { _mm_movemask_pd(_mm_cmpgt_pd(self.0, b.0)) as u64 }
    }

    #[inline(always)]
    fn branch(u: Self, v: Self, mask: &ButterflyMasks) -> Self {
        use std::arch::x86_64::*;
        // SAFETY: SSE2 is enabled for the whole build; each unaligned load
        // reads one 16-byte mask array.
        unsafe {
            let use_v = _mm_castsi128_pd(_mm_loadu_si128(mask.use_v.as_ptr().cast()));
            let negate = _mm_castsi128_pd(_mm_loadu_si128(mask.negate.as_ptr().cast()));
            let pick = _mm_or_pd(_mm_and_pd(use_v, v.0), _mm_andnot_pd(use_v, u.0));
            Self(_mm_xor_pd(pick, negate))
        }
    }
}

/// The lanes the decoder runs on this target.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
type NativeLanes = Sse2Lanes;
#[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
type NativeLanes = PortableLanes;

/// One add-compare-select step over all 64 states: `metric` → `next`,
/// given this step's output-pair rewards `u` and `v` (see
/// [`ButterflyMasks`]). Returns the decision word: bit `s` is set when
/// target state `s` took its survivor from the odd predecessor
/// `2·(s & 31) + 1`.
///
/// Each target state compares its two candidates in the order the scalar
/// forward sweep visits them — even predecessor first, against the initial
/// `−inf`, then odd predecessor against the result, both strictly — so
/// metrics, decisions and tie-breaks equal the scatter formulation's. A
/// `−inf` predecessor yields a `−inf` or NaN candidate, which never wins,
/// exactly like the sweep skipping it.
#[inline(always)]
fn acs_step<L: Lanes>(
    metric: &[f64; NUM_STATES],
    next: &mut [f64; NUM_STATES],
    u: f64,
    v: f64,
) -> u64 {
    let (u, v, neg) = (L::splat(u), L::splat(v), L::splat(NEG));
    let compare_select = |c0: L, c1: L| {
        let m0 = c0.select_gt(neg);
        (c1.select_gt(m0), c1.gt_bits(m0))
    };
    let mut decisions = 0u64;
    for (p, mask) in BUTTERFLY_MASKS.iter().enumerate() {
        let j = 2 * p;
        let (even, odd) = L::load_even_odd(metric, 2 * j);
        let beta = L::branch(u, v, mask);
        let (m, d) = compare_select(even.add(beta), odd.sub(beta));
        m.store(next, j);
        decisions |= d << j;
        let (m, d) = compare_select(even.sub(beta), odd.add(beta));
        m.store(next, BUTTERFLIES + j);
        decisions |= d << (BUTTERFLIES + j);
    }
    decisions
}

/// Hard symbol as a correlation LLR: `+1` / `−1` for a received 0 / 1,
/// `0` for an erasure (or any other byte, which matches neither
/// hypothesis). The resulting `±½` rewards differ from the Hamming
/// metric's `1 / 0` by the same constant on every branch of a step, and
/// all sums are exact in f64, so decisions and ties are the Hamming
/// decoder's.
fn hard_llr(s: &Symbol) -> f64 {
    match s {
        Symbol::Bit(0) => 1.0,
        Symbol::Bit(1) => -1.0,
        _ => 0.0,
    }
}

/// Checks an input length and returns its trellis step count; terminated
/// blocks must hold at least the tail.
fn step_count(len: usize, terminated: bool) -> Result<usize, ViterbiError> {
    if !len.is_multiple_of(2) {
        return Err(ViterbiError::OddLength(len));
    }
    let steps = len / 2;
    if terminated && steps < TAIL_BITS {
        return Err(ViterbiError::TooShort(len));
    }
    Ok(steps)
}

/// A reusable Viterbi decoder: one state-parallel butterfly kernel for
/// hard and soft input.
///
/// Each trellis step is one [`acs_step`] over two-state SIMD lanes (SSE2
/// on x86-64) and stores one decision bit per state — eight bytes per
/// step. Hard input runs the same kernel on `±1 / 0` LLRs. Decoded bits
/// are identical to the closure-driven search kept in [`reference`],
/// for every f64 input including ±0, subnormals, infinities and NaN.
///
/// Buffers grow to the largest block seen and are then reused; decoding a
/// warmed decoder into a warmed output vector performs no heap allocation.
#[derive(Clone, Debug, Default)]
pub struct ViterbiDecoder {
    /// Per step, the [`acs_step`] decision word.
    decisions: Vec<u64>,
    /// Hard symbols mapped by [`hard_llr`].
    hard_llrs: Vec<f64>,
}

impl ViterbiDecoder {
    /// Creates a decoder with empty scratch buffers (they grow on first
    /// use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Trellis search over `llrs.len() / 2` steps; the decoded input bits
    /// replace `out`'s contents.
    fn search<L: Lanes>(&mut self, llrs: &[f64], terminated: bool, out: &mut Vec<u8>) {
        let mut a = [NEG; NUM_STATES];
        a[0] = 0.0; // encoder starts in the zero state
        let mut b = [NEG; NUM_STATES];
        let (mut metric, mut next) = (&mut a, &mut b);
        self.decisions.clear();
        for pair in llrs.chunks_exact(2) {
            // The reward table's operands, in its order: `+llr/2` for
            // hypothesis 0, `−llr/2` for 1.
            let a0 = 0.5 * pair[0];
            let b0 = 0.5 * pair[1];
            let b1 = -0.5 * pair[1];
            self.decisions
                .push(acs_step::<L>(metric, next, a0 + b0, a0 + b1));
            std::mem::swap(&mut metric, &mut next);
        }

        // Final state: zero for terminated blocks, otherwise best metric
        // (the last of equal maxima; metrics are never NaN).
        let mut state = if terminated {
            0usize
        } else {
            metric
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("metrics are never NaN"))
                .map(|(i, _)| i)
                .unwrap_or(0)
        };

        // A dead state — one no branch survived into, metric `−inf` —
        // keeps the scatter formulation's initial survivor: state 0, input
        // bit 0. For state 0 that is exactly what the decision rule below
        // yields (a dead state's decision bit is 0), and a live state's
        // survivor is live (a candidate above `−inf` needs a predecessor
        // above `−inf`). So the only other dead state a traceback can meet
        // is its start, when every final metric is `−inf` and the argmax
        // picked state 63: starting from state 0 emits the same bits.
        if metric[state] == NEG {
            state = 0;
        }
        out.clear();
        out.resize(self.decisions.len(), 0);
        for t in (0..self.decisions.len()).rev() {
            out[t] = (state >> 5) as u8;
            let odd = (self.decisions[t] >> state) & 1;
            state = ((state & (BUTTERFLIES - 1)) << 1) | odd as usize;
        }
    }

    fn decode_soft_with<L: Lanes>(
        &mut self,
        llrs: &[f64],
        terminated: bool,
        out: &mut Vec<u8>,
    ) -> Result<(), ViterbiError> {
        out.clear();
        let steps = step_count(llrs.len(), terminated)?;
        self.search::<L>(llrs, terminated, out);
        if terminated {
            out.truncate(steps - TAIL_BITS);
        }
        Ok(())
    }

    fn decode_hard_with<L: Lanes>(
        &mut self,
        coded: &[Symbol],
        terminated: bool,
        out: &mut Vec<u8>,
    ) -> Result<(), ViterbiError> {
        let mut llrs = std::mem::take(&mut self.hard_llrs);
        llrs.clear();
        llrs.extend(coded.iter().map(hard_llr));
        let res = self.decode_soft_with::<L>(&llrs, terminated, out);
        self.hard_llrs = llrs;
        res
    }

    /// [`decode_hard`] into a caller-owned vector (cleared first; capacity
    /// is reused).
    pub fn decode_hard_into(
        &mut self,
        coded: &[Symbol],
        out: &mut Vec<u8>,
    ) -> Result<(), ViterbiError> {
        self.decode_hard_with::<NativeLanes>(coded, true, out)
    }

    /// [`decode_hard_unterminated`] into a caller-owned vector (cleared
    /// first; capacity is reused).
    pub fn decode_hard_unterminated_into(
        &mut self,
        coded: &[Symbol],
        out: &mut Vec<u8>,
    ) -> Result<(), ViterbiError> {
        self.decode_hard_with::<NativeLanes>(coded, false, out)
    }

    /// [`decode_soft`] into a caller-owned vector (cleared first; capacity
    /// is reused).
    pub fn decode_soft_into(
        &mut self,
        llrs: &[f64],
        out: &mut Vec<u8>,
    ) -> Result<(), ViterbiError> {
        self.decode_soft_with::<NativeLanes>(llrs, true, out)
    }

    /// [`decode_soft_unterminated`] into a caller-owned vector (cleared
    /// first; capacity is reused).
    pub fn decode_soft_unterminated_into(
        &mut self,
        llrs: &[f64],
        out: &mut Vec<u8>,
    ) -> Result<(), ViterbiError> {
        self.decode_soft_with::<NativeLanes>(llrs, false, out)
    }
}

/// Runs `f` with a per-thread shared [`ViterbiDecoder`], so the free
/// `decode_*` functions reuse metric/survivor buffers across calls.
fn with_decoder<R>(f: impl FnOnce(&mut ViterbiDecoder) -> R) -> R {
    use std::cell::RefCell;
    thread_local! {
        static DECODER: RefCell<ViterbiDecoder> = RefCell::new(ViterbiDecoder::new());
    }
    DECODER.with(|d| f(&mut d.borrow_mut()))
}

/// Hard-decision decoding of a terminated block.
///
/// `coded` holds the (possibly depunctured) coded stream as
/// `[a0, b0, a1, b1, ...]` with erasures at punctured positions. Returns the
/// decoded data bits with the six tail bits stripped.
pub fn decode_hard(coded: &[Symbol]) -> Result<Vec<u8>, ViterbiError> {
    let mut out = Vec::new();
    with_decoder(|d| d.decode_hard_into(coded, &mut out))?;
    Ok(out)
}

/// Hard-decision decoding of an *unterminated* stream: the trellis may end
/// in any state (the survivor with the best metric wins) and **all** input
/// positions decode to output bits — nothing is stripped.
///
/// This is the mode for the 802.11 DATA field, whose six tail bits sit
/// between the PSDU and the scrambled pad bits, so the encoder does not
/// finish in the zero state.
pub fn decode_hard_unterminated(coded: &[Symbol]) -> Result<Vec<u8>, ViterbiError> {
    let mut out = Vec::new();
    with_decoder(|d| d.decode_hard_unterminated_into(coded, &mut out))?;
    Ok(out)
}

/// Soft-decision decoding of an unterminated stream; see
/// [`decode_hard_unterminated`].
pub fn decode_soft_unterminated(llrs: &[f64]) -> Result<Vec<u8>, ViterbiError> {
    let mut out = Vec::new();
    with_decoder(|d| d.decode_soft_unterminated_into(llrs, &mut out))?;
    Ok(out)
}

/// Soft-decision decoding of a terminated block.
///
/// `llrs[i]` is the log-likelihood ratio of coded bit `i`:
/// `log P(bit=0) - log P(bit=1)` (positive ⇒ 0 more likely). Punctured
/// positions must carry LLR `0.0`. Returns data bits without the tail.
pub fn decode_soft(llrs: &[f64]) -> Result<Vec<u8>, ViterbiError> {
    let mut out = Vec::new();
    with_decoder(|d| d.decode_soft_into(llrs, &mut out))?;
    Ok(out)
}

/// The pre-optimization closure-driven search, kept as the equivalence
/// oracle for the butterfly kernel (proptests here and in `tests/`) and as the
/// "before" side of the hot-path benchmark. Allocates fresh metric and
/// survivor buffers and invokes the reward closure twice per branch —
/// 256 calls per trellis step.
pub mod reference {
    use super::*;

    /// Precomputed trellis: for each (state, input bit) the next state and the
    /// index of the output pair `(a << 1) | b` into a per-step reward table.
    /// Built once lazily; 64 states is tiny.
    struct Trellis {
        // [state][input] -> index of the output pair (a, b) as (a << 1) | b.
        pair_idx: [[usize; 2]; NUM_STATES],
        // [state][input] -> next state.
        next: [[u8; 2]; NUM_STATES],
    }

    impl Trellis {
        fn new() -> Self {
            let mut pair_idx = [[0usize; 2]; NUM_STATES];
            let mut next = [[0u8; 2]; NUM_STATES];
            for s in 0..NUM_STATES {
                for bit in 0..2usize {
                    let (a, b, ns) = encode_step(s as u8, bit as u8);
                    pair_idx[s][bit] = ((a as usize) << 1) | b as usize;
                    next[s][bit] = ns;
                }
            }
            Self { pair_idx, next }
        }
    }

    fn trellis() -> &'static Trellis {
        use std::sync::OnceLock;
        static T: OnceLock<Trellis> = OnceLock::new();
        T.get_or_init(Trellis::new)
    }

    fn search(
        num_steps: usize,
        bit_reward: impl Fn(usize, u8) -> f64,
        terminated: bool,
    ) -> Vec<u8> {
        let tr = trellis();
        let mut metric = vec![NEG; NUM_STATES];
        metric[0] = 0.0;
        let mut survivor: Vec<[(u8, u8); NUM_STATES]> = Vec::with_capacity(num_steps);

        let mut next_metric = vec![NEG; NUM_STATES];
        for t in 0..num_steps {
            next_metric.fill(NEG);
            let mut surv = [(0u8, 0u8); NUM_STATES];
            for s in 0..NUM_STATES {
                let m = metric[s];
                if m == NEG {
                    continue;
                }
                for bit in 0..2usize {
                    let pair = tr.pair_idx[s][bit];
                    let (a, b) = ((pair >> 1) as u8, (pair & 1) as u8);
                    let ns = tr.next[s][bit] as usize;
                    let r = bit_reward(2 * t, a) + bit_reward(2 * t + 1, b);
                    let cand = m + r;
                    if cand > next_metric[ns] {
                        next_metric[ns] = cand;
                        surv[ns] = (s as u8, bit as u8);
                    }
                }
            }
            survivor.push(surv);
            std::mem::swap(&mut metric, &mut next_metric);
        }

        let mut state = if terminated {
            0usize
        } else {
            metric
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap_or(0)
        };

        let mut bits = vec![0u8; num_steps];
        for t in (0..num_steps).rev() {
            let (prev, bit) = survivor[t][state];
            bits[t] = bit;
            state = prev as usize;
        }
        bits
    }

    fn hard_reward(coded: &[Symbol]) -> impl Fn(usize, u8) -> f64 + '_ {
        |idx, hyp| match coded[idx] {
            Symbol::Erased => 0.0,
            Symbol::Bit(rx) => {
                if rx == hyp {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    fn soft_reward(llrs: &[f64]) -> impl Fn(usize, u8) -> f64 + '_ {
        |idx, hyp| {
            let l = llrs[idx];
            if hyp == 0 {
                0.5 * l
            } else {
                -0.5 * l
            }
        }
    }

    /// Reference counterpart of [`super::decode_hard`].
    pub fn decode_hard(coded: &[Symbol]) -> Result<Vec<u8>, ViterbiError> {
        if !coded.len().is_multiple_of(2) {
            return Err(ViterbiError::OddLength(coded.len()));
        }
        let steps = coded.len() / 2;
        if steps < TAIL_BITS {
            return Err(ViterbiError::TooShort(coded.len()));
        }
        let bits = search(steps, hard_reward(coded), true);
        Ok(bits[..steps - TAIL_BITS].to_vec())
    }

    /// Reference counterpart of [`super::decode_hard_unterminated`].
    pub fn decode_hard_unterminated(coded: &[Symbol]) -> Result<Vec<u8>, ViterbiError> {
        if !coded.len().is_multiple_of(2) {
            return Err(ViterbiError::OddLength(coded.len()));
        }
        let steps = coded.len() / 2;
        if steps == 0 {
            return Ok(Vec::new());
        }
        Ok(search(steps, hard_reward(coded), false))
    }

    /// Reference counterpart of [`super::decode_soft_unterminated`].
    pub fn decode_soft_unterminated(llrs: &[f64]) -> Result<Vec<u8>, ViterbiError> {
        if !llrs.len().is_multiple_of(2) {
            return Err(ViterbiError::OddLength(llrs.len()));
        }
        let steps = llrs.len() / 2;
        if steps == 0 {
            return Ok(Vec::new());
        }
        Ok(search(steps, soft_reward(llrs), false))
    }

    /// Reference counterpart of [`super::decode_soft`].
    pub fn decode_soft(llrs: &[f64]) -> Result<Vec<u8>, ViterbiError> {
        if !llrs.len().is_multiple_of(2) {
            return Err(ViterbiError::OddLength(llrs.len()));
        }
        let steps = llrs.len() / 2;
        if steps < TAIL_BITS {
            return Err(ViterbiError::TooShort(llrs.len()));
        }
        let bits = search(steps, soft_reward(llrs), true);
        Ok(bits[..steps - TAIL_BITS].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::encode_terminated;

    fn to_symbols(bits: &[u8]) -> Vec<Symbol> {
        bits.iter().map(|&b| Symbol::bit(b)).collect()
    }

    fn pattern(len: usize, seed: u64) -> Vec<u8> {
        // Small deterministic PRBS for tests.
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x & 1) as u8
            })
            .collect()
    }

    /// Deterministic f64 in [-4, 4] for LLR fuzzing.
    fn llr_pattern(len: usize, seed: u64) -> Vec<f64> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x & 0xFFFF) as f64 / 65535.0 - 0.5) * 8.0
            })
            .collect()
    }

    #[test]
    fn table_driven_matches_reference_hard_random_with_erasures() {
        for seed in 0..20u64 {
            let len = 2 * (TAIL_BITS + 4 + (seed as usize * 7) % 90);
            let bits = pattern(len, seed.wrapping_mul(0x9E37).wrapping_add(1));
            let mut syms = to_symbols(&bits);
            // Scatter erasures (including adjacent pairs) over the stream.
            for i in (seed as usize % 5..len).step_by(5 + (seed as usize % 3)) {
                syms[i] = Symbol::Erased;
            }
            assert_eq!(
                decode_hard(&syms).unwrap(),
                reference::decode_hard(&syms).unwrap(),
                "terminated hard, seed {seed}"
            );
            assert_eq!(
                decode_hard_unterminated(&syms).unwrap(),
                reference::decode_hard_unterminated(&syms).unwrap(),
                "unterminated hard, seed {seed}"
            );
        }
    }

    #[test]
    fn table_driven_matches_reference_soft_random() {
        for seed in 0..20u64 {
            let len = 2 * (TAIL_BITS + 2 + (seed as usize * 11) % 120);
            let mut llrs = llr_pattern(len, seed.wrapping_mul(0xC2B2).wrapping_add(3));
            // Zero LLRs model depunctured erasures.
            for i in (seed as usize % 4..len).step_by(6) {
                llrs[i] = 0.0;
            }
            assert_eq!(
                decode_soft(&llrs).unwrap(),
                reference::decode_soft(&llrs).unwrap(),
                "terminated soft, seed {seed}"
            );
            assert_eq!(
                decode_soft_unterminated(&llrs).unwrap(),
                reference::decode_soft_unterminated(&llrs).unwrap(),
                "unterminated soft, seed {seed}"
            );
        }
    }

    #[test]
    fn clean_roundtrip_hard() {
        let data = pattern(200, 42);
        let coded = encode_terminated(&data);
        let decoded = decode_hard(&to_symbols(&coded)).unwrap();
        assert_eq!(decoded, data);
    }

    #[test]
    fn clean_roundtrip_soft() {
        let data = pattern(177, 7);
        let coded = encode_terminated(&data);
        let llrs: Vec<f64> = coded
            .iter()
            .map(|&b| if b == 0 { 4.0 } else { -4.0 })
            .collect();
        let decoded = decode_soft(&llrs).unwrap();
        assert_eq!(decoded, data);
    }

    #[test]
    fn corrects_scattered_bit_errors() {
        // Free distance 10 ⇒ any 4 errors sufficiently separated correct.
        let data = pattern(120, 99);
        let mut coded = encode_terminated(&data);
        for &pos in &[5usize, 60, 130, 200] {
            coded[pos] ^= 1;
        }
        let decoded = decode_hard(&to_symbols(&coded)).unwrap();
        assert_eq!(decoded, data);
    }

    #[test]
    fn corrects_burst_of_four_within_capability() {
        let data = pattern(100, 3);
        let mut coded = encode_terminated(&data);
        // Four errors in a short span: within d_free/2 for this code only if
        // spread over ≥ the traceback span; use pairs 40,41 and 80,81.
        coded[40] ^= 1;
        coded[41] ^= 1;
        coded[80] ^= 1;
        coded[81] ^= 1;
        assert_eq!(decode_hard(&to_symbols(&coded)).unwrap(), data);
    }

    #[test]
    fn erasures_decode_like_punctured_bits() {
        let data = pattern(90, 17);
        let coded = encode_terminated(&data);
        let mut syms = to_symbols(&coded);
        // Erase every 6th coded bit (a rate-ish 6/5 puncture — well within
        // the code's margin on a clean channel).
        for i in (0..syms.len()).step_by(6) {
            syms[i] = Symbol::Erased;
        }
        assert_eq!(decode_hard(&syms).unwrap(), data);
    }

    #[test]
    fn soft_zero_llrs_at_punctures() {
        let data = pattern(90, 21);
        let coded = encode_terminated(&data);
        let mut llrs: Vec<f64> = coded
            .iter()
            .map(|&b| if b == 0 { 2.0 } else { -2.0 })
            .collect();
        for i in (0..llrs.len()).step_by(6) {
            llrs[i] = 0.0;
        }
        assert_eq!(decode_soft(&llrs).unwrap(), data);
    }

    #[test]
    fn soft_outperforms_hard_with_weak_bits() {
        // Flip three bits but mark them as low-confidence in the soft input;
        // soft decoding must recover, as must hard (3 < d_free/2), but a
        // soft decoder with *confidence* on correct bits and doubt on
        // errors converges with far fewer metric ties.
        let data = pattern(60, 5);
        let coded = encode_terminated(&data);
        let mut llrs: Vec<f64> = coded
            .iter()
            .map(|&b| if b == 0 { 5.0 } else { -5.0 })
            .collect();
        for &pos in &[10usize, 50, 90] {
            // wrong sign but small magnitude
            llrs[pos] = -llrs[pos].signum() * 0.2;
        }
        assert_eq!(decode_soft(&llrs).unwrap(), data);
    }

    #[test]
    fn empty_data_block() {
        // Only the 6 tail bits.
        let coded = encode_terminated(&[]);
        assert_eq!(coded.len(), 12);
        assert_eq!(decode_hard(&to_symbols(&coded)).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn error_cases() {
        assert_eq!(
            decode_hard(&[Symbol::bit(0)]),
            Err(ViterbiError::OddLength(1))
        );
        assert_eq!(
            decode_hard(&to_symbols(&[0, 0])),
            Err(ViterbiError::TooShort(2))
        );
        assert_eq!(decode_soft(&[0.0; 3]), Err(ViterbiError::OddLength(3)));
        assert_eq!(decode_soft(&[0.0; 4]), Err(ViterbiError::TooShort(4)));
    }

    #[test]
    fn unterminated_decodes_full_stream() {
        // Encode WITHOUT tail bits: the encoder ends in a data-dependent
        // state; the unterminated decoder must still recover everything.
        let data = pattern(150, 31);
        let coded = crate::conv::ConvEncoder::new().encode(&data);
        let got = decode_hard_unterminated(&to_symbols(&coded)).unwrap();
        assert_eq!(got, data);
        let llrs: Vec<f64> = coded
            .iter()
            .map(|&b| if b == 0 { 3.0 } else { -3.0 })
            .collect();
        assert_eq!(decode_soft_unterminated(&llrs).unwrap(), data);
    }

    #[test]
    fn unterminated_corrects_errors_midstream() {
        let data = pattern(150, 8);
        let mut coded = crate::conv::ConvEncoder::new().encode(&data);
        for &p in &[40usize, 120, 200] {
            coded[p] ^= 1;
        }
        assert_eq!(decode_hard_unterminated(&to_symbols(&coded)).unwrap(), data);
    }

    #[test]
    fn unterminated_empty_input() {
        assert_eq!(decode_hard_unterminated(&[]).unwrap(), Vec::<u8>::new());
        assert_eq!(decode_soft_unterminated(&[]).unwrap(), Vec::<u8>::new());
        assert_eq!(
            decode_soft_unterminated(&[1.0]),
            Err(ViterbiError::OddLength(1))
        );
    }

    /// The kernel on the given lanes, into an output vector holding stale
    /// bits (they must be replaced).
    fn soft_with<L: Lanes>(llrs: &[f64], terminated: bool) -> Result<Vec<u8>, ViterbiError> {
        let mut out = vec![1; 5];
        ViterbiDecoder::new()
            .decode_soft_with::<L>(llrs, terminated, &mut out)
            .map(|()| out)
    }

    fn hard_with<L: Lanes>(coded: &[Symbol], terminated: bool) -> Result<Vec<u8>, ViterbiError> {
        let mut out = vec![1; 5];
        ViterbiDecoder::new()
            .decode_hard_with::<L>(coded, terminated, &mut out)
            .map(|()| out)
    }

    fn reference_soft(llrs: &[f64], terminated: bool) -> Result<Vec<u8>, ViterbiError> {
        if terminated {
            reference::decode_soft(llrs)
        } else {
            reference::decode_soft_unterminated(llrs)
        }
    }

    fn reference_hard(coded: &[Symbol], terminated: bool) -> Result<Vec<u8>, ViterbiError> {
        if terminated {
            reference::decode_hard(coded)
        } else {
            reference::decode_hard_unterminated(coded)
        }
    }

    /// Both lane types (SSE2 and portable on x86-64) against the oracle,
    /// terminated and unterminated; returns the unterminated oracle output.
    fn assert_soft_matches_reference(llrs: &[f64]) -> Result<Vec<u8>, ViterbiError> {
        for terminated in [true, false] {
            let want = reference_soft(llrs, terminated);
            assert_eq!(
                soft_with::<NativeLanes>(llrs, terminated),
                want,
                "native, {llrs:?}"
            );
            assert_eq!(
                soft_with::<PortableLanes>(llrs, terminated),
                want,
                "portable, {llrs:?}"
            );
        }
        reference_soft(llrs, false)
    }

    #[test]
    fn portable_and_native_lanes_match_reference_bit_for_bit() {
        for round in 0..12u64 {
            let len = 2 * (TAIL_BITS + 1 + (round as usize * 13) % 100);
            for lane in 0..4u64 {
                let mut l = llr_pattern(len, round.wrapping_mul(0xA5A5).wrapping_add(lane + 1));
                // Zero LLRs (depunctured erasures) provoke metric ties —
                // the case where survivor tie-breaking must agree.
                for i in (lane as usize % 3..len).step_by(4) {
                    l[i] = 0.0;
                }
                assert_soft_matches_reference(&l).unwrap();
            }
        }
    }

    #[test]
    fn both_lanes_report_errors_and_accept_empty_input() {
        fn check<L: Lanes>() {
            assert_eq!(
                soft_with::<L>(&[0.0; 3], false),
                Err(ViterbiError::OddLength(3))
            );
            assert_eq!(
                soft_with::<L>(&[0.0; 4], true),
                Err(ViterbiError::TooShort(4))
            );
            assert_eq!(soft_with::<L>(&[], false), Ok(Vec::new()));
            let syms = [Symbol::Erased; 3];
            assert_eq!(hard_with::<L>(&syms, true), Err(ViterbiError::OddLength(3)));
            assert_eq!(
                hard_with::<L>(&syms[..2], true),
                Err(ViterbiError::TooShort(2))
            );
            assert_eq!(hard_with::<L>(&[], false), Ok(Vec::new()));
        }
        check::<NativeLanes>();
        check::<PortableLanes>();
    }

    /// Dead states: where no candidate survives (NaN rewards, `+inf` meeting
    /// `−inf`), every metric of a step can be `−inf`, and the scalar sweep
    /// leaves such states' survivors at `(state 0, bit 0)`.
    #[test]
    fn dead_states_trace_back_like_the_scatter_sweep() {
        for k in 0..40usize {
            let mut l = llr_pattern(2 * 40, 0x5EED + k as u64);
            // NaN kills every state from step k on: the unterminated
            // traceback starts dead (last of the all-`−inf` maxima, state
            // 63), whose survivor is (state 0, bit 0) — zeros from step k,
            // not `63 >> 5 = 1`.
            l[2 * k + k % 2] = f64::NAN;
            let want = assert_soft_matches_reference(&l).unwrap();
            assert!(want[k..].iter().all(|&b| b == 0), "NaN at step {k}");

            // −inf kills the branches expecting a 0 and sends +inf through
            // the others; later opposite infinities meet and die as NaN,
            // leaving some states dead and others alive.
            let mut l = llr_pattern(2 * 40, 0xD1E + k as u64);
            l[2 * k] = f64::NEG_INFINITY;
            l[(2 * k + 7) % 80] = f64::INFINITY;
            l[(2 * k + 30) % 80] = -f64::INFINITY;
            assert_soft_matches_reference(&l).unwrap();
        }
        // State 0 dead at the end of a terminated block: the first step
        // sends all mass to state 32, which cannot return to 0 within six
        // steps.
        let mut l = vec![1.0; 2 * TAIL_BITS];
        l[0] = f64::NEG_INFINITY;
        assert_soft_matches_reference(&l).unwrap();
    }

    /// One LLR from every f64 class the kernel must agree on: ordinary
    /// magnitudes and erasures (most draws, at a per-stream density of
    /// exotic values), ±0, subnormals, ±1e300, ±inf, NaN, small integers
    /// (metric ties), `f64::MIN_POSITIVE` and raw bit patterns.
    fn llr_of(x: u64, exotic_per_16: u64) -> f64 {
        let sign = if x & 1 == 1 { -1.0 } else { 1.0 };
        let payload = x >> 16;
        if (x >> 1) & 15 >= exotic_per_16 {
            return if (x >> 8) & 7 == 0 {
                0.0
            } else {
                ((payload & 0xFFFF) as f64 / 65535.0 - 0.5) * 8.0
            };
        }
        match (x >> 5) & 7 {
            0 => sign * 0.0,
            1 => sign * f64::from_bits(payload & ((1 << 52) - 1)),
            2 => sign * 1e300,
            3 => sign * f64::INFINITY,
            4 => sign * f64::NAN,
            5 => sign * (payload % 4) as f64,
            6 => sign * f64::MIN_POSITIVE,
            _ => f64::from_bits(payload ^ (x << 48)),
        }
    }

    /// A hard symbol: mostly bits, some erasures, and now and then a byte
    /// other than 0/1 (which matches neither hypothesis).
    fn symbol_of(x: u64) -> Symbol {
        match x % 32 {
            0..=3 => Symbol::Erased,
            4 => Symbol::Bit((x >> 8) as u8),
            _ => Symbol::Bit(((x >> 8) & 1) as u8),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        #[test]
        fn kernel_matches_reference_on_every_f64_class(
            steps in 0usize..301,
            exotic_per_16 in 0u64..17,
            raw in proptest::collection::vec(proptest::prelude::any::<u64>(), 600),
        ) {
            let llrs: Vec<f64> = raw[..2 * steps].iter().map(|&x| llr_of(x, exotic_per_16)).collect();
            for terminated in [true, false] {
                let want = reference_soft(&llrs, terminated);
                proptest::prop_assert_eq!(soft_with::<NativeLanes>(&llrs, terminated), want.clone());
                proptest::prop_assert_eq!(soft_with::<PortableLanes>(&llrs, terminated), want);
            }
        }

        #[test]
        fn hard_kernel_matches_hamming_reference(
            steps in 0usize..301,
            raw in proptest::collection::vec(proptest::prelude::any::<u64>(), 600),
        ) {
            let coded: Vec<Symbol> = raw[..2 * steps].iter().map(|&x| symbol_of(x)).collect();
            for terminated in [true, false] {
                let want = reference_hard(&coded, terminated);
                proptest::prop_assert_eq!(hard_with::<NativeLanes>(&coded, terminated), want.clone());
                proptest::prop_assert_eq!(hard_with::<PortableLanes>(&coded, terminated), want);
            }
        }
    }

    #[test]
    fn all_erased_still_terminates() {
        // With no channel information the decoder must still return *some*
        // path ending in state 0 (all-zero data is such a path).
        let syms = vec![Symbol::Erased; 2 * (20 + TAIL_BITS)];
        let out = decode_hard(&syms).unwrap();
        assert_eq!(out.len(), 20);
    }
}
