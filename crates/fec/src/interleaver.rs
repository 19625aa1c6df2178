//! Per-OFDM-symbol block interleaver (802.11a §18.3.5.7, extended with the
//! 802.11n per-spatial-stream frequency rotation of §20.3.11.8.2).
//!
//! The interleaver operates on one OFDM symbol's worth of coded bits per
//! spatial stream (`n_cbpss` bits). Two permutations are applied:
//!
//! 1. adjacent coded bits map onto non-adjacent subcarriers
//!    (row/column write/read over 16 columns — 13 in our 52-carrier HT
//!    configuration per the standard's `N_COL` table; we parameterize), and
//! 2. adjacent coded bits alternate between more and less significant
//!    constellation bit positions.
//!
//! For the second and later spatial streams, 802.11n adds a frequency
//! *rotation* so the same coded bit never rides the same subcarrier on two
//! streams — this is what gives spatial multiplexing its interleaving
//! diversity. We implement the standard's third permutation with
//! `N_ROT = 11` base rotation.

use std::sync::RwLock;

/// Interleaver configuration for one spatial stream of one OFDM symbol.
///
/// Carries the geometry's permutation table, built once per geometry from
/// the standard's index formula and shared process-wide, so interleaving
/// and deinterleaving are one table lookup per bit.
#[derive(Clone, Copy)]
pub struct Interleaver {
    /// Coded bits per symbol per spatial stream.
    n_cbpss: usize,
    /// Coded bits per subcarrier (1, 2, 4, 6 for BPSK..64-QAM).
    n_bpsc: usize,
    /// Number of interleaver columns (16 for legacy 48-carrier symbols,
    /// 13 for HT 52-carrier symbols).
    n_col: usize,
    /// Index of this spatial stream (0-based) for the frequency rotation.
    stream: usize,
    /// Total number of spatial streams.
    n_streams: usize,
    /// `perm[k]` = interleaved position of input bit `k`.
    perm: &'static [u16],
}

impl PartialEq for Interleaver {
    fn eq(&self, other: &Self) -> bool {
        // The table is a function of the geometry.
        (
            self.n_cbpss,
            self.n_bpsc,
            self.n_col,
            self.stream,
            self.n_streams,
        ) == (
            other.n_cbpss,
            other.n_bpsc,
            other.n_col,
            other.stream,
            other.n_streams,
        )
    }
}

impl Eq for Interleaver {}

impl std::fmt::Debug for Interleaver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interleaver")
            .field("n_cbpss", &self.n_cbpss)
            .field("n_bpsc", &self.n_bpsc)
            .field("n_col", &self.n_col)
            .field("stream", &self.stream)
            .field("n_streams", &self.n_streams)
            .finish_non_exhaustive()
    }
}

/// Geometry key of a permutation table: `(n_cbpss, n_bpsc, n_col,
/// stream, n_streams)`.
type Geometry = (usize, usize, usize, usize, usize);

/// Every permutation table built so far. Tables are leaked: there is one
/// per distinct geometry, and a transceiver uses a handful (the 802.11
/// geometries number 4 legacy + 40 HT).
static TABLES: RwLock<Vec<(Geometry, &'static [u16])>> = RwLock::new(Vec::new());

impl Interleaver {
    /// Creates an interleaver.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (`n_cbpss` not divisible by
    /// `n_bpsc * n_col`, zero sizes, or `stream >= n_streams`), or if
    /// `n_cbpss` exceeds 65536 bits.
    pub fn new(
        n_cbpss: usize,
        n_bpsc: usize,
        n_col: usize,
        stream: usize,
        n_streams: usize,
    ) -> Self {
        assert!(
            n_cbpss > 0 && n_bpsc > 0 && n_col > 0,
            "zero-size interleaver"
        );
        assert!(
            n_cbpss.is_multiple_of(n_bpsc * n_col),
            "N_CBPSS {n_cbpss} must be a multiple of N_BPSC {n_bpsc} * N_COL {n_col}"
        );
        assert!(
            stream < n_streams,
            "stream {stream} out of range (of {n_streams})"
        );
        assert!(
            n_cbpss <= 1 << 16,
            "N_CBPSS {n_cbpss} exceeds the 65536-bit table limit"
        );
        let mut il = Self {
            n_cbpss,
            n_bpsc,
            n_col,
            stream,
            n_streams,
            perm: &[],
        };
        il.perm = il.table();
        il
    }

    /// This geometry's permutation table, built on first use.
    fn table(&self) -> &'static [u16] {
        let key = (
            self.n_cbpss,
            self.n_bpsc,
            self.n_col,
            self.stream,
            self.n_streams,
        );
        let find = |tables: &[(Geometry, &'static [u16])]| {
            tables.iter().find(|(k, _)| *k == key).map(|&(_, t)| t)
        };
        // Tables are pushed whole under the write lock, so a poisoned lock
        // still guards a valid registry.
        let read = TABLES.read().unwrap_or_else(|e| e.into_inner());
        if let Some(t) = find(&read) {
            return t;
        }
        drop(read);
        let mut tables = TABLES.write().unwrap_or_else(|e| e.into_inner());
        if let Some(t) = find(&tables) {
            return t;
        }
        let table: Vec<u16> = (0..self.n_cbpss)
            .map(|k| self.map_index(k) as u16)
            .collect();
        let table: &'static [u16] = Box::leak(table.into_boxed_slice());
        tables.push((key, table));
        table
    }

    /// Legacy 802.11a geometry: 48 data carriers, 16 columns, single stream.
    pub fn legacy(n_cbps: usize, n_bpsc: usize) -> Self {
        Self::new(n_cbps, n_bpsc, 16, 0, 1)
    }

    /// HT (802.11n, 20 MHz) geometry: 52 data carriers, 13 columns.
    pub fn ht(n_cbpss: usize, n_bpsc: usize, stream: usize, n_streams: usize) -> Self {
        Self::new(n_cbpss, n_bpsc, 13, stream, n_streams)
    }

    /// Number of bits this interleaver permutes.
    pub fn len(&self) -> usize {
        self.n_cbpss
    }

    /// Always false (constructor enforces nonzero length).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Maps input bit index `k` to its interleaved position — the
    /// standard's formula, evaluated once per bit to build the table.
    fn map_index(&self, k: usize) -> usize {
        let n = self.n_cbpss;
        let ncol = self.n_col;
        let nrow = n / ncol;
        let s = (self.n_bpsc / 2).max(1);

        // First permutation: write row-wise, read column-wise.
        let i = nrow * (k % ncol) + k / ncol;
        // Second permutation: rotate within groups of s across the symbol.
        let j = s * (i / s) + (i + n - (ncol * i) / n) % s;
        // Third permutation (HT frequency rotation) for streams > 0:
        // rotate by J(iss) = ((iss*2) mod 3 + 3*floor(iss/3)) * N_ROT * N_BPSC.
        if self.n_streams > 1 {
            let nrot = 11usize; // 20 MHz value from the standard
            let iss = self.stream;
            let j_iss = ((iss * 2) % 3 + 3 * (iss / 3)) * nrot * self.n_bpsc;
            (j + n - j_iss % n) % n
        } else {
            j
        }
    }

    /// Interleaves one symbol's worth of bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != self.len()`.
    pub fn interleave(&self, bits: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; self.n_cbpss];
        self.interleave_into(bits, &mut out);
        out
    }

    /// Interleaves one symbol's worth of bits into a caller-owned slice —
    /// the allocation-free path for the per-symbol TX loop.
    ///
    /// # Panics
    ///
    /// Panics if either slice length differs from `self.len()`.
    pub fn interleave_into(&self, bits: &[u8], out: &mut [u8]) {
        assert_eq!(
            bits.len(),
            self.n_cbpss,
            "interleaver expects exactly one symbol"
        );
        assert_eq!(
            out.len(),
            self.n_cbpss,
            "interleaver output must be exactly one symbol"
        );
        for (&b, &m) in bits.iter().zip(self.perm) {
            out[m as usize] = b;
        }
    }

    /// Inverse permutation.
    pub fn deinterleave(&self, bits: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; self.n_cbpss];
        self.deinterleave_into(bits, &mut out);
        out
    }

    /// Inverse permutation written into a caller-owned slice — the
    /// allocation-free path for the legacy-symbol header decode.
    ///
    /// # Panics
    ///
    /// Panics if either slice length differs from `self.len()`.
    pub fn deinterleave_into(&self, bits: &[u8], out: &mut [u8]) {
        assert_eq!(
            bits.len(),
            self.n_cbpss,
            "deinterleaver expects exactly one symbol"
        );
        assert_eq!(
            out.len(),
            self.n_cbpss,
            "deinterleaver output must be exactly one symbol"
        );
        for (slot, &m) in out.iter_mut().zip(self.perm) {
            *slot = bits[m as usize];
        }
    }

    /// Inverse permutation over soft values (LLRs).
    pub fn deinterleave_soft(&self, llrs: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n_cbpss];
        self.deinterleave_soft_into(llrs, &mut out);
        out
    }

    /// Inverse permutation over soft values written into a caller-owned
    /// slice — the allocation-free path for the per-symbol RX loop.
    ///
    /// # Panics
    ///
    /// Panics if either slice length differs from `self.len()`.
    pub fn deinterleave_soft_into(&self, llrs: &[f64], out: &mut [f64]) {
        assert_eq!(
            llrs.len(),
            self.n_cbpss,
            "deinterleaver expects exactly one symbol"
        );
        assert_eq!(
            out.len(),
            self.n_cbpss,
            "deinterleaver output must be exactly one symbol"
        );
        for (slot, &m) in out.iter_mut().zip(self.perm) {
            *slot = llrs[m as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prbs(len: usize, mut x: u64) -> Vec<u8> {
        x |= 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x & 1) as u8
            })
            .collect()
    }

    #[test]
    fn mapping_is_a_permutation() {
        for (ncbpss, nbpsc, ncol, ns) in [
            (48usize, 1usize, 16usize, 1usize), // legacy BPSK
            (96, 2, 16, 1),                     // legacy QPSK
            (192, 4, 16, 1),                    // legacy 16-QAM
            (288, 6, 16, 1),                    // legacy 64-QAM
            (52, 1, 13, 2),                     // HT BPSK 2 streams
            (104, 2, 13, 2),                    // HT QPSK
            (208, 4, 13, 2),
            (312, 6, 13, 2),
        ] {
            for stream in 0..ns {
                let il = Interleaver::new(ncbpss, nbpsc, ncol, stream, ns);
                let mut seen = vec![false; ncbpss];
                for k in 0..ncbpss {
                    let m = il.map_index(k);
                    assert!(m < ncbpss);
                    assert!(
                        !seen[m],
                        "collision at {m} (ncbpss={ncbpss}, stream={stream})"
                    );
                    seen[m] = true;
                }
            }
        }
    }

    #[test]
    fn tables_match_the_formula_for_every_geometry() {
        let legacy = [1usize, 2, 4, 6].map(|n_bpsc| Interleaver::legacy(48 * n_bpsc, n_bpsc));
        let ht = (1..=4usize).flat_map(|n_streams| {
            (0..n_streams).flat_map(move |stream| {
                [1usize, 2, 4, 6]
                    .map(|n_bpsc| Interleaver::ht(52 * n_bpsc, n_bpsc, stream, n_streams))
            })
        });
        for il in legacy.into_iter().chain(ht) {
            let n = il.len();
            assert_eq!(il.perm.len(), n, "{il:?}");
            for k in 0..n {
                assert_eq!(il.perm[k] as usize, il.map_index(k), "{il:?} bit {k}");
            }
            // A second construction shares the table.
            let again = Interleaver::new(il.n_cbpss, il.n_bpsc, il.n_col, il.stream, il.n_streams);
            assert!(std::ptr::eq(il.perm, again.perm), "{il:?}");

            let bits = prbs(n, 0x5EED + n as u64);
            let mut interleaved = vec![0u8; n];
            il.interleave_into(&bits, &mut interleaved);
            assert_eq!(interleaved, il.interleave(&bits));
            assert_eq!(il.deinterleave(&interleaved), bits, "{il:?}");
            let llrs: Vec<f64> = (0..n).map(|k| k as f64 - 0.5).collect();
            let mut permuted = vec![0.0; n];
            for (k, &m) in il.perm.iter().enumerate() {
                permuted[m as usize] = llrs[k];
            }
            assert_eq!(il.deinterleave_soft(&permuted), llrs, "{il:?}");
        }
    }

    #[test]
    fn roundtrip_all_geometries() {
        for (ncbpss, nbpsc) in [(52usize, 1usize), (104, 2), (208, 4), (312, 6)] {
            for stream in 0..2 {
                let il = Interleaver::ht(ncbpss, nbpsc, stream, 2);
                let bits = prbs(ncbpss, 0xABCD + stream as u64);
                assert_eq!(il.deinterleave(&il.interleave(&bits)), bits);
            }
        }
    }

    #[test]
    fn soft_roundtrip_matches_hard() {
        let il = Interleaver::ht(104, 2, 1, 2);
        let bits = prbs(104, 33);
        let interleaved = il.interleave(&bits);
        let soft: Vec<f64> = interleaved
            .iter()
            .map(|&b| if b == 0 { 1.0 } else { -1.0 })
            .collect();
        let de = il.deinterleave_soft(&soft);
        for (b, l) in bits.iter().zip(&de) {
            assert_eq!(*b == 0, *l > 0.0);
        }
    }

    #[test]
    fn adjacent_bits_separate_onto_distant_carriers() {
        // The whole point of the first permutation: consecutive coded bits
        // must land at least N_ROW/2 positions apart for BPSK.
        let il = Interleaver::legacy(48, 1);
        for k in 0..47 {
            let d = (il.map_index(k) as isize - il.map_index(k + 1) as isize).unsigned_abs();
            assert!(d >= 3, "bits {k},{} land {d} apart", k + 1);
        }
    }

    #[test]
    fn known_legacy_bpsk_mapping() {
        // 802.11a BPSK: s=1, so permutation reduces to the row/column map
        // i = 3*(k mod 16) + floor(k/16).
        let il = Interleaver::legacy(48, 1);
        for k in 0..48 {
            assert_eq!(il.map_index(k), 3 * (k % 16) + k / 16);
        }
    }

    #[test]
    fn streams_get_distinct_mappings() {
        let il0 = Interleaver::ht(104, 2, 0, 2);
        let il1 = Interleaver::ht(104, 2, 1, 2);
        let differing = (0..104)
            .filter(|&k| il0.map_index(k) != il1.map_index(k))
            .count();
        assert_eq!(differing, 104, "rotation must move every bit");
        // And the offset should be the standard's 2*11*N_BPSC rotation.
        let delta = (il0.map_index(0) as isize - il1.map_index(0) as isize).rem_euclid(104);
        assert_eq!(delta as usize, 44); // J(1) = 2 * N_ROT * N_BPSC = 2*11*2
    }

    #[test]
    #[should_panic(expected = "exactly one symbol")]
    fn wrong_length_panics() {
        Interleaver::legacy(48, 1).interleave(&[0; 47]);
    }

    #[test]
    #[should_panic(expected = "multiple of")]
    fn inconsistent_geometry_panics() {
        Interleaver::new(50, 1, 16, 0, 1);
    }
}
