//! # mimonet-fec
//!
//! Forward error correction for MIMONet-rs, covering the "concatenation of
//! FEC in the packet construction" feature of the SRIF'14 paper:
//!
//! * the 802.11 frame-synchronous [`scrambler`],
//! * the K=7 (133, 171) [`conv`]olutional encoder,
//! * [`mod@puncture`]-derived code rates 1/2, 2/3, 3/4, 5/6,
//! * hard- and soft-decision [`viterbi`] decoding with erasure support,
//! * the per-symbol, per-spatial-stream block [`interleaver`], and
//! * the CRC-32 frame check sequence ([`crc`]).
//!
//! Everything is bit-exact against the IEEE 802.11-2012 definitions where a
//! published test vector exists (scrambler keystream, CRC check values,
//! legacy BPSK interleaver map, code free distance).

pub mod bits;
pub mod conv;
pub mod crc;
pub mod interleaver;
pub mod puncture;
pub mod scrambler;
pub mod viterbi;

pub use conv::{encode_terminated, ConvEncoder};
pub use crc::{append_fcs, check_fcs, crc32};
pub use interleaver::Interleaver;
pub use puncture::{
    depuncture_hard, depuncture_soft, depuncture_soft_into, puncture, puncture_into, CodeRate,
};
pub use scrambler::Scrambler;
pub use viterbi::{
    decode_hard, decode_hard_unterminated, decode_soft, decode_soft_unterminated, Symbol,
    ViterbiDecoder, ViterbiError,
};
