//! # mimonet-channel
//!
//! Baseband channel and RF-impairment simulator — MIMONet-rs's substitute
//! for the SRIF'14 paper's USRP front ends and over-the-air propagation
//! (see DESIGN.md "Substitutions").
//!
//! Building blocks:
//!
//! * [`noise`] — seeded complex AWGN and SNR bookkeeping,
//! * [`fading`] — flat Rayleigh MIMO matrices and frequency-selective
//!   tapped delay lines,
//! * [`doppler`] — time-varying Jakes fading for mobility experiments,
//! * [`tgn`] — TGn-style indoor power-delay profiles (models A–E),
//! * [`impairments`] — CFO, SFO, timing offset, IQ imbalance, DC offset,
//!   ADC quantization,
//! * [`sim`] — the composable [`sim::ChannelSim`] pipeline with ground
//!   truth for estimator-accuracy experiments,
//! * [`faults`] — deterministic seeded fault schedules (bursts, dropouts,
//!   impulses, desync, truncation) for chaos testing the receiver,
//! * [`presets`] — the named channel/fault preset registry shared by the
//!   figure binaries and the scenario DSL.

pub mod doppler;
pub mod fading;
pub mod faults;
pub mod impairments;
pub mod noise;
pub mod presets;
pub mod sim;
pub mod tgn;

pub use doppler::{JakesProcess, TimeVaryingChannel};
pub use fading::{MimoChannelMatrix, TappedDelayLine};
pub use faults::{FaultEvent, FaultKind, FaultReport, FaultSchedule, FaultSpec};
pub use sim::{ChannelConfig, ChannelSim, ChannelTruth, ChannelWorkspace, Fading};
pub use tgn::TgnModel;
