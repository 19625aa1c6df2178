//! Span recording for the traced run.
//!
//! Spans are taken *outside* the library: the benchmark wraps each call
//! into a layer's public function with a [`Tracer::span`]. The untraced
//! path runs the same generic code with [`NoTrace`], whose spans compile
//! to a bare call, so the traced/untraced frames-per-second ratio is the
//! cost of the spans alone. Spans stay in memory until the run ends.

use std::io::Write;
use std::time::Instant;

/// A layer a span is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Payload / PSDU generation and MPDU framing (`LinkSim` bookkeeping).
    Gen,
    /// `session_psdus` (per served session).
    Psdus,
    /// `Transmitter::transmit`.
    Tx,
    /// `ChannelSim::apply`.
    Channel,
    /// Burst framing: lead-in/out padding and clipping.
    Framing,
    /// `Receiver::receive_batch`.
    RxBatch,
    /// Per-frame outcome scoring (`LinkSim`) incl. the coded-BER re-encode.
    Score,
    /// `score_decoded` (per served session).
    SessionScore,
    /// `wire::encode` of a `FrameDecoded`.
    WireEncode,
    /// `wire::decode` of a `FrameDecoded`.
    WireDecode,
    /// Client: TCP connect.
    Connect,
    /// Client: request sent → first `FrameDecoded`.
    FirstFrame,
    /// Client: first → last reply message.
    Stream,
}

impl Layer {
    /// Stable name (span file column).
    pub fn name(self) -> &'static str {
        match self {
            Layer::Gen => "link.gen",
            Layer::Psdus => "session.psdus",
            Layer::Tx => "tx.transmit",
            Layer::Channel => "channel.apply",
            Layer::Framing => "link.framing",
            Layer::RxBatch => "rx.receive_batch",
            Layer::Score => "link.score",
            Layer::SessionScore => "session.score",
            Layer::WireEncode => "wire.encode",
            Layer::WireDecode => "wire.decode",
            Layer::Connect => "client.connect",
            Layer::FirstFrame => "client.first_frame",
            Layer::Stream => "client.stream",
        }
    }
}

/// Something that can time a call into a layer.
pub trait Tracer {
    /// Runs `f`, attributing its wall time to `layer`.
    fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R;
}

/// The untraced path: no clock reads, no storage.
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn span<R>(&mut self, _layer: Layer, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer the span belongs to.
    pub layer: Layer,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
}

/// In-memory span log.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty log whose span starts count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(&mut self, layer: Layer, start: Instant, end: Instant) {
        self.spans.push(Span {
            layer,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
        });
    }

    /// Appends another log's spans.
    pub fn absorb(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    /// Total time in `layer`, ns.
    pub fn total_ns(&self, layer: Layer) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.dur_ns as f64)
            .sum()
    }

    /// Writes every span as CSV (`layer,start_ns,dur_ns`).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "layer,start_ns,dur_ns")?;
        for s in &self.spans {
            writeln!(out, "{},{},{}", s.layer.name(), s.start_ns, s.dur_ns)?;
        }
        out.flush()
    }
}

impl Tracer for Spans {
    #[inline]
    fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.record(layer, start, Instant::now());
        r
    }
}
