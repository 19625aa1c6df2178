//! The served workloads' load generator: every client connection is
//! driven from the calling thread over non-blocking sockets by the
//! benchmark's own `poll(2)` loop, with replies parsed by `wire::decode`
//! from a per-connection read buffer. It deliberately shares no code
//! with the engine's reactor, so an engine change leaves it unchanged.
//!
//! * **Open loop** ([`Load::Open`]): sessions arrive on a seeded schedule
//!   ([`fleet_schedule`]), each on a fresh connection
//!   (`Hello`, `SessionRequest`, replies, `Bye`). Latency counts from when
//!   a session was *due*, so a generator running late cannot hide queueing.
//! * **Closed loop** ([`Load::Closed`]): a fixed set of persistent
//!   connections each run sessions back to back until a deadline.
//!
//! Every reply is checked: each `FrameDecoded` must carry exactly the
//! PSDU the session sent, every frame must arrive, and no `ErrorReport`
//! may appear.

use crate::sys::{poll_fds, PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};
use mimonet_dsp::seedtree::{self, CLIENT_TAG};
use mimonet_io::session::session_psdus;
use mimonet_io::wire::{self, SessionConfig, WireError, WireMsg, WIRE_VERSION};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Seed-tree tag of the open-loop arrival process.
const ARRIVAL_TAG: u64 = 0x0061_7272_6976;

/// One scheduled session of an open-loop run.
#[derive(Clone, Debug, PartialEq)]
pub struct Planned {
    /// When the session is due, relative to the run's start.
    pub due: Duration,
    /// What the session asks the engine to run.
    pub cfg: SessionConfig,
}

/// The fleet's two link classes (the `loadgen` built-in mix): session `k`
/// is 2×2 MCS8 with 192-byte PSDUs when even, SISO MCS2 with 64 bytes
/// when odd; 6 frames at 30 dB AWGN either way.
pub fn fleet_session(seed: u64, k: usize) -> SessionConfig {
    let (mcs, payload_len) = if k.is_multiple_of(2) {
        (8, 192)
    } else {
        (2, 64)
    };
    SessionConfig {
        mcs,
        payload_len,
        n_frames: 6,
        snr_db: 30.0,
        seed: seedtree::trial_seed(seed, CLIENT_TAG, k),
        ..SessionConfig::default()
    }
}

/// The bulk class: 2×2 MCS15, 1500-byte PSDUs, 64 frames at 30 dB AWGN.
pub fn bulk_session(seed: u64, k: usize) -> SessionConfig {
    SessionConfig {
        mcs: 15,
        payload_len: 1500,
        n_frames: 64,
        snr_db: 30.0,
        seed: seedtree::trial_seed(seed, CLIENT_TAG, k),
        ..SessionConfig::default()
    }
}

/// An open-loop step: `n` arrivals at `rate` sessions/s, session indices
/// `first..first + n`. Arrival `i` falls uniformly at random inside its
/// own slot `[i, i + 1) / rate`, so the rate is exact and bursts are
/// bounded while arrival instants still vary with the seed. A pure
/// function of its arguments; `step` selects an independent stream.
pub fn fleet_schedule(seed: u64, step: usize, rate: f64, first: usize, n: usize) -> Vec<Planned> {
    let mut rng = ChaCha8Rng::seed_from_u64(seedtree::trial_seed(seed, ARRIVAL_TAG, step));
    (0..n)
        .map(|i| {
            let u: f64 = rng.gen();
            Planned {
                due: Duration::from_secs_f64((i as f64 + u) / rate),
                cfg: fleet_session(seed, first + i),
            }
        })
        .collect()
}

/// What drives the connections.
pub enum Load<'a> {
    /// One fresh connection per planned session.
    Open {
        /// The schedule, in due order.
        plans: &'a [Planned],
        /// Stop issuing new sessions once this many are in flight (the
        /// backlog is growing without bound); the rest count as failed.
        max_in_flight: usize,
    },
    /// `conns` persistent connections running sessions back to back.
    Closed {
        /// Connections.
        conns: usize,
        /// Session `k`'s configuration.
        session: &'a dyn Fn(usize) -> SessionConfig,
        /// No new session starts after this instant.
        until: Instant,
    },
}

/// One session as the client saw it.
#[derive(Clone, Debug)]
pub struct SessionRecord {
    /// The session's configuration.
    pub cfg: SessionConfig,
    /// When it was due (open loop) or issued (closed loop).
    pub due: Instant,
    /// When its `SessionRequest` was written.
    pub sent: Instant,
    /// TCP connect time (0 on a reused connection).
    pub connect: Duration,
    /// First `FrameDecoded` arrival.
    pub first_frame: Option<Instant>,
    /// Terminal `Telemetry` arrival (the session's last reply message).
    pub done: Option<Instant>,
    /// Frames delivered with the right bytes.
    pub frames_ok: u32,
    /// Frames delivered with wrong bytes, duplicated or out of range.
    pub corrupted: u32,
    /// FNV-1a digest over the delivered `(index, snr bits, psdu)` stream.
    pub digest: u64,
    /// Why the session failed, if it did.
    pub error: Option<String>,
    /// Never issued: the open-loop step was aborted first.
    pub skipped: bool,
}

impl SessionRecord {
    /// A correct, complete session.
    pub fn ok(&self) -> bool {
        self.error.is_none()
            && self.done.is_some()
            && self.corrupted == 0
            && self.frames_ok == self.cfg.n_frames
    }

    /// Latency from due time to the last reply message.
    pub fn latency(&self) -> Option<Duration> {
        self.done.map(|d| d.saturating_duration_since(self.due))
    }
}

/// Everything a load run observed.
pub struct LoadOutcome {
    /// Sessions in issue order (open loop: schedule order).
    pub sessions: Vec<SessionRecord>,
    /// Generator lateness per issued session: write time − due time.
    pub late: Vec<Duration>,
    /// Open loop stopped issuing because the backlog kept growing.
    pub backlog_abort: bool,
    /// Highest number of sessions in flight at once.
    pub max_in_flight: usize,
}

/// Folds `bytes` into an FNV-1a digest.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Digest seed.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Digest of one delivered frame, folded into `h`.
pub fn digest_frame(h: u64, index: u32, snr_db: f64, psdu: &[u8]) -> u64 {
    let h = fnv(h, &index.to_le_bytes());
    let h = fnv(h, &snr_db.to_bits().to_le_bytes());
    fnv(h, psdu)
}

struct Conn {
    stream: TcpStream,
    wbuf: Vec<u8>,
    wpos: usize,
    rbuf: Vec<u8>,
    /// Index into the records of the session in progress.
    session: Option<usize>,
    expected: Vec<Vec<u8>>,
    seen: Vec<bool>,
    dead: bool,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<(Self, Duration)> {
        let t0 = Instant::now();
        let stream = TcpStream::connect(addr)?;
        let connect = t0.elapsed();
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let mut c = Self {
            stream,
            wbuf: Vec::with_capacity(256),
            wpos: 0,
            rbuf: Vec::with_capacity(1 << 16),
            session: None,
            expected: Vec::new(),
            seen: Vec::new(),
            dead: false,
        };
        c.queue(&WireMsg::Hello {
            version: WIRE_VERSION,
        });
        Ok((c, connect))
    }

    fn queue(&mut self, msg: &WireMsg) {
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        self.wbuf.extend_from_slice(&wire::encode(msg));
    }

    fn start(&mut self, idx: usize, cfg: &SessionConfig) {
        self.session = Some(idx);
        self.expected = session_psdus(cfg);
        self.seen = vec![false; cfg.n_frames as usize];
        self.queue(&WireMsg::SessionRequest(cfg.clone()));
    }

    /// Ends the connection; it closes on the server's `Bye` or EOF.
    fn bye(&mut self) {
        self.queue(&WireMsg::Bye);
    }

    fn wants_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    fn flush(&mut self) {
        while self.wants_write() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Reads what the socket holds; `false` on EOF or error.
    fn fill(&mut self) -> bool {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return false,
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }
}

/// What a decoded reply means for the session in progress.
enum Step {
    Continue,
    /// The session's terminal message arrived.
    SessionDone,
    /// The server said goodbye.
    Bye,
}

fn on_msg(conn: &mut Conn, rec: Option<&mut SessionRecord>, msg: WireMsg, now: Instant) -> Step {
    match msg {
        WireMsg::Bye => Step::Bye,
        WireMsg::Hello { .. } | WireMsg::SessionAccept { .. } | WireMsg::SessionStats { .. } => {
            Step::Continue
        }
        WireMsg::FrameDecoded(f) => {
            if let Some(rec) = rec {
                rec.first_frame.get_or_insert(now);
                let i = f.index as usize;
                if i < conn.seen.len() && !conn.seen[i] && conn.expected[i] == f.psdu {
                    conn.seen[i] = true;
                    rec.frames_ok += 1;
                } else {
                    rec.corrupted += 1;
                }
                rec.digest = digest_frame(rec.digest, f.index, f.snr_db, &f.psdu);
            }
            Step::Continue
        }
        WireMsg::Telemetry { .. } => {
            if let Some(rec) = rec {
                rec.done = Some(now);
            }
            Step::SessionDone
        }
        WireMsg::ErrorReport { kind, detail, .. } => {
            if let Some(rec) = rec {
                rec.error = Some(format!("{kind}: {detail}"));
                rec.done = None;
            }
            Step::SessionDone
        }
        other => {
            if let Some(rec) = rec {
                rec.error = Some(format!("unexpected reply {other:?}"));
            }
            Step::SessionDone
        }
    }
}

/// Runs `load` against the engine at `addr` from the calling thread.
/// `on_tick` runs once per loop iteration (used to sample engine gauges).
pub fn run(addr: SocketAddr, load: Load<'_>, mut on_tick: impl FnMut()) -> LoadOutcome {
    let start = Instant::now();
    let mut records: Vec<SessionRecord> = Vec::new();
    let mut late = Vec::new();
    let mut conns: Vec<Conn> = Vec::new();
    let mut next_plan = 0usize;
    let mut backlog_abort = false;
    let mut max_in_flight = 0usize;
    let mut fds: Vec<PollFd> = Vec::new();

    let new_record = |cfg: &SessionConfig, due: Instant, connect: Duration| SessionRecord {
        cfg: cfg.clone(),
        due,
        sent: Instant::now(),
        connect,
        first_frame: None,
        done: None,
        frames_ok: 0,
        corrupted: 0,
        digest: FNV_OFFSET,
        error: None,
        skipped: false,
    };

    if let Load::Closed {
        conns: n, session, ..
    } = &load
    {
        for _ in 0..*n {
            let (mut c, connect) = Conn::open(addr).expect("connect to engine");
            let k = records.len();
            let cfg = session(k);
            records.push(new_record(&cfg, Instant::now(), connect));
            c.start(k, &cfg);
            c.flush();
            conns.push(c);
        }
    }

    loop {
        on_tick();
        // Issue every open-loop session that is due.
        if let Load::Open {
            plans,
            max_in_flight: cap,
        } = &load
        {
            while next_plan < plans.len() && start + plans[next_plan].due <= Instant::now() {
                let in_flight = conns.iter().filter(|c| c.session.is_some()).count();
                if in_flight >= *cap {
                    backlog_abort = true;
                    break;
                }
                let plan = &plans[next_plan];
                let due = start + plan.due;
                let k = records.len();
                match Conn::open(addr) {
                    Ok((mut c, connect)) => {
                        records.push(new_record(&plan.cfg, due, connect));
                        late.push(records[k].sent.saturating_duration_since(due));
                        c.start(k, &plan.cfg);
                        c.flush();
                        conns.push(c);
                    }
                    Err(e) => {
                        let mut rec = new_record(&plan.cfg, due, Duration::ZERO);
                        rec.error = Some(format!("connect: {e}"));
                        records.push(rec);
                    }
                }
                next_plan += 1;
            }
            if backlog_abort {
                // The rest of the schedule never runs: count it failed.
                for plan in &plans[next_plan..] {
                    let mut rec = new_record(&plan.cfg, start + plan.due, Duration::ZERO);
                    rec.error = Some("not issued: backlog growing".into());
                    rec.skipped = true;
                    records.push(rec);
                }
                next_plan = plans.len();
            }
        }
        max_in_flight = max_in_flight.max(conns.iter().filter(|c| c.session.is_some()).count());

        let schedule_done = match &load {
            Load::Open { plans, .. } => next_plan >= plans.len(),
            Load::Closed { .. } => true,
        };
        if schedule_done && conns.is_empty() {
            break;
        }

        fds.clear();
        fds.extend(conns.iter().map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: POLLIN | if c.wants_write() { POLLOUT } else { 0 },
            revents: 0,
        }));
        let timeout_ms = match &load {
            Load::Open { plans, .. } if next_plan < plans.len() => {
                let due = start + plans[next_plan].due;
                due.saturating_duration_since(Instant::now())
                    .as_micros()
                    .div_ceil(1000)
                    .min(50) as i32
            }
            _ => 50,
        };
        poll_fds(&mut fds, timeout_ms);
        let now = Instant::now();

        for (ci, pfd) in fds.iter().enumerate() {
            let conn = &mut conns[ci];
            if pfd.revents & POLLOUT != 0 {
                conn.flush();
            }
            if pfd.revents & (POLLIN | POLLERR | POLLHUP) == 0 {
                continue;
            }
            let alive = conn.fill();
            let mut consumed = 0;
            loop {
                match wire::decode(&conn.rbuf[consumed..]) {
                    Ok((msg, used)) => {
                        consumed += used;
                        let rec = conn.session.map(|k| &mut records[k]);
                        match on_msg(conn, rec, msg, now) {
                            Step::Continue => {}
                            Step::Bye => {
                                conn.dead = true;
                                break;
                            }
                            Step::SessionDone => {
                                conn.session = None;
                                let next = match &load {
                                    Load::Closed { session, until, .. } if now < *until => {
                                        Some(session(records.len()))
                                    }
                                    _ => None,
                                };
                                match next {
                                    Some(cfg) => {
                                        let k = records.len();
                                        records.push(new_record(&cfg, now, Duration::ZERO));
                                        conn.start(k, &cfg);
                                    }
                                    None => conn.bye(),
                                }
                                conn.flush();
                            }
                        }
                    }
                    Err(WireError::Truncated { .. }) => break,
                    Err(e) => {
                        if let Some(k) = conn.session.take() {
                            records[k].error = Some(format!("wire: {e}"));
                        }
                        conn.dead = true;
                        break;
                    }
                }
            }
            conn.rbuf.drain(..consumed);
            if !alive {
                if let Some(k) = conn.session.take() {
                    records[k]
                        .error
                        .get_or_insert_with(|| "connection closed mid-session".into());
                }
                conn.dead = true;
            }
        }
        conns.retain(|c| !c.dead);
    }

    LoadOutcome {
        sessions: records,
        late,
        backlog_abort,
        max_in_flight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = fleet_schedule(42, 0, 100.0, 0, 500);
        let b = fleet_schedule(42, 0, 100.0, 0, 500);
        assert_eq!(a, b);
        assert_ne!(a, fleet_schedule(43, 0, 100.0, 0, 500));
        assert_ne!(a, fleet_schedule(42, 1, 100.0, 0, 500));
    }

    #[test]
    fn schedule_is_ordered_and_at_the_requested_rate() {
        let plans = fleet_schedule(7, 0, 100.0, 0, 2000);
        assert!(plans.windows(2).all(|w| w[0].due <= w[1].due));
        let span = plans.last().unwrap().due.as_secs_f64();
        let rate = plans.len() as f64 / span;
        assert!((90.0..110.0).contains(&rate), "rate {rate}");
    }

    #[test]
    fn schedule_mixes_the_two_classes_evenly() {
        let plans = fleet_schedule(7, 0, 100.0, 10, 8);
        for (i, p) in plans.iter().enumerate() {
            assert_eq!(p.cfg, fleet_session(7, 10 + i));
        }
        assert_eq!(plans[0].cfg.mcs, 8);
        assert_eq!(plans[1].cfg.mcs, 2);
        assert_ne!(plans[0].cfg.seed, plans[2].cfg.seed);
    }
}
