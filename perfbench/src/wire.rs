//! The benchmark's view of the stage workers' wire.
//!
//! Every transport a benchmark-hosted worker uses is wrapped before the
//! worker sees it. The wrappers implement the program's public link traits
//! (`Transport`, `FrameSender`, `FrameReceiver`, `Reattach`), pass every
//! frame through unchanged, and timestamp it. They read only the clear
//! frame header and, for data frames, the clear routing envelope; sealed
//! payloads are never opened.
//!
//! The same wrappers give a worker incarnation process semantics: when an
//! incarnation dies, both of its connections are shut down, it sends and
//! receives nothing more, and its data link refuses to redial.

use pipellm_net::frame::decode_frame;
use pipellm_net::proto::{
    CheckpointReq, CheckpointSave, DataAck, DataFrame, Heartbeat, Msg, Restore, Welcome, HOST_NODE,
};
use pipellm_net::transport::{FrameReceiver, FrameSender, Reattach, Transport};
use pipellm_net::worker::WorkerLinks;
use pipellm_net::{NetError, NetResult};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// What a frame is, by its header's kind byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A sealed activation frame.
    Data,
    /// A data ACK or NACK.
    Ack,
    /// A heartbeat or its echo.
    Heartbeat,
    /// A checkpoint barrier announcement.
    CheckpointReq,
    /// A frame carrying sealed checkpoint state (save or restore).
    CheckpointBlob,
    /// The handshake greeting reply.
    Welcome,
    /// Everything else (handshake, rekey, lifecycle).
    Other,
}

/// Frame kind bytes, learned by encoding one message of each kind with the
/// program's own encoder, so the benchmark carries no copy of the table.
pub struct Kinds {
    data: u8,
    acks: [u8; 2],
    heartbeats: [u8; 2],
    checkpoint_req: u8,
    checkpoint_blobs: [u8; 2],
    welcome: u8,
}

fn kind_of(msg: &Msg) -> NetResult<u8> {
    Ok(decode_frame(&msg.encode()?)?.0)
}

impl Kinds {
    /// Learns the kind bytes and checks that [`envelope`] still reads the
    /// data-frame layout the encoder writes.
    pub fn learn() -> Result<Kinds, String> {
        let probe = DataFrame {
            src: 3,
            dst: HOST_NODE,
            seq: 0x0102_0304_0506,
            epoch: 7,
            iteration: 11,
            micro_batch: 13,
            sealed: vec![0; 4],
        };
        let ack = DataAck {
            src: 0,
            dst: 1,
            seq: 1,
        };
        let beat = Heartbeat {
            stage: 0,
            generation: 0,
            seq: 1,
        };
        let learn = || -> NetResult<Kinds> {
            Ok(Kinds {
                data: kind_of(&Msg::Data(probe.clone()))?,
                acks: [kind_of(&Msg::AckData(ack))?, kind_of(&Msg::NackData(ack))?],
                heartbeats: [
                    kind_of(&Msg::Heartbeat(beat))?,
                    kind_of(&Msg::HeartbeatAck(beat))?,
                ],
                checkpoint_req: kind_of(&Msg::CheckpointReq(CheckpointReq {
                    barrier: 1,
                    prefix: 1,
                }))?,
                checkpoint_blobs: [
                    kind_of(&Msg::CheckpointSave(CheckpointSave {
                        stage: 0,
                        barrier: 1,
                        sealed: Vec::new(),
                    }))?,
                    kind_of(&Msg::Restore(Restore {
                        barrier: 1,
                        sealed: Vec::new(),
                    }))?,
                ],
                welcome: kind_of(&Msg::Welcome(Welcome { stages: 1 }))?,
            })
        };
        let kinds = learn().map_err(|e| format!("learning frame kinds: {e}"))?;
        let frame = Msg::Data(probe.clone())
            .encode()
            .map_err(|e| e.to_string())?;
        let (_, payload) = decode_frame(&frame).map_err(|e| e.to_string())?;
        let seen = envelope(payload);
        let want = Envelope {
            src: probe.src,
            dst: probe.dst,
            seq: probe.seq,
            iteration: probe.iteration,
            micro_batch: probe.micro_batch,
        };
        if seen != Some(want) {
            return Err("data-frame envelope layout changed; update wire::envelope".to_string());
        }
        Ok(kinds)
    }

    /// Classifies a kind byte.
    pub fn class(&self, kind: u8) -> Class {
        if kind == self.data {
            Class::Data
        } else if self.acks.contains(&kind) {
            Class::Ack
        } else if self.heartbeats.contains(&kind) {
            Class::Heartbeat
        } else if kind == self.checkpoint_req {
            Class::CheckpointReq
        } else if self.checkpoint_blobs.contains(&kind) {
            Class::CheckpointBlob
        } else if kind == self.welcome {
            Class::Welcome
        } else {
            Class::Other
        }
    }
}

/// The clear routing envelope of a data frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    /// Sending node ([`HOST_NODE`] for ingress).
    pub src: u32,
    /// Receiving node ([`HOST_NODE`] for egress).
    pub dst: u32,
    /// Per-directed-link ARQ sequence number.
    pub seq: u64,
    /// Iteration of the carried micro-batch.
    pub iteration: u32,
    /// Micro-batch index.
    pub micro_batch: u32,
}

/// Reads the envelope fields `Msg::Data` writes ahead of the sealed bytes:
/// `src u32, dst u32, seq u64, epoch u32, iteration u32, micro_batch u32`,
/// all little-endian.
fn envelope(payload: &[u8]) -> Option<Envelope> {
    let u32_at = |at: usize| -> Option<u32> {
        Some(u32::from_le_bytes(
            payload.get(at..at + 4)?.try_into().ok()?,
        ))
    };
    let seq = u64::from_le_bytes(payload.get(8..16)?.try_into().ok()?);
    Some(Envelope {
        src: u32_at(0)?,
        dst: u32_at(4)?,
        seq,
        iteration: u32_at(20)?,
        micro_batch: u32_at(24)?,
    })
}

/// Which of a worker's two connections a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// Control connection.
    Control,
    /// Data connection.
    Data,
}

/// What happened at a wrapped boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A frame written by the worker.
    Send,
    /// A frame delivered to the worker.
    Recv,
    /// A data-link redial.
    Reattach,
    /// The incarnation died.
    Kill,
    /// A replacement incarnation was started.
    Respawn,
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Boundary.
    pub op: Op,
    /// Stage of the worker.
    pub stage: u32,
    /// Admission generation of the worker incarnation.
    pub generation: u32,
    /// Connection.
    pub link: Link,
    /// Span start, nanoseconds since the rep started.
    pub start: u64,
    /// Span end, nanoseconds since the rep started.
    pub end: u64,
    /// Frame class (meaningless for non-frame ops).
    pub class: Class,
    /// Frame length including the header.
    pub bytes: u32,
    /// Routing envelope of a data frame.
    pub env: Option<Envelope>,
}

/// Per-rep span store shared by every wrapper.
///
/// Untraced, it keeps only what the end-to-end metrics need: data frames
/// and the rare kill/respawn/reattach spans. Traced, it keeps every frame
/// plus receive wait totals.
pub struct Recorder {
    t0: Instant,
    traced: bool,
    kinds: Arc<Kinds>,
    events: Mutex<Vec<Event>>,
    recv_wait_ns: AtomicU64,
    recv_idle_ns: AtomicU64,
}

/// Locks `m`, recovering the guard if a holder panicked — the same policy
/// as the program's own link slots. Each guarded update here is a single
/// push or a single call into the wrapped link, so no half-done update can
/// be observed.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new(traced: bool, kinds: Arc<Kinds>) -> Self {
        Recorder {
            t0: Instant::now(),
            traced,
            kinds,
            events: Mutex::new(Vec::with_capacity(1 << 14)),
            recv_wait_ns: AtomicU64::new(0),
            recv_idle_ns: AtomicU64::new(0),
        }
    }

    /// The rep's start instant.
    pub fn t0(&self) -> Instant {
        self.t0
    }

    /// Nanoseconds from the rep's start to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    fn push(&self, event: Event) {
        lock(&self.events).push(event);
    }

    /// Takes the recorded spans, sorted by start.
    pub fn take_events(&self) -> Vec<Event> {
        let mut events = std::mem::take(&mut *lock(&self.events));
        events.sort_by_key(|e| (e.start, e.end));
        events
    }

    /// Total time receivers spent blocked, and the part that delivered
    /// nothing (traced reps only).
    pub fn recv_wait(&self) -> (Duration, Duration) {
        (
            Duration::from_nanos(self.recv_wait_ns.load(Ordering::Relaxed)),
            Duration::from_nanos(self.recv_idle_ns.load(Ordering::Relaxed)),
        )
    }

    fn classify(&self, frame: &[u8]) -> (Class, Option<Envelope>) {
        match decode_frame(frame) {
            Ok((kind, payload)) => {
                let class = self.kinds.class(kind);
                let env = if class == Class::Data {
                    envelope(payload)
                } else {
                    None
                };
                (class, env)
            }
            Err(_) => (Class::Other, None),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn frame(
        &self,
        op: Op,
        inc: &Incarnation,
        link: Link,
        class: Class,
        env: Option<Envelope>,
        bytes: usize,
        start: Instant,
        end: Instant,
    ) {
        if !self.traced && class != Class::Data {
            return;
        }
        self.push(Event {
            op,
            stage: inc.stage,
            generation: inc.generation,
            link,
            start: self.ns(start),
            end: self.ns(end),
            class,
            bytes: bytes as u32,
            env,
        });
    }

    /// Records a non-frame span (kill, respawn, reattach).
    pub fn mark(&self, op: Op, stage: u32, generation: u32, start: Instant, end: Instant) {
        self.push(Event {
            op,
            stage,
            generation,
            link: Link::Data,
            start: self.ns(start),
            end: self.ns(end),
            class: Class::Other,
            bytes: 0,
            env: None,
        });
    }
}

type SharedSender = Arc<Mutex<Box<dyn FrameSender>>>;

/// One worker incarnation: the unit that lives and dies like a process.
pub struct Incarnation {
    stage: u32,
    generation: u32,
    /// The micro-batch whose arrival kills this incarnation, if any.
    kill_at: Option<(u32, u32)>,
    dead: AtomicBool,
    senders: Mutex<Vec<SharedSender>>,
    rec: Arc<Recorder>,
}

impl Incarnation {
    /// An incarnation of `stage` at `generation`, dying when the data frame
    /// of `kill_at` reaches it.
    pub fn new(
        stage: u32,
        generation: u32,
        kill_at: Option<(u32, u32)>,
        rec: Arc<Recorder>,
    ) -> Arc<Self> {
        Arc::new(Incarnation {
            stage,
            generation,
            kill_at,
            dead: AtomicBool::new(false),
            senders: Mutex::new(Vec::new()),
            rec,
        })
    }

    /// Whether this incarnation died.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    fn lost(&self, link: Link) -> NetError {
        NetError::ConnectionLost {
            link: format!(
                "stage {} gen {} {link:?} (dead)",
                self.stage, self.generation
            ),
        }
    }

    /// Kills the incarnation: both connections are shut down (the peer
    /// sees a reset, as when a process exits) and every wrapper refuses
    /// further traffic.
    fn die(&self) {
        if self.dead.swap(true, Ordering::SeqCst) {
            return;
        }
        let now = Instant::now();
        self.rec
            .mark(Op::Kill, self.stage, self.generation, now, now);
        for sender in lock(&self.senders).iter() {
            lock(sender).kill();
        }
    }
}

/// Wraps a worker's links so every frame is recorded and the incarnation
/// can die.
pub fn wrap_links(links: WorkerLinks, inc: &Arc<Incarnation>) -> WorkerLinks {
    WorkerLinks {
        control: Box::new(Wrapped {
            inner: links.control,
            link: Link::Control,
            inc: Arc::clone(inc),
        }),
        data: Box::new(Wrapped {
            inner: links.data,
            link: Link::Data,
            inc: Arc::clone(inc),
        }),
        data_reattach: links.data_reattach.map(|inner| {
            Box::new(WrappedReattach {
                inner,
                inc: Arc::clone(inc),
            }) as Box<dyn Reattach>
        }),
    }
}

struct Wrapped {
    inner: Box<dyn Transport>,
    link: Link,
    inc: Arc<Incarnation>,
}

impl Transport for Wrapped {
    fn split(self: Box<Self>) -> NetResult<(Box<dyn FrameSender>, Box<dyn FrameReceiver>)> {
        let (sender, receiver) = self.inner.split()?;
        let shared: SharedSender = Arc::new(Mutex::new(sender));
        lock(&self.inc.senders).push(Arc::clone(&shared));
        if self.inc.is_dead() {
            lock(&shared).kill();
        }
        Ok((
            Box::new(WrappedSender {
                inner: shared,
                link: self.link,
                inc: Arc::clone(&self.inc),
            }),
            Box::new(WrappedReceiver {
                inner: receiver,
                link: self.link,
                inc: self.inc,
            }),
        ))
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

struct WrappedSender {
    inner: SharedSender,
    link: Link,
    inc: Arc<Incarnation>,
}

impl FrameSender for WrappedSender {
    fn send_frame(&mut self, frame: &[u8]) -> NetResult<()> {
        if self.inc.is_dead() {
            return Err(self.inc.lost(self.link));
        }
        let start = Instant::now();
        let result = lock(&self.inner).send_frame(frame);
        let end = Instant::now();
        let rec = &self.inc.rec;
        let (class, env) = rec.classify(frame);
        rec.frame(
            Op::Send,
            &self.inc,
            self.link,
            class,
            env,
            frame.len(),
            start,
            end,
        );
        result
    }

    fn kill(&mut self) {
        lock(&self.inner).kill();
    }
}

struct WrappedReceiver {
    inner: Box<dyn FrameReceiver>,
    link: Link,
    inc: Arc<Incarnation>,
}

impl FrameReceiver for WrappedReceiver {
    fn recv_frame(&mut self, timeout: Duration) -> NetResult<Vec<u8>> {
        if self.inc.is_dead() {
            return Err(self.inc.lost(self.link));
        }
        let start = Instant::now();
        let result = self.inner.recv_frame(timeout);
        let end = Instant::now();
        let rec = &self.inc.rec;
        if rec.traced {
            let waited = end.saturating_duration_since(start).as_nanos() as u64;
            rec.recv_wait_ns.fetch_add(waited, Ordering::Relaxed);
            if result.is_err() {
                rec.recv_idle_ns.fetch_add(waited, Ordering::Relaxed);
            }
        }
        // A frame that lands after the incarnation died dies with it.
        if self.inc.is_dead() {
            return Err(self.inc.lost(self.link));
        }
        let frame = result?;
        let (class, env) = rec.classify(&frame);
        if let (Some(key), Some(env)) = (self.inc.kill_at, env) {
            if env.dst == self.inc.stage && (env.iteration, env.micro_batch) == key {
                self.inc.die();
                return Err(self.inc.lost(self.link));
            }
        }
        rec.frame(
            Op::Recv,
            &self.inc,
            self.link,
            class,
            env,
            frame.len(),
            start,
            end,
        );
        Ok(frame)
    }
}

struct WrappedReattach {
    inner: Box<dyn Reattach>,
    inc: Arc<Incarnation>,
}

impl Reattach for WrappedReattach {
    fn reattach(&mut self, timeout: Duration) -> NetResult<Box<dyn Transport>> {
        // A dead process redials nothing.
        if self.inc.is_dead() {
            return Err(self.inc.lost(Link::Data));
        }
        let start = Instant::now();
        let result = self.inner.reattach(timeout);
        self.inc.rec.mark(
            Op::Reattach,
            self.inc.stage,
            self.inc.generation,
            start,
            Instant::now(),
        );
        let inner = result?;
        Ok(Box::new(Wrapped {
            inner,
            link: Link::Data,
            inc: Arc::clone(&self.inc),
        }))
    }
}
