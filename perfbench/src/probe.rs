//! Instrumented wrappers around the layers' public surfaces.
//!
//! Each wrapper forwards every call unchanged (so the hub's schedule is
//! the same with or without it), counts what crossed the seam, and —
//! while the span recorder is on — opens one span per call:
//!
//! * [`ClientProbe`] around `MoshClient` (`Endpoint` plus `keystroke`),
//!   which also clocks wall-clock wakeup-to-send and watches for a
//!   `^C` to appear on the client's copy of the screen;
//! * [`ServerProbe`] around `MoshServer`;
//! * [`AppProbe`] around the hosted `Application`;
//! * [`NetProbe`] around the emulator's `Poller`.
//!
//! The three per-session wrappers share one [`Tag`]: the session's
//! index, the id of its latest keystroke (so one keystroke's spans share
//! an identifier), its application-output counter and, for the session
//! whose inputs feed the layer probes, the captured application output.

use crate::span::{self, Layer};
use mosh_core::{Application, Endpoint, Millis, MoshClient, MoshServer, SessionEvent, TimedWrite};
use mosh_net::{Addr, Datagram, Poller, Token};
use mosh_ssp::datagram::Opened;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Most application-output bytes one session captures for the terminal
/// probe.
const OUTPUT_CAP: usize = 4 << 20;
/// Most datagram sizes one poller captures for the crypto probe.
const SIZES_CAP: usize = 200_000;

/// Captured application output, cut where each server tick ended (the
/// points at which the server committed a new frame).
#[derive(Debug, Default)]
pub struct OutputCapture {
    /// Output bytes in production order.
    pub bytes: Vec<u8>,
    /// Offsets into `bytes` at which a server tick ended.
    pub cuts: Vec<usize>,
}

/// State shared by one session's wrappers.
#[derive(Debug)]
pub struct Tag {
    sid: u32,
    key: AtomicU32,
    app_bytes: AtomicU64,
    capture: Option<Mutex<OutputCapture>>,
}

impl Tag {
    /// A tag for session `sid`, capturing its output when `capture`.
    pub fn new(sid: usize, capture: bool) -> Arc<Self> {
        Arc::new(Tag {
            sid: sid as u32,
            key: AtomicU32::new(0),
            app_bytes: AtomicU64::new(0),
            capture: capture.then(Mutex::default),
        })
    }

    fn enter(&self, layer: Layer) -> Option<span::Guard> {
        if !span::enabled() {
            return None;
        }
        span::enter(layer, self.sid, self.key.load(Ordering::Relaxed))
    }

    /// Application output bytes so far.
    pub fn app_bytes(&self) -> u64 {
        self.app_bytes.load(Ordering::Relaxed)
    }

    /// Takes the captured output, if this session captures.
    pub fn take_capture(&self) -> Option<OutputCapture> {
        self.capture
            .as_ref()
            .map(|c| std::mem::take(&mut *c.lock().expect("capture")))
    }
}

/// `MoshClient` behind the endpoint seam, with a send timer and a `^C`
/// watch.
pub struct ClientProbe {
    inner: MoshClient,
    tag: Arc<Tag>,
    armed: Option<Instant>,
    watch: Option<Millis>,
    /// Wall-clock microseconds from a keystroke to the next tick that
    /// put a datagram on the wire.
    pub send_us: Vec<f64>,
    /// Keystrokes followed by another keystroke before any send.
    pub unsent: u64,
    /// Virtual ms from each watched `^C` to its appearance on screen.
    pub ctrlc_ms: Vec<f64>,
    /// Receive-path calls.
    pub recvs: u64,
    /// Ticks.
    pub ticks: u64,
    /// Keystrokes typed.
    pub keystrokes: u64,
}

impl ClientProbe {
    /// Wraps `inner`.
    pub fn new(inner: MoshClient, tag: Arc<Tag>) -> Self {
        ClientProbe {
            inner,
            tag,
            armed: None,
            watch: None,
            send_us: Vec::new(),
            unsent: 0,
            ctrlc_ms: Vec::new(),
            recvs: 0,
            ticks: 0,
            keystrokes: 0,
        }
    }

    /// The wrapped client.
    pub fn inner(&self) -> &MoshClient {
        &self.inner
    }

    /// Types `bytes` at `now` as keystroke number `key`, returning
    /// whether it was displayed instantly.
    pub fn keystroke(&mut self, now: Millis, bytes: &[u8], key: u32) -> bool {
        self.tag.key.store(key, Ordering::Relaxed);
        let _span = self.tag.enter(Layer::ClientKey);
        self.keystrokes += 1;
        let shown = self.inner.keystroke(now, bytes);
        if self.armed.replace(Instant::now()).is_some() {
            self.unsent += 1;
        }
        shown
    }

    /// Starts watching for `^C` on screen, typed at `now`. Returns false
    /// (and does not watch) when the screen already shows one: the
    /// client never saw the flood.
    pub fn watch_ctrlc(&mut self, now: Millis) -> bool {
        if self.shows_ctrlc() {
            return false;
        }
        self.watch = Some(now);
        true
    }

    /// True while a watched `^C` has not appeared; stops watching.
    pub fn cancel_watch(&mut self) -> bool {
        self.watch.take().is_some()
    }

    /// True while a keystroke still waits for its send.
    pub fn awaiting_send(&self) -> bool {
        self.armed.is_some()
    }

    fn shows_ctrlc(&self) -> bool {
        self.inner.server_frame().to_text().contains("^C")
    }

    fn after_receive(&mut self, now: Millis) {
        if let Some(pressed) = self.watch {
            if self.shows_ctrlc() {
                self.ctrlc_ms.push((now - pressed) as f64);
                self.watch = None;
            }
        }
    }
}

// `MoshClient` has inherent methods shadowing the trait's, so the
// delegation is spelled with fully qualified calls.
impl Endpoint for ClientProbe {
    fn receive(&mut self, now: Millis, from: Addr, wire: &[u8], events: &mut Vec<SessionEvent>) {
        let _span = self.tag.enter(Layer::ClientRecv);
        self.recvs += 1;
        <MoshClient as Endpoint>::receive(&mut self.inner, now, from, wire, events);
        self.after_receive(now);
    }

    fn tick(
        &mut self,
        now: Millis,
        out: &mut Vec<(Addr, Vec<u8>)>,
        events: &mut Vec<SessionEvent>,
    ) {
        let _span = self.tag.enter(Layer::ClientTick);
        self.ticks += 1;
        let before = out.len();
        <MoshClient as Endpoint>::tick(&mut self.inner, now, out, events);
        if out.len() > before {
            if let Some(armed) = self.armed.take() {
                self.send_us.push(armed.elapsed().as_secs_f64() * 1e6);
            }
        }
    }

    fn next_wakeup(&self, now: Millis) -> Millis {
        <MoshClient as Endpoint>::next_wakeup(&self.inner, now)
    }

    fn last_heard(&self) -> Option<Millis> {
        <MoshClient as Endpoint>::last_heard(&self.inner)
    }

    fn authenticates(&self, wire: &[u8]) -> bool {
        let _span = self.tag.enter(Layer::ClientRecv);
        <MoshClient as Endpoint>::authenticates(&self.inner, wire)
    }

    fn try_open(&mut self, wire: &[u8]) -> Option<Opened> {
        let _span = self.tag.enter(Layer::ClientRecv);
        <MoshClient as Endpoint>::try_open(&mut self.inner, wire)
    }

    fn try_open_many(&mut self, wires: &[&[u8]], out: &mut Vec<Option<Opened>>) {
        let _span = self.tag.enter(Layer::ClientRecv);
        <MoshClient as Endpoint>::try_open_many(&mut self.inner, wires, out);
    }

    fn receive_opened(
        &mut self,
        now: Millis,
        from: Addr,
        opened: Opened,
        events: &mut Vec<SessionEvent>,
    ) {
        let _span = self.tag.enter(Layer::ClientRecv);
        self.recvs += 1;
        <MoshClient as Endpoint>::receive_opened(&mut self.inner, now, from, opened, events);
        self.after_receive(now);
    }
}

/// `MoshServer` behind the endpoint seam.
pub struct ServerProbe {
    inner: MoshServer,
    tag: Arc<Tag>,
    /// Receive-path calls.
    pub recvs: u64,
    /// Ticks.
    pub ticks: u64,
    /// Datagrams the ticks emitted.
    pub dgrams_out: u64,
    /// Wire bytes the ticks emitted.
    pub bytes_out: u64,
}

impl ServerProbe {
    /// Wraps `inner`.
    pub fn new(inner: MoshServer, tag: Arc<Tag>) -> Self {
        ServerProbe {
            inner,
            tag,
            recvs: 0,
            ticks: 0,
            dgrams_out: 0,
            bytes_out: 0,
        }
    }

    /// The wrapped server.
    pub fn inner(&self) -> &MoshServer {
        &self.inner
    }
}

impl Endpoint for ServerProbe {
    fn receive(&mut self, now: Millis, from: Addr, wire: &[u8], events: &mut Vec<SessionEvent>) {
        let _span = self.tag.enter(Layer::ServerRecv);
        self.recvs += 1;
        <MoshServer as Endpoint>::receive(&mut self.inner, now, from, wire, events);
    }

    fn tick(
        &mut self,
        now: Millis,
        out: &mut Vec<(Addr, Vec<u8>)>,
        events: &mut Vec<SessionEvent>,
    ) {
        let _span = self.tag.enter(Layer::ServerTick);
        self.ticks += 1;
        let before = out.len();
        <MoshServer as Endpoint>::tick(&mut self.inner, now, out, events);
        self.dgrams_out += (out.len() - before) as u64;
        self.bytes_out += out[before..]
            .iter()
            .map(|(_, w)| w.len() as u64)
            .sum::<u64>();
        if let Some(capture) = &self.tag.capture {
            let mut c = capture.lock().expect("capture");
            if c.cuts.last().copied().unwrap_or(0) < c.bytes.len() {
                let end = c.bytes.len();
                c.cuts.push(end);
            }
        }
    }

    fn next_wakeup(&self, now: Millis) -> Millis {
        <MoshServer as Endpoint>::next_wakeup(&self.inner, now)
    }

    fn last_heard(&self) -> Option<Millis> {
        <MoshServer as Endpoint>::last_heard(&self.inner)
    }

    fn authenticates(&self, wire: &[u8]) -> bool {
        let _span = self.tag.enter(Layer::ServerRecv);
        <MoshServer as Endpoint>::authenticates(&self.inner, wire)
    }

    fn try_open(&mut self, wire: &[u8]) -> Option<Opened> {
        let _span = self.tag.enter(Layer::ServerRecv);
        <MoshServer as Endpoint>::try_open(&mut self.inner, wire)
    }

    fn try_open_many(&mut self, wires: &[&[u8]], out: &mut Vec<Option<Opened>>) {
        let _span = self.tag.enter(Layer::ServerRecv);
        <MoshServer as Endpoint>::try_open_many(&mut self.inner, wires, out);
    }

    fn receive_opened(
        &mut self,
        now: Millis,
        from: Addr,
        opened: Opened,
        events: &mut Vec<SessionEvent>,
    ) {
        let _span = self.tag.enter(Layer::ServerRecv);
        self.recvs += 1;
        <MoshServer as Endpoint>::receive_opened(&mut self.inner, now, from, opened, events);
    }

    fn activity_marker(&self) -> Option<(u64, u64)> {
        <MoshServer as Endpoint>::activity_marker(&self.inner)
    }

    fn checkpoint(&mut self, now: Millis) -> Option<Vec<u8>> {
        <MoshServer as Endpoint>::checkpoint(&mut self.inner, now)
    }
}

/// The hosted application behind the `Application` seam.
pub struct AppProbe {
    inner: Box<dyn Application>,
    tag: Arc<Tag>,
}

impl AppProbe {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Application>, tag: Arc<Tag>) -> Self {
        AppProbe { inner, tag }
    }

    fn record(&self, writes: Vec<TimedWrite>) -> Vec<TimedWrite> {
        let bytes: u64 = writes.iter().map(|w| w.bytes.len() as u64).sum();
        self.tag.app_bytes.fetch_add(bytes, Ordering::Relaxed);
        if let Some(capture) = &self.tag.capture {
            let mut c = capture.lock().expect("capture");
            for w in &writes {
                if c.bytes.len() + w.bytes.len() <= OUTPUT_CAP {
                    c.bytes.extend_from_slice(&w.bytes);
                }
            }
        }
        writes
    }
}

impl Application for AppProbe {
    fn start(&mut self, now: Millis) -> Vec<TimedWrite> {
        let _span = self.tag.enter(Layer::Apps);
        let writes = self.inner.start(now);
        self.record(writes)
    }

    fn on_input(&mut self, now: Millis, bytes: &[u8]) -> Vec<TimedWrite> {
        let _span = self.tag.enter(Layer::Apps);
        let writes = self.inner.on_input(now, bytes);
        self.record(writes)
    }

    fn poll(&mut self, now: Millis) -> Vec<TimedWrite> {
        let _span = self.tag.enter(Layer::Apps);
        let writes = self.inner.poll(now);
        self.record(writes)
    }

    fn next_wakeup(&self, now: Millis) -> Option<Millis> {
        self.inner.next_wakeup(now)
    }

    fn on_resize(&mut self, now: Millis, width: usize, height: usize) -> Vec<TimedWrite> {
        let _span = self.tag.enter(Layer::Apps);
        let writes = self.inner.on_resize(now, width, height);
        self.record(writes)
    }

    fn save_state(&self) -> Vec<u8> {
        self.inner.save_state()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        self.inner.restore_state(bytes)
    }
}

/// When set, every [`NetProbe`] records the size of each datagram sent.
static CAPTURE_SIZES: AtomicBool = AtomicBool::new(false);

/// Turns datagram-size capture on or off for every [`NetProbe`].
pub fn capture_sizes(on: bool) {
    CAPTURE_SIZES.store(on, Ordering::SeqCst);
}

/// The emulator's poller behind the `Poller` seam.
#[derive(Debug)]
pub struct NetProbe<P> {
    inner: P,
    /// Datagrams sent.
    pub dgrams: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Captured wire sizes (see [`capture_sizes`]).
    pub sizes: Vec<u16>,
}

impl<P> NetProbe<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        NetProbe {
            inner,
            dgrams: 0,
            bytes: 0,
            sizes: Vec::new(),
        }
    }

    /// The wrapped poller.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    fn count(&mut self, len: usize) {
        self.dgrams += 1;
        self.bytes += len as u64;
        if CAPTURE_SIZES.load(Ordering::Relaxed) && self.sizes.len() < SIZES_CAP {
            self.sizes.push(len.min(u16::MAX as usize) as u16);
        }
    }
}

fn net_span() -> Option<span::Guard> {
    span::enter(Layer::Net, u32::MAX, u32::MAX)
}

impl<P: Poller> Poller for NetProbe<P> {
    type Chan = P::Chan;

    fn add(&mut self, channel: Self::Chan) -> Token {
        self.inner.add(channel)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn channel(&self, tok: Token) -> &Self::Chan {
        self.inner.channel(tok)
    }

    fn channel_mut(&mut self, tok: Token) -> &mut Self::Chan {
        self.inner.channel_mut(tok)
    }

    fn now(&self, tok: Token) -> Millis {
        self.inner.now(tok)
    }

    fn send(&mut self, tok: Token, from: Addr, to: Addr, payload: Vec<u8>) {
        let _span = net_span();
        self.count(payload.len());
        self.inner.send(tok, from, to, payload);
    }

    fn send_many(&mut self, tok: Token, from: Addr, batch: Vec<(Addr, Vec<u8>)>) {
        let _span = net_span();
        for (_, payload) in &batch {
            self.count(payload.len());
        }
        self.inner.send_many(tok, from, batch);
    }

    fn extract(&mut self, tok: Token) -> Option<Self::Chan> {
        self.inner.extract(tok)
    }

    fn next_event_time(&self, tok: Token) -> Option<Millis> {
        self.inner.next_event_time(tok)
    }

    fn poll_any(&mut self) -> Option<(Token, Datagram)> {
        let _span = net_span();
        self.inner.poll_any()
    }

    fn wait_until(&mut self, tok: Token, deadline: Millis) -> Millis {
        let _span = net_span();
        self.inner.wait_until(tok, deadline)
    }
}
