//! The in-memory span recorder behind the traced run.
//!
//! Every seam the benchmark calls through (endpoint, application,
//! poller, hub pump, lease building) opens a [`Guard`] that records one
//! [`Span`] when dropped: layer, start, end, parent, session and
//! keystroke id. Spans land in a per-thread buffer (the shard workers
//! record on their own threads) and stay in memory until
//! [`drain`]. With tracing off, [`enter`] is one relaxed load.
//!
//! [`attribute`] turns the spans of one traced round into per-layer
//! *self* wall time that adds up to the round's wall: on a thread,
//! a span's self time is its duration minus its children's; during a
//! hub pump, each instant is split evenly between the shard threads
//! busy at that instant (a shard that is between its first and last
//! span of the pump but inside no span is doing hub work), and an
//! instant when no shard is busy is the hub's own dispatch and wait.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The seams a span can belong to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own main loop (keystroke injection, event
    /// handling, correctness checks).
    Bench,
    /// Caller-side `HubSession` lease building.
    Lease,
    /// `ShardedHub::pump`: its self time is the hub's.
    Pump,
    /// `MoshClient::keystroke`.
    ClientKey,
    /// Client endpoint receive path (authenticate, open, receive).
    ClientRecv,
    /// Client endpoint tick.
    ClientTick,
    /// Server endpoint receive path.
    ServerRecv,
    /// Server endpoint tick.
    ServerTick,
    /// The hosted application.
    Apps,
    /// The emulator's poller.
    Net,
}

/// Number of [`Layer`]s (index with `layer as usize`).
pub const LAYERS: usize = 10;

/// Marks an absent parent or session.
pub const NONE: u64 = u64::MAX;

/// One recorded call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Unique id: recording thread in the high bits, sequence below.
    pub id: u64,
    /// Enclosing span on the same thread, or the running pump for a
    /// shard thread's outermost span, or [`NONE`].
    pub parent: u64,
    /// Seam.
    pub layer: Layer,
    /// Recording thread (registration order).
    pub thread: u32,
    /// Session index, or `u32::MAX`.
    pub sid: u32,
    /// Keystroke id current in the session when the span opened.
    pub key: u32,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end: u64,
}

static ON: AtomicBool = AtomicBool::new(false);
static PUMP: AtomicU64 = AtomicU64::new(NONE);
type Buffer = Arc<Mutex<Vec<Span>>>;
static REGISTRY: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

struct Local {
    thread: u32,
    next: u64,
    stack: Vec<u64>,
    buf: Buffer,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

fn with_local<R>(f: impl FnOnce(&mut Local) -> R) -> R {
    LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let local = slot.get_or_insert_with(|| {
            let buf: Buffer = Arc::default();
            let mut registry = REGISTRY.lock().expect("span registry");
            registry.push(buf.clone());
            Local {
                thread: (registry.len() - 1) as u32,
                next: 0,
                stack: Vec::new(),
                buf,
            }
        });
        f(local)
    })
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    ON.store(on, Ordering::SeqCst);
}

/// True while recording.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// An open span; records itself when dropped.
pub struct Guard {
    id: u64,
    parent: u64,
    layer: Layer,
    sid: u32,
    key: u32,
    start: u64,
}

/// Opens a span, or returns `None` when recording is off.
pub fn enter(layer: Layer, sid: u32, key: u32) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    let (id, parent) = with_local(|l| {
        let id = (u64::from(l.thread) << 40) | l.next;
        l.next += 1;
        let parent = l
            .stack
            .last()
            .copied()
            .unwrap_or_else(|| PUMP.load(Ordering::Acquire));
        l.stack.push(id);
        (id, parent)
    });
    Some(Guard {
        id,
        parent,
        layer,
        sid,
        key,
        start: now_ns(),
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = now_ns();
        with_local(|l| {
            l.stack.pop();
            l.buf.lock().expect("span buffer").push(Span {
                id: self.id,
                parent: self.parent,
                layer: self.layer,
                thread: l.thread,
                sid: self.sid,
                key: self.key,
                start: self.start,
                end,
            });
        });
    }
}

/// The span of one `ShardedHub::pump`: while it is open, the shard
/// threads' outermost spans name it as their parent.
pub struct PumpGuard(Option<Guard>);

/// Opens a pump span (see [`PumpGuard`]).
pub fn enter_pump() -> PumpGuard {
    let guard = enter(Layer::Pump, u32::MAX, u32::MAX);
    if let Some(g) = &guard {
        PUMP.store(g.id, Ordering::Release);
    }
    PumpGuard(guard)
}

impl Drop for PumpGuard {
    fn drop(&mut self) {
        if self.0.take().is_some() {
            PUMP.store(NONE, Ordering::Release);
        }
    }
}

/// Takes every recorded span off every thread's buffer, by start time.
pub fn drain() -> Vec<Span> {
    let registry = REGISTRY.lock().expect("span registry");
    let mut all = Vec::new();
    for buf in registry.iter() {
        all.append(&mut buf.lock().expect("span buffer"));
    }
    all.sort_by_key(|s| (s.start, std::cmp::Reverse(s.end)));
    all
}

/// Per-layer self wall time of one traced round.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Self wall nanoseconds per layer (index `Layer as usize`).
    pub self_ns: [f64; LAYERS],
    /// Shard-thread span time that fell outside every pump (should be 0).
    pub stray_ns: f64,
}

impl Attribution {
    /// Sum of every layer's self time.
    pub fn total_ns(&self) -> f64 {
        self.self_ns.iter().sum()
    }
}

/// A maximal interval during which one layer is innermost on a thread.
#[derive(Clone, Copy, Debug)]
struct Segment {
    start: u64,
    end: u64,
    layer: Layer,
}

/// Flattens one thread's properly nested spans (sorted by start, longer
/// first on ties) into innermost-layer segments.
fn segments(spans: &[&Span]) -> Vec<Segment> {
    struct Open {
        layer: Layer,
        end: u64,
        cursor: u64,
    }
    fn emit(out: &mut Vec<Segment>, start: u64, end: u64, layer: Layer) {
        if end > start {
            out.push(Segment { start, end, layer });
        }
    }
    fn close(stack: &mut Vec<Open>, out: &mut Vec<Segment>) {
        let top = stack.pop().expect("open span");
        emit(out, top.cursor, top.end, top.layer);
        if let Some(parent) = stack.last_mut() {
            parent.cursor = top.end;
        }
    }
    let mut out = Vec::new();
    let mut stack: Vec<Open> = Vec::new();
    for s in spans {
        while stack.last().is_some_and(|top| top.end <= s.start) {
            close(&mut stack, &mut out);
        }
        if let Some(parent) = stack.last_mut() {
            emit(&mut out, parent.cursor, s.start, parent.layer);
            parent.cursor = s.start;
        }
        stack.push(Open {
            layer: s.layer,
            end: s.end,
            cursor: s.start,
        });
    }
    while !stack.is_empty() {
        close(&mut stack, &mut out);
    }
    out
}

/// Attributes the spans of one traced round (see the module docs).
/// `main` is the thread that drove the round and opened its pumps.
pub fn attribute(spans: &[Span], main: u32) -> Attribution {
    let threads = spans.iter().map(|s| s.thread).max().map_or(0, |t| t + 1);
    let mut per_thread: Vec<Vec<&Span>> = vec![Vec::new(); threads as usize];
    for s in spans {
        per_thread[s.thread as usize].push(s);
    }
    let main_segments = segments(&per_thread[main as usize]);
    let workers: Vec<Vec<Segment>> = per_thread
        .iter()
        .enumerate()
        .filter(|(t, _)| *t as u32 != main)
        .map(|(_, spans)| segments(spans))
        .collect();

    let mut out = Attribution::default();
    let mut covered_ns = 0u64;
    for seg in &main_segments {
        if seg.layer != Layer::Pump {
            out.self_ns[seg.layer as usize] += (seg.end - seg.start) as f64;
            continue;
        }
        // Each worker's pieces inside this pump, with the gaps between
        // its first and last span filled in as hub work.
        let mut pieces: Vec<Vec<Segment>> = Vec::with_capacity(workers.len());
        for segs in &workers {
            let from = segs.partition_point(|s| s.end <= seg.start);
            let to = segs.partition_point(|s| s.start < seg.end);
            let mut own = Vec::new();
            let mut cursor = None;
            for s in &segs[from..to.max(from)] {
                let (a, b) = (s.start.max(seg.start), s.end.min(seg.end));
                if let Some(c) = cursor {
                    if a > c {
                        own.push(Segment {
                            start: c,
                            end: a,
                            layer: Layer::Pump,
                        });
                    }
                }
                own.push(Segment {
                    start: a,
                    end: b,
                    layer: s.layer,
                });
                covered_ns += b - a;
                cursor = Some(b);
            }
            pieces.push(own);
        }
        let mut cuts: Vec<u64> = vec![seg.start, seg.end];
        for own in &pieces {
            for p in own {
                cuts.push(p.start);
                cuts.push(p.end);
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        let mut at = vec![0usize; pieces.len()];
        for win in cuts.windows(2) {
            let (x, y) = (win[0], win[1]);
            let mut busy: Vec<Layer> = Vec::new();
            for (w, own) in pieces.iter().enumerate() {
                while at[w] < own.len() && own[at[w]].end <= x {
                    at[w] += 1;
                }
                if let Some(p) = own.get(at[w]) {
                    if p.start <= x && x < p.end {
                        busy.push(p.layer);
                    }
                }
            }
            let dt = (y - x) as f64;
            if busy.is_empty() {
                out.self_ns[Layer::Pump as usize] += dt;
            } else {
                let share = dt / busy.len() as f64;
                for layer in busy {
                    out.self_ns[layer as usize] += share;
                }
            }
        }
    }
    let worker_total: u64 = workers
        .iter()
        .flat_map(|segs| segs.iter().map(|s| s.end - s.start))
        .sum();
    out.stray_ns = worker_total.saturating_sub(covered_ns) as f64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(thread: u32, layer: Layer, start: u64, end: u64) -> Span {
        Span {
            id: 0,
            parent: NONE,
            layer,
            thread,
            sid: 0,
            key: 0,
            start,
            end,
        }
    }

    #[test]
    fn nested_spans_split_into_self_time() {
        let spans = vec![
            span(0, Layer::Bench, 0, 100),
            span(0, Layer::ClientKey, 10, 30),
            span(0, Layer::Apps, 15, 20),
        ];
        let a = attribute(&spans, 0);
        assert_eq!(a.self_ns[Layer::Bench as usize], 80.0);
        assert_eq!(a.self_ns[Layer::ClientKey as usize], 15.0);
        assert_eq!(a.self_ns[Layer::Apps as usize], 5.0);
        assert_eq!(a.total_ns(), 100.0);
    }

    #[test]
    fn parallel_shards_share_the_pump_wall() {
        let spans = vec![
            span(0, Layer::Bench, 0, 100),
            span(0, Layer::Pump, 10, 90),
            // Two shards both busy in 20..40, one alone in 40..60 with a
            // hub gap at 40..50 on the other shard.
            span(1, Layer::ServerTick, 20, 40),
            span(1, Layer::Net, 50, 60),
            span(2, Layer::ClientTick, 20, 40),
        ];
        let a = attribute(&spans, 0);
        assert_eq!(a.total_ns(), 100.0);
        assert_eq!(a.self_ns[Layer::ServerTick as usize], 10.0);
        assert_eq!(a.self_ns[Layer::ClientTick as usize], 10.0);
        assert_eq!(a.self_ns[Layer::Net as usize], 10.0);
        // 10..20 and 60..90 idle shards, 40..50 shard 1 between spans.
        assert_eq!(a.self_ns[Layer::Pump as usize], 50.0);
        assert_eq!(a.stray_ns, 0.0);
    }
}
