//! One round of a workload: a fleet set up, driven, checked and tallied.

use crate::fleet::{Fleet, HubCounts};
use crate::probe::OutputCapture;
use crate::span::{self, Layer};
use mosh_prediction::PredictionStats;
use mosh_ssp::sender::SenderStats;
use std::time::Instant;

/// Inputs captured for the layer probes.
#[derive(Debug, Default)]
pub struct Capture {
    /// Wire sizes of every datagram the emulator carried (capped).
    pub sizes: Vec<u16>,
    /// The capturing session's application output and tick cuts.
    pub output: OutputCapture,
}

/// Per-layer counts summed over a round's sessions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerCounts {
    /// Server receive-path calls.
    pub server_recvs: u64,
    /// Server ticks.
    pub server_ticks: u64,
    /// Datagrams servers emitted.
    pub server_dgrams: u64,
    /// Wire bytes servers emitted.
    pub server_bytes: u64,
    /// Client receive-path calls.
    pub client_recvs: u64,
    /// Client ticks.
    pub client_ticks: u64,
    /// Keystrokes typed.
    pub client_keys: u64,
    /// Application output bytes.
    pub app_bytes: u64,
    /// Server-side SSP sender counters.
    pub ssp: SenderStats,
    /// Client prediction counters.
    pub prediction: PredictionStats,
}

/// Everything one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Wall seconds to build the fleet.
    pub setup_s: f64,
    /// Wall seconds spent driving it.
    pub wall_s: f64,
    /// Sessions in the fleet.
    pub sessions: usize,
    /// Virtual session-milliseconds served.
    pub session_ms: u64,
    /// Response latency of each measured keystroke (virtual ms, 0 when
    /// displayed instantly).
    pub latencies: Vec<f64>,
    /// Measured keystrokes displayed instantly.
    pub instant: u64,
    /// Mispredictions.
    pub mispredicted: u64,
    /// Wall-clock keystroke-to-send samples (µs).
    pub send_us: Vec<f64>,
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations that failed.
    pub failed: u64,
    /// Hub and emulator counters.
    pub hub: HubCounts,
    /// Per-layer counters.
    pub layers: LayerCounts,
    /// Probe inputs (traced rounds only).
    pub capture: Option<Capture>,
}

impl Round {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Hub shards (worker threads) every workload runs on.
pub const SHARDS: usize = 2;

/// Builds a fleet with `build`, timing it, and starts the round.
pub fn setup(build: impl FnOnce(&mut Fleet)) -> (Fleet, Round) {
    let start = Instant::now();
    let mut fleet = Fleet::new(SHARDS);
    build(&mut fleet);
    let round = Round {
        setup_s: start.elapsed().as_secs_f64(),
        sessions: fleet.sessions().len(),
        ..Round::default()
    };
    (fleet, round)
}

/// Runs `drive` inside the round's root span, returning its wall seconds.
pub fn timed(drive: impl FnOnce()) -> f64 {
    let start = Instant::now();
    {
        let _root = span::enter(Layer::Bench, u32::MAX, u32::MAX);
        drive();
    }
    start.elapsed().as_secs_f64()
}

/// Closes a round: the checks every workload shares, then the tallies.
pub fn finish(mut fleet: Fleet, round: &mut Round, capture: bool) {
    let hub = fleet.hub_counts();
    round.check(hub.shard_panics == 0);
    round.check(hub.dropped == 0);
    let mut c = LayerCounts::default();
    let mut output = None;
    for s in fleet.sessions() {
        c.server_recvs += s.server.recvs;
        c.server_ticks += s.server.ticks;
        c.server_dgrams += s.server.dgrams_out;
        c.server_bytes += s.server.bytes_out;
        c.client_recvs += s.client.recvs;
        c.client_ticks += s.client.ticks;
        c.client_keys += s.client.keystrokes;
        c.app_bytes += s.tag.app_bytes();
        let ssp = s.server.inner().sender_stats();
        c.ssp.data += ssp.data;
        c.ssp.retransmits += ssp.retransmits;
        c.ssp.pure_acks += ssp.pure_acks;
        c.ssp.heartbeats += ssp.heartbeats;
        c.ssp.piggybacked_acks += ssp.piggybacked_acks;
        let p = s.client.inner().prediction_stats();
        c.prediction.predicted += p.predicted;
        c.prediction.displayed_instantly += p.displayed_instantly;
        c.prediction.unpredicted += p.unpredicted;
        c.prediction.confirmed += p.confirmed;
        c.prediction.mispredicted += p.mispredicted;
        round.send_us.extend_from_slice(&s.client.send_us);
        if output.is_none() {
            output = s.tag.take_capture();
        }
    }
    round.mispredicted = c.prediction.mispredicted;
    if capture {
        round.capture = Some(Capture {
            sizes: fleet.take_sizes(),
            output: output.unwrap_or_default(),
        });
    }
    round.hub = hub;
    round.layers = c;
}
