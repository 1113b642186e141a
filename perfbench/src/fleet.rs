//! The one module that leases sessions to the hub.
//!
//! Every `ShardedHub`, `SessionId`, `HubSession` and `Party` the
//! benchmark touches lives here: workloads add sessions, say how far to
//! drive each one, and read counters back. If session ownership moves
//! into the hub, this file is the only one the benchmark has to change.

use crate::probe::{AppProbe, ClientProbe, NetProbe, ServerProbe, Tag};
use crate::span::{self, Layer};
use mosh_core::{
    Application, HubSession, Millis, MoshClient, MoshServer, Party, SessionEvent, SessionId,
    ShardedHub,
};
use mosh_crypto::Base64Key;
use mosh_net::{Addr, LinkConfig, Network, Poller, Side, SimChannel, SimPoller, Token};
use mosh_prediction::DisplayPreference;
use std::sync::Arc;

/// Client address inside every session's emulated world.
const CLIENT: Addr = Addr::new(1, 1000);
/// Server address inside every session's emulated world.
const SERVER: Addr = Addr::new(2, 60001);

/// One client↔server pair and its shared probe tag.
pub struct Session {
    /// The client endpoint.
    pub client: ClientProbe,
    /// The server endpoint.
    pub server: ServerProbe,
    /// Counters and capture shared by the session's wrappers.
    pub tag: Arc<Tag>,
}

/// What the hub and the emulator counted over a fleet's life.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HubCounts {
    /// `ShardedHub::pump` calls.
    pub pumps: u64,
    /// Timer-wheel pops.
    pub wakeups: u64,
    /// Datagrams delivered to a session.
    pub delivered: u64,
    /// Datagrams no session claimed.
    pub dropped: u64,
    /// Deliveries routed by authentication.
    pub auth_routed: u64,
    /// Quarantined shards.
    pub shard_panics: u64,
    /// Max over mean of per-shard wakeups.
    pub shard_skew: f64,
    /// Datagrams handed to the emulator.
    pub net_dgrams: u64,
    /// Payload bytes handed to the emulator.
    pub net_bytes: u64,
    /// Datagrams the emulated links' droptail queues discarded.
    pub queue_drops: u64,
}

/// A sharded hub of Mosh sessions, each in its own emulated world.
pub struct Fleet {
    hub: ShardedHub<NetProbe<SimPoller>>,
    sessions: Vec<Session>,
    pumps: u64,
}

fn key(i: usize) -> Base64Key {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&(i as u64).to_le_bytes());
    bytes[15] = 0xb5;
    Base64Key::from_bytes(bytes)
}

impl Fleet {
    /// An empty fleet on `shards` worker threads.
    pub fn new(shards: usize) -> Self {
        Fleet {
            hub: ShardedHub::with_shards(shards, || NetProbe::new(SimPoller::new())),
            sessions: Vec::new(),
            pumps: 0,
        }
    }

    /// Adds a session over `up`/`down` (emulator RNG seeded with
    /// `net_seed`) hosting `app`, returning its index. When `capture`,
    /// the session records its application output for the probes.
    pub fn add(
        &mut self,
        up: LinkConfig,
        down: LinkConfig,
        net_seed: u64,
        app: Box<dyn Application>,
        preference: DisplayPreference,
        capture: bool,
    ) -> usize {
        let i = self.sessions.len();
        let mut net = Network::new(up, down, net_seed);
        net.register(CLIENT, Side::Client);
        net.register(SERVER, Side::Server);
        let sid = self.hub.add_session(SimChannel::new(net));
        assert_eq!(sid, SessionId(i), "fleet indices are hub session ids");
        let tag = Tag::new(i, capture);
        let client = MoshClient::new(key(i), SERVER, 80, 24, preference);
        let server = MoshServer::new(key(i), Box::new(AppProbe::new(app, tag.clone())));
        self.sessions.push(Session {
            client: ClientProbe::new(client, tag.clone()),
            server: ServerProbe::new(server, tag.clone()),
            tag,
        });
        i
    }

    /// The sessions, by index.
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// Session `i`'s client.
    pub fn client(&mut self, i: usize) -> &mut ClientProbe {
        &mut self.sessions[i].client
    }

    /// Drives session `i` to `targets[i]` (sessions with `None` are not
    /// leased), returning the events tagged by session index.
    pub fn pump(&mut self, targets: &[Option<Millis>]) -> Vec<(usize, SessionEvent)> {
        let Fleet {
            hub,
            sessions,
            pumps,
        } = self;
        let lease = span::enter(Layer::Lease, u32::MAX, u32::MAX);
        let mut parties: Vec<(usize, Millis, [Party<'_>; 2])> = sessions
            .iter_mut()
            .zip(targets)
            .enumerate()
            .filter_map(|(i, (s, target))| {
                target.map(|t| {
                    let parties = [
                        Party::new(CLIENT, &mut s.client),
                        Party::new(SERVER, &mut s.server),
                    ];
                    (i, t, parties)
                })
            })
            .collect();
        let mut leases: Vec<HubSession<'_, '_>> = parties
            .iter_mut()
            .map(|(i, t, p)| HubSession::new(SessionId(*i), p, *t))
            .collect();
        drop(lease);
        let events = {
            let _pump = span::enter_pump();
            hub.pump(&mut leases)
        };
        *pumps += 1;
        events.into_iter().map(|(sid, ev)| (sid.0, ev)).collect()
    }

    /// Hub and emulator counters so far.
    pub fn hub_counts(&self) -> HubCounts {
        let stats = self.hub.stats();
        let loads: Vec<f64> = stats.shard_loads.iter().map(|l| l.wakeups as f64).collect();
        let mean = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
        let max = loads.iter().copied().fold(0.0, f64::max);
        let mut counts = HubCounts {
            pumps: self.pumps,
            wakeups: stats.wakeups,
            delivered: stats.delivered,
            dropped: stats.dropped,
            auth_routed: stats.auth_routed,
            shard_panics: stats.shard_panics,
            shard_skew: if mean > 0.0 { max / mean } else { 0.0 },
            ..HubCounts::default()
        };
        for i in 0..self.hub.shard_count() {
            let probe = self.hub.shard(i).poller();
            counts.net_dgrams += probe.dgrams;
            counts.net_bytes += probe.bytes;
            let poller = probe.inner();
            for t in 0..poller.len() {
                let stats = poller.channel(Token(t)).network().stats();
                counts.queue_drops += stats.up.dropped_queue + stats.down.dropped_queue;
            }
        }
        counts
    }

    /// Takes the datagram sizes the pollers captured.
    pub fn take_sizes(&mut self) -> Vec<u16> {
        let mut sizes = Vec::new();
        for i in 0..self.hub.shard_count() {
            sizes.append(&mut self.hub.shard_mut(i).poller_mut().sizes);
        }
        sizes
    }
}
