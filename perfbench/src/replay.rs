//! `replay_evdo`: the paper's Figure 2. The six synthetic users replay
//! open-loop at trace times through Mosh over the EV-DO link pair, with
//! adaptive prediction, every user one hub session.
//!
//! A keystroke's response latency is 0 when prediction displayed it
//! instantly; otherwise it is the arrival of the first server frame whose
//! echo ack covers it — the replay engine's measure (`mosh_trace::replay`).

use crate::fleet::Fleet;
use crate::rng::Rng;
use crate::round::{self, Round};
use crate::Scale;
use mosh_core::apps::Application;
use mosh_core::{Millis, SessionEvent};
use mosh_net::LinkConfig;
use mosh_prediction::DisplayPreference;
use mosh_trace::synth::TraceKey;
use mosh_trace::{AppKind, UserTrace, WorkloadApp, SWITCH_BYTE};
use std::collections::VecDeque;

/// Virtual ms after a user's last keystroke before its session ends.
const SETTLE: Millis = 20_000;

/// One scripted keystroke.
struct Key {
    at: Millis,
    bytes: Vec<u8>,
    /// Measured: a trace keystroke (not an app switch) that produces
    /// visible output.
    counted: bool,
}

/// One user's flattened trace.
pub struct Script {
    apps: Vec<AppKind>,
    keys: Vec<Key>,
}

/// Flattens the traces and marks the measured keystrokes, by dry-running
/// each user's applications (keystrokes that produce no output at all
/// are not measured, as in the replay engine).
pub fn scripts(scale: Scale) -> Vec<Script> {
    let traces: Vec<UserTrace> = match scale {
        Scale::Full => mosh_trace::six_users(),
        Scale::Tiny => vec![mosh_trace::small_trace(40), mosh_trace::small_trace(30)],
    };
    traces.iter().map(script).collect()
}

fn script(trace: &UserTrace) -> Script {
    let apps: Vec<AppKind> = trace.segments.iter().map(|s| s.app).collect();
    let mut app = WorkloadApp::new(apps.clone());
    app.start(0);
    let mut keys = Vec::new();
    let mut now: Millis = 1500;
    for (i, seg) in trace.segments.iter().enumerate() {
        if i > 0 {
            now += 1500;
            app.on_input(now, &[SWITCH_BYTE]);
            keys.push(Key {
                at: now,
                bytes: vec![SWITCH_BYTE],
                counted: false,
            });
        }
        for TraceKey { gap_ms, bytes, .. } in &seg.keys {
            now += gap_ms;
            let produced = !app.on_input(now, bytes).is_empty();
            keys.push(Key {
                at: now,
                bytes: bytes.clone(),
                counted: produced,
            });
        }
    }
    Script { apps, keys }
}

struct User {
    /// Seed-drawn shift of the whole trace.
    offset: Millis,
    next: usize,
    end: Millis,
    done: bool,
    /// Unresolved keystrokes: (input index, typed at, counted).
    pending: VecDeque<(u64, Millis, bool)>,
}

impl User {
    fn target(&self, script: &Script) -> Millis {
        script
            .keys
            .get(self.next)
            .map_or(self.end, |k| k.at + self.offset)
    }
}

/// Runs one full replay of `scripts`.
pub fn round(scripts: &[Script], rng: &mut Rng, capture: bool, setup_only: bool) -> Round {
    let mut users: Vec<User> = Vec::new();
    let (mut fleet, mut round) = round::setup(|fleet: &mut Fleet| {
        for (i, s) in scripts.iter().enumerate() {
            let offset = rng.below(1000);
            let app: Box<dyn Application> = Box::new(WorkloadApp::new(s.apps.clone()));
            fleet.add(
                LinkConfig::evdo_uplink(),
                LinkConfig::evdo_downlink(),
                rng.next_u64(),
                app,
                DisplayPreference::Adaptive,
                capture && i == 0,
            );
            users.push(User {
                offset,
                next: 0,
                end: s.keys.last().map_or(0, |k| k.at) + offset + SETTLE,
                done: false,
                pending: VecDeque::new(),
            });
        }
    });
    if setup_only {
        return round;
    }

    let mut key_id = 0u32;
    let wall_s = round::timed(|| loop {
        let targets: Vec<Option<Millis>> = users
            .iter()
            .zip(scripts)
            .map(|(u, s)| (!u.done).then(|| u.target(s)))
            .collect();
        if targets.iter().all(Option::is_none) {
            break;
        }
        for (i, ev) in fleet.pump(&targets) {
            let SessionEvent::FrameAdvanced { at, echo_ack, .. } = ev else {
                continue;
            };
            while let Some(&(idx, typed, counted)) = users[i].pending.front() {
                if echo_ack < idx {
                    break;
                }
                if counted {
                    round.latencies.push((at - typed) as f64);
                }
                users[i].pending.pop_front();
            }
        }
        for (i, (u, s)) in users.iter_mut().zip(scripts).enumerate() {
            if u.done {
                continue;
            }
            if u.next >= s.keys.len() {
                u.done = true;
                continue;
            }
            let now = targets[i].expect("live user");
            while let Some(k) = s.keys.get(u.next).filter(|k| k.at + u.offset <= now) {
                let client = fleet.client(i);
                let shown = client.keystroke(now, &k.bytes, key_id);
                key_id += 1;
                if shown && k.counted {
                    round.instant += 1;
                    round.latencies.push(0.0);
                } else {
                    let idx = client.inner().input_end_index();
                    u.pending.push_back((idx, now, k.counted));
                }
                u.next += 1;
            }
        }
    });
    round.wall_s = wall_s;

    // Every measured keystroke resolved by a covering echo ack, and every
    // client's copy of the screen equal to its server's.
    for u in &users {
        for &(_, _, counted) in &u.pending {
            if counted {
                round.check(false);
            }
        }
    }
    round.attempted += round.latencies.len() as u64;
    for s in fleet.sessions() {
        round.check(s.client.inner().server_frame() == s.server.inner().frame());
    }
    round.session_ms = users.iter().map(|u| u.end).sum();
    round::finish(fleet, &mut round, capture);
    round
}
