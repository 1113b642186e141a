//! Storage-free blank rows are invisible: random op walks on a terminal
//! and on a copy whose rows are all force-materialised after every op
//! must agree on frames, scrollback, snapshots and diffs, and the damage
//! claims of both must hold cell by cell.

use crate::{display, Framebuffer, RowDelta, Terminal};
use proptest::prelude::*;

#[path = "../tests/support/strategies.rs"]
mod strategies;

#[derive(Debug, Clone)]
enum Op {
    Write(Vec<u8>),
    Resize(usize, usize),
    /// Takes the snapshot the next diffs and damage claims are against.
    Snapshot,
}

/// `terminal_bytes()` plus the paths that make or keep rows storage-free:
/// ED/EL with the default or a colored background, the alternate screen,
/// RIS and DECALN. Short prints and erases aim at the top rows, and
/// snapshots are frequent, so that a snapshot, a write and a whole-row
/// erase often meet on one row.
fn ops() -> impl Strategy<Value = Vec<Op>> {
    let print = || {
        (1u16..4, 1u16..25, "[a-z]{1,8}")
            .prop_map(|(r, c, word)| Op::Write(format!("\x1b[{r};{c}H{word}").into_bytes()))
    };
    // Background 49 is the default; 41..=47 are colors.
    let erase =
        (1u16..4, 1u16..25, 41u16..50, 0u16..4, any::<bool>()).prop_map(|(r, c, bg, n, line)| {
            let bg = if bg > 47 { 49 } else { bg };
            let erase = if line { 'K' } else { 'J' };
            Op::Write(format!("\x1b[{r};{c}H\x1b[{bg}m\x1b[{n}{erase}").into_bytes())
        });
    let screens = prop_oneof![
        Just(b"\x1b[?1049h".to_vec()),
        Just(b"\x1b[?1049l".to_vec()),
        Just(b"\x1bc".to_vec()),
        Just(b"\x1b#8".to_vec()),
    ]
    .prop_map(Op::Write);
    let op = prop_oneof![
        strategies::terminal_bytes().prop_map(Op::Write),
        print(),
        print(),
        erase,
        screens,
        (1usize..40, 1usize..10).prop_map(|(w, h)| Op::Resize(w, h)),
        Just(Op::Snapshot),
        Just(Op::Snapshot),
    ];
    proptest::collection::vec(op, 1..24)
}

/// Every damage claim `cur` makes against `snap` is literally true.
fn claims_hold(snap: &Framebuffer, cur: &Framebuffer) -> Result<(), TestCaseError> {
    if (snap.width(), snap.height()) != (cur.width(), cur.height()) {
        // The differ repaints across a resize and consults no claims.
        return Ok(());
    }
    for r in 0..cur.height() {
        let (c, s) = (cur.row(r), snap.row(r));
        let (lo, hi) = match c.delta_from(s) {
            RowDelta::Identical => (1, 0),
            RowDelta::Damaged(lo, hi) => (lo, hi),
            RowDelta::Unknown => continue,
        };
        for (col, (a, b)) in c.cells().iter().zip(s.cells()).enumerate() {
            if col < lo || col > hi {
                prop_assert_eq!(a, b, "row {} col {} outside claim [{}, {}]", r, col, lo, hi);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn storage_free_rows_match_materialized_rows(ops in ops(), initialized in any::<bool>()) {
        let mut lean = Terminal::new(24, 5);
        let mut full = lean.clone();
        full.frame_mut().materialize_rows();
        prop_assert_eq!(full.frame().stored_rows(), 5);
        let (mut lean_snap, mut full_snap) = (lean.frame().clone(), full.frame().clone());
        for op in ops {
            match op {
                Op::Write(bytes) => {
                    lean.write(&bytes);
                    full.write(&bytes);
                }
                Op::Resize(w, h) => {
                    lean.resize(w, h);
                    full.resize(w, h);
                }
                Op::Snapshot => {
                    lean_snap = lean.frame().clone();
                    full_snap = full.frame().clone();
                }
            }
            full.frame_mut().materialize_rows();
            let (l, f) = (lean.frame(), full.frame());
            prop_assert_eq!(l, f);
            prop_assert_eq!(lean.snapshot_bytes(), full.snapshot_bytes());
            let diff = display::new_frame(initialized, &lean_snap, l);
            prop_assert_eq!(&diff, &display::new_frame_full_scan(initialized, &lean_snap, l));
            prop_assert_eq!(&diff, &display::new_frame(initialized, &full_snap, f));
            claims_hold(&lean_snap, l)?;
            claims_hold(&full_snap, f)?;
        }
    }
}
