//! Property-based tests for the terminal emulator and the frame differ.
//!
//! The load-bearing invariant for the whole system is **diff convergence**:
//! for any two reachable screen states A and B,
//! `apply(new_frame(init, A, B), A) == B`. SSP relies on this to skip
//! intermediate states safely (paper §2.3).

use mosh_terminal::{display, Terminal};
use proptest::prelude::*;

#[path = "support/strategies.rs"]
mod strategies;

use strategies::terminal_bytes;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser and emulator never panic on arbitrary bytes.
    #[test]
    fn emulator_is_total_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let mut t = Terminal::new(80, 24);
        t.write(&bytes);
    }

    /// The emulator never panics on small screens either.
    #[test]
    fn emulator_is_total_on_tiny_screens(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        w in 1usize..4,
        h in 1usize..4,
    ) {
        let mut t = Terminal::new(w, h);
        t.write(&bytes);
    }

    /// Diff convergence between two reachable states, with the client built
    /// the way a real Mosh client is: from an initial diff plus deltas.
    #[test]
    fn diff_converges_between_reachable_states(a in terminal_bytes(), b in terminal_bytes()) {
        let mut term = Terminal::new(80, 24);
        term.write(&a);
        let before = term.frame().clone();
        term.write(&b);
        let after = term.frame().clone();

        let blank = mosh_terminal::Framebuffer::new(80, 24);
        let mut client = Terminal::new(80, 24);
        client.write(display::new_frame(false, &blank, &before).as_bytes());
        prop_assert_eq!(client.frame(), &before);

        client.write(display::new_frame(true, &before, &after).as_bytes());
        prop_assert_eq!(client.frame(), &after);
    }

    /// Convergence holds across a whole *chain* of diffs (the receiver
    /// applies many instructions in sequence, as SSP does).
    #[test]
    fn diff_chain_converges(steps in proptest::collection::vec(terminal_bytes(), 1..6)) {
        let mut term = Terminal::new(60, 16);
        let mut client = Terminal::new(60, 16);
        let blank = mosh_terminal::Framebuffer::new(60, 16);
        let mut prev = blank.clone();
        let mut initialized = false;
        for step in steps {
            term.write(&step);
            let next = term.frame().clone();
            let diff = display::new_frame(initialized, &prev, &next);
            client.write(diff.as_bytes());
            prop_assert_eq!(client.frame(), &next);
            prev = next;
            initialized = true;
        }
    }

    /// Diff convergence from a blank (uninitialized) client.
    #[test]
    fn initial_diff_converges(a in terminal_bytes()) {
        let mut term = Terminal::new(80, 24);
        term.write(&a);
        let target = term.frame().clone();

        let blank = mosh_terminal::Framebuffer::new(80, 24);
        let diff = display::new_frame(false, &blank, &target);
        let mut client = Terminal::new(80, 24);
        client.write(diff.as_bytes());
        prop_assert_eq!(client.frame(), &target);
    }

    /// An empty diff means equal states, and equal states mean empty diffs.
    #[test]
    fn empty_diff_iff_equal(a in terminal_bytes(), b in terminal_bytes()) {
        let mut term = Terminal::new(40, 10);
        term.write(&a);
        let before = term.frame().clone();
        term.write(&b);
        let after = term.frame().clone();

        let diff = display::new_frame(true, &before, &after);
        if before == after {
            prop_assert_eq!(diff, "");
        } else {
            prop_assert!(!diff.is_empty());
        }
    }

    /// Diffing is deterministic.
    #[test]
    fn diff_is_deterministic(a in terminal_bytes(), b in terminal_bytes()) {
        let mut term = Terminal::new(40, 12);
        term.write(&a);
        let before = term.frame().clone();
        term.write(&b);
        let after = term.frame().clone();
        prop_assert_eq!(
            display::new_frame(true, &before, &after),
            display::new_frame(true, &before, &after)
        );
    }

    /// Resize never panics and preserves the top-left contents that fit.
    #[test]
    fn resize_is_total(
        bytes in terminal_bytes(),
        w in 1usize..120,
        h in 1usize..40,
    ) {
        let mut t = Terminal::new(80, 24);
        t.write(&bytes);
        t.resize(w, h);
        prop_assert_eq!(t.frame().width(), w);
        prop_assert_eq!(t.frame().height(), h);
        // Cursor stays in bounds.
        prop_assert!(t.frame().cursor.row < h);
        prop_assert!(t.frame().cursor.col < w);
    }

    /// Diff convergence across a resize: the client resizes its emulator
    /// (the resize travels as a state record, not as bytes), then applies a
    /// diff computed against the pre-resize state, which repaints.
    #[test]
    fn diff_converges_across_resize(
        a in terminal_bytes(),
        b in terminal_bytes(),
        w in 2usize..100,
        h in 2usize..30,
    ) {
        let mut term = Terminal::new(80, 24);
        term.write(&a);
        let before = term.frame().clone();
        term.resize(w, h);
        term.write(&b);
        let target = term.frame().clone();

        // Client reaches `before` the legitimate way, then resizes.
        let blank = mosh_terminal::Framebuffer::new(80, 24);
        let mut client = Terminal::new(80, 24);
        client.write(display::new_frame(false, &blank, &before).as_bytes());
        client.resize(w, h);

        let diff = display::new_frame(true, &before, &target);
        client.write(diff.as_bytes());
        prop_assert_eq!(client.frame(), &target);
    }

    /// Parsing in one call equals parsing in pieces (chunking invariance):
    /// the cuts fall anywhere — inside ASCII runs, escape sequences and
    /// UTF-8 characters — and the whole emulator state, parser included,
    /// must come out the same.
    #[test]
    fn chunking_does_not_change_result(
        bytes in terminal_bytes(),
        cuts in proptest::collection::vec(any::<prop::sample::Index>(), 1..6),
    ) {
        let mut whole = Terminal::new(40, 10);
        whole.write(&bytes);

        let mut parts = Terminal::new(40, 10);
        write_in_pieces(&mut parts, &bytes, &cuts);
        prop_assert_eq!(whole.frame(), parts.frame());
        prop_assert_eq!(whole.snapshot_bytes(), parts.snapshot_bytes());
    }

    /// Damage soundness (`Grid.tla`'s `DamageSound`): whatever a row's
    /// delta claims about a snapshot must be literally true — `Identical`
    /// means byte-identical, `Damaged(lo, hi)` means every cell outside
    /// `[lo, hi]` is byte-identical. The differ's fast path skips exactly
    /// what these claims cover, so an unsound claim is a wrong frame.
    #[test]
    fn damage_claims_are_sound(a in terminal_bytes(), b in terminal_bytes()) {
        let mut term = Terminal::new(60, 16);
        term.write(&a);
        let snap = term.frame().clone();
        term.write(&b);
        let cur = term.frame();

        for r in 0..16 {
            match cur.row(r).delta_from(snap.row(r)) {
                mosh_terminal::RowDelta::Identical => {
                    prop_assert_eq!(cur.row(r), snap.row(r), "row {} claimed Identical", r);
                }
                mosh_terminal::RowDelta::Damaged(lo, hi) => {
                    for (col, (c, s)) in
                        cur.row(r).cells().iter().zip(snap.row(r).cells()).enumerate()
                    {
                        if col < lo || col > hi {
                            prop_assert_eq!(
                                c, s,
                                "row {} col {} outside damage [{}, {}] differs",
                                r, col, lo, hi
                            );
                        }
                    }
                }
                mosh_terminal::RowDelta::Unknown => {}
            }
        }
    }

    /// The damage-tracked differ is byte-identical to the full-scan
    /// oracle — damage only changes what gets *visited*, never what gets
    /// emitted.
    #[test]
    fn damage_diff_matches_full_scan_oracle(
        a in terminal_bytes(),
        b in terminal_bytes(),
        initialized in any::<bool>(),
    ) {
        let mut term = Terminal::new(60, 16);
        term.write(&a);
        let before = term.frame().clone();
        term.write(&b);
        let after = term.frame().clone();

        let mut fast = String::new();
        display::new_frame_into(initialized, &before, &after, &mut fast);
        prop_assert_eq!(fast, display::new_frame_full_scan(initialized, &before, &after));
    }

    /// Viewport bounds (`Grid.tla`'s `OffsetInBounds`): across writes,
    /// scroll-view motions, and resizes, the display offset never exceeds
    /// the scrollback depth, and the depth never exceeds the limit.
    #[test]
    fn display_offset_stays_in_bounds(
        steps in proptest::collection::vec(
            prop_oneof![
                terminal_bytes().prop_map(Step::Write),
                (-30isize..30).prop_map(Step::Scroll),
                (2usize..90, 2usize..30).prop_map(|(w, h)| Step::Resize(w, h)),
            ],
            1..12,
        ),
    ) {
        let mut term = Terminal::new(80, 24);
        for step in steps {
            match step {
                Step::Write(bytes) => term.write(&bytes),
                Step::Scroll(delta) => term.frame_mut().scroll_view(delta),
                Step::Resize(w, h) => term.resize(w, h),
            }
            let f = term.frame();
            prop_assert!(f.display_offset() <= f.scrollback_len());
            prop_assert!(f.scrollback_len() <= f.scrollback_limit());
            // Every viewport position resolves (would panic otherwise).
            for i in 0..f.height() {
                let _ = f.view_row(i);
            }
        }
    }

    /// A damaged / scrolled / scrolled-back / resized terminal survives
    /// the snapshot (wirefmt) path byte-identically — scrollback rows and
    /// the viewport offset included (the PR 9 container rides on this).
    #[test]
    fn snapshot_roundtrips_scrollback_and_viewport(
        a in terminal_bytes(),
        b in terminal_bytes(),
        back in 0isize..40,
        w in 2usize..90,
        h in 2usize..30,
    ) {
        let mut term = Terminal::new(80, 24);
        term.write(&a);
        term.resize(w, h);
        term.write(&b);
        term.frame_mut().scroll_view(back);

        let restored = Terminal::from_snapshot_bytes(&term.snapshot_bytes())
            .expect("snapshot of a live terminal decodes");
        // Frame equality covers grid/cursor/title/bell; viewport state is
        // deliberately outside `Eq`, so pin it field by field.
        prop_assert_eq!(restored.frame(), term.frame());
        prop_assert_eq!(restored.frame().scrollback_len(), term.frame().scrollback_len());
        prop_assert_eq!(restored.frame().display_offset(), term.frame().display_offset());
        prop_assert_eq!(restored.frame().scrollback_limit(), term.frame().scrollback_limit());
        for i in 0..term.frame().scrollback_len() {
            prop_assert_eq!(
                restored.frame().history_row(i),
                term.frame().history_row(i),
                "history row {} diverged",
                i
            );
        }
    }
}

proptest! {
    // Small screens make each case cheap, and the boundary cases (a run
    // starting or ending on half of a wide pair, at the margin, on a full
    // scrollback) need many draws to hit.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The ASCII run writer (`Terminal::write` of printable ASCII, cut
    /// anywhere) against per-character `Framebuffer::print`, the oracle,
    /// from any reachable screen: the frame (cells and cursor), pending
    /// wrap, every scrollback row, the damage each row claims against a
    /// retained snapshot, and what a following REP plus one more
    /// character produce (they read `last_printed` and `wrap_pending`).
    /// Without a retained snapshot the scrolls reuse evicted history
    /// rows; with one they cannot, so both scroll paths are covered.
    #[test]
    fn ascii_runs_match_per_character_print(
        screen in run_screen_bytes(),
        place in (any::<bool>(), 1u16..8, 1u16..24),
        fill in 0usize..12,
        limit in 0usize..6,
        w in 1usize..24,
        h in 1usize..7,
        run in "[ -~]{0,160}",
        cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..4),
        keep_snapshot in any::<bool>(),
    ) {
        let build = || {
            let mut t = Terminal::new(w, h);
            t.frame_mut().set_scrollback_limit(limit);
            for i in 0..fill {
                t.write(format!("{i}\r\n").as_bytes());
            }
            t.write(&screen);
            // Half the runs start from an explicit cell (often half of a
            // wide pair); the rest wherever the screen left the cursor,
            // possibly with a wrap pending.
            if place.0 {
                t.write(format!("\x1b[{};{}H", place.1, place.2).as_bytes());
            }
            t
        };
        let mut fast = build();
        let mut oracle = build();
        let snapshots = keep_snapshot.then(|| (fast.frame().clone(), oracle.frame().clone()));

        write_in_pieces(&mut fast, run.as_bytes(), &cuts);
        for ch in run.chars() {
            oracle.frame_mut().print(ch);
        }
        prop_assert_eq!(fast.frame(), oracle.frame());
        prop_assert_eq!(fast.frame().wrap_pending(), oracle.frame().wrap_pending());
        prop_assert_eq!(history(fast.frame()), history(oracle.frame()));
        if let Some((fast_snap, oracle_snap)) = &snapshots {
            for r in 0..h {
                prop_assert_eq!(
                    fast.frame().row(r).delta_from(fast_snap.row(r)),
                    oracle.frame().row(r).delta_from(oracle_snap.row(r)),
                    "row {} damage claim",
                    r
                );
            }
        }

        fast.write(b"\x1b[3bZ");
        oracle.write(b"\x1b[3bZ");
        prop_assert_eq!(fast.frame(), oracle.frame());
        prop_assert_eq!(history(fast.frame()), history(oracle.frame()));
    }
}

/// Writes `bytes` in pieces, cut at the given points (sorted first).
fn write_in_pieces(term: &mut Terminal, bytes: &[u8], cuts: &[prop::sample::Index]) {
    let mut at: Vec<usize> = cuts.iter().map(|c| c.index(bytes.len() + 1)).collect();
    at.sort_unstable();
    let mut from = 0;
    for cut in at {
        term.write(&bytes[from..cut]);
        from = cut;
    }
    term.write(&bytes[from..]);
}

/// Every scrollback row, newest first.
fn history(frame: &mosh_terminal::Framebuffer) -> Vec<mosh_terminal::Row> {
    (0..frame.scrollback_len())
        .map(|i| frame.history_row(i).clone())
        .collect()
}

/// Screens an ASCII run must print through exactly: `terminal_bytes()`
/// plus rows of wide pairs, insert mode, autowrap off, DEC line drawing
/// left on, scroll regions (DECSTBM) and the alternate screen.
fn run_screen_bytes() -> impl Strategy<Value = Vec<u8>> {
    let chunk = prop_oneof![
        terminal_bytes(),
        (1u16..8, 1u16..24)
            .prop_map(|(r, c)| format!("\x1b[{r};{c}H漢字漢字漢字漢字漢字漢字").into_bytes()),
        (1u16..8, 1u16..24).prop_map(|(r, c)| format!("\x1b[{r};{c}H漢").into_bytes()),
        Just(b"\x1b[4h".to_vec()),
        Just(b"\x1b[4l".to_vec()),
        Just(b"\x1b[?7l".to_vec()),
        Just(b"\x1b[?7h".to_vec()),
        Just(b"\x1b(0".to_vec()),
        Just(b"\x1b(B".to_vec()),
        (1u16..4, 2u16..8).prop_map(|(t, b)| format!("\x1b[{t};{b}r").into_bytes()),
        Just(b"\x1b[?1049h".to_vec()),
        Just(b"\x1b[?1049l".to_vec()),
    ];
    proptest::collection::vec(chunk, 0..8).prop_map(|chunks| chunks.concat())
}

/// One step of the viewport-bounds walk.
#[derive(Debug, Clone)]
enum Step {
    Write(Vec<u8>),
    Scroll(isize),
    Resize(usize, usize),
}
