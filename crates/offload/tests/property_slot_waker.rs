//! Property tests for the request slot's waker protocol.
//!
//! The completion-based front-end hangs or double-wakes if the slot's
//! `register_waker` / `serve` / `retract` edges disagree about who owns
//! the registered waker. These tests drive arbitrary interleavings of
//! the client- and server-side operations against a mirror state
//! machine that predicts the *exact* number of waker fires:
//!
//! * **never lost** — a waker registered while a request is in flight
//!   fires when the response is published (or immediately, if the
//!   response already landed when registration ran);
//! * **never fired after retract** — a successful `REQUEST → EMPTY`
//!   retraction clears the waker, so no later serve (of a *new*
//!   request) can fire the retracted registration.
//!
//! Exact-count equality over arbitrary sequences subsumes both: a lost
//! wake undercounts, a post-retract fire overcounts.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Wake, Waker};

use ngm_offload::RequestSlot;
use proptest::collection;
use proptest::prelude::*;

/// A waker that counts its fires (the executor stand-in).
struct CountingWake(AtomicUsize);

impl Wake for CountingWake {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// One step of the interleaving, drawn by proptest.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Client publishes a request (no-op if one is in flight).
    Begin,
    /// Client registers the waker.
    Register,
    /// Server serves the pending request, if any.
    Serve,
    /// Client attempts to cancel the in-flight request.
    Retract,
    /// Client collects the response, if one landed.
    Poll,
}

fn op(code: u8) -> Op {
    match code % 5 {
        0 => Op::Begin,
        1 => Op::Register,
        2 => Op::Serve,
        3 => Op::Retract,
        _ => Op::Poll,
    }
}

/// The mirror: what the slot's docs promise, reduced to the three bits
/// that decide whether a fire happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Empty,
    Requested,
    Response,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every interleaving of the five slot operations fires the waker
    /// exactly as often as the protocol's contract predicts.
    #[test]
    fn waker_fires_exactly_as_the_protocol_predicts(
        codes in collection::vec(any::<u8>(), 0..64),
    ) {
        let slot = RequestSlot::<u64, u64>::new();
        let counter = Arc::new(CountingWake(AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&counter));

        // Mirror state: the slot phase, whether the server-visible
        // `has_waker` flag is raised, whether a waker is actually
        // stored (a fire *takes* the waker but leaves the flag), and
        // the in-flight request payload.
        let mut state = State::Empty;
        let mut flag = false;
        let mut stored = false;
        let mut expected_fires = 0usize;
        let mut next_req = 0u64;
        let mut inflight = 0u64;

        for &code in &codes {
            match op(code) {
                Op::Begin => {
                    let r = slot.begin(next_req);
                    if state == State::Empty {
                        prop_assert!(r.is_ok());
                        inflight = next_req;
                        next_req += 1;
                        state = State::Requested;
                        // A stale registration survives into the new
                        // request (spurious wakes are allowed; lost
                        // wakes are not).
                    } else {
                        prop_assert_eq!(r, Err(next_req));
                    }
                }
                Op::Register => {
                    slot.register_waker(&waker);
                    flag = true;
                    stored = true;
                    if state == State::Response {
                        // Response already landed: fires immediately,
                        // taking the stored waker.
                        expected_fires += 1;
                        stored = false;
                    }
                }
                Op::Serve => {
                    let served = slot.serve(|q, r| *r = q + 1);
                    prop_assert_eq!(served, state == State::Requested);
                    if served {
                        state = State::Response;
                        if flag {
                            flag = false;
                            if stored {
                                expected_fires += 1;
                                stored = false;
                            }
                        }
                    }
                }
                Op::Retract => {
                    let won = slot.retract();
                    prop_assert_eq!(won, state == State::Requested);
                    if won {
                        state = State::Empty;
                        // The contract's "never fired after retract":
                        // the registration is gone entirely.
                        flag = false;
                        stored = false;
                    }
                }
                Op::Poll => {
                    let got = slot.poll_response(std::mem::take);
                    if state == State::Response {
                        prop_assert_eq!(got, Some(inflight + 1));
                        state = State::Empty;
                    } else {
                        prop_assert_eq!(got, None);
                    }
                }
            }
            prop_assert_eq!(
                counter.0.load(Ordering::SeqCst),
                expected_fires,
                "after {:?}", op(code)
            );
        }
    }
}

/// The concurrent half: a real server thread races `retract`. The CAS
/// protocol makes the outcomes mutually exclusive per round — either
/// the retraction wins (and the waker must stay silent) or the serve
/// wins (and the waker must fire exactly once).
#[test]
fn retract_and_serve_race_is_mutually_exclusive() {
    const ROUNDS: usize = 2_000;
    let slot = Arc::new(RequestSlot::<u64, u64>::new());
    let stop = Arc::new(AtomicUsize::new(0));

    let server = {
        let slot = Arc::clone(&slot);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while stop.load(Ordering::Acquire) == 0 {
                slot.serve(|q, r| *r = q + 1);
            }
        })
    };

    let counter = Arc::new(CountingWake(AtomicUsize::new(0)));
    let waker = Waker::from(Arc::clone(&counter));
    let mut fired_before = 0usize;
    for round in 0..ROUNDS as u64 {
        slot.begin(round).expect("slot empty at round start");
        slot.register_waker(&waker);
        // Give the server a variable-length window to claim the request
        // before the client tries to take it back.
        for _ in 0..(round % 7) {
            std::hint::spin_loop();
        }
        if slot.retract() {
            // Retraction won: the registration is cleared, and no fire
            // may ever arrive for this round.
            assert_eq!(
                counter.0.load(Ordering::SeqCst),
                fired_before,
                "waker fired after a successful retract (round {round})"
            );
        } else {
            // The server claimed it: the response must land and the
            // waker must fire exactly once for this round.
            let resp = loop {
                if let Some(r) = slot.poll_response(std::mem::take) {
                    break r;
                }
                std::hint::spin_loop();
            };
            assert_eq!(resp, round + 1);
            while counter.0.load(Ordering::SeqCst) == fired_before {
                std::hint::spin_loop(); // the fire may trail the response
            }
            fired_before += 1;
            assert_eq!(
                counter.0.load(Ordering::SeqCst),
                fired_before,
                "served round must fire exactly once (round {round})"
            );
        }
    }
    stop.store(1, Ordering::Release);
    server.join().expect("server thread");
}
