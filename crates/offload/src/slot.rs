//! The paper's synchronous request mailbox.
//!
//! §4.2 (Code 1) describes the prototype's protocol: "two atomic variables
//! `malloc_start` and `malloc_done` are used at the beginning and end of
//! `spawned_malloc()` and `malloc()` ... the `requested_size` and
//! `allocated_block` are the input and output of `malloc()` functions, and
//! this information is transferred between two threads."
//!
//! [`RequestSlot`] is exactly that: a one-deep mailbox whose state word
//! cycles `EMPTY → REQUEST → RESPONSE → EMPTY`. One slot serves one client
//! thread; the service core polls many slots.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::service::CallKind;
use crate::telemetry::Trip;

/// Slot is idle; the client may publish a request.
const EMPTY: u32 = 0;
/// A request is published (the paper's `malloc_start`).
const REQUEST: u32 = 1;
/// A response is published (the paper's `malloc_done`).
const RESPONSE: u32 = 2;
/// The server has claimed the request and is computing the response.
///
/// This state exists for the deadline path: a client that times out
/// retracts its request with a `REQUEST → EMPTY` CAS, and the server's
/// own `REQUEST → SERVING` CAS in [`RequestSlot::serve`] makes the two
/// race winners unambiguous — exactly one side owns the request payload.
const SERVING: u32 = 3;

/// A one-deep synchronous request/response mailbox between one client
/// thread and the service core.
///
/// A request is one line for the service to pull, the slot's first 64
/// bytes: the state word the client spins on and the service claims with
/// its CAS, the publish sequence, and the request itself (in the paper's
/// design a size; §4.2 puts `requested_size` and `allocated_block` beside
/// `malloc_start` and `malloc_done`). The response starts on that line
/// too, so the length and first words of a short one come with them: on
/// the shipped types, a refill of up to four blocks is wholly on the
/// line. The request crosses by value, the response is written and read
/// **where it lies**: the server fills `resp` in place and the client
/// reads it in place, so a response type with room for many addresses
/// costs what a given response holds, one copy per side, never
/// `size_of::<R>()`. The slot is aligned to 128 bytes, so no other value
/// shares its first line or that line's prefetch pair.
///
/// The slot never reads the clock and holds no stamp of the service's.
/// Behind the response lies a client-only tail: the client's half of the
/// record of its last timed trip (see
/// [`crate::service::ClientHandle::publish`]), which it writes before the
/// store that releases the slot and the service reads once it sees the
/// slot released, to book the trip with its own two stamps.
#[repr(C, align(128))]
pub struct RequestSlot<Q, R> {
    state: AtomicU32,
    /// Publish counter, bumped immediately before every REQUEST store. It
    /// names a request: both sides pick the timed trips by it, fault
    /// injection's "drop response" fault ignores one *specific* request by
    /// it rather than whatever currently occupies the slot (which would
    /// swallow the retry a deadline-expired client publishes after
    /// retracting), and a span is named by it, so a retried request is a
    /// distinct span by construction.
    publish_seq: AtomicU64,
    req: UnsafeCell<MaybeUninit<Q>>,
    /// Always a valid `R`: `R::default()` until the first response, then
    /// whatever the server last wrote over it.
    resp: UnsafeCell<R>,
    /// The last timed trip the client collected: its publish sequence,
    /// kind, and the client's two stamps, `t0` and `t5` (see
    /// [`RequestSlot::leave_stamps`]). Only the client writes it.
    tail: [AtomicU64; 4],
}

// SAFETY: access to `req` and `resp` is mediated by the `state` protocol:
// the client writes `req` only while state is EMPTY (which it owns after
// consuming a RESPONSE), the server reads `req` and borrows `resp` only
// after claiming a REQUEST (state SERVING), and the client borrows `resp`
// only while state is RESPONSE. Each transition is a Release store observed
// by an Acquire load, so payload writes happen-before the reads on the
// other side. Q must be Send because it crosses threads by value, R
// because both threads take `&mut R` in turn.
unsafe impl<Q: Send, R: Send> Sync for RequestSlot<Q, R> {}

impl<Q: Send, R: Send + Default> Default for RequestSlot<Q, R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<Q: Send, R: Send + Default> RequestSlot<Q, R> {
    /// Creates an empty slot.
    pub fn new() -> Self {
        RequestSlot {
            state: AtomicU32::new(EMPTY),
            publish_seq: AtomicU64::new(0),
            req: UnsafeCell::new(MaybeUninit::uninit()),
            resp: UnsafeCell::new(R::default()),
            tail: Default::default(),
        }
    }

    /// The sequence number of the most recently published request. To the
    /// server this is only meaningful while it observes `has_request()`;
    /// to the client it identifies the request *it* just published (it is
    /// the only publisher).
    #[must_use]
    pub fn publish_seq(&self) -> u64 {
        self.publish_seq.load(Ordering::Relaxed)
    }

    /// Client side, after it saw RESPONSE to a timed request and before
    /// it collects it: leaves the trip's publish sequence, kind and the
    /// client's two stamps in the slot's tail. Plain stores, ordered for
    /// the service by the store that releases the slot. Nothing writes the
    /// tail again until the service has served another timed trip, and
    /// the service reads it before it claims the next request.
    pub(crate) fn leave_stamps(&self, seq: u64, kind: CallKind, t0: u64, t5: u64) {
        for (word, value) in self.tail.iter().zip([seq, kind as u64, t0, t5]) {
            word.store(value, Ordering::Relaxed);
        }
    }

    /// Service side, once [`RequestSlot::collected`] holds after it served
    /// a timed trip: that trip's record, the client's half read from the
    /// tail and completed with the service's own `claim` and `served`
    /// stamps.
    #[must_use]
    pub(crate) fn trip(&self, claim: u64, served: u64) -> Trip {
        let [seq, kind, t0, t5] = self.tail.each_ref().map(|w| w.load(Ordering::Relaxed));
        let kind = if kind == CallKind::Batched as u64 {
            CallKind::Batched
        } else {
            CallKind::Single
        };
        Trip {
            seq,
            kind,
            t0,
            claim,
            served,
            t5,
        }
    }

    /// Service side, after a `serve`: whether the client has collected
    /// the response since (the slot is EMPTY, or holds its next request).
    /// Acquire, so what the client left in the tail before releasing the
    /// slot is visible.
    #[inline]
    pub(crate) fn collected(&self) -> bool {
        matches!(self.state.load(Ordering::Acquire), EMPTY | REQUEST)
    }

    /// Client side, non-blocking: publishes `request` if the slot is
    /// EMPTY and returns its publish sequence, or returns `Err(request)`
    /// (payload handed back, nothing published) otherwise. The check
    /// guards the payload cells: the one
    /// caller, [`crate::service::ClientHandle::publish`], publishes only
    /// once the previous request was collected or retracted, so it finds
    /// the slot busy only after a `collect` unwound mid-read, and then
    /// poisons its handle.
    ///
    /// This is the submission half of the protocol; pair it with
    /// [`Self::poll_response`] to collect and [`Self::retract`] to cancel.
    /// Nothing is ever woken: the client learns of the response by
    /// polling in `ClientHandle::try_collect`'s one wait loop.
    ///
    /// Callers must ensure only one client thread uses a given slot; this
    /// is enforced structurally by [`crate::service::ClientHandle`] owning
    /// the slot reference uniquely.
    pub fn begin(&self, request: Q) -> Result<u64, Q> {
        if self.state.load(Ordering::Relaxed) != EMPTY {
            return Err(request);
        }
        // SAFETY: state is EMPTY, so the server is not touching `req`, and
        // no other client shares this slot (single-client contract). Only
        // the client moves the slot out of EMPTY, so the check above
        // cannot be invalidated concurrently.
        unsafe { (*self.req.get()).write(request) };
        // Bumped before the REQUEST store, so a server that observes
        // REQUEST (Acquire) also observes the matching sequence number.
        // Only the client writes it: a load and a store, not a locked add.
        let seq = self.publish_seq.load(Ordering::Relaxed) + 1;
        self.publish_seq.store(seq, Ordering::Relaxed);
        self.state.store(REQUEST, Ordering::Release);
        Ok(seq)
    }

    /// Client side, non-blocking: if a response has been published,
    /// hands it to `collect` where it lies, leaves the slot EMPTY and
    /// returns what `collect` made of it; `None` while the request is
    /// still pending (or none is in flight). `collect` takes what it
    /// needs — copies out the addresses, `mem::take`s a small value — and
    /// whatever it leaves behind the next response overwrites.
    pub fn poll_response<T>(&self, collect: impl FnOnce(&mut R) -> T) -> Option<T> {
        if self.state.load(Ordering::Acquire) != RESPONSE {
            return None;
        }
        // SAFETY: state is RESPONSE (Acquire), so the server's writes to
        // `resp` happen-before this borrow, and the server will not touch
        // the slot again until we publish EMPTY.
        let collected = collect(unsafe { &mut *self.resp.get() });
        self.state.store(EMPTY, Ordering::Release);
        Some(collected)
    }

    /// Client side: cancels the in-flight request with a
    /// `REQUEST → EMPTY` CAS. Returns `true` if the request was never
    /// claimed by the server (payload reclaimed, slot EMPTY and reusable)
    /// and `false` if the server already claimed it (state `SERVING` or
    /// `RESPONSE` — the caller must still collect or abandon it).
    pub fn retract(&self) -> bool {
        if self
            .state
            .compare_exchange(REQUEST, EMPTY, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        // We won: the server never claimed the request. Reclaim the
        // payload we published so it is not leaked.
        // SAFETY: the CAS above proves the server never moved the slot
        // out of REQUEST, so `req` still holds the value we wrote and
        // the server will not touch the slot (it observes EMPTY).
        unsafe { (*self.req.get()).assume_init_drop() };
        true
    }

    /// Server side: if a request is pending, claims it, consumes it, has
    /// `f` write the response over the slot's previous one, publishes it,
    /// and returns `true`. `f` is handed the request's publish sequence,
    /// the request and the response cell, and must leave a complete
    /// response: what it does not overwrite is the last response's.
    /// Everything `f` does lengthens the round trip the client waits out.
    pub fn serve(&self, f: impl FnOnce(u64, Q, &mut R)) -> bool {
        // Claim the request with a CAS rather than a plain load: a
        // deadline-expired client may race us with a `REQUEST → EMPTY`
        // retraction, and exactly one side must own the payload. The CAS
        // is uncontended in the common case (the line is already exclusive
        // to the service core) so the protocol stays near the raw atomic
        // cost the paper measures.
        if self
            .state
            .compare_exchange(REQUEST, SERVING, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        // The Acquire CAS ordered the sequence the client bumped before
        // its REQUEST store.
        let seq = self.publish_seq.load(Ordering::Relaxed);
        // SAFETY: the CAS claimed the request (Acquire), so the client's
        // write of `req` happens-before this read, and a retracting client
        // observes SERVING and leaves the payload cells alone.
        let request = unsafe { (*self.req.get()).assume_init_read() };
        // SAFETY: as above — the client last touched `resp` before it
        // published EMPTY, and cannot again until it observes the
        // RESPONSE store below.
        f(seq, request, unsafe { &mut *self.resp.get() });
        self.state.store(RESPONSE, Ordering::Release);
        true
    }

    /// Returns `true` if a response is waiting to be collected.
    #[inline]
    pub(crate) fn has_response(&self) -> bool {
        self.state.load(Ordering::Acquire) == RESPONSE
    }

    /// Returns `true` if a request is waiting to be served.
    pub fn has_request(&self) -> bool {
        self.state.load(Ordering::Acquire) == REQUEST
    }
}

impl<Q, R> Drop for RequestSlot<Q, R> {
    fn drop(&mut self) {
        // A request published but never served must still be dropped
        // (`resp` is always a valid `R` and drops as a field). SERVING:
        // the server consumed `req` before it died mid-serve.
        if *self.state.get_mut() == REQUEST {
            // SAFETY: exclusive access in drop; state says `req` holds a
            // value that was never consumed.
            unsafe { (*self.req.get()).assume_init_drop() };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// `begin`, then poll until the response lands or `budget` runs out
    /// (the request is then still in the slot) — the blocking round trip
    /// as `ClientHandle::publish` and `try_collect` build it from the
    /// primitives.
    fn call_within<Q: Send, R: Send + Default>(
        slot: &RequestSlot<Q, R>,
        request: Q,
        budget: Duration,
    ) -> Option<R> {
        assert!(slot.begin(request).is_ok(), "call on a busy slot");
        let start = Instant::now();
        loop {
            if let Some(response) = slot.poll_response(std::mem::take) {
                return Some(response);
            }
            if start.elapsed() >= budget {
                return None;
            }
            std::thread::yield_now();
        }
    }

    fn call<Q: Send, R: Send + Default>(slot: &RequestSlot<Q, R>, request: Q) -> R {
        call_within(slot, request, Duration::from_secs(30)).expect("server answers")
    }

    #[test]
    fn call_and_serve_roundtrip() {
        let slot: Arc<RequestSlot<u64, u64>> = Arc::new(RequestSlot::new());
        let server = Arc::clone(&slot);
        let h = std::thread::spawn(move || {
            let mut served = 0;
            while served < 3 {
                if server.serve(|_, q, r| *r = q * 2) {
                    served += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        });
        assert_eq!(call(&slot, 10), 20);
        assert_eq!(call(&slot, 21), 42);
        assert_eq!(call(&slot, 0), 0);
        h.join().unwrap();
    }

    #[test]
    fn serve_returns_false_when_idle() {
        let slot: RequestSlot<u8, u8> = RequestSlot::new();
        assert!(!slot.serve(|_, q, r| *r = q));
        assert!(!slot.has_request());
    }

    #[test]
    fn pending_request_dropped_with_slot() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let slot: RequestSlot<D, ()> = RequestSlot::new();
        // Publish a request by hand without waiting for a response.
        // SAFETY: state is EMPTY and we are the only thread.
        unsafe { (*slot.req.get()).write(D) };
        slot.state.store(REQUEST, Ordering::Release);
        drop(slot);
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn expired_wait_retracts_when_never_served() {
        static DROPS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let slot: RequestSlot<D, u8> = RequestSlot::new();
        // No server anywhere: the wait must run out, the retract must
        // win, and the unserved request payload must be dropped.
        assert_eq!(call_within(&slot, D, Duration::from_millis(3)), None);
        assert!(slot.retract(), "nobody claimed the request");
        assert_eq!(DROPS.load(Ordering::SeqCst), 1, "retracted payload dropped");
        // Slot is EMPTY again: a later served call works.
        assert!(!slot.has_request());
        let server = |q: D, r: &mut u8| {
            drop(q);
            *r = 7;
        };
        let client = std::thread::scope(|s| {
            let h = s.spawn(|| call(&slot, D));
            let mut served = false;
            while !served {
                served = slot.serve(|_, q, r| server(q, r));
                std::hint::spin_loop();
            }
            h.join().unwrap()
        });
        assert_eq!(client, 7);
    }

    #[test]
    fn serve_and_retract_race_has_one_owner() {
        // Drive the race many times: each request must be either served
        // (client gets the response, possibly late) or retracted (server
        // never saw it) — never both, never neither.
        let slot: Arc<RequestSlot<u32, u32>> = Arc::new(RequestSlot::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let served = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let (srv_slot, srv_stop, srv_count) =
            (Arc::clone(&slot), Arc::clone(&stop), Arc::clone(&served));
        let h = std::thread::spawn(move || {
            while !srv_stop.load(Ordering::Acquire) {
                if srv_slot.serve(|_, q, r| *r = q + 1) {
                    srv_count.fetch_add(1, Ordering::Relaxed);
                }
                std::hint::spin_loop();
            }
        });
        let mut ok = 0usize;
        let mut retracted = 0usize;
        for i in 0..2_000u32 {
            // A tiny budget makes both race outcomes common.
            let r = match call_within(&slot, i, Duration::from_nanos(50)) {
                Some(r) => r,
                None if slot.retract() => {
                    retracted += 1;
                    continue;
                }
                // The server claimed it first: a served response is
                // never discarded, so collect it however late.
                None => loop {
                    if let Some(r) = slot.poll_response(std::mem::take) {
                        break r;
                    }
                    std::hint::spin_loop();
                },
            };
            assert_eq!(r, i + 1);
            ok += 1;
        }
        stop.store(true, Ordering::Release);
        h.join().unwrap();
        assert_eq!(ok + retracted, 2_000);
        assert_eq!(
            served.load(Ordering::Relaxed),
            ok,
            "every serve was collected"
        );
    }

    #[test]
    fn request_claimed_by_a_dying_server_is_neither_retractable_nor_answered() {
        let slot: Arc<RequestSlot<u32, u32>> = Arc::new(RequestSlot::new());
        let srv = Arc::clone(&slot);
        // A server that claims the request and then dies without responding.
        let h = std::thread::spawn(move || loop {
            let dead = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                srv.serve(|_, _q, _r| panic!("killed mid-serve"))
            }));
            if dead.is_err() {
                break;
            }
            std::hint::spin_loop();
        });
        assert_eq!(call_within(&slot, 9, Duration::from_millis(10)), None);
        h.join().unwrap();
        // The abandon edge `ClientHandle::try_collect` poisons on: the payload is
        // consumed, so the retract loses, and no response ever arrives.
        assert!(!slot.retract(), "the server claimed the request");
        assert_eq!(slot.poll_response(std::mem::take), None);
        assert!(!slot.has_request() && !slot.has_response(), "stuck serving");
    }

    #[test]
    fn serve_hands_over_the_sequence_and_the_tail_holds_the_last_collected_stamps() {
        let slot: RequestSlot<u32, u32> = RequestSlot::new();
        assert_eq!(slot.begin(1), Ok(1), "the first publish is sequence 1");
        let mut claimed = 0;
        assert!(slot.serve(|seq, q, r| {
            claimed = seq;
            *r = q;
        }));
        assert_eq!(claimed, 1);
        assert!(!slot.collected(), "the response waits in the slot");
        // 10 and 50 are no clock readings: the tail holds what the client
        // left and the record takes the service's two stamps as handed.
        slot.leave_stamps(1, CallKind::Batched, 10, 50);
        assert_eq!(slot.poll_response(std::mem::take), Some(1));
        assert!(slot.collected());
        let trip = slot.trip(20, 30);
        assert_eq!((trip.seq, trip.kind), (1, CallKind::Batched));
        assert_eq!(
            [trip.t0, trip.claim, trip.served, trip.t5],
            [10, 20, 30, 50]
        );
        // The next request, published or retracted, leaves the tail alone.
        assert_eq!(slot.begin(2), Ok(2), "seq bumps per publish");
        assert!(slot.collected(), "its next request");
        assert!(slot.retract());
        assert_eq!(slot.trip(20, 30), trip);
        assert_eq!(slot.publish_seq(), 2);
    }

    #[test]
    fn a_trip_reads_one_line() {
        // What the client spins on, what the service claims with its CAS,
        // the request the service reads after its claim, and the first
        // five words of the response (a four-block refill's length and
        // addresses): one 64-byte line, the slot's first. The client's
        // tail lies behind the response. The 8-byte request stands for
        // `ngm-core`'s `AllocBatchReq`, which a test there holds to 8
        // bytes.
        type Slot = RequestSlot<u64, [u64; 128]>;
        assert_eq!(std::mem::align_of::<Slot>(), 128);
        for (field, end) in [
            ("state", std::mem::offset_of!(Slot, state) + 4),
            ("publish_seq", std::mem::offset_of!(Slot, publish_seq) + 8),
            ("req", std::mem::offset_of!(Slot, req) + 8),
            ("resp[..5]", std::mem::offset_of!(Slot, resp) + 5 * 8),
        ] {
            assert!(end <= 64, "{field} ends at byte {end}");
        }
        assert!(std::mem::offset_of!(Slot, tail) >= 64);
    }

    #[test]
    fn many_sequential_calls_stay_consistent() {
        let slot: Arc<RequestSlot<u32, u32>> = Arc::new(RequestSlot::new());
        let server = Arc::clone(&slot);
        let h = std::thread::spawn(move || {
            let mut served = 0u32;
            while served < 1000 {
                if server.serve(|_, q, r| *r = q + 1) {
                    served += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        });
        for i in 0..1000u32 {
            assert_eq!(call(&slot, i), i + 1);
        }
        h.join().unwrap();
    }

    #[test]
    fn a_response_is_written_and_read_where_it_lies() {
        // A response type with room for 128 words. The server writes the
        // three it has into the slot's own cell and the client reads them
        // there: both closures see one address, and the 125 words nobody
        // sent keep what the previous response left — so a round trip
        // moves what the response holds, never `size_of::<Wide>()`.
        struct Wide {
            len: usize,
            words: [usize; 128],
        }
        impl Default for Wide {
            fn default() -> Self {
                Wide {
                    len: 0,
                    words: [0; 128],
                }
            }
        }
        let slot: RequestSlot<usize, Wide> = RequestSlot::new();
        let mut cells = Vec::new();
        for (n, mark) in [(128, 0xAA), (3, 0xBB)] {
            assert!(slot.begin(n).is_ok());
            assert!(slot.serve(|_, n, wide| {
                cells.push(std::ptr::from_mut(wide) as usize);
                wide.len = n;
                wide.words[..n].fill(mark);
            }));
            let seen = slot.poll_response(|wide| {
                assert_eq!(wide.len, n);
                assert!(wide.words[..n].iter().all(|&w| w == mark));
                std::ptr::from_mut(wide) as usize
            });
            cells.push(seen.expect("served"));
        }
        assert!(cells.iter().all(|&c| c == cells[0]), "one cell: {cells:x?}");
        // SAFETY: no request is in flight; this thread is both sides.
        let wide = unsafe { &*slot.resp.get() };
        assert_eq!(wide.len, 3);
        assert!(
            wide.words[3..].iter().all(|&w| w == 0xAA),
            "the short response left the long one's tail alone"
        );
    }

    #[test]
    fn an_uncollected_response_is_dropped_with_the_slot() {
        static DROPS: AtomicU32 = AtomicU32::new(0);
        #[derive(Default)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let slot: RequestSlot<(), D> = RequestSlot::new();
        assert!(slot.begin(()).is_ok());
        // Writing a response over the slot's previous one drops that one.
        assert!(slot.serve(|_, (), r| *r = D));
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
        drop(slot);
        assert_eq!(DROPS.load(Ordering::SeqCst), 2, "the response nobody read");
    }

    #[test]
    fn begin_poll_roundtrip_without_blocking() {
        let slot: RequestSlot<u32, u32> = RequestSlot::new();
        assert!(slot.begin(5).is_ok());
        // Busy slot hands the payload back instead of publishing.
        assert_eq!(slot.begin(6), Err(6));
        assert_eq!(slot.poll_response(std::mem::take), None, "not served yet");
        assert!(slot.serve(|_, q, r| *r = q * 3));
        assert_eq!(slot.poll_response(std::mem::take), Some(15));
        assert_eq!(
            slot.poll_response(std::mem::take),
            None,
            "response consumed"
        );
        assert!(slot.begin(7).is_ok(), "slot reusable after completion");
        assert!(slot.retract());
    }

    #[test]
    fn retract_loses_once_served_and_response_collectable() {
        let slot: RequestSlot<u32, u32> = RequestSlot::new();
        assert!(slot.begin(4).is_ok());
        assert!(slot.serve(|_, q, r| *r = q * 10));
        assert!(!slot.retract(), "served request cannot be retracted");
        assert_eq!(slot.poll_response(std::mem::take), Some(40));
    }
}
