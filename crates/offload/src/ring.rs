//! Bounded single-producer/single-consumer ring of variable-length
//! records.
//!
//! This is the asynchronous half of the offload channel: `free()` requests
//! are posted here and the service core drains them off the critical path
//! (§3.1.2: "the entire free phase is not on the critical path and can be
//! executed asynchronously in the dedicated core").
//!
//! The ring is an array of 64-byte **cells**. A message is stored as a
//! header word (its tag and payload length) followed by its payload words,
//! in as many consecutive cells as that takes — `⌈(n + 1) / 8⌉` for `n`
//! words. A message therefore costs its length: a one-word post writes
//! one cache line, a 128-address batch seventeen, and the ring's
//! footprint is what was sent, not capacity × the largest message. What a
//! message's words are is the message type's business ([`Record`]); a
//! record that reaches the end of the buffer continues at its start.
//!
//! A record **publishes itself**: there is no shared tail index. The
//! producer writes the payload, then the header word with one `Release`
//! store, and the header carries the low 32 bits of the absolute index of
//! the record's first cell above its tag and length. The consumer polls
//! the header of its head cell (`Acquire`) and takes a record only when
//! that sequence names the cell, so the line the service pulls for a post
//! is the post. Word 0 of every other cell of a record is payload, and an
//! address left there could, a lap later, read as the header the consumer
//! expects: the consumer therefore rewrites word 0 of each continuation
//! cell it consumed with a marker naming the lap just read, before it
//! publishes its head. The cells are built holding such markers, so no
//! cell is ever read uninitialised. The consumer's head is still
//! published, for the producer's fullness check, which reads it only when
//! its cached copy says the ring is full.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::pad::CachePadded;

/// Words in one ring cell: a header word and seven payload words in a
/// record's first cell, eight payload words in each one after.
pub const CELL_WORDS: usize = 8;

/// Bytes in one ring cell — one cache line.
pub const CELL_BYTES: usize = CELL_WORDS * std::mem::size_of::<usize>();

/// Capacity, in cells, of every client's post ring: 128 KiB, which holds
/// 2,048 one-word posts or 120 full 128-address batches. Not a setting:
/// [`crate::OffloadRuntime::register_client`] maps exactly this much for
/// each client, of a standalone runtime and of every allocator shard.
pub const DEFAULT_RING_CELLS: usize = 2048;

const _: () = assert!(
    CELL_BYTES == 64,
    "a cell is one 64-byte cache line of eight 8-byte words"
);

const _: () = assert!(
    usize::BITS == 64,
    "a header word holds a 32-bit sequence above its 16-bit tag and length"
);

/// The payload length occupies the low bits of a record's header word,
/// the tag the 16 bits above them, and the sequence the 32 bits above
/// those.
const LEN_BITS: u32 = 16;
const SEQ_SHIFT: u32 = 32;

/// Most cells a ring may have: one lap must change the low 32 bits of a
/// cell's index, or a header would name the cell on every lap.
const MAX_CELLS: usize = 1 << 31;

/// The sequence a header at absolute cell `cell` carries.
#[inline]
const fn seq(cell: usize) -> usize {
    cell & (u32::MAX as usize)
}

/// The header word of a record of `len` words tagged `tag` whose first
/// cell is absolute cell `cell`.
#[inline]
const fn header(cell: usize, tag: u16, len: usize) -> usize {
    (seq(cell) << SEQ_SHIFT) | ((tag as usize) << LEN_BITS) | len
}

/// What word 0 of a cell at absolute index `cell` holds once no record
/// starts there on this lap: a header word naming `cell`, which the
/// consumer, reaching the cell next at `cell + capacity`, refuses.
#[inline]
const fn marker(cell: usize) -> usize {
    header(cell, 0, 0)
}

/// A message the ring can carry: plain data that flattens to a small tag
/// and at most [`Record::MAX_WORDS`] words, which is all the ring stores.
///
/// `Default` supplies the value a consumer decodes over; after
/// [`Record::load`] nothing of it may remain visible.
pub trait Record: Copy + Default + Send + 'static {
    /// Most payload words one value flattens to. Sizes the largest
    /// record, which a ring always has room for.
    const MAX_WORDS: usize;

    /// Hands `put` this value as a tag and its payload words — at most
    /// `MAX_WORDS` of them, borrowed from wherever the value keeps them.
    fn store<R>(&self, put: impl FnOnce(u16, &[usize]) -> R) -> R;

    /// Overwrites `self` with the value whose [`Record::store`] produced
    /// `tag` and `len` words: calls `fill` once with the `len`-word slice
    /// the payload is to be copied into.
    fn load(&mut self, tag: u16, len: usize, fill: impl FnOnce(&mut [usize]));
}

impl Record for () {
    const MAX_WORDS: usize = 0;

    fn store<R>(&self, put: impl FnOnce(u16, &[usize]) -> R) -> R {
        put(0, &[])
    }

    fn load(&mut self, _tag: u16, _len: usize, fill: impl FnOnce(&mut [usize])) {
        fill(&mut []);
    }
}

/// A one-word record: the integer is the payload.
impl Record for u64 {
    const MAX_WORDS: usize = 1;

    fn store<R>(&self, put: impl FnOnce(u16, &[usize]) -> R) -> R {
        put(0, &[*self as usize])
    }

    fn load(&mut self, _tag: u16, _len: usize, fill: impl FnOnce(&mut [usize])) {
        let mut word = [0usize];
        fill(&mut word);
        *self = word[0] as u64;
    }
}

/// Cells a record of `words` payload words occupies.
#[inline]
const fn span(words: usize) -> usize {
    (words + 1).div_ceil(CELL_WORDS)
}

#[repr(C, align(64))]
struct Cell(UnsafeCell<[MaybeUninit<usize>; CELL_WORDS]>);

struct Shared {
    buf: Box<[Cell]>,
    /// Cell index mask (`buf.len()` is a power of two).
    mask: usize,
    /// Next cell the consumer will read, counted without wrapping. Only
    /// the consumer stores it, after it has released the cells before it.
    head: CachePadded<AtomicUsize>,
    /// Set when either endpoint is dropped.
    closed: AtomicBool,
}

// SAFETY: the ring hands each cell to exactly one side at a time. The
// producer owns the cells from its private tail up to the consumer's
// published `head` + capacity and publishes a record with a Release store
// of its header word; the consumer owns a record from its Acquire load of
// that header until its Release store of `head`. The cells hold plain
// words, which may cross threads.
unsafe impl Send for Shared {}
// SAFETY: see `Send`; all shared mutation goes through the atomics.
unsafe impl Sync for Shared {}

impl Shared {
    /// The buffer as one run of `buf.len() * CELL_WORDS` words.
    #[inline]
    fn words(&self) -> *mut usize {
        // `Cell` is `repr(C)` around an `UnsafeCell` (itself transparent)
        // of a word array, so the slice of cells *is* a slice of words;
        // going through `raw_get` keeps the write permission.
        UnsafeCell::raw_get(self.buf.as_ptr().cast::<UnsafeCell<usize>>())
    }

    /// Word 0 of cell `cell`, which is only ever read or written as a
    /// header or marker through this view — except as a continuation
    /// cell's payload, while one side owns the cell.
    #[inline]
    fn header_word(&self, cell: usize) -> &AtomicUsize {
        // SAFETY: in bounds and 8-byte aligned (a cell is 64-aligned),
        // initialised when the ring was built, and valid while `self` is.
        // The plain accesses to the word (a continuation cell's payload)
        // are ordered against these atomic ones by the header and `head`
        // edges, so none races with them.
        unsafe { AtomicUsize::from_ptr(self.words().add((cell & self.mask) * CELL_WORDS)) }
    }

    /// Where the `len` payload words of the record at cell `cell` lie:
    /// the word offset they start at (right after the header word) and
    /// how many of them fit before the buffer's end — the rest continue
    /// at offset 0.
    #[inline]
    fn payload(&self, cell: usize, len: usize) -> (usize, usize) {
        let start = (cell & self.mask) * CELL_WORDS + 1;
        (start, len.min(self.buf.len() * CELL_WORDS - start))
    }

    /// Writes a record's payload at cell `cell`, then publishes it with a
    /// Release store of its header.
    ///
    /// # Safety
    ///
    /// The caller owns the `span(words.len())` cells from `cell` on (the
    /// producer, after its fullness check).
    #[inline]
    unsafe fn write(&self, cell: usize, tag: u16, words: &[usize]) {
        let base = self.words();
        let (start, first) = self.payload(cell, words.len());
        // SAFETY: every offset is below `buf.len() * CELL_WORDS`, the
        // cells are the caller's, and `words` is not part of the ring.
        unsafe {
            std::ptr::copy_nonoverlapping(words.as_ptr(), base.add(start), first);
            std::ptr::copy_nonoverlapping(words.as_ptr().add(first), base, words.len() - first);
        }
        self.header_word(cell)
            .store(header(cell, tag, words.len()), Ordering::Release);
    }

    /// Copies the payload of the record at cell `cell` into `dst`.
    ///
    /// # Safety
    ///
    /// The consumer's Acquire load of this record's header named `cell`,
    /// and `dst.len()` is the record's length.
    #[inline]
    unsafe fn read(&self, cell: usize, dst: &mut [usize]) {
        let base = self.words();
        let (start, first) = self.payload(cell, dst.len());
        // SAFETY: in bounds, published (the header's Acquire load ordered
        // the producer's payload writes before it), and `dst` is not part
        // of the ring.
        unsafe {
            std::ptr::copy_nonoverlapping(base.add(start), dst.as_mut_ptr(), first);
            std::ptr::copy_nonoverlapping(base, dst.as_mut_ptr().add(first), dst.len() - first);
        }
    }
}

/// Error returned by [`Producer::push`] when the ring is full or closed.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The ring has too few free cells for this record; the value is
    /// handed back and nothing was written. A bounded retry (see
    /// [`crate::service::ClientHandle::try_post`]) may succeed once the consumer
    /// drains — but only if the consumer is still alive, so retry loops
    /// must re-check for `Disconnected` on every attempt.
    Full(T),
    /// The consumer is gone; the value is handed back. Retrying can never
    /// succeed — callers must stop immediately instead of spinning.
    Disconnected(T),
}

/// The sending endpoint. `!Clone`: exactly one producer exists.
pub struct Producer<T> {
    shared: Arc<Shared>,
    /// Next cell this producer will write, counted without wrapping.
    /// Private: the consumer learns of a record from its header.
    tail: usize,
    /// Cached copy of `head` to avoid reading the consumer's line on every
    /// push.
    head_cache: usize,
    _records: PhantomData<fn(T)>,
}

/// The receiving endpoint. `!Clone`: exactly one consumer exists.
pub struct Consumer<T> {
    shared: Arc<Shared>,
    /// Next cell this consumer will read, counted without wrapping;
    /// `Shared::head` publishes it.
    head: usize,
    /// The value every record is decoded over, so popping a short record
    /// out of a type with a large capacity writes only that record.
    decoded: T,
}

/// Creates a ring of `cells` 64-byte cells, rounded up to a power of two
/// and to at least one largest record of `T`, so no message is
/// unsendable.
///
/// # Panics
///
/// Panics if `cells` is zero, or rounds up past 2³¹ cells ("ring capacity
/// overflows"): a lap of a larger ring would leave the 32-bit sequence of
/// a header unchanged, and a power-of-two round-up past `usize` would
/// leave no cells at all.
pub fn spsc<T: Record>(cells: usize) -> (Producer<T>, Consumer<T>) {
    assert!(cells > 0, "ring capacity must be non-zero");
    assert!(
        T::MAX_WORDS < 1 << LEN_BITS,
        "a record's length must fit its header"
    );
    let cells = cells
        .max(span(T::MAX_WORDS))
        .checked_next_power_of_two()
        .filter(|&cells| cells <= MAX_CELLS)
        .unwrap_or_else(|| panic!("ring capacity overflows: {cells} cells"));
    // Word 0 of cell `i` is first read at index `i`: it holds a marker
    // naming the lap before, `i - cells`. The payload words are first
    // written by whoever pushes into them.
    let buf: Box<[Cell]> = (0..cells)
        .map(|i| {
            let mut words = [MaybeUninit::uninit(); CELL_WORDS];
            words[0] = MaybeUninit::new(marker(i.wrapping_sub(cells)));
            Cell(UnsafeCell::new(words))
        })
        .collect();
    let shared = Arc::new(Shared {
        buf,
        mask: cells - 1,
        head: CachePadded::new(AtomicUsize::new(0)),
        closed: AtomicBool::new(false),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
            tail: 0,
            head_cache: 0,
            _records: PhantomData,
        },
        Consumer {
            shared,
            head: 0,
            decoded: T::default(),
        },
    )
}

impl<T: Record> Producer<T> {
    /// Capacity of the ring, in cells.
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// Returns `true` if the consumer has been dropped.
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }

    /// Attempts to enqueue `value`.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] when the ring has too few free cells and
    /// [`PushError::Disconnected`] when the consumer is gone; both return
    /// the value to the caller.
    pub fn push(&mut self, value: T) -> Result<(), PushError<T>> {
        self.push_ref(&value).map_err(|refused| match refused {
            PushError::Full(()) => PushError::Full(value),
            PushError::Disconnected(()) => PushError::Disconnected(value),
        })
    }

    /// [`Producer::push`] of a borrowed value: only its words are copied,
    /// so a refusal has nothing to hand back — the caller never let go of
    /// it, and nothing was written.
    ///
    /// # Errors
    ///
    /// As [`Producer::push`], without the value.
    pub fn push_ref(&mut self, value: &T) -> Result<(), PushError<()>> {
        self.push_with(value, |_| {})
    }

    /// [`Producer::push_ref`] that calls `before_publish` once the ring
    /// has room for `value` and before any of it is written, with the
    /// producer as it stands — `value` not yet in it. What the caller
    /// records there is in place before the consumer can see the record,
    /// and no locked instruction of it waits behind the record's stores.
    /// A refused push does not call it.
    ///
    /// # Errors
    ///
    /// As [`Producer::push_ref`].
    pub fn push_with(
        &mut self,
        value: &T,
        before_publish: impl FnOnce(&Self),
    ) -> Result<(), PushError<()>> {
        if self.is_closed() {
            return Err(PushError::Disconnected(()));
        }
        value.store(|tag, words| {
            assert!(words.len() <= T::MAX_WORDS, "record longer than declared");
            let cells = span(words.len());
            let tail = self.tail;
            if self.capacity() - tail.wrapping_sub(self.head_cache) < cells {
                // Looks full through the cache; refresh from the consumer.
                self.head_cache = self.shared.head.load(Ordering::Acquire);
                if self.capacity() - tail.wrapping_sub(self.head_cache) < cells {
                    return Err(PushError::Full(()));
                }
            }
            before_publish(self);
            // SAFETY: the fullness check above proves the consumer has
            // released cells `[tail, tail + cells)` (its Release store of
            // `head` came after its last read of them), and it cannot take
            // any of them before the header store that ends the write.
            unsafe { self.shared.write(tail, tag, words) };
            self.tail = tail.wrapping_add(cells);
            Ok(())
        })
    }

    /// Cells currently occupied by queued records (racy snapshot).
    pub fn len(&self) -> usize {
        let head = self.shared.head.load(Ordering::Acquire);
        self.tail.wrapping_sub(head)
    }

    /// Returns `true` if the queue appears empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Record> Consumer<T> {
    /// The header of the record at this consumer's head, if one is
    /// published there.
    #[inline]
    fn next_header(&self) -> Option<usize> {
        let header = self.shared.header_word(self.head).load(Ordering::Acquire);
        (header >> SEQ_SHIFT == seq(self.head)).then_some(header)
    }

    /// Attempts to dequeue one record, decoded in place: the reference is
    /// to this consumer's own copy, and the record's cells are already
    /// the producer's again.
    pub fn pop_ref(&mut self) -> Option<&T> {
        let header = self.next_header()?;
        let (head, shared) = (self.head, &*self.shared);
        let (tag, len) = ((header >> LEN_BITS) as u16, header & ((1 << LEN_BITS) - 1));
        self.decoded.load(tag, len, |dst| {
            assert_eq!(dst.len(), len, "a record is read whole");
            // SAFETY: the Acquire load of the header named `head`, so the
            // producer published this record there and will not touch it
            // again until we advance `head`; `len` is its length.
            unsafe { shared.read(head, dst) };
        });
        let cells = span(len);
        for cell in (1..cells).map(|i| head.wrapping_add(i)) {
            shared
                .header_word(cell)
                .store(marker(cell), Ordering::Relaxed);
        }
        self.head = head.wrapping_add(cells);
        shared.head.store(self.head, Ordering::Release);
        Some(&self.decoded)
    }

    /// Attempts to dequeue one record.
    pub fn pop(&mut self) -> Option<T> {
        self.pop_ref().copied()
    }

    /// Drains up to `max` records into `f`; returns how many were
    /// consumed.
    pub fn drain(&mut self, max: usize, mut f: impl FnMut(&T)) -> usize {
        let mut n = 0;
        while n < max {
            match self.pop_ref() {
                Some(v) => {
                    f(v);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Cells this consumer has read since the ring was built, counted
    /// without wrapping: the difference of two readings is the cells
    /// consumed between them.
    pub fn cells_read(&self) -> usize {
        self.head
    }

    /// Returns `true` if the producer has been dropped.
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }

    /// Returns `true` if no record is published at this consumer's head
    /// yet (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.next_header().is_none()
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::Release);
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        // Records are plain words: whatever is still queued needs no
        // destructor.
        self.shared.closed.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record of any length up to 20 words with a tag, for exercising
    /// every span and the wrap point without the allocator's types.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    struct Run {
        tag: u16,
        len: usize,
        words: [usize; 20],
    }

    impl Run {
        /// `len` words counting up from `seed`.
        fn of(tag: u16, len: usize, seed: usize) -> Self {
            let mut run = Run {
                tag,
                len,
                ..Run::default()
            };
            for (i, w) in run.words[..len].iter_mut().enumerate() {
                *w = seed + i;
            }
            run
        }
    }

    impl Record for Run {
        const MAX_WORDS: usize = 20;

        fn store<R>(&self, put: impl FnOnce(u16, &[usize]) -> R) -> R {
            put(self.tag, &self.words[..self.len])
        }

        fn load(&mut self, tag: u16, len: usize, fill: impl FnOnce(&mut [usize])) {
            // Only `len` words are written; `eq` below must not read the
            // stale ones, so clear them the slow way — this is a test.
            *self = Run {
                tag,
                len,
                ..Run::default()
            };
            fill(&mut self.words[..len]);
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let (mut tx, mut rx) = spsc::<u64>(8);
        for i in 0..8 {
            tx.push(i).unwrap();
        }
        for i in 0..8 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let (tx, _rx) = spsc::<u64>(5);
        assert_eq!(tx.capacity(), 8);
    }

    #[test]
    #[should_panic(expected = "ring capacity overflows")]
    fn a_capacity_with_no_power_of_two_is_refused() {
        let _ = spsc::<u64>(usize::MAX);
    }

    #[test]
    fn capacity_holds_at_least_one_largest_record() {
        // 20 words and a header are three cells; a one-cell ring could
        // never send it.
        let (mut tx, mut rx) = spsc::<Run>(1);
        assert_eq!(tx.capacity(), 4);
        let big = Run::of(1, 20, 100);
        tx.push(big).unwrap();
        assert_eq!(tx.len(), 3);
        assert_eq!(rx.pop(), Some(big));
    }

    #[test]
    fn a_record_takes_the_cells_its_length_needs() {
        let (mut tx, rx) = spsc::<Run>(64);
        for (len, cells) in [(0, 1), (1, 1), (7, 1), (8, 2), (15, 2), (16, 3), (20, 3)] {
            let before = tx.len();
            tx.push(Run::of(0, len, 0)).unwrap();
            assert_eq!(tx.len() - before, cells, "{len} words");
        }
        assert_eq!(tx.len(), 13);
        assert!(!rx.is_empty());
        // One-word integers: a cell each, and popping gives it back.
        let (mut tx, mut rx) = spsc::<u64>(8);
        tx.push(7).unwrap();
        assert_eq!(tx.len(), 1);
        assert_eq!(rx.pop(), Some(7));
        assert_eq!(tx.len(), 0);
        assert!(rx.is_empty());
    }

    #[test]
    fn every_length_survives_at_every_offset_including_the_wrap() {
        // An 8-cell ring and records of 1 to 3 cells: pushing one and
        // popping it walks the start cell round the ring, so each length
        // is stored contiguous, ending flush with the buffer, and split
        // at every cell boundary the wrap can fall on.
        let (mut tx, mut rx) = spsc::<Run>(8);
        let mut seed = 0;
        for round in 0..40 {
            for len in 0..=Run::MAX_WORDS {
                let sent = Run::of((round % 3) as u16, len, seed);
                seed += 1000;
                tx.push(sent).unwrap();
                assert_eq!(rx.pop(), Some(sent), "round {round}, {len} words");
            }
        }
        assert!(rx.pop().is_none());
    }

    #[test]
    fn interleaved_sizes_keep_order_tag_and_contents() {
        // 1, 20, 2, 19, … queued together, so short and long records sit
        // next to each other and the ring wraps under a backlog.
        let (mut tx, mut rx) = spsc::<Run>(16);
        let sizes: Vec<usize> = (1..=10).flat_map(|i| [i, 21 - i]).collect();
        let mut sent = std::collections::VecDeque::new();
        let mut seed = 0;
        for _ in 0..50 {
            for (i, &len) in sizes.iter().enumerate() {
                let run = Run::of((i % 2) as u16, len, seed);
                seed += 100;
                while let Err(PushError::Full(back)) = tx.push(run) {
                    assert_eq!(back, run, "a refused record comes back intact");
                    assert_eq!(rx.pop(), sent.pop_front(), "oldest first");
                }
                sent.push_back(run);
            }
        }
        while let Some(got) = rx.pop() {
            assert_eq!(Some(got), sent.pop_front());
        }
        assert!(sent.is_empty());
    }

    #[test]
    fn push_to_full_ring_fails() {
        let (mut tx, mut rx) = spsc::<u64>(2);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(tx.push(3), Err(PushError::Full(3)));
        assert_eq!(rx.pop(), Some(1));
        tx.push(3).unwrap();
    }

    #[test]
    fn a_refused_record_writes_nothing() {
        // Three free cells, a three-cell record, then a refusal of
        // another: what is queued is untouched and the refused one can
        // go in once there is room.
        let (mut tx, mut rx) = spsc::<Run>(4);
        let (small, big) = (Run::of(1, 3, 10), Run::of(0, 20, 50));
        tx.push(small).unwrap();
        tx.push(big).unwrap();
        let late = Run::of(1, 9, 90);
        assert_eq!(tx.push_ref(&late), Err(PushError::Full(())));
        assert_eq!(tx.push(late), Err(PushError::Full(late)));
        assert_eq!(tx.len(), 4);
        assert_eq!(rx.pop(), Some(small));
        assert_eq!(tx.push(late), Err(PushError::Full(late)), "one cell free");
        assert_eq!(rx.pop(), Some(big));
        tx.push(late).unwrap();
        assert_eq!(rx.pop(), Some(late));
    }

    #[test]
    fn push_after_consumer_drop_fails_disconnected() {
        let (mut tx, rx) = spsc::<u64>(2);
        drop(rx);
        assert_eq!(tx.push(1), Err(PushError::Disconnected(1)));
    }

    #[test]
    fn full_ring_with_dead_consumer_reports_disconnected_not_full() {
        // Regression: a retry loop keyed on `Full` yielded forever when
        // the ring stayed full because its consumer died. Disconnection
        // must win over fullness so bounded retries stop at once.
        let (mut tx, rx) = spsc::<u64>(2);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(tx.push(3), Err(PushError::Full(3)));
        drop(rx);
        assert_eq!(tx.push(3), Err(PushError::Disconnected(3)));
    }

    #[test]
    fn drain_limits_batch() {
        let (mut tx, mut rx) = spsc::<u64>(8);
        for i in 0..6 {
            tx.push(i).unwrap();
        }
        let mut got = Vec::new();
        let n = rx.drain(4, |&v| got.push(v));
        assert_eq!(n, 4);
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert_eq!(tx.len(), 2);
        assert!(!rx.is_empty());
    }

    #[test]
    fn cross_thread_stream_is_lossless() {
        // Mixed lengths, so the consumer's decode and the producer's
        // two-piece copy race across the wrap point too.
        const N: usize = 100_000;
        let (mut tx, mut rx) = spsc::<Run>(64);
        let h = std::thread::spawn(move || {
            let mut sum = 0usize;
            let mut seen = 0;
            while seen < N {
                if let Some(v) = rx.pop_ref() {
                    assert_eq!(v.len, seen % 21);
                    sum += v.words[..v.len].iter().sum::<usize>();
                    seen += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            sum
        });
        let mut expected = 0usize;
        for i in 0..N {
            let run = Run::of(0, i % 21, i);
            expected += run.words[..run.len].iter().sum::<usize>();
            loop {
                match tx.push_ref(&run) {
                    Ok(()) => break,
                    Err(PushError::Full(())) => std::thread::yield_now(),
                    Err(e) => panic!("consumer is alive: {e:?}"),
                }
            }
        }
        assert_eq!(h.join().unwrap(), expected);
    }

    /// The `i`th record of the adversarial stream, whose first cell is
    /// absolute cell `cell`: 0 to 20 words (one to three cells), with
    /// word 0 of each continuation cell planted as the header the
    /// consumer would accept at that cell one lap on.
    fn planted(i: usize, cell: usize, cells: usize) -> Run {
        let len = (i.wrapping_mul(2_654_435_761) >> 16) % (Run::MAX_WORDS + 1);
        let mut run = Run::of((i % 3) as u16, len, i << 8);
        for k in 1..span(len) {
            run.words[k * CELL_WORDS - 1] = header(cell + k + cells, 0, 1);
        }
        run
    }

    #[test]
    fn a_stale_payload_word_never_reads_as_a_later_header() {
        // A 4-cell ring crossed between two threads for 100,000 laps.
        // Every continuation cell carries, where a header would be, the
        // very header the consumer expects there on the next lap, so a
        // consumer that polled it before the producer wrote that lap's
        // record would pop a phantom one-word record. Only the consumer's
        // rewrite of each continuation cell's word 0 prevents that.
        const CELLS: usize = 4;
        const END: usize = 100_000 * CELLS;
        let (mut tx, mut rx) = spsc::<Run>(CELLS);
        assert_eq!(tx.capacity(), CELLS);
        let consumer = std::thread::spawn(move || {
            let (mut i, mut cell) = (0, 0);
            while cell < END {
                let want = planted(i, cell, CELLS);
                let got = loop {
                    match rx.pop() {
                        Some(got) => break got,
                        None => std::thread::yield_now(),
                    }
                };
                assert_eq!(got, want, "record {i} at cell {cell}");
                (i, cell) = (i + 1, cell + span(want.len));
            }
            rx
        });
        let (mut i, mut cell) = (0, 0);
        while cell < END {
            let run = planted(i, cell, CELLS);
            while let Err(PushError::Full(_)) = tx.push(run) {
                std::thread::yield_now();
            }
            (i, cell) = (i + 1, cell + span(run.len));
        }
        let mut rx = consumer.join().unwrap();
        assert_eq!(rx.pop(), None, "no record after the last one sent");
        assert!(rx.is_empty() && tx.is_empty());
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let (mut tx, mut rx) = spsc::<u64>(4);
        assert!(tx.is_empty() && rx.is_empty());
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(tx.len(), 2);
        assert!(!rx.is_empty());
        rx.pop();
        assert_eq!(tx.len(), 1);
        rx.pop();
        assert!(tx.is_empty() && rx.is_empty());
    }
}
