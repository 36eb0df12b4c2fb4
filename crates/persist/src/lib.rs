#![warn(missing_docs)]
//! **small-persist** — crash-consistent durability for the SMALL
//! reproduction.
//!
//! The simulated machine is deterministic: given a trace and a
//! [`small_simulator`-style] parameter set, every run produces the same
//! memory-operation stream. This crate exploits that determinism to make
//! runs *restartable* after a crash at any point, with three pieces:
//!
//! * **Checkpoints** ([`encode_checkpoint`] / [`decode_checkpoint`]) — a
//!   versioned, CRC-guarded binary snapshot of full machine state: the
//!   complete LPT image ([`small_core::LpImage`], including free-stack
//!   threading, pending lazy decrements, split counts, and the
//!   degraded-mode flag), the heap-controller image
//!   ([`small_heap::ControllerImage`], covering all three list
//!   representations), an opaque driver section the simulator owns
//!   (frames, bindings, RNG state), and a progress marker. Equal states
//!   encode to byte-identical checkpoints.
//! * **Write-ahead journal** ([`JournalSink`], [`encode_frame`],
//!   [`scan_journal`]) — an append-only log of per-operation digests,
//!   group-committed one [`frame`] per trace event. The same
//!   `[len][crc][payload]` frame carries the serving layer's
//!   replication WAL. Because the
//!   [`small_metrics::EventSink`] op hooks carry no operands, the journal
//!   does not record *what* to redo — replay re-executes the
//!   deterministic simulator from the checkpoint — it records what the
//!   re-execution **must produce**: any divergence between a replayed
//!   operation's digest and the journaled one fails recovery closed.
//! * **Crash modeling** ([`CrashStore`], [`CrashPlan`]) — an in-memory
//!   durable store with flushed-bytes semantics. A plan kills the run at
//!   the *k*-th journal append, optionally leaving a torn prefix of the
//!   frame behind, exactly as a power loss mid-`write(2)` would.
//!
//! # Failure taxonomy
//!
//! An **incomplete frame at the journal tail** is a torn write: the
//! machine crashed mid-append, the frame's operations were never
//! acknowledged, and recovery truncates it and re-executes those
//! operations (they re-journal identically). A **complete frame whose
//! CRC fails** is corruption — a bit flipped at rest — and recovery
//! fails closed with [`PersistError::CorruptJournal`] rather than guess.
//! A corrupted length field that points past end-of-file is
//! indistinguishable from a torn write and is treated as one (safe:
//! replay regenerates whatever was lost). Checkpoint damage of any kind
//! fails closed; the journal is worthless without its base state.
//!
//! # Snapshot format versioning
//!
//! [`CHECKPOINT_VERSION`] is bumped on **any** change to the encoded
//! layout. An unknown version fails closed with
//! [`PersistError::UnsupportedVersion`], and the run restarts from the
//! trace instead (checkpoints are derived state — the trace and
//! parameters remain the source of truth). This mirrors the
//! `BENCH_small.json` schema policy: formats evolve by explicit version
//! bump plus regeneration, never by silent reinterpretation.
//!
//! Version 2 writes only what a heap allocated: the two-pointer arena
//! up to its frontier (carried as a seventh `heap` scalar) and the
//! cdr-coded arrays up to their bump pointer (with the capacity as a
//! second `misc` word). Version 1 images decode on the same single
//! path, with no second decoder: a version-1 two-pointer heap is the
//! case `frontier == capacity` (six scalars, an arena threaded to its
//! last cell), and a version-1 cdr-coded heap gives its capacity by its
//! array length. Encoding always writes the current version.

pub mod frame;

use small_core::{EntryImage, FieldImage, LpImage, LptStats};
use small_heap::ControllerImage;
use small_metrics::{Event, EventSink, OpClass, PrimKind};

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a durability operation failed. Every variant is fail-closed:
/// recovery surfaces the error instead of proceeding on suspect state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistError {
    /// Recovery was requested but the store holds no checkpoint.
    NoCheckpoint,
    /// The checkpoint failed validation (bad magic, CRC mismatch,
    /// truncation, or a malformed section).
    CorruptCheckpoint(&'static str),
    /// The checkpoint was written by an unknown format version.
    UnsupportedVersion(u32),
    /// A *complete* journal frame failed validation — corruption at
    /// rest, not a torn tail.
    CorruptJournal {
        /// Byte offset of the offending frame.
        offset: usize,
        /// What failed.
        reason: &'static str,
    },
    /// Replay re-executed an operation whose digest disagrees with the
    /// journaled one: the checkpoint, journal, and trace are mutually
    /// inconsistent.
    ReplayDivergence {
        /// Journal sequence number of the diverging operation.
        seq: u64,
        /// The digest the journal promised.
        expected: u64,
        /// The digest replay produced.
        actual: u64,
    },
    /// A controller or LP image failed structural validation on import.
    MalformedImage(small_heap::ImageError),
    /// The injected crash fired (chaos harness): the simulated machine
    /// lost power during the `appends`-th journal append.
    Crash {
        /// Total appends attempted, including the one that died.
        appends: u64,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::NoCheckpoint => write!(f, "no checkpoint in store"),
            PersistError::CorruptCheckpoint(why) => {
                write!(f, "corrupt checkpoint: {why}")
            }
            PersistError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            PersistError::CorruptJournal { offset, reason } => {
                write!(f, "corrupt journal frame at byte {offset}: {reason}")
            }
            PersistError::ReplayDivergence {
                seq,
                expected,
                actual,
            } => write!(
                f,
                "replay divergence at op {seq}: journal {expected:#018x}, replay {actual:#018x}"
            ),
            PersistError::MalformedImage(e) => write!(f, "malformed image: {e}"),
            PersistError::Crash { appends } => {
                write!(f, "injected crash during journal append {appends}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<small_heap::ImageError> for PersistError {
    fn from(e: small_heap::ImageError) -> Self {
        PersistError::MalformedImage(e)
    }
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected)
// ---------------------------------------------------------------------

/// Slice-by-8 tables: `CRC32_TABLES[0]` is the classic byte-at-a-time
/// table, and `CRC32_TABLES[k][b]` is the CRC of byte `b` followed by
/// `k` zero bytes, so eight input bytes fold in with eight lookups.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (the IEEE 802.3 polynomial) of `bytes`, eight bytes per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for b in &mut chunks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][b[4] as usize]
            ^ t[2][b[5] as usize]
            ^ t[1][b[6] as usize]
            ^ t[0][b[7] as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// Byte codec
// ---------------------------------------------------------------------

/// Little-endian byte writer for the checkpoint/journal formats. The
/// simulator uses it to encode its own opaque driver section with the
/// same deterministic rules.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Append an `Option<u32>`: `u32::MAX` encodes `None` (table
    /// identifiers and heap addresses never reach it).
    pub fn put_opt_u32(&mut self, v: Option<u32>) {
        self.put_u32(v.unwrap_or(u32::MAX));
    }

    /// Append a length-prefixed string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append raw bytes with a length prefix.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian byte reader over an untrusted buffer; every accessor
/// is bounds-checked and fails with a static reason.
#[derive(Debug)]
pub struct ByteReader<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from `bytes`, starting at offset 0.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { b: bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], &'static str> {
        let end = self.at.checked_add(n).ok_or("length overflow")?;
        if end > self.b.len() {
            return Err("truncated");
        }
        let s = &self.b[self.at..end];
        self.at = end;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, &'static str> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, &'static str> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, &'static str> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `u64` event counter, checked by
    /// [`small_heap::persist::counter`] so that counting on from it
    /// cannot overflow.
    pub fn counter(&mut self) -> Result<u64, &'static str> {
        small_heap::persist::counter(self.u64()?).map_err(|_| "counter out of range")
    }

    /// Read a `u32` reference count, at most half the type's range so
    /// that counting on from it cannot overflow.
    fn refcount(&mut self) -> Result<u32, &'static str> {
        let v = self.u32()?;
        if v > u32::MAX / 2 {
            return Err("refcount out of range");
        }
        Ok(v)
    }

    /// Read a `bool` (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, &'static str> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err("bad bool"),
        }
    }

    /// Read an `Option<u32>` (`u32::MAX` is `None`).
    pub fn opt_u32(&mut self) -> Result<Option<u32>, &'static str> {
        let v = self.u32()?;
        Ok(if v == u32::MAX { None } else { Some(v) })
    }

    /// Read a `u64` byte length: [`ByteReader::count`] of one-byte
    /// items. Not a container length, so there is no matching
    /// `is_empty`.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&mut self) -> Result<usize, &'static str> {
        self.count(1)
    }

    /// Read a `u64` count of items that encode to at least `item_bytes`
    /// bytes each and that the rest of the input can hold, so a corrupt
    /// count cannot size an allocation beyond a small multiple of the
    /// input itself.
    pub fn count(&mut self, item_bytes: usize) -> Result<usize, &'static str> {
        let v = self.u64()?;
        if v > ((self.b.len() - self.at) / item_bytes) as u64 {
            return Err("length past end of input");
        }
        Ok(v as usize)
    }

    /// Read a length-prefixed string.
    pub fn str(&mut self) -> Result<&'a str, &'static str> {
        let n = self.len()?;
        std::str::from_utf8(self.take(n)?).map_err(|_| "bad utf-8")
    }

    /// Read length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], &'static str> {
        let n = self.len()?;
        self.take(n)
    }

    /// True once every byte has been consumed.
    pub fn at_end(&self) -> bool {
        self.at == self.b.len()
    }

    /// Fail unless the input is fully consumed (trailing garbage is
    /// treated as corruption, not ignored).
    pub fn expect_end(&self) -> Result<(), &'static str> {
        if self.at_end() {
            Ok(())
        } else {
            Err("trailing bytes")
        }
    }
}

/// Section and controller names that may appear in a checkpoint; decode
/// interns against this list so [`ControllerImage`]'s `&'static str`
/// fields round-trip.
const KNOWN_NAMES: &[&str] = &[
    "two-pointer",
    "cdr-coded",
    "structure-coded",
    "arena",
    "heap",
    "queue",
    "ctrl",
    "cars",
    "codes",
    "misc",
    "tables",
    "free",
];

fn intern(name: &str) -> Result<&'static str, &'static str> {
    KNOWN_NAMES
        .iter()
        .find(|&&k| k == name)
        .copied()
        .ok_or("unknown section name")
}

// ---------------------------------------------------------------------
// Checkpoint format
// ---------------------------------------------------------------------

/// Magic bytes opening every checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"SMALLCKP";

/// Current checkpoint format version. Bumped on any layout change (see
/// the crate docs for the policy). Version 2 writes only the allocated
/// part of each heap; version 1 images still decode.
pub const CHECKPOINT_VERSION: u32 = 2;

/// A complete machine snapshot: everything needed to resume a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Trace events fully applied before this snapshot was taken.
    pub event_index: u64,
    /// Journal sequence number of the next operation after the
    /// snapshot (replay verification starts here).
    pub journal_seq: u64,
    /// The full LPT image.
    pub lp: LpImage,
    /// The heap-controller image.
    pub controller: ControllerImage,
    /// Opaque driver state (frames, bindings, RNG), encoded by the
    /// simulator with [`ByteWriter`].
    pub driver: Vec<u8>,
}

fn put_field(w: &mut ByteWriter, f: FieldImage) {
    match f {
        FieldImage::Empty => {
            w.put_u8(0);
            w.put_u64(0);
        }
        FieldImage::Atom(bits) => {
            w.put_u8(1);
            w.put_u64(bits);
        }
        FieldImage::Obj(id) => {
            w.put_u8(2);
            w.put_u64(u64::from(id));
        }
    }
}

fn get_field(r: &mut ByteReader) -> Result<FieldImage, &'static str> {
    let tag = r.u8()?;
    let payload = r.u64()?;
    match tag {
        0 => Ok(FieldImage::Empty),
        1 => Ok(FieldImage::Atom(payload)),
        2 => Ok(FieldImage::Obj(
            u32::try_from(payload).map_err(|_| "field id overflow")?,
        )),
        _ => Err("bad field tag"),
    }
}

fn put_stats(w: &mut ByteWriter, s: &LptStats) {
    for v in [
        s.refops,
        s.ep_refops,
        s.gets,
        s.frees,
        s.hits,
        s.misses,
        s.pseudo_overflows,
        s.compressed,
        s.cycle_collections,
        s.cycles_reclaimed,
        s.max_occupancy as u64,
        s.occupancy_sum,
        s.occupancy_samples,
        u64::from(s.max_refcount),
        u64::from(s.max_ep_refcount),
        s.faults_detected,
        s.faults_recovered,
        s.overflow_entries,
        s.overflow_exits,
        s.heap_direct_ops,
    ] {
        w.put_u64(v);
    }
}

fn get_stats(r: &mut ByteReader) -> Result<LptStats, &'static str> {
    let mut v = [0u64; 20];
    for slot in &mut v {
        *slot = r.counter()?;
    }
    Ok(LptStats {
        refops: v[0],
        ep_refops: v[1],
        gets: v[2],
        frees: v[3],
        hits: v[4],
        misses: v[5],
        pseudo_overflows: v[6],
        compressed: v[7],
        cycle_collections: v[8],
        cycles_reclaimed: v[9],
        max_occupancy: v[10] as usize,
        occupancy_sum: v[11],
        occupancy_samples: v[12],
        max_refcount: u32::try_from(v[13]).map_err(|_| "refcount overflow")?,
        max_ep_refcount: u32::try_from(v[14]).map_err(|_| "refcount overflow")?,
        faults_detected: v[15],
        faults_recovered: v[16],
        overflow_entries: v[17],
        overflow_exits: v[18],
        heap_direct_ops: v[19],
    })
}

/// Encoded bytes of one LPT entry: two fields, `rc`, `addr`,
/// `free_next` and the flag byte.
const ENTRY_BYTES: usize = 2 * 9 + 3 * 4 + 1;

fn put_lp_image(w: &mut ByteWriter, lp: &LpImage) {
    w.put_u64(lp.table_size as u64);
    w.put_u64(lp.entries.len() as u64);
    for e in &lp.entries {
        put_field(w, e.car);
        put_field(w, e.cdr);
        w.put_u32(e.rc);
        w.put_opt_u32(e.addr);
        w.put_opt_u32(e.free_next);
        w.put_u8(e.stack_bit as u8 | (e.live as u8) << 1 | (e.lazy as u8) << 2);
    }
    w.put_opt_u32(lp.free_head);
    w.put_opt_u32(lp.free_tail);
    w.put_u64(lp.live as u64);
    w.put_bool(lp.degraded);
    w.put_u64(lp.ep_counts.len() as u64);
    for &(id, c) in &lp.ep_counts {
        w.put_u32(id);
        w.put_u32(c);
    }
    w.put_u64(lp.recent_overflows.len() as u64);
    for &t in &lp.recent_overflows {
        w.put_u64(t);
    }
    put_stats(w, &lp.stats);
}

fn get_lp_image(r: &mut ByteReader) -> Result<LpImage, &'static str> {
    let table_size = r.u64()? as usize;
    let n = r.count(ENTRY_BYTES)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let car = get_field(r)?;
        let cdr = get_field(r)?;
        let rc = r.refcount()?;
        let addr = r.opt_u32()?;
        let free_next = r.opt_u32()?;
        let flags = r.u8()?;
        if flags & !0b111 != 0 {
            return Err("bad entry flags");
        }
        entries.push(EntryImage {
            car,
            cdr,
            rc,
            addr,
            stack_bit: flags & 1 != 0,
            live: flags & 2 != 0,
            free_next,
            lazy: flags & 4 != 0,
        });
    }
    let free_head = r.opt_u32()?;
    let free_tail = r.opt_u32()?;
    let live = r.u64()? as usize;
    let degraded = r.bool()?;
    let n = r.count(8)?;
    let mut ep_counts = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r.u32()?;
        let c = r.refcount()?;
        ep_counts.push((id, c));
    }
    let n = r.count(8)?;
    let mut recent_overflows = Vec::with_capacity(n);
    for _ in 0..n {
        recent_overflows.push(r.u64()?);
    }
    let stats = get_stats(r)?;
    Ok(LpImage {
        table_size,
        entries,
        free_head,
        free_tail,
        live,
        degraded,
        ep_counts,
        recent_overflows,
        stats,
    })
}

fn put_controller_image(w: &mut ByteWriter, img: &ControllerImage) {
    w.put_str(img.kind);
    w.put_u64(img.sections.len() as u64);
    for (name, words) in &img.sections {
        w.put_str(name);
        w.put_u64(words.len() as u64);
        for &word in words {
            w.put_u64(word);
        }
    }
}

fn get_controller_image(r: &mut ByteReader) -> Result<ControllerImage, &'static str> {
    let kind = intern(r.str()?)?;
    let n = r.len()?;
    let mut sections = Vec::with_capacity(n);
    for _ in 0..n {
        let name = intern(r.str()?)?;
        let len = r.count(8)?;
        let mut words = Vec::with_capacity(len);
        for _ in 0..len {
            words.push(r.u64()?);
        }
        sections.push((name, words));
    }
    Ok(ControllerImage { kind, sections })
}

/// Checkpoint header bytes: magic, `u32` version, `u32` payload CRC,
/// `u64` payload length.
const CHECKPOINT_HEADER: usize = CHECKPOINT_MAGIC.len() + 16;

/// The exact encoded payload size of `ckpt`, so the encoder allocates
/// once and the blob carries no spare capacity.
fn checkpoint_payload_len(ckpt: &Checkpoint) -> usize {
    let lp = &ckpt.lp;
    // Table size and entry count, the entries, free head and tail plus
    // `live` and `degraded`, two counted vectors, and the 20 stats.
    let lp_len = 16
        + ENTRY_BYTES * lp.entries.len()
        + 17
        + (8 + 8 * lp.ep_counts.len())
        + (8 + 8 * lp.recent_overflows.len())
        + 8 * 20;
    let ctrl = &ckpt.controller;
    let sections: usize = ctrl
        .sections
        .iter()
        .map(|(name, words)| 16 + name.len() + 8 * words.len())
        .sum();
    let controller_len = 16 + ctrl.kind.len() + sections;
    16 + lp_len + controller_len + 8 + ckpt.driver.len()
}

/// Serialize a [`Checkpoint`]: magic, version, payload CRC, payload
/// length, payload. The payload is written straight behind a reserved
/// header, which is then sealed in place. Deterministic — equal
/// checkpoints encode to identical bytes.
pub fn encode_checkpoint(ckpt: &Checkpoint) -> Vec<u8> {
    let payload_len = checkpoint_payload_len(ckpt);
    let mut w = ByteWriter {
        buf: Vec::with_capacity(CHECKPOINT_HEADER + payload_len),
    };
    w.buf.extend_from_slice(&CHECKPOINT_MAGIC);
    w.put_u32(CHECKPOINT_VERSION);
    w.put_u32(0); // CRC and length, sealed below
    w.put_u64(0);
    w.put_u64(ckpt.event_index);
    w.put_u64(ckpt.journal_seq);
    put_lp_image(&mut w, &ckpt.lp);
    put_controller_image(&mut w, &ckpt.controller);
    w.put_bytes(&ckpt.driver);
    let mut bytes = w.finish();
    let len = bytes.len() - CHECKPOINT_HEADER;
    debug_assert_eq!(len, payload_len, "checkpoint_payload_len is stale");
    let crc = crc32(&bytes[CHECKPOINT_HEADER..]);
    bytes[12..16].copy_from_slice(&crc.to_le_bytes());
    bytes[16..CHECKPOINT_HEADER].copy_from_slice(&(len as u64).to_le_bytes());
    bytes
}

/// Parse and validate a checkpoint of any supported version. Fails
/// closed on bad magic, unknown version, wrong length, CRC mismatch, or
/// any malformed section.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, PersistError> {
    let corrupt = PersistError::CorruptCheckpoint;
    if bytes.len() < CHECKPOINT_HEADER {
        return Err(corrupt("truncated header"));
    }
    if bytes[..8] != CHECKPOINT_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let mut r = ByteReader::new(&bytes[8..]);
    let version = r.u32().map_err(corrupt)?;
    if !(1..=CHECKPOINT_VERSION).contains(&version) {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let want_crc = r.u32().map_err(corrupt)?;
    let len = r.len().map_err(corrupt)?;
    let payload = r.bytes_exact(len).map_err(corrupt)?;
    r.expect_end().map_err(corrupt)?;
    if crc32(payload) != want_crc {
        return Err(corrupt("crc mismatch"));
    }

    let mut p = ByteReader::new(payload);
    let event_index = p.counter().map_err(corrupt)?;
    let journal_seq = p.counter().map_err(corrupt)?;
    let lp = get_lp_image(&mut p).map_err(corrupt)?;
    let controller = get_controller_image(&mut p).map_err(corrupt)?;
    let driver = p.bytes().map_err(corrupt)?.to_vec();
    p.expect_end().map_err(corrupt)?;
    Ok(Checkpoint {
        event_index,
        journal_seq,
        lp,
        controller,
        driver,
    })
}

impl<'a> ByteReader<'a> {
    /// Read exactly `n` raw bytes (no length prefix).
    pub fn bytes_exact(&mut self, n: usize) -> Result<&'a [u8], &'static str> {
        self.take(n)
    }
}

// ---------------------------------------------------------------------
// Journal format
// ---------------------------------------------------------------------

/// `prim`/`class` code for a digest record covering events recorded
/// *outside* any op bracket (root churn between primitives).
pub const LOOSE_CODE: u8 = 0xFF;

/// One journaled operation: the digest replay must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalRecord {
    /// Monotonic operation sequence number across the run.
    pub seq: u64,
    /// [`PrimKind`] index, or [`LOOSE_CODE`] for an out-of-bracket
    /// record.
    pub prim: u8,
    /// Resolved [`OpClass`] index, or [`LOOSE_CODE`].
    pub class: u8,
    /// FNV-1a fold of every event the operation emitted.
    pub digest: u64,
}

/// One group-committed journal frame: every operation of one trace
/// event, made durable together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalBatch {
    /// The trace event these operations implement.
    pub event_index: u64,
    /// The operations, in execution order.
    pub records: Vec<JournalRecord>,
}

/// Encoded bytes of one [`JournalRecord`].
const RECORD_BYTES: usize = 8 + 1 + 1 + 8;

/// Encode one batch as a `[len][crc][payload]` [`frame`].
pub fn encode_frame(batch: &JournalBatch) -> Vec<u8> {
    frame::encode(16 + RECORD_BYTES * batch.records.len(), |w| {
        w.put_u64(batch.event_index);
        w.put_u64(batch.records.len() as u64);
        for rec in &batch.records {
            w.put_u64(rec.seq);
            w.put_u8(rec.prim);
            w.put_u8(rec.class);
            w.put_u64(rec.digest);
        }
    })
}

/// Walk a journal, separating valid frames from a torn tail.
///
/// Returns the decoded batches plus the byte length of the valid
/// prefix; recovery truncates the journal to that length (scan-back)
/// and re-executes everything after it. An *incomplete* trailing frame
/// is a torn write and is silently dropped; a *complete* frame that
/// fails its CRC or decodes inconsistently is corruption and fails
/// closed.
pub fn scan_journal(bytes: &[u8]) -> Result<(Vec<JournalBatch>, usize), PersistError> {
    frame::scan(bytes, |payload| {
        let mut r = ByteReader::new(payload);
        let event_index = r.u64()?;
        let n = r.len()?;
        // Grown by the records actually read, never sized from the count.
        let mut records = Vec::new();
        for _ in 0..n {
            records.push(JournalRecord {
                seq: r.u64()?,
                prim: r.u8()?,
                class: r.u8()?,
                digest: r.u64()?,
            });
        }
        r.expect_end()?;
        Ok(JournalBatch {
            event_index,
            records,
        })
    })
    .map_err(|frame::FrameError { offset, reason }| PersistError::CorruptJournal { offset, reason })
}

// ---------------------------------------------------------------------
// Op digests and the journaling sink
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The FNV-1a offset basis — the seed value every digest chain in this
/// crate starts from. Exposed so other layers (the serving layer's
/// per-session request/reply digests) fold with the same parameters.
pub const DIGEST_SEED: u64 = FNV_OFFSET;

/// Fold `bytes` into a running FNV-1a digest `h` (start chains from
/// [`DIGEST_SEED`]). This is the digest the journal frames use; session
/// layers reuse it so "journal digest" means one thing repo-wide.
pub fn digest_bytes(h: u64, bytes: &[u8]) -> u64 {
    fnv1a(h, bytes)
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Stable code + payload of an event, the unit the digest folds over.
fn event_code(e: Event) -> (u8, u64) {
    match e {
        Event::LptHit => (0, 0),
        Event::LptMiss => (1, 0),
        Event::RefOp => (2, 0),
        Event::EpRefOp => (3, 0),
        Event::EntryAllocated => (4, 0),
        Event::EntryFreed => (5, 0),
        Event::LazyDrain { children } => (6, u64::from(children)),
        Event::PseudoOverflow { reclaimed } => (7, u64::from(reclaimed)),
        Event::CycleCollection { reclaimed } => (8, u64::from(reclaimed)),
        Event::TrueOverflow => (9, 0),
        Event::HeapSplit => (10, 0),
        Event::HeapMerge => (11, 0),
        Event::HeapReadIn => (12, 0),
        Event::HeapFree => (13, 0),
        Event::Occupancy { live } => (14, u64::from(live)),
        Event::HeapFaultDetected => (15, 0),
        Event::HeapFaultRecovered => (16, 0),
        Event::OverflowModeEntered => (17, 0),
        Event::OverflowModeExited => (18, 0),
    }
}

fn prim_code(p: PrimKind) -> u8 {
    p.index() as u8
}

fn class_code(c: OpClass) -> u8 {
    match c {
        OpClass::ReadList => 0,
        OpClass::AccessHit => 1,
        OpClass::AccessMiss => 2,
        OpClass::Modify => 3,
        OpClass::Cons => 4,
    }
}

/// An [`EventSink`] that journals the operation stream as per-op
/// digests while forwarding everything to an inner sink.
///
/// Each op bracket (`op_begin` .. `op_end`) folds its events into one
/// FNV-1a digest and yields a [`JournalRecord`]; events recorded
/// outside any bracket accumulate into a pending "loose" digest folded
/// into a [`LOOSE_CODE`] record at the next batch boundary. The driver
/// calls [`JournalSink::take_batch`] once per trace event (group
/// commit) and appends the encoded frame to the store.
#[derive(Debug)]
pub struct JournalSink<S: EventSink> {
    inner: S,
    seq: u64,
    cur: Option<(u8, u64)>,
    loose: u64,
    pending: Vec<JournalRecord>,
}

impl<S: EventSink> JournalSink<S> {
    /// Wrap `inner`, numbering the first operation `first_seq` (0 for a
    /// fresh run; the checkpoint's `journal_seq` on resume).
    pub fn new(inner: S, first_seq: u64) -> Self {
        JournalSink {
            inner,
            seq: first_seq,
            cur: None,
            loose: FNV_OFFSET,
            pending: Vec::new(),
        }
    }

    /// Sequence number the next operation will receive.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped sink.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Unwrap, returning the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Drain the records accumulated since the last call as one
    /// group-commit batch for `event_index`. Returns `None` when the
    /// event produced no journalable work (nothing need be written).
    pub fn take_batch(&mut self, event_index: u64) -> Option<JournalBatch> {
        debug_assert!(self.cur.is_none(), "batch taken mid-operation");
        if self.loose != FNV_OFFSET {
            let digest = std::mem::replace(&mut self.loose, FNV_OFFSET);
            self.pending.push(JournalRecord {
                seq: self.seq,
                prim: LOOSE_CODE,
                class: LOOSE_CODE,
                digest,
            });
            self.seq += 1;
        }
        if self.pending.is_empty() {
            return None;
        }
        Some(JournalBatch {
            event_index,
            records: std::mem::take(&mut self.pending),
        })
    }
}

impl<S: EventSink> EventSink for JournalSink<S> {
    fn record(&mut self, event: Event) {
        let (code, payload) = event_code(event);
        let mut buf = [0u8; 9];
        buf[0] = code;
        buf[1..9].copy_from_slice(&payload.to_le_bytes());
        match &mut self.cur {
            Some((_, digest)) => *digest = fnv1a(*digest, &buf),
            None => self.loose = fnv1a(self.loose, &buf),
        }
        self.inner.record(event);
    }

    fn op_begin(&mut self, prim: PrimKind) {
        debug_assert!(self.cur.is_none(), "nested op bracket");
        let mut digest = FNV_OFFSET;
        digest = fnv1a(digest, &[prim_code(prim)]);
        // Fold any loose events into this op's digest so ordering
        // relative to brackets is captured too.
        if self.loose != FNV_OFFSET {
            digest = fnv1a(digest, &self.loose.to_le_bytes());
            self.loose = FNV_OFFSET;
        }
        self.cur = Some((prim_code(prim), digest));
        self.inner.op_begin(prim);
    }

    fn op_end(&mut self, class: OpClass) {
        if let Some((prim, digest)) = self.cur.take() {
            let digest = fnv1a(digest, &[class_code(class)]);
            self.pending.push(JournalRecord {
                seq: self.seq,
                prim,
                class: class_code(class),
                digest,
            });
            self.seq += 1;
        }
        self.inner.op_end(class);
    }
}

/// Compare a replayed batch against the journaled one; any mismatch is
/// a fail-closed [`PersistError::ReplayDivergence`].
pub fn verify_batch(journaled: &JournalBatch, replayed: &JournalBatch) -> Result<(), PersistError> {
    if journaled.event_index != replayed.event_index
        || journaled.records.len() != replayed.records.len()
    {
        return Err(PersistError::ReplayDivergence {
            seq: journaled.records.first().map_or(0, |r| r.seq),
            expected: journaled.records.len() as u64,
            actual: replayed.records.len() as u64,
        });
    }
    for (j, r) in journaled.records.iter().zip(&replayed.records) {
        if j != r {
            return Err(PersistError::ReplayDivergence {
                seq: j.seq,
                expected: j.digest,
                actual: r.digest,
            });
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The crash-modeling store
// ---------------------------------------------------------------------

/// When and how an injected crash fires. Appends are numbered from 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// The journal append that dies (1-based). The frame is not made
    /// durable — except for an optional torn prefix.
    pub kill_at_append: u64,
    /// Bytes of the dying frame that do reach the journal (a torn
    /// write). `None` loses the frame entirely.
    pub torn_keep: Option<usize>,
}

/// An in-memory durable store with flushed-bytes semantics: what a real
/// deployment would keep in a checkpoint file plus an append-only
/// journal file. Checkpoint installation is atomic (the rename(2)
/// idiom): rotation replaces the checkpoint and empties the journal as
/// one step, so a crash never observes a half-installed snapshot.
#[derive(Debug, Default, Clone)]
pub struct CrashStore {
    checkpoint: Option<Vec<u8>>,
    journal: Vec<u8>,
    appends: u64,
    plan: Option<CrashPlan>,
}

impl CrashStore {
    /// An empty store with no crash planned.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store whose `plan` will kill a future journal append.
    pub fn with_plan(plan: CrashPlan) -> Self {
        CrashStore {
            plan: Some(plan),
            ..Self::default()
        }
    }

    /// Disarm the crash plan (the post-crash recovery run must not die
    /// again).
    pub fn disarm(&mut self) {
        self.plan = None;
    }

    /// Atomically install a checkpoint, leaving the journal alone.
    pub fn install_checkpoint(&mut self, bytes: Vec<u8>) {
        self.checkpoint = Some(bytes);
    }

    /// Atomically install a checkpoint *and* empty the journal (log
    /// rotation at a periodic checkpoint).
    pub fn rotate(&mut self, checkpoint: Vec<u8>) {
        self.checkpoint = Some(checkpoint);
        self.journal.clear();
    }

    /// Append one encoded frame to the journal. If the crash plan fires
    /// here, only the planned torn prefix (if any) becomes durable and
    /// the simulated machine dies with [`PersistError::Crash`].
    pub fn append_journal(&mut self, frame: &[u8]) -> Result<(), PersistError> {
        self.appends += 1;
        if let Some(plan) = self.plan {
            if self.appends == plan.kill_at_append {
                let keep = plan.torn_keep.unwrap_or(0).min(frame.len());
                self.journal.extend_from_slice(&frame[..keep]);
                return Err(PersistError::Crash {
                    appends: self.appends,
                });
            }
        }
        self.journal.extend_from_slice(frame);
        Ok(())
    }

    /// The durable checkpoint bytes, if any.
    pub fn checkpoint(&self) -> Option<&[u8]> {
        self.checkpoint.as_deref()
    }

    /// The durable journal bytes.
    pub fn journal(&self) -> &[u8] {
        &self.journal
    }

    /// Journal appends attempted so far (including a fatal one).
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Truncate the journal to `len` bytes (recovery scan-back after
    /// [`scan_journal`] reports a torn tail).
    pub fn truncate_journal(&mut self, len: usize) {
        self.journal.truncate(len);
    }

    /// Corruption helper (tests): flip one bit of a durable journal
    /// byte.
    pub fn flip_journal_byte(&mut self, at: usize) {
        if let Some(b) = self.journal.get_mut(at) {
            *b ^= 0x40;
        }
    }

    /// Corruption helper (tests): chop the durable checkpoint to `len`
    /// bytes.
    pub fn truncate_checkpoint(&mut self, len: usize) {
        if let Some(c) = &mut self.checkpoint {
            c.truncate(len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use small_metrics::NoopSink;

    fn sample_lp_image() -> LpImage {
        LpImage {
            table_size: 4,
            entries: vec![
                EntryImage {
                    car: FieldImage::Atom(0x1234),
                    cdr: FieldImage::Obj(1),
                    rc: 2,
                    addr: None,
                    stack_bit: false,
                    live: true,
                    free_next: None,
                    lazy: false,
                },
                EntryImage {
                    car: FieldImage::Empty,
                    cdr: FieldImage::Empty,
                    rc: 1,
                    addr: Some(40),
                    stack_bit: true,
                    live: true,
                    free_next: None,
                    lazy: false,
                },
                EntryImage {
                    car: FieldImage::Obj(1),
                    cdr: FieldImage::Atom(7),
                    rc: 0,
                    addr: None,
                    stack_bit: false,
                    live: false,
                    free_next: Some(3),
                    lazy: true,
                },
                EntryImage {
                    car: FieldImage::Empty,
                    cdr: FieldImage::Empty,
                    rc: 0,
                    addr: None,
                    stack_bit: false,
                    live: false,
                    free_next: None,
                    lazy: false,
                },
            ],
            free_head: Some(2),
            free_tail: Some(3),
            live: 2,
            degraded: false,
            ep_counts: vec![(1, 3)],
            recent_overflows: vec![17, 99],
            stats: LptStats {
                refops: 12,
                hits: 3,
                max_occupancy: 2,
                max_refcount: 3,
                ..LptStats::default()
            },
        }
    }

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            event_index: 42,
            journal_seq: 99,
            lp: sample_lp_image(),
            controller: ControllerImage {
                kind: "two-pointer",
                sections: vec![("arena", vec![1, 2, 3]), ("ctrl", vec![9, 0, 0, 0, 0, 0])],
            },
            driver: vec![0xAA, 0xBB, 0xCC],
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time CRC-32 the slice-by-8 loop must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every length from 0 to 4096 at every start offset modulo 8, so
        /// each split between eight-byte steps and the byte tail occurs
        /// on misaligned slices.
        #[test]
        fn crc32_slice_by_8_matches_bytewise(
            buf in prop::collection::vec(any::<u8>(), 4096 + 8),
            len in 0usize..=4096,
            start in 0usize..8,
        ) {
            let s = &buf[start..start + len];
            prop_assert_eq!(crc32(s), crc32_bytewise(s));
        }
    }

    #[test]
    fn checkpoint_round_trips_byte_identically() {
        let ckpt = sample_checkpoint();
        let bytes = encode_checkpoint(&ckpt);
        assert_eq!(bytes, encode_checkpoint(&ckpt), "encoding is deterministic");
        let back = decode_checkpoint(&bytes).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(encode_checkpoint(&back), bytes);
    }

    #[test]
    fn checkpoint_fails_closed_on_damage() {
        let bytes = encode_checkpoint(&sample_checkpoint());
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 1;
        assert_eq!(
            decode_checkpoint(&bad),
            Err(PersistError::CorruptCheckpoint("bad magic"))
        );
        // Future version.
        let mut bad = bytes.clone();
        bad[8] = 0xFE;
        assert!(matches!(
            decode_checkpoint(&bad),
            Err(PersistError::UnsupportedVersion(_))
        ));
        // Flipped payload bit.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x10;
        assert_eq!(
            decode_checkpoint(&bad),
            Err(PersistError::CorruptCheckpoint("crc mismatch"))
        );
        // Truncation at every prefix length never panics and never
        // succeeds.
        for n in 0..bytes.len() {
            assert!(decode_checkpoint(&bytes[..n]).is_err(), "prefix {n}");
        }
    }

    #[test]
    fn journal_scan_handles_torn_tail_and_corruption() {
        let rec = |seq, prim, class, digest| JournalRecord {
            seq,
            prim,
            class,
            digest,
        };
        let b1 = JournalBatch {
            event_index: 0,
            records: vec![rec(0, 1, 1, 0xDEAD)],
        };
        let b2 = JournalBatch {
            event_index: 1,
            records: vec![rec(1, 3, 4, 0xBEEF), rec(2, 0, 0, 0xF00D)],
        };
        let mut journal = encode_frame(&b1);
        let f2 = encode_frame(&b2);
        journal.extend_from_slice(&f2);
        let full_len = journal.len();

        // Clean journal: both batches, full length valid.
        let (batches, valid) = scan_journal(&journal).unwrap();
        assert_eq!(batches, vec![b1.clone(), b2.clone()]);
        assert_eq!(valid, full_len);

        // Torn tail at every possible cut inside the second frame: one
        // batch survives, valid length stops at the frame boundary.
        let boundary = full_len - f2.len();
        for cut in boundary..full_len {
            let (batches, valid) = scan_journal(&journal[..cut]).unwrap();
            assert_eq!(batches, vec![b1.clone()], "cut {cut}");
            assert_eq!(valid, boundary, "cut {cut}");
        }

        // A flipped bit inside a *complete* frame fails closed.
        let mut corrupt = journal.clone();
        corrupt[boundary + 9] ^= 0x40;
        assert!(matches!(
            scan_journal(&corrupt),
            Err(PersistError::CorruptJournal { .. })
        ));
        // Empty journal is trivially valid.
        assert_eq!(scan_journal(&[]).unwrap(), (vec![], 0));
    }

    #[test]
    fn journal_sink_digests_deterministically() {
        let run = || {
            let mut sink = JournalSink::new(NoopSink, 0);
            sink.record(Event::RefOp); // loose, folded into the op
            sink.op_begin(PrimKind::Car);
            sink.record(Event::LptHit);
            sink.record(Event::RefOp);
            sink.op_end(OpClass::AccessHit);
            sink.op_begin(PrimKind::Cons);
            sink.record(Event::EntryAllocated);
            sink.op_end(OpClass::Cons);
            sink.record(Event::Occupancy { live: 5 }); // trailing loose
            sink.take_batch(7).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.event_index, 7);
        assert_eq!(a.records.len(), 3, "two ops plus one loose record");
        assert_eq!(a.records[0].prim, PrimKind::Car.index() as u8);
        assert_eq!(a.records[2].prim, LOOSE_CODE);
        assert_eq!(a.records[2].seq, 2);

        // A different event stream digests differently.
        let mut sink = JournalSink::new(NoopSink, 0);
        sink.op_begin(PrimKind::Car);
        sink.record(Event::LptMiss); // miss instead of hit
        sink.record(Event::RefOp);
        sink.op_end(OpClass::AccessHit);
        let other = sink.take_batch(7).unwrap();
        assert_ne!(other.records[0].digest, a.records[0].digest);

        // Quiet events journal nothing.
        let mut sink = JournalSink::new(NoopSink, 10);
        assert!(sink.take_batch(0).is_none());
        assert_eq!(sink.next_seq(), 10);
    }

    #[test]
    fn verify_batch_flags_divergence() {
        let mut sink = JournalSink::new(NoopSink, 0);
        sink.op_begin(PrimKind::Car);
        sink.record(Event::LptHit);
        sink.op_end(OpClass::AccessHit);
        let good = sink.take_batch(0).unwrap();
        assert!(verify_batch(&good, &good).is_ok());
        let mut bad = good.clone();
        bad.records[0].digest ^= 1;
        assert!(matches!(
            verify_batch(&good, &bad),
            Err(PersistError::ReplayDivergence { seq: 0, .. })
        ));
        let mut short = good.clone();
        short.records.clear();
        assert!(verify_batch(&good, &short).is_err());
    }

    #[test]
    fn crash_store_kills_and_tears_as_planned() {
        let frame = encode_frame(&JournalBatch {
            event_index: 0,
            records: vec![JournalRecord {
                seq: 0,
                prim: 0,
                class: 0,
                digest: 1,
            }],
        });
        // Clean kill: the fatal frame leaves nothing behind.
        let mut store = CrashStore::with_plan(CrashPlan {
            kill_at_append: 2,
            torn_keep: None,
        });
        store.append_journal(&frame).unwrap();
        assert_eq!(
            store.append_journal(&frame),
            Err(PersistError::Crash { appends: 2 })
        );
        assert_eq!(store.journal().len(), frame.len());
        let (batches, valid) = scan_journal(store.journal()).unwrap();
        assert_eq!((batches.len(), valid), (1, frame.len()));

        // Torn kill: a prefix of the fatal frame is durable and scans
        // as a torn tail, not corruption.
        let mut store = CrashStore::with_plan(CrashPlan {
            kill_at_append: 1,
            torn_keep: Some(frame.len() - 3),
        });
        assert!(store.append_journal(&frame).is_err());
        let (batches, valid) = scan_journal(store.journal()).unwrap();
        assert_eq!((batches.len(), valid), (0, 0));
        store.truncate_journal(valid);
        assert!(store.journal().is_empty());

        // Disarmed, the same store survives the append and rotation
        // empties the journal atomically.
        store.disarm();
        store.append_journal(&frame).unwrap();
        store.rotate(vec![1, 2, 3]);
        assert!(store.journal().is_empty());
        assert_eq!(store.checkpoint(), Some(&[1u8, 2, 3][..]));
    }
}
