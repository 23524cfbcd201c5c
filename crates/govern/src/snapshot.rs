//! Durable checkpoint snapshots: a zero-dependency, versioned,
//! CRC-checksummed codec plus the atomic writer and write policy that
//! persist resumable miner state at the clean stage boundaries DESIGN.md
//! §9.2 defines.
//!
//! The format is deliberately dumb: a fixed magic, a format version, the
//! algorithm id, a fingerprint of the relation the state was mined from,
//! the algorithm configuration, an opaque payload each miner encodes for
//! itself, and a CRC-32 trailer over everything before it. Every decode
//! failure carries the byte offset it was detected at, so a torn write
//! or flipped bit is refused with a *positioned* diagnostic instead of
//! being silently mined into a wrong cover (DESIGN.md §12).
//!
//! Files reach disk only through [`atomic_write`]: payload to a `.tmp`
//! sibling, `fsync`, then `rename` — a reader never observes a
//! half-written frame under POSIX rename semantics. The `faults` feature
//! can corrupt that path deterministically (torn writes, bit flips) to
//! prove the reader refuses what a real crash could leave behind. The
//! xtask rule `raw-snapshot-write` keeps every other write out of the
//! snapshot zone.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Magic bytes opening every snapshot frame.
pub const MAGIC: [u8; 8] = *b"DMSNAP01";

/// Version of the frame layout itself. Bump on any layout change; the
/// decoder refuses other versions with [`SnapshotError::VersionSkew`].
pub const FORMAT_VERSION: u16 = 1;

/// Fixed frame overhead: magic + version + algo-len, before any
/// variable-length field.
const HEADER_MIN: usize = 8 + 2 + 2;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a snapshot could not be decoded or validated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file could not be read or written at the OS level.
    Io(String),
    /// The frame is structurally bad — torn, truncated, bit-flipped, or
    /// not a snapshot at all. `at` is the byte offset where the damage
    /// was detected.
    Corrupt {
        /// Byte offset the decoder was at when it refused the frame.
        at: u64,
        /// What was wrong there.
        what: String,
    },
    /// The frame is well-formed but written by a different format
    /// version of this codec.
    VersionSkew {
        /// Version found in the frame.
        found: u16,
        /// Version this binary understands.
        expected: u16,
    },
    /// The frame is intact but does not belong to this run: wrong
    /// algorithm, wrong relation fingerprint, or wrong configuration.
    Mismatch {
        /// Human-readable description of the disagreement.
        what: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::Corrupt { at, what } => {
                write!(f, "snapshot corrupt at byte {at}: {what}")
            }
            SnapshotError::VersionSkew { found, expected } => write!(
                f,
                "snapshot version skew: frame is v{found}, this binary reads v{expected}"
            ),
            SnapshotError::Mismatch { what } => {
                write!(f, "snapshot does not match this run: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e.to_string())
    }
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected) — in-tree, no external crates.
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes` — the checksum in every frame trailer.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Encoder / decoder primitives
// ---------------------------------------------------------------------

/// Little-endian byte encoder the miners build snapshot payloads with.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// The encoded bytes so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u128`, little-endian.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64` (portable across word sizes).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append an `f64` by its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed byte string (u64 length).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// A positioned decode failure from [`Dec`]. Converts into
/// [`SnapshotError::Corrupt`] preserving the offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset the decoder was at.
    pub at: usize,
    /// What was expected there.
    pub what: String,
}

impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> Self {
        SnapshotError::Corrupt {
            at: e.at as u64,
            what: e.what,
        }
    }
}

/// Little-endian cursor decoder; every failure carries its byte offset.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Offset of `buf[0]` within the enclosing frame, so payload decode
    /// errors report frame-absolute positions.
    base: usize,
}

impl<'a> Dec<'a> {
    /// Decode from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec {
            buf,
            pos: 0,
            base: 0,
        }
    }

    /// Decode from `buf`, reporting positions offset by `base` (used for
    /// payload sections inside a larger frame).
    pub fn with_base(buf: &'a [u8], base: usize) -> Self {
        Dec { buf, pos: 0, base }
    }

    /// Current frame-absolute position.
    pub fn pos(&self) -> usize {
        self.base + self.pos
    }

    /// Bytes left unread.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn err(&self, what: impl Into<String>) -> DecodeError {
        DecodeError {
            at: self.pos(),
            what: what.into(),
        }
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(self.err(format!("need {n} bytes, only {} remain", self.remaining())));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Take one byte.
    pub fn take_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Take a bool; refuses bytes other than 0/1.
    pub fn take_bool(&mut self) -> Result<bool, DecodeError> {
        let at = self.pos();
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DecodeError {
                at,
                what: format!("bool must be 0 or 1, found {b}"),
            }),
        }
    }

    /// Take a little-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Take a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Take a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Take a little-endian `u128`.
    pub fn take_u128(&mut self) -> Result<u128, DecodeError> {
        let b = self.take(16)?;
        let mut a = [0u8; 16];
        a.copy_from_slice(b);
        Ok(u128::from_le_bytes(a))
    }

    /// Take a `u64` and narrow it to `usize`, refusing overflow.
    pub fn take_usize(&mut self) -> Result<usize, DecodeError> {
        let at = self.pos();
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| DecodeError {
            at,
            what: format!("value {v} overflows usize"),
        })
    }

    /// Take an `f64` from its bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Take a length-prefixed byte string.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let at = self.pos();
        let len = self.take_u64()?;
        let len = usize::try_from(len).map_err(|_| DecodeError {
            at,
            what: format!("length {len} overflows usize"),
        })?;
        if self.remaining() < len {
            return Err(DecodeError {
                at,
                what: format!(
                    "length prefix {len} exceeds {} remaining bytes",
                    self.remaining()
                ),
            });
        }
        self.take(len)
    }

    /// Take a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<&'a str, DecodeError> {
        let at = self.pos();
        let b = self.take_bytes()?;
        std::str::from_utf8(b).map_err(|_| DecodeError {
            at,
            what: "string is not valid UTF-8".into(),
        })
    }

    /// Refuse trailing garbage: the decoder must have consumed
    /// everything.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(self.err(format!(
                "{} trailing bytes after the last field",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Frame
// ---------------------------------------------------------------------

/// One decoded snapshot frame. The `payload` is opaque here; each miner
/// encodes and decodes its own checkpoint inside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Algorithm id the state belongs to (`"depminer"`, `"tane"`,
    /// `"tane-approx"`).
    pub algo: String,
    /// Fingerprint of the relation the state was mined from
    /// (`relation::state::db_fingerprint`).
    pub schema_hash: u64,
    /// Encoded algorithm configuration; resume refuses a frame whose
    /// config differs from the live miner's.
    pub config: Vec<u8>,
    /// Miner-specific checkpoint state.
    pub payload: Vec<u8>,
}

impl Snapshot {
    /// Serialize the frame: magic, version, algo, schema hash, config,
    /// payload, CRC-32 trailer over everything before it.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.buf.extend_from_slice(&MAGIC);
        e.put_u16(FORMAT_VERSION);
        e.put_u16(self.algo.len() as u16);
        e.buf.extend_from_slice(self.algo.as_bytes());
        e.put_u64(self.schema_hash);
        e.put_u32(self.config.len() as u32);
        e.buf.extend_from_slice(&self.config);
        e.put_u64(self.payload.len() as u64);
        e.buf.extend_from_slice(&self.payload);
        let crc = crc32(&e.buf);
        e.put_u32(crc);
        e.into_bytes()
    }

    /// Parse and verify a frame. The CRC is checked before any field is
    /// trusted, so a torn write or bit flip anywhere in the frame is
    /// refused with the trailer's offset even when the damage happens to
    /// leave the header parseable.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < HEADER_MIN + 8 + 4 + 8 + 4 {
            return Err(SnapshotError::Corrupt {
                at: bytes.len() as u64,
                what: format!(
                    "frame is {} bytes, shorter than the minimum {}",
                    bytes.len(),
                    HEADER_MIN + 8 + 4 + 8 + 4
                ),
            });
        }
        let body_len = bytes.len() - 4;
        let stored = u32::from_le_bytes([
            bytes[body_len],
            bytes[body_len + 1],
            bytes[body_len + 2],
            bytes[body_len + 3],
        ]);
        let computed = crc32(&bytes[..body_len]);
        if stored != computed {
            return Err(SnapshotError::Corrupt {
                at: body_len as u64,
                what: format!(
                    "checksum mismatch: trailer says {stored:#010x}, frame hashes to {computed:#010x}"
                ),
            });
        }
        let mut d = Dec::new(&bytes[..body_len]);
        let magic = d.take(8).map_err(SnapshotError::from)?;
        if magic != MAGIC {
            return Err(SnapshotError::Corrupt {
                at: 0,
                what: "bad magic: not a depminer snapshot".into(),
            });
        }
        let version = d.take_u16().map_err(SnapshotError::from)?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::VersionSkew {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let algo_at = d.pos();
        let algo_len = d.take_u16().map_err(SnapshotError::from)? as usize;
        let algo = d.take(algo_len).map_err(SnapshotError::from)?;
        let algo = std::str::from_utf8(algo)
            .map_err(|_| SnapshotError::Corrupt {
                at: algo_at as u64,
                what: "algorithm id is not valid UTF-8".into(),
            })?
            .to_string();
        let schema_hash = d.take_u64().map_err(SnapshotError::from)?;
        let cfg_at = d.pos();
        let cfg_len = d.take_u32().map_err(SnapshotError::from)? as usize;
        if d.remaining() < cfg_len {
            return Err(SnapshotError::Corrupt {
                at: cfg_at as u64,
                what: format!(
                    "config length {cfg_len} exceeds {} remaining bytes",
                    d.remaining()
                ),
            });
        }
        let config = d.take(cfg_len).map_err(SnapshotError::from)?.to_vec();
        let payload = d.take_bytes().map_err(SnapshotError::from)?.to_vec();
        d.finish().map_err(SnapshotError::from)?;
        Ok(Snapshot {
            algo,
            schema_hash,
            config,
            payload,
        })
    }

    /// Refuse the frame unless it belongs to this run: same algorithm,
    /// same relation fingerprint, same configuration. Failures are loud
    /// and specific — resuming against the wrong input must never mine a
    /// wrong cover quietly.
    pub fn validate(
        &self,
        algo: &str,
        schema_hash: u64,
        config: &[u8],
    ) -> Result<(), SnapshotError> {
        if self.algo != algo {
            return Err(SnapshotError::Mismatch {
                what: format!(
                    "snapshot was written by algorithm `{}`, resume requested `{algo}`",
                    self.algo
                ),
            });
        }
        if self.schema_hash != schema_hash {
            return Err(SnapshotError::Mismatch {
                what: format!(
                    "relation fingerprint {:#018x} in the snapshot does not match the live relation's {:#018x} — the input changed since the checkpoint",
                    self.schema_hash, schema_hash
                ),
            });
        }
        if self.config != config {
            return Err(SnapshotError::Mismatch {
                what: "algorithm configuration differs from the one the snapshot was mined under"
                    .into(),
            });
        }
        Ok(())
    }
}

/// Read and decode a snapshot file.
pub fn read_snapshot(path: &Path) -> Result<Snapshot, SnapshotError> {
    let bytes = fs::read(path)?;
    Snapshot::decode(&bytes)
}

// ---------------------------------------------------------------------
// Atomic writer
// ---------------------------------------------------------------------

/// Write `bytes` to `path` atomically: `.tmp` sibling, `fsync`, rename.
/// This is the *only* sanctioned write path in the snapshot zone — the
/// xtask rule `raw-snapshot-write` flags anything else.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    {
        // lint: allow(raw-snapshot-write) — this *is* the atomic helper.
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    // lint: allow(raw-snapshot-write) — rename completing the helper.
    fs::rename(&tmp, path)?;
    // Best-effort directory fsync so the rename itself is durable.
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// How an injected fault mangles a frame on its way to disk. This is
/// the feature-independent mirror of the writer-targeting
/// `faults::FaultKind` variants, so the corrupted
/// writer (and its tests) exist without the `faults` feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteCorruption {
    /// Keep only the first `at_byte` bytes, then rename anyway — the
    /// worst case a crash between `write` and `fsync` leaves behind.
    Torn {
        /// Bytes of the frame that survive.
        at_byte: u64,
    },
    /// Flip one bit (offset wrapped to the frame length).
    BitFlip {
        /// Bit offset into the frame.
        offset: u64,
    },
}

/// Like [`atomic_write`], but the frame may first be mangled by an armed
/// writer-targeting fault. Only the chaos tests arm these; with
/// `corrupt == None` this is exactly [`atomic_write`].
pub fn atomic_write_corrupted(
    path: &Path,
    bytes: &[u8],
    corrupt: Option<WriteCorruption>,
) -> io::Result<()> {
    match corrupt {
        Some(WriteCorruption::Torn { at_byte }) => {
            let keep = (at_byte as usize).min(bytes.len());
            atomic_write(path, &bytes[..keep])
        }
        Some(WriteCorruption::BitFlip { offset }) => {
            let mut mangled = bytes.to_vec();
            if !mangled.is_empty() {
                let bit = (offset as usize) % (mangled.len() * 8);
                mangled[bit / 8] ^= 1 << (bit % 8);
            }
            atomic_write(path, &mangled)
        }
        None => atomic_write(path, bytes),
    }
}

// ---------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------

/// Budget counters carried across a resume so a resumed run's spend
/// accounting continues from where the tripped run stopped instead of
/// restarting from zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotState {
    /// Agree-set couples already charged before the trip.
    pub couples: u64,
    /// Lattice candidates already charged before the trip.
    pub candidates: u64,
}

struct PolicyInner {
    boundaries: u64,
    last_write: Option<Instant>,
    pending: Option<(String, Vec<u8>)>,
    pending_at: Option<Instant>,
    written: u64,
    last_error: Option<String>,
}

/// How stale the retained trip-flush state may grow before a lazy
/// boundary offer rebuilds it. Bounds the work a resume redoes after a
/// trip to ~this much wall time, while keeping armed-but-idle policies
/// nearly free: between refreshes a boundary costs one mutex lock and a
/// clock read, not a full checkpoint clone + encode.
const PENDING_REFRESH: Duration = Duration::from_millis(100);

/// When and where checkpoint snapshots reach disk.
///
/// Miners *offer* encoded state at every clean boundary; the policy
/// writes it when due (every N boundaries and/or every T elapsed) and
/// otherwise retains the latest offer, which a budget trip then flushes
/// — so on-trip persistence is unconditional while steady-state writes
/// are as cheap as the policy asks for.
pub struct SnapshotPolicy {
    dir: PathBuf,
    every_boundaries: Option<u64>,
    min_interval: Option<Duration>,
    inner: Mutex<PolicyInner>,
}

impl fmt::Debug for SnapshotPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotPolicy")
            .field("dir", &self.dir)
            .field("every_boundaries", &self.every_boundaries)
            .field("min_interval", &self.min_interval)
            .finish_non_exhaustive()
    }
}

impl SnapshotPolicy {
    /// Trip-only policy: nothing is written until a budget trips, then
    /// the state at the last clean boundary is persisted.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SnapshotPolicy {
            dir: dir.into(),
            every_boundaries: None,
            min_interval: None,
            inner: Mutex::new(PolicyInner {
                boundaries: 0,
                last_write: None,
                pending: None,
                pending_at: None,
                written: 0,
                last_error: None,
            }),
        }
    }

    /// Also write every `n` clean boundaries (levels, stages, rhs
    /// attributes — whatever the miner's boundary is). `n == 0` is
    /// treated as unset.
    pub fn every_boundaries(mut self, n: u64) -> Self {
        self.every_boundaries = if n == 0 { None } else { Some(n) };
        self
    }

    /// Also write when at least `d` has elapsed since the last write.
    pub fn every_interval(mut self, d: Duration) -> Self {
        self.min_interval = if d.is_zero() { None } else { Some(d) };
        self
    }

    /// Directory snapshots land in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Snapshot file for `algo` inside this policy's directory.
    pub fn path_for(&self, algo: &str) -> PathBuf {
        self.dir.join(format!("{algo}.snap"))
    }

    /// Snapshots actually written so far.
    pub fn written(&self) -> u64 {
        self.lock().written
    }

    /// The last write error, if any (writes are best-effort: a failed
    /// snapshot never fails the mine).
    pub fn last_error(&self) -> Option<String> {
        self.lock().last_error.clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PolicyInner> {
        self.inner
            .lock()
            .expect("snapshot policy mutex poisoned (no code unwinds while holding it)")
    }

    /// Offer a frame at a clean boundary: writes it if due, otherwise
    /// retains it as the pending state a trip would flush. Counts the
    /// boundary and invokes `make` — which builds and encodes the frame —
    /// only when the bytes are actually needed (a write is due, or the
    /// retained trip-flush state is absent or older than
    /// [`PENDING_REFRESH`]). An armed-but-idle policy thus charges the
    /// miner a mutex lock and a clock read per boundary instead of a
    /// full checkpoint clone + encode. Returns `true` when a file was
    /// written.
    pub(crate) fn offer_with<M, F>(&self, make: M, corrupt: F) -> bool
    where
        M: FnOnce() -> (String, Vec<u8>),
        F: FnOnce() -> Option<WriteCorruption>,
    {
        let mut g = self.lock();
        g.boundaries += 1;
        let due_count = self
            .every_boundaries
            .map_or(false, |n| g.boundaries % n == 0);
        let due_time = self
            .min_interval
            .map_or(false, |d| g.last_write.map_or(true, |t| t.elapsed() >= d));
        if due_count || due_time {
            let (algo, bytes) = make();
            self.write_locked(&mut g, &algo, &bytes, corrupt)
        } else {
            let refresh = g.pending.is_none()
                || g.pending_at
                    .map_or(true, |t| t.elapsed() >= PENDING_REFRESH);
            if refresh {
                let (algo, bytes) = make();
                g.pending = Some((algo, bytes));
                g.pending_at = Some(Instant::now());
            }
            false
        }
    }

    /// Write `bytes` for `algo` immediately, bypassing the due check
    /// (used for on-trip states built after the fact, e.g. per-attribute
    /// transversal progress known only once the fan-out returns).
    pub(crate) fn force<F>(&self, algo: &str, bytes: Vec<u8>, corrupt: F) -> bool
    where
        F: FnOnce() -> Option<WriteCorruption>,
    {
        let mut g = self.lock();
        let wrote = self.write_locked(&mut g, algo, &bytes, corrupt);
        g.pending = None;
        wrote
    }

    /// Flush the retained boundary state, if any — called when a budget
    /// trips. Returns `true` when a file was written.
    pub(crate) fn flush<F>(&self, corrupt: F) -> bool
    where
        F: FnOnce() -> Option<WriteCorruption>,
    {
        let mut g = self.lock();
        let Some((algo, bytes)) = g.pending.take() else {
            return false;
        };
        g.pending_at = None;
        self.write_locked(&mut g, &algo, &bytes, corrupt)
    }

    /// Drop pending state and delete any snapshot file for `algo` — a
    /// completed run leaves nothing to resume.
    pub(crate) fn discard(&self, algo: &str) {
        let mut g = self.lock();
        if g.pending.as_ref().is_some_and(|(a, _)| a == algo) {
            g.pending = None;
            g.pending_at = None;
        }
        let _ = fs::remove_file(self.path_for(algo));
    }

    fn write_locked<F>(&self, g: &mut PolicyInner, algo: &str, bytes: &[u8], corrupt: F) -> bool
    where
        F: FnOnce() -> Option<WriteCorruption>,
    {
        let path = self.path_for(algo);
        let res = atomic_write_corrupted(&path, bytes, corrupt());
        match res {
            Ok(()) => {
                g.written += 1;
                g.last_write = Some(Instant::now());
                g.pending = None;
                g.pending_at = None;
                true
            }
            Err(e) => {
                g.last_error = Some(format!("{}: {e}", path.display()));
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> Snapshot {
        Snapshot {
            algo: "tane".into(),
            schema_hash: 0xDEAD_BEEF_CAFE_F00D,
            config: vec![1, 0],
            payload: (0..64u8).collect(),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_round_trips() {
        let s = frame();
        let bytes = s.encode();
        assert_eq!(Snapshot::decode(&bytes).unwrap(), s);
    }

    #[test]
    fn every_truncation_is_refused() {
        let bytes = frame().encode();
        for cut in 0..bytes.len() {
            let err = Snapshot::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Corrupt { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_refused() {
        let bytes = frame().encode();
        for bit in 0..bytes.len() * 8 {
            let mut m = bytes.clone();
            m[bit / 8] ^= 1 << (bit % 8);
            let err = Snapshot::decode(&m).expect_err("flip must be refused");
            match err {
                SnapshotError::Corrupt { .. } => {}
                other => panic!("bit {bit}: unexpected {other}"),
            }
        }
    }

    #[test]
    fn version_skew_is_distinguished_from_corruption() {
        let mut bytes = frame().encode();
        // Patch the version field (offset 8..10) and re-seal the CRC so
        // the frame is intact but future-versioned.
        bytes[8] = 2;
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        match Snapshot::decode(&bytes).unwrap_err() {
            SnapshotError::VersionSkew { found, expected } => {
                assert_eq!(found, 2);
                assert_eq!(expected, FORMAT_VERSION);
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn validate_refuses_mismatches_loudly() {
        let s = frame();
        assert!(s.validate("tane", s.schema_hash, &s.config).is_ok());
        let e = s.validate("fdep", s.schema_hash, &s.config).unwrap_err();
        assert!(e.to_string().contains("algorithm"), "{e}");
        let e = s.validate("tane", 1, &s.config).unwrap_err();
        assert!(e.to_string().contains("fingerprint"), "{e}");
        let e = s.validate("tane", s.schema_hash, &[9]).unwrap_err();
        assert!(e.to_string().contains("configuration"), "{e}");
    }

    #[test]
    fn enc_dec_primitives_round_trip_with_positions() {
        let mut e = Enc::new();
        e.put_u8(7);
        e.put_bool(true);
        e.put_u16(300);
        e.put_u32(70_000);
        e.put_u64(1 << 40);
        e.put_u128(1 << 100);
        e.put_f64(0.25);
        e.put_usize(42);
        e.put_str("agree");
        e.put_bytes(&[1, 2, 3]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.take_u8().unwrap(), 7);
        assert!(d.take_bool().unwrap());
        assert_eq!(d.take_u16().unwrap(), 300);
        assert_eq!(d.take_u32().unwrap(), 70_000);
        assert_eq!(d.take_u64().unwrap(), 1 << 40);
        assert_eq!(d.take_u128().unwrap(), 1 << 100);
        assert_eq!(d.take_f64().unwrap(), 0.25);
        assert_eq!(d.take_usize().unwrap(), 42);
        assert_eq!(d.take_str().unwrap(), "agree");
        assert_eq!(d.take_bytes().unwrap(), &[1, 2, 3]);
        d.finish().unwrap();

        // Positions: reading past the end reports where.
        let mut d = Dec::new(&bytes);
        let _ = d.take(bytes.len()).unwrap();
        let err = d.take_u8().unwrap_err();
        assert_eq!(err.at, bytes.len());

        // Trailing garbage is positioned too.
        let mut with_tail = bytes.clone();
        with_tail.push(0);
        let mut d = Dec::new(&with_tail);
        let _ = d.take(bytes.len()).unwrap();
        assert_eq!(d.finish().unwrap_err().at, bytes.len());

        // Base offsets shift reported positions (payload-in-frame case).
        let d = Dec::with_base(&bytes[2..], 2);
        assert_eq!(d.pos(), 2);
    }

    #[test]
    fn atomic_write_round_trips_and_replaces() {
        let dir = std::env::temp_dir().join(format!("depminer-snap-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.snap");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        // No tmp residue.
        assert!(!tmp_path(&path).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn policy_retains_offers_and_flushes_on_demand() {
        let dir = std::env::temp_dir().join(format!("depminer-snap-policy-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let p = SnapshotPolicy::new(&dir).every_boundaries(2);
        let f1 = frame().encode();
        // Boundary 1: not due, retained.
        assert!(!p.offer_with(|| ("tane".to_string(), f1.clone()), || None));
        assert_eq!(p.written(), 0);
        // Boundary 2: due, written.
        assert!(p.offer_with(|| ("tane".to_string(), f1.clone()), || None));
        assert_eq!(p.written(), 1);
        assert!(p.path_for("tane").exists());
        // Boundary 3: retained; flush writes it.
        assert!(!p.offer_with(|| ("tane".to_string(), f1.clone()), || None));
        assert!(p.flush(|| None));
        assert_eq!(p.written(), 2);
        // Nothing pending → flush is a no-op.
        assert!(!p.flush(|| None));
        // Discard removes the file.
        p.discard("tane");
        assert!(!p.path_for("tane").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_writes_are_always_detected_by_decode() {
        let dir = std::env::temp_dir().join(format!("depminer-snap-fault-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let bytes = frame().encode();

        let torn = dir.join("torn.snap");
        atomic_write_corrupted(&torn, &bytes, Some(WriteCorruption::Torn { at_byte: 10 })).unwrap();
        assert!(matches!(
            read_snapshot(&torn).unwrap_err(),
            SnapshotError::Corrupt { .. }
        ));

        let flipped = dir.join("flip.snap");
        atomic_write_corrupted(
            &flipped,
            &bytes,
            Some(WriteCorruption::BitFlip { offset: 123 }),
        )
        .unwrap();
        assert!(matches!(
            read_snapshot(&flipped).unwrap_err(),
            SnapshotError::Corrupt { .. }
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
