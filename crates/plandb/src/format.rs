//! The single-file container and its readers.
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header (40 B): magic "CMPDB\x01\0\0" · version u32 ·         │
//! │   max_axis u32 · record count u64 · index offset u64 ·       │
//! │   reserved u64                                               │
//! ├──────────────────────────────────────────────────────────────┤
//! │ frames, one per record, in canonical key order:              │
//! │   payload len u32 · crc32(payload) u32 · payload             │
//! ├──────────────────────────────────────────────────────────────┤
//! │ index, one entry per record, same order:                     │
//! │   rank u8 · rank × extent u32 · frame offset u64 ·           │
//! │   frame len u32                                              │
//! ├──────────────────────────────────────────────────────────────┤
//! │ crc32(index bytes) u32                                       │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! All integers little-endian. The reader keeps only the index in
//! memory and serves [`PlanDb::get`] with one `pread` per hit — no
//! mmap, no seeks, safe for concurrent readers over one handle.
//!
//! The checkpoint sibling format is the same framing without the index:
//! magic "CMPCK\x01\0\0", then frames appended chunk by chunk. A
//! checkpoint is *tolerant*: a torn tail (partial frame from an
//! interrupted build) loads as "everything before the tear".

use crate::crc::crc32;
use crate::record::PlanRecord;
use crate::{DbError, MAX_KEY_RANK};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;

/// Database file magic.
pub const DB_MAGIC: [u8; 8] = *b"CMPDB\x01\0\0";
/// Checkpoint file magic.
pub const CK_MAGIC: [u8; 8] = *b"CMPCK\x01\0\0";
/// Format version. Bumps whenever the record layout, the canonical plan
/// grammar, or the fingerprint hash changes.
pub const VERSION: u32 = 1;

const HEADER_BYTES: usize = 40;
/// A frame never exceeds payload bound + framing.
#[expect(
    clippy::cast_possible_truncation,
    reason = "MAX_PLAN_TEXT is 1 MiB, so the frame bound fits u32"
)]
const MAX_FRAME: u32 = (crate::record::MAX_PLAN_TEXT as u32) + (1 << 12);

fn frame_into(out: &mut Vec<u8>, payload: &[u8]) -> Result<(), DbError> {
    let payload_bytes = u32::try_from(payload.len()).map_err(|_| DbError::TooLarge {
        what: "frame payload",
        len: payload.len() as u64,
        max: u64::from(u32::MAX),
    })?;
    if payload_bytes > MAX_FRAME {
        return Err(DbError::TooLarge {
            what: "frame payload",
            len: u64::from(payload_bytes),
            max: u64::from(MAX_FRAME),
        });
    }
    out.extend_from_slice(&payload_bytes.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// Parse one frame starting at `at`; returns the payload slice and the
/// offset just past the frame.
fn parse_frame(bytes: &[u8], at: usize) -> Result<(&[u8], usize), DbError> {
    let corrupt = |what: String| DbError::Corrupt {
        offset: at as u64,
        what,
    };
    if at.checked_add(8).is_none_or(|h| h > bytes.len()) {
        return Err(corrupt("truncated frame header".to_owned()));
    }
    let payload_bytes =
        u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
    if payload_bytes > MAX_FRAME {
        return Err(corrupt(format!(
            "frame length {payload_bytes} exceeds {MAX_FRAME}"
        )));
    }
    let want = u32::from_le_bytes([bytes[at + 4], bytes[at + 5], bytes[at + 6], bytes[at + 7]]);
    let start = at + 8;
    let end = start.checked_add(payload_bytes as usize);
    match end {
        Some(end) if end <= bytes.len() => {
            let payload = &bytes[start..end];
            if crc32(payload) != want {
                return Err(corrupt("frame CRC mismatch".to_owned()));
            }
            Ok((payload, end))
        }
        _ => Err(corrupt("truncated frame payload".to_owned())),
    }
}

/// Serialize `records` (already in canonical key order) into the full
/// database byte image. Pure function of its inputs — the determinism
/// guarantee reduces to "same records in, same bytes out".
pub fn db_bytes(max_axis: u32, records: &[PlanRecord]) -> Result<Vec<u8>, DbError> {
    let mut frames = Vec::new();
    let mut index = Vec::new();
    let mut payload = Vec::new();
    for rec in records {
        payload.clear();
        rec.encode_into(&mut payload)?;
        let frame_at = (HEADER_BYTES + frames.len()) as u64;
        let before = frames.len();
        frame_into(&mut frames, &payload)?;
        let frame_bytes = u32::try_from(frames.len() - before).map_err(|_| DbError::TooLarge {
            what: "frame",
            len: (frames.len() - before) as u64,
            max: u64::from(u32::MAX),
        })?;
        index.push(u8::try_from(rec.key.len()).unwrap_or(u8::MAX));
        for &d in &rec.key {
            let extent = u32::try_from(d).map_err(|_| DbError::BadKey {
                reason: format!("extent {d} does not fit the wire format"),
            })?;
            index.extend_from_slice(&extent.to_le_bytes());
        }
        index.extend_from_slice(&frame_at.to_le_bytes());
        index.extend_from_slice(&frame_bytes.to_le_bytes());
    }
    let index_offset = (HEADER_BYTES + frames.len()) as u64;
    let mut out = Vec::with_capacity(HEADER_BYTES + frames.len() + index.len() + 4);
    out.extend_from_slice(&DB_MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&max_axis.to_le_bytes());
    out.extend_from_slice(&(records.len() as u64).to_le_bytes());
    out.extend_from_slice(&index_offset.to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes());
    out.extend_from_slice(&frames);
    out.extend_from_slice(&index);
    out.extend_from_slice(&crc32(&index).to_le_bytes());
    Ok(out)
}

/// An open plan database: in-memory shape-keyed index over an on-disk
/// record heap, one `pread` per lookup.
pub struct PlanDb {
    file: File,
    index: HashMap<Vec<usize>, (u64, u32)>,
    max_axis: u32,
}

impl PlanDb {
    /// Open and validate a database file: magic, version, index CRC and
    /// every index entry's bounds are checked up front; record payloads
    /// are CRC-checked lazily on [`get`](PlanDb::get).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the index size is bounded by the file length, which fits usize on the 64-bit targets the database is built for"
    )]
    pub fn open(path: &Path) -> Result<PlanDb, DbError> {
        let _span = cubemesh_obs::span!("plandb.open");
        let mut file = File::open(path)?;
        let mut header = [0u8; HEADER_BYTES];
        file.read_exact(&mut header).map_err(|_| DbError::Corrupt {
            offset: 0,
            what: "file shorter than the header".to_owned(),
        })?;
        if header[..8] != DB_MAGIC {
            let mut found = [0u8; 8];
            found.copy_from_slice(&header[..8]);
            return Err(DbError::BadMagic { found });
        }
        let version = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        if version != VERSION {
            return Err(DbError::BadVersion { found: version });
        }
        let max_axis = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
        let count = u64::from_le_bytes([
            header[16], header[17], header[18], header[19], header[20], header[21], header[22],
            header[23],
        ]);
        let index_offset = u64::from_le_bytes([
            header[24], header[25], header[26], header[27], header[28], header[29], header[30],
            header[31],
        ]);
        let file_bytes = file.metadata()?.len();
        if index_offset < HEADER_BYTES as u64 || index_offset.saturating_add(4) > file_bytes {
            return Err(DbError::Corrupt {
                offset: 24,
                what: format!("index offset {index_offset} outside file of {file_bytes} bytes"),
            });
        }
        let index_size = file_bytes - index_offset;
        let mut tail = vec![0u8; index_size as usize];
        file.read_exact_at(&mut tail, index_offset)?;
        let (raw, crc_bytes) = tail.split_at(tail.len() - 4);
        let want = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
        if crc32(raw) != want {
            return Err(DbError::Corrupt {
                offset: index_offset,
                what: "index CRC mismatch".to_owned(),
            });
        }
        let index = parse_index(raw, count, index_offset, file_bytes)?;
        cubemesh_obs::counter!("plandb.open").inc();
        Ok(PlanDb {
            file,
            index,
            max_axis,
        })
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the database holds no records.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The census extent bound the builder swept (`max_axis` from
    /// [`crate::BuildConfig`]).
    pub fn max_axis(&self) -> u32 {
        self.max_axis
    }

    /// Whether a canonical key is present, without touching the disk.
    pub fn contains(&self, dims: &[usize]) -> bool {
        crate::validate_key(dims)
            .map(|key| self.index.contains_key(&key))
            .unwrap_or(false)
    }

    /// Look up a shape. The extents are canonicalized first, so axis
    /// order and unit axes do not matter. `Ok(None)` means the shape is
    /// outside the swept universe; corrupt frames are typed errors.
    pub fn get(&self, dims: &[usize]) -> Result<Option<PlanRecord>, DbError> {
        let key = crate::validate_key(dims)?;
        let Some(&(frame_at, frame_bytes)) = self.index.get(&key) else {
            cubemesh_obs::counter!("plandb.get.miss").inc();
            return Ok(None);
        };
        let mut frame = vec![0u8; frame_bytes as usize];
        self.file.read_exact_at(&mut frame, frame_at)?;
        let (payload, used) = parse_frame(&frame, 0).map_err(|e| shift_offset(e, frame_at))?;
        if used != frame.len() {
            return Err(DbError::Corrupt {
                offset: frame_at,
                what: "frame shorter than its index entry".to_owned(),
            });
        }
        let rec = PlanRecord::decode(payload).map_err(|e| shift_offset(e, frame_at + 8))?;
        if rec.key != key {
            return Err(DbError::Corrupt {
                offset: frame_at,
                what: format!("record key {:?} under index key {key:?}", rec.key),
            });
        }
        cubemesh_obs::counter!("plandb.get.hit").inc();
        Ok(Some(rec))
    }

    /// All keys, sorted — for sweeps and integrity checks.
    pub fn keys(&self) -> Vec<Vec<usize>> {
        let mut keys: Vec<Vec<usize>> = self.index.keys().cloned().collect();
        keys.sort();
        keys
    }
}

fn shift_offset(e: DbError, by: u64) -> DbError {
    match e {
        DbError::Corrupt { offset, what } => DbError::Corrupt {
            offset: offset.saturating_add(by),
            what,
        },
        other => other,
    }
}

fn parse_index(
    raw: &[u8],
    count: u64,
    index_offset: u64,
    file_bytes: u64,
) -> Result<HashMap<Vec<usize>, (u64, u32)>, DbError> {
    let corrupt = |at: usize, what: String| DbError::Corrupt {
        offset: index_offset + at as u64,
        what,
    };
    let mut index = HashMap::new();
    let mut at = 0usize;
    for _ in 0..count {
        if at >= raw.len() {
            return Err(corrupt(
                at,
                "index shorter than its record count".to_owned(),
            ));
        }
        let rank = usize::from(raw[at]);
        if rank == 0 || rank > MAX_KEY_RANK {
            return Err(corrupt(at, format!("index key rank {rank}")));
        }
        let entry_bytes = 1 + 4 * rank + 8 + 4;
        let end = at.checked_add(entry_bytes);
        let Some(end) = end.filter(|&e| e <= raw.len()) else {
            return Err(corrupt(at, "truncated index entry".to_owned()));
        };
        let mut key = Vec::with_capacity(rank);
        let mut p = at + 1;
        for _ in 0..rank {
            key.push(u32::from_le_bytes([raw[p], raw[p + 1], raw[p + 2], raw[p + 3]]) as usize);
            p += 4;
        }
        let frame_at = u64::from_le_bytes([
            raw[p],
            raw[p + 1],
            raw[p + 2],
            raw[p + 3],
            raw[p + 4],
            raw[p + 5],
            raw[p + 6],
            raw[p + 7],
        ]);
        p += 8;
        let frame_bytes = u32::from_le_bytes([raw[p], raw[p + 1], raw[p + 2], raw[p + 3]]);
        if frame_at < HEADER_BYTES as u64
            || frame_at.saturating_add(u64::from(frame_bytes)) > index_offset
            || u64::from(frame_bytes) > u64::from(MAX_FRAME) + 8
        {
            return Err(corrupt(
                at,
                format!("index entry points outside the record heap ({frame_at}+{frame_bytes}, file {file_bytes})"),
            ));
        }
        if index.insert(key, (frame_at, frame_bytes)).is_some() {
            return Err(corrupt(at, "duplicate index key".to_owned()));
        }
        at = end;
    }
    if at != raw.len() {
        return Err(corrupt(at, "trailing bytes after index".to_owned()));
    }
    Ok(index)
}

/// An append-only checkpoint log for the builder: records stream in as
/// CRC'd frames; a torn tail from an interrupted run is tolerated on
/// load.
pub struct Checkpoint {
    file: File,
    buf: Vec<u8>,
}

impl Checkpoint {
    /// Open `path` for appending, writing the checkpoint header if the
    /// file is new (or empty).
    pub fn append_to(path: &Path) -> Result<Checkpoint, DbError> {
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        if file.metadata()?.len() == 0 {
            let mut header = Vec::with_capacity(16);
            header.extend_from_slice(&CK_MAGIC);
            header.extend_from_slice(&VERSION.to_le_bytes());
            header.extend_from_slice(&0u32.to_le_bytes());
            file.write_all(&header)?;
            file.sync_data()?;
        }
        Ok(Checkpoint {
            file,
            buf: Vec::new(),
        })
    }

    /// Append `records` as one durable batch: buffered, written with a
    /// single `write_all`, then `fdatasync`'d — an interrupt tears at
    /// most the batch in flight.
    pub fn append(&mut self, records: &[PlanRecord]) -> Result<(), DbError> {
        self.buf.clear();
        let mut payload = Vec::new();
        for rec in records {
            payload.clear();
            rec.encode_into(&mut payload)?;
            frame_into(&mut self.buf, &payload)?;
        }
        self.file.write_all(&self.buf)?;
        self.file.sync_data()?;
        Ok(())
    }
}

/// Load every intact record from a checkpoint written by a previous
/// (possibly interrupted) build. Returns the records in append order;
/// a torn or corrupt tail ends the scan silently — those shapes are
/// simply re-planned. A missing file loads as empty.
pub fn load_checkpoint(path: &Path) -> Result<Vec<PlanRecord>, DbError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(DbError::Io(e)),
    };
    if bytes.len() < 16 {
        return Ok(Vec::new());
    }
    if bytes[..8] != CK_MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(&bytes[..8]);
        return Err(DbError::BadMagic { found });
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != VERSION {
        return Err(DbError::BadVersion { found: version });
    }
    let mut records = Vec::new();
    let mut at = 16usize;
    while at < bytes.len() {
        let Ok((payload, next)) = parse_frame(&bytes, at) else {
            // Torn tail from an interrupted append — keep what's intact.
            break;
        };
        match PlanRecord::decode(payload) {
            Ok(rec) => records.push(rec),
            Err(_) => break,
        }
        at = next;
    }
    Ok(records)
}
