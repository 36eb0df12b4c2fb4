//! The `[u32 len][u32 crc32][payload]` frame: the one header both the
//! write-ahead journal ([`crate::encode_frame`], [`crate::scan_journal`])
//! and the serving layer's replication WAL put around a payload.
//!
//! [`encode`] writes a payload behind a reserved header and then seals
//! the header in place. [`scan`] walks concatenated frames and decodes
//! each payload. What a torn tail means is the caller's policy: the
//! journal drops it (the machine crashed mid-append and replay
//! regenerates those operations), while the WAL uses [`scan_whole`],
//! because its batches arrive whole over TCP and a short one is damage.

use crate::{crc32, ByteWriter};

/// Header bytes before each payload: the `u32` payload length, then the
/// `u32` CRC-32 of the payload, both little-endian.
pub const HEADER: usize = 8;

/// A frame the scanner rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameError {
    /// Byte offset of the frame within the scanned input.
    pub offset: usize,
    /// What failed.
    pub reason: &'static str,
}

/// Encode one frame whose payload `write` appends. `capacity` is the
/// payload size the caller expects, so the frame is built in one
/// allocation with no copy.
pub fn encode(capacity: usize, write: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER + capacity);
    encode_into(&mut frame, write);
    frame
}

/// Append one frame whose payload `write` appends to `out`, which may
/// already hold other frames.
pub fn encode_into(out: &mut Vec<u8>, write: impl FnOnce(&mut ByteWriter)) {
    let start = out.len();
    let mut w = ByteWriter {
        buf: std::mem::take(out),
    };
    w.put_u64(0); // the header, sealed once the payload is known
    write(&mut w);
    *out = w.finish();
    let payload = &out[start + HEADER..];
    let len = u32::try_from(payload.len()).expect("frame payload exceeds u32::MAX bytes");
    let crc = crc32(payload);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + HEADER].copy_from_slice(&crc.to_le_bytes());
}

/// Walk the frames concatenated in `bytes`, decoding each payload with
/// `decode`.
///
/// Returns the decoded frames and the length of the prefix they cover.
/// The scan stops at a torn tail — fewer than [`HEADER`] bytes left, or
/// a length field running past the end of the input — so the prefix is
/// shorter than `bytes` exactly when the tail is torn. A complete frame
/// whose CRC fails, or whose payload `decode` rejects, is an error at
/// that frame's offset.
pub fn scan<'a, T>(
    bytes: &'a [u8],
    mut decode: impl FnMut(&'a [u8]) -> Result<T, &'static str>,
) -> Result<(Vec<T>, usize), FrameError> {
    let mut frames = Vec::new();
    let mut at = 0;
    while bytes.len() - at >= HEADER {
        let word =
            |i: usize| u32::from_le_bytes([bytes[i], bytes[i + 1], bytes[i + 2], bytes[i + 3]]);
        let (len, want_crc) = (word(at) as usize, word(at + 4));
        let Some(payload) = bytes[at + HEADER..].get(..len) else {
            break;
        };
        if crc32(payload) != want_crc {
            return Err(FrameError {
                offset: at,
                reason: "crc mismatch",
            });
        }
        frames.push(decode(payload).map_err(|reason| FrameError { offset: at, reason })?);
        at += HEADER + len;
    }
    Ok((frames, at))
}

/// [`scan`] for a transport that never tears: a torn tail is an error
/// too, at the offset where it starts.
pub fn scan_whole<'a, T>(
    bytes: &'a [u8],
    decode: impl FnMut(&'a [u8]) -> Result<T, &'static str>,
) -> Result<Vec<T>, FrameError> {
    let (frames, valid) = scan(bytes, decode)?;
    match bytes.len() - valid {
        0 => Ok(frames),
        rest => Err(FrameError {
            offset: valid,
            reason: if rest < HEADER {
                "torn header"
            } else {
                "torn payload"
            },
        }),
    }
}
