//! On-disk record format: length-prefixed, CRC-guarded, LSN-stamped.
//!
//! Every record is laid out as
//!
//! ```text
//! [len: u32 LE]  — payload length in bytes
//! [crc: u32 LE]  — CRC-32 (IEEE) of the payload
//! payload:
//!   [kind: u8]        — 1 = commit, the only kind
//!   [lsn:  u64 LE]    — strictly increasing across the whole log
//!   [txn:  u32 LE]
//!   [n_shards: u32 LE] then n_shards × [shard: u32 LE]
//!   [n_writes: u32 LE] then n_writes × [entity: u32 LE][value: i64 LE]
//! ```
//!
//! The length prefix bounds the read, the CRC convicts torn or
//! bit-rotted payloads, and the embedded LSN lets recovery reject
//! stale bytes that a recycled offset could otherwise resurrect: a
//! valid log is a strictly-LSN-increasing sequence of records, and the
//! scan stops (and truncates) at the first violation. Any other kind,
//! the retired abort kind 2 included, is corruption.

use deltx_model::{EntityId, TxnId};
use deltx_storage::Value;

/// Largest payload the decoder will accept. A record is one
/// transaction's writeset; anything past this is corruption, not data.
const MAX_PAYLOAD: usize = 1 << 24;

const KIND_COMMIT: u8 = 1;

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
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
};

/// CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// One decoded commit record: the transaction's full writeset plus the
/// shard span it touched, enough to rebuild the store values and the
/// conflict-graph residency on replay. The recovery scan hands these
/// out in LSN order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitRecord {
    /// Log sequence number.
    pub lsn: u64,
    /// The committed transaction.
    pub txn: TxnId,
    /// The writeset with installed values, in install order.
    pub writes: Vec<(EntityId, Value)>,
    /// Shard indices the transaction touched (reads included).
    pub shards: Vec<u32>,
}

/// Why a scan stopped before the end of the buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than a complete record: a torn tail.
    Torn,
    /// The CRC did not match the payload.
    BadCrc,
    /// The length prefix or payload structure is impossible.
    Corrupt,
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(b: &[u8], off: &mut usize) -> Option<u32> {
    let v = u32::from_le_bytes(b.get(*off..*off + 4)?.try_into().ok()?);
    *off += 4;
    Some(v)
}

fn get_u64(b: &[u8], off: &mut usize) -> Option<u64> {
    let v = u64::from_le_bytes(b.get(*off..*off + 8)?.try_into().ok()?);
    *off += 8;
    Some(v)
}

fn get_i64(b: &[u8], off: &mut usize) -> Option<i64> {
    let v = i64::from_le_bytes(b.get(*off..*off + 8)?.try_into().ok()?);
    *off += 8;
    Some(v)
}

/// Encodes a commit record (header + payload) into a fresh buffer.
pub fn encode_commit(
    lsn: u64,
    txn: TxnId,
    writes: &[(EntityId, Value)],
    shards: &[u32],
) -> Vec<u8> {
    let mut payload = Vec::with_capacity(17 + 4 * shards.len() + 12 * writes.len() + 8);
    payload.push(KIND_COMMIT);
    put_u64(&mut payload, lsn);
    put_u32(&mut payload, txn.0);
    put_u32(&mut payload, shards.len() as u32);
    for &s in shards {
        put_u32(&mut payload, s);
    }
    put_u32(&mut payload, writes.len() as u32);
    for &(x, v) in writes {
        put_u32(&mut payload, x.0);
        payload.extend_from_slice(&v.to_le_bytes());
    }
    frame(payload)
}

fn frame(payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    out
}

/// Decodes the record at the start of `buf`.
///
/// Returns `Ok(None)` on an empty buffer (clean end of segment),
/// `Ok(Some((record, consumed)))` on success, and a [`DecodeError`]
/// when the bytes cannot be a complete, intact record — the caller
/// truncates the log there.
pub fn decode(buf: &[u8]) -> Result<Option<(CommitRecord, usize)>, DecodeError> {
    if buf.is_empty() {
        return Ok(None);
    }
    if buf.len() < 8 {
        return Err(DecodeError::Torn);
    }
    let mut off = 0;
    let len = get_u32(buf, &mut off).expect("checked") as usize;
    let crc = get_u32(buf, &mut off).expect("checked");
    if len == 0 || len > MAX_PAYLOAD {
        return Err(DecodeError::Corrupt);
    }
    let Some(payload) = buf.get(8..8 + len) else {
        return Err(DecodeError::Torn);
    };
    if crc32(payload) != crc {
        return Err(DecodeError::BadCrc);
    }
    let rec = decode_payload(payload).ok_or(DecodeError::Corrupt)?;
    Ok(Some((rec, 8 + len)))
}

fn decode_payload(p: &[u8]) -> Option<CommitRecord> {
    if *p.first()? != KIND_COMMIT {
        return None;
    }
    let mut off = 1;
    let lsn = get_u64(p, &mut off)?;
    let txn = TxnId(get_u32(p, &mut off)?);
    let n_shards = get_u32(p, &mut off)? as usize;
    if n_shards > p.len() {
        return None;
    }
    let mut shards = Vec::with_capacity(n_shards);
    for _ in 0..n_shards {
        shards.push(get_u32(p, &mut off)?);
    }
    let n_writes = get_u32(p, &mut off)? as usize;
    if n_writes > p.len() {
        return None;
    }
    let mut writes = Vec::with_capacity(n_writes);
    for _ in 0..n_writes {
        let x = EntityId(get_u32(p, &mut off)?);
        let v = get_i64(p, &mut off)?;
        writes.push((x, v));
    }
    (off == p.len()).then_some(CommitRecord {
        lsn,
        txn,
        writes,
        shards,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn commit_roundtrip() {
        let writes = vec![(EntityId(3), -7i64), (EntityId(11), 42)];
        let bytes = encode_commit(9, TxnId(5), &writes, &[0, 2]);
        let (rec, consumed) = decode(&bytes).unwrap().unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(
            rec,
            CommitRecord {
                lsn: 9,
                txn: TxnId(5),
                writes,
                shards: vec![0, 2],
            }
        );
    }

    #[test]
    fn commit_sequence_decodes_to_a_clean_end() {
        let mut buf = encode_commit(1, TxnId(8), &[], &[3]);
        buf.extend(encode_commit(2, TxnId(9), &[(EntityId(0), 1)], &[0]));
        let (first, n) = decode(&buf).unwrap().unwrap();
        assert_eq!((first.lsn, first.txn), (1, TxnId(8)));
        assert!(first.writes.is_empty());
        let (second, m) = decode(&buf[n..]).unwrap().unwrap();
        assert_eq!((second.lsn, second.txn), (2, TxnId(9)));
        assert_eq!(n + m, buf.len());
        assert_eq!(decode(&buf[n + m..]).unwrap(), None, "clean end");
    }

    #[test]
    fn torn_and_corrupt_bytes_are_rejected() {
        let bytes = encode_commit(4, TxnId(1), &[(EntityId(2), 5)], &[1]);
        // Any strict prefix is torn.
        for cut in 1..bytes.len() {
            let e = decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(e, DecodeError::Torn | DecodeError::BadCrc),
                "prefix of {cut} bytes must not decode: {e:?}"
            );
        }
        // A flipped payload bit fails the CRC.
        let mut flipped = bytes.clone();
        *flipped.last_mut().unwrap() ^= 0x40;
        assert_eq!(decode(&flipped).unwrap_err(), DecodeError::BadCrc);
        // An absurd length prefix is corrupt, not a huge read.
        let mut huge = bytes;
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&huge).unwrap_err(), DecodeError::Corrupt);
        // The retired abort kind 2 (kind, lsn, txn) is no record at all.
        let mut abort = vec![2u8];
        put_u64(&mut abort, 1);
        put_u32(&mut abort, 8);
        assert_eq!(decode(&frame(abort)).unwrap_err(), DecodeError::Corrupt);
    }
}
