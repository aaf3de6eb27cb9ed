//! A from-scratch implementation of the LZF compressed format.
//!
//! The format is a byte stream of control tokens:
//!
//! - `ctrl < 0x20`: a literal run of `ctrl + 1` bytes follows.
//! - otherwise: a back-reference. `len = ctrl >> 5`; if `len == 7` the next
//!   byte extends it (`len += next`). The low 5 bits of `ctrl` are the high
//!   bits of the offset, the following byte the low bits; the match starts
//!   `offset + 1` bytes back and copies `len + 2` bytes (possibly
//!   overlapping).
//!
//! The compressor uses the classic LZF 3-byte hash chain with a 2^14-entry
//! table; it bails out (returns `None`) when the output would not be smaller
//! than the input, letting callers fall back to raw storage.

use crate::CodecError;

const HLOG: usize = 14;
const HSIZE: usize = 1 << HLOG;
/// Maximum literal run encodable by one control byte.
const MAX_LIT: usize = 32;
/// Maximum back-reference length (`len + 2` with the extension byte).
const MAX_REF: usize = 264;
/// Maximum back-reference distance.
const MAX_OFF: usize = 1 << 13;

fn first3(data: &[u8], i: usize) -> u32 {
    ((data[i] as u32) << 16) | ((data[i + 1] as u32) << 8) | data[i + 2] as u32
}

fn hash(v: u32) -> usize {
    // The LibLZF "very fast" hash.
    let h = (v >> (24 - 16)) ^ v;
    ((h.wrapping_mul(5) >> (16 + 3 - HLOG as u32)) as usize) & (HSIZE - 1)
}

/// Compresses `input`, returning `None` if the result would not be strictly
/// smaller than the input (incompressible data).
///
/// # Examples
///
/// ```
/// use almanac_compress::lzf;
/// let data = b"abcabcabcabcabcabcabcabcabcabc".to_vec();
/// let packed = lzf::compress(&data).unwrap();
/// assert!(packed.len() < data.len());
/// assert_eq!(lzf::decompress(&packed, data.len()).unwrap(), data);
/// ```
pub fn compress(input: &[u8]) -> Option<Vec<u8>> {
    if input.len() < 4 {
        return None;
    }
    let mut table = [0usize; HSIZE];
    let mut out = Vec::with_capacity(input.len() - 1);
    let mut i = 0usize;
    let mut lit_start = 0usize;

    let flush_literals = |out: &mut Vec<u8>, lit: &[u8]| {
        let mut rest = lit;
        while !rest.is_empty() {
            let n = rest.len().min(MAX_LIT);
            out.push((n - 1) as u8);
            out.extend_from_slice(&rest[..n]);
            rest = &rest[n..];
        }
    };

    while i + 2 < input.len() {
        let v = first3(input, i);
        let slot = hash(v);
        let candidate = table[slot];
        table[slot] = i + 1; // store i+1 so 0 means "empty"
        if candidate > 0 {
            let cand = candidate - 1;
            let dist = i - cand;
            if dist > 0 && dist <= MAX_OFF && first3(input, cand) == v {
                // Extend the match.
                let mut len = 3;
                let max_len = (input.len() - i).min(MAX_REF);
                while len < max_len && input[cand + len] == input[i + len] {
                    len += 1;
                }
                flush_literals(&mut out, &input[lit_start..i]);
                let off = dist - 1;
                let l = len - 2;
                if l < 7 {
                    out.push(((l as u8) << 5) | ((off >> 8) as u8));
                } else {
                    out.push((7u8 << 5) | ((off >> 8) as u8));
                    out.push((l - 7) as u8);
                }
                out.push((off & 0xff) as u8);
                if out.len() >= input.len() {
                    return None;
                }
                // Index the positions inside the match (standard LZF skips most
                // of them; indexing a couple improves the ratio slightly).
                let end = i + len;
                i += 1;
                while i < end && i + 2 < input.len() {
                    table[hash(first3(input, i))] = i + 1;
                    i += 1;
                }
                i = end;
                lit_start = i;
                continue;
            }
        }
        i += 1;
    }
    flush_literals(&mut out, &input[lit_start..]);
    if out.len() < input.len() {
        Some(out)
    } else {
        None
    }
}

/// Decompresses an LZF stream produced by [`compress`].
///
/// `expected_len` is the original input length; the function fails with
/// [`CodecError::LengthMismatch`] if the stream decodes to a different size.
pub fn decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(expected_len);
    let mut i = 0usize;
    while i < input.len() {
        let ctrl = input[i] as usize;
        i += 1;
        if ctrl < MAX_LIT {
            let n = ctrl + 1;
            if i + n > input.len() {
                return Err(CodecError::Corrupt("literal run past end of stream"));
            }
            out.extend_from_slice(&input[i..i + n]);
            i += n;
        } else {
            let mut len = ctrl >> 5;
            if len == 7 {
                if i >= input.len() {
                    return Err(CodecError::Corrupt("missing length extension byte"));
                }
                len += input[i] as usize;
                i += 1;
            }
            len += 2;
            if i >= input.len() {
                return Err(CodecError::Corrupt("missing offset byte"));
            }
            let off = ((ctrl & 0x1f) << 8) | input[i] as usize;
            i += 1;
            let dist = off + 1;
            if dist > out.len() {
                return Err(CodecError::Corrupt("back-reference before start"));
            }
            let start = out.len() - dist;
            if dist == 1 {
                // A run of one byte.
                let b = out[start];
                out.resize(out.len() + len, b);
            } else {
                // Everything from `start` on repeats with period `dist`, so
                // each pass may copy all of it: one pass when the match
                // does not overlap itself (`dist >= len`), otherwise whole
                // periods, doubling per pass.
                let end = out.len() + len;
                while out.len() < end {
                    let n = (end - out.len()).min(out.len() - start);
                    out.extend_from_within(start..start + n);
                }
            }
        }
    }
    if out.len() != expected_len {
        return Err(CodecError::LengthMismatch {
            expected: expected_len,
            actual: out.len(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The byte-at-a-time decoder `decompress` replaced, kept as the
    /// reference its run copies must match exactly, errors included.
    fn decompress_bytewise(input: &[u8], expected_len: usize) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::with_capacity(expected_len);
        let mut i = 0usize;
        while i < input.len() {
            let ctrl = input[i] as usize;
            i += 1;
            if ctrl < MAX_LIT {
                let n = ctrl + 1;
                if i + n > input.len() {
                    return Err(CodecError::Corrupt("literal run past end of stream"));
                }
                out.extend_from_slice(&input[i..i + n]);
                i += n;
            } else {
                let mut len = ctrl >> 5;
                if len == 7 {
                    if i >= input.len() {
                        return Err(CodecError::Corrupt("missing length extension byte"));
                    }
                    len += input[i] as usize;
                    i += 1;
                }
                len += 2;
                if i >= input.len() {
                    return Err(CodecError::Corrupt("missing offset byte"));
                }
                let off = ((ctrl & 0x1f) << 8) | input[i] as usize;
                i += 1;
                let dist = off + 1;
                if dist > out.len() {
                    return Err(CodecError::Corrupt("back-reference before start"));
                }
                let start = out.len() - dist;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
        if out.len() != expected_len {
            return Err(CodecError::LengthMismatch {
                expected: expected_len,
                actual: out.len(),
            });
        }
        Ok(out)
    }

    /// Both decoders agree on `stream` at its true output length (if it
    /// has one) and at a few wrong ones; returns the decoded length.
    fn assert_same_decode(stream: &[u8]) -> Option<usize> {
        let decoded = match decompress_bytewise(stream, 0) {
            Ok(_) => Some(0),
            Err(CodecError::LengthMismatch { actual, .. }) => Some(actual),
            Err(CodecError::Corrupt(_)) => None,
        };
        let n = decoded.unwrap_or(0);
        for expected in [n, n.saturating_sub(1), n + 1, 0, 4096] {
            assert_eq!(
                decompress(stream, expected),
                decompress_bytewise(stream, expected),
                "stream {stream:?}, expected length {expected}"
            );
        }
        decoded
    }

    /// Literal tokens carrying `bytes`.
    fn literal(bytes: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        for chunk in bytes.chunks(MAX_LIT) {
            out.push((chunk.len() - 1) as u8);
            out.extend_from_slice(chunk);
        }
        out
    }

    /// One back-reference token copying `len` bytes from `dist` back (a
    /// 2-byte match would encode as a literal control byte).
    fn backref(len: usize, dist: usize) -> Vec<u8> {
        assert!((3..=MAX_REF).contains(&len) && (1..=MAX_OFF).contains(&dist));
        let (l, off) = (len - 2, dist - 1);
        if l < 7 {
            vec![((l as u8) << 5) | (off >> 8) as u8, off as u8]
        } else {
            vec![(7u8 << 5) | (off >> 8) as u8, (l - 7) as u8, off as u8]
        }
    }

    fn random_bytes(rng: &mut StdRng, n: usize) -> Vec<u8> {
        let mut v = vec![0u8; n];
        rng.fill(&mut v);
        v
    }

    #[test]
    fn run_copies_match_bytewise_at_every_overlap() {
        let mut rng = StdRng::seed_from_u64(7);
        for len in [3, 4, 8, 9, 10, 31, 64, 100, 263, MAX_REF] {
            for dist in [1, 2, 3, len - 1, len, len + 1, MAX_OFF] {
                if dist == 0 || dist > MAX_OFF {
                    continue;
                }
                for prefix in [dist, dist + 5, dist - 1] {
                    let mut stream = literal(&random_bytes(&mut rng, prefix));
                    stream.extend(backref(len, dist));
                    // A second reference over the first one's output.
                    stream.extend(backref(len.max(4) - 1, dist));
                    let decoded = assert_same_decode(&stream);
                    assert_eq!(decoded.is_some(), prefix >= dist, "len {len} dist {dist}");
                }
            }
        }
    }

    #[test]
    fn max_length_references_match_bytewise() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut stream = literal(&random_bytes(&mut rng, 300));
        for dist in [1, 2, 3, 7, 263, 264, 265, 300] {
            stream.extend(backref(MAX_REF, dist));
        }
        let n = assert_same_decode(&stream).expect("valid stream");
        assert_eq!(n, 300 + 8 * MAX_REF);
    }

    #[test]
    fn random_token_streams_match_bytewise() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..2_000 {
            let mut stream = Vec::new();
            let mut produced = 0usize;
            for _ in 0..rng.gen_range(1..24usize) {
                if produced == 0 || rng.gen_bool(0.3) {
                    let n = rng.gen_range(1..80usize);
                    stream.extend(literal(&random_bytes(&mut rng, n)));
                    produced += n;
                } else {
                    let len = rng.gen_range(3..=MAX_REF);
                    // Mostly valid distances, sometimes one past the start.
                    let dist = match rng.gen_range(0..4u32) {
                        0 => 1,
                        1 => rng.gen_range(1..=len.min(produced)),
                        2 => rng.gen_range(1..=produced.min(MAX_OFF)),
                        _ => (produced + 1).min(MAX_OFF),
                    };
                    stream.extend(backref(len, dist));
                    produced += len;
                }
            }
            assert_same_decode(&stream);
        }
    }

    #[test]
    fn random_and_corrupt_streams_match_bytewise() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..2_000 {
            let n = rng.gen_range(0..300usize);
            assert_same_decode(&random_bytes(&mut rng, n));
        }
        // Real compressed pages: every truncation and one flipped byte at
        // every position.
        let mut page: Vec<u8> = (0..4096).map(|i| (i / 97) as u8).collect();
        for k in 0..40 {
            page[k * 101] ^= 0x5a;
        }
        let packed = compress(&page).unwrap();
        assert_eq!(assert_same_decode(&packed), Some(page.len()));
        for cut in 0..packed.len() {
            assert_same_decode(&packed[..cut]);
        }
        for at in 0..packed.len() {
            let mut bad = packed.clone();
            bad[at] ^= 1 << rng.gen_range(0..8u32);
            assert_same_decode(&bad);
        }
    }

    fn roundtrip(data: &[u8]) {
        // Incompressible input (`None`) is a valid outcome.
        if let Some(packed) = compress(data) {
            assert!(packed.len() < data.len());
            assert_eq!(decompress(&packed, data.len()).unwrap(), data);
        }
    }

    #[test]
    fn compresses_repetitive_data() {
        let data = vec![42u8; 4096];
        let packed = compress(&data).unwrap();
        assert!(packed.len() < 64);
        assert_eq!(decompress(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn compresses_text() {
        let data = b"the quick brown fox jumps over the lazy dog. \
                     the quick brown fox jumps over the lazy dog. \
                     the quick brown fox jumps over the lazy dog."
            .to_vec();
        roundtrip(&data);
        assert!(compress(&data).is_some());
    }

    #[test]
    fn rejects_tiny_input() {
        assert!(compress(b"abc").is_none());
        assert!(compress(b"").is_none());
    }

    #[test]
    fn incompressible_returns_none() {
        // A pseudo-random sequence with no 3-byte repeats in range.
        let mut data = Vec::with_capacity(1024);
        let mut x: u32 = 0x12345678;
        for _ in 0..1024 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            data.push((x >> 24) as u8);
        }
        // It may compress marginally or not at all; roundtrip must hold either way.
        roundtrip(&data);
    }

    #[test]
    fn long_matches_use_extension_byte() {
        let mut data = vec![1u8, 2, 3, 4, 5, 6, 7, 8];
        for _ in 0..64 {
            data.extend_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        }
        let packed = compress(&data).unwrap();
        assert_eq!(decompress(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn overlapping_copy_decodes() {
        // RLE-style: one literal + long overlapping match.
        let data = vec![9u8; 300];
        let packed = compress(&data).unwrap();
        assert_eq!(decompress(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn corrupt_stream_detected() {
        let data = vec![42u8; 256];
        let mut packed = compress(&data).unwrap();
        packed.truncate(packed.len() - 1);
        assert!(decompress(&packed, data.len()).is_err());
    }

    #[test]
    fn wrong_expected_length_detected() {
        let data = vec![42u8; 256];
        let packed = compress(&data).unwrap();
        assert!(matches!(
            decompress(&packed, 255),
            Err(CodecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn zero_page_compresses_to_almost_nothing() {
        let data = vec![0u8; 4096];
        let packed = compress(&data).unwrap();
        assert!(packed.len() < 64, "zero page packed to {}", packed.len());
    }
}
