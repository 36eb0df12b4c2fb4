//! A byte-oriented LZ77 codec in the LZ4 block style, for logs whose
//! records repeat each other (the serving layer seals its replication
//! WAL into blocks of this codec).
//!
//! A compressed block is a run of sequences. Each sequence is a token
//! byte (high nibble: literal count, low nibble: match length − 4), the
//! literal count's extension bytes when the nibble is 15 (each byte
//! adds its value; a byte below 255 ends the run), the literals, then —
//! unless the input ends right after the literals — a little-endian
//! `u16` back-reference offset and the match length's extension bytes.
//!
//! [`compress`] is greedy: one hash probe per position, and a match is
//! taken as soon as the probed position repeats four bytes, anywhere in
//! the last 64 KiB. [`decompress`] trusts nothing in its input: every
//! length and offset is checked against the input and against the
//! output size the caller expects, and damage is an error, never a
//! panic or an allocation larger than that size.

/// The shortest match a sequence encodes.
const MIN_MATCH: usize = 4;
/// Farthest back a match may reach: the largest `u16` offset.
const MAX_OFFSET: usize = u16::MAX as usize;
/// log2 of the match-finder's hash table size.
const HASH_BITS: u32 = 12;

fn read4(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

fn hash(v: u32) -> usize {
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Compress `input`. [`decompress`] with `input.len()` as the expected
/// size returns it unchanged.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() + input.len() / 255 + 16);
    // The last position (plus one; zero is "none") whose four bytes
    // hashed to each slot.
    let mut table = [0u32; 1 << HASH_BITS];
    let (mut anchor, mut at) = (0, 0);
    while at + MIN_MATCH <= input.len() {
        let v = read4(input, at);
        let slot = &mut table[hash(v)];
        let cand = (*slot as usize).wrapping_sub(1);
        *slot = at as u32 + 1;
        if cand >= at || at - cand > MAX_OFFSET || read4(input, cand) != v {
            at += 1;
            continue;
        }
        let len = MIN_MATCH + common_prefix(&input[at + MIN_MATCH..], &input[cand + MIN_MATCH..]);
        put_sequence(&mut out, &input[anchor..at], Some((at - cand, len)));
        at += len;
        anchor = at;
    }
    if anchor < input.len() {
        put_sequence(&mut out, &input[anchor..], None);
    }
    out
}

/// How many leading bytes `a` and `b` share, compared eight at a time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut n = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let diff =
            u64::from_le_bytes(x.try_into().unwrap()) ^ u64::from_le_bytes(y.try_into().unwrap());
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    n + a[n..]
        .iter()
        .zip(&b[n..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// Append a length's extension bytes: 255s, then the remainder.
fn put_len(out: &mut Vec<u8>, mut n: usize) {
    while n >= 255 {
        out.push(255);
        n -= 255;
    }
    out.push(n as u8);
}

/// Append one sequence: `literals`, then the `(offset, length)` match
/// if there is one.
fn put_sequence(out: &mut Vec<u8>, literals: &[u8], m: Option<(usize, usize)>) {
    let extra = m.map_or(0, |(_, len)| len - MIN_MATCH);
    out.push(((literals.len().min(15) as u8) << 4) | extra.min(15) as u8);
    if literals.len() >= 15 {
        put_len(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    if let Some((offset, _)) = m {
        out.extend_from_slice(&(offset as u16).to_le_bytes());
        if extra >= 15 {
            put_len(out, extra - 15);
        }
    }
}

/// Read a length whose token nibble is `nibble`, with its extension
/// bytes when the nibble is 15.
fn get_len(input: &[u8], at: &mut usize, nibble: u8) -> Result<usize, &'static str> {
    let mut n = nibble as usize;
    if nibble == 15 {
        loop {
            let b = *input.get(*at).ok_or("truncated length")?;
            *at += 1;
            n += b as usize;
            if b != 255 {
                break;
            }
        }
    }
    Ok(n)
}

/// Decompress `input`, which must expand to exactly `raw_len` bytes.
/// `raw_len` comes from the caller, never from the input, and bounds
/// the one allocation made.
pub fn decompress(input: &[u8], raw_len: usize) -> Result<Vec<u8>, &'static str> {
    const LONG: &str = "output longer than expected";
    let mut out = Vec::with_capacity(raw_len);
    let mut at = 0;
    while at < input.len() {
        let token = input[at];
        at += 1;
        let lits = get_len(input, &mut at, token >> 4)?;
        let literals = input
            .get(at..at + lits)
            .ok_or("literals run past the input")?;
        if lits > raw_len - out.len() {
            return Err(LONG);
        }
        out.extend_from_slice(literals);
        at += lits;
        if at == input.len() {
            break;
        }
        let offset = match input.get(at..at + 2) {
            Some(&[lo, hi]) => u16::from_le_bytes([lo, hi]) as usize,
            _ => return Err("truncated offset"),
        };
        at += 2;
        let len = MIN_MATCH + get_len(input, &mut at, token & 15)?;
        if offset == 0 || offset > out.len() {
            return Err("match offset out of range");
        }
        if len > raw_len - out.len() {
            return Err(LONG);
        }
        // An overlapping match repeats its first `offset` bytes: copy
        // at most `offset` bytes at a time, each already written.
        let start = out.len() - offset;
        let mut done = 0;
        while done < len {
            let n = (len - done).min(offset);
            out.extend_from_within(start + done..start + done + n);
            done += n;
        }
    }
    if out.len() != raw_len {
        return Err("output shorter than expected");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_shapes_round_trip() {
        let run = vec![b'a'; 5000];
        let text = b"(eval 3 (setq acc (cons 1 acc))) ".repeat(40);
        let cases: [&[u8]; 6] = [b"", b"abc", b"abcd", b"abcdabcdabcd", &run, &text];
        for input in cases {
            let packed = compress(input);
            assert_eq!(decompress(&packed, input.len()).as_deref(), Ok(input));
        }
        // Repetition is what the codec is for.
        assert!(compress(&run).len() < 40);
        assert!(compress(&text).len() < text.len() / 10);
    }

    #[test]
    fn wrong_sizes_and_bad_offsets_fail_closed() {
        let packed = compress(b"abcdabcdabcdabcd");
        assert_eq!(decompress(&packed, 15), Err("output longer than expected"));
        assert_eq!(decompress(&packed, 17), Err("output shorter than expected"));
        // One literal, then a match reaching two bytes back.
        assert_eq!(
            decompress(&[0x10, b'x', 2, 0], 5),
            Err("match offset out of range")
        );
        assert_eq!(
            decompress(&[0x10, b'x', 0, 0], 5),
            Err("match offset out of range")
        );
        assert_eq!(decompress(&[0xF0], 20), Err("truncated length"));
        assert_eq!(
            decompress(&[0x20, b'x'], 2),
            Err("literals run past the input")
        );
        assert_eq!(decompress(&[0x10, b'x', 1], 5), Err("truncated offset"));
        assert_eq!(decompress(&[0x10, b'x', 1, 0], 5), Ok(b"xxxxx".to_vec()));
    }

    /// Bytes drawn from a small alphabet with copied runs, so inputs
    /// hold matches of every length and offset.
    fn repetitive() -> impl Strategy<Value = Vec<u8>> {
        let piece = (
            prop::collection::vec(0u8..4, 0..40),
            0usize..300,
            0usize..600,
        );
        prop::collection::vec(piece, 0..40).prop_map(|pieces| {
            let mut out: Vec<u8> = Vec::new();
            for (fresh, back, len) in pieces {
                out.extend(fresh.iter().map(|b| b"ab(c"[*b as usize]));
                if !out.is_empty() {
                    let from = out.len() - 1 - back % out.len();
                    for k in 0..len {
                        out.push(out[from + k]);
                    }
                }
            }
            out
        })
    }

    const CODEC_CASES: u32 = if cfg!(debug_assertions) { 64 } else { 4000 };

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CODEC_CASES))]

        #[test]
        fn codec_props_round_trip(input in repetitive(), noise in prop::collection::vec(any::<u8>(), 0..300)) {
            for input in [&input, &noise] {
                let packed = compress(input);
                prop_assert_eq!(decompress(&packed, input.len()).as_deref(), Ok(&input[..]));
            }
        }

        /// Damaged blocks decode to an error or to some output of the
        /// expected size, never a panic.
        #[test]
        fn codec_props_damage_fails_closed(
            input in repetitive(),
            cut in any::<u64>(),
            flip in any::<u64>(),
        ) {
            let packed = compress(&input);
            if !packed.is_empty() {
                let cut = cut as usize % packed.len();
                prop_assert!(decompress(&packed[..cut], input.len()).is_err());
                let mut flipped = packed.clone();
                let bit = flip as usize % (8 * packed.len());
                flipped[bit / 8] ^= 1 << (bit % 8);
                if let Ok(out) = decompress(&flipped, input.len()) {
                    prop_assert_eq!(out.len(), input.len());
                }
            }
        }
    }
}
