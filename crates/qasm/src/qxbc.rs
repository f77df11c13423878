//! QXBC: the versioned binary circuit interchange format.
//!
//! QASM text is the universal ingest form, but it pays lexing, parsing
//! and gate inlining on every read. QXBC is the fast lane: a flat,
//! little-endian encoding of an already-elaborated [`Circuit`] that
//! decodes in one allocation-bounded pass, with the same hostile-input
//! discipline as the solve-cache journal's entry codec — sized fields are
//! validated against the bytes actually present *before* any
//! preallocation, unknown versions are rejected by number before any
//! content is trusted, and an FNV-1a checksum over the whole payload
//! rejects corruption outright (all-or-nothing: no partial circuits).
//!
//! ## Layout (version 1, all integers little-endian)
//!
//! | field       | size      | contents                                   |
//! |-------------|-----------|--------------------------------------------|
//! | magic       | 8         | `b"QXBCCIRC"`                              |
//! | version     | u32       | [`QXBC_VERSION`]                           |
//! | name length | u32       | byte length of the circuit name            |
//! | name        | varies    | UTF-8 circuit name                         |
//! | num_qubits  | u32       | quantum register size                      |
//! | num_clbits  | u32       | classical register size                    |
//! | gate count  | u32       | number of gate records                     |
//! | aux count   | u32       | number of u32 words in the aux table       |
//! | gates       | 36 × n    | fixed-width gate records (below)           |
//! | aux table   | 4 × m     | barrier qubit lists, referenced by records |
//! | checksum    | u64       | FNV-1a over every preceding byte           |
//!
//! Each gate record is exactly 36 bytes: `tag: u8`, `kind: u8` (single-
//! qubit kind, else 0), two reserved zero bytes, `a: u32`, `b: u32`, and
//! three u64 parameter words (angle IEEE-754 bit patterns, else 0).
//! Barriers keep records fixed-width by storing their qubit list in the
//! aux table: `a` is the word offset, `b` the length.

use std::error::Error;
use std::fmt;

use qxmap_circuit::{
    Circuit, CircuitSkeleton, Fnv1a, Gate, GateTag, OneQubitKind, SkeletonBuilder,
};

/// File magic: the first eight bytes of every QXBC payload.
pub const QXBC_MAGIC: &[u8; 8] = b"QXBCCIRC";

/// Current encoding version. Decoders reject any other version by
/// number, before trusting any content.
pub const QXBC_VERSION: u32 = 1;

/// Bytes per fixed-width gate record.
const RECORD_BYTES: usize = 36;

/// Why a QXBC payload was rejected. Decoding is all-or-nothing: any
/// error means no circuit (or skeleton) was produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QxbcError {
    /// The payload does not start with [`QXBC_MAGIC`].
    BadMagic,
    /// The payload's version is not the supported one.
    VersionMismatch {
        /// Version the payload declares.
        found: u32,
        /// Version this decoder supports.
        supported: u32,
    },
    /// The payload ended before a declared field (or declared a length
    /// exceeding the bytes present).
    Truncated,
    /// The payload's checksum does not match its content.
    ChecksumMismatch,
    /// The payload is structurally invalid (reason attached).
    Corrupted(&'static str),
}

impl fmt::Display for QxbcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QxbcError::BadMagic => write!(f, "not a QXBC payload (bad magic)"),
            QxbcError::VersionMismatch { found, supported } => {
                write!(
                    f,
                    "QXBC version {found} is not supported (expected {supported})"
                )
            }
            QxbcError::Truncated => write!(f, "QXBC payload is truncated"),
            QxbcError::ChecksumMismatch => write!(f, "QXBC checksum mismatch"),
            QxbcError::Corrupted(why) => write!(f, "QXBC payload corrupted: {why}"),
        }
    }
}

impl Error for QxbcError {}

/// Encodes a circuit as a QXBC payload.
pub fn encode_qxbc(circuit: &Circuit) -> Vec<u8> {
    let gates = circuit.gates();
    let mut out = Vec::with_capacity(32 + circuit.name().len() + gates.len() * RECORD_BYTES);
    out.extend_from_slice(QXBC_MAGIC);
    out.extend_from_slice(&QXBC_VERSION.to_le_bytes());
    out.extend_from_slice(&(circuit.name().len() as u32).to_le_bytes());
    out.extend_from_slice(circuit.name().as_bytes());
    out.extend_from_slice(&(circuit.num_qubits() as u32).to_le_bytes());
    out.extend_from_slice(&(circuit.num_clbits() as u32).to_le_bytes());
    out.extend_from_slice(&(gates.len() as u32).to_le_bytes());
    let mut aux: Vec<u32> = Vec::new();
    for gate in gates {
        if let Gate::Barrier(qs) = gate {
            aux.reserve(qs.len());
        }
    }
    // Aux count must precede the records, so lay the table out first.
    let mut records = Vec::with_capacity(gates.len() * RECORD_BYTES);
    for gate in gates {
        let mut kind = 0;
        let mut params = [0u64; 3];
        let (a, b) = match gate {
            Gate::One { kind: k, qubit } => {
                kind = k.code();
                for (p, angle) in params.iter_mut().zip(k.angles()) {
                    *p = angle.to_bits();
                }
                (*qubit as u32, 0)
            }
            Gate::Cnot {
                control: a,
                target: b,
            }
            | Gate::Swap { a, b }
            | Gate::Measure { qubit: a, clbit: b } => (*a as u32, *b as u32),
            Gate::Barrier(qs) => {
                let offset = aux.len() as u32;
                aux.extend(qs.iter().map(|&q| q as u32));
                (offset, qs.len() as u32)
            }
        };
        records.push(gate.tag().code());
        records.push(kind);
        records.extend_from_slice(&[0, 0]);
        records.extend_from_slice(&a.to_le_bytes());
        records.extend_from_slice(&b.to_le_bytes());
        for p in params {
            records.extend_from_slice(&p.to_le_bytes());
        }
    }
    out.extend_from_slice(&(aux.len() as u32).to_le_bytes());
    out.extend_from_slice(&records);
    for word in &aux {
        out.extend_from_slice(&word.to_le_bytes());
    }
    let sum = Fnv1a::hash(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// The single-qubit kind of a record: its code, and one parameter word
/// per angle with the unused words zero.
fn decode_kind(code: u8, params: [u64; 3]) -> Result<OneQubitKind, QxbcError> {
    let kind = OneQubitKind::from_code(code, params.map(f64::from_bits))
        .ok_or(QxbcError::Corrupted("unknown single-qubit gate kind"))?;
    let n = kind.angles().len();
    if params[n..].iter().any(|&w| w != 0) {
        return Err(QxbcError::Corrupted(if n == 0 {
            "parameter words on a fixed gate kind"
        } else {
            "excess parameter words"
        }));
    }
    Ok(kind)
}

/// Bounds-checked cursor over a QXBC payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], QxbcError> {
        if n > self.bytes.len() - self.pos {
            return Err(QxbcError::Truncated);
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, QxbcError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, QxbcError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Remaining unread bytes.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Reads a count of `width`-byte items, rejecting counts that exceed
    /// the bytes actually present *before* any preallocation — a length
    /// bomb costs its author the parse, not this process its memory.
    fn count_of(&mut self, width: usize) -> Result<usize, QxbcError> {
        let n = self.u32()? as usize;
        if n > self.remaining() / width.max(1) {
            return Err(QxbcError::Truncated);
        }
        Ok(n)
    }
}

/// The decoded header fields shared by both decoding modes, with the
/// reader positioned at the first gate record.
struct Header<'a> {
    name: &'a str,
    num_qubits: usize,
    num_clbits: usize,
    gate_count: usize,
    aux: Vec<u32>,
    records: &'a [u8],
}

/// Reads the header up to and including `num_qubits`: magic, version
/// and name.
fn open_prefix<'a>(r: &mut Reader<'a>) -> Result<(&'a str, usize), QxbcError> {
    if r.take(8)? != QXBC_MAGIC {
        return Err(QxbcError::BadMagic);
    }
    let version = r.u32()?;
    if version != QXBC_VERSION {
        return Err(QxbcError::VersionMismatch {
            found: version,
            supported: QXBC_VERSION,
        });
    }
    let name_len = r.count_of(1)?;
    let name = std::str::from_utf8(r.take(name_len)?)
        .map_err(|_| QxbcError::Corrupted("circuit name is not UTF-8"))?;
    Ok((name, r.u32()? as usize))
}

/// The qubit count a QXBC payload's header declares, read without
/// decoding or checksumming the rest: a cheap bound to check before
/// [`decode_qxbc`] or [`decode_qxbc_skeleton`] size anything by it.
/// Both decoders still validate the whole payload.
///
/// # Errors
///
/// A header that is not a well-formed QXBC header (bad magic, another
/// version, a truncated or non-UTF-8 name).
pub fn qxbc_num_qubits(bytes: &[u8]) -> Result<usize, QxbcError> {
    open_prefix(&mut Reader { bytes, pos: 0 }).map(|(_, num_qubits)| num_qubits)
}

/// Validates framing (magic, version, sizes, checksum, no trailing
/// bytes) and splits the payload into header, records and aux table.
fn open(bytes: &[u8]) -> Result<Header<'_>, QxbcError> {
    let mut r = Reader { bytes, pos: 0 };
    let (name, num_qubits) = open_prefix(&mut r)?;
    let num_clbits = r.u32()? as usize;
    let gate_count = r.count_of(RECORD_BYTES)?;
    let aux_count = {
        // The aux count's bound must account for the records that
        // precede the table.
        let n = r.u32()? as usize;
        let after_records = r
            .remaining()
            .checked_sub(gate_count * RECORD_BYTES)
            .ok_or(QxbcError::Truncated)?;
        if n > after_records / 4 {
            return Err(QxbcError::Truncated);
        }
        n
    };
    let records = r.take(gate_count * RECORD_BYTES)?;
    let mut aux = Vec::with_capacity(aux_count);
    for _ in 0..aux_count {
        aux.push(r.u32()?);
    }
    let declared = r.u64()?;
    if r.remaining() != 0 {
        return Err(QxbcError::Corrupted("trailing bytes after checksum"));
    }
    if Fnv1a::hash(&bytes[..bytes.len() - 8]) != declared {
        return Err(QxbcError::ChecksumMismatch);
    }
    Ok(Header {
        name,
        num_qubits,
        num_clbits,
        gate_count,
        aux,
        records,
    })
}

/// Decodes record `i` against the header's aux table.
fn record_gate(h: &Header<'_>, i: usize) -> Result<Gate, QxbcError> {
    let rec = &h.records[i * RECORD_BYTES..(i + 1) * RECORD_BYTES];
    if rec[2] != 0 || rec[3] != 0 {
        return Err(QxbcError::Corrupted("reserved record bytes must be zero"));
    }
    let a = u32::from_le_bytes(rec[4..8].try_into().expect("4 bytes")) as usize;
    let b = u32::from_le_bytes(rec[8..12].try_into().expect("4 bytes")) as usize;
    let word = |k: usize| u64::from_le_bytes(rec[12 + 8 * k..20 + 8 * k].try_into().expect("8"));
    let params = [word(0), word(1), word(2)];
    let plain = |gate: Gate| {
        if rec[1] == 0 && params == [0; 3] {
            Ok(gate)
        } else {
            Err(QxbcError::Corrupted("stray fields on a two-operand record"))
        }
    };
    let tag = GateTag::from_code(rec[0]).ok_or(QxbcError::Corrupted("unknown gate tag"))?;
    let gate = match tag {
        GateTag::One => Gate::One {
            kind: decode_kind(rec[1], params)?,
            qubit: a,
        },
        GateTag::Cnot => plain(Gate::Cnot {
            control: a,
            target: b,
        })?,
        GateTag::Swap => plain(Gate::Swap { a, b })?,
        GateTag::Barrier => {
            if rec[1] != 0 || params != [0; 3] {
                return Err(QxbcError::Corrupted("stray fields on a barrier record"));
            }
            let end = a
                .checked_add(b)
                .filter(|&end| end <= h.aux.len())
                .ok_or(QxbcError::Corrupted("barrier aux span out of range"))?;
            Gate::Barrier(h.aux[a..end].iter().map(|&q| q as usize).collect())
        }
        GateTag::Measure => plain(Gate::Measure { qubit: a, clbit: b })?,
    };
    if !gate.fits(h.num_qubits, h.num_clbits) {
        return Err(QxbcError::Corrupted("gate out of range"));
    }
    Ok(gate)
}

/// Decodes a QXBC payload into a [`Circuit`].
///
/// # Errors
///
/// Returns [`QxbcError`] on any framing, version, bounds or checksum
/// violation; nothing is produced on error.
pub fn decode_qxbc(bytes: &[u8]) -> Result<Circuit, QxbcError> {
    let h = open(bytes)?;
    let mut circuit = Circuit::with_clbits(h.num_qubits, h.num_clbits).named(h.name);
    for i in 0..h.gate_count {
        // `record_gate` validated ranges via `Gate::fits`, the same
        // predicate `try_push` applies.
        circuit.push(record_gate(&h, i)?);
    }
    crate::hooks::note_circuit_built();
    Ok(circuit)
}

/// Decodes only the canonical [`CircuitSkeleton`] of a QXBC payload,
/// streaming gate records through a [`SkeletonBuilder`] without
/// materializing the circuit — the binary half of the skeleton-first
/// warm path. Accepts and rejects exactly the payloads [`decode_qxbc`]
/// does, with identical errors.
///
/// # Errors
///
/// Returns [`QxbcError`] exactly as [`decode_qxbc`] would.
pub fn decode_qxbc_skeleton(bytes: &[u8]) -> Result<CircuitSkeleton, QxbcError> {
    let h = open(bytes)?;
    let mut builder = SkeletonBuilder::new(h.num_qubits, h.num_clbits);
    for i in 0..h.gate_count {
        builder.push(&record_gate(&h, i)?);
    }
    Ok(builder.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qxmap_circuit::paper_example;

    fn sample() -> Circuit {
        let mut c = Circuit::with_clbits(4, 2).named("sample");
        c.cx(2, 0).h(3).rx(-0.75, 1).u(0.1, -0.2, 0.3, 0);
        c.swap_gate(1, 3);
        c.push(Gate::Barrier(vec![3, 1, 0]));
        c.measure(0, 1);
        c
    }

    #[test]
    fn round_trips_bit_for_bit() {
        for c in [sample(), paper_example(), Circuit::new(0)] {
            let bytes = encode_qxbc(&c);
            let back = decode_qxbc(&bytes).unwrap();
            assert_eq!(back.gates(), c.gates());
            assert_eq!(back.num_qubits(), c.num_qubits());
            assert_eq!(back.num_clbits(), c.num_clbits());
            assert_eq!(back.name(), c.name());
            // Skeleton decoding agrees with the full decode.
            assert_eq!(
                decode_qxbc_skeleton(&bytes).unwrap(),
                CircuitSkeleton::of(&c)
            );
            assert_eq!(
                decode_qxbc_skeleton(&bytes).unwrap().fingerprint(),
                CircuitSkeleton::of(&c).fingerprint()
            );
        }
    }

    #[test]
    fn rejects_framing_violations() {
        let bytes = encode_qxbc(&sample());
        assert_eq!(decode_qxbc(b"NOTQXBC!").unwrap_err(), QxbcError::BadMagic);
        let mut bumped = bytes.clone();
        bumped[8] = bumped[8].wrapping_add(1);
        assert_eq!(
            decode_qxbc(&bumped).unwrap_err(),
            QxbcError::VersionMismatch {
                found: QXBC_VERSION + 1,
                supported: QXBC_VERSION,
            }
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            decode_qxbc(&trailing).unwrap_err(),
            QxbcError::Corrupted("trailing bytes after checksum")
        );
    }

    #[test]
    fn the_declared_width_reads_from_the_header_alone() {
        let bytes = encode_qxbc(&sample());
        assert_eq!(qxbc_num_qubits(&bytes), Ok(4));
        // The width field ends 26 bytes in ("sample" is 6 bytes long).
        assert_eq!(qxbc_num_qubits(&bytes[..26]), Ok(4));
        assert_eq!(qxbc_num_qubits(&bytes[..25]), Err(QxbcError::Truncated));
        assert_eq!(qxbc_num_qubits(b"NOTQXBC!"), Err(QxbcError::BadMagic));
    }

    #[test]
    fn length_bomb_is_bounded_before_allocation() {
        // A tiny payload declaring 4 billion gates must die at the size
        // check, not in an allocator.
        let mut bomb = Vec::new();
        bomb.extend_from_slice(QXBC_MAGIC);
        bomb.extend_from_slice(&QXBC_VERSION.to_le_bytes());
        bomb.extend_from_slice(&0u32.to_le_bytes()); // empty name
        bomb.extend_from_slice(&4u32.to_le_bytes());
        bomb.extend_from_slice(&0u32.to_le_bytes());
        bomb.extend_from_slice(&u32::MAX.to_le_bytes()); // gate count
        bomb.extend_from_slice(&u32::MAX.to_le_bytes()); // aux count
        assert_eq!(decode_qxbc(&bomb).unwrap_err(), QxbcError::Truncated);
        assert_eq!(
            decode_qxbc_skeleton(&bomb).unwrap_err(),
            QxbcError::Truncated
        );
    }
}
