//! The binary entry codec behind [`crate::Journal`] records: a cache
//! key, the canonical-to-original correspondence and the stored
//! [`MapReport`], written with the primitive [`Writer`] / [`Reader`]
//! pair below.
//!
//! The encoding is an internal persistence layer, not an interchange
//! format: the journal header carries [`crate::JOURNAL_VERSION`], which
//! any change to this encoding (or to the skeleton token stream it
//! embeds) must bump, so stale files are rejected cleanly instead of
//! misread — a cache can always be re-warmed. All integers are
//! little-endian; angles travel as IEEE-754 bit patterns, so round-trips
//! are exact, and every length is checked against the bytes left before
//! anything is allocated.

use std::fmt;
use std::time::Duration;

use qxmap_arch::Layout;
use qxmap_circuit::{Circuit, CircuitSkeleton, Gate, GateTag, OneQubitKind};

use crate::report::{CostBreakdown, MapReport, WindowCertificate};

/// Why a journal header or record was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The stream does not open with the journal magic — not a journal
    /// file at all.
    BadMagic,
    /// The stream was written by a different (newer or older) encoding
    /// version.
    VersionMismatch {
        /// Version found in the stream.
        found: u32,
        /// The version this build supports.
        supported: u32,
    },
    /// The stream ended before the declared content did — a truncated
    /// write.
    Truncated,
    /// The stream decodes to structurally invalid data (an impossible
    /// layout, a non-permutation label vector, an unknown tag …).
    Corrupted(&'static str),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::BadMagic => write!(f, "not a qxmap solve-cache journal"),
            JournalError::VersionMismatch { found, supported } => write!(
                f,
                "journal version {found} is not the supported version {supported}"
            ),
            JournalError::Truncated => write!(f, "journal ends before its declared content"),
            JournalError::Corrupted(what) => write!(f, "journal decodes to invalid data: {what}"),
        }
    }
}

impl std::error::Error for JournalError {}

/// Append-only byte sink with the format's primitive encoders.
#[derive(Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Writer {
        Writer::default()
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub(crate) fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.u64(v);
            }
        }
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn u64s(&mut self, vs: &[u64]) {
        self.usize(vs.len());
        for &v in vs {
            self.u64(v);
        }
    }

    pub(crate) fn usizes(&mut self, vs: &[usize]) {
        self.usize(vs.len());
        for &v in vs {
            self.usize(v);
        }
    }

    /// Durations travel as nanoseconds, saturated into `u64` (≈ 584
    /// years — far beyond any solve).
    pub(crate) fn duration(&mut self, d: Duration) {
        self.u64(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }
}

/// Cursor over a record's bytes with the matching primitive decoders;
/// every read is bounds-checked and a short stream reads as
/// [`JournalError::Truncated`].
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], JournalError> {
        if self.remaining() < n {
            return Err(JournalError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, JournalError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, JournalError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, JournalError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    pub(crate) fn usize(&mut self) -> Result<usize, JournalError> {
        usize::try_from(self.u64()?).map_err(|_| JournalError::Corrupted("oversized length"))
    }

    /// A length that must still fit in the stream (each element takes at
    /// least one byte) — rejects absurd lengths before any allocation.
    pub(crate) fn len(&mut self) -> Result<usize, JournalError> {
        self.len_of(1)
    }

    /// A length whose elements each take at least `width` encoded bytes.
    /// The guard must match the decoder's allocation width: a collect
    /// with an exact size hint preallocates `n × sizeof(elem)` up front,
    /// so bounding `n` by remaining *bytes* alone would let a sealed
    /// hostile stream demand several times its own file size before the
    /// first truncation error fires.
    pub(crate) fn len_of(&mut self, width: usize) -> Result<usize, JournalError> {
        let n = self.usize()?;
        if n > self.remaining() / width.max(1) {
            return Err(JournalError::Truncated);
        }
        Ok(n)
    }

    pub(crate) fn opt_u64(&mut self) -> Result<Option<u64>, JournalError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(JournalError::Corrupted("option tag")),
        }
    }

    pub(crate) fn str(&mut self) -> Result<String, JournalError> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| JournalError::Corrupted("non-UTF-8 string"))
    }

    pub(crate) fn u64s(&mut self) -> Result<Vec<u64>, JournalError> {
        let n = self.len_of(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    pub(crate) fn usizes(&mut self) -> Result<Vec<usize>, JournalError> {
        let n = self.len_of(8)?;
        (0..n).map(|_| self.usize()).collect()
    }

    pub(crate) fn duration(&mut self) -> Result<Duration, JournalError> {
        Ok(Duration::from_nanos(self.u64()?))
    }
}

// ---------------------------------------------------------------------
// Domain codecs: skeleton, gate, circuit, layout, report.
// ---------------------------------------------------------------------

pub(crate) fn write_skeleton(w: &mut Writer, skeleton: &CircuitSkeleton) {
    w.usize(skeleton.num_qubits());
    w.usize(skeleton.num_clbits());
    w.u64s(skeleton.tokens());
    w.usizes(skeleton.canonical_labels());
}

pub(crate) fn read_skeleton(r: &mut Reader<'_>) -> Result<CircuitSkeleton, JournalError> {
    let num_qubits = r.usize()?;
    let num_clbits = r.usize()?;
    let tokens = r.u64s()?;
    let canon = r.usizes()?;
    CircuitSkeleton::from_parts(num_qubits, num_clbits, tokens, canon)
        .ok_or(JournalError::Corrupted("skeleton labels"))
}

fn write_gate(w: &mut Writer, gate: &Gate) {
    w.u8(gate.tag().code());
    match gate {
        Gate::One { kind, qubit } => {
            w.u8(kind.code());
            for angle in kind.angles() {
                w.u64(angle.to_bits());
            }
            w.usize(*qubit);
        }
        Gate::Cnot {
            control: a,
            target: b,
        }
        | Gate::Swap { a, b }
        | Gate::Measure { qubit: a, clbit: b } => {
            w.usize(*a);
            w.usize(*b);
        }
        Gate::Barrier(qs) => w.usizes(qs),
    }
}

fn read_one_qubit_kind(r: &mut Reader<'_>) -> Result<OneQubitKind, JournalError> {
    let code = r.u8()?;
    let n = OneQubitKind::angle_count(code).ok_or(JournalError::Corrupted("one-qubit gate tag"))?;
    let mut angles = [0.0; 3];
    for angle in &mut angles[..n] {
        *angle = f64::from_bits(r.u64()?);
    }
    Ok(OneQubitKind::from_code(code, angles).expect("angle_count accepted the code"))
}

fn read_gate(r: &mut Reader<'_>) -> Result<Gate, JournalError> {
    let tag = GateTag::from_code(r.u8()?).ok_or(JournalError::Corrupted("gate tag"))?;
    Ok(match tag {
        GateTag::One => Gate::One {
            kind: read_one_qubit_kind(r)?,
            qubit: r.usize()?,
        },
        GateTag::Cnot => Gate::Cnot {
            control: r.usize()?,
            target: r.usize()?,
        },
        GateTag::Swap => Gate::Swap {
            a: r.usize()?,
            b: r.usize()?,
        },
        GateTag::Barrier => Gate::Barrier(r.usizes()?),
        GateTag::Measure => Gate::Measure {
            qubit: r.usize()?,
            clbit: r.usize()?,
        },
    })
}

pub(crate) fn write_circuit(w: &mut Writer, circuit: &Circuit) {
    w.str(circuit.name());
    w.usize(circuit.num_qubits());
    w.usize(circuit.num_clbits());
    w.usize(circuit.gates().len());
    for gate in circuit.gates() {
        write_gate(w, gate);
    }
}

pub(crate) fn read_circuit(r: &mut Reader<'_>) -> Result<Circuit, JournalError> {
    let name = r.str()?;
    let num_qubits = r.usize()?;
    let num_clbits = r.usize()?;
    let mut circuit = Circuit::with_clbits(num_qubits, num_clbits).named(name);
    let n = r.len()?;
    for _ in 0..n {
        let gate = read_gate(r)?;
        circuit
            .try_push(gate)
            .map_err(|_| JournalError::Corrupted("gate out of range"))?;
    }
    Ok(circuit)
}

pub(crate) fn write_layout(w: &mut Writer, layout: &Layout) {
    w.usize(layout.num_phys());
    w.usize(layout.as_log2phys().len());
    for slot in layout.as_log2phys() {
        match slot {
            None => w.u8(0),
            Some(p) => {
                w.u8(1);
                w.usize(*p);
            }
        }
    }
}

pub(crate) fn read_layout(r: &mut Reader<'_>) -> Result<Layout, JournalError> {
    let num_phys = r.usize()?;
    let n = r.len()?;
    // No up-front capacity: slots encode in as little as one byte, so a
    // hostile length could otherwise demand ~16x the stream's size in
    // one allocation; layouts are tiny, growth is amortized.
    let mut log2phys = Vec::new();
    for _ in 0..n {
        log2phys.push(match r.u8()? {
            0 => None,
            1 => Some(r.usize()?),
            _ => return Err(JournalError::Corrupted("layout slot tag")),
        });
    }
    Layout::from_log2phys(log2phys, num_phys).map_err(|_| JournalError::Corrupted("layout"))
}

pub(crate) fn write_report(w: &mut Writer, report: &MapReport) {
    w.str(&report.engine);
    w.str(&report.winner);
    write_circuit(w, &report.mapped);
    write_layout(w, &report.initial_layout);
    write_layout(w, &report.final_layout);
    w.u64(report.cost.objective);
    w.u32(report.cost.swaps);
    w.u32(report.cost.reversals);
    w.u64(report.cost.added_gates);
    w.u8(u8::from(report.proved_optimal));
    w.duration(report.runtime);
    w.duration(report.elapsed);
    match &report.subset {
        None => w.u8(0),
        Some(subset) => {
            w.u8(1);
            w.usizes(subset);
        }
    }
    w.opt_u64(report.num_change_points.map(|v| v as u64));
    w.opt_u64(report.iterations.map(u64::from));
    match &report.windows {
        None => w.u8(0),
        Some(windows) => {
            w.u8(1);
            w.usize(windows.len());
            for cert in windows {
                write_window_certificate(w, cert);
            }
        }
    }
}

fn write_window_certificate(w: &mut Writer, cert: &WindowCertificate) {
    w.usize(cert.index);
    w.usizes(&cert.qubits);
    w.usizes(&cert.region);
    w.usize(cert.gates);
    w.u64(cert.objective);
    w.u8(u8::from(cert.proved_optimal));
    w.u8(u8::from(cert.served_from_cache));
    w.str(&cert.engine);
    w.u32(cert.bridge_swaps);
    w.u64(cert.bridge_cost);
}

fn read_window_certificate(r: &mut Reader<'_>) -> Result<WindowCertificate, JournalError> {
    let flag = |r: &mut Reader<'_>, what| match r.u8() {
        Ok(0) => Ok(false),
        Ok(1) => Ok(true),
        Ok(_) => Err(JournalError::Corrupted(what)),
        Err(e) => Err(e),
    };
    Ok(WindowCertificate {
        index: r.usize()?,
        qubits: r.usizes()?,
        region: r.usizes()?,
        gates: r.usize()?,
        objective: r.u64()?,
        proved_optimal: flag(r, "window proved flag")?,
        served_from_cache: flag(r, "window cache flag")?,
        engine: r.str()?,
        bridge_swaps: r.u32()?,
        bridge_cost: r.u64()?,
    })
}

pub(crate) fn read_report(r: &mut Reader<'_>) -> Result<MapReport, JournalError> {
    let engine = r.str()?;
    let winner = r.str()?;
    let mapped = read_circuit(r)?;
    let initial_layout = read_layout(r)?;
    let final_layout = read_layout(r)?;
    let objective = r.u64()?;
    let swaps = r.u32()?;
    let reversals = r.u32()?;
    let added_gates = r.u64()?;
    let proved_optimal = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(JournalError::Corrupted("proved_optimal flag")),
    };
    let runtime = r.duration()?;
    let elapsed = r.duration()?;
    let subset = match r.u8()? {
        0 => None,
        1 => Some(r.usizes()?),
        _ => return Err(JournalError::Corrupted("subset tag")),
    };
    let num_change_points = r
        .opt_u64()?
        .map(|v| usize::try_from(v).map_err(|_| JournalError::Corrupted("change points")))
        .transpose()?;
    let iterations = r
        .opt_u64()?
        .map(|v| u32::try_from(v).map_err(|_| JournalError::Corrupted("iterations")))
        .transpose()?;
    let windows = match r.u8()? {
        0 => None,
        1 => {
            // Certificates encode in well over 8 bytes each; the length
            // guard only needs a conservative per-element floor.
            let n = r.len_of(8)?;
            let mut certs = Vec::new();
            for _ in 0..n {
                certs.push(read_window_certificate(r)?);
            }
            Some(certs)
        }
        _ => return Err(JournalError::Corrupted("windows tag")),
    };
    Ok(MapReport {
        engine,
        winner,
        mapped: mapped.into(),
        initial_layout,
        final_layout,
        cost: CostBreakdown {
            objective,
            swaps,
            reversals,
            added_gates,
        },
        proved_optimal,
        runtime,
        elapsed,
        // Stored reports are always the unmarked originals; cache
        // bookkeeping is applied to served clones at lookup time.
        served_from_cache: false,
        subset,
        num_change_points,
        iterations,
        windows,
        // Traces are per-request and never persisted (the cache strips
        // them before insert; the codec has no frame for them).
        trace: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qxmap_circuit::paper_example;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX);
        w.opt_u64(None);
        w.opt_u64(Some(42));
        w.str("héllo");
        w.u64s(&[1, 2, 3]);
        w.usizes(&[4, 5]);
        w.duration(Duration::from_micros(1234));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.opt_u64().unwrap(), Some(42));
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.u64s().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.usizes().unwrap(), vec![4, 5]);
        assert_eq!(r.duration().unwrap(), Duration::from_micros(1234));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.u8().unwrap_err(), JournalError::Truncated);
    }

    #[test]
    fn circuit_codec_round_trips_every_gate_kind() {
        let mut c = Circuit::with_clbits(3, 2).named("all-gates");
        c.h(0).x(1).y(2).z(0).s(1).sdg(2).t(0).tdg(1);
        c.rx(0.5, 0).ry(-1.25, 1).rz(std::f64::consts::PI, 2);
        c.u(0.1, 0.2, 0.3, 0);
        c.cx(0, 1).swap_gate(1, 2).barrier().measure(0, 1);
        let mut w = Writer::new();
        write_circuit(&mut w, &c);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = read_circuit(&mut r).unwrap();
        assert_eq!(c, back);
        assert_eq!(back.name(), "all-gates");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn skeleton_codec_round_trips() {
        let skel = CircuitSkeleton::of(&paper_example());
        let mut w = Writer::new();
        write_skeleton(&mut w, &skel);
        let bytes = w.into_bytes();
        let back = read_skeleton(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(skel, back);
        assert_eq!(skel.canonical_labels(), back.canonical_labels());
    }

    #[test]
    fn layout_codec_rejects_conflicts() {
        let mut layout = Layout::new(2, 4);
        layout.assign(0, 3).unwrap();
        let mut w = Writer::new();
        write_layout(&mut w, &layout);
        let bytes = w.into_bytes();
        let back = read_layout(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.phys_of(0), Some(3));
        assert_eq!(back.phys_of(1), None);

        // Two logical qubits on one physical qubit is structurally
        // invalid and must be rejected, not trusted.
        let mut w = Writer::new();
        w.usize(4); // num_phys
        w.usize(2); // slots
        w.u8(1);
        w.usize(3);
        w.u8(1);
        w.usize(3);
        let bytes = w.into_bytes();
        assert!(matches!(
            read_layout(&mut Reader::new(&bytes)),
            Err(JournalError::Corrupted(_))
        ));
    }

    #[test]
    fn absurd_lengths_are_rejected_before_allocation() {
        let mut w = Writer::new();
        w.u64(u64::MAX - 1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.u64s().is_err());
    }

    /// One circuit holding every single-qubit kind (angles other than 0
    /// and π), a CNOT, a SWAP, a barrier and a measurement.
    fn golden_circuit() -> Circuit {
        use OneQubitKind as K;
        let mut c = Circuit::with_clbits(3, 2).named("golden");
        let kinds = [
            K::I,
            K::X,
            K::Y,
            K::Z,
            K::H,
            K::S,
            K::Sdg,
            K::T,
            K::Tdg,
            K::Rx(0.5),
            K::Ry(-1.25),
            K::Rz(2.0),
            K::Phase(0.75),
            K::U(0.1, -0.2, 0.3),
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            c.push(Gate::one(kind, i % 3));
        }
        c.cx(2, 0).swap_gate(1, 2);
        c.push(Gate::Barrier(vec![2, 0]));
        c.measure(1, 1);
        c
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The three byte formats that carry gate codes, pinned to recorded
    /// bytes: a code renumbered on both the write and the read side
    /// still round-trips, so only a golden copy catches it. QXBC and the
    /// journal are persisted, and skeleton tokens feed cache keys, so any
    /// change here needs a `QXBC_VERSION` or `JOURNAL_VERSION` bump.
    #[test]
    fn gate_codes_match_the_recorded_bytes() {
        let c = golden_circuit();
        // QXBC: header, one 36-byte record per gate, aux table, checksum.
        let qxbc = [
            "5158424343495243",
            "01000000",
            "06000000",
            "676f6c64656e",
            "03000000",
            "02000000",
            "12000000",
            "02000000",
            "010000000000000000000000000000000000000000000000000000000000000000000000",
            "010100000100000000000000000000000000000000000000000000000000000000000000",
            "010200000200000000000000000000000000000000000000000000000000000000000000",
            "010300000000000000000000000000000000000000000000000000000000000000000000",
            "010400000100000000000000000000000000000000000000000000000000000000000000",
            "010500000200000000000000000000000000000000000000000000000000000000000000",
            "010600000000000000000000000000000000000000000000000000000000000000000000",
            "010700000100000000000000000000000000000000000000000000000000000000000000",
            "010800000200000000000000000000000000000000000000000000000000000000000000",
            "010900000000000000000000000000000000e03f00000000000000000000000000000000",
            "010a00000100000000000000000000000000f4bf00000000000000000000000000000000",
            "010b00000200000000000000000000000000004000000000000000000000000000000000",
            "010c00000000000000000000000000000000e83f00000000000000000000000000000000",
            "010d000001000000000000009a9999999999b93f9a9999999999c9bf333333333333d33f",
            "020000000200000000000000000000000000000000000000000000000000000000000000",
            "030000000100000002000000000000000000000000000000000000000000000000000000",
            "040000000000000002000000000000000000000000000000000000000000000000000000",
            "050000000100000001000000000000000000000000000000000000000000000000000000",
            "0200000000000000",
            "a1affab70fbba127",
        ];
        assert_eq!(hex(&qxmap_qasm::encode_qxbc(&c)), qxbc.concat());
        // Journal circuit frame: name, registers, gate count, then one
        // variable-width record per gate.
        let journal = [
            "0600000000000000",
            "676f6c64656e",
            "0300000000000000",
            "0200000000000000",
            "1200000000000000",
            "01000000000000000000",
            "01010100000000000000",
            "01020200000000000000",
            "01030000000000000000",
            "01040100000000000000",
            "01050200000000000000",
            "01060000000000000000",
            "01070100000000000000",
            "01080200000000000000",
            "0109000000000000e03f0000000000000000",
            "010a000000000000f4bf0100000000000000",
            "010b00000000000000400200000000000000",
            "010c000000000000e83f0000000000000000",
            "010d9a9999999999b93f9a9999999999c9bf333333333333d33f0100000000000000",
            "0202000000000000000000000000000000",
            "0301000000000000000200000000000000",
            "04020000000000000002000000000000000000000000000000",
            "0501000000000000000100000000000000",
        ];
        let mut w = Writer::new();
        write_circuit(&mut w, &c);
        assert_eq!(hex(&w.into_bytes()), journal.concat());
        // Skeleton tokens: gate tag, kind code, angle bits, canonical labels.
        let skeleton = CircuitSkeleton::of(&c);
        assert_eq!(
            skeleton.tokens(),
            [
                1,
                0,
                0,
                1,
                1,
                1,
                1,
                2,
                2,
                1,
                3,
                0,
                1,
                4,
                1,
                1,
                5,
                2,
                1,
                6,
                0,
                1,
                7,
                1,
                1,
                8,
                2,
                1,
                9,
                4602678819172646912,
                0,
                1,
                10,
                13831680355561635840,
                1,
                1,
                11,
                4611686018427387904,
                2,
                1,
                12,
                4604930618986332160,
                0,
                1,
                13,
                4591870180066957722,
                13819745816549104026,
                4599075939470750515,
                1,
                2,
                2,
                0,
                3,
                1,
                2,
                4,
                2,
                0,
                2,
                5,
                1,
                1,
            ]
        );
        assert_eq!(skeleton.fingerprint(), 0x7fde_d9fa_77c0_ce28);
    }
}
