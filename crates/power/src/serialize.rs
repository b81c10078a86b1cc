//! Compact binary serialization for power traces.
//!
//! Trace generation is deterministic but costs seconds per benchmark;
//! experiment drivers cache generated traces on disk. The format is a
//! small self-describing little-endian layout (no external codec
//! dependency):
//!
//! ```text
//!   magic "DTMTRC01" | name_len u32 | name bytes | dt f64 | n u32 |
//!   n × { 13×f64 units | f64 l2 | u64 instructions |
//!         f64 int_rf_per_cycle | f64 fp_rf_per_cycle }
//! ```

use crate::trace::{CorePowerSample, PowerTrace, N_CORE_UNITS};
use std::io::{self, Write};

const MAGIC: &[u8; 8] = b"DTMTRC01";

/// Bytes of one stored sample: 13 unit powers, L2 power, instructions
/// and the two register-file rates, 8 bytes each.
const SAMPLE_BYTES: usize = (N_CORE_UNITS + 4) * 8;

/// Errors from trace (de)serialization.
#[derive(Debug)]
pub enum TraceCodecError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input is not a trace file (bad magic) or is structurally
    /// corrupt.
    Format(String),
}

impl std::fmt::Display for TraceCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceCodecError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceCodecError::Format(msg) => write!(f, "malformed trace file: {msg}"),
        }
    }
}

impl std::error::Error for TraceCodecError {}

impl From<io::Error> for TraceCodecError {
    fn from(e: io::Error) -> Self {
        TraceCodecError::Io(e)
    }
}

fn write_f64<W: Write>(w: &mut W, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

impl PowerTrace {
    /// Writes the trace in the compact binary format. A `&mut` reference
    /// may be passed for any `Write` implementor.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_to<W: Write>(&self, mut w: W) -> Result<(), TraceCodecError> {
        w.write_all(MAGIC)?;
        let name = self.name().as_bytes();
        write_u32(&mut w, name.len() as u32)?;
        w.write_all(name)?;
        write_f64(&mut w, self.dt())?;
        write_u32(&mut w, self.len() as u32)?;
        for i in 0..self.len() {
            let s = self.sample(i as u64);
            for &u in &s.units {
                write_f64(&mut w, u)?;
            }
            write_f64(&mut w, s.l2)?;
            write_u64(&mut w, s.instructions)?;
            write_f64(&mut w, s.int_rf_per_cycle)?;
            write_f64(&mut w, s.fp_rf_per_cycle)?;
        }
        Ok(())
    }

    /// Decodes a whole trace file written by [`PowerTrace::write_to`]
    /// in one pass over its bytes. Bytes after the last sample are
    /// ignored.
    ///
    /// # Errors
    ///
    /// Fails on a bad header (magic, a name longer than 4096 bytes or
    /// not UTF-8, a `dt` that is not finite and positive, a sample count
    /// of 0 or over 100,000,000) or on input that ends early.
    pub fn decode(bytes: &[u8]) -> Result<PowerTrace, TraceCodecError> {
        let mut rest = bytes;
        if take_array(&mut rest)? != *MAGIC {
            return Err(TraceCodecError::Format("bad magic".into()));
        }
        let name_len = u32::from_le_bytes(take_array(&mut rest)?) as usize;
        if name_len > 4096 {
            return Err(TraceCodecError::Format(format!(
                "implausible name length {name_len}"
            )));
        }
        let name = std::str::from_utf8(take(&mut rest, name_len)?)
            .map_err(|_| TraceCodecError::Format("name is not UTF-8".into()))?;
        let dt = f64::from_le_bytes(take_array(&mut rest)?);
        if !(dt.is_finite() && dt > 0.0) {
            return Err(TraceCodecError::Format(format!("bad dt {dt}")));
        }
        let n = u32::from_le_bytes(take_array(&mut rest)?) as usize;
        if n == 0 || n > 100_000_000 {
            return Err(TraceCodecError::Format(format!("implausible length {n}")));
        }
        let samples = take(&mut rest, n.saturating_mul(SAMPLE_BYTES))?
            .chunks_exact(SAMPLE_BYTES)
            .map(|rec| {
                let f = |i| f64::from_le_bytes(word(rec, i));
                CorePowerSample {
                    units: std::array::from_fn(f),
                    l2: f(N_CORE_UNITS),
                    instructions: u64::from_le_bytes(word(rec, N_CORE_UNITS + 1)),
                    int_rf_per_cycle: f(N_CORE_UNITS + 2),
                    fp_rf_per_cycle: f(N_CORE_UNITS + 3),
                }
            })
            .collect();
        Ok(PowerTrace::new(name, dt, samples))
    }
}

/// Splits the first `n` bytes off `rest`; input that ends early is an
/// error.
fn take<'a>(rest: &mut &'a [u8], n: usize) -> Result<&'a [u8], TraceCodecError> {
    let (head, tail) = rest.split_at_checked(n).ok_or_else(|| {
        TraceCodecError::Format(format!("truncated: {n} bytes wanted, {} left", rest.len()))
    })?;
    *rest = tail;
    Ok(head)
}

/// Splits the first `N` bytes off `rest` as an array.
fn take_array<const N: usize>(rest: &mut &[u8]) -> Result<[u8; N], TraceCodecError> {
    Ok(take(rest, N)?.try_into().expect("`take` returns N bytes"))
}

/// The `i`th 8-byte word of a sample record.
fn word(rec: &[u8], i: usize) -> [u8; 8] {
    rec[8 * i..8 * i + 8]
        .try_into()
        .expect("a record holds 17 words")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_trace() -> PowerTrace {
        let mut samples = Vec::new();
        for i in 0..5 {
            let mut s = CorePowerSample::zero();
            for (u, slot) in s.units.iter_mut().enumerate() {
                *slot = 0.1 * (i * 13 + u) as f64;
            }
            s.l2 = 0.05 * i as f64;
            s.instructions = 1000 + i as u64;
            s.int_rf_per_cycle = 2.0 + i as f64;
            s.fp_rf_per_cycle = 1.0 + i as f64;
            samples.push(s);
        }
        PowerTrace::new("demo", 27.78e-6, samples)
    }

    fn encoded(t: &PowerTrace) -> Vec<u8> {
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        buf
    }

    /// The demo trace's file with its name (and name length), `dt` and
    /// sample count replaced; its five samples follow.
    fn patched(name: &[u8], dt: f64, n: u32) -> Vec<u8> {
        let file = encoded(&demo_trace());
        let mut buf = MAGIC.to_vec();
        buf.extend((name.len() as u32).to_le_bytes());
        buf.extend(name);
        buf.extend(dt.to_le_bytes());
        buf.extend(n.to_le_bytes());
        buf.extend(&file[file.len() - 5 * SAMPLE_BYTES..]);
        buf
    }

    /// The message of a format error; panics on a decoded trace.
    fn rejection(bytes: &[u8]) -> String {
        match PowerTrace::decode(bytes) {
            Err(TraceCodecError::Format(msg)) => msg,
            other => panic!("expected a format error, got {other:?}"),
        }
    }

    #[test]
    fn round_trip_is_lossless() {
        let t = demo_trace();
        assert_eq!(PowerTrace::decode(&encoded(&t)).unwrap(), t);
    }

    #[test]
    fn truncated_file_is_rejected() {
        // At every length short of the whole file.
        let buf = encoded(&demo_trace());
        for len in 0..buf.len() {
            let msg = rejection(&buf[..len]);
            assert!(msg.starts_with("truncated"), "length {len}: {msg}");
        }
    }

    #[test]
    fn trailing_bytes_are_ignored() {
        let t = demo_trace();
        for tail in [&b"x"[..], &[0; SAMPLE_BYTES - 1], &encoded(&t)] {
            let mut buf = encoded(&t);
            buf.extend_from_slice(tail);
            assert_eq!(PowerTrace::decode(&buf).unwrap(), t);
        }
    }

    #[test]
    fn empty_input_is_rejected() {
        assert!(PowerTrace::decode(b"").is_err());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = encoded(&demo_trace());
        buf[7] = b'2';
        assert_eq!(rejection(&buf), "bad magic");
        assert_eq!(rejection(b"NOTATRACE-----"), "bad magic");
    }

    #[test]
    fn every_header_check_rejects() {
        let dt = demo_trace().dt();
        // The patched file itself decodes, up to the longest name.
        assert_eq!(
            PowerTrace::decode(&patched(b"demo", dt, 5)).unwrap(),
            demo_trace()
        );
        assert!(PowerTrace::decode(&patched(&[b'x'; 4096], dt, 5)).is_ok());
        assert_eq!(
            rejection(&patched(&[b'x'; 4097], dt, 5)),
            "implausible name length 4097"
        );
        assert_eq!(rejection(&patched(b"d\xffmo", dt, 5)), "name is not UTF-8");
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                rejection(&patched(b"demo", bad, 5)),
                format!("bad dt {bad}")
            );
        }
        for n in [0, 100_000_001, u32::MAX] {
            assert_eq!(
                rejection(&patched(b"demo", dt, n)),
                format!("implausible length {n}")
            );
        }
    }

    #[test]
    fn format_size_is_as_specified() {
        let expected = 8 + 4 + 4 + 8 + 4 + 5 * (13 * 8 + 8 + 8 + 8 + 8);
        assert_eq!(encoded(&demo_trace()).len(), expected);
        assert_eq!(SAMPLE_BYTES, 13 * 8 + 8 + 8 + 8 + 8);
    }
}
