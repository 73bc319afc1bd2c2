//! Spill files: on-disk runs of records for larger-than-memory execution.
//!
//! The streaming executor's pipeline breakers (hash-join build sides,
//! grouping state, sort buffers, dedup sets) are the only places resident
//! memory grows with the data. When a breaker's state would exceed the
//! configured `memory_budget_rows`, it spills rows here: a [`RunWriter`]
//! serializes records **length-prefixed** into a file under a per-query
//! [`SpillDir`] in the OS temp directory, and a [`RunReader`] streams them
//! back in batches. Files delete themselves when the owning [`SpillFile`]
//! drops, and the whole directory is removed when the [`SpillDir`] drops —
//! a crash leaves at most one stale `tmql-spill-*` directory per process,
//! inside the OS temp dir where it is reclaimed by the platform.
//!
//! # On-disk format
//!
//! A run is a sequence of frames, each `u32` little-endian payload length
//! followed by the payload: one [`Record`] in the row encoding of
//! [`crate::codec`], which data pages store too. It covers the full
//! value universe — nested tuples, sets, lists, and variants round-trip
//! exactly, including `NaN` floats.

use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use tmql_model::{ModelError, Record, Result};

use crate::codec::{Reader, Writer};

/// Map an I/O failure into the model error type (rendered, since
/// `io::Error` is neither `Clone` nor `PartialEq`).
fn io_err(e: std::io::Error) -> ModelError {
    ModelError::Io(e.to_string())
}

/// Error-message name of the row format.
const FORMAT: &str = "record";

/// Encode one record as a standalone byte payload (no length prefix —
/// framing is the run writer's job). Values nested deeper than
/// [`crate::codec::MAX_DEPTH`] encode but would not decode; the paths that
/// persist rows use `encode_row`, which refuses them.
pub fn encode_record(rec: &Record) -> Vec<u8> {
    let mut w = Writer::new(FORMAT);
    w.record(rec);
    w.into_bytes()
}

/// [`encode_record`] for a row about to be persisted: an error instead
/// of bytes that would not read back.
pub(crate) fn encode_row(rec: &Record) -> Result<Vec<u8>> {
    let mut w = Writer::new(FORMAT);
    w.record(rec);
    w.finish()
}

/// Decode one record from an encoded payload (the inverse of
/// [`encode_record`]). Fails on truncated, malformed, trailing or
/// over-deep bytes.
pub fn decode_record(payload: &[u8]) -> Result<Record> {
    let mut r = Reader::new(FORMAT, payload);
    let rec = r.record()?;
    r.expect_end()?;
    Ok(rec)
}

// ---------------------------------------------------------------------------
// Spill directory / runs
// ---------------------------------------------------------------------------

static SPILL_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A per-query scratch directory under the OS temp dir. Created lazily by
/// the executor the first time anything spills; removed (with everything
/// in it) on drop.
#[derive(Debug)]
pub struct SpillDir {
    path: PathBuf,
    run_seq: AtomicU64,
}

impl SpillDir {
    /// Create a fresh, uniquely named spill directory.
    pub fn create() -> Result<SpillDir> {
        let unique = SPILL_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("tmql-spill-{}-{unique}", std::process::id()));
        fs::create_dir_all(&path).map_err(io_err)?;
        Ok(SpillDir {
            path,
            run_seq: AtomicU64::new(0),
        })
    }

    /// The directory path (for diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Open a new run for writing.
    pub fn create_run(&self) -> Result<RunWriter> {
        let n = self.run_seq.fetch_add(1, Ordering::Relaxed);
        let path = self.path.join(format!("run-{n}.spill"));
        let file = File::create(&path).map_err(io_err)?;
        Ok(RunWriter {
            out: BufWriter::new(file),
            path,
            rows: 0,
        })
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        // Best-effort cleanup; leaking a temp dir is not worth a panic.
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// An open spill run being written. Call [`RunWriter::finish`] to flush and
/// turn it into a readable [`SpillFile`].
#[derive(Debug)]
pub struct RunWriter {
    out: BufWriter<File>,
    path: PathBuf,
    rows: u64,
}

impl RunWriter {
    /// Append one record (length-prefixed frame). A record the codec
    /// could not read back (nested too deep, a frame over `u32::MAX`
    /// bytes) is an error and writes nothing.
    pub fn write(&mut self, rec: &Record) -> Result<()> {
        let mut w = Writer::new(FORMAT);
        w.sized(|w| w.record(rec));
        let frame = w.finish()?;
        self.out.write_all(&frame).map_err(io_err)?;
        self.rows += 1;
        Ok(())
    }

    /// Rows written so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Flush and seal the run.
    pub fn finish(mut self) -> Result<SpillFile> {
        self.out.flush().map_err(io_err)?;
        Ok(SpillFile {
            path: self.path,
            rows: self.rows,
        })
    }
}

/// A sealed on-disk run. The file is deleted when this handle drops.
#[derive(Debug)]
pub struct SpillFile {
    path: PathBuf,
    rows: u64,
}

impl SpillFile {
    /// Number of records in the run.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// True iff the run holds no records.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Open the run for a fresh sequential read.
    pub fn reader(&self) -> Result<RunReader> {
        let file = File::open(&self.path).map_err(io_err)?;
        Ok(RunReader {
            input: BufReader::new(file),
            remaining: self.rows,
        })
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Sequential batched reader over a sealed run.
#[derive(Debug)]
pub struct RunReader {
    input: BufReader<File>,
    remaining: u64,
}

impl RunReader {
    /// Records not yet read.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Read up to `n` records; an empty vector means end of run.
    pub fn read_batch(&mut self, n: usize) -> Result<Vec<Record>> {
        let k = (n as u64).min(self.remaining) as usize;
        let mut out = Vec::with_capacity(k);
        let mut payload = Vec::new();
        for _ in 0..k {
            let mut len_buf = [0u8; 4];
            self.input.read_exact(&mut len_buf).map_err(io_err)?;
            let len = u32::from_le_bytes(len_buf) as usize;
            payload.resize(len, 0);
            self.input.read_exact(&mut payload).map_err(io_err)?;
            out.push(decode_record(&payload)?);
            self.remaining -= 1;
        }
        Ok(out)
    }

    /// Read the whole remainder of the run.
    pub fn read_all(&mut self) -> Result<Vec<Record>> {
        let mut out = Vec::with_capacity(self.remaining as usize);
        loop {
            let batch = self.read_batch(4096)?;
            if batch.is_empty() {
                return Ok(out);
            }
            out.extend(batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tmql_model::Value;

    fn sample_rows() -> Vec<Record> {
        let nested = Value::tuple([
            ("name", Value::str("ann")),
            ("tags", Value::set([Value::Int(1), Value::Int(2)])),
        ]);
        vec![
            Record::new([("a".to_string(), Value::Int(1)), ("b".to_string(), nested)]).unwrap(),
            Record::new([
                ("a".to_string(), Value::Float(f64::NAN)),
                (
                    "b".to_string(),
                    Value::List(vec![Value::Bool(true), Value::Null]),
                ),
            ])
            .unwrap(),
            Record::new([
                (
                    "a".to_string(),
                    Value::Variant(Arc::from("left"), Box::new(Value::Int(7))),
                ),
                ("b".to_string(), Value::empty_set()),
            ])
            .unwrap(),
        ]
    }

    #[test]
    fn codec_round_trips_every_value_kind() {
        for rec in sample_rows() {
            let bytes = encode_record(&rec);
            let back = decode_record(&bytes).unwrap();
            assert_eq!(rec, back);
        }
    }

    #[test]
    fn nan_float_round_trips_bit_exact() {
        let rec = Record::new([("x".to_string(), Value::Float(f64::NAN))]).unwrap();
        let back = decode_record(&encode_record(&rec)).unwrap();
        match back.get("x").unwrap() {
            Value::Float(x) => assert!(x.is_nan()),
            other => panic!("expected float, got {other}"),
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_record(&[]).is_err());
        assert!(decode_record(&[1, 0, 0, 0, 0, 0, 0, 0, 255]).is_err());
        // Trailing bytes after a well-formed record are an error too.
        let mut bytes = encode_record(&Record::empty());
        bytes.push(0);
        assert!(decode_record(&bytes).is_err());
    }

    #[test]
    fn run_round_trips_and_batches() {
        let dir = SpillDir::create().unwrap();
        let rows = sample_rows();
        let mut w = dir.create_run().unwrap();
        for r in &rows {
            w.write(r).unwrap();
        }
        assert_eq!(w.rows(), 3);
        let file = w.finish().unwrap();
        assert_eq!(file.rows(), 3);
        let mut r = file.reader().unwrap();
        assert_eq!(r.read_batch(2).unwrap().len(), 2);
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.read_batch(2).unwrap().len(), 1);
        assert!(r.read_batch(2).unwrap().is_empty(), "EOF is an empty batch");
        // A second reader re-reads from the start.
        let again = file.reader().unwrap().read_all().unwrap();
        assert_eq!(again, rows);
    }

    #[test]
    fn spill_files_and_dir_clean_up_after_themselves() {
        let dir = SpillDir::create().unwrap();
        let dir_path = dir.path().to_path_buf();
        let mut w = dir.create_run().unwrap();
        w.write(&Record::empty()).unwrap();
        let file = w.finish().unwrap();
        let file_path = dir_path.join("run-0.spill");
        assert!(file_path.exists());
        drop(file);
        assert!(!file_path.exists(), "SpillFile removes its file on drop");
        drop(dir);
        assert!(!dir_path.exists(), "SpillDir removes itself on drop");
    }

    #[test]
    fn empty_run_is_fine() {
        let dir = SpillDir::create().unwrap();
        let file = dir.create_run().unwrap().finish().unwrap();
        assert!(file.is_empty());
        assert!(file.reader().unwrap().read_all().unwrap().is_empty());
    }
}
