//! The versioned binary checkpoint format for trained model parameters.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    b"DGNC"                          4 bytes
//! version  u32                              format revision (currently 1)
//! kind     u8                               ModelKind::code()
//! input_f, hidden, mprod_window,
//! smoothing_window                          4 × u32 (ModelConfig)
//! head_emb, head_classes                    2 × u32 (LinkPredHead)
//! n_params u32
//! shape table: per parameter
//!   name_len u32, name utf-8 bytes, rows u32, cols u32
//! data: per parameter, rows·cols f32 bit patterns, row-major
//! crc32    u32                              over every preceding byte
//! ```
//!
//! Values round-trip as raw `f32` bit patterns, so a load followed by a
//! forward pass is bit-identical to the original in-memory model. Every
//! failure mode — short file, foreign file, future format revision,
//! flipped bits, inconsistent shape table — surfaces as a typed
//! [`CheckpointError`], never a panic.

use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

use dgnn_autograd::ParamStore;
use dgnn_models::{LinkPredHead, Model, ModelConfig, ModelKind};
use dgnn_tensor::Dense;

/// File magic: "DGNN Checkpoint".
pub const MAGIC: [u8; 4] = *b"DGNC";
/// Current format revision.
pub const FORMAT_VERSION: u32 = 1;
/// Parameter-name length cap — a corrupt length field must not drive a
/// multi-gigabyte allocation before the checksum gets a chance to reject.
const MAX_NAME_LEN: u32 = 4096;
/// Parameter-count cap, for the same reason.
const MAX_PARAMS: usize = 1 << 16;

/// Why a checkpoint could not be decoded.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure (open/read/write).
    Io(io::Error),
    /// The leading bytes are not the checkpoint magic.
    BadMagic([u8; 4]),
    /// The file's format revision is newer than this build understands.
    UnsupportedVersion {
        /// Revision found in the header.
        found: u32,
    },
    /// The file ends before the structure it declares.
    Truncated,
    /// The trailing CRC does not match the content.
    ChecksumMismatch {
        /// CRC stored in the file.
        stored: u32,
        /// CRC computed over the content.
        computed: u32,
    },
    /// Structurally inconsistent content (bad kind tag, oversized name,
    /// non-UTF-8 name, trailing garbage …).
    Malformed(&'static str),
    /// The checkpoint does not line up with the parameter store it is
    /// being imported into.
    StoreMismatch(String),
    /// The checkpoint decodes fine but its architecture cannot be served
    /// (e.g. CD-GCN, whose trained layer widths only compose through the
    /// temporal feature LSTM that the snapshot forward omits).
    UnsupportedModel(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::BadMagic(m) => write!(f, "not a dgnn checkpoint (magic {m:?})"),
            CheckpointError::UnsupportedVersion { found } => write!(
                f,
                "checkpoint format revision {found} is newer than supported {FORMAT_VERSION}"
            ),
            CheckpointError::Truncated => write!(f, "checkpoint file is truncated"),
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            CheckpointError::StoreMismatch(what) => {
                write!(f, "checkpoint does not match the parameter store: {what}")
            }
            CheckpointError::UnsupportedModel(what) => {
                write!(f, "model cannot be served: {what}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

// The CRC implementation moved to `dgnn_tensor::digest` when `dgnn-store`
// adopted the same framing; this re-export keeps the original path alive.
pub use dgnn_tensor::digest::crc32;

/// A decoded (or to-be-encoded) checkpoint: the model/head metadata plus
/// every named parameter matrix, in `ParamStore` registration order.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Architecture hyper-parameters of the trained model.
    pub config: ModelConfig,
    /// Embedding width the link-prediction head expects.
    pub head_emb: usize,
    /// Number of head output classes.
    pub head_classes: usize,
    /// `(name, value)` per parameter, in registration order.
    pub params: Vec<(String, Dense)>,
}

impl Checkpoint {
    /// Snapshots a trained model + head out of its parameter store.
    pub fn from_store(model: &Model, head: &LinkPredHead, store: &ParamStore) -> Self {
        let params = store
            .ids()
            .map(|id| (store.name(id).to_string(), store.value(id).clone()))
            .collect();
        Self {
            config: *model.config(),
            head_emb: head.emb(),
            head_classes: head.classes(),
            params,
        }
    }

    /// The parameter value saved under `name`, if present.
    pub fn param(&self, name: &str) -> Option<&Dense> {
        self.params.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Imports the saved values into a live store (e.g. one freshly built
    /// by `Model::new` with the same config), by name. The checkpoint must
    /// assign every store parameter exactly once, with the same shape: a
    /// parameter it lacks would otherwise keep the store's initial value.
    pub fn load_into(&self, store: &mut ParamStore) -> Result<(), CheckpointError> {
        // Validate everything before mutating anything.
        let mut ids = Vec::with_capacity(self.params.len());
        let mut assigned = vec![false; store.len()];
        for (name, value) in &self.params {
            let id = store.id_of(name).ok_or_else(|| {
                CheckpointError::StoreMismatch(format!("store has no parameter named {name:?}"))
            })?;
            if store.value(id).shape() != value.shape() {
                return Err(CheckpointError::StoreMismatch(format!(
                    "parameter {name:?} is {:?} in the store but {:?} in the checkpoint",
                    store.value(id).shape(),
                    value.shape()
                )));
            }
            if std::mem::replace(&mut assigned[id.index()], true) {
                return Err(CheckpointError::StoreMismatch(format!(
                    "checkpoint names {name:?} twice"
                )));
            }
            ids.push(id);
        }
        if let Some(id) = store.ids().find(|id| !assigned[id.index()]) {
            return Err(CheckpointError::StoreMismatch(format!(
                "checkpoint lacks {:?}",
                store.name(id)
            )));
        }
        for (id, (_, value)) in ids.into_iter().zip(&self.params) {
            *store.value_mut(id) = value.clone();
        }
        Ok(())
    }

    /// Serializes to the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let data_len: usize = self.params.iter().map(|(_, v)| v.len() * 4).sum();
        let mut out = Vec::with_capacity(64 + data_len);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.push(self.config.kind.code());
        for field in [
            self.config.input_f,
            self.config.hidden,
            self.config.mprod_window,
            self.config.smoothing_window,
            self.head_emb,
            self.head_classes,
            self.params.len(),
        ] {
            out.extend_from_slice(&(field as u32).to_le_bytes());
        }
        for (name, value) in &self.params {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(value.rows() as u32).to_le_bytes());
            out.extend_from_slice(&(value.cols() as u32).to_le_bytes());
        }
        for (_, value) in &self.params {
            for &v in value.data() {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes the versioned binary format.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Cursor { bytes, pos: 0 };
        let magic = r.take::<4>()?;
        if magic != MAGIC {
            return Err(CheckpointError::BadMagic(magic));
        }
        let version = r.u32()?;
        if version > FORMAT_VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version });
        }
        let kind = ModelKind::from_code(r.u8()?)
            .ok_or(CheckpointError::Malformed("unknown model-kind tag"))?;
        let input_f = r.u32()? as usize;
        let hidden = r.u32()? as usize;
        let mprod_window = r.u32()? as usize;
        let smoothing_window = r.u32()? as usize;
        let head_emb = r.u32()? as usize;
        let head_classes = r.u32()? as usize;
        let n_params = r.u32()? as usize;
        if n_params > MAX_PARAMS {
            return Err(CheckpointError::Malformed("parameter count implausible"));
        }

        let mut shapes = Vec::with_capacity(n_params);
        for _ in 0..n_params {
            let name_len = r.u32()?;
            if name_len > MAX_NAME_LEN {
                return Err(CheckpointError::Malformed("parameter name too long"));
            }
            let name = String::from_utf8(r.slice(name_len as usize)?.to_vec())
                .map_err(|_| CheckpointError::Malformed("parameter name is not utf-8"))?;
            let rows = r.u32()? as usize;
            let cols = r.u32()? as usize;
            shapes.push((name, rows, cols));
        }
        let mut params = Vec::with_capacity(n_params);
        for (name, rows, cols) in shapes {
            let n = rows
                .checked_mul(cols)
                .and_then(|n| n.checked_mul(4))
                .ok_or(CheckpointError::Malformed("parameter shape overflows"))?;
            let raw = r.slice(n)?;
            let data = raw
                .chunks_exact(4)
                .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap())))
                .collect();
            params.push((name, Dense::from_vec(rows, cols, data)));
        }
        if r.pos != bytes.len() - 4 {
            return Err(CheckpointError::Malformed("trailing bytes after data"));
        }
        // Structure parsed in full — now reject any flipped bit. Checking
        // last keeps truncation and corruption distinguishable.
        let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        let computed = crc32(&bytes[..bytes.len() - 4]);
        if stored != computed {
            return Err(CheckpointError::ChecksumMismatch { stored, computed });
        }
        Ok(Self {
            config: ModelConfig {
                kind,
                input_f,
                hidden,
                mprod_window,
                smoothing_window,
            },
            head_emb,
            head_classes,
            params,
        })
    }

    /// Writes the checkpoint to `w`.
    pub fn write_to(&self, mut w: impl Write) -> Result<(), CheckpointError> {
        w.write_all(&self.to_bytes())?;
        Ok(())
    }

    /// Reads and decodes a checkpoint from `r`.
    pub fn read_from(mut r: impl Read) -> Result<Self, CheckpointError> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        Self::from_bytes(&bytes)
    }

    /// Saves to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        self.write_to(std::fs::File::create(path)?)
    }

    /// Loads from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        Self::read_from(std::fs::File::open(path)?)
    }
}

/// Bounds-checked little-endian reader over the checkpoint bytes; every
/// overrun maps to [`CheckpointError::Truncated`].
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn slice(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        // The trailing 4 CRC bytes are not content; reading into them means
        // the declared structure does not fit the file.
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
        // checked: a crafted shape table can place `end` near usize::MAX,
        // and a wrapping `end + 4` here would dodge the bound straight into
        // a slice panic.
        if end.checked_add(4).is_none_or(|e| e > self.bytes.len()) {
            return Err(CheckpointError::Truncated);
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        Ok(self.slice(N)?.try_into().unwrap())
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take::<4>()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            config: ModelConfig {
                kind: ModelKind::TmGcn,
                input_f: 2,
                hidden: 3,
                mprod_window: 4,
                smoothing_window: 5,
            },
            head_emb: 3,
            head_classes: 2,
            params: vec![
                (
                    "gcn0.w".into(),
                    Dense::from_vec(2, 3, vec![1.5, -0.25, 0.0, f32::MIN_POSITIVE, 3e7, -1.0]),
                ),
                ("gcn0.b".into(), Dense::from_vec(1, 3, vec![0.1, 0.2, 0.3])),
            ],
        }
    }

    fn bits(d: &Dense) -> Vec<u32> {
        d.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn roundtrip_preserves_every_bit() {
        let cp = sample();
        let back = Checkpoint::from_bytes(&cp.to_bytes()).unwrap();
        assert_eq!(back.config.kind, cp.config.kind);
        assert_eq!(back.config.hidden, cp.config.hidden);
        assert_eq!(back.head_emb, 3);
        assert_eq!(back.head_classes, 2);
        assert_eq!(back.params.len(), 2);
        for ((na, va), (nb, vb)) in cp.params.iter().zip(&back.params) {
            assert_eq!(na, nb);
            assert_eq!(va.shape(), vb.shape());
            assert_eq!(bits(va), bits(vb));
        }
    }

    #[test]
    fn truncation_at_every_length_is_typed() {
        let bytes = sample().to_bytes();
        for len in 0..bytes.len() - 1 {
            match Checkpoint::from_bytes(&bytes[..len]) {
                Err(CheckpointError::Truncated) => {}
                other => panic!("prefix of {len} bytes: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::BadMagic(_))
        ));
    }

    #[test]
    fn future_version_is_typed() {
        let mut bytes = sample().to_bytes();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::UnsupportedVersion { found: 99 })
        ));
    }

    #[test]
    fn flipped_payload_bit_fails_checksum() {
        let mut bytes = sample().to_bytes();
        // Flip a bit inside the f32 payload (the last 9 values · 4 bytes
        // precede the 4 CRC bytes), where the structure still parses.
        let idx = bytes.len() - 4 - 10;
        bytes[idx] ^= 0x40;
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
    }
}
