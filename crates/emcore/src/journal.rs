//! Durable checkpoint journals.
//!
//! A [`Journal`] is a small named metadata document attached to an
//! [`EmContext`], used by recoverable algorithms to persist their manifest
//! state between work units so a crashed run can resume — within the same
//! process or, on the directory backend, from a *different* process that
//! reopens the backing directory.
//!
//! ## Durability contract
//!
//! * **Atomic commit** — on the directory backend a commit writes the whole
//!   document to `<name>.journal.tmp`, fsyncs it, then renames it over
//!   `<name>.journal`. A crash at any point leaves either the previous
//!   committed document or the new one, never a mixture; a stale `.tmp` is
//!   harmless and swept by [`EmContext::gc_orphans`].
//! * **Torn-write safe** — the header carries the body's length and a
//!   checksum ([`crate::block_checksum`]); a truncated or bit-flipped
//!   journal fails verification on load instead of decoding to wrong state.
//! * **Versioned** — the header records the state's `KIND` and `VERSION`;
//!   a journal of another kind or state version is refused at load with
//!   "written by an older format; rebuild the store / restart the job"
//!   rather than misparsed.
//!
//! On the memory backend, committed documents live in the context itself
//! (there is no directory to survive a real process exit); in-process
//! crash/resume works identically on both backends.
//!
//! Journal commits are host-side metadata writes, deliberately outside the
//! block-I/O model: they charge [`crate::Counters::journal_writes`], not
//! `reads`/`writes`. They are also not subject to the fault plan — the
//! commit protocol itself is the defence (rename atomicity + checksum),
//! and the fault layer models the *data* device, not the metadata store.
//!
//! ## Document format
//!
//! ```text
//! emjournal v2 <kind> <state-version> <body-bytes> <checksum-hex>\n
//! <body…>
//! ```
//!
//! The checksum is [`crate::block_checksum`] (XXH64) of the body. The
//! envelope moved from `v1` to `v2` when that function changed; block files
//! are reachable only through journals, so a `v1` document is refused at
//! load with an explicit "rebuild the store" error rather than reported as
//! torn.
//!
//! The body encoding belongs to the [`JournalState`] implementor; the
//! convention in this workspace is line-oriented `key value…` text. The
//! recoverable jobs all share one body codec, the
//! [`crate::WorkLedger`]'s.

use std::path::PathBuf;

use crate::checksum::block_checksum;
use crate::ctx::EmContext;
use crate::error::{EmError, Result};

/// Magic of the journal envelope.
const MAGIC: &str = "emjournal";
/// Format version of the envelope (the *state* carries its own version on
/// top of this).
const FORMAT: &str = "v2";

/// State that can be persisted in a [`Journal`].
///
/// `encode`/`decode` must round-trip: `decode(encode(s)) == s` up to
/// resources that need a context to reattach (file handles are encoded as
/// `(id, len)` pairs and reopened by the owning manifest's load path).
pub trait JournalState: Sized {
    /// Identifies the manifest type (e.g. `"sort-manifest"`). Loading a
    /// journal whose kind differs is an error.
    const KIND: &'static str;
    /// State-encoding version; bump on incompatible layout changes.
    const VERSION: u32;
    /// Append the state's body to `out`.
    fn encode(&self, out: &mut String);
    /// Parse a body produced by [`JournalState::encode`].
    fn decode(body: &str) -> Result<Self>;
}

/// A named, durable, atomically-committed checkpoint document.
#[derive(Debug, Clone)]
pub struct Journal {
    ctx: EmContext,
    name: String,
}

impl Journal {
    /// A journal named `name` on `ctx`'s backing store. Names are restricted
    /// to `[a-z0-9-]` so they map directly to file names.
    pub fn new(ctx: &EmContext, name: impl Into<String>) -> Result<Self> {
        let name = name.into();
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
        {
            return Err(EmError::config(format!(
                "journal name {name:?} must be non-empty [a-z0-9-]"
            )));
        }
        Ok(Self {
            ctx: ctx.clone(),
            name,
        })
    }

    /// The journal's name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The owning context.
    #[inline]
    pub fn ctx(&self) -> &EmContext {
        &self.ctx
    }

    /// Path of the committed document on the directory backend (`None` in
    /// memory).
    pub fn path(&self) -> Option<PathBuf> {
        self.ctx
            .backing_dir()
            .map(|d| d.join(format!("{}.journal", self.name)))
    }

    fn tmp_path(&self) -> Option<PathBuf> {
        self.ctx
            .backing_dir()
            .map(|d| d.join(format!("{}.journal.tmp", self.name)))
    }

    /// Whether a committed document exists.
    pub fn exists(&self) -> bool {
        match self.path() {
            Some(p) => p.exists(),
            None => self.ctx.journal_get(&self.name).is_some(),
        }
    }

    /// Atomically commit `state`, replacing any previous document. Charges
    /// one [`crate::Counters::journal_writes`].
    pub fn commit<S: JournalState>(&self, state: &S) -> Result<()> {
        let mut body = String::new();
        state.encode(&mut body);
        self.commit_body(S::KIND, S::VERSION, &body)
    }

    /// [`Journal::commit`] for a body already encoded under `kind`/`version`.
    pub(crate) fn commit_body(&self, kind: &str, version: u32, body: &str) -> Result<()> {
        let doc = format!(
            "{MAGIC} {FORMAT} {kind} {version} {} {:016x}\n{body}",
            body.len(),
            block_checksum(body.as_bytes()),
        );
        match (self.path(), self.tmp_path()) {
            (Some(path), Some(tmp)) => {
                {
                    let mut f = std::fs::File::create(&tmp)?;
                    use std::io::Write;
                    f.write_all(doc.as_bytes())?;
                    f.sync_all()?;
                }
                std::fs::rename(&tmp, &path)?;
                // Best-effort directory fsync so the rename itself is
                // durable; simulation correctness does not depend on it.
                if let Some(dir) = self.ctx.backing_dir() {
                    if let Ok(d) = std::fs::File::open(dir) {
                        let _ = d.sync_all();
                    }
                }
            }
            _ => self.ctx.journal_put(&self.name, doc),
        }
        self.ctx.stats().record_journal_write();
        let tracer = self.ctx.tracer();
        if tracer.is_enabled() {
            tracer.point(crate::trace::PointKind::JournalCommit {
                name: self.name.clone(),
            });
        }
        Ok(())
    }

    /// Load and verify the committed document. `Ok(None)` when no document
    /// exists; an error when one exists but fails verification (torn or
    /// corrupt body) or was written in another format (a different kind or
    /// state version, or the `v1` envelope).
    pub fn load<S: JournalState>(&self) -> Result<Option<S>> {
        match self.load_body(S::KIND, S::VERSION)? {
            Some(body) => S::decode(&body).map(Some),
            None => Ok(None),
        }
    }

    /// [`Journal::load`] up to the body: verify the envelope, the expected
    /// `kind`/`version` and the checksum, and return the raw body.
    pub(crate) fn load_body(&self, kind: &str, version: u32) -> Result<Option<String>> {
        let doc = match self.path() {
            Some(p) => match std::fs::read_to_string(&p) {
                Ok(s) => s,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
                Err(e) => return Err(e.into()),
            },
            None => match self.ctx.journal_get(&self.name) {
                Some(s) => s,
                None => return Ok(None),
            },
        };
        let (header, body) = doc.split_once('\n').ok_or_else(|| {
            EmError::config(format!("journal {}: missing header line", self.name))
        })?;
        let fields: Vec<&str> = header.split(' ').collect();
        if fields.len() > 1 && fields[0] == MAGIC && fields[1] == "v1" {
            // A v1 envelope and the block files it references were
            // checksummed with the previous function.
            return Err(self.older_format("an emjournal v1 envelope"));
        }
        if fields.len() != 6 || fields[0] != MAGIC || fields[1] != FORMAT {
            return Err(EmError::config(format!(
                "journal {}: bad header {header:?}",
                self.name
            )));
        }
        // A kind or state version other than the expected one is a document
        // from another encoding: refuse it before its body can misparse.
        if fields[2] != kind || fields[3] != version.to_string() {
            return Err(self.older_format(&format!(
                "a {} v{} document where {kind} v{version} was expected",
                fields[2], fields[3]
            )));
        }
        let len: usize = fields[4]
            .parse()
            .map_err(|_| EmError::config(format!("journal {}: bad body length", self.name)))?;
        let sum = u64::from_str_radix(fields[5], 16)
            .map_err(|_| EmError::config(format!("journal {}: bad checksum", self.name)))?;
        if body.len() != len || block_checksum(body.as_bytes()) != sum {
            return Err(EmError::config(format!(
                "journal {}: body fails verification (torn or corrupt)",
                self.name
            )));
        }
        Ok(Some(body.to_string()))
    }

    fn older_format(&self, found: &str) -> EmError {
        EmError::config(format!(
            "journal {}: {found}, written by an older format; rebuild the store / restart the job",
            self.name
        ))
    }

    /// Remove the committed document (idempotent).
    pub fn remove(&self) -> Result<()> {
        match self.path() {
            Some(p) => {
                match std::fs::remove_file(&p) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e.into()),
                }
                if let Some(tmp) = self.tmp_path() {
                    let _ = std::fs::remove_file(tmp);
                }
            }
            None => self.ctx.journal_remove(&self.name),
        }
        Ok(())
    }
}

/// Hex-encode bytes (journal bodies are text; record payloads embed as hex).
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Decode a [`to_hex`] string.
pub fn from_hex(s: &str) -> Result<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return Err(EmError::config("hex payload has odd length"));
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    for i in (0..s.len()).step_by(2) {
        let byte = u8::from_str_radix(&s[i..i + 2], 16)
            .map_err(|_| EmError::config("hex payload has non-hex digits"))?;
        out.push(byte);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmConfig;

    #[derive(Debug, PartialEq, Eq)]
    struct Demo {
        phase: u64,
        items: Vec<u64>,
    }

    impl JournalState for Demo {
        const KIND: &'static str = "demo";
        const VERSION: u32 = 1;

        fn encode(&self, out: &mut String) {
            out.push_str(&format!("phase {}\n", self.phase));
            for x in &self.items {
                out.push_str(&format!("item {x}\n"));
            }
        }

        fn decode(body: &str) -> Result<Self> {
            let mut phase = 0;
            let mut items = Vec::new();
            for line in body.lines() {
                match line.split_once(' ') {
                    Some(("phase", v)) => phase = v.parse().map_err(|_| EmError::config("p"))?,
                    Some(("item", v)) => items.push(v.parse().map_err(|_| EmError::config("i"))?),
                    _ => return Err(EmError::config(format!("demo: bad line {line:?}"))),
                }
            }
            Ok(Self { phase, items })
        }
    }

    #[test]
    fn roundtrip_memory() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let j = Journal::new(&ctx, "demo-state").unwrap();
        assert!(!j.exists());
        assert!(j.load::<Demo>().unwrap().is_none());
        let s = Demo {
            phase: 3,
            items: vec![10, 20, 30],
        };
        j.commit(&s).unwrap();
        assert!(j.exists());
        assert_eq!(j.load::<Demo>().unwrap().unwrap(), s);
        assert_eq!(ctx.stats().snapshot().journal_writes, 1);
        assert_eq!(ctx.stats().snapshot().total_ios(), 0);
        j.remove().unwrap();
        assert!(!j.exists());
    }

    #[test]
    fn roundtrip_disk_and_atomic_replace() {
        let ctx = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        let j = Journal::new(&ctx, "demo-state").unwrap();
        j.commit(&Demo {
            phase: 1,
            items: vec![],
        })
        .unwrap();
        j.commit(&Demo {
            phase: 2,
            items: vec![5],
        })
        .unwrap();
        let got = j.load::<Demo>().unwrap().unwrap();
        assert_eq!(got.phase, 2);
        assert_eq!(got.items, vec![5]);
        // No stale tmp file survives a successful commit.
        assert!(!j.path().unwrap().with_extension("journal.tmp").exists());
        assert_eq!(ctx.stats().snapshot().journal_writes, 2);
    }

    #[test]
    fn torn_document_is_rejected_not_misparsed() {
        let ctx = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        let j = Journal::new(&ctx, "demo-state").unwrap();
        j.commit(&Demo {
            phase: 9,
            items: vec![1, 2, 3],
        })
        .unwrap();
        let path = j.path().unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        // Simulate a torn write: drop the tail of the body.
        std::fs::write(&path, &doc[..doc.len() - 4]).unwrap();
        assert!(j.load::<Demo>().is_err());
        // And a flipped byte in the body.
        let mut bytes = doc.into_bytes();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x20;
        std::fs::write(&path, bytes).unwrap();
        assert!(j.load::<Demo>().is_err());
    }

    #[test]
    fn v1_document_asks_for_a_rebuild() {
        let ctx = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        let j = Journal::new(&ctx, "demo-state").unwrap();
        j.commit(&Demo {
            phase: 4,
            items: vec![7],
        })
        .unwrap();
        let path = j.path().unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        assert!(doc.starts_with("emjournal v2 demo 1 "));
        // The same document under the old envelope, as an older build
        // would have left it.
        std::fs::write(&path, doc.replacen("emjournal v2", "emjournal v1", 1)).unwrap();
        let msg = match j.load::<Demo>() {
            Err(EmError::Config(msg)) => msg,
            other => panic!("expected a Config error, got {other:?}"),
        };
        assert!(
            msg.contains("written by an older format; rebuild the store / restart the job"),
            "{msg}"
        );
        assert!(!msg.contains("torn or corrupt"), "{msg}");
    }

    #[test]
    fn wrong_kind_and_version_rejected() {
        #[derive(Debug)]
        struct Other;
        impl JournalState for Other {
            const KIND: &'static str = "other";
            const VERSION: u32 = 1;
            fn encode(&self, _out: &mut String) {}
            fn decode(_body: &str) -> Result<Self> {
                Ok(Self)
            }
        }
        #[derive(Debug)]
        struct DemoV2;
        impl JournalState for DemoV2 {
            const KIND: &'static str = "demo";
            const VERSION: u32 = 2;
            fn encode(&self, _out: &mut String) {}
            fn decode(_body: &str) -> Result<Self> {
                Ok(Self)
            }
        }
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let j = Journal::new(&ctx, "demo-state").unwrap();
        j.commit(&Demo {
            phase: 0,
            items: vec![],
        })
        .unwrap();
        assert!(j.load::<Other>().is_err());
        assert!(j.load::<DemoV2>().is_err());
    }

    #[test]
    fn bad_names_rejected() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        assert!(Journal::new(&ctx, "").is_err());
        assert!(Journal::new(&ctx, "Has/Slash").is_err());
        assert!(Journal::new(&ctx, "sort-manifest").is_ok());
    }

    #[test]
    fn hex_roundtrip() {
        let bytes = [0u8, 1, 0xab, 0xff, 42];
        let h = to_hex(&bytes);
        assert_eq!(from_hex(&h).unwrap(), bytes);
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
    }
}
