//! Durable checkpoint journals.
//!
//! A [`Journal`] is a small named metadata document attached to an
//! [`EmContext`], used by recoverable algorithms to persist their manifest
//! state between work units so a crashed run can resume — within the same
//! process or, on the directory backend, from a *different* process that
//! reopens the backing directory.
//!
//! A journal may also keep a **log**: checksummed records appended after
//! the document, so a state that changes a little at a time is journaled
//! as deltas instead of being rewritten whole. The document is then a
//! *snapshot*; its state carries a *generation* number, and the log of
//! that generation holds every change since. Which records are deltas and
//! when to fold them into a fresh snapshot belongs to the caller (the
//! serving layer's splitter index is the one user).
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
//! * **Appends** — [`Journal::append`] adds one length-framed, checksummed
//!   record to `<name>.<generation>.log` and makes it durable with one
//!   `sync_data`: no temp file, no rename, no directory fsync. An append
//!   that returned is durable; one that did not may leave a torn record at
//!   the tail, which [`Journal::read_log`] drops (that append was never
//!   acknowledged) and cuts off, so a later record never sits behind a
//!   torn one.
//! * **Generations** — [`Journal::commit_generation`] starts generation
//!   `g`: it creates `g`'s log empty *before* committing the snapshot, so
//!   the commit's directory fsync covers the log's entry too and a stale
//!   log of that generation can never be replayed behind the new snapshot.
//!   It then unlinks the previous generation's log. Retiring a log is an
//!   unlink and adds no fsync: a log that survives a crash between the
//!   snapshot and the unlink belongs to an older generation, is never
//!   replayed, and is removed by the next [`Journal::read_log`].
//!
//! On the memory backend, committed documents and logs live in the context
//! itself (there is no directory to survive a real process exit); in-process
//! crash/resume works identically on both backends.
//!
//! Journal commits and appends are host-side metadata writes, deliberately
//! outside the block-I/O model: each charges one
//! [`crate::Counters::journal_writes`], not `reads`/`writes`. They are also
//! not subject to the fault plan — the commit protocol itself is the
//! defence (rename atomicity + checksum), and the fault layer models the
//! *data* device, not the metadata store.
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
//! A log is a sequence of records, each framed the same way:
//!
//! ```text
//! emlog <body-bytes> <checksum-hex>\n
//! <body…>
//! ```
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
/// Magic of a log record's header line.
const LOG_MAGIC: &str = "emlog";

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

    /// File name of generation `generation`'s log (also its key on the
    /// memory backend).
    fn log_name(&self, generation: u64) -> String {
        format!("{}.{generation}.log", self.name)
    }

    /// Path of generation `generation`'s log on the directory backend
    /// (`None` in memory).
    pub fn log_path(&self, generation: u64) -> Option<PathBuf> {
        self.ctx
            .backing_dir()
            .map(|d| d.join(self.log_name(generation)))
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
        self.commit_body(S::KIND, S::VERSION, &body).map(drop)
    }

    /// Commit `state` as the snapshot of generation `generation`, whose
    /// state must record that number and which must be newer than every
    /// generation committed before: create the generation's log empty,
    /// commit, then unlink the previous generation's log. Returns the
    /// committed document's size in bytes. Charges one
    /// [`crate::Counters::journal_writes`].
    pub fn commit_generation<S: JournalState>(&self, state: &S, generation: u64) -> Result<u64> {
        match self.log_path(generation) {
            Some(path) => drop(std::fs::File::create(path)?),
            None => self
                .ctx
                .journal_put(&self.log_name(generation), String::new()),
        }
        let mut body = String::new();
        state.encode(&mut body);
        let bytes = self.commit_body(S::KIND, S::VERSION, &body)?;
        if let Some(prev) = generation.checked_sub(1) {
            self.retire_log(prev)?;
        }
        Ok(bytes)
    }

    /// [`Journal::commit`] for a body already encoded under `kind`/`version`;
    /// returns the document's size in bytes.
    pub(crate) fn commit_body(&self, kind: &str, version: u32, body: &str) -> Result<u64> {
        let doc = format!(
            "{MAGIC} {FORMAT} {kind} {version} {} {:016x}\n{body}",
            body.len(),
            block_checksum(body.as_bytes()),
        );
        let bytes = doc.len() as u64;
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
        self.record_write();
        Ok(bytes)
    }

    /// Charge one journal write and trace it.
    fn record_write(&self) {
        let stats = self.ctx.stats();
        stats.add(crate::stats::Counter::JournalWrites, 1);
        if self.ctx.tracer().is_enabled() {
            stats.trace_point(crate::trace::PointKind::JournalCommit {
                name: self.name.clone(),
            });
        }
    }

    /// Append `record` to generation `generation`'s log and make it
    /// durable (one `sync_data`, no rename, no directory fsync: the log's
    /// directory entry was made durable by
    /// [`Journal::commit_generation`]). Returns the bytes appended,
    /// framing included. Charges one [`crate::Counters::journal_writes`].
    ///
    /// A failed append may leave part of its record behind; the next
    /// [`Journal::read_log`] drops it. Until then the caller must not
    /// append to the same log again — it should start a new generation
    /// with [`Journal::commit_generation`].
    pub fn append(&self, generation: u64, record: &str) -> Result<u64> {
        let framed = format!(
            "{LOG_MAGIC} {} {:016x}\n{record}",
            record.len(),
            block_checksum(record.as_bytes()),
        );
        match self.log_path(generation) {
            Some(path) => {
                use std::io::Write;
                let mut f = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?;
                f.write_all(framed.as_bytes())?;
                f.sync_data()?;
            }
            None => self.ctx.journal_append(&self.log_name(generation), &framed),
        }
        self.record_write();
        Ok(framed.len() as u64)
    }

    /// The valid records of generation `generation`'s log, oldest first,
    /// and the log's length in bytes. Records end at the first torn or
    /// failed-checksum one, and the log is cut back to that point so the
    /// next append follows the last valid record. Also removes the
    /// previous generation's log, which a crash between a snapshot and its
    /// predecessor's unlink can leave behind. A missing log is empty.
    pub fn read_log(&self, generation: u64) -> Result<(Vec<String>, u64)> {
        let name = self.log_name(generation);
        let bytes = match self.log_path(generation) {
            Some(p) => match std::fs::read(&p) {
                Ok(b) => b,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
                Err(e) => return Err(e.into()),
            },
            None => self.ctx.journal_get(&name).unwrap_or_default().into_bytes(),
        };
        let (records, valid) = parse_log(&bytes);
        if valid < bytes.len() {
            match self.log_path(generation) {
                Some(p) => std::fs::OpenOptions::new()
                    .write(true)
                    .open(p)?
                    .set_len(valid as u64)?,
                None => {
                    let kept = String::from_utf8_lossy(&bytes[..valid]).into_owned();
                    self.ctx.journal_put(&name, kept);
                }
            }
        }
        if let Some(prev) = generation.checked_sub(1) {
            self.retire_log(prev)?;
        }
        Ok((records, valid as u64))
    }

    /// Remove generation `generation`'s log, if any (an unlink; no fsync).
    fn retire_log(&self, generation: u64) -> Result<()> {
        match self.log_path(generation) {
            Some(p) => match std::fs::remove_file(p) {
                Ok(()) => Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
                Err(e) => Err(e.into()),
            },
            None => {
                self.ctx.journal_remove(&self.log_name(generation));
                Ok(())
            }
        }
    }

    /// Size in bytes of the committed document (0 when none exists).
    pub fn document_len(&self) -> Result<u64> {
        match self.path() {
            Some(p) => match std::fs::metadata(p) {
                Ok(m) => Ok(m.len()),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
                Err(e) => Err(e.into()),
            },
            None => Ok(self
                .ctx
                .journal_get(&self.name)
                .map_or(0, |d| d.len() as u64)),
        }
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

    /// Whether `file` names one of this journal's logs.
    fn is_log_name(&self, file: &str) -> bool {
        file.strip_suffix(".log")
            .and_then(|stem| stem.strip_prefix(self.name.as_str()))
            .and_then(|rest| rest.strip_prefix('.'))
            .is_some_and(|g| !g.is_empty() && g.bytes().all(|b| b.is_ascii_digit()))
    }

    /// Remove the committed document and every log (idempotent).
    pub fn remove(&self) -> Result<()> {
        match (self.path(), self.ctx.backing_dir()) {
            (Some(p), Some(dir)) => {
                match std::fs::remove_file(&p) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e.into()),
                }
                if let Some(tmp) = self.tmp_path() {
                    let _ = std::fs::remove_file(tmp);
                }
                for entry in std::fs::read_dir(dir)? {
                    let entry = entry?;
                    if self.is_log_name(&entry.file_name().to_string_lossy()) {
                        std::fs::remove_file(entry.path())?;
                    }
                }
            }
            _ => {
                self.ctx.journal_remove(&self.name);
                self.ctx.journal_retain(|key, _| !self.is_log_name(key));
            }
        }
        Ok(())
    }
}

/// Split a log into its valid records: returns them, oldest first, with
/// the byte length of the prefix they fill. Parsing stops at the first
/// record whose header, length or checksum does not hold.
fn parse_log(bytes: &[u8]) -> (Vec<String>, usize) {
    let mut records = Vec::new();
    let mut at = 0usize;
    while let Some(nl) = bytes[at..].iter().position(|&b| b == b'\n') {
        let Some((len, sum)) = std::str::from_utf8(&bytes[at..at + nl])
            .ok()
            .and_then(parse_log_header)
        else {
            break;
        };
        let start = at + nl + 1;
        let Some(body) = start.checked_add(len).and_then(|end| bytes.get(start..end)) else {
            break;
        };
        if block_checksum(body) != sum {
            break;
        }
        let Ok(body) = std::str::from_utf8(body) else {
            break;
        };
        records.push(body.to_string());
        at = start + len;
    }
    (records, at)
}

/// `(body bytes, checksum)` of an `emlog` header line.
fn parse_log_header(line: &str) -> Option<(usize, u64)> {
    let mut it = line.split(' ');
    if it.next()? != LOG_MAGIC {
        return None;
    }
    let len = it.next()?.parse().ok()?;
    let sum = u64::from_str_radix(it.next()?, 16).ok()?;
    it.next().is_none().then_some((len, sum))
}

/// Hex-encode bytes (journal bodies are text; record payloads embed as hex).
pub fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(DIGITS[usize::from(b >> 4)] as char);
        s.push(DIGITS[usize::from(b & 0xf)] as char);
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

    #[test]
    fn hex_encodes_every_byte_value_as_before() {
        let all: Vec<u8> = (0..=255).collect();
        let h = to_hex(&all);
        let want: String = all.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(h, want);
        assert_eq!(from_hex(&h).unwrap(), all);
        for b in all {
            assert_eq!(from_hex(&to_hex(&[b])).unwrap(), vec![b]);
        }
    }

    /// A snapshot at generation `phase` with one appended record per item.
    fn snapshot_and_log(j: &Journal, generation: u64, records: &[&str]) -> Vec<u64> {
        let snap = Demo {
            phase: generation,
            items: vec![],
        };
        j.commit_generation(&snap, generation).unwrap();
        records
            .iter()
            .map(|r| j.append(generation, r).unwrap())
            .collect()
    }

    #[test]
    fn log_records_roundtrip_on_the_memory_backend() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let j = Journal::new(&ctx, "demo-state").unwrap();
        assert_eq!(j.read_log(1).unwrap(), (vec![], 0));
        let lens = snapshot_and_log(&j, 1, &["first\n", "", "third line\nwith two\n"]);
        assert_eq!(j.load::<Demo>().unwrap().unwrap().phase, 1);
        let (records, bytes) = j.read_log(1).unwrap();
        assert_eq!(records, vec!["first\n", "", "third line\nwith two\n"]);
        assert_eq!(bytes, lens.iter().sum::<u64>());
        // One snapshot plus three appends, none of them block I/O.
        assert_eq!(ctx.stats().snapshot().journal_writes, 4);
        assert_eq!(ctx.stats().snapshot().total_ios(), 0);
        // A new generation starts an empty log and retires the old one.
        snapshot_and_log(&j, 2, &["next"]);
        assert_eq!(j.read_log(2).unwrap().0, vec!["next"]);
        assert_eq!(j.read_log(1).unwrap().0, Vec::<String>::new());
        j.remove().unwrap();
        assert!(!j.exists());
        assert_eq!(j.read_log(2).unwrap(), (vec![], 0));
    }

    #[test]
    fn log_cut_anywhere_in_its_last_record_replays_the_records_before_it() {
        let ctx = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        let j = Journal::new(&ctx, "demo-state").unwrap();
        let lens = snapshot_and_log(
            &j,
            3,
            &["seg 1 2\n", "mark 7 ab\n", "seg 9 10\nbound 4 cd\n"],
        );
        let path = j.log_path(3).unwrap();
        let full = std::fs::read(&path).unwrap();
        let before_last = (lens[0] + lens[1]) as usize;
        assert_eq!(full.len() as u64, lens.iter().sum::<u64>());
        for cut in before_last..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (records, bytes) = j.read_log(3).unwrap();
            assert_eq!(records, vec!["seg 1 2\n", "mark 7 ab\n"], "cut at {cut}");
            assert_eq!(bytes as usize, before_last);
            assert_eq!(
                std::fs::metadata(&path).unwrap().len() as usize,
                before_last
            );
        }
        // A flipped byte in the last record fails its checksum the same way.
        let mut flipped = full.clone();
        *flipped.last_mut().unwrap() ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        assert_eq!(j.read_log(3).unwrap().0.len(), 2);
        std::fs::write(&path, &full).unwrap();
        assert_eq!(j.read_log(3).unwrap().0.len(), 3);
    }

    #[test]
    fn torn_tail_is_cut_back_before_the_next_append() {
        let ctx = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        let j = Journal::new(&ctx, "demo-state").unwrap();
        let lens = snapshot_and_log(&j, 1, &["one", "two, torn"]);
        let path = j.log_path(1).unwrap();
        let torn = lens[0] + lens[1] / 2;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(torn)
            .unwrap();
        assert_eq!(j.read_log(1).unwrap().0, vec!["one"]);
        j.append(1, "three").unwrap();
        assert_eq!(j.read_log(1).unwrap().0, vec!["one", "three"]);
    }

    #[test]
    fn records_of_another_generation_are_never_replayed() {
        let ctx = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        let j = Journal::new(&ctx, "demo-state").unwrap();
        snapshot_and_log(&j, 1, &["old delta"]);
        let old_log = std::fs::read(j.log_path(1).unwrap()).unwrap();
        // A stale log already sitting under the next generation's name (a
        // crash part-way through a removal, say) is emptied by the commit.
        std::fs::write(j.log_path(2).unwrap(), &old_log).unwrap();
        snapshot_and_log(&j, 2, &[]);
        assert!(!j.log_path(1).unwrap().exists(), "old log retired");
        // A crash between the new snapshot and retiring the old log leaves
        // the old log behind.
        std::fs::write(j.log_path(1).unwrap(), &old_log).unwrap();
        let snap = j.load::<Demo>().unwrap().unwrap();
        assert_eq!(snap.phase, 2);
        assert_eq!(j.read_log(snap.phase).unwrap(), (vec![], 0));
        assert!(!j.log_path(1).unwrap().exists(), "read_log removes it");
    }

    #[test]
    fn gc_keeps_logs_and_remove_deletes_only_its_own() {
        let ctx = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        let j = Journal::new(&ctx, "demo-state").unwrap();
        let other = Journal::new(&ctx, "demo-state-b").unwrap();
        snapshot_and_log(&j, 4, &["a"]);
        snapshot_and_log(&other, 1, &["b"]);
        std::fs::write(j.log_path(9).unwrap(), b"stale").unwrap();
        ctx.gc_orphans(&[]).unwrap();
        assert!(j.log_path(4).unwrap().exists(), "gc must not sweep logs");
        j.remove().unwrap();
        assert!(!j.exists());
        assert!(!j.log_path(4).unwrap().exists());
        assert!(!j.log_path(9).unwrap().exists());
        assert!(other.exists());
        assert_eq!(other.read_log(1).unwrap().0, vec!["b"]);
    }
}
