//! Crash-recoverable jobs and the [`WorkLedger`] they checkpoint through.
//!
//! Four jobs in the workspace are short sequences of work units of
//! `O(N/B)` I/Os each: external sort (`emsort`: sorted runs, then merge
//! groups), multi-selection (`emselect`: the partition prepass, then one
//! base case per rank group), approximate partitioning (`apsplit`: one
//! split-tree node per unit) and semi-external label propagation
//! (`emgraph`: one round per unit). Each one redoes at most its in-flight
//! unit after a crash.
//!
//! Everything about that which is not the algorithm lives here, once:
//!
//! * a [`WorkLedger`] owns the durable [`Journal`], the input identity
//!   ([`InputId`], bound on the first run and checked on every later one),
//!   the done flag, the checkpoint counter, redo detection and rework
//!   accounting per unit ([`WorkLedger::begin_unit`] /
//!   [`WorkLedger::end_unit`]), and the cross-process
//!   [`WorkLedger::load`], which verifies the journal and sweeps orphans;
//! * a [`Manifest`] is a job's algorithm state plus its ledger. It only
//!   says how its state is written into a [`LedgerDoc`]; the commit
//!   ordering ([`Manifest::checkpoint`]) and [`Manifest::describe`] are
//!   provided;
//! * a [`RecoverableJob`] pairs a manifest with the input it runs over,
//!   and [`run_recoverable`] is the one entry point that starts or resumes
//!   it:
//!
//! ```text
//! let mut job = SortJob::new(&input, &mut manifest);
//! let out = emcore::run_recoverable(input.ctx(), &mut job)?;
//! ```
//!
//! ## Commit ordering
//!
//! A checkpoint first marks every file the new document references
//! persistent, then commits the document, and only then releases the
//! files the unit retired. A crash at any point therefore leaves a
//! committed document whose files all survive on storage.
//!
//! ## Document format
//!
//! The ledger's body (inside the [`Journal`] envelope, kind = journal name,
//! state version 2) is one field per line, tagged by type:
//!
//! ```text
//! f input 7 4096          file list: (id, len) pairs — always the input first
//! n vertices 100          numbers (only for a graph input)
//! n checkpoints 9
//! n consumed 1234         …then the manifest's own fields
//! f runs 8 224 9 224
//! x answers 2a00000000000000
//! ```
//!
//! `n` lines hold u64s, `f` lines hold `(id, len)` file pairs, `x` lines
//! hold one hex payload (record bytes). A name may repeat; readers see the
//! lines in order. The files to keep when sweeping orphans are exactly the
//! ids on `f` lines.

use std::fmt;
use std::fmt::Write as _;

use crate::ctx::EmContext;
use crate::error::{EmError, Result};
use crate::file::EmFile;
use crate::journal::{from_hex, to_hex, Journal};
use crate::record::Record;
use crate::stats::{Counters, IoStats, PhaseGuard};

/// State version of every ledger document. Version 1 was the per-job
/// encoding that preceded the ledger; [`Journal`] refuses it as an older
/// format.
const LEDGER_VERSION: u32 = 2;

/// What a job runs over: the input file's `(id, len)` and, for a graph, its
/// vertex count. A ledger binds this on the first run and refuses to
/// resume against anything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputId {
    /// Input file id.
    pub id: u64,
    /// Input length in records.
    pub len: u64,
    /// Vertex-id space of a graph input; `None` for plain record files.
    pub vertices: Option<u64>,
}

impl InputId {
    /// The identity of a plain input file.
    pub fn of<T: Record>(file: &EmFile<T>) -> Self {
        Self {
            id: file.id(),
            len: file.len(),
            vertices: None,
        }
    }
}

impl fmt::Display for InputId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(id {}, len {}", self.id, self.len)?;
        if let Some(v) = self.vertices {
            write!(f, ", vertices {v}")?;
        }
        write!(f, ")")
    }
}

/// The checkpoint bookkeeping every recoverable job shares; see the
/// [module docs](self).
#[derive(Debug)]
pub struct WorkLedger {
    journal: Journal,
    input: Option<InputId>,
    done: bool,
    /// Committed checkpoints so far.
    checkpoints: u64,
    /// Checkpoint index of the unit currently (or last) being executed:
    /// when a unit starts and this already equals `checkpoints`, the unit
    /// redoes one a crash interrupted.
    in_flight: Option<u64>,
    /// Largest I/O cost of any single completed unit (the empirical
    /// rework bound a crash can force).
    max_unit_ios: u64,
}

/// A work unit in progress; hand it back to [`WorkLedger::end_unit`]. Holds
/// the unit's trace span, so redo points and commits land inside it.
#[must_use = "a unit is accounted only when passed to WorkLedger::end_unit"]
#[derive(Debug)]
pub struct Unit<'c> {
    redo: bool,
    before: Counters,
    stats: &'c IoStats,
    _span: PhaseGuard<'c>,
}

impl WorkLedger {
    /// A fresh ledger checkpointing to the journal `name` on `ctx`, with
    /// `input` bound up front or (`None`) on the first run.
    pub fn new(ctx: &EmContext, name: &str, input: Option<InputId>) -> Self {
        Self {
            journal: Journal::new(ctx, name).expect("valid journal name"),
            input,
            done: false,
            checkpoints: 0,
            in_flight: None,
            max_unit_ios: 0,
        }
    }

    /// Reload an interrupted job's ledger from `ctx`'s backing directory:
    /// verify the journal `name`, then garbage-collect every block file it
    /// does not reference (its file lists, the input included) and any
    /// stale journal temp file. Returns the ledger and the document, from
    /// which the manifest reopens its files; `Ok(None)` when no journal
    /// exists.
    ///
    /// The sweep assumes one recoverable job per backing directory.
    /// Requires a directory-backed context: memory-backed block files
    /// cannot outlive their context.
    pub fn load(ctx: &EmContext, name: &str) -> Result<Option<(Self, LedgerDoc)>> {
        if ctx.backing_dir().is_none() {
            return Err(EmError::config(format!(
                "{name}: cross-process resume requires a directory-backed context"
            )));
        }
        let journal = Journal::new(ctx, name)?;
        let Some(body) = journal.load_body(name, LEDGER_VERSION)? else {
            return Ok(None);
        };
        let doc = LedgerDoc::parse(&body)?;
        ctx.gc_orphans(&doc.file_ids())?;
        let input = match doc.files("input")[..] {
            [] => None,
            [(id, len)] => Some(InputId {
                id,
                len,
                vertices: doc.nums("vertices").first().copied(),
            }),
            _ => return Err(EmError::config(format!("{name}: several input files"))),
        };
        let ledger = Self {
            journal,
            input,
            done: false,
            checkpoints: doc.num("checkpoints")?,
            in_flight: None,
            max_unit_ios: 0,
        };
        Ok(Some((ledger, doc)))
    }

    /// The bound input identity, once known.
    pub fn input(&self) -> Option<InputId> {
        self.input
    }

    /// Whether the job completed and yielded its output.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Committed checkpoints so far.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// Largest I/O cost of any single unit completed through this ledger
    /// value — the empirical bound on crash rework.
    pub fn max_unit_ios(&self) -> u64 {
        self.max_unit_ios
    }

    /// Refuse a completed job, then bind `input` (first run) or check it
    /// against the bound identity.
    fn admit(&mut self, input: InputId) -> Result<()> {
        let name = self.journal.name();
        if self.done {
            return Err(EmError::config(format!(
                "{name}: manifest already completed; create a fresh one"
            )));
        }
        match self.input {
            None => self.input = Some(input),
            Some(bound) if bound != input => {
                return Err(EmError::config(format!(
                    "{name}: manifest belongs to input {bound}, got {input}"
                )))
            }
            Some(_) => {}
        }
        Ok(())
    }

    /// Begin a work unit: note whether it redoes one a crash interrupted,
    /// snapshot the counters, and open its trace span (`span` receives the
    /// checkpoint index and is only called when tracing is on).
    pub fn begin_unit<'c>(
        &mut self,
        ctx: &'c EmContext,
        span: impl FnOnce(u64) -> String,
    ) -> Unit<'c> {
        let redo = self.in_flight == Some(self.checkpoints);
        self.in_flight = Some(self.checkpoints);
        let stats = ctx.stats();
        let before = stats.snapshot();
        let cp = self.checkpoints;
        Unit {
            redo,
            before,
            stats,
            _span: stats.trace_span(|| span(cp)),
        }
    }

    /// Account a completed unit's I/O, charging it as rework if it was a
    /// redo, and close its span.
    pub fn end_unit(&mut self, unit: Unit<'_>) {
        let spent = unit.stats.snapshot().since(&unit.before).total_ios();
        self.max_unit_ios = self.max_unit_ios.max(spent);
        if unit.redo {
            unit.stats.record_redone_ios(spent);
        }
    }

    /// Mark the job complete and remove its journal. Outputs leave the
    /// manifest's custody: the caller restores their delete-on-drop.
    pub fn finish(&mut self) -> Result<()> {
        self.done = true;
        self.journal.remove()
    }

    fn write_header(&self, doc: &mut LedgerDoc) {
        if let Some(input) = self.input {
            doc.push_line("f", "input", [input.id, input.len].into_iter());
            if let Some(v) = input.vertices {
                doc.push_num("vertices", v);
            }
        }
        doc.push_num("checkpoints", self.checkpoints);
    }
}

/// A job's algorithm state checkpointed through a [`WorkLedger`]. An
/// implementation only writes its fields; ordering and encoding are the
/// ledger's.
pub trait Manifest {
    /// Record type of the files the manifest owns.
    type Record: Record;

    /// The manifest's ledger.
    fn ledger(&self) -> &WorkLedger;

    /// The manifest's ledger, mutably.
    fn ledger_mut(&mut self) -> &mut WorkLedger;

    /// Write the algorithm state: every file the state references must
    /// appear in a [`LedgerDoc::push_files`] list.
    fn write_state(&self, doc: &mut LedgerDoc);

    /// Record a completed work unit: mark every file the new document
    /// references persistent, commit the document, then release `retired`
    /// — files the unit took out of the state (they delete on drop).
    fn checkpoint(&mut self, retired: Vec<EmFile<Self::Record>>) -> Result<()> {
        self.ledger_mut().checkpoints += 1;
        let doc = document(self, true);
        let journal = &self.ledger().journal;
        journal.commit_body(journal.name(), LEDGER_VERSION, doc.body())?;
        for f in &retired {
            f.set_persistent(false);
        }
        Ok(())
    }

    /// A human-readable snapshot: the journal name and version, then the
    /// document body a checkpoint would commit now.
    fn describe(&self) -> String {
        let name = self.ledger().journal.name();
        format!("{name} v{LEDGER_VERSION}\n{}", document(self, false).body())
    }
}

fn document<M: Manifest + ?Sized>(m: &M, persist: bool) -> LedgerDoc {
    let mut doc = LedgerDoc {
        persist,
        ..LedgerDoc::default()
    };
    m.ledger().write_header(&mut doc);
    m.write_state(&mut doc);
    doc
}

/// The ledger's line-oriented document body; see the [module
/// docs](self#document-format).
#[derive(Debug, Default)]
pub struct LedgerDoc {
    body: String,
    /// Mark files persistent as they are written (set when committing).
    persist: bool,
}

impl LedgerDoc {
    /// Append a one-number line.
    pub fn push_num(&mut self, name: &str, v: u64) {
        self.push_line("n", name, [v].into_iter());
    }

    /// Append a line of numbers.
    pub fn push_nums(&mut self, name: &str, vs: &[u64]) {
        self.push_line("n", name, vs.iter().copied());
    }

    /// Append a file list. When committing, each file is marked persistent
    /// first, so the document never references a file that can vanish.
    pub fn push_files<T: Record>(&mut self, name: &str, files: &[EmFile<T>]) {
        if self.persist {
            for f in files {
                f.set_persistent(true);
            }
        }
        self.push_line("f", name, files.iter().flat_map(|f| [f.id(), f.len()]));
    }

    /// Append a hex payload (e.g. the byte encoding of records).
    pub fn push_hex(&mut self, name: &str, bytes: &[u8]) {
        let _ = writeln!(self.body, "x {name} {}", to_hex(bytes));
    }

    fn push_line(&mut self, tag: &str, name: &str, values: impl Iterator<Item = u64>) {
        let _ = write!(self.body, "{tag} {name}");
        for v in values {
            let _ = write!(self.body, " {v}");
        }
        self.body.push('\n');
    }

    /// The values on every `tag` line named `name` (any name if `None`),
    /// in order. Lines are well formed: built by a push or checked by
    /// [`LedgerDoc::parse`].
    fn values<'a>(&'a self, tag: &'a str, name: Option<&'a str>) -> impl Iterator<Item = u64> + 'a {
        self.body
            .lines()
            .filter_map(move |line| {
                let mut toks = line.split(' ');
                let hit = toks.next() == Some(tag) && name.is_none_or(|n| toks.next() == Some(n));
                hit.then_some(toks.skip(usize::from(name.is_none())))
            })
            .flatten()
            .filter_map(|t| t.parse().ok())
    }

    /// Every number on the lines named `name`, in order.
    pub fn nums(&self, name: &str) -> Vec<u64> {
        self.values("n", Some(name)).collect()
    }

    /// The single number on the line named `name`.
    pub fn num(&self, name: &str) -> Result<u64> {
        match self.nums(name)[..] {
            [v] => Ok(v),
            _ => Err(EmError::config(format!(
                "ledger document: expected one number for {name:?}"
            ))),
        }
    }

    /// Every `(id, len)` pair on the file lists named `name`, in order.
    pub fn files(&self, name: &str) -> Vec<(u64, u64)> {
        let flat: Vec<u64> = self.values("f", Some(name)).collect();
        flat.chunks(2).map(|p| (p[0], p[1])).collect()
    }

    /// Reopen the files listed under `name` on `ctx` (persistent handles).
    pub fn open<T: Record>(&self, ctx: &EmContext, name: &str) -> Result<Vec<EmFile<T>>> {
        self.files(name)
            .into_iter()
            .map(|(id, len)| ctx.open_file::<T>(id, len))
            .collect()
    }

    /// Ids of every file the document references.
    fn file_ids(&self) -> Vec<u64> {
        self.values("f", None).step_by(2).collect()
    }

    /// The text form.
    pub(crate) fn body(&self) -> &str {
        &self.body
    }

    /// Check and adopt a [`LedgerDoc::body`]; any malformed line is an
    /// error.
    pub(crate) fn parse(body: &str) -> Result<Self> {
        for line in body.lines() {
            let bad = || EmError::config(format!("ledger document: bad line {line:?}"));
            let toks: Vec<&str> = line.split(' ').collect();
            let numeric = toks.iter().skip(2).all(|t| t.parse::<u64>().is_ok());
            let ok = match toks[..] {
                ["n", _, ..] => numeric,
                ["f", _, ..] => numeric && toks.len().is_multiple_of(2),
                ["x", _, hex] => from_hex(hex).is_ok(),
                _ => false,
            };
            if !ok {
                return Err(bad());
            }
        }
        Ok(Self {
            body: body.to_string(),
            persist: false,
        })
    }
}

/// A checkpointed, resumable job over an [`EmContext`]: a [`Manifest`]'s
/// ledger plus the input the job was built with.
pub trait RecoverableJob {
    /// What a completed job yields.
    type Output;

    /// The ledger of the job's manifest.
    fn ledger(&mut self) -> &mut WorkLedger;

    /// The identity of the input this job value runs over.
    fn input(&self) -> InputId;

    /// Continue from the last durable checkpoint until completion or the
    /// next terminal error. Only the interrupted unit is redone on the
    /// next call.
    fn drive(&mut self, ctx: &EmContext) -> Result<Self::Output>;
}

/// Drive `job` forward on `ctx` from wherever its manifest left off,
/// until completion or the next terminal error.
///
/// Idempotent over failures: call once to start, and call again with the
/// same manifest after handling an error (e.g. clearing a simulated crash
/// with [`crate::FaultPlan::clear_crash`]) — only the interrupted work
/// unit is redone.
///
/// # Errors
///
/// Fails fast (before any I/O) if the job already completed or its
/// manifest belongs to a different input; otherwise propagates the job's
/// own terminal errors.
pub fn run_recoverable<J: RecoverableJob>(ctx: &EmContext, job: &mut J) -> Result<J::Output> {
    let input = job.input();
    job.ledger().admit(input)?;
    job.drive(ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmConfig;

    /// A manifest owning a list of files; each unit reads the input once.
    struct Fake {
        ledger: WorkLedger,
        files: Vec<EmFile<u64>>,
    }

    impl Manifest for Fake {
        type Record = u64;
        fn ledger(&self) -> &WorkLedger {
            &self.ledger
        }
        fn ledger_mut(&mut self) -> &mut WorkLedger {
            &mut self.ledger
        }
        fn write_state(&self, doc: &mut LedgerDoc) {
            doc.push_files("files", &self.files);
        }
    }

    struct FakeJob<'a> {
        input: &'a EmFile<u64>,
        m: &'a mut Fake,
        /// Fail the next drive after its first unit's I/O.
        crash: bool,
    }

    impl RecoverableJob for FakeJob<'_> {
        type Output = u64;
        fn ledger(&mut self) -> &mut WorkLedger {
            &mut self.m.ledger
        }
        fn input(&self) -> InputId {
            InputId::of(self.input)
        }
        fn drive(&mut self, ctx: &EmContext) -> Result<u64> {
            while self.m.ledger.checkpoints() < 2 {
                let unit = self
                    .m
                    .ledger
                    .begin_unit(ctx, |cp| format!("unit/fake#{cp}"));
                let copy = EmFile::from_slice(ctx, &self.input.to_vec()?)?;
                if std::mem::take(&mut self.crash) {
                    return Err(EmError::Crashed);
                }
                self.m.files.push(copy);
                self.m.checkpoint(Vec::new())?;
                self.m.ledger.end_unit(unit);
            }
            self.m.ledger.finish()?;
            Ok(self.m.files.len() as u64)
        }
    }

    fn fake(ctx: &EmContext) -> Fake {
        Fake {
            ledger: WorkLedger::new(ctx, "fake-manifest", None),
            files: Vec::new(),
        }
    }

    #[test]
    fn runs_and_binds_fresh_job() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let input = EmFile::from_slice(&ctx, &[1u64, 2, 3]).unwrap();
        let mut m = fake(&ctx);
        let mut job = FakeJob {
            input: &input,
            m: &mut m,
            crash: false,
        };
        assert_eq!(run_recoverable(&ctx, &mut job).unwrap(), 2);
        assert_eq!(m.ledger.input(), Some(InputId::of(&input)));
        assert!(m.ledger.is_done());
        assert_eq!(m.ledger.checkpoints(), 2);
        assert_eq!(ctx.stats().snapshot().journal_writes, 2);
    }

    #[test]
    fn refuses_completed_job() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let input = EmFile::from_slice(&ctx, &[1u64]).unwrap();
        let mut m = fake(&ctx);
        let run = |m: &mut Fake| {
            let mut job = FakeJob {
                input: &input,
                m,
                crash: false,
            };
            run_recoverable(&ctx, &mut job)
        };
        run(&mut m).unwrap();
        let err = run(&mut m).unwrap_err();
        assert!(err.to_string().contains("already completed"), "{err}");
        assert_eq!(
            m.ledger.checkpoints(),
            2,
            "a completed job must not be driven"
        );
    }

    #[test]
    fn refuses_wrong_input() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let input = EmFile::from_slice(&ctx, &[1u64, 2]).unwrap();
        let other = EmFile::from_slice(&ctx, &[1u64, 2, 3]).unwrap();
        let mut m = Fake {
            ledger: WorkLedger::new(&ctx, "fake-manifest", Some(InputId::of(&input))),
            files: Vec::new(),
        };
        let mut job = FakeJob {
            input: &other,
            m: &mut m,
            crash: false,
        };
        let err = run_recoverable(&ctx, &mut job).unwrap_err();
        assert!(err.to_string().contains("belongs to input"), "{err}");
        assert_eq!(m.ledger.checkpoints(), 0);
        // A graph identity differs from a plain one on the vertex count.
        let graph = InputId {
            vertices: Some(9),
            ..InputId::of(&input)
        };
        assert_ne!(graph, InputId::of(&input));
        assert_eq!(
            graph.to_string(),
            format!("(id {}, len 2, vertices 9)", input.id())
        );
    }

    #[test]
    fn redo_charges_redone_ios_and_bounds_max_unit() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let input = EmFile::from_slice(&ctx, &(0..64u64).collect::<Vec<_>>()).unwrap();
        let mut m = fake(&ctx);
        let mut job = FakeJob {
            input: &input,
            m: &mut m,
            crash: true,
        };
        assert!(matches!(
            run_recoverable(&ctx, &mut job),
            Err(EmError::Crashed)
        ));
        assert_eq!(ctx.stats().snapshot().redone_ios, 0);
        run_recoverable(&ctx, &mut job).unwrap();
        // 64 records = 4 blocks read + 4 written per unit; only the first
        // unit after the crash is a redo.
        assert_eq!(m.ledger.max_unit_ios(), 8);
        assert_eq!(ctx.stats().snapshot().redone_ios, 8);
    }

    #[test]
    fn codec_roundtrips_every_field_kind() {
        let ctx = EmContext::new_in_memory(EmConfig::tiny());
        let a = EmFile::from_slice(&ctx, &[1u64, 2]).unwrap();
        let b = EmFile::from_slice(&ctx, &[3u64]).unwrap();
        let mut doc = LedgerDoc::default();
        doc.push_num("round", 5);
        doc.push_nums("moves", &[40, 12, 0]);
        doc.push_nums("empty", &[]);
        doc.push_files("none", &Vec::<EmFile<u64>>::new());
        doc.push_files("part", &[a]);
        doc.push_files("part", &[b]);
        doc.push_hex("answers", &[0x2a, 0, 0xff]);
        doc.push_hex("blank", &[]);
        let back = LedgerDoc::parse(doc.body()).unwrap();
        assert_eq!(back.body(), doc.body());
        assert_eq!(back.num("round").unwrap(), 5);
        assert_eq!(back.nums("moves"), vec![40, 12, 0]);
        assert!(back.nums("empty").is_empty());
        assert!(back.files("none").is_empty());
        assert_eq!(back.files("part").len(), 2);
        assert_eq!(back.files("part")[0].1, 2);
        assert!(back.body().contains("x answers 2a00ff\nx blank \n"));
        assert_eq!(back.file_ids().len(), 2);
        assert!(back.num("moves").is_err(), "three numbers are not one");
        assert!(back.num("part").is_err(), "a file list is not a number");
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for body in [
            "round 5\n",
            "n\n",
            "n round five\n",
            "f runs 8\n",
            "x answers zz\n",
            "x answers 00 11\n",
            "q round 1\n",
        ] {
            let err = LedgerDoc::parse(body).unwrap_err();
            assert!(err.to_string().contains("bad line"), "{body:?}: {err}");
        }
    }

    #[test]
    fn load_keeps_referenced_files_and_sweeps_orphans() {
        let ctx = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        let dir = ctx.backing_dir().unwrap().to_path_buf();
        let input = EmFile::from_slice(&ctx, &[7u64; 40]).unwrap();
        let mut m = fake(&ctx);
        m.ledger.admit(InputId::of(&input)).unwrap();
        m.files
            .push(EmFile::from_slice(&ctx, &[1u64, 2, 3]).unwrap());
        m.checkpoint(Vec::new()).unwrap();
        let kept = m.files[0].id();
        assert!(m.files[0].persistent(), "committed files are persistent");
        // What a crash can leave behind: an unreferenced block file and a
        // torn journal commit.
        let orphan = EmFile::from_slice(&ctx, &[9u64]).unwrap();
        orphan.set_persistent(true);
        let orphan_id = orphan.id();
        drop((m, orphan));
        std::fs::write(dir.join("fake-manifest.journal.tmp"), b"torn").unwrap();

        let (ledger, doc) = WorkLedger::load(&ctx, "fake-manifest").unwrap().unwrap();
        assert_eq!(ledger.input(), Some(InputId::of(&input)));
        assert_eq!(ledger.checkpoints(), 1);
        let ids = ctx.list_file_ids().unwrap();
        assert!(ids.contains(&input.id()) && ids.contains(&kept), "{ids:?}");
        assert!(!ids.contains(&orphan_id), "orphan swept: {ids:?}");
        assert!(!dir.join("fake-manifest.journal.tmp").exists());
        let files = doc.open::<u64>(&ctx, "files").unwrap();
        assert_eq!(files[0].to_vec().unwrap(), vec![1, 2, 3]);
        files[0].set_persistent(false);

        assert!(WorkLedger::load(&ctx, "no-such-manifest")
            .unwrap()
            .is_none());
        let mem = EmContext::new_in_memory(EmConfig::tiny());
        assert!(WorkLedger::load(&mem, "fake-manifest").is_err());
    }

    #[test]
    fn pre_ledger_manifest_asks_for_a_restart() {
        let ctx = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
        // A sort manifest as the per-job encoding wrote it: state version 1
        // inside the current envelope.
        let old = "consumed 224\nformed false\nfan_in 6\ncheckpoints 1\ninput 0 1000\nrun 1 224\n";
        Journal::new(&ctx, "sort-manifest")
            .unwrap()
            .commit_body("sort-manifest", 1, old)
            .unwrap();
        let msg = WorkLedger::load(&ctx, "sort-manifest")
            .unwrap_err()
            .to_string();
        assert!(
            msg.contains("written by an older format; rebuild the store / restart the job"),
            "{msg}"
        );
        assert!(!msg.contains("bad line"), "{msg}");
    }
}
