//! The output representation of partitioning: a *linked list* of file
//! segments per partition, exactly as the paper specifies ("the algorithm
//! is required to output `P_1, …, P_K` in a linked list").
//!
//! Keeping each partition as a list of segments lets the multi-partition
//! recursion *adopt* a whole bucket file as partition content in `O(1)` —
//! no re-streaming — which is what makes the distribution levels cost one
//! read + one write pass each, matching the
//! `O((N/B)·lg_{M/B} K)` bound with a small constant.

use emcore::{EmContext, EmFile, Record, Result, TrackedVec};

/// One ordered partition: the concatenation of its file segments.
/// The relative order of records *within* a partition is unspecified
/// (as in the paper's problem statement).
#[derive(Debug)]
pub struct Partition<T: Record> {
    segments: Vec<EmFile<T>>,
    len: u64,
}

impl<T: Record> Partition<T> {
    /// An empty partition.
    pub fn empty() -> Self {
        Self {
            segments: Vec::new(),
            len: 0,
        }
    }

    /// A partition consisting of one file.
    pub fn from_file(file: EmFile<T>) -> Self {
        let len = file.len();
        Self {
            segments: vec![file],
            len,
        }
    }

    /// Build from a list of segments.
    pub fn from_segments(segments: Vec<EmFile<T>>) -> Self {
        let len = segments.iter().map(|s| s.len()).sum();
        Self { segments, len }
    }

    /// Number of records.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the partition holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The underlying segments, in order.
    pub fn segments(&self) -> &[EmFile<T>] {
        &self.segments
    }

    /// Append a segment (O(1), no I/O).
    pub fn push_segment(&mut self, file: EmFile<T>) {
        self.len += file.len();
        self.segments.push(file);
    }

    /// Take ownership of the segments (O(1), no I/O).
    pub fn into_segments(self) -> Vec<EmFile<T>> {
        self.segments
    }

    /// Visit every record (one block-buffered scan; charges the reads).
    pub fn for_each(&self, mut f: impl FnMut(T) -> Result<()>) -> Result<()> {
        for s in &self.segments {
            let mut r = s.reader()?;
            while let Some(x) = r.next()? {
                f(x)?;
            }
        }
        Ok(())
    }

    /// Materialise into a host `Vec` (charges the read scan).
    pub fn to_vec(&self) -> Result<Vec<T>> {
        let mut out = Vec::with_capacity(self.len as usize);
        self.for_each(|x| {
            out.push(x);
            Ok(())
        })?;
        Ok(out)
    }

    /// Flatten into a single file. Free if the partition already is a
    /// single segment; otherwise one read + one write scan.
    pub fn into_file(self, ctx: &EmContext) -> Result<EmFile<T>> {
        let mut segments = self.segments;
        if segments.len() == 1 {
            if let Some(seg) = segments.pop() {
                return Ok(seg);
            }
        }
        let mut w = ctx.writer::<T>()?;
        for s in &segments {
            let mut r = s.reader()?;
            while let Some(x) = r.next()? {
                w.push(x)?;
            }
        }
        w.finish()
    }
}

/// Total record count of a segment list.
pub fn segs_len<T: Record>(segs: &[EmFile<T>]) -> u64 {
    segs.iter().map(|s| s.len()).sum()
}

/// A sequential reader over a list of file segments, holding one block
/// buffer at a time. Lets every scan primitive operate on a
/// [`Partition`]'s segments without flattening them into one file.
pub struct ChainReader<'a, T: Record> {
    segs: &'a [EmFile<T>],
    idx: usize,
    cur: Option<emcore::Reader<'a, T>>,
}

impl<'a, T: Record> ChainReader<'a, T> {
    /// Reader over `segs`, in order.
    pub fn new(segs: &'a [EmFile<T>]) -> Self {
        Self {
            segs,
            idx: 0,
            cur: None,
        }
    }

    /// The unread records of the current block, as
    /// [`emcore::Reader::fill_buf`]: moves on to the next non-empty
    /// segment when one is used up; an empty slice means the end of the
    /// last segment.
    pub fn fill_buf(&mut self) -> Result<&[T]> {
        loop {
            if let Some(r) = self.cur.as_mut() {
                if !r.fill_buf()?.is_empty() {
                    break;
                }
                self.cur = None; // segment exhausted; free its buffer
            }
            if self.idx >= self.segs.len() {
                return Ok(&[]);
            }
            self.cur = Some(self.segs[self.idx].reader()?);
            self.idx += 1;
        }
        match self.cur.as_mut() {
            Some(r) => r.fill_buf(),
            None => Ok(&[]),
        }
    }

    /// Mark `n` records of the slice last returned by
    /// [`ChainReader::fill_buf`] as read.
    pub fn consume(&mut self, n: usize) {
        if let Some(r) = self.cur.as_mut() {
            r.consume(n);
        }
    }

    /// Next record, or `None` at the end of the last segment.
    // Fallible streaming, deliberately not Iterator (whose `next` cannot
    // surface `EmError`).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<T>> {
        let rec = self.fill_buf()?.first().copied();
        if rec.is_some() {
            self.consume(1);
        }
        Ok(rec)
    }

    /// Append up to `limit` more records to `out`, a block at a time.
    /// Returns how many were appended: fewer than `limit` only at the end
    /// of the last segment.
    pub(crate) fn read_into(&mut self, out: &mut TrackedVec<T>, limit: usize) -> Result<usize> {
        let mut got = 0;
        while got < limit {
            let chunk = self.fill_buf()?;
            if chunk.is_empty() {
                break;
            }
            let take = chunk.len().min(limit - got);
            out.try_extend_from_slice(&chunk[..take])?;
            self.consume(take);
            got += take;
        }
        Ok(got)
    }

    /// Call `f` on every remaining record, one block slice at a time.
    pub(crate) fn for_each_slice(&mut self, mut f: impl FnMut(&[T]) -> Result<()>) -> Result<()> {
        loop {
            let chunk = self.fill_buf()?;
            if chunk.is_empty() {
                return Ok(());
            }
            let n = chunk.len();
            f(chunk)?;
            self.consume(n);
        }
    }
}

/// Every record of `segs` in one tracked buffer of exactly their count,
/// loaded a block at a time. The scan's reader is released on return.
pub(crate) fn load_segs<T: Record>(
    ctx: &EmContext,
    segs: &[EmFile<T>],
    context: &str,
) -> Result<TrackedVec<T>> {
    let n = segs_len(segs) as usize;
    let mut buf = ctx.try_tracked_vec::<T>(n, context)?;
    ChainReader::new(segs).read_into(&mut buf, n)?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use emcore::EmConfig;

    fn ctx() -> EmContext {
        EmContext::new_in_memory(EmConfig::tiny())
    }

    #[test]
    fn chain_reader_spans_segments() {
        let c = ctx();
        let a = EmFile::from_slice(&c, &[1u64, 2]).unwrap();
        let b = c.create_file::<u64>().unwrap(); // empty middle segment
        let d = EmFile::from_slice(&c, &[3u64, 4, 5]).unwrap();
        let segs = vec![a, b, d];
        assert_eq!(segs_len(&segs), 5);
        let mut r = ChainReader::new(&segs);
        let mut got = Vec::new();
        while let Some(x) = r.next().unwrap() {
            got.push(x);
        }
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn chain_reader_slices_skip_an_empty_middle_segment() {
        let c = EmContext::new_in_memory_strict(EmConfig::tiny()); // B = 16
        let a = EmFile::from_slice(&c, &(0..20u64).collect::<Vec<_>>()).unwrap();
        let b = c.create_file::<u64>().unwrap();
        let d = EmFile::from_slice(&c, &(20..23u64).collect::<Vec<_>>()).unwrap();
        let segs = vec![a, b, d];
        let before = c.stats().snapshot();
        let mut r = ChainReader::new(&segs);
        let mut lens = Vec::new();
        loop {
            let s = r.fill_buf().unwrap();
            if s.is_empty() {
                break;
            }
            // One block buffer is live at a time, the empty segment's too.
            assert_eq!(c.mem().current(), 16);
            lens.push(s.len());
            let n = s.len();
            r.consume(n);
        }
        assert_eq!(lens, vec![16, 4, 3]);
        assert!(r.fill_buf().unwrap().is_empty());
        assert_eq!(c.stats().snapshot().since(&before).reads, 3);
        drop(r);
        assert_eq!(c.mem().current(), 0);

        // Bounded loads stop mid-block and pick up where they stopped;
        // slices visit the rest in order.
        let mut r = ChainReader::new(&segs);
        let mut buf = c.try_tracked_vec::<u64>(18, "test load").unwrap();
        assert_eq!(r.read_into(&mut buf, 18).unwrap(), 18);
        assert_eq!(r.next().unwrap(), Some(18));
        let mut rest = Vec::new();
        r.for_each_slice(|s| {
            rest.extend_from_slice(s);
            Ok(())
        })
        .unwrap();
        assert_eq!(*buf, (0..18u64).collect::<Vec<_>>());
        assert_eq!(rest, (19..23u64).collect::<Vec<_>>());
        assert_eq!(r.read_into(&mut buf, 5).unwrap(), 0);
    }

    #[test]
    fn load_segs_reads_each_block_once_and_frees_its_reader() {
        let c = EmContext::new_in_memory_strict(EmConfig::tiny());
        let a = EmFile::from_slice(&c, &(0..40u64).collect::<Vec<_>>()).unwrap();
        let b = EmFile::from_slice(&c, &(40..45u64).collect::<Vec<_>>()).unwrap();
        let segs = vec![a, b];
        let before = c.stats().snapshot();
        let buf = load_segs(&c, &segs, "test load").unwrap();
        assert_eq!(*buf, (0..45u64).collect::<Vec<_>>());
        assert_eq!(c.stats().snapshot().since(&before).reads, 4);
        assert_eq!(c.mem().current(), 45, "only the load stays charged");
    }

    #[test]
    fn chain_reader_empty_list() {
        let mut r = ChainReader::<u64>::new(&[]);
        assert_eq!(r.next().unwrap(), None);
    }

    #[test]
    fn empty_partition() {
        let p = Partition::<u64>::empty();
        assert!(p.is_empty());
        assert!(p.to_vec().unwrap().is_empty());
    }

    #[test]
    fn segments_concatenate() {
        let c = ctx();
        let a = EmFile::from_slice(&c, &[1u64, 2]).unwrap();
        let b = EmFile::from_slice(&c, &[3u64]).unwrap();
        let p = Partition::from_segments(vec![a, b]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.to_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(p.segments().len(), 2);
    }

    #[test]
    fn push_segment_updates_len() {
        let c = ctx();
        let mut p = Partition::from_file(EmFile::from_slice(&c, &[9u64]).unwrap());
        p.push_segment(EmFile::from_slice(&c, &[8u64, 7]).unwrap());
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn into_file_single_segment_is_free() {
        let c = ctx();
        let f = EmFile::from_slice(&c, &(0..100u64).collect::<Vec<_>>()).unwrap();
        let p = Partition::from_file(f);
        let before = c.stats().snapshot();
        let back = p.into_file(&c).unwrap();
        assert_eq!(c.stats().snapshot(), before, "single segment must not copy");
        assert_eq!(back.len(), 100);
    }

    #[test]
    fn into_file_multi_segment_copies() {
        let c = ctx();
        let a = EmFile::from_slice(&c, &[1u64, 2]).unwrap();
        let b = EmFile::from_slice(&c, &[3u64]).unwrap();
        let p = Partition::from_segments(vec![a, b]);
        let f = p.into_file(&c).unwrap();
        assert_eq!(f.to_vec().unwrap(), vec![1, 2, 3]);
    }
}
