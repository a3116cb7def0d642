//! Chunked copy-on-write element storage with index segments: the
//! snapshot enabler.
//!
//! Transaction time is append-only (§2: elements are entered in
//! time-stamp order and never physically removed by updates), so a reader
//! pinned at tick `t` sees an immutable prefix of the element sequence.
//! [`ChunkedElements`] makes that prefix *cheap to hand out*: elements
//! live in fixed-capacity chunks behind [`Arc`]s, and
//! [`ChunkedElements::snapshot`] clones the chunk pointers — not the
//! elements — plus a bounded copy of the open tail chunk. Logical
//! deletion (the only in-place mutation the model permits) goes through
//! [`Arc::make_mut`], so a writer touching a chunk some snapshot still
//! holds pays one chunk-sized copy and never disturbs the reader.
//!
//! A sealed chunk never gains or loses an element, and neither an
//! element's valid time nor its object ever changes (deletion only sets
//! `tt_d`; modification is delete + insert). So the indexes over a sealed
//! chunk are built once, when it seals, and stay valid forever — across
//! copy-on-write too, since they hold positions, not element copies.
//! Each immutable *index segment* holds:
//!
//! * a valid-time key chosen from the schema ([`VtKey::for_schema`], via
//!   [`select_index`]): sorted `(vt, position)` pairs for event stamps, or
//!   an [`IntervalIndex`] over positions for interval stamps;
//! * sorted `(object, position)` pairs.
//!
//! Segments merge binary-counter style — they cover 1, 2, 4, … chunks —
//! so a relation of `c` sealed chunks has at most `log₂ c + 1` segments
//! and a probe makes that many binary searches. The open tail keeps its
//! elements' keys in a compact array that probes scan (at most
//! [`CHUNK_CAP`] entries), shared with snapshots copy-on-write.
//!
//! The result, [`ElementChunks`], is an immutable view that outlives any
//! lock: snapshot queries execute against it — probes included — without
//! blocking ingest, and ingest never blocks them.

use std::ops::Range;
use std::sync::Arc;

use tempora_core::{Element, ObjectId, RelationSchema, ValidTime};
use tempora_index::{select_index, IndexChoice, IntervalIndex};
use tempora_time::{Interval, TimeDelta, Timestamp};

/// Elements per sealed chunk. Every sealed chunk holds exactly this many
/// elements, so position ↔ (chunk, offset) is pure index math; only the
/// open tail chunk is shorter. 1024 elements keeps the copy-on-write
/// worst case (one chunk clone per snapshot-shared delete) small while
/// amortizing the per-chunk `Arc` overhead.
pub const CHUNK_CAP: usize = 1024;

/// The valid-time key the index segments carry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum VtKey {
    /// No valid-time key: the schema's declared order or offset band
    /// already answers valid-time predicates (append-order search,
    /// tt-window scan), so the planner never asks for a probe.
    #[default]
    None,
    /// Sorted `(vt, position)` pairs over event stamps.
    Points,
    /// An interval tree over interval stamps.
    Intervals,
}

impl VtKey {
    /// The key [`select_index`] picks for a schema: the point index for
    /// unordered, unbounded event relations, the interval tree for their
    /// interval counterparts, nothing otherwise.
    #[must_use]
    pub fn for_schema(schema: &RelationSchema) -> Self {
        match select_index(schema) {
            IndexChoice::PointIndex => VtKey::Points,
            IndexChoice::IntervalTree => VtKey::Intervals,
            IndexChoice::AppendOrder | IndexChoice::TtProxy(_) => VtKey::None,
        }
    }
}

/// The valid-time part of an index segment.
#[derive(Debug)]
enum VtSegment {
    None,
    Points(Vec<(Timestamp, usize)>),
    Intervals(IntervalIndex<usize>),
}

/// An immutable index over a run of sealed chunks, built once.
#[derive(Debug)]
struct Segment {
    /// Global position of the first covered element.
    start: usize,
    /// Covered chunks: a power of two.
    chunks: usize,
    vt: VtSegment,
    /// `(object, position)`, sorted.
    objects: Vec<(ObjectId, usize)>,
}

impl Segment {
    /// Indexes one freshly sealed chunk whose first element sits at
    /// global `start`.
    fn build(vt_key: VtKey, chunk: &[Element], start: usize) -> Self {
        let mut objects: Vec<(ObjectId, usize)> = chunk
            .iter()
            .zip(start..)
            .map(|(e, p)| (e.object, p))
            .collect();
        objects.sort_unstable();
        let vt = match vt_key {
            VtKey::Points => {
                let mut points: Vec<(Timestamp, usize)> = chunk
                    .iter()
                    .zip(start..)
                    .filter_map(|(e, p)| e.valid.as_event().map(|vt| (vt, p)))
                    .collect();
                points.sort_unstable();
                VtSegment::Points(points)
            }
            VtKey::None | VtKey::Intervals => interval_segment(vt_key, [chunk], start),
        };
        Segment {
            start,
            chunks: 1,
            vt,
            objects,
        }
    }

    /// Merges two adjacent segments of equal size: `self` covers the
    /// chunks just before `newer`'s, and `chunks` are the elements both
    /// cover. Sorted pairs merge in linear time; an interval tree is
    /// rebuilt over the merged run.
    fn merge(&self, vt_key: VtKey, newer: &Segment, chunks: &[Arc<Vec<Element>>]) -> Segment {
        let vt = match (&self.vt, &newer.vt) {
            (VtSegment::Points(a), VtSegment::Points(b)) => VtSegment::Points(merge_sorted(a, b)),
            _ => interval_segment(vt_key, chunks.iter().map(|c| c.as_slice()), self.start),
        };
        Segment {
            start: self.start,
            chunks: self.chunks + newer.chunks,
            vt,
            objects: merge_sorted(&self.objects, &newer.objects),
        }
    }
}

/// The valid-time part of a segment over `chunks` (first element at
/// global `start`) for the keys that are not sorted pairs.
fn interval_segment<'a>(
    vt_key: VtKey,
    chunks: impl IntoIterator<Item = &'a [Element]>,
    start: usize,
) -> VtSegment {
    if vt_key != VtKey::Intervals {
        return VtSegment::None;
    }
    let mut index = IntervalIndex::new();
    for (e, p) in chunks.into_iter().flatten().zip(start..) {
        if let ValidTime::Interval(iv) = e.valid {
            index.insert(iv, p);
        }
    }
    VtSegment::Intervals(index)
}

/// Two sorted runs as one. Stable sort recognises the two runs and merges
/// them in linear time.
fn merge_sorted<K: Ord + Copy>(a: &[(K, usize)], b: &[(K, usize)]) -> Vec<(K, usize)> {
    let mut merged = [a, b].concat();
    merged.sort();
    merged
}

/// Appends to `out` the positions of the run of `entries` (sorted by key)
/// that starts at the first key not `before` and continues while keys are
/// `inside`.
fn extend_run<K: Copy>(
    entries: &[(K, usize)],
    before: impl Fn(K) -> bool,
    inside: impl Fn(K) -> bool,
    out: &mut Vec<usize>,
) {
    let lo = entries.partition_point(|&(k, _)| before(k));
    out.extend(
        entries[lo..]
            .iter()
            .take_while(|&&(k, _)| inside(k))
            .map(|&(_, p)| p),
    );
}

/// Append-mostly element storage in copy-on-write chunks, with immutable
/// index segments beside the sealed chunks.
///
/// Maintains the same ordering contract as a plain `Vec<Element>` held in
/// `tt_b` order; all binary searches work on global positions.
#[derive(Debug, Default, Clone)]
pub struct ChunkedElements {
    /// Sealed chunks of exactly [`CHUNK_CAP`] elements each, shared with
    /// any live snapshots.
    sealed: Vec<Arc<Vec<Element>>>,
    /// The open tail chunk (never longer than [`CHUNK_CAP`]).
    tail: Vec<Element>,
    index: ChunkIndex,
}

impl ChunkedElements {
    /// Empty storage whose index segments carry `vt_key`.
    #[must_use]
    pub fn new(vt_key: VtKey) -> Self {
        ChunkedElements {
            index: ChunkIndex {
                vt_key,
                ..ChunkIndex::default()
            },
            ..ChunkedElements::default()
        }
    }

    /// The valid-time key the index segments carry.
    #[must_use]
    pub fn vt_key(&self) -> VtKey {
        self.index.vt_key
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sealed.len() * CHUNK_CAP + self.tail.len()
    }

    /// Whether no element was ever stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sealed.is_empty() && self.tail.is_empty()
    }

    /// Appends an element; seals the tail chunk when it reaches capacity
    /// (a pointer move, not a copy) and indexes it.
    pub fn push(&mut self, element: Element) {
        Arc::make_mut(&mut self.index.tail_keys).push((element.valid, element.object));
        self.tail.push(element);
        if self.tail.len() == CHUNK_CAP {
            let full = std::mem::take(&mut self.tail);
            self.sealed.push(Arc::new(full));
            self.index.tail_keys = Arc::default();
            self.seal_segment();
        }
    }

    /// Indexes the chunk just sealed. Binary counter: the new one-chunk
    /// segment absorbs every trailing segment of its current size, so
    /// sizes stay strictly decreasing powers of two.
    fn seal_segment(&mut self) {
        let vt_key = self.index.vt_key;
        let segments = &mut self.index.segments;
        let last = self.sealed.len() - 1;
        let mut segment = Segment::build(vt_key, &self.sealed[last], last * CHUNK_CAP);
        while let Some(older) = segments.pop_if(|s| s.chunks == segment.chunks) {
            let first = older.start / CHUNK_CAP;
            segment = older.merge(vt_key, &segment, &self.sealed[first..]);
        }
        segments.push(Arc::new(segment));
    }

    /// Positions of every element of one object's life-line, ascending:
    /// the per-object partition (§2/§3), read from the index segments.
    #[must_use]
    pub fn object_positions(&self, object: ObjectId) -> Vec<usize> {
        let len = self.len();
        self.index.object_positions(object, len, len)
    }

    /// The element at global position `index`.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<&Element> {
        let sealed_len = self.sealed.len() * CHUNK_CAP;
        if index < sealed_len {
            Some(&self.sealed[index / CHUNK_CAP][index % CHUNK_CAP])
        } else {
            self.tail.get(index - sealed_len)
        }
    }

    /// Mutable access at global position `index`. If the chunk is shared
    /// with a snapshot this copies that one chunk first (copy-on-write);
    /// the snapshot keeps the original. Callers may change only `tt_end`:
    /// the index segments assume valid time and object never change.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut Element> {
        let sealed_len = self.sealed.len() * CHUNK_CAP;
        if index < sealed_len {
            let chunk = Arc::make_mut(&mut self.sealed[index / CHUNK_CAP]);
            chunk.get_mut(index % CHUNK_CAP)
        } else {
            self.tail.get_mut(index - sealed_len)
        }
    }

    /// The most recently appended element.
    #[must_use]
    pub fn last(&self) -> Option<&Element> {
        self.tail
            .last()
            .or_else(|| self.sealed.last().and_then(|c| c.last()))
    }

    /// All elements in append order.
    pub fn iter(&self) -> impl Iterator<Item = &Element> + '_ {
        self.sealed
            .iter()
            .flat_map(|c| c.iter())
            .chain(self.tail.iter())
    }

    /// Elements in the global position range (chunk-aware; skipping to
    /// `range.start` is index math, not iteration).
    pub fn range(&self, range: Range<usize>) -> impl Iterator<Item = &Element> + '_ {
        let len = self.len();
        let start = range.start.min(len);
        let end = range.end.min(len).max(start);
        (start..end).map(move |i| self.get(i).expect("index in bounds"))
    }

    /// The first position for which `pred` is false, assuming the
    /// elements are partitioned (all `true` before all `false`) — the
    /// chunked analogue of [`slice::partition_point`].
    #[must_use]
    pub fn partition_point(&self, pred: impl Fn(&Element) -> bool) -> usize {
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.get(mid).expect("mid in bounds")) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// An immutable view of the current contents: sealed chunks and their
    /// index segments are shared by pointer, the open tail is copied
    /// (bounded by [`CHUNK_CAP`]) and its index shared until the next
    /// push. Cost is O(chunks + tail), independent of element count in
    /// the sealed region.
    #[must_use]
    pub fn snapshot(&self) -> ElementChunks {
        let mut chunks = self.sealed.clone();
        if !self.tail.is_empty() {
            chunks.push(Arc::new(self.tail.clone()));
        }
        ElementChunks {
            len: self.len(),
            chunks,
            index: self.index.clone(),
        }
    }

    /// Rebuilds from a plain ordered vector (vacuum uses this after
    /// physically reclaiming elements); the index segments are rebuilt
    /// with it.
    #[must_use]
    pub fn from_vec(vt_key: VtKey, elements: Vec<Element>) -> Self {
        let mut built = ChunkedElements::new(vt_key);
        for e in elements {
            built.push(e);
        }
        built
    }
}

/// An immutable, cheaply cloneable view over element chunks and their
/// index segments — what a pinned snapshot reads. All chunks except the
/// last hold exactly [`CHUNK_CAP`] elements, so positional access stays
/// O(1).
#[derive(Debug, Default, Clone)]
pub struct ElementChunks {
    chunks: Vec<Arc<Vec<Element>>>,
    len: usize,
    index: ChunkIndex,
}

impl ElementChunks {
    /// Total number of elements in the view.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The element at global position `index`.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<&Element> {
        if index >= self.len {
            return None;
        }
        Some(&self.chunks[index / CHUNK_CAP][index % CHUNK_CAP])
    }

    /// All elements in append order.
    pub fn iter(&self) -> impl Iterator<Item = &Element> + '_ {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// Elements in the global position range.
    pub fn range(&self, range: Range<usize>) -> impl Iterator<Item = &Element> + '_ {
        let start = range.start.min(self.len);
        let end = range.end.min(self.len).max(start);
        (start..end).map(move |i| self.get(i).expect("index in bounds"))
    }

    /// The first position for which `pred` is false (see
    /// [`ChunkedElements::partition_point`]).
    #[must_use]
    pub fn partition_point(&self, pred: impl Fn(&Element) -> bool) -> usize {
        let (mut lo, mut hi) = (0usize, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.get(mid).expect("mid in bounds")) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Positions below `limit` of the event-stamped elements whose valid
    /// time lies in `[from, to)`, ascending. `None` when the view carries
    /// no point key.
    #[must_use]
    pub fn point_positions(
        &self,
        from: Timestamp,
        to: Timestamp,
        limit: usize,
    ) -> Option<Vec<usize>> {
        self.index.point_positions(from, to, self.len, limit)
    }

    /// Positions below `limit` of the interval-stamped elements whose
    /// valid time overlaps `[from, to)` (a stab when the window is one
    /// instant wide), ascending. `None` when the view carries no
    /// interval key.
    #[must_use]
    pub fn interval_positions(
        &self,
        from: Timestamp,
        to: Timestamp,
        limit: usize,
    ) -> Option<Vec<usize>> {
        self.index.interval_positions(from, to, self.len, limit)
    }

    /// Positions below `limit` of every element of one object's
    /// life-line, ascending.
    #[must_use]
    pub fn object_positions(&self, object: ObjectId, limit: usize) -> Vec<usize> {
        self.index.object_positions(object, self.len, limit)
    }
}

/// The index over one element sequence: segments over its sealed chunks
/// and the keys of its tail. Cloning shares everything by `Arc`, which is
/// how a snapshot takes it.
#[derive(Debug, Default, Clone)]
struct ChunkIndex {
    vt_key: VtKey,
    /// Index segments over the sealed chunks, in position order, covering
    /// strictly decreasing powers of two of chunks.
    segments: Vec<Arc<Segment>>,
    /// Each tail element's valid time and object, in position order.
    /// Probes scan these compact keys rather than the elements; shared
    /// with snapshots until the next push.
    tail_keys: Arc<Vec<(ValidTime, ObjectId)>>,
}

impl ChunkIndex {
    fn point_positions(
        &self,
        from: Timestamp,
        to: Timestamp,
        len: usize,
        limit: usize,
    ) -> Option<Vec<usize>> {
        (self.vt_key == VtKey::Points).then(|| {
            self.collect(
                len,
                limit,
                |segment, out| {
                    if let VtSegment::Points(points) = &segment.vt {
                        extend_run(points, |vt| vt < from, |vt| vt < to, out);
                    }
                },
                |valid, _| valid.as_event().is_some_and(|vt| from <= vt && vt < to),
            )
        })
    }

    fn interval_positions(
        &self,
        from: Timestamp,
        to: Timestamp,
        len: usize,
        limit: usize,
    ) -> Option<Vec<usize>> {
        (self.vt_key == VtKey::Intervals).then(|| {
            let window = Interval::new(from, to).ok();
            self.collect(
                len,
                limit,
                |segment, out| match (&segment.vt, window) {
                    (VtSegment::Intervals(index), Some(_))
                        if to == from.saturating_add(TimeDelta::RESOLUTION) =>
                    {
                        out.extend(index.stab(from));
                    }
                    (VtSegment::Intervals(index), Some(window)) => {
                        out.extend(index.overlapping(window));
                    }
                    _ => {}
                },
                |valid, _| {
                    valid
                        .as_interval()
                        .is_some_and(|iv| from < to && iv.begin() < to && iv.end() > from)
                },
            )
        })
    }

    fn object_positions(&self, object: ObjectId, len: usize, limit: usize) -> Vec<usize> {
        self.collect(
            len,
            limit,
            |segment, out| extend_run(&segment.objects, |o| o < object, |o| o == object, out),
            |_, o| o == object,
        )
    }

    /// Runs a probe over every segment that starts below `limit` and a
    /// key filter over the tail of a `len`-element sequence, keeps the
    /// positions below `limit`, and sorts them.
    fn collect(
        &self,
        len: usize,
        limit: usize,
        segment_probe: impl Fn(&Segment, &mut Vec<usize>),
        tail_keep: impl Fn(ValidTime, ObjectId) -> bool,
    ) -> Vec<usize> {
        let mut out = Vec::new();
        for segment in self.segments.iter().take_while(|s| s.start < limit) {
            segment_probe(segment, &mut out);
        }
        // Every full chunk is sealed and covered by a segment; the rest
        // is the tail.
        let tail_start = len - len % CHUNK_CAP;
        out.extend(
            self.tail_keys
                .iter()
                .zip(tail_start..limit)
                .filter(|&(&(valid, object), _)| tail_keep(valid, object))
                .map(|(_, p)| p),
        );
        out.retain(|&p| p < limit);
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_core::ElementId;
    use tempora_time::Timestamp;

    fn el(id: u64, tt: i64) -> Element {
        Element::new(
            ElementId::new(id),
            ObjectId::new(1),
            ValidTime::Event(Timestamp::from_secs(tt)),
            Timestamp::from_secs(tt),
        )
    }

    #[test]
    fn push_get_across_chunk_boundaries() {
        let n = CHUNK_CAP * 2 + 37;
        let mut c = ChunkedElements::new(VtKey::Points);
        for i in 0..n {
            c.push(el(i as u64, i as i64));
        }
        assert_eq!(c.len(), n);
        for i in [0, 1, CHUNK_CAP - 1, CHUNK_CAP, 2 * CHUNK_CAP, n - 1] {
            assert_eq!(c.get(i).unwrap().id, ElementId::new(i as u64));
        }
        assert!(c.get(n).is_none());
        assert_eq!(c.last().unwrap().id, ElementId::new((n - 1) as u64));
        assert_eq!(c.iter().count(), n);
        let mid: Vec<u64> = c
            .range(CHUNK_CAP - 2..CHUNK_CAP + 2)
            .map(|e| e.id.raw())
            .collect();
        assert_eq!(mid, vec![1022, 1023, 1024, 1025]);
    }

    #[test]
    fn partition_point_matches_vec() {
        let mut c = ChunkedElements::new(VtKey::Points);
        let mut v = Vec::new();
        for i in 0..(CHUNK_CAP + 100) {
            c.push(el(i as u64, i as i64));
            v.push(el(i as u64, i as i64));
        }
        for probe in [0_i64, 1, 512, 1024, 1100, 9999] {
            let t = Timestamp::from_secs(probe);
            assert_eq!(
                c.partition_point(|e| e.tt_begin <= t),
                v.partition_point(|e| e.tt_begin <= t),
                "probe {probe}"
            );
        }
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let mut c = ChunkedElements::new(VtKey::Points);
        for i in 0..(CHUNK_CAP + 10) {
            c.push(el(i as u64, i as i64));
        }
        let snap = c.snapshot();
        assert_eq!(snap.len(), CHUNK_CAP + 10);

        // Appends after the snapshot are invisible to it.
        c.push(el(9_000, 9_000));
        assert_eq!(snap.len(), CHUNK_CAP + 10);
        assert!(snap.iter().all(|e| e.id.raw() != 9_000));

        // In-place mutation of a sealed chunk copies on write: the
        // snapshot keeps the original element.
        c.get_mut(5).unwrap().tt_end = Some(Timestamp::from_secs(99));
        assert_eq!(snap.get(5).unwrap().tt_end, None);
        assert!(c.get(5).unwrap().tt_end.is_some());

        // Mutation in the (copied) tail region likewise.
        c.get_mut(CHUNK_CAP + 3).unwrap().tt_end = Some(Timestamp::from_secs(99));
        assert_eq!(snap.get(CHUNK_CAP + 3).unwrap().tt_end, None);
    }

    #[test]
    fn snapshot_range_and_partition_point() {
        let mut c = ChunkedElements::new(VtKey::Points);
        for i in 0..(2 * CHUNK_CAP + 5) {
            c.push(el(i as u64, i as i64));
        }
        let snap = c.snapshot();
        let t = Timestamp::from_secs(1500);
        let cut = snap.partition_point(|e| e.tt_begin <= t);
        assert_eq!(cut, 1501);
        let ids: Vec<u64> = snap.range(cut - 2..cut).map(|e| e.id.raw()).collect();
        assert_eq!(ids, vec![1499, 1500]);
        assert_eq!(snap.range(0..snap.len()).count(), snap.len());
    }

    fn el_at(id: u64, object: u64, valid: impl Into<ValidTime>) -> Element {
        Element::new(
            ElementId::new(id),
            ObjectId::new(object),
            valid,
            Timestamp::from_secs(i64::try_from(id).unwrap() + 1),
        )
    }

    fn brute(view: &ElementChunks, limit: usize, keep: impl Fn(&Element) -> bool) -> Vec<usize> {
        (0..limit.min(view.len()))
            .filter(|&p| keep(view.get(p).unwrap()))
            .collect()
    }

    #[test]
    fn segments_merge_binary_counter_style() {
        let mut c = ChunkedElements::new(VtKey::Points);
        for i in 0..(7 * CHUNK_CAP + 5) {
            c.push(el(i as u64, i as i64));
        }
        let sizes: Vec<usize> = c.index.segments.iter().map(|s| s.chunks).collect();
        assert_eq!(sizes, vec![4, 2, 1]);
        let starts: Vec<usize> = c.index.segments.iter().map(|s| s.start).collect();
        assert_eq!(starts, vec![0, 4 * CHUNK_CAP, 6 * CHUNK_CAP]);
        c.push(el(9_000_000, 9_000_000));
        for i in 0..(CHUNK_CAP - 6) {
            c.push(el(10_000_000 + i as u64, 10_000_000 + i as i64));
        }
        assert_eq!(c.index.segments.len(), 1);
        assert_eq!(c.index.segments[0].chunks, 8);
    }

    #[test]
    fn point_and_object_probes_match_brute_force_at_every_limit() {
        let mut c = ChunkedElements::new(VtKey::Points);
        let n = 3 * CHUNK_CAP + 300;
        for i in 0..n {
            // Valid times and objects scattered, with repeats.
            let vt = Timestamp::from_secs(((i * 7_919) % 997) as i64);
            c.push(el_at(i as u64, (i % 13) as u64, vt));
        }
        let view = c.snapshot();
        for limit in [0, 1, 700, CHUNK_CAP, 2 * CHUNK_CAP + 1, n - 1, n] {
            for (from, to) in [(0_i64, 1_i64), (500, 501), (100, 300), (996, 2_000)] {
                let (f, t) = (Timestamp::from_secs(from), Timestamp::from_secs(to));
                assert_eq!(
                    view.point_positions(f, t, limit).unwrap(),
                    brute(&view, limit, |e| e.valid.begin() >= f
                        && e.valid.begin() < t),
                    "[{from}, {to}) below {limit}"
                );
            }
            for object in [0, 5, 12, 99] {
                let o = ObjectId::new(object);
                assert_eq!(
                    view.object_positions(o, limit),
                    brute(&view, limit, |e| e.object == o),
                    "object {object} below {limit}"
                );
            }
        }
        assert!(view
            .interval_positions(Timestamp::EPOCH, Timestamp::MAX, n)
            .is_none());
    }

    #[test]
    fn interval_probes_match_brute_force_at_every_limit() {
        let mut c = ChunkedElements::new(VtKey::Intervals);
        let n = 2 * CHUNK_CAP + 77;
        for i in 0..n {
            let b = ((i * 31) % 500) as i64;
            let iv = Interval::new(
                Timestamp::from_secs(b),
                Timestamp::from_secs(b + 1 + (i % 40) as i64),
            )
            .unwrap();
            c.push(el_at(i as u64, 1, iv));
        }
        let view = c.snapshot();
        for limit in [0, 900, CHUNK_CAP, n] {
            for (from, to) in [(10_i64, 11_i64), (250, 251), (100, 180), (530, 600)] {
                let (f, t) = (Timestamp::from_secs(from), Timestamp::from_secs(to));
                assert_eq!(
                    view.interval_positions(f, t, limit).unwrap(),
                    brute(&view, limit, |e| e.valid.begin() < t && e.valid.end() > f),
                    "[{from}, {to}) below {limit}"
                );
            }
        }
        assert!(view
            .point_positions(Timestamp::EPOCH, Timestamp::MAX, n)
            .is_none());
    }

    #[test]
    fn snapshot_index_survives_copy_on_write_and_later_pushes() {
        let mut c = ChunkedElements::new(VtKey::Points);
        for i in 0..(CHUNK_CAP + 10) {
            c.push(el_at(i as u64, 1, Timestamp::from_secs(i as i64)));
        }
        let snap = c.snapshot();
        // A delete copies the sealed chunk; the segment stays valid for both.
        c.get_mut(3).unwrap().tt_end = Some(Timestamp::from_secs(99_999));
        // Pushes after the capture go to a fresh copy of the tail index.
        for i in 0..(CHUNK_CAP) {
            c.push(el_at(50_000 + i as u64, 2, Timestamp::from_secs(3)));
        }
        let t3 = (Timestamp::from_secs(3), Timestamp::from_secs(4));
        assert_eq!(
            snap.point_positions(t3.0, t3.1, snap.len()).unwrap(),
            vec![3]
        );
        assert_eq!(
            snap.object_positions(ObjectId::new(2), snap.len()),
            Vec::<usize>::new()
        );
        let live = c.snapshot();
        let hits = live.point_positions(t3.0, t3.1, live.len()).unwrap();
        assert_eq!(hits.len(), 1 + CHUNK_CAP);
        assert_eq!(hits[0], 3);
        assert_eq!(
            live.get(3).unwrap().tt_end,
            Some(Timestamp::from_secs(99_999))
        );
        assert_eq!(snap.get(3).unwrap().tt_end, None);
    }

    #[test]
    fn from_vec_round_trips() {
        let v: Vec<Element> = (0..(CHUNK_CAP + 3))
            .map(|i| el(i as u64, i as i64))
            .collect();
        let c = ChunkedElements::from_vec(VtKey::Points, v.clone());
        assert_eq!(c.len(), v.len());
        assert!(c.iter().zip(v.iter()).all(|(a, b)| a.id == b.id));
        // The rebuilt storage carries rebuilt index segments.
        let view = c.snapshot();
        let at = Timestamp::from_secs(5);
        assert_eq!(
            view.point_positions(at, at + TimeDelta::RESOLUTION, view.len()),
            Some(vec![5])
        );
    }
}
