//! Per-process timelines: step-indexed activity lanes.
//!
//! A [`Timeline`] holds one [`Lane`] per process, each a list of
//! [`Segment`]s over a shared **step index** axis — the global event index
//! of the run, never wall time, so a timeline built from a seeded run is a
//! pure function of the run and rides the byte-identity contract like the
//! counters do. Four [`SegmentKind`]s cover what the paper's arguments care
//! about: computing, blocked waiting on a quorum (the Lemma-7 shape),
//! retransmitting into a lossy link, and crashed.
//!
//! Build one with a [`TimelineBuilder`] (point marks and spans, merged and
//! coalesced deterministically at `finish`), derive one from an
//! `Execution` with `camp_trace::timeline_of`, or collect one live from
//! the threaded runtime's trace stream. Render with [`Timeline::render`]
//! — an ASCII lane view, one row per process.

use serde::{Json, Serialize};

/// What a process was doing over a segment of the step axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SegmentKind {
    /// Executing protocol steps.
    Compute,
    /// Invoked an operation and waiting on other processes to respond —
    /// the quorum-blocked window between a `Propose` and its `Decide`.
    BlockedOnQuorum,
    /// The perfect link is re-driving unacked frames into a lossy link.
    Retransmitting,
    /// Crashed; every later step index stays in this state.
    Crashed,
}

impl SegmentKind {
    /// Stable serialized name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SegmentKind::Compute => "compute",
            SegmentKind::BlockedOnQuorum => "blocked_on_quorum",
            SegmentKind::Retransmitting => "retransmitting",
            SegmentKind::Crashed => "crashed",
        }
    }

    /// One-character glyph for the ASCII lane view.
    #[must_use]
    pub fn glyph(self) -> char {
        match self {
            SegmentKind::Compute => '#',
            SegmentKind::BlockedOnQuorum => '~',
            SegmentKind::Retransmitting => 'r',
            SegmentKind::Crashed => 'x',
        }
    }

    /// Rendering priority when segments overlap a cell (higher wins).
    fn priority(self) -> u8 {
        match self {
            SegmentKind::Compute => 0,
            SegmentKind::BlockedOnQuorum => 1,
            SegmentKind::Retransmitting => 2,
            SegmentKind::Crashed => 3,
        }
    }
}

/// A half-open step-index interval `[start, start + len)` in one state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Activity over the interval.
    pub kind: SegmentKind,
    /// First step index covered.
    pub start: u64,
    /// Number of step indices covered (≥ 1).
    pub len: u64,
}

/// One process's activity lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lane {
    /// 1-based process id.
    pub process: u64,
    /// Segments sorted by `(start, kind)`; same-kind neighbours coalesced.
    pub segments: Vec<Segment>,
}

/// Per-process activity lanes over a shared step-index axis.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    /// One lane per process, in process-id order.
    pub lanes: Vec<Lane>,
    /// One past the last covered step index (the axis width).
    pub horizon: u64,
}

impl Timeline {
    /// True when no lane has any segment.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(|l| l.segments.is_empty())
    }

    /// ASCII lane view: one row per process, at most `max_width` cells
    /// (each cell covers `ceil(horizon / max_width)` step indices; the
    /// highest-priority overlapping kind wins the glyph), plus a legend.
    #[must_use]
    pub fn render(&self, max_width: usize) -> String {
        let width = max_width.max(1);
        let horizon = self.horizon.max(1);
        let scale = horizon.div_ceil(width as u64).max(1);
        let cells = usize::try_from(horizon.div_ceil(scale)).unwrap_or(width);
        let mut out = String::new();
        for lane in &self.lanes {
            let mut row: Vec<Option<SegmentKind>> = vec![None; cells];
            for seg in &lane.segments {
                let first = usize::try_from(seg.start / scale).unwrap_or(0);
                let last_step = seg.start + seg.len.max(1) - 1;
                let last = usize::try_from(last_step / scale).unwrap_or(0);
                for cell in row.iter_mut().take(last.min(cells - 1) + 1).skip(first) {
                    let better = cell.is_none_or(|k| seg.kind.priority() > k.priority());
                    if better {
                        *cell = Some(seg.kind);
                    }
                }
            }
            out.push_str(&format!("p{} |", lane.process));
            for cell in row {
                out.push(cell.map_or('.', SegmentKind::glyph));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "     0..{} (1 cell = {} step{})\n",
            self.horizon,
            scale,
            if scale == 1 { "" } else { "s" }
        ));
        out.push_str("     # compute  ~ blocked-on-quorum  r retransmitting  x crashed  . idle\n");
        out
    }
}

impl Serialize for Timeline {
    fn to_json(&self) -> Json {
        let lanes = self
            .lanes
            .iter()
            .map(|lane| {
                let segments = lane
                    .segments
                    .iter()
                    .map(|s| {
                        Json::Object(vec![
                            ("kind".to_string(), Json::Str(s.kind.label().to_string())),
                            ("start".to_string(), Json::Int(i128::from(s.start))),
                            ("len".to_string(), Json::Int(i128::from(s.len))),
                        ])
                    })
                    .collect();
                Json::Object(vec![
                    ("process".to_string(), Json::Int(i128::from(lane.process))),
                    ("segments".to_string(), Json::Array(segments)),
                ])
            })
            .collect();
        Json::Object(vec![
            ("horizon".to_string(), Json::Int(i128::from(self.horizon))),
            ("lanes".to_string(), Json::Array(lanes)),
        ])
    }
}

/// Accumulates point marks and spans, then sorts and coalesces them into a
/// [`Timeline`] — the result depends only on the set of marks, not on the
/// order they arrived in.
#[derive(Debug, Clone, Default)]
pub struct TimelineBuilder {
    lanes: Vec<Vec<Segment>>,
    horizon: u64,
}

impl TimelineBuilder {
    /// A builder with one empty lane per process (`1..=n`).
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            lanes: vec![Vec::new(); n],
            horizon: 0,
        }
    }

    /// Marks a single step index on lane `lane` (0-based index).
    pub fn mark(&mut self, lane: usize, step: u64, kind: SegmentKind) {
        self.span(lane, step, 1, kind);
    }

    /// Marks the interval `[start, start + len)` on lane `lane`.
    pub fn span(&mut self, lane: usize, start: u64, len: u64, kind: SegmentKind) {
        if lane >= self.lanes.len() || len == 0 {
            return;
        }
        self.lanes[lane].push(Segment { kind, start, len });
        self.horizon = self.horizon.max(start + len);
    }

    /// Extends the axis to cover `[0, horizon)` even if no mark reaches it.
    pub fn extend_horizon(&mut self, horizon: u64) {
        self.horizon = self.horizon.max(horizon);
    }

    /// Sorts each lane by `(start, kind)`, coalesces abutting or
    /// overlapping same-kind segments, and returns the timeline.
    #[must_use]
    pub fn finish(self) -> Timeline {
        let horizon = self.horizon;
        let lanes = self
            .lanes
            .into_iter()
            .enumerate()
            .map(|(i, mut raw)| {
                raw.sort_by_key(|s| (s.start, s.kind, s.len));
                let mut segments: Vec<Segment> = Vec::with_capacity(raw.len());
                for seg in raw {
                    match segments.last_mut() {
                        Some(prev)
                            if prev.kind == seg.kind && seg.start <= prev.start + prev.len =>
                        {
                            let end = (seg.start + seg.len).max(prev.start + prev.len);
                            prev.len = end - prev.start;
                        }
                        _ => segments.push(seg),
                    }
                }
                Lane {
                    process: (i + 1) as u64,
                    segments,
                }
            })
            .collect();
        Timeline { lanes, horizon }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_coalesces_adjacent_same_kind_marks() {
        let mut b = TimelineBuilder::new(2);
        b.mark(0, 3, SegmentKind::Compute);
        b.mark(0, 2, SegmentKind::Compute);
        b.mark(0, 0, SegmentKind::Compute);
        b.span(1, 1, 4, SegmentKind::BlockedOnQuorum);
        let t = b.finish();
        assert_eq!(
            t.lanes[0].segments,
            vec![
                Segment {
                    kind: SegmentKind::Compute,
                    start: 0,
                    len: 1
                },
                Segment {
                    kind: SegmentKind::Compute,
                    start: 2,
                    len: 2
                },
            ]
        );
        assert_eq!(t.lanes[1].segments.len(), 1);
        assert_eq!(t.horizon, 5);
    }

    #[test]
    fn finish_is_insertion_order_insensitive() {
        let build = |order: &[(u64, SegmentKind)]| {
            let mut b = TimelineBuilder::new(1);
            for &(step, kind) in order {
                b.mark(0, step, kind);
            }
            b.finish()
        };
        let a = build(&[
            (0, SegmentKind::Compute),
            (1, SegmentKind::Crashed),
            (2, SegmentKind::Crashed),
        ]);
        let b = build(&[
            (2, SegmentKind::Crashed),
            (0, SegmentKind::Compute),
            (1, SegmentKind::Crashed),
        ]);
        assert_eq!(a, b);
    }

    #[test]
    fn render_prioritizes_crash_over_compute() {
        let mut b = TimelineBuilder::new(1);
        b.span(0, 0, 4, SegmentKind::Compute);
        b.span(0, 2, 2, SegmentKind::Crashed);
        let view = b.finish().render(80);
        let row = view.lines().next().unwrap();
        assert_eq!(row, "p1 |##xx");
        assert!(view.contains("x crashed"));
    }

    #[test]
    fn render_downsamples_to_max_width() {
        let mut b = TimelineBuilder::new(1);
        b.span(0, 0, 1000, SegmentKind::Compute);
        let view = b.finish().render(40);
        let row = view.lines().next().unwrap();
        assert!(row.len() <= 4 + 40, "row too wide: {row}");
        assert!(row.contains('#'));
    }

    #[test]
    fn empty_timeline_reports_empty() {
        let t = TimelineBuilder::new(3).finish();
        assert!(t.is_empty());
        assert_eq!(t.lanes.len(), 3);
    }

    #[test]
    fn serializes_with_labels_and_fixed_order() {
        let mut b = TimelineBuilder::new(1);
        b.mark(0, 0, SegmentKind::Retransmitting);
        let json = serde_json::to_string_pretty(&b.finish()).unwrap();
        assert!(json.contains("\"retransmitting\""));
        let h = json.find("\"horizon\"").unwrap();
        let l = json.find("\"lanes\"").unwrap();
        assert!(h < l, "horizon serializes before lanes");
    }
}
