//! Per-round timelines: an ASCII-rendered view of one communication round
//! (the live version of the paper's Figs. 10/11).
//!
//! For every user partition the timeline shows when it was committed
//! (`pready`, as the driver drew it), when its work request hit the wire
//! and when it arrived at the receiver (both from the flow log).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use partix_sim::{SimDuration, SimTime};
use partix_telemetry::{FlowEvent, FlowStage};

/// One partition's lifecycle within a round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartitionSpan {
    /// Partition index.
    pub partition: u32,
    /// `pready` offset from round start (ns).
    pub pready_ns: u64,
    /// Offset of the WR covering this partition (ns), if one was recorded.
    pub posted_ns: Option<u64>,
    /// Receive-side arrival offset (ns), if recorded.
    pub arrived_ns: Option<u64>,
}

/// A reconstructed round timeline.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// Spans ordered by partition index.
    pub spans: Vec<PartitionSpan>,
    /// Round duration covered (ns).
    pub horizon_ns: u64,
}

impl Timeline {
    /// Join one round — its `start`, its `pready` offsets by partition and
    /// its send completion — with the flow events of that round. Each
    /// flow's `Arrived` event names the partitions it carried in its `aux`
    /// (`lo << 32 | count`); they take that event's time as their arrival
    /// and the same flow's `Posted` time as their post. Events before
    /// `start` belong to earlier rounds and are skipped. All offsets are
    /// relative to `start`.
    pub fn from_flows(
        start: SimTime,
        pready: &[SimDuration],
        send_complete: SimTime,
        flows: &[FlowEvent],
    ) -> Timeline {
        let t0 = start.as_nanos();
        let mut spans: Vec<PartitionSpan> = pready
            .iter()
            .enumerate()
            .map(|(p, t)| PartitionSpan {
                partition: p as u32,
                pready_ns: t.as_nanos(),
                posted_ns: None,
                arrived_ns: None,
            })
            .collect();
        let round = || flows.iter().filter(|e| e.ts_ns >= t0);
        let posted: BTreeMap<u64, u64> = round()
            .filter(|e| e.stage == FlowStage::Posted)
            .map(|e| (e.flow, e.ts_ns - t0))
            .collect();
        for e in round().filter(|e| e.stage == FlowStage::Arrived) {
            let (lo, count) = ((e.aux >> 32) as usize, e.aux as u32 as usize);
            for s in spans.iter_mut().skip(lo).take(count) {
                s.posted_ns = posted.get(&e.flow).copied();
                s.arrived_ns = Some(e.ts_ns - t0);
            }
        }
        let horizon = spans
            .iter()
            .flat_map(|s| [Some(s.pready_ns), s.posted_ns, s.arrived_ns])
            .flatten()
            .max()
            .unwrap_or(0)
            .max(send_complete.saturating_since(start).as_nanos());
        Timeline {
            spans,
            horizon_ns: horizon,
        }
    }

    /// Render an ASCII Gantt chart, `width` columns wide. Markers:
    /// `.` compute (before pready), `r` pready, `w` WR posted, `#` in
    /// flight, `A` arrived.
    pub fn render(&self, width: usize) -> String {
        let width = width.max(16);
        let scale = |ns: u64| -> usize {
            if self.horizon_ns == 0 {
                0
            } else {
                ((ns as f64 / self.horizon_ns as f64) * (width - 1) as f64).round() as usize
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "timeline: {} partitions over {:.3} ms ('r' pready, 'w' posted, '#' in flight, 'A' arrived)",
            self.spans.len(),
            self.horizon_ns as f64 / 1e6
        );
        for s in &self.spans {
            let mut row = vec![b'.'; width];
            let r = scale(s.pready_ns);
            for c in row.iter_mut().take(r) {
                *c = b' ';
            }
            row[r] = b'r';
            if let Some(w) = s.posted_ns {
                let w = scale(w).min(width - 1);
                if row[w] == b'.' || row[w] == b' ' {
                    row[w] = b'w';
                }
                if let Some(a) = s.arrived_ns {
                    let a = scale(a).min(width - 1);
                    for c in row.iter_mut().take(a).skip(w + 1) {
                        *c = b'#';
                    }
                    row[a] = b'A';
                }
            }
            let _ = writeln!(
                out,
                "p{:>3} |{}|",
                s.partition,
                String::from_utf8(row).expect("ascii")
            );
        }
        out
    }

    /// Rebase the timeline so t = 0 is the first `pready` — zooms past the
    /// compute phase so the communication window fills the rendering.
    pub fn focus_communication(mut self) -> Timeline {
        let Some(first) = self.spans.iter().map(|s| s.pready_ns).min() else {
            return self;
        };
        for s in &mut self.spans {
            s.pready_ns -= first;
            s.posted_ns = s.posted_ns.map(|v| v.saturating_sub(first));
            s.arrived_ns = s.arrived_ns.map(|v| v.saturating_sub(first));
        }
        self.horizon_ns = self.horizon_ns.saturating_sub(first);
        self
    }
}

/// Render `values` as a one-line unicode sparkline (` ▁▂▃▄▅▆▇█`), scaled to
/// the series maximum. Used by the trace analyzer's timeline view to show
/// per-window rate-of-change at a glance. Empty input yields an empty
/// string; an all-zero series renders as blanks.
pub fn sparkline(values: &[u64]) -> String {
    const LEVELS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().max().unwrap_or(0);
    values
        .iter()
        .map(|&v| {
            if max == 0 {
                LEVELS[0]
            } else {
                // Ceiling division so any nonzero value gets at least ▁.
                let idx = ((v as u128 * (LEVELS.len() - 1) as u128).div_ceil(max as u128)) as usize;
                LEVELS[idx.min(LEVELS.len() - 1)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(flow: u64, stage: FlowStage, ts_ns: u64, aux: u64) -> FlowEvent {
        FlowEvent {
            flow,
            stage,
            ts_ns,
            qp: 1,
            chan: 1,
            aux,
        }
    }

    /// A round starting at 1 000 ns: partitions 0 and 1 ready at +100 and
    /// +200 and aggregated into flow 7, the laggard 2 ready at +4 000 and
    /// sent alone as flow 8; completion at 6 000. Flow 3 is an earlier
    /// round's WR.
    fn round(flows: &[FlowEvent]) -> Timeline {
        let pready = [100, 200, 4_000].map(SimDuration::from_nanos);
        Timeline::from_flows(SimTime(1_000), &pready, SimTime(6_000), flows)
    }

    fn flows() -> Vec<FlowEvent> {
        vec![
            ev(3, FlowStage::Posted, 400, 0),
            ev(3, FlowStage::Arrived, 900, 2),
            ev(7, FlowStage::Posted, 1_250, 50),
            ev(7, FlowStage::WireSubmit, 1_300, 0),
            ev(7, FlowStage::Arrived, 2_000, 2),
            ev(8, FlowStage::Posted, 5_050, 0),
            ev(8, FlowStage::Arrived, 5_800, 2 << 32 | 1),
        ]
    }

    #[test]
    fn joins_send_and_recv_rounds() {
        let tl = round(&flows());
        assert_eq!(tl.spans.len(), 3);
        assert_eq!(
            tl.spans[0],
            PartitionSpan {
                partition: 0,
                pready_ns: 100,
                posted_ns: Some(250),
                arrived_ns: Some(1_000),
            }
        );
        // Partition 1 shares the aggregated WR with partition 0.
        assert_eq!(tl.spans[1].posted_ns, Some(250));
        assert_eq!(tl.spans[1].arrived_ns, Some(1_000));
        assert_eq!(tl.spans[2].pready_ns, 4_000);
        assert_eq!(tl.spans[2].posted_ns, Some(4_050));
        assert_eq!(tl.spans[2].arrived_ns, Some(4_800));
        assert_eq!(tl.horizon_ns, 5_000);
    }

    #[test]
    fn renders_marks_in_order() {
        let text = round(&flows()).render(64);
        assert!(text.contains("3 partitions"));
        for line in text.lines().skip(1) {
            let r = line.find('r').expect("pready mark");
            let a = line.find('A').expect("arrival mark");
            assert!(r < a, "pready must precede arrival: {line}");
        }
    }

    #[test]
    fn handles_missing_recv_side() {
        let posted_only: Vec<FlowEvent> = flows()
            .into_iter()
            .filter(|e| e.stage != FlowStage::Arrived)
            .collect();
        let tl = round(&posted_only);
        assert!(tl.spans.iter().all(|s| s.arrived_ns.is_none()));
        let text = tl.render(40);
        // Body rows (the header legend mentions 'A') carry no arrival marks.
        assert!(text.lines().skip(1).all(|l| !l.contains('A')));
    }

    #[test]
    fn sparkline_scales_to_the_maximum() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0]), "  ");
        let s = sparkline(&[0, 1, 4, 8]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 4);
        assert_eq!(chars[0], ' ');
        assert_eq!(chars[3], '█');
        // Nonzero values never render as blank.
        assert!(chars[1] != ' ' && chars[2] != ' ');
    }

    #[test]
    fn focus_rebased_to_first_pready() {
        let tl = round(&flows()).focus_communication();
        assert_eq!(tl.spans[0].pready_ns, 0);
        assert_eq!(tl.spans[2].pready_ns, 3_900);
        assert_eq!(tl.horizon_ns, 4_900);
        assert_eq!(tl.spans[0].arrived_ns, Some(900));
    }
}
