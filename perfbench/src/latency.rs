//! Virtual-time outcomes of a run, from the recorded client history.
//!
//! The library's per-client summaries cannot be merged into one
//! percentile, so the reference repetition of a timed run records the
//! history (issue and completion of every request) and the benchmark
//! computes the latency percentiles over every client's requests from it.

use crate::stats::{frac, percentile};
use aqf_workload::HistoryEvent;
use std::collections::HashMap;

/// Request outcomes across every client of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcomes {
    /// Read response times (ms). Give-ups count at their give-up time;
    /// locally shed reads contacted no replica and have no response time.
    pub read_ms: Vec<f64>,
    /// Update response times (ms), with the same rules.
    pub update_ms: Vec<f64>,
    /// Requests issued.
    pub requests: u64,
    /// Reads issued.
    pub reads: u64,
    /// Reads answered within their deadline.
    pub timely_reads: u64,
    /// Requests that reached the give-up window with no reply.
    pub give_ups: u64,
    /// Reads the degradation controller rejected locally.
    pub sheds: u64,
}

impl Outcomes {
    /// Joins every completion to its issue.
    ///
    /// # Errors
    ///
    /// Fails on a completion without a matching issue, or an issue that
    /// never completed.
    pub fn from_history(events: &[HistoryEvent]) -> Result<Outcomes, String> {
        let mut open: HashMap<(u64, u64), (u64, bool)> = HashMap::new();
        let mut out = Outcomes::default();
        for e in events {
            match *e {
                HistoryEvent::Issue {
                    client,
                    seq,
                    at_us,
                    read,
                    ..
                } => {
                    out.requests += 1;
                    out.reads += u64::from(read);
                    open.insert((client, seq), (at_us, read));
                }
                HistoryEvent::Complete {
                    client,
                    seq,
                    at_us,
                    timely,
                    timed_out,
                    shed,
                    ..
                } => {
                    let (issued_us, read) = open.remove(&(client, seq)).ok_or_else(|| {
                        format!("completion of client {client} seq {seq} was never issued")
                    })?;
                    out.give_ups += u64::from(timed_out);
                    out.sheds += u64::from(shed);
                    if read && timely && !timed_out && !shed {
                        out.timely_reads += 1;
                    }
                    if !shed {
                        let ms = (at_us - issued_us) as f64 / 1e3;
                        if read {
                            out.read_ms.push(ms);
                        } else {
                            out.update_ms.push(ms);
                        }
                    }
                }
            }
        }
        if !open.is_empty() {
            return Err(format!("{} requests never completed", open.len()));
        }
        Ok(out)
    }

    /// Median read response time (ms); `None` without reads.
    pub fn read_p50_ms(&self) -> Option<f64> {
        percentile(&self.read_ms, 50.0)
    }

    /// 99th-percentile read response time (ms).
    pub fn read_p99_ms(&self) -> Option<f64> {
        percentile(&self.read_ms, 99.0)
    }

    /// Median update response time (ms); `None` without updates.
    pub fn update_p50_ms(&self) -> Option<f64> {
        percentile(&self.update_ms, 50.0)
    }

    /// 99th-percentile update response time (ms).
    pub fn update_p99_ms(&self) -> Option<f64> {
        percentile(&self.update_ms, 99.0)
    }

    /// Reads answered within the deadline over reads issued (the paper's
    /// `Pc` outcome); shed and given-up reads count as untimely.
    pub fn timely_read_frac(&self) -> Option<f64> {
        frac(self.timely_reads, self.reads)
    }

    /// Requests that failed: give-ups and local sheds.
    pub fn failed(&self) -> u64 {
        self.give_ups + self.sheds
    }

    /// Failed requests over requests issued.
    pub fn failed_frac(&self) -> Option<f64> {
        frac(self.failed(), self.requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issue(client: u64, seq: u64, at_ms: u64, read: bool) -> HistoryEvent {
        HistoryEvent::Issue {
            client,
            seq,
            at_us: at_ms * 1000,
            read,
            method: String::new(),
            arg: Vec::new(),
        }
    }

    fn complete(client: u64, seq: u64, at_ms: u64, timely: bool, timed_out: bool) -> HistoryEvent {
        complete_shed(client, seq, at_ms, timely, timed_out, false)
    }

    fn complete_shed(
        client: u64,
        seq: u64,
        at_ms: u64,
        timely: bool,
        timed_out: bool,
        shed: bool,
    ) -> HistoryEvent {
        HistoryEvent::Complete {
            client,
            seq,
            at_us: at_ms * 1000,
            result: Vec::new(),
            timely,
            deferred: false,
            staleness: 0,
            timed_out,
            shed,
            degraded: false,
            csn: 0,
            vector: Vec::new(),
        }
    }

    #[test]
    fn give_ups_enter_the_percentiles_at_their_give_up_time() {
        // 99 reads answered in 10 ms and one given up after 10 s: the
        // give-up is a sample, so p99 stays 10 ms but p100 is 10 s.
        let mut events = Vec::new();
        for seq in 0..99 {
            events.push(issue(1, seq, 0, true));
            events.push(complete(1, seq, 10, true, false));
        }
        events.push(issue(2, 0, 5, true));
        events.push(complete(2, 0, 10_005, false, true));
        let o = Outcomes::from_history(&events).unwrap();
        assert_eq!(o.read_ms.len(), 100);
        assert_eq!(o.read_p50_ms(), Some(10.0));
        assert_eq!(o.read_p99_ms(), Some(10.0));
        assert_eq!(percentile(&o.read_ms, 100.0), Some(10_000.0));
        assert_eq!(o.update_p50_ms(), None);
        assert_eq!(o.give_ups, 1);
    }

    #[test]
    fn fractions_use_issued_requests_as_denominators() {
        let events = vec![
            issue(1, 0, 0, true),
            complete(1, 0, 100, true, false), // timely read
            issue(1, 1, 1000, true),
            complete(1, 1, 1300, false, false), // late read
            issue(1, 2, 2000, true),
            complete_shed(1, 2, 2000, false, false, true), // shed read
            issue(1, 3, 3000, true),
            complete(1, 3, 13_000, false, true), // given-up read
            issue(1, 4, 14_000, false),
            complete(1, 4, 14_200, true, false), // update
        ];
        let o = Outcomes::from_history(&events).unwrap();
        assert_eq!((o.requests, o.reads), (5, 4));
        assert_eq!(o.timely_read_frac(), Some(0.25));
        assert_eq!(o.failed(), 2);
        assert_eq!(o.failed_frac(), Some(0.4));
        // The shed read has no response time; the give-up does.
        assert_eq!(o.read_ms, vec![100.0, 300.0, 10_000.0]);
        assert_eq!(o.update_ms, vec![200.0]);
    }

    #[test]
    fn write_only_history_has_no_read_metrics() {
        let events = vec![issue(1, 0, 0, false), complete(1, 0, 50, true, false)];
        let o = Outcomes::from_history(&events).unwrap();
        assert_eq!(o.read_p50_ms(), None);
        assert_eq!(o.read_p99_ms(), None);
        assert_eq!(o.timely_read_frac(), None);
        assert_eq!(o.failed_frac(), Some(0.0));
        assert_eq!(o.update_p99_ms(), Some(50.0));
    }

    #[test]
    fn empty_history_has_no_fractions() {
        let o = Outcomes::from_history(&[]).unwrap();
        assert_eq!(o.failed_frac(), None);
        assert_eq!(o.timely_read_frac(), None);
    }

    #[test]
    fn unmatched_events_are_errors() {
        assert!(Outcomes::from_history(&[complete(1, 0, 5, true, false)]).is_err());
        assert!(Outcomes::from_history(&[issue(1, 0, 5, true)]).is_err());
    }
}
