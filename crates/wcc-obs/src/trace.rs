//! Bounded ring-buffered trace capture with deterministic JSONL export.

use std::collections::VecDeque;
use std::fmt::Write as _;

use simcore::SimTime;

use crate::probe::{ExchangeKind, ObsEvent, Probe, RequestOutcome, ServerOpKind};

/// A [`Probe`] that keeps the most recent `capacity` events in a ring.
///
/// Capture is strictly bounded: once full, the oldest event is dropped
/// (and counted) for each new one — a runaway emitter can never grow
/// memory. Every event carries a global sequence number, so an export
/// makes drops visible as gaps and the header line reports them
/// explicitly.
///
/// Export order is arrival order and every JSON field is emitted in a
/// fixed sequence, so two identical runs produce byte-identical output.
#[derive(Debug, Clone)]
pub struct TraceProbe {
    capacity: usize,
    ring: VecDeque<(u64, SimTime, ObsEvent)>,
    next_seq: u64,
    dropped: u64,
}

impl TraceProbe {
    /// A trace buffer holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceProbe {
            capacity,
            ring: VecDeque::with_capacity(capacity),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Total events ever recorded (buffered + dropped).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Events evicted from the ring to make room.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The buffered `(seq, at, event)` triples, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(u64, SimTime, ObsEvent)> {
        self.ring.iter()
    }

    /// Re-emit every buffered event into `sink`, preserving timestamps.
    pub fn replay(&self, sink: &mut dyn Probe) {
        for &(_, at, event) in &self.ring {
            sink.record(at, event);
        }
    }

    /// Drop all buffered events and reset the sequence counter.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.next_seq = 0;
        self.dropped = 0;
    }

    /// The buffered events as JSONL (one event object per line, no
    /// header). Byte-identical for identical runs.
    pub fn to_jsonl_string(&self) -> String {
        let mut out = String::new();
        for (seq, at, event) in &self.ring {
            out.push_str(&event_json(*seq, *at, event));
            out.push('\n');
        }
        out
    }
}

impl Probe for TraceProbe {
    fn record(&mut self, at: SimTime, event: ObsEvent) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back((self.next_seq, at, event));
        self.next_seq += 1;
    }
}

/// One event as a single-line JSON object with a fixed field order.
pub fn event_json(seq: u64, at: SimTime, event: &ObsEvent) -> String {
    let mut s = String::with_capacity(64);
    write!(s, "{{\"seq\":{seq},\"t_s\":{}", at.as_secs()).expect("infallible");
    match event {
        ObsEvent::Request { file, outcome } => {
            write!(s, ",\"kind\":\"request\",\"file\":{}", file.index()).expect("infallible");
            match outcome {
                RequestOutcome::FreshHit => s.push_str(",\"outcome\":\"fresh_hit\""),
                RequestOutcome::StaleHit { age } => {
                    write!(s, ",\"outcome\":\"stale_hit\",\"age_s\":{}", age.as_secs())
                        .expect("infallible");
                }
                RequestOutcome::Miss => s.push_str(",\"outcome\":\"miss\""),
                RequestOutcome::ValidatedFresh => s.push_str(",\"outcome\":\"validated_fresh\""),
                RequestOutcome::ValidatedStale => s.push_str(",\"outcome\":\"validated_stale\""),
                RequestOutcome::Uncacheable => s.push_str(",\"outcome\":\"uncacheable\""),
            }
        }
        ObsEvent::Validation { file, modified } => {
            write!(
                s,
                ",\"kind\":\"validation\",\"file\":{},\"modified\":{modified}",
                file.index()
            )
            .expect("infallible");
        }
        ObsEvent::Exchange {
            file,
            kind,
            message_bytes,
            body_bytes,
        } => {
            let reply = match kind {
                ExchangeKind::NotModified => "not_modified",
                ExchangeKind::Body => "body",
                ExchangeKind::Gone => "gone",
                ExchangeKind::Notice => "notice",
            };
            write!(
                s,
                ",\"kind\":\"exchange\",\"file\":{},\"reply\":\"{reply}\",\"message_bytes\":{message_bytes},\"body_bytes\":{body_bytes}",
                file.index()
            )
            .expect("infallible");
        }
        ObsEvent::Invalidation { file, fanout } => {
            write!(
                s,
                ",\"kind\":\"invalidation\",\"file\":{},\"fanout\":{fanout}",
                file.index()
            )
            .expect("infallible");
        }
        ObsEvent::Eviction { file } => {
            write!(s, ",\"kind\":\"eviction\",\"file\":{}", file.index()).expect("infallible");
        }
        ObsEvent::Modification { file } => {
            write!(s, ",\"kind\":\"modification\",\"file\":{}", file.index()).expect("infallible");
        }
        ObsEvent::ServerOp { kind } => {
            let op = match kind {
                ServerOpKind::DocumentRequest => "document_request",
                ServerOpKind::ValidationQuery => "validation_query",
                ServerOpKind::InvalidationSent => "invalidation_sent",
                ServerOpKind::InvalidationRetracted => "invalidation_retracted",
            };
            write!(s, ",\"kind\":\"server_op\",\"op\":\"{op}\"").expect("infallible");
        }
        ObsEvent::PolicyDecision { file, fresh } => {
            write!(
                s,
                ",\"kind\":\"policy\",\"file\":{},\"fresh\":{fresh}",
                file.index()
            )
            .expect("infallible");
        }
        ObsEvent::Dispatched { pending } => {
            write!(s, ",\"kind\":\"dispatched\",\"pending\":{pending}").expect("infallible");
        }
        ObsEvent::LiveLatency { micros } => {
            write!(s, ",\"kind\":\"live_latency\",\"us\":{micros}").expect("infallible");
        }
        ObsEvent::ShardQueue { shard, depth } => {
            write!(
                s,
                ",\"kind\":\"shard_queue\",\"shard\":{shard},\"depth\":{depth}"
            )
            .expect("infallible");
        }
        ObsEvent::Upstream { reused } => {
            write!(s, ",\"kind\":\"upstream\",\"reused\":{reused}").expect("infallible");
        }
        ObsEvent::ConnAccepted { reactor, open } => {
            write!(
                s,
                ",\"kind\":\"conn_accepted\",\"reactor\":{reactor},\"open\":{open}"
            )
            .expect("infallible");
        }
        ObsEvent::ConnClosed { reactor, reason } => {
            write!(
                s,
                ",\"kind\":\"conn_closed\",\"reactor\":{reactor},\"reason\":\"{}\"",
                reason.label()
            )
            .expect("infallible");
        }
        ObsEvent::AcceptBacklog { reactor, depth } => {
            write!(
                s,
                ",\"kind\":\"accept_backlog\",\"reactor\":{reactor},\"depth\":{depth}"
            )
            .expect("infallible");
        }
        ObsEvent::OpenLoopArrival { depth } => {
            write!(s, ",\"kind\":\"openloop_arrival\",\"depth\":{depth}").expect("infallible");
        }
        ObsEvent::OpenLoopShed { reason } => {
            write!(
                s,
                ",\"kind\":\"openloop_shed\",\"reason\":\"{}\"",
                reason.label()
            )
            .expect("infallible");
        }
        ObsEvent::OpenLoopQueueDelay { micros } => {
            write!(s, ",\"kind\":\"openloop_queue_delay\",\"us\":{micros}").expect("infallible");
        }
        ObsEvent::LockContended { rank } => {
            write!(s, ",\"kind\":\"lock_contended\",\"rank\":{rank}").expect("infallible");
        }
    }
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{FileId, SimDuration};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut p = TraceProbe::new(2);
        for i in 0..5 {
            p.record(t(i), ObsEvent::Dispatched { pending: i as u32 });
        }
        assert_eq!(p.recorded(), 5);
        assert_eq!(p.dropped(), 3);
        let seqs: Vec<u64> = p.events().map(|&(s, _, _)| s).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn jsonl_has_fixed_field_order() {
        let mut p = TraceProbe::new(8);
        p.record(
            t(100),
            ObsEvent::Request {
                file: FileId(3),
                outcome: RequestOutcome::StaleHit {
                    age: SimDuration::from_secs(3600),
                },
            },
        );
        p.record(
            t(101),
            ObsEvent::ServerOp {
                kind: ServerOpKind::ValidationQuery,
            },
        );
        assert_eq!(
            p.to_jsonl_string(),
            "{\"seq\":0,\"t_s\":100,\"kind\":\"request\",\"file\":3,\
             \"outcome\":\"stale_hit\",\"age_s\":3600}\n\
             {\"seq\":1,\"t_s\":101,\"kind\":\"server_op\",\"op\":\"validation_query\"}\n"
        );
    }

    #[test]
    fn open_loop_events_serialize_with_fixed_fields() {
        use crate::probe::ShedReason;
        let mut p = TraceProbe::new(8);
        p.record(t(1), ObsEvent::OpenLoopArrival { depth: 5 });
        p.record(
            t(2),
            ObsEvent::OpenLoopShed {
                reason: ShedReason::QueueFull,
            },
        );
        p.record(t(3), ObsEvent::OpenLoopQueueDelay { micros: 42 });
        assert_eq!(
            p.to_jsonl_string(),
            "{\"seq\":0,\"t_s\":1,\"kind\":\"openloop_arrival\",\"depth\":5}\n\
             {\"seq\":1,\"t_s\":2,\"kind\":\"openloop_shed\",\"reason\":\"queue_full\"}\n\
             {\"seq\":2,\"t_s\":3,\"kind\":\"openloop_queue_delay\",\"us\":42}\n"
        );
    }

    #[test]
    fn identical_event_streams_export_identical_bytes() {
        let feed = |p: &mut TraceProbe| {
            p.record(t(1), ObsEvent::Modification { file: FileId(0) });
            p.record(
                t(2),
                ObsEvent::Invalidation {
                    file: FileId(0),
                    fanout: 2,
                },
            );
            p.record(
                t(3),
                ObsEvent::PolicyDecision {
                    file: FileId(0),
                    fresh: false,
                },
            );
        };
        let (mut a, mut b) = (TraceProbe::new(16), TraceProbe::new(16));
        feed(&mut a);
        feed(&mut b);
        assert_eq!(a.to_jsonl_string(), b.to_jsonl_string());
    }
}
