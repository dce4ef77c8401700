//! Bounded ring-buffered trace capture with deterministic JSONL export.

use std::collections::VecDeque;

use simcore::{FileId, SimTime};

use crate::json::JsonObj;
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

/// One event as a single-line JSON object with a fixed field order:
/// `seq`, `t_s`, `kind`, the file when the event names one, then the
/// variant's own fields.
pub fn event_json(seq: u64, at: SimTime, event: &ObsEvent) -> String {
    fn about<'o>(o: &'o mut JsonObj, kind: &str, file: FileId) -> &'o mut JsonObj {
        o.str("kind", kind).u64("file", u64::from(file.0))
    }
    let mut obj = JsonObj::new();
    let o = obj.u64("seq", seq).u64("t_s", at.as_secs());
    match *event {
        ObsEvent::Request { file, outcome } => {
            let (label, age) = match outcome {
                RequestOutcome::FreshHit => ("fresh_hit", None),
                RequestOutcome::StaleHit { age } => ("stale_hit", Some(age)),
                RequestOutcome::Miss => ("miss", None),
                RequestOutcome::ValidatedFresh => ("validated_fresh", None),
                RequestOutcome::ValidatedStale => ("validated_stale", None),
                RequestOutcome::Uncacheable => ("uncacheable", None),
            };
            let o = about(o, "request", file).str("outcome", label);
            match age {
                Some(age) => o.u64("age_s", age.as_secs()),
                None => o,
            }
        }
        ObsEvent::Validation { file, modified } => {
            about(o, "validation", file).bool("modified", modified)
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
            about(o, "exchange", file)
                .str("reply", reply)
                .u64("message_bytes", message_bytes)
                .u64("body_bytes", body_bytes)
        }
        ObsEvent::Invalidation { file, fanout } => {
            about(o, "invalidation", file).u64("fanout", fanout.into())
        }
        ObsEvent::Eviction { file } => about(o, "eviction", file),
        ObsEvent::Modification { file } => about(o, "modification", file),
        ObsEvent::ServerOp { kind } => {
            let op = match kind {
                ServerOpKind::DocumentRequest => "document_request",
                ServerOpKind::ValidationQuery => "validation_query",
                ServerOpKind::InvalidationSent => "invalidation_sent",
                ServerOpKind::InvalidationRetracted => "invalidation_retracted",
            };
            o.str("kind", "server_op").str("op", op)
        }
        ObsEvent::PolicyDecision { file, fresh } => about(o, "policy", file).bool("fresh", fresh),
        ObsEvent::Dispatched { pending } => {
            o.str("kind", "dispatched").u64("pending", pending.into())
        }
        ObsEvent::LiveLatency { micros } => o.str("kind", "live_latency").u64("us", micros),
        ObsEvent::ShardQueue { shard, depth } => o
            .str("kind", "shard_queue")
            .u64("shard", shard.into())
            .u64("depth", depth.into()),
        ObsEvent::Upstream { reused } => o.str("kind", "upstream").bool("reused", reused),
        ObsEvent::ConnAccepted { reactor, open } => o
            .str("kind", "conn_accepted")
            .u64("reactor", reactor.into())
            .u64("open", open.into()),
        ObsEvent::ConnClosed { reactor, reason } => o
            .str("kind", "conn_closed")
            .u64("reactor", reactor.into())
            .str("reason", reason.label()),
        ObsEvent::AcceptBacklog { reactor, depth } => o
            .str("kind", "accept_backlog")
            .u64("reactor", reactor.into())
            .u64("depth", depth.into()),
        ObsEvent::OpenLoopArrival { depth } => {
            o.str("kind", "openloop_arrival").u64("depth", depth.into())
        }
        ObsEvent::OpenLoopShed { reason } => {
            o.str("kind", "openloop_shed").str("reason", reason.label())
        }
        ObsEvent::OpenLoopQueueDelay { micros } => {
            o.str("kind", "openloop_queue_delay").u64("us", micros)
        }
        ObsEvent::LockContended { rank } => {
            o.str("kind", "lock_contended").u64("rank", rank.into())
        }
    };
    obj.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

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
    fn every_event_variant_has_its_exact_line() {
        use crate::probe::{ConnCloseReason, ShedReason};
        let file = FileId(42);
        let request = |outcome| ObsEvent::Request { file, outcome };
        let exchange = |kind, message_bytes, body_bytes| ObsEvent::Exchange {
            file,
            kind,
            message_bytes,
            body_bytes,
        };
        let server_op = |kind| ObsEvent::ServerOp { kind };
        let closed = |reason| ObsEvent::ConnClosed { reactor: 1, reason };
        let events = [
            request(RequestOutcome::FreshHit),
            request(RequestOutcome::StaleHit {
                age: SimDuration::from_secs(3600),
            }),
            request(RequestOutcome::Miss),
            request(RequestOutcome::ValidatedFresh),
            request(RequestOutcome::ValidatedStale),
            request(RequestOutcome::Uncacheable),
            ObsEvent::Validation {
                file,
                modified: true,
            },
            exchange(ExchangeKind::NotModified, 43, 0),
            exchange(ExchangeKind::Body, 124, 2048),
            exchange(ExchangeKind::Gone, 90, 0),
            exchange(ExchangeKind::Notice, 60, 0),
            ObsEvent::Invalidation { file, fanout: 3 },
            ObsEvent::Eviction { file },
            ObsEvent::Modification { file },
            server_op(ServerOpKind::DocumentRequest),
            server_op(ServerOpKind::ValidationQuery),
            server_op(ServerOpKind::InvalidationSent),
            server_op(ServerOpKind::InvalidationRetracted),
            ObsEvent::PolicyDecision { file, fresh: false },
            ObsEvent::Dispatched { pending: 17 },
            ObsEvent::LiveLatency { micros: 250 },
            ObsEvent::ShardQueue { shard: 2, depth: 5 },
            ObsEvent::Upstream { reused: true },
            ObsEvent::ConnAccepted {
                reactor: 1,
                open: 300,
            },
            closed(ConnCloseReason::PeerClosed),
            closed(ConnCloseReason::Error),
            closed(ConnCloseReason::BudgetExhausted),
            closed(ConnCloseReason::AtCapacity),
            closed(ConnCloseReason::Shutdown),
            ObsEvent::AcceptBacklog {
                reactor: 0,
                depth: 8,
            },
            ObsEvent::OpenLoopArrival { depth: 4 },
            ObsEvent::OpenLoopShed {
                reason: ShedReason::QueueFull,
            },
            ObsEvent::OpenLoopShed {
                reason: ShedReason::Timeout,
            },
            ObsEvent::OpenLoopQueueDelay { micros: 1500 },
            ObsEvent::LockContended { rank: 60 },
        ];
        let expected = [
            r#"{"seq":0,"t_s":86400,"kind":"request","file":42,"outcome":"fresh_hit"}"#,
            r#"{"seq":1,"t_s":86401,"kind":"request","file":42,"outcome":"stale_hit","age_s":3600}"#,
            r#"{"seq":2,"t_s":86402,"kind":"request","file":42,"outcome":"miss"}"#,
            r#"{"seq":3,"t_s":86403,"kind":"request","file":42,"outcome":"validated_fresh"}"#,
            r#"{"seq":4,"t_s":86404,"kind":"request","file":42,"outcome":"validated_stale"}"#,
            r#"{"seq":5,"t_s":86405,"kind":"request","file":42,"outcome":"uncacheable"}"#,
            r#"{"seq":6,"t_s":86406,"kind":"validation","file":42,"modified":true}"#,
            r#"{"seq":7,"t_s":86407,"kind":"exchange","file":42,"reply":"not_modified","message_bytes":43,"body_bytes":0}"#,
            r#"{"seq":8,"t_s":86408,"kind":"exchange","file":42,"reply":"body","message_bytes":124,"body_bytes":2048}"#,
            r#"{"seq":9,"t_s":86409,"kind":"exchange","file":42,"reply":"gone","message_bytes":90,"body_bytes":0}"#,
            r#"{"seq":10,"t_s":86410,"kind":"exchange","file":42,"reply":"notice","message_bytes":60,"body_bytes":0}"#,
            r#"{"seq":11,"t_s":86411,"kind":"invalidation","file":42,"fanout":3}"#,
            r#"{"seq":12,"t_s":86412,"kind":"eviction","file":42}"#,
            r#"{"seq":13,"t_s":86413,"kind":"modification","file":42}"#,
            r#"{"seq":14,"t_s":86414,"kind":"server_op","op":"document_request"}"#,
            r#"{"seq":15,"t_s":86415,"kind":"server_op","op":"validation_query"}"#,
            r#"{"seq":16,"t_s":86416,"kind":"server_op","op":"invalidation_sent"}"#,
            r#"{"seq":17,"t_s":86417,"kind":"server_op","op":"invalidation_retracted"}"#,
            r#"{"seq":18,"t_s":86418,"kind":"policy","file":42,"fresh":false}"#,
            r#"{"seq":19,"t_s":86419,"kind":"dispatched","pending":17}"#,
            r#"{"seq":20,"t_s":86420,"kind":"live_latency","us":250}"#,
            r#"{"seq":21,"t_s":86421,"kind":"shard_queue","shard":2,"depth":5}"#,
            r#"{"seq":22,"t_s":86422,"kind":"upstream","reused":true}"#,
            r#"{"seq":23,"t_s":86423,"kind":"conn_accepted","reactor":1,"open":300}"#,
            r#"{"seq":24,"t_s":86424,"kind":"conn_closed","reactor":1,"reason":"peer_closed"}"#,
            r#"{"seq":25,"t_s":86425,"kind":"conn_closed","reactor":1,"reason":"error"}"#,
            r#"{"seq":26,"t_s":86426,"kind":"conn_closed","reactor":1,"reason":"budget_exhausted"}"#,
            r#"{"seq":27,"t_s":86427,"kind":"conn_closed","reactor":1,"reason":"at_capacity"}"#,
            r#"{"seq":28,"t_s":86428,"kind":"conn_closed","reactor":1,"reason":"shutdown"}"#,
            r#"{"seq":29,"t_s":86429,"kind":"accept_backlog","reactor":0,"depth":8}"#,
            r#"{"seq":30,"t_s":86430,"kind":"openloop_arrival","depth":4}"#,
            r#"{"seq":31,"t_s":86431,"kind":"openloop_shed","reason":"queue_full"}"#,
            r#"{"seq":32,"t_s":86432,"kind":"openloop_shed","reason":"timeout"}"#,
            r#"{"seq":33,"t_s":86433,"kind":"openloop_queue_delay","us":1500}"#,
            r#"{"seq":34,"t_s":86434,"kind":"lock_contended","rank":60}"#,
        ];
        assert_eq!(events.len(), expected.len());
        for (seq, (event, want)) in events.iter().zip(expected).enumerate() {
            let seq = seq as u64;
            assert_eq!(event_json(seq, t(86_400 + seq), event), want);
        }
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
