//! The trace event schema: what the executor records, in a fixed-width
//! encoding that one ring-buffer slot can hold.
//!
//! Every event is five 64-bit words: two timestamps (begin/end nanoseconds
//! since the tracer's epoch; instantaneous events carry `t1 == t0`), one word
//! packing the event kind, the recording worker, and two kind-specific 16-bit
//! payload fields, one word packing the task index and a kind-specific 32-bit
//! payload, and a publication marker (owned by the ring, see
//! [`crate::ring`]).  The fixed width is what lets the rings be plain arrays
//! of relaxed atomics: concurrent overwrite during wraparound is a benign
//! data race on a counter-guarded slot, never undefined behaviour.

/// Task index carried by events that do not concern a graph task (boxed
/// closures, run-level events).
pub const NO_TASK: u32 = u32::MAX;

/// What happened.  The discriminants are the wire encoding: they appear in
/// ring slots and in exported traces, so they are stable and explicit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum EventKind {
    /// A job was pushed onto a queue.  `a` holds the [`QueueKind`]
    /// discriminant, `b` the group index (for [`QueueKind::Group`]) or 0.
    Enqueue = 0,
    /// A graph task was claimed: its dependency counter reached zero and its
    /// live counter was restored (the exactly-once point of the dataflow
    /// executor).
    Claim = 1,
    /// A task (or boxed job) executed; `t0..t1` spans the work.  `a` is the
    /// steal distance class + 1 if the unit was just stolen (0 = ran from the
    /// worker's own deque or an injector), `b` bit 0 is set when the task was
    /// reached by inline tail-execution (it never touched a deque).
    Exec = 2,
    /// A successful steal from another worker's deque.  `a` is the victim
    /// worker, `b` the topology's distance class; `t0..t1` spans the
    /// work-finding attempt that ended in this steal.
    Steal = 3,
    /// A persistent run re-armed its completion latch.  `b` is the fresh
    /// count.
    LatchReset = 4,
    /// A graph execution began; `b` is a session-unique run number.
    RunBegin = 5,
    /// The matching graph execution completed; `b` is the run number.
    RunEnd = 6,
    /// A run fault was observed: a strand panic was caught or a run deadline
    /// was blown, cancelling the rest of the run.  `task` is the faulting
    /// task (or [`NO_TASK`] for run-level faults), `a` the `RunError` wire
    /// kind (0 = panic, 1 = deadline exceeded).
    Fault = 7,
    // Wire code 8 is unassigned; the kinds after it keep their codes.
    /// The serving layer re-queued a faulted job for another attempt.  `a` is
    /// the attempt number being retried *from* (1 = first retry), `b` the
    /// backoff delay in microseconds.
    Retry = 9,
    /// A serving-layer circuit breaker changed state.  `a` is the new state's
    /// wire kind (0 = closed, 1 = open, 2 = half-open), `b` the breaker's
    /// graph-key hash (stable within a session, for correlating trips).
    Breaker = 10,
    /// A serving-layer drain milestone.  `a` is the phase wire kind
    /// (0 = drain begin, 1 = drain complete, 2 = drain deadline expired),
    /// `b` the number of jobs still in flight at the instant.
    Drain = 11,
}

impl EventKind {
    /// Decodes a wire discriminant; `None` for values outside the schema
    /// (e.g. a ring slot torn by wraparound).
    pub fn from_wire(v: u8) -> Option<Self> {
        Some(match v {
            0 => EventKind::Enqueue,
            1 => EventKind::Claim,
            2 => EventKind::Exec,
            3 => EventKind::Steal,
            4 => EventKind::LatchReset,
            5 => EventKind::RunBegin,
            6 => EventKind::RunEnd,
            7 => EventKind::Fault,
            9 => EventKind::Retry,
            10 => EventKind::Breaker,
            11 => EventKind::Drain,
            _ => return None,
        })
    }

    /// Short stable name, used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Enqueue => "enqueue",
            EventKind::Claim => "claim",
            EventKind::Exec => "exec",
            EventKind::Steal => "steal",
            EventKind::LatchReset => "latch_reset",
            EventKind::RunBegin => "run_begin",
            EventKind::RunEnd => "run_end",
            EventKind::Fault => "fault",
            EventKind::Retry => "retry",
            EventKind::Breaker => "breaker",
            EventKind::Drain => "drain",
        }
    }
}

/// Which queue an [`EventKind::Enqueue`] targeted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u16)]
pub enum QueueKind {
    /// The spawning worker's own LIFO deque.
    LocalDeque = 0,
    /// A queue group's FIFO injector (the anchoring path).
    Group = 1,
    /// The pool-wide FIFO injector.
    Global = 2,
}

impl QueueKind {
    /// Decodes a wire discriminant.
    pub fn from_wire(v: u16) -> Option<Self> {
        Some(match v {
            0 => QueueKind::LocalDeque,
            1 => QueueKind::Group,
            2 => QueueKind::Global,
            _ => return None,
        })
    }

    /// Short stable name, used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            QueueKind::LocalDeque => "local_deque",
            QueueKind::Group => "group",
            QueueKind::Global => "global",
        }
    }
}

/// Bit set in an [`EventKind::Exec`] event's `b` field when the task was
/// reached by inline tail-execution.
pub const EXEC_FLAG_INLINE: u32 = 1;

/// One decoded trace event.
///
/// `worker` is the ring the event was recorded into: worker index for events
/// emitted on pool threads, the pool's external ring index (`num_workers`)
/// for events emitted by submitting threads (root enqueues, run begin/end,
/// latch re-arms).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// What happened.
    pub kind: EventKind,
    /// Recording ring: worker index, or `num_workers` for external threads.
    pub worker: u32,
    /// Graph task index, or [`NO_TASK`].
    pub task: u32,
    /// Begin timestamp, nanoseconds since the tracer's epoch.
    pub t0_ns: u64,
    /// End timestamp; equals `t0_ns` for instantaneous events.
    pub t1_ns: u64,
    /// Kind-specific payload (queue kind, victim worker, steal distance + 1).
    pub a: u16,
    /// Kind-specific payload (group index, distance class, flags, run number).
    pub b: u32,
}

impl TraceEvent {
    /// Packs the event into its four payload words (the fifth slot word is
    /// the ring's publication marker).
    #[inline]
    pub(crate) fn encode(&self) -> [u64; 4] {
        let w2 =
            (self.kind as u64) | ((self.worker as u64 & 0xFFFF) << 16) | ((self.a as u64) << 32);
        let w3 = (self.task as u64) | ((self.b as u64) << 32);
        [self.t0_ns, self.t1_ns, w2, w3]
    }

    /// Decodes four payload words; `None` if the kind discriminant is invalid
    /// (a torn or unwritten slot).
    #[inline]
    pub(crate) fn decode(w: [u64; 4]) -> Option<Self> {
        let kind = EventKind::from_wire((w[2] & 0xFF) as u8)?;
        Some(TraceEvent {
            kind,
            worker: ((w[2] >> 16) & 0xFFFF) as u32,
            a: ((w[2] >> 32) & 0xFFFF) as u16,
            task: (w[3] & 0xFFFF_FFFF) as u32,
            b: (w[3] >> 32) as u32,
            t0_ns: w[0],
            t1_ns: w[1],
        })
    }

    /// The event's duration in nanoseconds (0 for instantaneous events).
    #[inline]
    pub fn duration_ns(&self) -> u64 {
        self.t1_ns.saturating_sub(self.t0_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trips() {
        let ev = TraceEvent {
            kind: EventKind::Exec,
            worker: 7,
            task: 123_456,
            t0_ns: 42,
            t1_ns: 99,
            a: 3,
            b: EXEC_FLAG_INLINE,
        };
        assert_eq!(TraceEvent::decode(ev.encode()), Some(ev));
    }

    #[test]
    fn all_kinds_round_trip_their_discriminant() {
        for kind in [
            EventKind::Enqueue,
            EventKind::Claim,
            EventKind::Exec,
            EventKind::Steal,
            EventKind::LatchReset,
            EventKind::RunBegin,
            EventKind::RunEnd,
            EventKind::Fault,
            EventKind::Retry,
            EventKind::Breaker,
            EventKind::Drain,
        ] {
            assert_eq!(EventKind::from_wire(kind as u8), Some(kind));
        }
        // Wire code 8 stays unassigned (see `EventKind`).
        assert_eq!(EventKind::from_wire(8), None);
        assert_eq!(EventKind::from_wire(200), None);
    }

    #[test]
    fn torn_slot_decodes_to_none() {
        assert_eq!(TraceEvent::decode([0, 0, 0xFF, 0]), None);
    }
}
