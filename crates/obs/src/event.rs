//! The typed simulator event model.
//!
//! Events are small `Copy` records keyed by (cycle, track): a *track* is
//! one simulated agent — track 0 is the soft CPU (or the single hardware
//! thread of a pure-HW run), tracks 1.. are hardware threads. Resource
//! ids (queues, semaphores) are plain indices so this crate stays
//! dependency-free; `twill-rt` converts its `QueueId`/`SemId` newtypes at
//! the recording site.

use std::fmt;

/// The one spelling of a queue's name, `q{i}`: `QueueId`'s `Display`, the
/// Perfetto track names, the counter register names and the tuner's
/// `--queue-depths` list all format through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueName(pub usize);

impl fmt::Display for QueueName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Classification of a runtime operation (what a slice on a thread track
/// represents).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    Enqueue,
    Dequeue,
    SemRaise,
    SemLower,
    MemLoad,
    MemStore,
    Out,
    In,
}

impl OpClass {
    /// Stable lowercase name (used as the Perfetto slice name).
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Enqueue => "enqueue",
            OpClass::Dequeue => "dequeue",
            OpClass::SemRaise => "sem_raise",
            OpClass::SemLower => "sem_lower",
            OpClass::MemLoad => "mem_load",
            OpClass::MemStore => "mem_store",
            OpClass::Out => "out",
            OpClass::In => "in",
        }
    }
}

/// Classification of an injected fault (mirrors `twill-rt`'s fault model;
/// plain so this crate stays dependency-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// A queue payload had one bit flipped in flight.
    QueueBitFlip,
    /// A queue message was silently lost between producer and consumer.
    QueueDrop,
    /// A queue message was delivered twice.
    QueueDup,
    /// A hardware thread was frozen for N cycles.
    HwStall,
    /// A single-event upset flipped one bit of shared memory.
    MemUpset,
}

impl FaultClass {
    /// Stable lowercase name (used in Perfetto instants and reports).
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::QueueBitFlip => "queue-bit-flip",
            FaultClass::QueueDrop => "queue-drop",
            FaultClass::QueueDup => "queue-dup",
            FaultClass::HwStall => "hw-stall",
            FaultClass::MemUpset => "mem-upset",
        }
    }
}

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A runtime/memory operation was issued on this track.
    OpStart { op: OpClass },
    /// The operation completed (closes the matching [`EventKind::OpStart`]).
    OpRetire { op: OpClass },
    /// The operation was cancelled before completing (the CPU scheduler
    /// switched out a resource-blocked thread; the op had no effect and
    /// will be reissued). Also closes the matching `OpStart`.
    OpCancel { op: OpClass },
    /// A value entered a queue; `occupancy` is the fill level afterwards.
    QueuePush { queue: u16, occupancy: u32 },
    /// A value left a queue; `occupancy` is the fill level afterwards.
    QueuePop { queue: u16, occupancy: u32 },
    /// An operation began stalling on a queue (`full`: producer blocked on
    /// a full queue; otherwise consumer blocked on an empty one). Recorded
    /// once per stall episode, not per blocked cycle.
    QueueStall { queue: u16, full: bool },
    /// An operation began stalling on a semaphore lower.
    SemWait { sem: u16 },
    /// A semaphore changed value (raise or completed lower).
    SemSignal { sem: u16, value: u32 },
    /// The CPU's hardware scheduler switched the active software thread.
    ContextSwitch { to: u16 },
    /// A word was written to the output stream.
    Output { value: i32 },
    /// The fault layer injected a fault. `unit` names the affected
    /// resource: the queue index for queue faults, the agent index for
    /// stalls, the byte address for memory upsets.
    Fault { fault: FaultClass, unit: u32 },
}

/// One traced occurrence: when, where, what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub cycle: u64,
    /// Agent index (0 = CPU / first agent, 1.. = hardware threads).
    pub track: u16,
    pub kind: EventKind,
}

/// Render events as readable text, one per line (the debugging fallback
/// when a Perfetto UI is not at hand).
pub fn format_events(events: &[Event]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for e in events {
        let _ = write!(out, "{:>10}  t{}  ", e.cycle, e.track);
        let _ = match e.kind {
            EventKind::OpStart { op } => writeln!(out, "start   {}", op.name()),
            EventKind::OpRetire { op } => writeln!(out, "retire  {}", op.name()),
            EventKind::OpCancel { op } => writeln!(out, "cancel  {}", op.name()),
            EventKind::QueuePush { queue, occupancy } => {
                writeln!(out, "push    q{queue}  occupancy={occupancy}")
            }
            EventKind::QueuePop { queue, occupancy } => {
                writeln!(out, "pop     q{queue}  occupancy={occupancy}")
            }
            EventKind::QueueStall { queue, full } => {
                writeln!(out, "stall   q{queue}  {}", if full { "full" } else { "empty" })
            }
            EventKind::SemWait { sem } => writeln!(out, "wait    sem{sem}"),
            EventKind::SemSignal { sem, value } => writeln!(out, "signal  sem{sem} -> {value}"),
            EventKind::ContextSwitch { to } => writeln!(out, "switch  -> sw-thread {to}"),
            EventKind::Output { value } => writeln!(out, "out     {value}"),
            EventKind::Fault { fault, unit } => {
                writeln!(out, "fault   {} unit={unit}", fault.name())
            }
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_is_one_line_per_event() {
        let events = [
            Event { cycle: 1, track: 0, kind: EventKind::OpStart { op: OpClass::Enqueue } },
            Event { cycle: 3, track: 0, kind: EventKind::QueuePush { queue: 0, occupancy: 1 } },
            Event { cycle: 3, track: 0, kind: EventKind::OpRetire { op: OpClass::Enqueue } },
            Event { cycle: 9, track: 1, kind: EventKind::Output { value: -7 } },
        ];
        let text = format_events(&events);
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains("push    q0"));
        assert!(text.contains("out     -7"));
    }

    #[test]
    fn fault_events_render_class_and_unit() {
        let events = [
            Event {
                cycle: 5,
                track: 1,
                kind: EventKind::Fault { fault: FaultClass::QueueDrop, unit: 2 },
            },
            Event {
                cycle: 6,
                track: 0,
                kind: EventKind::Fault { fault: FaultClass::MemUpset, unit: 0x2000 },
            },
        ];
        let text = format_events(&events);
        assert!(text.contains("fault   queue-drop unit=2"), "{text}");
        assert!(text.contains("fault   mem-upset unit=8192"), "{text}");
    }
}
