//! Progress reporting for long runs.
//!
//! The experiment grid can run hundreds of simulations; users want a
//! live status line without the status ever contaminating the
//! machine-readable results on stdout. The contract here:
//!
//! * Workers (possibly many threads) hold a cloneable [`Progress`]
//!   handle and report [`ProgressEvent`]s through it.
//! * A [`Progress::stderr`] handle renders each event as one
//!   human-readable line on **stderr**, so stdout stays pipeable.
//!   `eprintln!` locks stderr for the whole line, so lines never
//!   interleave mid-character even when many workers report at once.
//! * A [`Progress::channel`] handle forwards events to an
//!   `mpsc::Receiver` (what tests inspect).
//! * A [`Progress::disabled`] handle makes every report a no-op, letting
//!   library code report unconditionally with zero cost when nobody is
//!   listening.

use std::sync::mpsc::{self, Receiver, Sender};

/// One progress event from a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgressEvent {
    /// A work unit started executing.
    Started {
        /// Human-readable label of the work unit.
        label: String,
        /// 1-based position in the overall run.
        index: usize,
        /// Total number of work units in the run.
        total: usize,
    },
    /// A work unit finished.
    Finished {
        /// Human-readable label of the work unit.
        label: String,
        /// 1-based position in the overall run.
        index: usize,
        /// Total number of work units in the run.
        total: usize,
        /// Wall-clock duration of the unit, in milliseconds.
        millis: u64,
    },
}

impl ProgressEvent {
    /// The status line printed for this event.
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            Self::Started {
                label,
                index,
                total,
            } => format!("[{index}/{total}] {label} ..."),
            Self::Finished {
                label,
                index,
                total,
                millis,
            } => format!("[{index}/{total}] {label} done in {millis} ms"),
        }
    }
}

/// A cloneable handle workers report progress through: printing to
/// stderr ([`Progress::stderr`]), forwarding to a channel
/// ([`Progress::channel`]), or disabled (every report is a no-op).
#[derive(Clone, Debug)]
pub struct Progress {
    sink: Sink,
}

#[derive(Clone, Debug)]
enum Sink {
    Disabled,
    Stderr,
    Channel(Sender<ProgressEvent>),
}

impl Progress {
    /// A handle that drops every event (for tests and library callers
    /// that don't want status output).
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            sink: Sink::Disabled,
        }
    }

    /// A handle paired with the raw receiving end (for tests).
    #[must_use]
    pub fn channel() -> (Self, Receiver<ProgressEvent>) {
        let (tx, rx) = mpsc::channel();
        (
            Self {
                sink: Sink::Channel(tx),
            },
            rx,
        )
    }

    /// A handle that prints every event to stderr, one line per event.
    #[must_use]
    pub fn stderr() -> Self {
        Self { sink: Sink::Stderr }
    }

    /// Report an event. Silently dropped when disabled or when the
    /// receiver is gone — progress must never fail a run.
    pub fn send(&self, ev: ProgressEvent) {
        match &self.sink {
            Sink::Disabled => {}
            Sink::Stderr => eprintln!("{}", ev.render()),
            Sink::Channel(tx) => {
                let _ = tx.send(ev);
            }
        }
    }

    /// Report the start of work unit `index` of `total`.
    pub fn started(&self, label: &str, index: usize, total: usize) {
        self.send(ProgressEvent::Started {
            label: label.to_string(),
            index,
            total,
        });
    }

    /// Report the completion of work unit `index` of `total`.
    pub fn finished(&self, label: &str, index: usize, total: usize, millis: u64) {
        self.send(ProgressEvent::Finished {
            label: label.to_string(),
            index,
            total,
            millis,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_drops_everything() {
        let p = Progress::disabled();
        p.started("x", 1, 2);
        p.finished("x", 1, 2, 5);
    }

    #[test]
    fn channel_delivers_in_order() {
        let (p, rx) = Progress::channel();
        let worker = p.clone();
        worker.started("fig2", 1, 14);
        p.started("fig3", 2, 14);
        worker.finished("fig2", 1, 14, 120);
        drop((p, worker));
        let events: Vec<_> = rx.into_iter().collect();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].render(), "[1/14] fig2 ...");
        assert_eq!(events[1].render(), "[2/14] fig3 ...");
        assert_eq!(events[2].render(), "[1/14] fig2 done in 120 ms");
    }

    #[test]
    fn stderr_handle_prints_from_every_clone() {
        let p = Progress::stderr();
        p.started("fig2", 1, 14);
        p.clone().finished("fig2", 1, 14, 3);
    }
}
