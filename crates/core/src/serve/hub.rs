//! Per-campaign SSE fan-out: bounded drop-oldest subscriber queues, so a
//! slow reader can only hurt itself.

use crate::sweep::lock_recover;
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// One server-sent event: a name and a JSON data payload.
#[derive(Debug, Clone)]
pub struct Event {
    pub name: String,
    pub data: String,
}

/// What a subscriber sees on each poll.
pub enum Next {
    /// An event arrived.
    Event(Box<Event>),
    /// Nothing within the poll window (caller sends an SSE keepalive).
    Idle,
    /// The hub closed (campaign over) and the queue is drained.
    Closed,
}

/// A subscriber's bounded queue. Publishing never blocks: when the
/// queue is full the oldest event is dropped and counted, so a slow SSE
/// reader can only hurt itself.
pub struct Subscriber {
    pub(super) queue: Mutex<SubscriberQueue>,
    pub(super) cv: Condvar,
    dropped: AtomicUsize,
}

pub(super) struct SubscriberQueue {
    pub(super) events: VecDeque<Event>,
    pub(super) closed: bool,
}

impl Subscriber {
    fn new() -> Subscriber {
        Subscriber {
            queue: Mutex::new(SubscriberQueue {
                events: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            dropped: AtomicUsize::new(0),
        }
    }

    /// Pop the next event, waiting at most `timeout`.
    pub fn next(&self, timeout: Duration) -> Next {
        let mut q = lock_recover(&self.queue);
        if q.events.is_empty() && !q.closed {
            let (guard, _) = self
                .cv
                .wait_timeout(q, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            q = guard;
        }
        match q.events.pop_front() {
            Some(ev) => Next::Event(Box::new(ev)),
            None if q.closed => Next::Closed,
            None => Next::Idle,
        }
    }

    /// Events this subscriber lost to the drop-oldest bound.
    pub fn dropped(&self) -> usize {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Per-campaign event fan-out.
pub(super) struct EventHub {
    subscribers: Mutex<Vec<Arc<Subscriber>>>,
    capacity: usize,
    dropped_total: AtomicUsize,
}

impl EventHub {
    pub(super) fn new(capacity: usize) -> EventHub {
        EventHub {
            subscribers: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
            dropped_total: AtomicUsize::new(0),
        }
    }

    pub(super) fn subscribe(&self) -> Arc<Subscriber> {
        let sub = Arc::new(Subscriber::new());
        lock_recover(&self.subscribers).push(sub.clone());
        sub
    }

    /// Remove `sub`; returns how many subscribers remain.
    pub(super) fn unsubscribe(&self, sub: &Arc<Subscriber>) -> usize {
        let mut subs = lock_recover(&self.subscribers);
        subs.retain(|s| !Arc::ptr_eq(s, sub));
        subs.len()
    }

    /// Queue `payload`, serialized, as event `name` on every subscriber.
    pub(super) fn publish<T: Serialize>(&self, name: &str, payload: &T) {
        let data = serde_json::to_string(payload).unwrap_or_default();
        let subs = lock_recover(&self.subscribers).clone();
        for sub in subs {
            let mut q = lock_recover(&sub.queue);
            if q.closed {
                continue;
            }
            if q.events.len() >= self.capacity {
                q.events.pop_front();
                sub.dropped.fetch_add(1, Ordering::Relaxed);
                self.dropped_total.fetch_add(1, Ordering::Relaxed);
            }
            q.events.push_back(Event {
                name: name.to_string(),
                data: data.clone(),
            });
            sub.cv.notify_all();
        }
    }

    /// Mark every subscriber closed (they drain their queues and end).
    pub(super) fn close_all(&self) {
        let subs = lock_recover(&self.subscribers).clone();
        for sub in subs {
            lock_recover(&sub.queue).closed = true;
            sub.cv.notify_all();
        }
    }

    pub(super) fn dropped_total(&self) -> usize {
        self.dropped_total.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subscriber_buffer_drops_oldest_never_blocks() {
        let hub = EventHub::new(3);
        let sub = hub.subscribe();
        for i in 0..10 {
            hub.publish("tick", &i);
        }
        // Publishing 10 into a 3-deep queue keeps only the newest 3.
        let mut seen = Vec::new();
        for _ in 0..3 {
            match sub.next(Duration::from_millis(10)) {
                Next::Event(ev) => seen.push(ev.data.clone()),
                _ => panic!("expected an event"),
            }
        }
        assert_eq!(seen, vec!["7", "8", "9"]);
        assert_eq!(sub.dropped(), 7);
        assert_eq!(hub.dropped_total(), 7);
        assert!(matches!(sub.next(Duration::from_millis(5)), Next::Idle));
        hub.close_all();
        assert!(matches!(sub.next(Duration::from_millis(5)), Next::Closed));
    }
}
