//! Bounded multi-producer multi-consumer channel.
//!
//! The staged service runtime (`sirius-server`) connects per-service worker
//! pools with bounded queues: [`Sender::try_send`] is the shed-on-full
//! admission-control primitive, [`Sender::send`] blocks and so propagates
//! back-pressure between interior stages, and cloneable [`Receiver`]s let a
//! pool of workers drain one queue. Closing is cooperative: when every
//! `Sender` is gone, blocked receivers drain the remaining items and then
//! observe end-of-stream, which is what makes graceful shutdown a simple
//! cascade of channel closures.
//!
//! Built on `Mutex` + `Condvar` only (the build is offline, so no crossbeam);
//! at the queue depths and worker counts a serving pipeline uses, lock
//! contention is irrelevant next to millisecond-scale stage service times.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

struct Inner<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

/// Creates a bounded MPMC channel with room for `capacity` queued items
/// (clamped to at least 1).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
        }),
        capacity: capacity.max(1),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender(Arc::clone(&shared)), Receiver(shared))
}

/// Why [`Sender::try_send`] could not enqueue; the rejected value comes back.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue is at capacity (the admission-control shed signal).
    Full(T),
    /// Every receiver is gone; the value can never be delivered.
    Disconnected(T),
}

/// Returned by [`Sender::send`] when every receiver is gone; the undelivered
/// value comes back.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Why [`Receiver::try_recv`] returned no value. A consumer draining
/// opportunistically needs the distinction: `Empty` means "nothing for
/// now", `Disconnected` means "nothing ever again".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The queue is currently empty but senders remain; items may arrive.
    Empty,
    /// Every sender is gone and the queue is drained; no item will ever
    /// arrive again.
    Disconnected,
}

/// Why [`Receiver::recv_timeout`] returned no value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No item arrived within the timeout; senders remain.
    Timeout,
    /// Every sender is gone and the queue is drained.
    Disconnected,
}

/// The producing half. Cloneable; the channel closes when the last clone
/// drops.
pub struct Sender<T>(Arc<Shared<T>>);

/// The consuming half. Cloneable, so a pool of workers can share one queue.
pub struct Receiver<T>(Arc<Shared<T>>);

impl<T> Sender<T> {
    /// Enqueues without blocking, shedding the value if the queue is full.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut inner = self.0.inner.lock().expect("channel lock");
        if inner.receivers == 0 {
            return Err(TrySendError::Disconnected(value));
        }
        if inner.queue.len() >= self.0.capacity {
            return Err(TrySendError::Full(value));
        }
        inner.queue.push_back(value);
        drop(inner);
        self.0.not_empty.notify_one();
        Ok(())
    }

    /// Enqueues, blocking while the queue is full (back-pressure). Fails only
    /// when every receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut inner = self.0.inner.lock().expect("channel lock");
        loop {
            if inner.receivers == 0 {
                return Err(SendError(value));
            }
            if inner.queue.len() < self.0.capacity {
                inner.queue.push_back(value);
                drop(inner);
                self.0.not_empty.notify_one();
                return Ok(());
            }
            inner = self.0.not_full.wait(inner).expect("channel lock");
        }
    }

    /// Items currently queued (a racy snapshot, for load reporting).
    pub fn len(&self) -> usize {
        self.0.inner.lock().expect("channel lock").queue.len()
    }

    /// Whether the queue is currently empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fixed queue capacity.
    pub fn capacity(&self) -> usize {
        self.0.capacity
    }
}

impl<T> Receiver<T> {
    /// Dequeues, blocking while the queue is empty. Returns `None` once the
    /// channel is closed (every sender dropped) *and* drained.
    pub fn recv(&self) -> Option<T> {
        let mut inner = self.0.inner.lock().expect("channel lock");
        loop {
            if let Some(value) = inner.queue.pop_front() {
                drop(inner);
                self.0.not_full.notify_one();
                return Some(value);
            }
            if inner.senders == 0 {
                return None;
            }
            inner = self.0.not_empty.wait(inner).expect("channel lock");
        }
    }

    /// Dequeues without blocking.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] while the queue is empty but still open;
    /// [`TryRecvError::Disconnected`] once every sender is gone *and* the
    /// queue is drained (matching [`Receiver::recv`] returning `None`).
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut inner = self.0.inner.lock().expect("channel lock");
        match inner.queue.pop_front() {
            Some(value) => {
                drop(inner);
                self.0.not_full.notify_one();
                Ok(value)
            }
            None if inner.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Dequeues, blocking up to `timeout` while the queue is empty (a
    /// drain-with-deadline primitive).
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] if no item arrived in time;
    /// [`RecvTimeoutError::Disconnected`] once the channel is closed (every
    /// sender dropped) and drained.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now().checked_add(timeout);
        let mut inner = self.0.inner.lock().expect("channel lock");
        loop {
            if let Some(value) = inner.queue.pop_front() {
                drop(inner);
                self.0.not_full.notify_one();
                return Ok(value);
            }
            if inner.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            // A timeout too far out to represent can never pass; degrade to
            // an untimed wait instead of overflowing `Instant` arithmetic.
            let Some(deadline) = deadline else {
                inner = self.0.not_empty.wait(inner).expect("channel lock");
                continue;
            };
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (guard, _) = self
                .0
                .not_empty
                .wait_timeout(inner, deadline - now)
                .expect("channel lock");
            inner = guard;
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.inner.lock().expect("channel lock").senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.0.inner.lock().expect("channel lock").receivers += 1;
        Receiver(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let remaining = {
            let mut inner = self.0.inner.lock().expect("channel lock");
            inner.senders -= 1;
            inner.senders
        };
        if remaining == 0 {
            // Wake blocked receivers so they observe end-of-stream.
            self.0.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let remaining = {
            let mut inner = self.0.inner.lock().expect("channel lock");
            inner.receivers -= 1;
            inner.receivers
        };
        if remaining == 0 {
            // Wake blocked senders so they observe disconnection.
            self.0.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_send_sheds_when_full_and_recovers_after_recv() {
        let (tx, rx) = bounded(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(tx.len(), 2);
        assert_eq!(rx.try_recv(), Ok(1));
        tx.try_send(3).unwrap();
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), Some(3));
        assert!(tx.is_empty());
        assert_eq!(tx.capacity(), 2);
    }

    #[test]
    fn receivers_drain_then_observe_close() {
        let (tx, rx) = bounded(8);
        tx.try_send("a").unwrap();
        tx.try_send("b").unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Some("a"));
        assert_eq!(rx.recv(), Some("b"));
        assert_eq!(rx.recv(), None);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_blocks_until_a_slot_frees() {
        let (tx, rx) = bounded(1);
        tx.send(0u32).unwrap();
        let sender = std::thread::spawn(move || {
            tx.send(1).unwrap();
            tx.send(2).unwrap();
        });
        let mut got = Vec::new();
        for _ in 0..3 {
            got.push(rx.recv().unwrap());
        }
        sender.join().unwrap();
        assert_eq!(got, vec![0, 1, 2]);
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn send_fails_when_all_receivers_gone() {
        let (tx, rx) = bounded(1);
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
        assert_eq!(tx.try_send(8), Err(TrySendError::Disconnected(8)));
    }

    #[test]
    fn blocked_sender_wakes_on_receiver_drop() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let sender = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(rx);
        assert_eq!(sender.join().unwrap(), Err(SendError(2)));
    }

    #[test]
    fn mpmc_delivers_every_item_exactly_once() {
        const ITEMS: usize = 500;
        let (tx, rx) = bounded(4);
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        drop(rx);
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..ITEMS / 2 {
                        tx.send(p * (ITEMS / 2) + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<usize> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..ITEMS).collect::<Vec<_>>());
    }

    #[test]
    fn try_recv_distinguishes_empty_from_disconnected() {
        let (tx, rx) = bounded(4);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.try_send(9).unwrap();
        assert_eq!(rx.try_recv(), Ok(9));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.try_send(10).unwrap();
        drop(tx);
        // Closed but not drained: the queued item still comes out first.
        assert_eq!(rx.try_recv(), Ok(10));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn recv_timeout_returns_queued_item_immediately() {
        let (tx, rx) = bounded(2);
        tx.try_send(5).unwrap();
        let begun = std::time::Instant::now();
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(5));
        assert!(begun.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn recv_timeout_times_out_on_an_open_empty_queue() {
        let (tx, rx) = bounded::<u32>(2);
        let begun = std::time::Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(30)),
            Err(RecvTimeoutError::Timeout)
        );
        assert!(begun.elapsed() >= Duration::from_millis(30));
        drop(tx);
    }

    #[test]
    fn recv_timeout_wakes_on_a_late_send() {
        let (tx, rx) = bounded(2);
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.send(77).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(77));
        sender.join().unwrap();
    }

    #[test]
    fn recv_timeout_observes_close_without_waiting_out_the_timeout() {
        let (tx, rx) = bounded::<u32>(2);
        let closer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            drop(tx);
        });
        let begun = std::time::Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(30)),
            Err(RecvTimeoutError::Disconnected)
        );
        assert!(begun.elapsed() < Duration::from_secs(30));
        closer.join().unwrap();
    }

    #[test]
    fn recv_timeout_drains_before_reporting_disconnect() {
        let (tx, rx) = bounded(4);
        tx.try_send("x").unwrap();
        drop(tx);
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok("x"));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn recv_timeout_near_duration_max_degrades_to_untimed_wait() {
        // Regression guard: `Instant::now() + Duration::MAX` overflows; an
        // unrepresentable deadline must wait untimed, not panic.
        let (tx, rx) = bounded(1);
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.send(1u8).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::MAX), Ok(1));
        sender.join().unwrap();
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let (tx, rx) = bounded(0);
        assert_eq!(tx.capacity(), 1);
        tx.try_send(1).unwrap();
        assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
        assert_eq!(rx.recv(), Some(1));
    }
}
