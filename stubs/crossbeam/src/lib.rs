//! Offline stand-in for `crossbeam`, providing the `channel` module subset
//! odp-rs uses: MPMC bounded/unbounded channels with clonable senders *and*
//! receivers, blocking/timeout/non-blocking receives, blocking and
//! non-blocking sends, and disconnect semantics matching the real crate
//! (send fails once all receivers are gone; recv drains remaining messages
//! then reports disconnect).
//!
//! A thread that blocks counts itself as parked under the queue lock, and
//! the other side signals only when someone is parked: a send nobody waits
//! for, or a receive nobody waits behind, makes no wake-up system call.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    /// Error returned by [`Sender::send`] when all receivers are gone;
    /// carries the unsent message.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error returned by [`Sender::try_send`]; carries the unsent message.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// A bounded channel is at capacity.
        Full(T),
        /// All receivers are gone.
        Disconnected(T),
    }

    impl<T> TrySendError<T> {
        /// The message that could not be sent.
        pub fn into_inner(self) -> T {
            match self {
                TrySendError::Full(v) | TrySendError::Disconnected(v) => v,
            }
        }
    }

    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => write!(f, "sending on a full channel"),
                TrySendError::Disconnected(_) => write!(f, "sending on a disconnected channel"),
            }
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// Nothing arrived before the deadline.
        Timeout,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => write!(f, "timed out waiting on channel"),
                RecvTimeoutError::Disconnected => write!(f, "channel is disconnected"),
            }
        }
    }

    impl std::error::Error for RecvTimeoutError {}

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => write!(f, "channel is empty"),
                TryRecvError::Disconnected => write!(f, "channel is disconnected"),
            }
        }
    }

    impl std::error::Error for TryRecvError {}

    struct State<T> {
        queue: VecDeque<T>,
        /// Receivers blocked waiting for a message.
        parked_receivers: usize,
        /// Senders blocked waiting for capacity (bounded channels only).
        parked_senders: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        /// `None` = unbounded.
        capacity: Option<usize>,
        senders: AtomicUsize,
        receivers: AtomicUsize,
        /// Signalled when a message arrives or the last sender leaves.
        readable: Condvar,
        /// Signalled when capacity frees up or the last receiver leaves.
        writable: Condvar,
        /// Untimed blocking waits that ran out their safety-net timeout: a
        /// lost wake-up costs one of these instead of a hang.
        stalls: AtomicUsize,
    }

    /// How long `recv` and a blocked `send` sleep before re-checking.
    const SAFETY_NET: Duration = Duration::from_millis(50);

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
        }

        /// Parks on `cond` for up to `timeout` (`None`: an untimed wait,
        /// which sleeps at most [`SAFETY_NET`]), counted in the field that
        /// `parked` selects so the other side knows to signal.
        fn park<'a>(
            &self,
            cond: &Condvar,
            mut state: MutexGuard<'a, State<T>>,
            timeout: Option<Duration>,
            parked: fn(&mut State<T>) -> &mut usize,
        ) -> MutexGuard<'a, State<T>> {
            *parked(&mut state) += 1;
            let (mut state, waited) = cond
                .wait_timeout(state, timeout.unwrap_or(SAFETY_NET))
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            *parked(&mut state) -= 1;
            if waited.timed_out() && timeout.is_none() {
                self.stalls.fetch_add(1, Ordering::Relaxed);
            }
            state
        }

        /// Queues a message, waking one receiver parked for it.
        fn push(&self, mut state: MutexGuard<'_, State<T>>, value: T) {
            state.queue.push_back(value);
            let wake = state.parked_receivers > 0;
            drop(state);
            if wake {
                self.readable.notify_one();
            }
        }

        /// Takes the next message, waking one sender blocked on capacity.
        fn pop(&self, mut state: MutexGuard<'_, State<T>>) -> Option<T> {
            let value = state.queue.pop_front()?;
            let wake = state.parked_senders > 0;
            drop(state);
            if wake {
                self.writable.notify_one();
            }
            Some(value)
        }

        /// Wakes everyone parked on `cond` after the last peer left. The
        /// lock orders this after any waiter that checked the peer count
        /// but has not parked yet.
        fn disconnect(&self, cond: &Condvar) {
            drop(self.lock());
            cond.notify_all();
        }
    }

    /// The sending half; clonable.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; clonable (MPMC).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Creates an unbounded channel.
    #[must_use]
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// Creates a bounded channel holding at most `cap` messages; sends
    /// block while full.
    #[must_use]
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(cap))
    }

    fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                parked_receivers: 0,
                parked_senders: 0,
            }),
            capacity,
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
            readable: Condvar::new(),
            writable: Condvar::new(),
            stalls: AtomicUsize::new(0),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Sends a message, blocking while a bounded channel is full.
        /// Fails (returning the message) once all receivers are gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let shared = &*self.shared;
            let mut state = shared.lock();
            loop {
                if shared.receivers.load(Ordering::Acquire) == 0 {
                    return Err(SendError(value));
                }
                match shared.capacity {
                    Some(cap) if state.queue.len() >= cap => {
                        state = shared.park(&shared.writable, state, None, |s| {
                            &mut s.parked_senders
                        });
                    }
                    _ => break,
                }
            }
            shared.push(state, value);
            Ok(())
        }

        /// Sends without blocking: fails (returning the message) when a
        /// bounded channel is full or all receivers are gone.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let shared = &*self.shared;
            let state = shared.lock();
            if shared.receivers.load(Ordering::Acquire) == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if shared
                .capacity
                .is_some_and(|cap| state.queue.len() >= cap)
            {
                return Err(TrySendError::Full(value));
            }
            shared.push(state, value);
            Ok(())
        }

        /// Number of messages currently queued.
        #[must_use]
        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        /// Whether the queue is currently empty.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            self.shared.senders.fetch_add(1, Ordering::AcqRel);
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender: wake receivers so they observe disconnect.
                self.shared.disconnect(&self.shared.readable);
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Sender").finish_non_exhaustive()
        }
    }

    impl<T> Receiver<T> {
        /// Receives a message, blocking until one arrives or every sender
        /// is gone (and the queue is drained).
        pub fn recv(&self) -> Result<T, RecvError> {
            let shared = &*self.shared;
            let mut state = shared.lock();
            loop {
                if !state.queue.is_empty() {
                    return shared.pop(state).ok_or(RecvError);
                }
                if shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                state = shared.park(&shared.readable, state, None, |s| {
                    &mut s.parked_receivers
                });
            }
        }

        /// Receives with a deadline.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let shared = &*self.shared;
            let mut state = shared.lock();
            loop {
                if !state.queue.is_empty() {
                    return shared.pop(state).ok_or(RecvTimeoutError::Timeout);
                }
                if shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                state = shared.park(&shared.readable, state, Some(deadline - now), |s| {
                    &mut s.parked_receivers
                });
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let shared = &*self.shared;
            let state = shared.lock();
            if !state.queue.is_empty() {
                return shared.pop(state).ok_or(TryRecvError::Empty);
            }
            if shared.senders.load(Ordering::Acquire) == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Number of messages currently queued.
        #[must_use]
        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        /// Whether the queue is currently empty.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            self.shared.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if self.shared.receivers.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last receiver: wake senders so they observe disconnect.
                self.shared.disconnect(&self.shared.writable);
            }
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Receiver").finish_non_exhaustive()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::thread;

        #[test]
        fn unbounded_roundtrip() {
            let (tx, rx) = unbounded();
            tx.send(1).expect("send");
            tx.send(2).expect("send");
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_on_sender_drop() {
            let (tx, rx) = unbounded::<u8>();
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
            let (tx2, rx2) = unbounded::<u8>();
            drop(rx2);
            assert_eq!(tx2.send(9), Err(SendError(9)));
        }

        #[test]
        fn bounded_blocks_until_drained() {
            let (tx, rx) = bounded(1);
            tx.send(1).expect("first fits");
            let t = thread::spawn(move || tx.send(2).expect("second sends after drain"));
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(2));
            t.join().expect("sender thread");
        }

        #[test]
        fn try_send_hands_the_message_back_instead_of_blocking() {
            let (tx, rx) = bounded(1);
            assert_eq!(tx.try_send(1), Ok(()));
            assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
            assert_eq!(rx.recv(), Ok(1));
            drop(rx);
            let gone = tx.try_send(3).expect_err("every receiver is gone");
            assert_eq!(gone, TrySendError::Disconnected(3));
            assert_eq!(gone.into_inner(), 3);
            // Unbounded channels are never full.
            let (tx, _rx) = unbounded();
            for i in 0..1000 {
                assert_eq!(tx.try_send(i), Ok(()));
            }
        }

        #[test]
        fn timeout_fires() {
            let (_tx, rx) = unbounded::<u8>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
        }

        #[test]
        fn mpmc_all_messages_arrive_once() {
            let (tx, rx) = unbounded();
            let consumers: Vec<_> = (0..4)
                .map(|_| {
                    let rx = rx.clone();
                    thread::spawn(move || {
                        let mut got = Vec::new();
                        while let Ok(v) = rx.recv() {
                            got.push(v);
                        }
                        got
                    })
                })
                .collect();
            for i in 0..100 {
                tx.send(i).expect("send");
            }
            drop(tx);
            drop(rx);
            let mut all: Vec<i32> = consumers
                .into_iter()
                .flat_map(|c| c.join().expect("consumer"))
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..100).collect::<Vec<_>>());
        }

        /// Echoes `rounds` messages back over a second channel of the same
        /// kind; returns the stalls counted on both channels.
        fn ping_pong(make: fn() -> (Sender<u32>, Receiver<u32>), rounds: u32) -> usize {
            let (ping_tx, ping_rx) = make();
            let (pong_tx, pong_rx) = make();
            let echo = thread::spawn(move || {
                while let Ok(v) = ping_rx.recv() {
                    pong_tx.send(v).expect("pong");
                }
                ping_rx.shared.stalls.load(Ordering::Relaxed)
            });
            for i in 0..rounds {
                ping_tx.send(i).expect("ping");
                assert_eq!(pong_rx.recv(), Ok(i));
                if pong_rx.shared.stalls.load(Ordering::Relaxed) > 2 {
                    break; // already failed; do not wait out the rest
                }
            }
            let stalls = ping_tx.shared.stalls.load(Ordering::Relaxed)
                + pong_rx.shared.stalls.load(Ordering::Relaxed);
            drop(ping_tx);
            echo.join().expect("echo thread");
            stalls
        }

        #[test]
        fn ping_pong_never_waits_out_the_safety_net() {
            // A lost wake-up would park a side until the 50 ms safety net
            // fires, on nearly every round trip; a couple are tolerated
            // for a host that deschedules a thread that long.
            let bounded_stalls = ping_pong(|| bounded(1), 10_000);
            let unbounded_stalls = ping_pong(unbounded, 10_000);
            assert!(
                bounded_stalls <= 2 && unbounded_stalls <= 2,
                "stalls: bounded {bounded_stalls}, unbounded {unbounded_stalls}"
            );
        }

        #[test]
        fn recv_wakes_a_sender_blocked_on_a_full_channel() {
            let (tx, rx) = bounded(1);
            tx.send(1).expect("first fits");
            let sender = thread::spawn(move || {
                tx.send(2).expect("second sends after drain");
                tx.shared.stalls.load(Ordering::Relaxed)
            });
            while rx.shared.lock().parked_senders == 0 {
                thread::yield_now();
            }
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(2));
            // Woken by the receive, not by its own safety-net timeout.
            assert_eq!(sender.join().expect("sender thread"), 0);
        }
    }
}
