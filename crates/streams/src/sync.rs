//! Inter-stream synchronization.
//!
//! §7.2: multimedia brings "questions of … how to handle synchronization
//! between streams of voice, video and data". [`SyncBuffer`] performs
//! timestamp alignment: frames from each flow are buffered and released as
//! *presentation groups* — one frame per flow, matched to within a skew
//! tolerance — in timestamp order. Classic lip-sync.

use crate::endpoint::Frame;
use parking_lot::Mutex;
use std::collections::VecDeque;

/// Aligns frames of several flows by media timestamp.
pub struct SyncBuffer {
    flows: usize,
    /// Maximum timestamp skew within a released group, microseconds.
    tolerance_us: u64,
    queues: Mutex<Vec<VecDeque<Frame>>>,
}

impl SyncBuffer {
    /// Creates a buffer aligning `flows` flows to within `tolerance_us`.
    #[must_use]
    pub fn new(flows: usize, tolerance_us: u64) -> Self {
        Self {
            flows,
            tolerance_us,
            queues: Mutex::new((0..flows).map(|_| VecDeque::new()).collect()),
        }
    }

    /// Offers an arriving frame to the buffer. The frame's `flow` field
    /// indexes the queue.
    pub fn offer(&self, frame: Frame) {
        let mut queues = self.queues.lock();
        if let Some(q) = queues.get_mut(frame.flow as usize) {
            q.push_back(frame);
        }
    }

    /// Attempts to release one presentation group: the earliest frame of
    /// every flow, provided their timestamps agree to within the
    /// tolerance. Frames that lag too far behind the group are discarded
    /// (stale media is worse than missing media).
    #[must_use]
    pub fn release(&self) -> Option<Vec<Frame>> {
        let mut queues = self.queues.lock();
        loop {
            if queues.iter().any(VecDeque::is_empty) {
                return None;
            }
            let heads_ts: Vec<u64> = queues
                .iter()
                .map(|q| q.front().expect("non-empty").timestamp_us)
                .collect();
            let min = *heads_ts.iter().min().expect("flows > 0");
            let max = *heads_ts.iter().max().expect("flows > 0");
            if max - min <= self.tolerance_us {
                return Some(
                    queues
                        .iter_mut()
                        .map(|q| q.pop_front().expect("non-empty"))
                        .collect(),
                );
            }
            // Discard the laggard's head and retry.
            for (q, ts) in queues.iter_mut().zip(&heads_ts) {
                if *ts == min {
                    q.pop_front();
                    break;
                }
            }
        }
    }

    /// Frames currently buffered across all flows.
    #[must_use]
    fn buffered(&self) -> usize {
        self.queues.lock().iter().map(VecDeque::len).sum()
    }

    /// Number of flows.
    #[must_use]
    pub fn flows(&self) -> usize {
        self.flows
    }
}

impl std::fmt::Debug for SyncBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncBuffer")
            .field("flows", &self.flows)
            .field("buffered", &self.buffered())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use odp_types::StreamId;

    fn frame(flow: u32, seq: u64, ts: u64) -> Frame {
        Frame {
            stream: StreamId(1),
            flow,
            seq,
            timestamp_us: ts,
            payload: Bytes::new(),
        }
    }

    #[test]
    fn aligned_frames_release_together() {
        let sync = SyncBuffer::new(2, 5_000);
        sync.offer(frame(0, 0, 0));
        assert!(sync.release().is_none(), "waits for the other flow");
        sync.offer(frame(1, 0, 2_000));
        let group = sync.release().unwrap();
        assert_eq!(group.len(), 2);
        assert_eq!(group[0].flow, 0);
        assert_eq!(group[1].flow, 1);
    }

    #[test]
    fn laggard_frames_are_discarded() {
        let sync = SyncBuffer::new(2, 5_000);
        // Video fell behind: a stale frame at t=0 against audio at t=40ms.
        sync.offer(frame(0, 0, 0));
        sync.offer(frame(0, 1, 40_000));
        sync.offer(frame(1, 0, 41_000));
        let group = sync.release().unwrap();
        assert_eq!(group[0].timestamp_us, 40_000);
        assert_eq!(group[1].timestamp_us, 41_000);
        assert_eq!(sync.buffered(), 0);
    }

    #[test]
    fn releases_in_timestamp_order() {
        let sync = SyncBuffer::new(2, 1_000);
        for i in 0..3u64 {
            sync.offer(frame(0, i, i * 10_000));
            sync.offer(frame(1, i, i * 10_000 + 500));
        }
        for i in 0..3u64 {
            let group = sync.release().unwrap();
            assert_eq!(group[0].seq, i);
        }
        assert!(sync.release().is_none());
    }

    #[test]
    fn three_way_sync() {
        let sync = SyncBuffer::new(3, 2_000);
        sync.offer(frame(0, 0, 100));
        sync.offer(frame(1, 0, 600));
        assert!(sync.release().is_none());
        sync.offer(frame(2, 0, 1_500));
        assert_eq!(sync.release().unwrap().len(), 3);
    }
}
