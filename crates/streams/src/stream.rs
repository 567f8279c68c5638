//! Stream interface types: flows and their quality of service.

use std::time::Duration;

/// Quality-of-service requirements of one flow (§7.2: "a stream is
/// described in terms of its type and its quality of service
/// requirements").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowQos {
    /// Target frame rate (frames per second).
    pub rate_fps: u32,
    /// Maximum acceptable interarrival jitter.
    pub max_jitter: Duration,
    /// Maximum acceptable loss, in frames per thousand.
    pub max_loss_per_mille: u32,
}

impl Default for FlowQos {
    fn default() -> Self {
        Self {
            rate_fps: 25,
            max_jitter: Duration::from_millis(20),
            max_loss_per_mille: 10,
        }
    }
}

/// One typed flow within a stream interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSpec {
    /// Flow name within the binding template (e.g. `"video"`).
    pub name: String,
    /// Media type tag (e.g. `"video/h261"`, `"audio/pcm"`). Opaque to the
    /// engineering; used by binding-time compatibility checks.
    pub media: String,
    /// Frame payload size in bytes (synthetic sources honour this).
    pub frame_bytes: usize,
    /// Quality of service.
    pub qos: FlowQos,
}

impl FlowSpec {
    /// Creates a flow spec.
    #[must_use]
    pub fn new<S1: Into<String>, S2: Into<String>>(
        name: S1,
        media: S2,
        frame_bytes: usize,
        qos: FlowQos,
    ) -> Self {
        Self {
            name: name.into(),
            media: media.into(),
            frame_bytes,
            qos,
        }
    }
}
