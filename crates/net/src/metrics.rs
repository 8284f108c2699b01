//! Transport-level counters.

/// Counters accumulated by a driver over a run.
///
/// # Examples
///
/// ```
/// use guesstimate_net::NetMetrics;
/// let m = NetMetrics::default();
/// assert_eq!(m.sent, 0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetMetrics {
    /// Point-to-point deliveries attempted (a broadcast to `n-1` peers
    /// counts `n-1`).
    pub sent: u64,
    /// Deliveries that reached `on_message`.
    pub delivered: u64,
    /// Deliveries dropped by the fault plan (loss or stall); on the threaded
    /// mesh, deliveries and timers whose machine, or that incarnation of
    /// it, had left by their due time.
    pub dropped: u64,
    /// Extra deliveries injected by duplication faults.
    pub duplicated: u64,
    /// Timer callbacks fired.
    pub timers_fired: u64,
    /// Estimated payload bytes across all send attempts (sized via
    /// [`crate::Actor::msg_size`]; duplicates included).
    pub bytes_sent: u64,
    /// Estimated payload bytes across deliveries that reached
    /// `on_message`.
    pub bytes_delivered: u64,
}

impl NetMetrics {
    /// Delivery success ratio in `[0, 1]`; `1.0` when nothing was sent.
    pub fn delivery_ratio(&self) -> f64 {
        if self.sent == 0 {
            1.0
        } else {
            self.delivered as f64 / self.sent as f64
        }
    }

    /// Folds another driver's counters into this one (e.g. summing the
    /// Operations- and Signals-side tallies, or several runs).
    pub fn merge(&mut self, other: &NetMetrics) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.timers_fired += other.timers_fired;
        self.bytes_sent += other.bytes_sent;
        self.bytes_delivered += other.bytes_delivered;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_every_field() {
        let mut a = NetMetrics {
            sent: 1,
            delivered: 2,
            dropped: 3,
            duplicated: 4,
            timers_fired: 5,
            bytes_sent: 6,
            bytes_delivered: 7,
        };
        let b = NetMetrics {
            sent: 10,
            delivered: 20,
            dropped: 30,
            duplicated: 40,
            timers_fired: 50,
            bytes_sent: 60,
            bytes_delivered: 70,
        };
        a.merge(&b);
        assert_eq!(
            a,
            NetMetrics {
                sent: 11,
                delivered: 22,
                dropped: 33,
                duplicated: 44,
                timers_fired: 55,
                bytes_sent: 66,
                bytes_delivered: 77,
            }
        );
    }

    #[test]
    fn delivery_ratio_handles_zero() {
        assert_eq!(NetMetrics::default().delivery_ratio(), 1.0);
        let m = NetMetrics {
            sent: 4,
            delivered: 3,
            dropped: 1,
            ..Default::default()
        };
        assert_eq!(m.delivery_ratio(), 0.75);
    }
}
