//! The open-loop schedule: job `i` is due at `i / rate` seconds after the
//! start, whatever happened to earlier jobs. A stalled send delays the
//! sends behind it; that delay is recorded as lateness and, because every
//! latency is timed from the job's *due* time, as latency too. It never
//! stretches the schedule, so a slow server cannot lower the offered rate.

use std::time::{Duration, Instant};

/// When job `index` is due, relative to the start of the schedule.
pub fn due(index: usize, rate: f64) -> Duration {
    Duration::from_secs_f64(index as f64 / rate)
}

/// One send, as the schedule saw it.
#[derive(Debug)]
pub struct Sent<T> {
    pub index: usize,
    /// The instant the job was due.
    pub due_at: Instant,
    /// How late the send started, in milliseconds.
    pub late_ms: f64,
    pub reply: T,
}

/// Sends `count` jobs at `rate` per second from `start`: waits for each
/// due time unless already past it (never skipping a job, never sending
/// early), then calls `send` and hands the result to `on_sent`.
pub fn drive<T>(
    start: Instant,
    count: usize,
    rate: f64,
    mut send: impl FnMut(usize) -> T,
    mut on_sent: impl FnMut(Sent<T>),
) {
    for index in 0..count {
        let due_at = start + due(index, rate);
        let now = Instant::now();
        if now < due_at {
            std::thread::sleep(due_at - now);
        }
        let late_ms = Instant::now()
            .saturating_duration_since(due_at)
            .as_secs_f64()
            * 1000.0;
        let reply = send(index);
        on_sent(Sent {
            index,
            due_at,
            late_ms,
            reply,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_shows_as_lateness_and_latency_not_as_a_lower_rate() {
        let rate = 50.0; // one job every 20 ms
        let count = 20;
        let stall = Duration::from_millis(200);
        let start = Instant::now();
        let mut sent = Vec::new();
        drive(
            start,
            count,
            rate,
            |i| {
                if i == 2 {
                    std::thread::sleep(stall);
                }
                Instant::now()
            },
            |s| sent.push(s),
        );
        // Every job was offered, each due on the fixed schedule.
        assert_eq!(sent.len(), count);
        for s in &sent {
            assert_eq!(s.due_at, start + due(s.index, rate));
        }
        // The jobs queued behind the stall went out late, by roughly the
        // stall minus the slack the schedule had.
        let late: Vec<f64> = sent.iter().map(|s| s.late_ms).collect();
        assert!(late[0] < 15.0 && late[1] < 15.0, "{late:?}");
        assert!(late[3] >= 150.0, "{late:?}");
        // Latency timed from the due time includes the wait the stall
        // imposed on job 3.
        let latency3 = sent[3].reply.duration_since(sent[3].due_at);
        assert!(latency3 >= Duration::from_millis(150), "{latency3:?}");
        // Once the backlog drains, sends are on time again.
        assert!(late[count - 1] < 15.0, "{late:?}");
    }

    #[test]
    fn due_times_follow_the_rate() {
        assert_eq!(due(0, 10.0), Duration::ZERO);
        assert_eq!(due(25, 10.0), Duration::from_millis(2500));
    }
}
