//! The load generator: `conns` caller threads pull the next operation from a
//! shared cursor.
//!
//! * Closed loop (`rate == None`): a caller sends its next operation as soon
//!   as its previous one completes, so a slow system receives less load.
//! * Open loop (`rate == Some(r)`): operation `i` is *due* at `i / r` seconds
//!   whatever the system does. A caller that finds the next operation not yet
//!   due waits until it is; one that finds it overdue sends at once. Latency
//!   is timed from the due time, so a stall is charged to every operation
//!   that was due during it, and `sent - due` says how late the generator ran.
//!
//! The wait is a loop of `yield_now`, not a sleep. A sleeping generator lets
//! the cores go idle between requests, and on a shared host a halted virtual
//! core comes back 50 to 100 us late, four times per request (generator
//! timer, server reader, worker, client), by an amount that follows the
//! neighbours' load: the median of the same seed moved by a third between
//! quiet and busy minutes of the host, four times as much as a closed loop's.
//! A caller that yields on every turn keeps its core awake and hands it to a
//! server thread the moment one is runnable.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

#[derive(Debug)]
pub struct OpRecord<R> {
    pub index: usize,
    /// Seconds since `origin`. In a closed loop `due == sent`.
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    pub reply: Result<R, String>,
}

impl<R> OpRecord<R> {
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    pub fn late_ms(&self) -> f64 {
        (self.sent - self.due) * 1e3
    }
}

/// Runs operations `0..ops` over the given connections and returns one record
/// per operation, in operation order, plus the connections.
pub fn drive<C: Send, R: Send>(
    conns: Vec<C>,
    ops: usize,
    rate: Option<f64>,
    origin: Instant,
    call: impl Fn(&mut C, usize) -> Result<R, String> + Sync,
) -> (Vec<OpRecord<R>>, Vec<C>) {
    let cursor = AtomicUsize::new(0);
    let first_due = origin.elapsed().as_secs_f64();
    let (cursor, call) = (&cursor, &call);
    let per_conn: Vec<(Vec<OpRecord<R>>, C)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|mut conn| {
                scope.spawn(move || {
                    let mut records = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= ops {
                            break;
                        }
                        let mut sent = origin.elapsed().as_secs_f64();
                        let mut due = sent;
                        if let Some(rate) = rate {
                            due = first_due + index as f64 / rate;
                            while sent < due {
                                std::thread::yield_now();
                                sent = origin.elapsed().as_secs_f64();
                            }
                        }
                        let reply = call(&mut conn, index);
                        let done = origin.elapsed().as_secs_f64();
                        records.push(OpRecord { index, due, sent, done, reply });
                    }
                    (records, conn)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("caller thread panicked")).collect()
    });
    let mut records = Vec::with_capacity(ops);
    let mut conns = Vec::with_capacity(per_conn.len());
    for (r, c) in per_conn {
        records.extend(r);
        conns.push(c);
    }
    records.sort_by_key(|r| r.index);
    (records, conns)
}

/// Completed operations per second, from the first due time to the last
/// completion.
pub fn achieved_rate<R>(records: &[OpRecord<R>]) -> f64 {
    let start = records.iter().map(|r| r.due).fold(f64::INFINITY, f64::min);
    let end = records.iter().map(|r| r.done).fold(f64::NEG_INFINITY, f64::max);
    records.len() as f64 / (end - start).max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A service that takes 1 ms, except operation 5, which stalls 100 ms.
    fn fake(_: &mut (), index: usize) -> Result<(), String> {
        std::thread::sleep(Duration::from_millis(if index == 5 { 100 } else { 1 }));
        Ok(())
    }

    #[test]
    fn open_loop_charges_a_stall_to_every_request_due_during_it() {
        // One connection, 100 req/s: requests 6..=14 fall due while 5 stalls.
        let (records, _) = drive(vec![()], 30, Some(100.0), Instant::now(), fake);
        assert_eq!(records.len(), 30);
        assert!(records.iter().enumerate().all(|(i, r)| r.index == i && r.reply.is_ok()));
        assert!(records[2].latency_ms() < 30.0, "before the stall: {}", records[2].latency_ms());
        assert!(records[6].latency_ms() > 70.0, "due 10 ms into the stall");
        assert!(records[10].latency_ms() > 30.0, "due 50 ms into the stall");
        // The service itself was fast for request 6: only timing from the due
        // time shows the wait.
        assert!((records[6].done - records[6].sent) * 1e3 < 30.0);
        let late = records.iter().map(OpRecord::late_ms).fold(0.0, f64::max);
        assert!(late > 70.0, "generator lateness reported: {late}");
        // The backlog drains at 1 ms per request, so the tail is on time again.
        assert!(records[29].latency_ms() < 30.0);
    }

    #[test]
    fn achieved_rate_falls_below_an_offer_the_service_cannot_meet() {
        // 2 ms of service on one connection cannot meet 2000 req/s.
        let slow = |_: &mut (), _: usize| -> Result<(), String> {
            std::thread::sleep(Duration::from_millis(2));
            Ok(())
        };
        let (records, _) = drive(vec![()], 40, Some(2000.0), Instant::now(), slow);
        let achieved = achieved_rate(&records);
        assert!(achieved < 0.5 * 2000.0, "achieved {achieved}/s of 2000/s offered");
        // And an offer it can meet is met.
        let (records, _) = drive(vec![(), ()], 40, Some(200.0), Instant::now(), slow);
        let achieved = achieved_rate(&records);
        assert!(achieved > 0.8 * 200.0, "achieved {achieved}/s of 200/s offered");
    }

    #[test]
    fn closed_loop_times_from_send_and_shares_the_cursor() {
        let (records, conns) = drive(vec![(), ()], 20, None, Instant::now(), fake);
        assert_eq!(conns.len(), 2);
        assert_eq!(
            records.iter().map(|r| r.index).collect::<Vec<_>>(),
            (0..20).collect::<Vec<_>>()
        );
        assert!(records.iter().all(|r| r.late_ms() == 0.0));
    }
}
