//! Single-threaded HTTP/1.1 load generator over a few keep-alive
//! connections.
//!
//! Two pacing modes:
//!
//! * [`Pace::Rate`] is an open loop: request `i` is due at `i / rate`
//!   seconds after the start and is written then, whether or not earlier
//!   replies have come back. Requests on one connection are pipelined, so a
//!   slow reply never holds back the schedule. Latency is measured from the
//!   due time, so a stall is charged to every request that was due while it
//!   lasted, not only to the one that hit it. The generator records how late
//!   it wrote each request (`sent - due`); a run whose generator fell behind
//!   is invalid.
//! * [`Pace::Burst`] is a closed loop with a fixed pipeline depth per
//!   connection: a fixed batch of requests completed as fast as the server
//!   answers, which measures capacity.
//!
//! One thread multiplexes every connection with `ppoll`, so the generator
//! never needs more threads than connections and never busy-waits.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use crate::stats::{percentile, Summary};
use crate::sys::{self, PollFd, POLLIN, POLLOUT};

/// How requests are paced.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Open loop at a fixed rate (requests per second).
    Rate(f64),
    /// Closed loop keeping `depth` requests in flight per connection.
    Burst(usize),
}

/// One request: its exact bytes and the connection it must use. Pinning a
/// request to a connection keeps per-key ordering (the server answers each
/// connection in order).
#[derive(Debug, Clone, Copy)]
pub struct Req<'a> {
    /// Full HTTP request bytes.
    pub bytes: &'a [u8],
    /// Connection index.
    pub conn: usize,
}

/// What happened to one request. Times are nanoseconds since the drive
/// started.
#[derive(Debug, Clone, Copy, Default)]
pub struct Record {
    /// When the request was due.
    pub due_ns: u64,
    /// When the generator wrote it (or queued it behind earlier bytes).
    pub sent_ns: u64,
    /// When its reply was complete; `None` if it never was.
    pub done_ns: Option<u64>,
    /// Reply status; 0 without a reply.
    pub status: u16,
}

impl Record {
    /// Latency from the due time, in milliseconds.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done_ns
            .map(|d| d.saturating_sub(self.due_ns) as f64 / 1e6)
    }

    /// Whether the request got a 200.
    pub fn ok(&self) -> bool {
        self.done_ns.is_some() && self.status == 200
    }
}

/// The result of one drive.
#[derive(Debug, Default)]
pub struct Outcome {
    /// One record per request, in request order.
    pub records: Vec<Record>,
    /// Reply bodies of the requests the caller asked to keep.
    pub bodies: Vec<(usize, Vec<u8>)>,
    /// `(time, requests in flight)` right after each send.
    pub in_flight: Vec<(u64, usize)>,
    /// From the start to the last completed reply.
    pub elapsed_ns: u64,
}

impl Outcome {
    /// Due-time latencies (ms) of the successful requests accepted by `keep`.
    pub fn latencies_ms(&self, keep: impl Fn(usize) -> bool) -> Vec<f64> {
        self.records
            .iter()
            .enumerate()
            .filter(|(i, r)| r.ok() && keep(*i))
            .filter_map(|(_, r)| r.latency_ms())
            .collect()
    }

    /// How late the generator wrote each request, in ms.
    pub fn lag_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.sent_ns.saturating_sub(r.due_ns) as f64 / 1e6)
            .collect()
    }

    /// Requests that failed or were never answered.
    pub fn failed(&self) -> usize {
        self.records.iter().filter(|r| !r.ok()).count()
    }
}

/// Persistent non-blocking connections to one server.
#[derive(Debug)]
pub struct Conns {
    conns: Vec<Conn>,
}

#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    input: Vec<u8>,
    in_flight: VecDeque<usize>,
    broken: bool,
}

impl Conns {
    /// Opens `n` keep-alive connections to `addr`.
    pub fn connect(addr: SocketAddr, n: usize) -> std::io::Result<Conns> {
        let mut conns = Vec::with_capacity(n);
        for _ in 0..n {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            conns.push(Conn {
                stream,
                out: Vec::new(),
                out_pos: 0,
                input: Vec::new(),
                in_flight: VecDeque::new(),
                broken: false,
            });
        }
        Ok(Conns { conns })
    }

    /// Sends `reqs` paced by `pace` and collects their replies, keeping the
    /// reply bodies of the requests `keep_body` accepts. The drive ends when
    /// every request is answered, or when nothing has been sent or answered
    /// for `drain`.
    pub fn drive(
        &mut self,
        reqs: &[Req<'_>],
        pace: Pace,
        drain: Duration,
        keep_body: impl Fn(usize) -> bool,
    ) -> Outcome {
        sys::tight_timer_slack();
        let n = reqs.len();
        let mut out = Outcome {
            records: vec![Record::default(); n],
            in_flight: Vec::with_capacity(n),
            ..Outcome::default()
        };
        for c in &mut self.conns {
            c.out.clear();
            c.out_pos = 0;
            c.input.clear();
            c.in_flight.clear();
        }
        let interval_ns = match pace {
            Pace::Rate(rate) => 1e9 / rate,
            Pace::Burst(_) => 0.0,
        };
        let start = Instant::now();
        let now = || start.elapsed().as_nanos() as u64;
        let mut next = 0usize;
        let mut in_flight = 0usize;
        let mut done = 0usize;
        let mut last_event_ns = 0u64;
        let drain_ns = drain.as_nanos() as u64;
        let mut fds: Vec<PollFd> = Vec::with_capacity(self.conns.len());
        loop {
            let t = now();
            // 1. Send everything that is due.
            while next < n {
                let req = reqs[next];
                let conn = &mut self.conns[req.conn];
                let due = match pace {
                    Pace::Rate(_) => (next as f64 * interval_ns) as u64,
                    Pace::Burst(depth) => {
                        if conn.in_flight.len() >= depth {
                            // Requests stay in order; wait for this lane.
                            break;
                        }
                        t
                    }
                };
                if due > t {
                    break;
                }
                let rec = &mut out.records[next];
                rec.due_ns = due;
                rec.sent_ns = t;
                if conn.broken {
                    done += 1;
                } else {
                    conn.out.extend_from_slice(req.bytes);
                    conn.in_flight.push_back(next);
                    in_flight += 1;
                }
                out.in_flight.push((t, in_flight));
                last_event_ns = t;
                next += 1;
            }
            // 2. Write what the sockets will take, then read what arrived.
            for c in &mut self.conns {
                c.flush();
            }
            for c in &mut self.conns {
                let finished = c.receive(&mut out, &now, &keep_body);
                if finished > 0 {
                    last_event_ns = now();
                }
                in_flight -= finished;
                done += finished;
            }
            for c in &mut self.conns {
                if c.broken && !c.in_flight.is_empty() {
                    let lost = c.in_flight.len();
                    c.in_flight.clear();
                    in_flight -= lost;
                    done += lost;
                }
            }
            if done == n {
                break;
            }
            // 3. Sleep until the next due time or the next socket event. A
            // server that makes no progress for `drain` ends the drive; its
            // unanswered requests count as failed.
            let t = now();
            let wait_ns = match pace {
                Pace::Rate(_) if next < n => ((next as f64 * interval_ns) as u64).saturating_sub(t),
                Pace::Burst(depth)
                    if next < n && self.conns[reqs[next].conn].in_flight.len() < depth =>
                {
                    0
                }
                _ => {
                    let idle_limit = last_event_ns + drain_ns;
                    if t >= idle_limit {
                        break;
                    }
                    idle_limit - t
                }
            };
            if wait_ns == 0 {
                continue;
            }
            fds.clear();
            for c in &self.conns {
                let mut events = POLLIN;
                if c.out_pos < c.out.len() {
                    events |= POLLOUT;
                }
                fds.push(PollFd::new(c.stream.as_raw_fd(), events));
            }
            sys::poll(&mut fds, Duration::from_nanos(wait_ns));
        }
        out.elapsed_ns = out
            .records
            .iter()
            .filter_map(|r| r.done_ns)
            .max()
            .unwrap_or(0);
        out
    }
}

impl Conn {
    fn flush(&mut self) {
        while !self.broken && self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => self.broken = true,
                Ok(k) => self.out_pos += k,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => self.broken = true,
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
    }

    /// Reads available bytes and completes every whole reply; returns how
    /// many requests finished.
    fn receive(
        &mut self,
        out: &mut Outcome,
        now: &impl Fn() -> u64,
        keep_body: &impl Fn(usize) -> bool,
    ) -> usize {
        let mut buf = [0u8; 64 * 1024];
        let mut finished = 0;
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.broken = true;
                    break;
                }
                Ok(k) => self.input.extend_from_slice(&buf[..k]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.broken = true;
                    break;
                }
            }
        }
        let t = now();
        let mut consumed = 0;
        while let Some((status, head_len, body_len)) = parse_reply(&self.input[consumed..]) {
            let Some(idx) = self.in_flight.pop_front() else {
                self.broken = true;
                break;
            };
            let rec = &mut out.records[idx];
            rec.done_ns = Some(t);
            rec.status = status;
            if keep_body(idx) {
                let body = &self.input[consumed + head_len..consumed + head_len + body_len];
                out.bodies.push((idx, body.to_vec()));
            }
            consumed += head_len + body_len;
            finished += 1;
        }
        self.input.drain(..consumed);
        finished
    }
}

/// Frames one complete reply at the front of `buf` as
/// `(status, head length, body length)`; `None` until it is all there.
pub(crate) fn parse_reply(buf: &[u8]) -> Option<(u16, usize, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status = head.split(' ').nth(1)?.parse().ok()?;
    let body_len = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0);
    (buf.len() >= head_end + body_len).then_some((status, head_end, body_len))
}

/// Growth (in requests) of the in-flight count over a drive beyond which the
/// backlog counts as growing, whatever the request count.
const BACKLOG_MIN_GROWTH: f64 = 8.0;
/// ... and as a share of the requests sent.
const BACKLOG_GROWTH_SHARE: f64 = 0.02;

/// Whether the number of requests in flight grew during the drive: the
/// least-squares trend of the `(time, in flight)` samples, projected over
/// the drive, exceeds `max(8, 2% of the samples)` requests. A server that
/// keeps up holds the in-flight count level however noisy it is; one that
/// falls behind accumulates the excess arrivals linearly.
pub fn backlog_growing(samples: &[(u64, usize)]) -> bool {
    if samples.len() < 2 {
        return false;
    }
    let n = samples.len() as f64;
    let mean_t = samples.iter().map(|s| s.0 as f64).sum::<f64>() / n;
    let mean_q = samples.iter().map(|s| s.1 as f64).sum::<f64>() / n;
    let (mut cov, mut var) = (0.0, 0.0);
    for &(t, q) in samples {
        let dt = t as f64 - mean_t;
        cov += dt * (q as f64 - mean_q);
        var += dt * dt;
    }
    if var == 0.0 {
        return false;
    }
    let span = (samples[samples.len() - 1].0 - samples[0].0) as f64;
    let growth = cov / var * span;
    growth > BACKLOG_MIN_GROWTH.max(BACKLOG_GROWTH_SHARE * n)
}

/// Verdict on one rung of the rate ladder.
#[derive(Debug, Clone)]
pub struct Rung {
    /// Offered rate (requests per second).
    pub rate: f64,
    /// Requests sent.
    pub sent: usize,
    /// Requests that failed or were refused.
    pub failed: usize,
    /// p99 latency from the due time; `None` if the sample is too small.
    pub p99_ms: Option<f64>,
    /// Whether the in-flight count grew.
    pub backlog: bool,
    /// p99 of the generator's own lateness.
    pub lag_p99_ms: f64,
    /// Whether the rung met the limit: every request answered with a 200,
    /// p99 within the limit, no growing backlog, generator on schedule.
    pub pass: bool,
}

/// Judges an open-loop drive against a p99 latency limit. A failed request
/// counts as missing the limit, so any failure fails the rung.
pub fn judge(rate: f64, outcome: &Outcome, limit_ms: f64, lag_limit_ms: f64) -> Rung {
    let lat = Summary::of(&outcome.latencies_ms(|_| true));
    let mut lag = outcome.lag_ms();
    lag.sort_by(f64::total_cmp);
    let lag_p99_ms = if lag.is_empty() {
        0.0
    } else {
        percentile(&lag, 0.99)
    };
    let failed = outcome.failed();
    let backlog = backlog_growing(&outcome.in_flight);
    let pass = failed == 0
        && lat.p99.is_some_and(|p| p <= limit_ms)
        && !backlog
        && lag_p99_ms <= lag_limit_ms;
    Rung {
        rate,
        sent: outcome.records.len(),
        failed,
        p99_ms: lat.p99,
        backlog,
        lag_p99_ms,
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    const REQ: &[u8] = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";

    /// A one-connection server answering each request after `delay(i)`.
    fn mock_server(
        delay: impl Fn(usize) -> Duration + Send + 'static,
    ) -> (SocketAddr, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            s.set_nodelay(true).expect("nodelay");
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            let mut i = 0usize;
            loop {
                while buf.len() >= REQ.len() && buf.starts_with(REQ) {
                    buf.drain(..REQ.len());
                    thread::sleep(delay(i));
                    i += 1;
                    if s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                        .is_err()
                    {
                        return;
                    }
                }
                match s.read(&mut chunk) {
                    Ok(0) | Err(_) => return,
                    Ok(k) => buf.extend_from_slice(&chunk[..k]),
                }
            }
        });
        (addr, handle)
    }

    fn reqs(n: usize) -> Vec<Req<'static>> {
        vec![
            Req {
                bytes: REQ,
                conn: 0
            };
            n
        ]
    }

    #[test]
    fn parses_pipelined_replies() {
        let two = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n";
        let (status, head, body) = parse_reply(two).expect("first reply");
        assert_eq!((status, body), (200, 2));
        assert_eq!(parse_reply(&two[head + body..]).map(|r| r.0), Some(404));
        assert!(parse_reply(&two[..20]).is_none());
    }

    #[test]
    fn stalled_server_charges_the_stall_to_every_request_due_during_it() {
        // 1000 req/s; the server freezes 200 ms before answering request 50.
        // An open loop keeps sending on schedule, and due-time accounting
        // makes the ~200 requests due during the freeze absorb it, each by
        // the time still left in the stall when it came due.
        let stall = Duration::from_millis(200);
        let (addr, server) = mock_server(move |i| if i == 50 { stall } else { Duration::ZERO });
        let mut conns = Conns::connect(addr, 1).expect("connect");
        let out = conns.drive(
            &reqs(400),
            Pace::Rate(1000.0),
            Duration::from_secs(5),
            |_| false,
        );
        drop(conns);
        server.join().expect("server thread");
        assert_eq!(out.failed(), 0);
        let lat: Vec<f64> = out
            .records
            .iter()
            .map(|r| r.latency_ms().expect("answered"))
            .collect();
        assert!(lat[10] < 20.0, "before the stall: {}", lat[10]);
        assert!(lat[50] > 180.0, "the stalled request: {}", lat[50]);
        // Request 50 + k was due k ms into the stall, so waited ~200 - k ms.
        for k in [20, 80, 140] {
            let expect = 200.0 - k as f64;
            assert!(
                (lat[50 + k] - expect).abs() < 40.0,
                "request {} waited {} ms, expected ~{expect}",
                50 + k,
                lat[50 + k]
            );
        }
        let hit = lat.iter().filter(|&&l| l > 50.0).count();
        assert!(hit >= 120, "only {hit} requests absorbed the stall");
        // The generator itself kept its schedule through the stall.
        let mut lag = out.lag_ms();
        lag.sort_by(f64::total_cmp);
        assert!(
            percentile(&lag, 0.5) < 1.0,
            "median lateness {}",
            percentile(&lag, 0.5)
        );
    }

    #[test]
    fn backlog_trend_detects_growth_not_noise() {
        // Level but noisy in-flight counts: no backlog.
        let level: Vec<(u64, usize)> = (0..1000)
            .map(|i| (i * 1_000_000, (i % 5) as usize))
            .collect();
        assert!(!backlog_growing(&level));
        // A server answering 80% of arrivals: the count climbs steadily.
        let growing: Vec<(u64, usize)> = (0..1000)
            .map(|i| (i * 1_000_000, (i / 5) as usize))
            .collect();
        assert!(backlog_growing(&growing));
        // A burst early on that drains is not a growing backlog.
        let spike: Vec<(u64, usize)> = (0..1000)
            .map(|i| (i * 1_000_000, if i < 100 { 100 - i as usize } else { 1 }))
            .collect();
        assert!(!backlog_growing(&spike));
        assert!(!backlog_growing(&[]));
    }

    #[test]
    fn ladder_rung_fails_once_the_server_falls_behind() {
        // The server needs 1 ms per request (capacity under 1000 req/s).
        let slow = |_| Duration::from_millis(1);
        let (addr, server) = mock_server(slow);
        let mut conns = Conns::connect(addr, 1).expect("connect");
        let light = conns.drive(
            &reqs(1000),
            Pace::Rate(400.0),
            Duration::from_secs(5),
            |_| false,
        );
        let heavy = conns.drive(
            &reqs(1000),
            Pace::Rate(3000.0),
            Duration::from_secs(5),
            |_| false,
        );
        drop(conns);
        server.join().expect("server thread");
        // A generous lateness limit: this test is about the backlog, and a
        // shared test host can preempt the generator for a few ms.
        let light = judge(400.0, &light, 50.0, 25.0);
        let heavy = judge(3000.0, &heavy, 50.0, 25.0);
        assert!(!light.backlog && light.pass, "{light:?}");
        assert!(heavy.backlog && !heavy.pass, "{heavy:?}");
    }
}
