//! Open-loop load generator over the serve protocol.
//!
//! Each connection follows a fixed schedule: request `j` of the run is due
//! at `t0 + j / rate` and goes out on connection `j % conns`, with one
//! request in flight per connection. A connection that is still waiting
//! for a reply when its next request falls due sends it late; latency is
//! always measured from the due time, so a stall is charged to every
//! request queued behind it, and the lateness itself is recorded.
//! Failures — error replies, refused connections, timeouts — are tallied,
//! never fatal, and a failed request is charged [`REPLY_TIMEOUT`] of
//! latency so it misses every limit.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How long a request may wait for its reply before it counts as failed.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(5);
/// Below this much time to the due instant the sender yields instead of
/// sleeping: on a shared virtual machine a sleep can overshoot by
/// milliseconds, which would be charged to the server as lateness.
const SPIN: Duration = Duration::from_millis(2);

/// One scheduled request, timed in nanoseconds from the run's start.
#[derive(Clone, Copy)]
pub struct Shot {
    /// Index into the run's request lines.
    pub req: u32,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub ok: bool,
}

impl Shot {
    /// Latency from the due time, in microseconds; failures are charged
    /// the reply timeout.
    pub fn latency_us(&self) -> f64 {
        if self.ok {
            self.done_ns.saturating_sub(self.due_ns) as f64 / 1e3
        } else {
            REPLY_TIMEOUT.as_micros() as f64
        }
    }

    pub fn lateness_us(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }

    /// Round-trip time from the actual send, in microseconds.
    pub fn rtt_us(&self) -> f64 {
        self.done_ns.saturating_sub(self.sent_ns) as f64 / 1e3
    }
}

/// A fixed schedule: `count` requests at `rate` per second over `conns`
/// connections, slot `j` sending line `order[j % order.len()]`. With a
/// `deadline`, no request is sent after that long from the start.
pub struct Plan<'a> {
    pub rate: f64,
    pub conns: usize,
    pub count: usize,
    pub order: &'a [u32],
    pub deadline: Option<Duration>,
}

/// The outcome of a run: every shot, in due order, and (when asked for)
/// every reply line, parallel to the shots.
pub struct Outcome {
    pub shots: Vec<Shot>,
    pub replies: Vec<String>,
}

impl Outcome {
    pub fn failed(&self) -> usize {
        self.shots.iter().filter(|s| !s.ok).count()
    }
}

/// A lazily (re)connected client connection.
pub struct Client {
    addr: SocketAddr,
    io: Option<(BufReader<TcpStream>, TcpStream)>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, io: None }
    }

    /// Send one line and return its reply, or `None` on an error reply or
    /// any I/O failure; a failure drops the connection so the next request
    /// reconnects.
    pub fn send(&mut self, line: &str) -> Option<String> {
        let mut reply = String::new();
        self.roundtrip(line, &mut reply)
            .then(|| reply.trim_end().to_string())
    }

    /// [`Client::send`] into a caller-owned buffer.
    fn roundtrip(&mut self, line: &str, reply: &mut String) -> bool {
        let ok = self.try_roundtrip(line, reply).unwrap_or(false);
        if !ok {
            self.io = None;
        }
        ok
    }

    fn try_roundtrip(&mut self, line: &str, reply: &mut String) -> std::io::Result<bool> {
        if self.io.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, REPLY_TIMEOUT)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(REPLY_TIMEOUT))?;
            s.set_write_timeout(Some(REPLY_TIMEOUT))?;
            self.io = Some((BufReader::new(s.try_clone()?), s));
        }
        let Some((reader, writer)) = self.io.as_mut() else {
            return Ok(false);
        };
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        writer.write_all(&buf)?;
        reply.clear();
        reader.read_line(reply)?;
        Ok(reply.ends_with('\n') && !reply.starts_with("{\"error\""))
    }
}

fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Run `plan` against `addr`. With `extend`, every connection keeps to the
/// schedule past `count` until the flag is set, so reads cover the whole
/// of a concurrent writer's work.
pub fn run(
    addr: SocketAddr,
    lines: &[String],
    plan: &Plan,
    extend: Option<&AtomicBool>,
    keep_replies: bool,
) -> Outcome {
    let t0 = Instant::now() + Duration::from_millis(5);
    let per_conn: Vec<Vec<(Shot, String)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..plan.conns)
            .map(|c| {
                scope.spawn(move || {
                    let mut conn = Client::new(addr);
                    let mut out = Vec::with_capacity((plan.count / plan.conns).min(1 << 16) + 1);
                    let mut reply = String::new();
                    let mut j = c;
                    while j < plan.count || extend.is_some_and(|f| !f.load(Ordering::SeqCst)) {
                        let due = t0 + Duration::from_secs_f64(j as f64 / plan.rate);
                        if plan.deadline.is_some_and(|d| Instant::now() >= t0 + d) {
                            break;
                        }
                        wait_until(due);
                        let req = plan.order[j % plan.order.len()];
                        let sent = Instant::now();
                        let ok = conn.roundtrip(&lines[req as usize], &mut reply);
                        let done = Instant::now();
                        let ns = |t: Instant| t.saturating_duration_since(t0).as_nanos() as u64;
                        let shot = Shot {
                            req,
                            due_ns: ns(due),
                            sent_ns: ns(sent),
                            done_ns: ns(done),
                            ok,
                        };
                        let kept = if keep_replies {
                            reply.trim_end().to_string()
                        } else {
                            String::new()
                        };
                        out.push((shot, kept));
                        j += plan.conns;
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load generator thread panicked"))
            .collect()
    });
    let mut all: Vec<(Shot, String)> = per_conn.into_iter().flatten().collect();
    all.sort_by_key(|(s, _)| s.due_ns);
    let (shots, replies) = all.into_iter().unzip();
    Outcome { shots, replies }
}
