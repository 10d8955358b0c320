//! Unix-domain-socket transport for the wire protocol.
//!
//! The transport assumes hostile peers. Every connection reads through a
//! bounded framer ([`SocketConfig::max_frame_bytes`]) — a newline-free
//! flood gets a typed `too_large` error instead of an unbounded buffer —
//! under read/write timeouts that reclaim slow-loris connections. The
//! accept loop caps live connections ([`SocketConfig::max_connections`]),
//! sheds the excess with a typed `overloaded` response, and reaps
//! finished handler threads as it goes instead of accumulating one join
//! handle per connection ever made.
//!
//! The client side ([`request_retry`]) layers capped exponential backoff
//! with deterministic, seedable jitter over connect failures, so callers
//! racing daemon startup converge without sleeping in shell loops. The
//! retry path is fail-injectable through
//! [`FailPlan::connect_failures`](limscan::FailPlan).

use std::io::{self, BufRead as _, BufReader, Write as _};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::proto::{self, Action};
use crate::server::Server;

/// Transport-level protection knobs for [`serve_with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SocketConfig {
    /// Maximum request-frame length in bytes (newline excluded). A longer
    /// frame gets a `too_large` error response and the connection closes.
    pub max_frame_bytes: usize,
    /// Per-connection read timeout; an idle or trickling connection is
    /// closed when it expires. `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// Per-connection write timeout; a peer that stops draining responses
    /// is disconnected when it expires. `None` waits forever.
    pub write_timeout: Option<Duration>,
    /// Maximum concurrently served connections; an accept past the cap is
    /// answered with an `overloaded` error and closed immediately.
    pub max_connections: usize,
}

impl Default for SocketConfig {
    fn default() -> SocketConfig {
        SocketConfig {
            max_frame_bytes: 16 << 20,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_connections: 64,
        }
    }
}

/// Serve the wire protocol on a Unix domain socket until a `shutdown`
/// request arrives, with default [`SocketConfig`] protections. Blocks the
/// calling thread; connections are handled on threads of their own. The
/// socket file is removed on exit.
///
/// # Errors
///
/// Socket creation/bind failures. Per-connection I/O errors only end that
/// connection.
pub fn serve(server: Server, socket_path: &Path) -> io::Result<()> {
    serve_with(server, socket_path, &SocketConfig::default())
}

/// [`serve`] with explicit transport protections.
///
/// # Errors
///
/// Socket creation/bind failures. Per-connection I/O errors only end that
/// connection.
pub fn serve_with(server: Server, socket_path: &Path, cfg: &SocketConfig) -> io::Result<()> {
    // A stale socket file from a SIGKILLed daemon would make bind fail;
    // nothing can still be listening on it, so remove it.
    let _ = std::fs::remove_file(socket_path);
    let listener = UnixListener::bind(socket_path)?;
    let server = Arc::new(server);
    let stopping = Arc::new(AtomicBool::new(false));
    let active = Arc::new(AtomicUsize::new(0));
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Reap finished handlers so the vec tracks live connections, not
        // every connection ever made.
        let mut i = 0;
        while i < handlers.len() {
            if handlers[i].is_finished() {
                let _ = handlers.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        if active.load(Ordering::SeqCst) >= cfg.max_connections {
            shed(stream, cfg);
            continue;
        }
        active.fetch_add(1, Ordering::SeqCst);
        let server = Arc::clone(&server);
        let stopping = Arc::clone(&stopping);
        let active = Arc::clone(&active);
        let wake_path = socket_path.to_path_buf();
        let cfg = *cfg;
        handlers.push(std::thread::spawn(move || {
            let action = handle_connection(&server, stream, &cfg);
            active.fetch_sub(1, Ordering::SeqCst);
            if action == Action::Shutdown {
                stopping.store(true, Ordering::SeqCst);
                server.shutdown();
                // Unblock the accept loop so it observes the stop flag.
                let _ = UnixStream::connect(&wake_path);
            }
        }));
    }
    for handler in handlers {
        let _ = handler.join();
    }
    let _ = std::fs::remove_file(socket_path);
    // The workers park their running slices before the daemon exits, so
    // every job is recoverable from disk.
    match Arc::try_unwrap(server) {
        Ok(mut server) => {
            server.shutdown();
            server.join();
        }
        Err(server) => server.shutdown(),
    }
    Ok(())
}

/// Refuse a connection past the cap: one typed response, then close. The
/// write happens on the accept thread, so it runs under a short timeout of
/// its own — a shed client that never reads cannot stall the accept loop.
fn shed(stream: UnixStream, cfg: &SocketConfig) {
    let _ = stream.set_write_timeout(Some(
        cfg.write_timeout
            .unwrap_or(Duration::from_secs(5))
            .min(Duration::from_secs(5)),
    ));
    let mut text = proto::coded_err(
        "overloaded",
        &format!(
            "server at its connection cap ({}); retry later",
            cfg.max_connections
        ),
    )
    .render();
    text.push('\n');
    let mut stream = stream;
    let _ = stream.write_all(text.as_bytes());
}

/// What [`read_frame`] produced.
enum Frame {
    /// A complete newline-terminated frame (newline stripped).
    Line(Vec<u8>),
    /// The frame exceeded the cap; the connection must answer and close.
    TooLarge,
    /// Clean end of stream.
    Eof,
}

/// Read one newline-terminated frame of at most `max` bytes. Buffers at
/// most `max` plus one `BufReader` chunk regardless of how much the peer
/// floods. A final unterminated frame at EOF is returned as a frame.
fn read_frame(reader: &mut BufReader<UnixStream>, max: usize) -> io::Result<Frame> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return Ok(if buf.is_empty() {
                Frame::Eof
            } else {
                Frame::Line(buf)
            });
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if buf.len() + pos > max {
                    reader.consume(pos + 1);
                    return Ok(Frame::TooLarge);
                }
                buf.extend_from_slice(&available[..pos]);
                reader.consume(pos + 1);
                return Ok(Frame::Line(buf));
            }
            None => {
                let n = available.len();
                if buf.len() + n > max {
                    reader.consume(n);
                    return Ok(Frame::TooLarge);
                }
                buf.extend_from_slice(available);
                reader.consume(n);
            }
        }
    }
}

fn handle_connection(server: &Server, stream: UnixStream, cfg: &SocketConfig) -> Action {
    let _ = stream.set_read_timeout(cfg.read_timeout);
    let _ = stream.set_write_timeout(cfg.write_timeout);
    let Ok(write_half) = stream.try_clone() else {
        return Action::Continue;
    };
    let mut writer = io::BufWriter::new(write_half);
    let mut reader = BufReader::new(stream);
    let respond = |writer: &mut io::BufWriter<UnixStream>, response: &crate::Json| {
        let mut text = response.render();
        text.push('\n');
        writer
            .write_all(text.as_bytes())
            .and_then(|()| writer.flush())
            .is_ok()
    };
    loop {
        // Timeouts and I/O errors both end the connection; there is
        // nothing safe to say to a peer we can no longer frame with.
        let Ok(frame) = read_frame(&mut reader, cfg.max_frame_bytes) else {
            return Action::Continue;
        };
        match frame {
            Frame::Eof => return Action::Continue,
            Frame::TooLarge => {
                // One typed answer, then close: the rest of the oversized
                // frame is unread, so this connection cannot be re-framed.
                let response = proto::coded_err(
                    "too_large",
                    &format!(
                        "request frame exceeds {} bytes; connection closed",
                        cfg.max_frame_bytes
                    ),
                );
                let _ = respond(&mut writer, &response);
                return Action::Continue;
            }
            Frame::Line(bytes) => {
                // Junk bytes are the peer's problem, not a dead thread:
                // lossy-decode and let the protocol answer with an error.
                let line = String::from_utf8_lossy(&bytes);
                if line.trim().is_empty() {
                    continue;
                }
                let (response, action) = proto::handle_line(server, &line);
                if !respond(&mut writer, &response) {
                    return Action::Continue;
                }
                if action == Action::Shutdown {
                    return Action::Shutdown;
                }
            }
        }
    }
}

/// Send one request line to a daemon and return its one response line
/// (without the trailing newline). One attempt, no retry; see
/// [`request_retry`].
///
/// # Errors
///
/// Connection or I/O failures, including a connection closed before any
/// response arrived.
pub fn request(socket_path: &Path, line: &str) -> io::Result<String> {
    let mut stream = connect(socket_path)?;
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    if reader.read_line(&mut response)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a response arrived",
        ));
    }
    while response.ends_with('\n') || response.ends_with('\r') {
        response.pop();
    }
    Ok(response)
}

/// Connect to the daemon socket, honoring an armed
/// [`FailPlan::connect_failures`](limscan::FailPlan) injection.
fn connect(socket_path: &Path) -> io::Result<UnixStream> {
    if limscan::harness::fail::take_connect_failure() {
        return Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            "injected connect failure",
        ));
    }
    UnixStream::connect(socket_path)
}

/// Retry policy for [`request_retry`]: capped exponential backoff with
/// deterministic jitter.
///
/// Attempt `k` (0-based) sleeps `min(base << k, cap)` scaled by a jitter
/// factor in `[0.5, 1.0)` drawn from a SplitMix64 stream seeded with
/// `seed` — the same seed replays the same delays, which is what the
/// deterministic harness tests pin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Extra attempts after the first (0 = single attempt, no retry).
    pub retries: u32,
    /// Backoff before retry 1; doubles each retry.
    pub base: Duration,
    /// Ceiling on any single backoff sleep.
    pub cap: Duration,
    /// Jitter seed; the same seed yields the same delay sequence.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            retries: 5,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(1),
            seed: 0x5eed_1153,
        }
    }
}

impl RetryPolicy {
    /// The jittered backoff delays this policy would sleep, in order.
    /// Exposed so tests can pin determinism without sleeping.
    #[must_use]
    pub fn delays(&self) -> Vec<Duration> {
        let mut state = self.seed;
        (0..self.retries)
            .map(|k| {
                let exp = self.base.saturating_mul(1u32 << k.min(20));
                let full = exp.min(self.cap);
                // splitmix64 step, mapped to a factor in [0.5, 1.0).
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                #[allow(clippy::cast_precision_loss)]
                let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
                full.mul_f64(0.5 + unit / 2.0)
            })
            .collect()
    }
}

/// [`request`] with retries under `policy`. Two failure classes back off
/// and retry: connection-refused / not-found / reset connect errors (the
/// daemon may still be binding its socket), and an `overloaded` shed
/// response (the daemon refused the connection at its cap *before reading
/// anything*, so re-sending is safe even for non-idempotent verbs). Any
/// failure after the request reached a handler is not retried, so a verb
/// is never processed twice.
///
/// # Errors
///
/// The last attempt's error once the policy is exhausted, or the first
/// non-retryable error.
pub fn request_retry(socket_path: &Path, line: &str, policy: &RetryPolicy) -> io::Result<String> {
    let delays = policy.delays();
    let mut last: Option<io::Error> = None;
    for attempt in 0..=policy.retries {
        match connect(socket_path) {
            Ok(mut stream) => {
                // Connected: from here on, only a shed response retries.
                stream.write_all(line.as_bytes())?;
                stream.write_all(b"\n")?;
                stream.flush()?;
                let mut reader = BufReader::new(stream);
                let mut response = String::new();
                if reader.read_line(&mut response)? == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed before a response arrived",
                    ));
                }
                while response.ends_with('\n') || response.ends_with('\r') {
                    response.pop();
                }
                if shed_response(&response) && (attempt as usize) < delays.len() {
                    std::thread::sleep(delays[attempt as usize]);
                    last = Some(io::Error::other(response));
                    continue;
                }
                return Ok(response);
            }
            Err(e) if retryable(&e) && (attempt as usize) < delays.len() => {
                std::thread::sleep(delays[attempt as usize]);
                last = Some(e);
            }
            Err(e) => return Err(e),
        }
    }
    Err(last.unwrap_or_else(|| io::Error::other("retries exhausted")))
}

/// Whether a response line is the connection-cap shed answer (which is
/// written before the daemon reads anything, making a retry safe).
fn shed_response(response: &str) -> bool {
    crate::Json::parse(response)
        .is_ok_and(|v| v.get("code").and_then(crate::Json::as_str) == Some("overloaded"))
}

/// Connect errors worth retrying: the daemon may not be listening *yet*
/// (startup race) or may have shed us under load.
fn retryable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::NotFound
            | io::ErrorKind::AddrNotAvailable
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_delays_are_deterministic_and_capped() {
        let policy = RetryPolicy {
            retries: 8,
            base: Duration::from_millis(100),
            cap: Duration::from_millis(400),
            seed: 42,
        };
        let a = policy.delays();
        let b = policy.delays();
        assert_eq!(a, b, "same seed, same delays");
        assert_eq!(a.len(), 8);
        for (k, d) in a.iter().enumerate() {
            let full = Duration::from_millis(100)
                .saturating_mul(1 << k.min(20))
                .min(Duration::from_millis(400));
            assert!(*d <= full, "jitter never exceeds the capped backoff");
            assert!(*d >= full / 2, "jitter keeps at least half the backoff");
        }
        let other = RetryPolicy { seed: 43, ..policy };
        assert_ne!(a, other.delays(), "different seed, different jitter");
    }

    #[test]
    fn frame_reader_bounds_and_splits() {
        use std::io::Write as _;
        let dir = std::env::temp_dir().join(format!("limscan_frame_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("frame.sock");
        let _ = std::fs::remove_file(&sock);
        let listener = UnixListener::bind(&sock).unwrap();
        let mut client = UnixStream::connect(&sock).unwrap();
        let (served, _) = listener.accept().unwrap();
        client.write_all(b"hello\nworldworldworld\n").unwrap();
        client.flush().unwrap();
        let mut reader = BufReader::new(served);
        let Frame::Line(a) = read_frame(&mut reader, 10).unwrap() else {
            panic!("expected first frame");
        };
        assert_eq!(a, b"hello");
        assert!(matches!(
            read_frame(&mut reader, 10).unwrap(),
            Frame::TooLarge
        ));
        drop(client);
        assert!(matches!(read_frame(&mut reader, 10).unwrap(), Frame::Eof));
        let _ = std::fs::remove_file(&sock);
    }
}
