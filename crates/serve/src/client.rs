//! A small synchronous client for the serve protocol — used by the
//! CLI's `query` verb, the protocol tests, and the serve speed gates.
//!
//! Two modes. [`Client::connect`] is the legacy blocking client: no
//! socket timeouts, no retries — it trusts the server completely.
//! [`Client::connect_with`] takes [`ClientOptions`] and survives a
//! hostile network: connect/read/write timeouts, reconnect with
//! bounded exponential backoff and *deterministic* seeded jitter (the
//! schedule is a pure function of `jitter_seed` — no wall-clock
//! entropy, so retry timing is reproducible), and an overall deadline
//! budget per [`Client::roundtrip`]. Retries happen only for requests
//! [`Request::idempotent`] declares safe to re-send: a lost
//! `add-marker` reply must not bind the marker twice.

use crate::protocol::{decode, encode, read_frame, write_frame, FrameError, Request, Response};
use crate::server::Endpoint;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::thread;
use std::time::{Duration, Instant};

/// Errors of a client round trip.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting to the endpoint failed.
    Connect(std::io::Error),
    /// Frame-level failure (server closed the stream, oversized
    /// reply, mid-frame I/O error).
    Frame(FrameError),
    /// A payload failed to encode or decode.
    Codec(typilus_serbin::Error),
    /// The overall deadline budget ran out before a reply arrived.
    Deadline {
        /// Attempts made before giving up (1 = only the initial try).
        attempts: u32,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "cannot connect to server: {e}"),
            ClientError::Frame(e) => write!(f, "protocol frame error: {e}"),
            ClientError::Codec(e) => write!(f, "protocol codec error: {e}"),
            ClientError::Deadline { attempts } => {
                write!(f, "deadline budget exhausted after {attempts} attempt(s)")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<typilus_serbin::Error> for ClientError {
    fn from(e: typilus_serbin::Error) -> Self {
        ClientError::Codec(e)
    }
}

/// Resilience tunables of [`Client::connect_with`]. A zero disables
/// the corresponding timeout (block indefinitely), matching the
/// legacy [`Client::connect`] behaviour when everything is zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientOptions {
    /// Connect timeout in milliseconds (TCP only; Unix-socket
    /// connects are local and do not block on a live kernel).
    pub connect_timeout_ms: u64,
    /// Socket read timeout in milliseconds.
    pub read_timeout_ms: u64,
    /// Socket write timeout in milliseconds.
    pub write_timeout_ms: u64,
    /// Reconnect-and-resend attempts after the first try, applied
    /// only to [`Request::idempotent`] requests.
    pub retries: u32,
    /// First backoff delay in milliseconds; doubles per retry.
    pub backoff_base_ms: u64,
    /// Ceiling of the (pre-jitter) backoff delay in milliseconds.
    pub backoff_cap_ms: u64,
    /// Seed of the deterministic jitter stream. Same seed, same
    /// schedule — retry timing carries no wall-clock entropy.
    pub jitter_seed: u64,
    /// Overall budget per [`Client::roundtrip`] in milliseconds,
    /// covering every retry, backoff sleep and reconnect. Zero
    /// disables the budget.
    pub deadline_ms: u64,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            connect_timeout_ms: 2_000,
            read_timeout_ms: 15_000,
            write_timeout_ms: 15_000,
            retries: 3,
            backoff_base_ms: 25,
            backoff_cap_ms: 1_000,
            jitter_seed: 0x7479_7069_6c75_7331, // "typilus1"
            deadline_ms: 30_000,
        }
    }
}

impl ClientOptions {
    /// The legacy profile: no timeouts, no retries, no deadline —
    /// exactly what [`Client::connect`] has always done.
    pub fn blocking() -> ClientOptions {
        ClientOptions {
            connect_timeout_ms: 0,
            read_timeout_ms: 0,
            write_timeout_ms: 0,
            retries: 0,
            backoff_base_ms: 0,
            backoff_cap_ms: 0,
            jitter_seed: 0,
            deadline_ms: 0,
        }
    }

    /// The exact backoff schedule a client with these options sleeps
    /// through for its first `attempts` retries. Pure and
    /// deterministic: the jitter is drawn from a splitmix64 stream
    /// seeded by `jitter_seed`, so the same options always produce
    /// the same schedule — tests and operators can reason about retry
    /// timing exactly.
    pub fn backoff_schedule(&self, attempts: u32) -> Vec<Duration> {
        let mut rng = self.jitter_seed;
        (1..=attempts)
            .map(|attempt| Duration::from_millis(backoff_delay_ms(self, attempt, &mut rng)))
            .collect()
    }
}

/// The splitmix64 step: a tiny, well-mixed PRNG whose whole state is
/// one `u64` — deterministic jitter without any clock involvement.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 33)
}

/// Pre-sleep delay before retry `attempt` (1-based): exponential from
/// `backoff_base_ms` capped at `backoff_cap_ms`, then jittered into
/// `[0.75 × delay, 1.25 × delay)` from the deterministic stream.
fn backoff_delay_ms(options: &ClientOptions, attempt: u32, rng: &mut u64) -> u64 {
    let base = options.backoff_base_ms.max(1);
    let cap = options.backoff_cap_ms.max(base);
    let exponent = attempt.saturating_sub(1).min(16);
    let raw = base.saturating_mul(1u64 << exponent).min(cap);
    let span = (raw / 2).max(1);
    raw - raw / 4 + splitmix64(rng) % span
}

/// Whether a failed attempt is worth a reconnect-and-retry: transport
/// failures are (the server may be back, or a peer is healthy), while
/// codec errors and oversized frames are deterministic — retrying
/// them re-earns the same failure.
fn retriable(e: &ClientError) -> bool {
    matches!(
        e,
        ClientError::Connect(_)
            | ClientError::Frame(FrameError::Closed)
            | ClientError::Frame(FrameError::Io(_))
    )
}

enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    /// Applies socket read/write timeouts; `None` blocks forever.
    fn set_timeouts(&self, read: Option<Duration>, write: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => {
                s.set_read_timeout(read)?;
                s.set_write_timeout(write)
            }
            Stream::Unix(s) => {
                s.set_read_timeout(read)?;
                s.set_write_timeout(write)
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A connected client. One request is in flight at a time; replies
/// arrive in request order.
pub struct Client {
    stream: Stream,
    endpoint: Endpoint,
    options: ClientOptions,
    /// Jitter stream state; advances once per backoff sleep.
    rng: u64,
}

impl Client {
    /// Connects to a serving endpoint with the legacy blocking
    /// profile: no timeouts, no retries.
    ///
    /// # Errors
    ///
    /// [`ClientError::Connect`] when the endpoint is unreachable.
    pub fn connect(endpoint: &Endpoint) -> Result<Client, ClientError> {
        Client::connect_with(endpoint, ClientOptions::blocking())
    }

    /// Connects to a serving endpoint with explicit resilience
    /// options (see [`ClientOptions`]).
    ///
    /// # Errors
    ///
    /// [`ClientError::Connect`] when the endpoint is unreachable
    /// within the connect timeout.
    pub fn connect_with(
        endpoint: &Endpoint,
        options: ClientOptions,
    ) -> Result<Client, ClientError> {
        let stream = open_stream(endpoint, &options, None)?;
        Ok(Client {
            stream,
            endpoint: endpoint.clone(),
            options,
            rng: options.jitter_seed,
        })
    }

    /// Sends one request and waits for its reply. Under resilient
    /// options, a transport failure on an [`Request::idempotent`]
    /// request triggers reconnect-and-resend with deterministic
    /// backoff, all within the `deadline_ms` budget; non-idempotent
    /// requests (`add-marker`, `shutdown`) surface the first failure.
    ///
    /// # Errors
    ///
    /// Frame or codec failures; a server that closed the stream
    /// surfaces as [`FrameError::Closed`] inside
    /// [`ClientError::Frame`]; [`ClientError::Deadline`] when the
    /// budget runs out mid-retry.
    // lint: allow(D6) — deadline/backoff bookkeeping: timing gates retries, never reply payloads
    pub fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        let deadline = (self.options.deadline_ms > 0)
            .then(|| Instant::now() + Duration::from_millis(self.options.deadline_ms));
        let mut last = self.try_roundtrip(request, deadline);
        for attempt in 1..=self.options.retries {
            let err = match last {
                Ok(resp) => return Ok(resp),
                Err(e) => e,
            };
            if !request.idempotent() || !retriable(&err) {
                return Err(err);
            }
            let delay =
                Duration::from_millis(backoff_delay_ms(&self.options, attempt, &mut self.rng));
            if past_deadline(deadline, delay) {
                return Err(ClientError::Deadline { attempts: attempt });
            }
            thread::sleep(delay);
            last = open_stream(&self.endpoint, &self.options, deadline).and_then(|stream| {
                self.stream = stream;
                self.try_roundtrip(request, deadline)
            });
        }
        last
    }

    /// One unretried attempt: clamp socket timeouts to the remaining
    /// budget, write the frame, read the reply.
    fn try_roundtrip(
        &mut self,
        request: &Request,
        deadline: Option<Instant>,
    ) -> Result<Response, ClientError> {
        let read = effective_timeout(self.options.read_timeout_ms, deadline)?;
        let write = effective_timeout(self.options.write_timeout_ms, deadline)?;
        self.stream
            .set_timeouts(read, write)
            .map_err(ClientError::Connect)?;
        let bytes = encode(request)?;
        write_frame(&mut self.stream, &bytes)?;
        let reply = read_frame(&mut self.stream)?;
        Ok(decode::<Response>(&reply)?)
    }

    /// Predicts type hints for a source snippet.
    ///
    /// # Errors
    ///
    /// See [`Client::roundtrip`].
    pub fn predict(&mut self, source: &str) -> Result<Response, ClientError> {
        self.roundtrip(&Request::Predict {
            source: source.to_string(),
        })
    }

    /// Binds one `(symbol-from-source, type)` marker into the server's
    /// type map. Never retried: the reply could be lost *after* the
    /// marker was bound, and a resend would bind it twice.
    ///
    /// # Errors
    ///
    /// See [`Client::roundtrip`].
    pub fn add_marker(
        &mut self,
        source: &str,
        symbol: &str,
        ty: &str,
    ) -> Result<Response, ClientError> {
        self.roundtrip(&Request::AddMarker {
            source: source.to_string(),
            symbol: symbol.to_string(),
            ty: ty.to_string(),
        })
    }

    /// Fetches server and type-map statistics (including health).
    ///
    /// # Errors
    ///
    /// See [`Client::roundtrip`].
    pub fn stats(&mut self) -> Result<Response, ClientError> {
        self.roundtrip(&Request::Stats)
    }

    /// Asks the server to rebuild its TypeSpace index in memory.
    ///
    /// # Errors
    ///
    /// See [`Client::roundtrip`].
    pub fn reindex(&mut self) -> Result<Response, ClientError> {
        self.roundtrip(&Request::Reindex)
    }

    /// Asks the server to stop accepting new connections while
    /// serving existing ones; the reply is [`Response::Draining`] and
    /// this connection stays usable.
    ///
    /// # Errors
    ///
    /// See [`Client::roundtrip`].
    pub fn drain(&mut self) -> Result<Response, ClientError> {
        self.roundtrip(&Request::Drain)
    }

    /// Asks the server to shut down cleanly; the reply is
    /// [`Response::Bye`] and the connection closes after it.
    ///
    /// # Errors
    ///
    /// See [`Client::roundtrip`].
    pub fn shutdown(&mut self) -> Result<Response, ClientError> {
        self.roundtrip(&Request::Shutdown)
    }

    /// Writes raw bytes as one frame — test hook for malformed and
    /// hostile payloads.
    ///
    /// # Errors
    ///
    /// See [`Client::roundtrip`].
    pub fn send_raw_frame(&mut self, payload: &[u8]) -> Result<(), ClientError> {
        write_frame(&mut self.stream, payload)?;
        Ok(())
    }

    /// Reads one reply frame and decodes it — pairs with
    /// [`Client::send_raw_frame`].
    ///
    /// # Errors
    ///
    /// See [`Client::roundtrip`].
    pub fn read_reply(&mut self) -> Result<Response, ClientError> {
        let reply = read_frame(&mut self.stream)?;
        Ok(decode::<Response>(&reply)?)
    }

    /// Writes arbitrary bytes to the stream without framing — test
    /// hook for truncated prefixes and mid-frame disconnects.
    ///
    /// # Errors
    ///
    /// Propagates the write failure as [`ClientError::Connect`].
    pub fn send_raw_bytes(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.stream
            .write_all(bytes)
            .and_then(|()| self.stream.flush())
            .map_err(ClientError::Connect)
    }
}

/// Opens a stream to the endpoint, honouring the connect timeout and
/// any overall deadline.
fn open_stream(
    endpoint: &Endpoint,
    options: &ClientOptions,
    deadline: Option<Instant>,
) -> Result<Stream, ClientError> {
    let connect = effective_timeout(options.connect_timeout_ms, deadline)?;
    match endpoint {
        Endpoint::Tcp(addr) => {
            let stream = match connect {
                Some(timeout) => {
                    let resolved = addr
                        .as_str()
                        .to_socket_addrs()
                        .map_err(ClientError::Connect)?
                        .next()
                        .ok_or_else(|| {
                            ClientError::Connect(std::io::Error::other(
                                "address resolved to no socket address",
                            ))
                        })?;
                    TcpStream::connect_timeout(&resolved, timeout).map_err(ClientError::Connect)?
                }
                None => TcpStream::connect(addr.as_str()).map_err(ClientError::Connect)?,
            };
            Ok(Stream::Tcp(stream))
        }
        Endpoint::Unix(path) => {
            // std offers no UnixStream::connect_timeout; a local
            // socket connect does not block on a live kernel, and the
            // read/write timeouts still bound everything after it.
            Ok(Stream::Unix(
                UnixStream::connect(path).map_err(ClientError::Connect)?,
            ))
        }
    }
}

/// The socket timeout to apply: the configured one (zero = none),
/// clamped to whatever remains of the overall deadline.
///
/// # Errors
///
/// [`ClientError::Deadline`] when the budget is already gone.
fn effective_timeout(
    configured_ms: u64,
    deadline: Option<Instant>,
) -> Result<Option<Duration>, ClientError> {
    let configured = (configured_ms > 0).then(|| Duration::from_millis(configured_ms));
    let Some(deadline) = deadline else {
        return Ok(configured);
    };
    // lint: allow(D6) — deadline budget accounting, not a result path
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err(ClientError::Deadline { attempts: 1 });
    }
    Ok(Some(configured.map_or(remaining, |c| c.min(remaining))))
}

/// Whether sleeping `delay` would overrun the deadline.
fn past_deadline(deadline: Option<Instant>, delay: Duration) -> bool {
    // lint: allow(D6) — deadline budget accounting, not a result path
    deadline.is_some_and(|d| Instant::now() + delay >= d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_deterministic_and_bounded() {
        let options = ClientOptions {
            backoff_base_ms: 10,
            backoff_cap_ms: 100,
            jitter_seed: 42,
            ..ClientOptions::default()
        };
        let a = options.backoff_schedule(8);
        let b = options.backoff_schedule(8);
        assert_eq!(a, b, "same seed must give the same schedule");
        for (i, delay) in a.iter().enumerate() {
            // Jitter keeps every delay inside [0.75, 1.25) of the
            // capped exponential value.
            let raw = (10u64 << i.min(16)).min(100);
            let ms = u64::try_from(delay.as_millis()).unwrap_or(u64::MAX);
            assert!(
                ms >= raw - raw / 4,
                "delay {ms} below jitter floor of {raw}"
            );
            assert!(
                ms < raw + raw / 2,
                "delay {ms} above jitter ceiling of {raw}"
            );
        }
        let other = ClientOptions {
            jitter_seed: 43,
            ..options
        };
        assert_ne!(a, other.backoff_schedule(8), "different seeds must differ");
    }

    #[test]
    fn blocking_profile_disables_everything() {
        let options = ClientOptions::blocking();
        assert_eq!(options.retries, 0);
        assert_eq!(options.deadline_ms, 0);
        assert_eq!(effective_timeout(0, None).unwrap(), None);
    }

    #[test]
    fn effective_timeout_clamps_to_deadline() {
        let deadline = Instant::now() + Duration::from_millis(50);
        let t = effective_timeout(10_000, Some(deadline)).unwrap().unwrap();
        assert!(t <= Duration::from_millis(50));
        let gone = Instant::now() - Duration::from_millis(1);
        assert!(matches!(
            effective_timeout(10_000, Some(gone)),
            Err(ClientError::Deadline { .. })
        ));
    }
}
