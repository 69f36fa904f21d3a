//! # typilus-serve
//!
//! The long-lived type-hint daemon of the Typilus reproduction — the
//! piece that turns one-shot CLI runs into an *interactive* service:
//! the model, τmap and mmap'd TypeSpace sidecar are loaded once, the
//! worker pool and prediction scratch stay warm, and clients talk a
//! small length-prefixed binary protocol over TCP or a Unix socket.
//!
//! Three design rules, in order:
//!
//! 1. **No panics on client input.** Every fallible step of the
//!    predict / add-marker path returns a typed error that becomes an
//!    [`protocol::ErrorCode`]-tagged reply; malformed frames, oversized
//!    frames and mid-request disconnects degrade the *connection*,
//!    never the process.
//! 2. **Batching is invisible.** Concurrent predict requests are
//!    drained into a single pooled forward pass
//!    ([`typilus::TrainedSystem::predict_sources`]), whose per-source
//!    results are exactly what lone calls would return — replies are
//!    byte-identical to one-shot `typilus predict` output at any
//!    thread or client count.
//! 3. **No artifact writes.** Serving (including `add-marker` and
//!    `reindex`) mutates only process memory; killing the daemon at
//!    any moment leaves every on-disk artifact untouched.
//! 4. **No panic kills the daemon.** Every batch runs under a
//!    `catch_unwind` supervisor: a panicking request gets a typed
//!    `internal` reply, repeat offenders are quarantined, worker
//!    scratch is rebuilt, and serving continues — while the client
//!    side ([`client::ClientOptions`]) adds timeouts, deterministic
//!    backoff and idempotent-only retries.
//!
//! See `DESIGN.md` §13 for the wire format, ordering guarantees and
//! the failure model.

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;
mod stream;

pub use client::{Client, ClientError, ClientOptions};
pub use protocol::{
    read_frame, write_frame, ErrorCode, FrameError, Health, Hint, Request, Response, ServerStats,
    SymbolHints, MAX_FRAME_LEN,
};
pub use server::{Endpoint, ServeOptions, ServeSummary, Server};
