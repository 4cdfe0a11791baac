//! # sara-serve
//!
//! The long-lived simulation service: a [`Server`] accepts
//! `sara-serve/v1` jobs as newline-delimited JSON — over stdin/stdout, a
//! TCP socket, or a Unix socket — lowers each job into the same
//! scenario × policy × frequency × channel cells as `sara matrix`,
//! shards them across the batch harness's ordered executor
//! (`sara_scenarios::run_ordered`, at most `workers` threads per job)
//! behind per-client admission budgets, and streams each cell's result
//! the moment it (and every cell before it) is done.
//!
//! Two properties anchor the design:
//!
//! * **Byte identity.** A served job's cell reports — and its optional
//!   `json_out` artifact — are byte-identical to the equivalent
//!   `sara matrix` run, for any worker count, cache state, or job
//!   arrival order. A job takes the batch harness's own steps:
//!   `expand_cells`, `lower_cell` (the one lowering and prune rule),
//!   `run_system` (the one simulate step) on `run_ordered`, `rank_cells`
//!   and `write_matrix_document` (the one matrix-document writer), and
//!   streams records in submission order.
//! * **No cell is simulated twice.** Every cell is content-addressed by
//!   [`sara_scenarios::cell_fingerprint`] (scenario document, overrides
//!   and engine version) in the server's [`ResultCache`]; repeats — across
//!   jobs or within one — are served from cache and surface in the
//!   `cache_hits`/`cache_misses` counters of each job's `summary` record
//!   and the server-wide `stats` reply.
//!
//! The wire protocol is specified in `docs/serve-protocol.md` and
//! implemented (strict parse + emit) in [`protocol`]; the spec is
//! golden-tested against this crate so the two cannot diverge.
//!
//! # Examples
//!
//! A session is just a `BufRead` + `Write` pair, so an in-process probe
//! needs no socket at all:
//!
//! ```
//! use sara_serve::{Server, ServeConfig};
//!
//! let server = Server::new(ServeConfig::default());
//! let requests = concat!(
//!     r#"{"format":"sara-serve/v1","type":"ping"}"#, "\n",
//!     r#"{"format":"sara-serve/v1","type":"shutdown"}"#, "\n",
//! );
//! let mut replies = Vec::new();
//! server.handle_session(requests.as_bytes(), &mut replies)?;
//! assert_eq!(
//!     String::from_utf8(replies)?,
//!     "{\"format\":\"sara-serve/v1\",\"type\":\"pong\"}\n"
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
pub mod journal;
pub mod protocol;
mod server;

pub use cache::{CachedReport, ResultCache};
pub use journal::{Journal, EVENTS, JOURNAL_TAG, STAGE_HISTOGRAMS};
pub use protocol::{JobRequest, JobSummary, ProtocolError, Request, ScenarioRef, FORMAT_TAG};
pub use server::{ServeConfig, Server, COUNTERS, MAX_REQUEST_LINE, REPLY_BUFFER};
