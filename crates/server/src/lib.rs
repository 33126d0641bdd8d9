//! `taurus-server` — the multi-session SQL front end over a shared engine.
//!
//! The paper integrates Orca into a *server*: many MySQL sessions share one
//! optimizer and one plan cache. This crate supplies that missing layer for
//! the reproduction:
//!
//! * [`protocol`] — a length-prefixed binary wire protocol (std only):
//!   requests carry SQL plus per-statement knob options; replies carry
//!   typed results, EXPLAIN text, or *typed* errors (`DeadlineExceeded` on
//!   the server decodes as `DeadlineExceeded` in the client).
//! * [`session`] — per-connection state: a session id and the `SET`
//!   options layered over the engine's defaults; per-statement options
//!   layer once more. Sessions never touch engine-global knobs.
//! * [`server`] — a threaded accept loop: one OS thread per connection
//!   over an `Arc<Engine>`; concurrency is the engine's problem (sharded
//!   plan cache, catalog read-snapshots, atomic admission), which keeps
//!   this layer dumb and obviously correct.
//! * [`client`] — the blocking client the integration tests and the
//!   closed-loop concurrency bench drive the server with.
//!
//! See DESIGN.md §15 for the protocol and the invalidation argument.

pub mod client;
pub mod protocol;
pub mod server;
pub mod session;

pub use client::{Client, QueryReply};
pub use protocol::{Reply, Request, ServeOutcome};
pub use server::{Server, ServerHandle};
pub use session::Session;
