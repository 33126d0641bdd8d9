//! Per-session state and request dispatch.
//!
//! A session is one connection's view of the shared engine: a session id
//! and a [`SessionOpts`] accumulated from `SET` requests. Statements run
//! with their own options layered over the session state, which is itself
//! layered over the engine defaults — the engine resolves the final knob
//! set per statement, so nothing here touches engine-global knobs and
//! sessions cannot perturb each other.

use crate::protocol::{Reply, Request, ServeOutcome};
use mylite::{CostBasedOptimizer, Engine, SessionOpts};
use std::sync::Arc;
use taurus_common::error::Result;

/// One connection's session against the shared engine.
pub struct Session {
    id: u64,
    engine: Arc<Engine>,
    optimizer: Arc<dyn CostBasedOptimizer + Send + Sync>,
    opts: SessionOpts,
}

impl Session {
    pub fn new(
        id: u64,
        engine: Arc<Engine>,
        optimizer: Arc<dyn CostBasedOptimizer + Send + Sync>,
    ) -> Session {
        Session { id, engine, optimizer, opts: SessionOpts::default() }
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    /// The session's accumulated `SET` state.
    pub fn opts(&self) -> &SessionOpts {
        &self.opts
    }

    /// Handle one request. `None` means the session asked to close.
    pub fn dispatch(&mut self, req: Request) -> Option<Reply> {
        let reply = match req {
            Request::Query { opts, sql } => self.run_statement(&opts, &sql),
            Request::Explain { opts, sql } => {
                let effective = self.opts.layer(&opts);
                self.engine
                    .explain_cached_opts(&sql, self.optimizer.as_ref(), &effective)
                    .map(Reply::Text)
            }
            Request::Set { opts } => {
                self.opts = self.opts.layer(&opts);
                Ok(Reply::Unit)
            }
            Request::Analyze => {
                self.engine.analyze_shared();
                Ok(Reply::Unit)
            }
            Request::Quit => return None,
        };
        Some(reply.unwrap_or_else(Reply::Err))
    }

    fn run_statement(&self, opts: &SessionOpts, sql: &str) -> Result<Reply> {
        let effective = self.opts.layer(opts);
        // INSERT bypasses the plan cache (it is DDL-adjacent: catalog write
        // lock, version bump); everything else is a cached SELECT serve.
        if sql.trim_start().get(..6).is_some_and(|p| p.eq_ignore_ascii_case("insert")) {
            let out = self.engine.execute_sql_shared(sql)?;
            return Ok(Reply::Rows {
                outcome: ServeOutcome::Uncached,
                columns: out.columns,
                rows: out.rows,
            });
        }
        let (out, outcome) =
            self.engine.query_cached_opts(sql, self.optimizer.as_ref(), &effective)?;
        Ok(Reply::Rows { outcome: outcome.into(), columns: out.columns, rows: out.rows })
    }
}
