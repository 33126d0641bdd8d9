//! Workspace-wide error type.
//!
//! A single error enum keeps the crates' `Result` signatures uniform without
//! pulling in external error-derive dependencies.

use std::fmt;

/// Errors produced anywhere in the workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// SQL text failed to lex or parse. Carries a message and byte offset.
    Parse { message: String, offset: usize },
    /// Name resolution failed (unknown table/column, ambiguous reference).
    Resolution(String),
    /// A semantically invalid query (type mismatch, bad aggregate use, ...).
    Semantic(String),
    /// The catalog has no object with the requested name or id.
    CatalogMissing(String),
    /// The Orca detour could not handle the query; the caller must fall back
    /// to MySQL optimization (paper §4.1/§4.2: recursive CTEs, multi-column
    /// GROUPING, changed query-block structure, non-SELECT statements).
    OrcaFallback(String),
    /// Statement execution failed.
    Execution(String),
    /// A resource limit was hit mid-operation (optimizer search budget,
    /// timeout). Callers can match on this to degrade rather than abort —
    /// the bridge's degradation ladder retries cheaper strategies on it.
    ResourceExhausted { resource: String, limit: u64 },
    /// The query was cancelled cooperatively (a cancel token flipped while
    /// the executor was between operator openings or morsels). Not a
    /// resource error: retrying at a cheaper rung would not help, so the
    /// planner ladder must not react to it.
    Cancelled,
    /// The query's wall-clock deadline passed before execution finished.
    DeadlineExceeded { budget_ms: u64 },
    /// The query's tracked memory charge crossed its byte budget. The
    /// engine may retry once at a degraded setting (serial dop, GREEDY)
    /// before surfacing this to the caller.
    MemoryExceeded { used: u64, budget: u64 },
    /// Internal invariant violation — indicates a bug in this codebase.
    Internal(String),
}

impl Error {
    /// Shorthand for [`Error::Internal`] with a formatted message.
    pub fn internal(msg: impl Into<String>) -> Self {
        Error::Internal(msg.into())
    }

    /// Shorthand for [`Error::Semantic`].
    pub fn semantic(msg: impl Into<String>) -> Self {
        Error::Semantic(msg.into())
    }

    /// Shorthand for [`Error::OrcaFallback`].
    pub fn fallback(msg: impl Into<String>) -> Self {
        Error::OrcaFallback(msg.into())
    }

    /// Shorthand for [`Error::ResourceExhausted`].
    pub fn resource_exhausted(resource: impl Into<String>, limit: u64) -> Self {
        Error::ResourceExhausted { resource: resource.into(), limit }
    }

    /// Whether this error is a resource-limit failure (budget/timeout).
    /// Deliberately excludes the governance variants ([`Error::Cancelled`],
    /// [`Error::DeadlineExceeded`], [`Error::MemoryExceeded`]): the
    /// planner's degradation ladder keys on this predicate, and re-planning
    /// cannot rescue a cancelled or out-of-time query.
    pub fn is_resource_exhausted(&self) -> bool {
        matches!(self, Error::ResourceExhausted { .. })
    }

    /// Whether this error came from the runtime query governor (cancel,
    /// deadline, or memory budget) rather than from the statement itself.
    pub fn is_governed(&self) -> bool {
        matches!(
            self,
            Error::Cancelled | Error::DeadlineExceeded { .. } | Error::MemoryExceeded { .. }
        )
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse { message, offset } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            Error::Resolution(m) => write!(f, "resolution error: {m}"),
            Error::Semantic(m) => write!(f, "semantic error: {m}"),
            Error::CatalogMissing(m) => write!(f, "catalog object not found: {m}"),
            Error::OrcaFallback(m) => write!(f, "orca fallback: {m}"),
            Error::Execution(m) => write!(f, "execution error: {m}"),
            Error::ResourceExhausted { resource, limit } => {
                write!(f, "resource exhausted: {resource} (limit {limit})")
            }
            Error::Cancelled => write!(f, "query cancelled"),
            Error::DeadlineExceeded { budget_ms } => {
                write!(f, "deadline exceeded: query ran past its {budget_ms}ms budget")
            }
            Error::MemoryExceeded { used, budget } => {
                write!(
                    f,
                    "memory budget exceeded: {used} bytes charged against a {budget}-byte budget"
                )
            }
            Error::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = Error::Parse { message: "unexpected ')'".into(), offset: 17 };
        assert_eq!(e.to_string(), "parse error at byte 17: unexpected ')'");
        assert!(Error::fallback("recursive CTE").to_string().contains("recursive CTE"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(Error::internal("x"), Error::Internal("x".into()));
        assert_ne!(Error::internal("x"), Error::semantic("x"));
    }

    #[test]
    fn resource_exhausted_is_matchable_and_std_error() {
        let e = Error::resource_exhausted("memo groups", 100);
        assert!(e.is_resource_exhausted());
        assert!(e.to_string().contains("memo groups"));
        assert!(e.to_string().contains("100"));
        // The enum participates in std error-trait machinery.
        let dynamic: &dyn std::error::Error = &e;
        assert!(dynamic.source().is_none());
    }

    #[test]
    fn governance_errors_do_not_trip_the_degradation_ladder() {
        // Cancel/deadline/memory are runtime-governance outcomes; the
        // planner must never retry a cheaper strategy because of them.
        for e in [
            Error::Cancelled,
            Error::DeadlineExceeded { budget_ms: 5 },
            Error::MemoryExceeded { used: 10, budget: 4 },
        ] {
            assert!(e.is_governed(), "{e}");
            assert!(!e.is_resource_exhausted(), "{e}");
        }
        assert!(!Error::resource_exhausted("memo groups", 1).is_governed());
        assert!(Error::DeadlineExceeded { budget_ms: 250 }.to_string().contains("250ms"));
        assert!(Error::MemoryExceeded { used: 9, budget: 8 }.to_string().contains("9 bytes"));
    }
}
