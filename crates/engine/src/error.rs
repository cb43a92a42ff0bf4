//! Engine error types.

use deltx_core::CgError;
use deltx_model::TxnId;

/// Why a session operation did not succeed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The transaction was aborted by the scheduler: one of its steps
    /// would have closed a cycle in the (union) conflict graph. The
    /// session is dead; begin a new one to retry.
    Aborted(TxnId),
    /// The session already ended (aborted earlier, or used after a
    /// scheduler abort) and cannot issue further operations.
    Closed(TxnId),
    /// A protocol-level error from the scheduler core. Indicates an
    /// engine bug, not a caller mistake — surfaced instead of panicking
    /// so servers can log it.
    Protocol(CgError),
    /// The durability layer failed before acknowledging a commit: the
    /// write-ahead log crashed (injected or real I/O failure) or could
    /// not be opened. A commit returning this was **not** made durable
    /// — after recovery it may be absent — and the engine accepts no
    /// further commits until re-opened.
    Durability(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Aborted(t) => write!(f, "transaction {t} aborted by scheduler"),
            EngineError::Closed(t) => write!(f, "session for {t} is closed"),
            EngineError::Protocol(e) => write!(f, "scheduler protocol error: {e}"),
            EngineError::Durability(e) => write!(f, "durability failure: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CgError> for EngineError {
    fn from(e: CgError) -> Self {
        EngineError::Protocol(e)
    }
}
