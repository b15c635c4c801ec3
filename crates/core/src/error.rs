//! Unified error type for the facade.

use rtk_graph::GraphError;
use rtk_index::IndexError;
use rtk_query::QueryError;

/// Any failure surfaced by [`crate::ReverseTopkEngine`].
#[derive(Debug)]
pub enum EngineError {
    /// Graph construction or validation failed (e.g. dangling nodes with a
    /// non-repairing policy).
    Graph(GraphError),
    /// Index configuration/build/persistence failed.
    Index(IndexError),
    /// Query validation failed.
    Query(QueryError),
    /// A whole-answer call reached an engine holding one shard, or a
    /// shard-scoped call one holding every shard; the message names the
    /// owned node range.
    Ownership(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Graph(e) => write!(f, "graph error: {e}"),
            EngineError::Index(e) => write!(f, "index error: {e}"),
            EngineError::Query(e) => write!(f, "query error: {e}"),
            EngineError::Ownership(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Graph(e) => Some(e),
            EngineError::Index(e) => Some(e),
            EngineError::Query(e) => Some(e),
            EngineError::Ownership(_) => None,
        }
    }
}

impl From<GraphError> for EngineError {
    fn from(e: GraphError) -> Self {
        EngineError::Graph(e)
    }
}

impl From<IndexError> for EngineError {
    fn from(e: IndexError) -> Self {
        EngineError::Index(e)
    }
}

impl From<QueryError> for EngineError {
    fn from(e: QueryError) -> Self {
        EngineError::Query(e)
    }
}
