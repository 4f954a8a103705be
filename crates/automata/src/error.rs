//! Error type for regex parsing and automaton construction.

use core::fmt;

/// Errors produced while parsing regular expressions or building
/// automata.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AutomataError {
    /// The regular expression failed to parse.
    ParseRegex {
        /// Byte offset of the failure in the pattern.
        position: usize,
        /// What went wrong.
        message: String,
    },
    /// A repetition bound was invalid (e.g. `{3,1}`).
    InvalidRepetition {
        /// Byte offset in the pattern.
        position: usize,
    },
    /// An empty pattern set was supplied where at least one is required.
    EmptyPatternSet,
    /// A pattern, or a pattern set in total, would compile to more
    /// Glushkov positions than
    /// [`MAX_POSITIONS`](crate::regex::MAX_POSITIONS) allows.
    TooManyPositions {
        /// Positions the pattern (set) would reach, at least; counting
        /// stops at the first expansion that passes the cap.
        positions: usize,
        /// The cap.
        limit: usize,
    },
    /// A pattern, or a pattern set in total, would parse to more
    /// syntax-tree nodes than [`MAX_NODES`](crate::regex::MAX_NODES)
    /// allows.
    TooManyNodes {
        /// Nodes the pattern (set) would reach, at least; counting
        /// stops at the first expansion that passes the cap.
        nodes: usize,
        /// The cap.
        limit: usize,
    },
    /// A pattern nests groups, or would parse to a syntax tree, deeper
    /// than [`MAX_DEPTH`](crate::regex::MAX_DEPTH) allows.
    TooDeep {
        /// The depth reached when parsing stopped.
        depth: usize,
        /// The cap.
        limit: usize,
    },
}

impl fmt::Display for AutomataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AutomataError::ParseRegex { position, message } => {
                write!(f, "regex parse error at byte {position}: {message}")
            }
            AutomataError::InvalidRepetition { position } => {
                write!(f, "invalid repetition bounds at byte {position}")
            }
            AutomataError::EmptyPatternSet => write!(f, "pattern set must not be empty"),
            AutomataError::TooManyPositions { positions, limit } => {
                write!(f, "pattern would compile to {positions} positions, over the cap of {limit}")
            }
            AutomataError::TooManyNodes { nodes, limit } => {
                write!(
                    f,
                    "pattern would parse to {nodes} syntax-tree nodes, over the cap of {limit}"
                )
            }
            AutomataError::TooDeep { depth, limit } => {
                write!(f, "pattern nests {depth} deep, over the cap of {limit}")
            }
        }
    }
}

impl std::error::Error for AutomataError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_carry_position() {
        let e = AutomataError::ParseRegex { position: 4, message: "unbalanced )".into() };
        assert!(e.to_string().contains("byte 4"));
        assert!(e.to_string().contains("unbalanced"));
    }
}
