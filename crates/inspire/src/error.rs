//! Error types for compilation and kernel execution.

use std::fmt;

/// An error produced while compiling kernel source text.
///
/// Carries the byte offset into the source at which the problem was
/// detected (when known) so callers can produce caret diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// Which phase rejected the program.
    pub phase: Phase,
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the source, if the error is attributable to a span.
    pub offset: Option<usize>,
}

/// Compilation phases, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Tokenization.
    Lex,
    /// Syntax analysis.
    Parse,
    /// Name resolution and type checking.
    Sema,
    /// Bytecode generation.
    Codegen,
    /// Post-pass IR verification (the static-analysis framework's typed
    /// checker rejected the output of an optimizer or backend stage).
    Verify,
    /// Anything else (driver-level problems).
    Other,
}

impl CompileError {
    pub fn lex(message: impl Into<String>, offset: usize) -> Self {
        Self {
            phase: Phase::Lex,
            message: message.into(),
            offset: Some(offset),
        }
    }
    pub fn parse(message: impl Into<String>, offset: usize) -> Self {
        Self {
            phase: Phase::Parse,
            message: message.into(),
            offset: Some(offset),
        }
    }
    pub fn sema(message: impl Into<String>, offset: usize) -> Self {
        Self {
            phase: Phase::Sema,
            message: message.into(),
            offset: Some(offset),
        }
    }
    pub fn codegen(message: impl Into<String>) -> Self {
        Self {
            phase: Phase::Codegen,
            message: message.into(),
            offset: None,
        }
    }
    pub fn verify(message: impl Into<String>) -> Self {
        Self {
            phase: Phase::Verify,
            message: message.into(),
            offset: None,
        }
    }
    pub fn other(message: impl Into<String>) -> Self {
        Self {
            phase: Phase::Other,
            message: message.into(),
            offset: None,
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let phase = match self.phase {
            Phase::Lex => "lex",
            Phase::Parse => "parse",
            Phase::Sema => "sema",
            Phase::Codegen => "codegen",
            Phase::Verify => "verify",
            Phase::Other => "compile",
        };
        match self.offset {
            Some(off) => write!(f, "{phase} error at byte {off}: {}", self.message),
            None => write!(f, "{phase} error: {}", self.message),
        }
    }
}

impl std::error::Error for CompileError {}

/// An error produced while executing bytecode in the VM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// A buffer access was outside the buffer's bounds.
    OutOfBounds {
        /// Kernel parameter index of the buffer.
        buffer: usize,
        /// Element index that was accessed.
        index: i64,
        /// Number of elements in the buffer.
        len: usize,
    },
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// The per-work-item instruction budget was exhausted (runaway loop).
    StepLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
    /// An argument did not match the kernel signature.
    ArgumentMismatch(String),
    /// A negative shift amount or shift wider than the operand.
    InvalidShift(i64),
    /// Requested work-items lie outside the launch's NDRange: a split
    /// range past the split extent, or an explicit work-item past the
    /// global size.
    OutsideNdRange {
        /// Dimension in which the request overflows.
        dim: usize,
        /// Largest requested coordinate in that dimension.
        index: usize,
        /// Global size of that dimension.
        size: usize,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::OutOfBounds { buffer, index, len } => write!(
                f,
                "out-of-bounds access on buffer argument {buffer}: index {index}, length {len}"
            ),
            VmError::DivisionByZero => write!(f, "integer division by zero"),
            VmError::StepLimitExceeded { limit } => {
                write!(
                    f,
                    "work-item exceeded the step limit of {limit} instructions"
                )
            }
            VmError::ArgumentMismatch(m) => write!(f, "argument mismatch: {m}"),
            VmError::InvalidShift(s) => write!(f, "invalid shift amount {s}"),
            VmError::OutsideNdRange { dim, index, size } => write!(
                f,
                "work-item coordinate {index} in dimension {dim} is outside the NDRange size {size}"
            ),
        }
    }
}

impl std::error::Error for VmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_phase_and_offset() {
        let e = CompileError::parse("unexpected token", 17);
        let s = e.to_string();
        assert!(s.contains("parse"), "{s}");
        assert!(s.contains("17"), "{s}");
    }

    #[test]
    fn display_without_offset() {
        let e = CompileError::codegen("too many registers");
        assert!(e.to_string().contains("codegen"));
    }

    #[test]
    fn vm_error_display() {
        let e = VmError::OutOfBounds {
            buffer: 2,
            index: -1,
            len: 8,
        };
        let s = e.to_string();
        assert!(s.contains("buffer argument 2"), "{s}");
        assert!(VmError::DivisionByZero.to_string().contains("division"));
    }
}
