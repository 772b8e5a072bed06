//! The unified error type of the client API.
//!
//! Every failure — local or remote, lexing through execution — surfaces as
//! one [`AstoreError`] with a stable machine-readable [`code`] (the same
//! codes the wire protocol uses) and, for syntax errors, the byte span of
//! the offending token so [`render`] can print caret diagnostics.
//!
//! [`code`]: AstoreError::code
//! [`render`]: AstoreError::render

use std::fmt;

use astore_server::EngineError;

/// A structured client-API error.
#[derive(Debug)]
pub enum AstoreError {
    /// SQL lexing/parsing failed. `span` is the byte range of the
    /// offending token in `sql`, when known.
    Parse {
        /// Description.
        message: String,
        /// Byte range of the offending token in `sql`.
        span: Option<(usize, usize)>,
        /// The source text, kept for diagnostics.
        sql: Option<String>,
    },
    /// Planning failed: unknown table/column, invalid join, non-SPJGA
    /// shape, conflicting parameter use.
    Plan {
        /// Description.
        message: String,
    },
    /// Parameter binding failed: wrong count, or a value whose kind cannot
    /// satisfy the column its slot is compared against.
    Param {
        /// Description.
        message: String,
    },
    /// Query execution failed (schema binding at run time).
    Exec {
        /// Description.
        message: String,
    },
    /// A write statement was rejected (arity/type mismatch, dangling key,
    /// dead row, …); the database is untouched.
    Write {
        /// Description.
        message: String,
    },
    /// A prepared-statement id the server does not know (closed, evicted,
    /// or from another session).
    UnknownStatement {
        /// The statement id.
        id: u64,
    },
    /// The server shed the request (admission control; retry is usually
    /// fine once in-flight statements drain).
    Busy {
        /// Description.
        message: String,
    },
    /// The server's connection limit was reached and it is closing this
    /// connection — reconnect later rather than retrying on this socket.
    TooManyConnections {
        /// Description.
        message: String,
    },
    /// A statement was used in a way its kind does not support (querying a
    /// write, executing a SELECT, or a statement prepared on a different
    /// connection flavour).
    Usage {
        /// Description.
        message: String,
    },
    /// Any other wire-protocol error frame.
    Protocol {
        /// The frame's error code.
        code: String,
        /// Description.
        message: String,
    },
    /// Transport failure.
    Io(std::io::Error),
}

impl AstoreError {
    /// The stable machine-readable code, matching the wire protocol where
    /// a wire equivalent exists.
    pub fn code(&self) -> &str {
        match self {
            AstoreError::Parse { .. } => "parse_error",
            AstoreError::Plan { .. } => "plan_error",
            AstoreError::Param { .. } => "param_error",
            AstoreError::Exec { .. } => "exec_error",
            AstoreError::Write { .. } => "write_error",
            AstoreError::UnknownStatement { .. } => "unknown_statement",
            AstoreError::Busy { .. } => "server_busy",
            AstoreError::TooManyConnections { .. } => "too_many_connections",
            AstoreError::Usage { .. } => "usage_error",
            AstoreError::Protocol { code, .. } => code,
            AstoreError::Io(_) => "io_error",
        }
    }

    /// A multi-line human-readable rendering. Parse errors with a span
    /// print the offending line with a caret marker:
    ///
    /// ```text
    /// error[parse_error]: parse error: expected keyword select, found SELEKT (at byte 0)
    ///   SELEKT count(*) FROM t
    ///   ^^^^^^
    /// ```
    pub fn render(&self) -> String {
        let mut out = format!("error[{}]: {self}", self.code());
        if let AstoreError::Parse { span: Some((start, end)), sql: Some(sql), .. } = self {
            let start = (*start).min(sql.len());
            let end = (*end).clamp(start, sql.len());
            // The line holding the span start, and the span's offset in it.
            let line_start = sql[..start].rfind('\n').map(|i| i + 1).unwrap_or(0);
            let line_end = sql[start..].find('\n').map(|i| start + i).unwrap_or(sql.len());
            let line = &sql[line_start..line_end];
            let col = start - line_start;
            let width = end.min(line_end).saturating_sub(start).max(1);
            out.push_str(&format!("\n  {line}\n  {}{}", " ".repeat(col), "^".repeat(width)));
        }
        out
    }
}

impl fmt::Display for AstoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AstoreError::Parse { message, .. }
            | AstoreError::Plan { message }
            | AstoreError::Param { message }
            | AstoreError::Exec { message }
            | AstoreError::Write { message }
            | AstoreError::Busy { message }
            | AstoreError::TooManyConnections { message }
            | AstoreError::Usage { message } => write!(f, "{message}"),
            AstoreError::UnknownStatement { id } => {
                write!(f, "statement {id} is not prepared on this connection")
            }
            AstoreError::Protocol { code, message } => write!(f, "[{code}] {message}"),
            AstoreError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for AstoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AstoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for AstoreError {
    fn from(e: std::io::Error) -> Self {
        AstoreError::Io(e)
    }
}

impl AstoreError {
    /// The one table from an error code — an engine error's or a wire
    /// frame's — to its variant. `stmt_id` names the statement an
    /// `unknown_statement` frame answered.
    pub(crate) fn from_code(code: &str, message: String, stmt_id: Option<u64>) -> AstoreError {
        match code {
            "parse_error" => AstoreError::Parse { message, span: None, sql: None },
            "plan_error" => AstoreError::Plan { message },
            "param_error" => AstoreError::Param { message },
            "exec_error" => AstoreError::Exec { message },
            "write_error" => AstoreError::Write { message },
            "unknown_statement" => AstoreError::UnknownStatement { id: stmt_id.unwrap_or(0) },
            "server_busy" => AstoreError::Busy { message },
            "too_many_connections" => AstoreError::TooManyConnections { message },
            _ => AstoreError::Protocol { code: code.to_owned(), message },
        }
    }

    /// Maps an engine error. A parse error keeps its span and the source
    /// text `sql`, so [`AstoreError::render`] can print its caret.
    pub(crate) fn from_engine(e: EngineError, sql: &str) -> AstoreError {
        match AstoreError::from_code(e.code.as_str(), e.message, None) {
            AstoreError::Parse { message, .. } => {
                AstoreError::Parse { message, span: e.span, sql: Some(sql.to_owned()) }
            }
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable() {
        assert_eq!(
            AstoreError::Parse { message: "x".into(), span: None, sql: None }.code(),
            "parse_error"
        );
        assert_eq!(AstoreError::UnknownStatement { id: 3 }.code(), "unknown_statement");
        assert_eq!(
            AstoreError::Protocol { code: "weird".into(), message: "m".into() }.code(),
            "weird"
        );
    }

    #[test]
    fn render_includes_caret_for_spanned_parse_errors() {
        let e = AstoreError::Parse {
            message: "parse error: unexpected token".into(),
            span: Some((7, 12)),
            sql: Some("SELECT ooops FROM t".into()),
        };
        let r = e.render();
        assert!(r.contains("error[parse_error]"), "{r}");
        assert!(r.contains("SELECT ooops FROM t"), "{r}");
        assert!(r.contains("       ^^^^^"), "{r}");
    }

    #[test]
    fn render_survives_out_of_range_spans() {
        let e = AstoreError::Parse {
            message: "m".into(),
            span: Some((100, 200)),
            sql: Some("short".into()),
        };
        assert!(e.render().contains("error[parse_error]"));
    }
}
