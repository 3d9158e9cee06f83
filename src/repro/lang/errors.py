"""Diagnostics for the pipeline dialect frontend.

All frontend failures raise :class:`DialectError` subclasses carrying a
:class:`SourceSpan` so that callers (tests, the driver, examples) can point
at the offending source text.  The compiler never raises bare ``ValueError``
for user-program problems; those are reserved for API misuse.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class SourceSpan:
    """Half-open region of source text: line/col are 1-based, end exclusive."""

    line: int
    col: int
    end_line: int
    end_col: int

    @staticmethod
    def point(line: int, col: int) -> "SourceSpan":
        return SourceSpan(line, col, line, col + 1)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.line}:{self.col}"


#: Span used for synthesized nodes (loop fission, codegen temporaries).
SYNTHETIC = SourceSpan(0, 0, 0, 0)


class DialectError(Exception):
    """Base class for all user-visible frontend errors."""

    def __init__(self, message: str, span: SourceSpan | None = None) -> None:
        self.span = span
        if span is not None and span is not SYNTHETIC:
            message = f"{span}: {message}"
        super().__init__(message)


class LexError(DialectError):
    """Unrecognized character or malformed literal."""


class ParseError(DialectError):
    """Token stream does not match the dialect grammar."""


class TypeError_(DialectError):
    """Semantic analysis failure (name resolution, typing, reduction rules).

    Named with a trailing underscore to avoid shadowing the builtin; exported
    as ``SemanticError`` from the package for readability.
    """


SemanticError = TypeError_


class AnalysisError(DialectError):
    """A compiler analysis phase rejected an otherwise well-typed program
    (e.g. a non-foreach loop spanning a candidate filter boundary)."""
