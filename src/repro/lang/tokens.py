"""Token definitions for the pipeline dialect.

The dialect is a small Java-like language (the paper bases its prototype on
the Titanium infrastructure) extended with the four constructs of Section 3:

* ``Rectdomain<k>`` collection types,
* ``foreach`` order-independent loops,
* ``Reducinterface`` (a marker interface naming reduction classes),
* ``PipelinedLoop`` packet loops, and the ``runtime_define`` modifier for
  values (such as the packet count) bound at run time.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import SourceSpan


class TokKind(enum.Enum):
    # literals / identifiers
    INT = "int-literal"
    FLOAT = "float-literal"
    STRING = "string-literal"
    IDENT = "identifier"
    # punctuation
    LBRACE = "{"
    RBRACE = "}"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    SEMI = ";"
    COMMA = ","
    DOT = "."
    # operators
    ASSIGN = "="
    PLUS_ASSIGN = "+="
    MINUS_ASSIGN = "-="
    STAR_ASSIGN = "*="
    SLASH_ASSIGN = "/="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    AND = "&&"
    OR = "||"
    NOT = "!"
    QUESTION = "?"
    COLON = ":"
    # keywords (value is the exact source spelling)
    KW_CLASS = "class"
    KW_INTERFACE = "interface"
    KW_IMPLEMENTS = "implements"
    KW_IF = "if"
    KW_ELSE = "else"
    KW_WHILE = "while"
    KW_FOR = "for"
    KW_FOREACH = "foreach"
    KW_PIPELINED = "PipelinedLoop"
    KW_IN = "in"
    KW_RETURN = "return"
    KW_NEW = "new"
    KW_TRUE = "true"
    KW_FALSE = "false"
    KW_NULL = "null"
    KW_VOID = "void"
    KW_INT = "int"
    KW_LONG = "long"
    KW_FLOAT = "float"
    KW_DOUBLE = "double"
    KW_BOOLEAN = "boolean"
    KW_BYTE = "byte"
    KW_RECTDOMAIN = "Rectdomain"
    KW_RUNTIME_DEFINE = "runtime_define"
    KW_NATIVE = "native"
    KW_BREAK = "break"
    KW_CONTINUE = "continue"
    EOF = "<eof>"


#: Maps keyword spelling -> kind, built from the enum above.
KEYWORDS: dict[str, TokKind] = {
    kind.value: kind for kind in TokKind if kind.name.startswith("KW_")
}

#: Primitive-type keywords (used by the parser to predict declarations).
PRIMITIVE_KINDS = frozenset(
    {
        TokKind.KW_VOID,
        TokKind.KW_INT,
        TokKind.KW_LONG,
        TokKind.KW_FLOAT,
        TokKind.KW_DOUBLE,
        TokKind.KW_BOOLEAN,
        TokKind.KW_BYTE,
    }
)

#: Compound-assignment token -> underlying binary operator spelling.
AUG_ASSIGN_OPS: dict[TokKind, str] = {
    TokKind.PLUS_ASSIGN: "+",
    TokKind.MINUS_ASSIGN: "-",
    TokKind.STAR_ASSIGN: "*",
    TokKind.SLASH_ASSIGN: "/",
}


class Token(NamedTuple):
    """One token; immutable.  A tuple, so the lexer builds one with a
    single ``tuple.__new__`` call."""

    kind: TokKind
    text: str
    span: SourceSpan

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r}@{self.span})"
