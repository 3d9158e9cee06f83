"""Lexer for the pipeline dialect.

One precompiled master regular expression scans the source: each match is
trivia (whitespace and ``//`` / ``/* */`` comments, skipped), a number, an
identifier or keyword, an operator, or a well-formed string literal.  The
line and column of every token come from a running line counter and the
offset of the current line's start, so every token carries a precise
:class:`SourceSpan` for diagnostics.

Numbers are ASCII ``[0-9]`` only; identifiers start with a letter or ``_``
(Unicode letters included) and continue with letters, digits or ``_``.
Whatever the master pattern does not match is an error: an unterminated
block comment, a malformed string literal, or an unexpected character.
"""

from __future__ import annotations

import re

from .errors import LexError, SourceSpan
from .tokens import KEYWORDS, Token, TokKind

_OPERATORS = {
    "==": TokKind.EQ,
    "!=": TokKind.NE,
    "<=": TokKind.LE,
    ">=": TokKind.GE,
    "&&": TokKind.AND,
    "||": TokKind.OR,
    "+=": TokKind.PLUS_ASSIGN,
    "-=": TokKind.MINUS_ASSIGN,
    "*=": TokKind.STAR_ASSIGN,
    "/=": TokKind.SLASH_ASSIGN,
    "{": TokKind.LBRACE,
    "}": TokKind.RBRACE,
    "(": TokKind.LPAREN,
    ")": TokKind.RPAREN,
    "[": TokKind.LBRACKET,
    "]": TokKind.RBRACKET,
    ";": TokKind.SEMI,
    ",": TokKind.COMMA,
    ".": TokKind.DOT,
    "=": TokKind.ASSIGN,
    "+": TokKind.PLUS,
    "-": TokKind.MINUS,
    "*": TokKind.STAR,
    "/": TokKind.SLASH,
    "%": TokKind.PERCENT,
    "<": TokKind.LT,
    ">": TokKind.GT,
    "!": TokKind.NOT,
    "?": TokKind.QUESTION,
    ":": TokKind.COLON,
}

# A frozen dataclass's constructor sets each field through
# ``object.__setattr__``; the lexer builds one span per token, so it fills
# the slots through their descriptors instead (same object, 2x cheaper).
_SET_LINE = SourceSpan.line.__set__  # type: ignore[attr-defined]
_SET_COL = SourceSpan.col.__set__  # type: ignore[attr-defined]
_SET_END_LINE = SourceSpan.end_line.__set__  # type: ignore[attr-defined]
_SET_END_COL = SourceSpan.end_col.__set__  # type: ignore[attr-defined]

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
_ESCAPE_RE = re.compile(r"\\(.)")

# Group numbers (``match.lastindex``) select the token class; a float needs
# a fraction or an exponent, each with at least one digit after it, so
# ``1.e5`` is INT DOT IDENT and ``1e+;`` is INT IDENT PLUS SEMI.  Two-char
# operators come before their one-char prefixes, and a ``/`` that opens an
# unterminated comment is no operator.
_TRIVIA, _FLOAT, _INT, _IDENT, _OP, _STRING = range(1, 7)
_MASTER = re.compile(
    r"""
    ( (?: [ \t\r\n]+ | //[^\n]* | /\*(?s:.*?)\*/ )+ )
  | ( [0-9]+ (?: \.[0-9]+ (?:[eE][+-]?[0-9]+)? | [eE][+-]?[0-9]+ ) )
  | ( [0-9]+ )
  | ( [^\W\d]\w* )
  | ( [=!<>]= | && | \|\| | [-+*/]= | /(?!\*) | [{}()\[\];,.=+\-*%<>!?:] )
  | ( "(?:[^"\\\n]|\\[nt"\\])*" )
    """,
    re.VERBOSE,
)


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source``, returning a list ending with an EOF token."""
    out: list[Token] = []
    append = out.append
    new_token = tuple.__new__
    new_span = object.__new__
    set_line, set_col = _SET_LINE, _SET_COL
    set_end_line, set_end_col = _SET_END_LINE, _SET_END_COL
    keywords = KEYWORDS
    operators = _OPERATORS
    ident = TokKind.IDENT
    line = 1
    line_start = 0  # offset of the current line's first character
    pos = 0
    for m in _MASTER.finditer(source):
        start = m.start()
        if start != pos:
            break  # an unmatched character sits at ``pos``
        pos = m.end()
        group = m.lastindex
        text = m.group()
        if group == _TRIVIA:
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
            continue
        col = start - line_start + 1
        if group == _IDENT:
            if not text.isascii() and not (text[0].isalpha() or text[0] == "_"):
                pos = start  # a numeric character cannot start a name
                break
            kind = keywords.get(text, ident)
        elif group == _OP:
            kind = operators[text]
        elif group == _INT:
            kind = TokKind.INT
        elif group == _FLOAT:
            kind = TokKind.FLOAT
        else:
            kind = TokKind.STRING
            text = _decode(text[1:-1])
        span = new_span(SourceSpan)
        set_line(span, line)
        set_col(span, col)
        set_end_line(span, line)
        set_end_col(span, pos - line_start + 1)
        append(new_token(Token, (kind, text, span)))
    if pos < len(source):
        _fail(source, pos, line, pos - line_start + 1)
    append(Token(TokKind.EOF, "", SourceSpan.point(line, pos - line_start + 1)))
    return out


def _fail(src: str, pos: int, line: int, col: int) -> None:
    """Raise the diagnostic for the text at ``pos`` that no token matches."""
    if src.startswith("/*", pos):
        raise LexError("unterminated block comment", SourceSpan.point(line, col))
    if src[pos] == '"':
        _string_error(src, pos, line, col)
    raise LexError(f"unexpected character {src[pos]!r}", SourceSpan.point(line, col))


def _decode(body: str) -> str:
    if "\\" not in body:
        return body
    return _ESCAPE_RE.sub(lambda m: _ESCAPES[m.group(1)], body)


def _string_error(src: str, pos: int, line: int, col: int) -> None:
    """Raise the error of the malformed string literal opening at ``pos``
    (which the master pattern did not match)."""
    i = pos + 1
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            raise LexError("newline in string literal", SourceSpan.point(line, col))
        if ch == "\\":
            i += 1
            esc = src[i] if i < len(src) else ""
            if esc not in _ESCAPES:
                raise LexError(
                    f"unknown escape sequence '\\{esc}'",
                    SourceSpan.point(line, col + i - pos),
                )
        i += 1
    raise LexError("unterminated string literal", SourceSpan.point(line, col))
