"""Pins of the front end's exact output.

The token stream and the parse tree of every program the repo ships are
pinned by digest, and a table of edge cases by exact token list, so that
a rewrite of the lexer or the parser must reproduce them byte for byte:
kinds, texts, spans, node shapes, associativity and literal values.

To re-derive a digest after an intended change, print
``_token_digest(src)`` / ``_tree_digest(src)`` for the source in question.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import pytest

from repro.apps import (
    make_active_pixels_app,
    make_knn_app,
    make_vmscope_app,
    make_zbuffer_app,
)
from repro.lang import parse
from repro.lang.errors import LexError
from repro.lang.lexer import tokenize
from tests import test_vectorize as tv

_ROOT = Path(__file__).resolve().parents[1]


def _quickstart_source() -> str:
    spec = importlib.util.spec_from_file_location(
        "quickstart_example", _ROOT / "examples" / "quickstart.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # the example runs only under __main__
    return module.SOURCE


def _rows(src: str) -> list[tuple]:
    return [
        (t.kind.name, t.text, t.span.line, t.span.col, t.span.end_line, t.span.end_col)
        for t in tokenize(src)
    ]


def _token_digest(src: str) -> str:
    return hashlib.sha256(repr(_rows(src)).encode()).hexdigest()


def _tree_digest(src: str) -> str:
    return hashlib.sha256(repr(parse(src)).encode()).hexdigest()


_SOURCES = {
    "zbuffer": lambda: make_zbuffer_app().source,
    "apixels": lambda: make_active_pixels_app().source,
    "knn": lambda: make_knn_app(3).source,
    "vmscope": lambda: make_vmscope_app().source,
    "quickstart": _quickstart_source,
    "masked": lambda: tv.MASKED_SOURCE,
    "partial": lambda: tv.PARTIAL_SOURCE,
    "branch_reduce": lambda: tv.BRANCH_REDUCE_SOURCE,
    "compound": lambda: tv.COMPOUND_SOURCE,
    "guarded_compound": lambda: tv.GUARDED_COMPOUND_SOURCE,
    "branch_compound": lambda: tv.BRANCH_COMPOUND_SOURCE,
    "short_circuit_div": lambda: tv.SHORT_CIRCUIT_DIV_SOURCE,
}

#: name -> (sha256 of the token rows, sha256 of repr(parse(src)))
_DIGESTS = {
    "apixels": (
        "f31cf08e07a11ee11b0395cf1787220431d3c5407496cf66980eab135e3dea77",
        "c7ed6631b45cd8c82d48c8272442628bd3b940b8b6c1304f57fd4be32fb8389b",
    ),
    "branch_compound": (
        "cdc57b4064c6f0db6d19b71f28ad502d02f81315bfc124e9ac8e029ce1695ecc",
        "9c9a42e1e0115e1c772bb01542fdd06ac72d98d9c02801cd5a057c51fcb8fb9d",
    ),
    "branch_reduce": (
        "8bd066ced17d9523ac1de8981e497b73a9563c8b121985ab624f77092c38e6d7",
        "ee9827d7018793e360e8136ba73ab35bfda8a3e5b52414ea7c7c25375d092735",
    ),
    "compound": (
        "991d9e698a8a6131f20bee5627858202b6b72fa4193cc26251a9d228bdd9d116",
        "c4eb4d15eef73c8f37ccb4017ff8452ecf2177490c3b50ebb6565be3ac9bf361",
    ),
    "guarded_compound": (
        "8c77a8794af06fb4d12b3a9e5b517b60f23635511affa289e182558f6a890ccc",
        "f88e764e2b1ff64af4ff9caa1aa739cc6cc31d628a720ee61fc40e6eacfc6e19",
    ),
    "knn": (
        "7bc3dab002957ba8dd02ed843013c06f049b493c8fedab44eda4c970568dc792",
        "c4c5afdf1ab627379459ee0579b3342edc9cc2107f5b2a52f4962aa77edeb0f4",
    ),
    "masked": (
        "56f86ff404ff1879f6ed698ff65ce55f1b50f2e44f2813c7224a328f5a676506",
        "12ff7f2963914d7b21b1486f36842f06af5180dc40a013590d3239e79ebae8bc",
    ),
    "partial": (
        "73d80a6e0f846e5dcecb2dbcc841004cb572d3e1ddb99d7a70942d1cdaf8aec1",
        "d1e856be8d77e92545011a68ba170b75b8c1cc2953944528288d3e69b7760e5b",
    ),
    "quickstart": (
        "769e2d394da217689fbd360333b20b687ca79efbd0d2fbca968f7f72a80a994c",
        "ce831a4f0b697b3bf1ddb77edefc54e9e64bce6f716089efe4568f10b60eed33",
    ),
    "short_circuit_div": (
        "d6aa9990a210c309f3eb941a3b8130656a239a00f78de044e22a9421de165b3a",
        "cae4abdb7ddf88be3522885e252c464bad3035d9a8dd7667f77b573f4599dc83",
    ),
    "vmscope": (
        "c0d29e724f85832d58ba3f385b381f5b826540a75ac58794278b3fea39dc8224",
        "280ce15397d723a603a2cf7170efcec1c514e6b7b1197a63556e4c51a4a86a6b",
    ),
    "zbuffer": (
        "8b9d1e79c15a2473325be85679abffc63711dfdd280fd7e48a5ee9149fd1553c",
        "972d7fabed88c1fe180ac675f9006e1b238fbf58da056a0beca2dfd3c3a1a053",
    ),
}


@pytest.mark.parametrize("name", sorted(_SOURCES))
def test_token_stream_pinned(name):
    assert _token_digest(_SOURCES[name]()) == _DIGESTS[name][0]


@pytest.mark.parametrize("name", sorted(_SOURCES))
def test_parse_tree_pinned(name):
    assert _tree_digest(_SOURCES[name]()) == _DIGESTS[name][1]


def test_every_source_pinned():
    assert set(_DIGESTS) == set(_SOURCES)


#: source -> exact (kind, text) list, EOF dropped
_EDGE_TOKENS = [
    ("1.e5", [("INT", "1"), ("DOT", "."), ("IDENT", "e5")]),
    ("1e+;", [("INT", "1"), ("IDENT", "e"), ("PLUS", "+"), ("SEMI", ";")]),
    (".5", [("DOT", "."), ("INT", "5")]),
    ("2.5E-3", [("FLOAT", "2.5E-3")]),
    ("7E+2 1e10", [("FLOAT", "7E+2"), ("FLOAT", "1e10")]),
    ("1.5.3", [("FLOAT", "1.5"), ("DOT", "."), ("INT", "3")]),
    ("1e5.3", [("FLOAT", "1e5"), ("DOT", "."), ("INT", "3")]),
    ("1e5e3", [("FLOAT", "1e5"), ("IDENT", "e3")]),
    ("12abc", [("INT", "12"), ("IDENT", "abc")]),
    ("x-1", [("IDENT", "x"), ("MINUS", "-"), ("INT", "1")]),
    ("/* a /* b */ c */", [("IDENT", "c"), ("STAR", "*"), ("SLASH", "/")]),
    ("/**/x/*/ */y", [("IDENT", "x"), ("IDENT", "y")]),
    ("a // rest */ b\nc", [("IDENT", "a"), ("IDENT", "c")]),
    ("a/b", [("IDENT", "a"), ("SLASH", "/"), ("IDENT", "b")]),
    (
        '"a\\n\\t\\"\\\\b" ""',
        [("STRING", 'a\n\t"\\b'), ("STRING", "")],
    ),
    (
        "café naïve _x1 αβγ x² Ωmega",
        [
            ("IDENT", "café"),
            ("IDENT", "naïve"),
            ("IDENT", "_x1"),
            ("IDENT", "αβγ"),
            ("IDENT", "x²"),
            ("IDENT", "Ωmega"),
        ],
    ),
    (
        "a<=b>=c==d!=e&&f||!g<h>i",
        [
            ("IDENT", "a"), ("LE", "<="), ("IDENT", "b"), ("GE", ">="),
            ("IDENT", "c"), ("EQ", "=="), ("IDENT", "d"), ("NE", "!="),
            ("IDENT", "e"), ("AND", "&&"), ("IDENT", "f"), ("OR", "||"),
            ("NOT", "!"), ("IDENT", "g"), ("LT", "<"), ("IDENT", "h"),
            ("GT", ">"), ("IDENT", "i"),
        ],
    ),
    (
        "x+=1;y-=2;z*=3;w/=4;v=5",
        [
            ("IDENT", "x"), ("PLUS_ASSIGN", "+="), ("INT", "1"), ("SEMI", ";"),
            ("IDENT", "y"), ("MINUS_ASSIGN", "-="), ("INT", "2"), ("SEMI", ";"),
            ("IDENT", "z"), ("STAR_ASSIGN", "*="), ("INT", "3"), ("SEMI", ";"),
            ("IDENT", "w"), ("SLASH_ASSIGN", "/="), ("INT", "4"), ("SEMI", ";"),
            ("IDENT", "v"), ("ASSIGN", "="), ("INT", "5"),
        ],
    ),
    (
        "{}()[],.%?:",
        [
            ("LBRACE", "{"), ("RBRACE", "}"), ("LPAREN", "("), ("RPAREN", ")"),
            ("LBRACKET", "["), ("RBRACKET", "]"), ("COMMA", ","), ("DOT", "."),
            ("PERCENT", "%"), ("QUESTION", "?"), ("COLON", ":"),
        ],
    ),
    (
        "runtime_define PipelinedLoop Rectdomain foreachx",
        [
            ("KW_RUNTIME_DEFINE", "runtime_define"),
            ("KW_PIPELINED", "PipelinedLoop"),
            ("KW_RECTDOMAIN", "Rectdomain"),
            ("IDENT", "foreachx"),
        ],
    ),
]


@pytest.mark.parametrize("src, expected", _EDGE_TOKENS)
def test_edge_case_tokens(src, expected):
    assert [(t.kind.name, t.text) for t in tokenize(src)][:-1] == expected


#: source -> exact rows (kind, text, line, col, end_line, end_col), EOF kept
_EDGE_SPANS = [
    ("", [("EOF", "", 1, 1, 1, 2)]),
    ("ab", [("IDENT", "ab", 1, 1, 1, 3), ("EOF", "", 1, 3, 1, 4)]),
    (
        "a /* x\n  y */ b",
        [("IDENT", "a", 1, 1, 1, 2), ("IDENT", "b", 2, 8, 2, 9), ("EOF", "", 2, 9, 2, 10)],
    ),
    (
        "a\r\n\tb // c\n",
        [("IDENT", "a", 1, 1, 1, 2), ("IDENT", "b", 2, 2, 2, 3), ("EOF", "", 3, 1, 3, 2)],
    ),
    (
        "/*\n\n*/ 2.5e-3 <=",
        [
            ("FLOAT", "2.5e-3", 3, 4, 3, 10),
            ("LE", "<=", 3, 11, 3, 13),
            ("EOF", "", 3, 13, 3, 14),
        ],
    ),
    (
        'x = "a\\tb";',
        [
            ("IDENT", "x", 1, 1, 1, 2),
            ("ASSIGN", "=", 1, 3, 1, 4),
            ("STRING", "a\tb", 1, 5, 1, 11),
            ("SEMI", ";", 1, 11, 1, 12),
            ("EOF", "", 1, 12, 1, 13),
        ],
    ),
    (
        "αβ x²",
        [("IDENT", "αβ", 1, 1, 1, 3), ("IDENT", "x²", 1, 4, 1, 6), ("EOF", "", 1, 6, 1, 7)],
    ),
]


@pytest.mark.parametrize("src, expected", _EDGE_SPANS)
def test_edge_case_spans(src, expected):
    assert _rows(src) == expected


#: source -> (str(error), (line, col, end_line, end_col))
_LEX_ERRORS = [
    ("/* abc", "1:1: unterminated block comment", (1, 1, 1, 2)),
    ("x\n  /* \n", "2:3: unterminated block comment", (2, 3, 2, 4)),
    ("/*/", "1:1: unterminated block comment", (1, 1, 1, 2)),
    ('"abc', "1:1: unterminated string literal", (1, 1, 1, 2)),
    ('x "ab\ncd"', "1:3: newline in string literal", (1, 3, 1, 4)),
    ('"a\\q"', "1:4: unknown escape sequence '\\q'", (1, 4, 1, 5)),
    ('"a\\', "1:4: unknown escape sequence '\\'", (1, 4, 1, 5)),
    ("x = #;", "1:5: unexpected character '#'", (1, 5, 1, 6)),
    ("a\n  @", "2:3: unexpected character '@'", (2, 3, 2, 4)),
    ("x ½", "1:3: unexpected character '½'", (1, 3, 1, 4)),
    ("a & b", "1:3: unexpected character '&'", (1, 3, 1, 4)),
    ("a | b", "1:3: unexpected character '|'", (1, 3, 1, 4)),
    ("a\fb", "1:2: unexpected character '\\x0c'", (1, 2, 1, 3)),
    # numbers are ASCII [0-9]: other digits are no number (nor a name start)
    ("int x = ²;", "1:9: unexpected character '²'", (1, 9, 1, 10)),
    ("x = ٣;", "1:5: unexpected character '٣'", (1, 5, 1, 6)),
    ("12٣", "1:3: unexpected character '٣'", (1, 3, 1, 4)),
]


@pytest.mark.parametrize("src, message, span", _LEX_ERRORS)
def test_lex_errors_pinned(src, message, span):
    with pytest.raises(LexError) as info:
        tokenize(src)
    err = info.value
    assert str(err) == message
    assert (err.span.line, err.span.col, err.span.end_line, err.span.end_col) == span


def test_non_ascii_digit_is_a_lex_error_through_parse():
    with pytest.raises(LexError) as info:
        parse("class A { void f() { int x = ²; } }")
    span = info.value.span
    assert (span.line, span.col, span.end_line, span.end_col) == (1, 30, 1, 31)
