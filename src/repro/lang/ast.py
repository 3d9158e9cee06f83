"""Abstract syntax tree for the pipeline dialect.

Nodes are plain dataclasses.  Expression nodes gain a ``type`` attribute
during semantic analysis (:mod:`repro.lang.typecheck`); statement nodes are
left untouched so analyses can treat the tree as immutable apart from the
type annotations.

The tree deliberately mirrors the constructs of Section 3 of the paper:
``Foreach`` and ``PipelinedLoop`` are first-class statements rather than
being desugared, because every compiler phase (boundary selection, loop
fission, Gen/Cons analysis) keys off them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Union

from .errors import SYNTHETIC, SourceSpan

# ---------------------------------------------------------------------------
# Type syntax (what the programmer wrote; resolved types live in types.py)
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class TypeNode:
    """Source-level type: a base name plus an array nesting depth.

    ``Rectdomain<k>`` is stored with ``name='Rectdomain'`` and ``dim=k``;
    the element class is given separately at the declaration site via the
    collection syntax ``Rectdomain<1> cubes = input.domain(Cube);`` or by
    annotation in app metadata.
    """

    name: str
    array_depth: int = 0
    dim: int = 0  # Rectdomain dimensionality; 0 for non-domains
    elem: Optional[str] = None  # element class for Rectdomain types
    span: SourceSpan = SYNTHETIC

    def __str__(self) -> str:
        base = self.name
        if self.name == "Rectdomain":
            base = f"Rectdomain<{self.dim}>"
            if self.elem:
                base += f"<{self.elem}>"
        return base + "[]" * self.array_depth


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Expr:
    span: SourceSpan = field(default=SYNTHETIC, kw_only=True)
    # Filled in by the type checker; object is repro.lang.types.Type.
    type: object = field(default=None, kw_only=True, compare=False)


@dataclass(slots=True)
class IntLit(Expr):
    value: int = 0


@dataclass(slots=True)
class FloatLit(Expr):
    value: float = 0.0


@dataclass(slots=True)
class BoolLit(Expr):
    value: bool = False


@dataclass(slots=True)
class NullLit(Expr):
    pass


@dataclass(slots=True)
class StringLit(Expr):
    value: str = ""


@dataclass(slots=True)
class Name(Expr):
    ident: str = ""
    # Filled by the resolver: the VarSymbol / ParamSymbol this name binds to.
    symbol: object = field(default=None, kw_only=True, compare=False)


@dataclass(slots=True)
class FieldAccess(Expr):
    obj: Expr = None  # type: ignore[assignment]
    field_name: str = ""


@dataclass(slots=True)
class Index(Expr):
    obj: Expr = None  # type: ignore[assignment]
    index: Expr = None  # type: ignore[assignment]


@dataclass(slots=True)
class Call(Expr):
    """Free-function call — resolves to a dialect method of the enclosing
    class or to a registered intrinsic."""

    func: str = ""
    args: list[Expr] = field(default_factory=list)
    # Resolution result: 'method' | 'intrinsic'; target object set by checker.
    target_kind: str = field(default="", kw_only=True, compare=False)
    target: object = field(default=None, kw_only=True, compare=False)


@dataclass(slots=True)
class MethodCall(Expr):
    """``obj.method(args)`` — used both for ordinary methods and for
    reduction updates (``zbuf.accum(poly)``)."""

    obj: Expr = None  # type: ignore[assignment]
    method: str = ""
    args: list[Expr] = field(default_factory=list)
    target_kind: str = field(default="", kw_only=True, compare=False)
    target: object = field(default=None, kw_only=True, compare=False)


@dataclass(slots=True)
class New(Expr):
    class_name: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass(slots=True)
class NewArray(Expr):
    elem_type: TypeNode = None  # type: ignore[assignment]
    length: Expr = None  # type: ignore[assignment]


@dataclass(slots=True)
class Unary(Expr):
    op: str = ""
    operand: Expr = None  # type: ignore[assignment]


@dataclass(slots=True)
class Binary(Expr):
    op: str = ""
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass(slots=True)
class Ternary(Expr):
    cond: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    other: Expr = None  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Stmt:
    span: SourceSpan = field(default=SYNTHETIC, kw_only=True)


@dataclass(slots=True)
class VarDecl(Stmt):
    decl_type: TypeNode = None  # type: ignore[assignment]
    name: str = ""
    init: Optional[Expr] = None
    runtime_define: bool = False
    symbol: object = field(default=None, kw_only=True, compare=False)


@dataclass(slots=True)
class Assign(Stmt):
    """``lvalue op= expr``; ``op`` is '' for plain assignment."""

    target: Expr = None  # type: ignore[assignment]
    op: str = ""
    value: Expr = None  # type: ignore[assignment]


@dataclass(slots=True)
class ExprStmt(Stmt):
    expr: Expr = None  # type: ignore[assignment]


@dataclass(slots=True)
class Block(Stmt):
    body: list[Stmt] = field(default_factory=list)


@dataclass(slots=True)
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: Block = None  # type: ignore[assignment]
    other: Optional[Block] = None


@dataclass(slots=True)
class While(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: Block = None  # type: ignore[assignment]


@dataclass(slots=True)
class For(Stmt):
    """C-style counted loop. Analyses require the standard shape
    ``for (int i = lo; i < hi; i += step)`` to derive rectilinear sections;
    other shapes are treated conservatively."""

    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    update: Optional[Stmt] = None
    body: Block = None  # type: ignore[assignment]


@dataclass(slots=True)
class Foreach(Stmt):
    """Order-independent iteration over a Rectdomain collection."""

    var: str = ""
    domain: Expr = None  # type: ignore[assignment]
    body: Block = None  # type: ignore[assignment]
    var_symbol: object = field(default=None, kw_only=True, compare=False)
    # Set by loop fission when this loop was split out of a larger foreach.
    fission_of: Optional[str] = field(default=None, kw_only=True, compare=False)


@dataclass(slots=True)
class PipelinedLoop(Stmt):
    """Loop over packets; the unit of pipelined execution (Section 3)."""

    var: str = ""
    domain: Expr = None  # type: ignore[assignment]
    body: Block = None  # type: ignore[assignment]
    var_symbol: object = field(default=None, kw_only=True, compare=False)


@dataclass(slots=True)
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass(slots=True)
class Break(Stmt):
    pass


@dataclass(slots=True)
class Continue(Stmt):
    pass


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Param:
    decl_type: TypeNode
    name: str
    span: SourceSpan = SYNTHETIC
    symbol: object = field(default=None, compare=False)


@dataclass(slots=True)
class FieldDecl:
    decl_type: TypeNode
    name: str
    span: SourceSpan = SYNTHETIC


@dataclass(slots=True)
class MethodDecl:
    ret_type: TypeNode
    name: str
    params: list[Param]
    body: Block
    span: SourceSpan = SYNTHETIC
    owner: Optional[str] = None  # enclosing class name, set by parser


@dataclass(slots=True)
class NativeDecl:
    """``native double[] extract(Cube c);`` — declares an intrinsic whose
    body lives in Python.  The Python side registers the implementation and
    the read/write/cost summary under the same name."""

    ret_type: TypeNode
    name: str
    params: list[Param]
    span: SourceSpan = SYNTHETIC


@dataclass(slots=True)
class ClassDecl:
    name: str
    implements: list[str]
    fields: list[FieldDecl]
    methods: list[MethodDecl]
    span: SourceSpan = SYNTHETIC

    @property
    def is_reduction(self) -> bool:
        return "Reducinterface" in self.implements


@dataclass(slots=True)
class Program:
    classes: list[ClassDecl]
    natives: list[NativeDecl]
    span: SourceSpan = SYNTHETIC

    def find_class(self, name: str) -> Optional[ClassDecl]:
        for cls in self.classes:
            if cls.name == name:
                return cls
        return None

    def find_method(self, name: str) -> Optional[MethodDecl]:
        for cls in self.classes:
            for meth in cls.methods:
                if meth.name == name:
                    return meth
        return None


# ---------------------------------------------------------------------------
# Generic traversal helpers
# ---------------------------------------------------------------------------

# Child tables, keyed by exact node type: each maps a node to its direct
# sub-expressions / sub-statements.

_EXPR_CHILDREN: dict[type, Callable[..., tuple]] = {
    Call: lambda n: tuple(n.args),
    MethodCall: lambda n: (n.obj, *n.args),
    New: lambda n: tuple(n.args),
    FieldAccess: lambda n: (n.obj,),
    Index: lambda n: (n.obj, n.index),
    Unary: lambda n: (n.operand,),
    Binary: lambda n: (n.left, n.right),
    Ternary: lambda n: (n.cond, n.then, n.other),
    NewArray: lambda n: (n.length,),
    VarDecl: lambda n: () if n.init is None else (n.init,),
    Assign: lambda n: (n.target, n.value),
    ExprStmt: lambda n: (n.expr,),
    If: lambda n: (n.cond,),
    While: lambda n: (n.cond,),
    For: lambda n: () if n.cond is None else (n.cond,),
    Foreach: lambda n: (n.domain,),
    PipelinedLoop: lambda n: (n.domain,),
    Return: lambda n: () if n.value is None else (n.value,),
}

_STMT_CHILDREN: dict[type, Callable[..., tuple]] = {
    Block: lambda n: tuple(n.body),
    If: lambda n: (n.then,) if n.other is None else (n.then, n.other),
    While: lambda n: (n.body,),
    Foreach: lambda n: (n.body,),
    PipelinedLoop: lambda n: (n.body,),
    For: lambda n: tuple(c for c in (n.init, n.update, n.body) if c is not None),
}


def walk(root: Union[Expr, Stmt]) -> Iterator[Union[Expr, Stmt]]:
    """Depth-first pre-order walk over every node under ``root``, itself
    included: a node's sub-statements are visited before its
    sub-expressions, so the expressions come out in :func:`walk_exprs`
    order and the statements in :func:`walk_stmts` order."""
    stack: list = [root]
    pop = stack.pop
    push = stack.extend
    exprs = _EXPR_CHILDREN.get
    stmts = _STMT_CHILDREN.get
    while stack:
        node = pop()
        if node is None:
            continue
        yield node
        kind = type(node)
        children = exprs(kind)
        if children is not None:
            push(children(node))
        children = stmts(kind)
        if children is not None:
            push(children(node))


def walk_exprs(root: Union[Expr, Stmt]) -> Iterator[Expr]:
    """Depth-first pre-order walk over every expression under ``root``."""
    for node in walk(root):
        if isinstance(node, Expr):
            yield node


def walk_stmts(root: Stmt) -> Iterator[Stmt]:
    """Depth-first pre-order walk over every statement under ``root``
    (including ``root`` itself)."""
    stack: list[Stmt] = [root]
    while stack:
        node = stack.pop()
        yield node
        children = _STMT_CHILDREN.get(type(node))
        if children is not None:
            stack.extend(children(node))


def find_pipelined_loops(program: Program) -> list[tuple[MethodDecl, PipelinedLoop]]:
    """All (method, PipelinedLoop) pairs in the program, in source order."""
    found: list[tuple[MethodDecl, PipelinedLoop]] = []
    for cls in program.classes:
        for meth in cls.methods:
            for stmt in walk_stmts(meth.body):
                if isinstance(stmt, PipelinedLoop):
                    found.append((meth, stmt))
    found.sort(key=lambda pair: (pair[1].span.line, pair[1].span.col))
    return found
