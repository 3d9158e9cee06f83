"""Resolved types for the pipeline dialect.

The type lattice is deliberately small: primitives with the usual numeric
widening, arrays, user classes, and ``Rectdomain<k>`` collections of class
elements.  Reduction-ness is a property of the *class* (it implements
``Reducinterface``), mirroring Section 3 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

# ---------------------------------------------------------------------------
# Type objects
# ---------------------------------------------------------------------------


class Type:
    """Base class; concrete types are singletons or interned dataclasses."""


@dataclass(frozen=True, slots=True)
class PrimType(Type):
    name: str  # void | boolean | byte | int | long | float | double

    _NUMERIC_RANK = {"byte": 0, "int": 1, "long": 2, "float": 3, "double": 4}

    def is_numeric(self) -> bool:
        return self.name in self._NUMERIC_RANK

    def is_integral(self) -> bool:
        return self.name in ("byte", "int", "long")

    @property
    def rank(self) -> int:
        return self._NUMERIC_RANK[self.name]

    #: bytes occupied by one value when packed into a stream buffer
    @property
    def byte_size(self) -> int:
        return {"boolean": 1, "byte": 1, "int": 4, "long": 8, "float": 4, "double": 8}[
            self.name
        ]

    def __str__(self) -> str:
        return self.name


VOID = PrimType("void")
BOOLEAN = PrimType("boolean")
BYTE = PrimType("byte")
INT = PrimType("int")
LONG = PrimType("long")
FLOAT = PrimType("float")
DOUBLE = PrimType("double")
STRING = PrimType("String")  # only used for diagnostics / log intrinsics

PRIMITIVES: dict[str, PrimType] = {
    t.name: t for t in (VOID, BOOLEAN, BYTE, INT, LONG, FLOAT, DOUBLE)
}


@dataclass(frozen=True, slots=True)
class ArrayType(Type):
    elem: Type

    def __str__(self) -> str:
        return f"{self.elem}[]"


@dataclass(frozen=True, slots=True)
class ClassType(Type):
    name: str
    is_reduction: bool = False

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class RectdomainType(Type):
    """Collection of ``elem`` objects indexed by a ``dim``-dimensional
    rectilinear coordinate.  The language guarantees no aliasing between
    elements, which the alias oracle exploits."""

    dim: int
    elem: ClassType

    def __str__(self) -> str:
        return f"Rectdomain<{self.dim}><{self.elem.name}>"


@dataclass(frozen=True, slots=True)
class NullType(Type):
    def __str__(self) -> str:
        return "null"


NULL = NullType()


# ---------------------------------------------------------------------------
# Numeric promotion / assignability
# ---------------------------------------------------------------------------


def promote(a: Type, b: Type) -> Optional[Type]:
    """Binary numeric promotion; ``None`` when the operands don't combine."""
    if isinstance(a, PrimType) and isinstance(b, PrimType):
        if a.is_numeric() and b.is_numeric():
            return a if a.rank >= b.rank else b
        if a == BOOLEAN and b == BOOLEAN:
            return BOOLEAN
    return None


def assignable(target: Type, value: Type) -> bool:
    """May ``value`` be stored into a slot of type ``target``?"""
    if target == value:
        return True
    if isinstance(target, PrimType) and isinstance(value, PrimType):
        return target.is_numeric() and value.is_numeric() and target.rank >= value.rank
    if isinstance(value, NullType):
        return isinstance(target, (ClassType, ArrayType, RectdomainType))
    return False


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------


@dataclass(slots=True, eq=False)
class VarSymbol:
    """A named storage location: local, parameter, field, or loop variable.

    ``kind`` is one of ``local | param | field | loopvar | packetvar |
    runtime``.  Identity (``eq=False``) matters: the analyses key sets by
    symbol object so that shadowing never conflates distinct variables.
    """

    name: str
    type: Type
    kind: str = "local"
    owner: Optional[str] = None  # class name for fields
    runtime_define: bool = False

    @property
    def is_reduction(self) -> bool:
        return isinstance(self.type, ClassType) and self.type.is_reduction

    def __repr__(self) -> str:
        return f"<{self.kind} {self.name}: {self.type}>"


class Scope:
    """Lexically nested symbol table."""

    def __init__(self, parent: Optional["Scope"] = None) -> None:
        self.parent = parent
        self._table: dict[str, VarSymbol] = {}

    def define(self, sym: VarSymbol) -> VarSymbol:
        if sym.name in self._table:
            raise KeyError(f"duplicate definition of '{sym.name}' in scope")
        self._table[sym.name] = sym
        return sym

    def lookup(self, name: str) -> Optional[VarSymbol]:
        scope: Optional[Scope] = self
        while scope is not None:
            sym = scope._table.get(name)
            if sym is not None:
                return sym
            scope = scope.parent
        return None

    def child(self) -> "Scope":
        return Scope(self)
