"""Value representation for the communication analysis (paper §4.2).

The paper stores ``Gen``/``Cons``/``ReqComm`` sets as *values* — scalars,
object fields, and **rectilinear sections** of arrays whose bounds "may only
be available symbolically".  We realize that as:

* :class:`SymExpr` — a polynomial over named workload parameters
  (``packet_size``, ``selectivity_accept`` ...) with float coefficients;
  bounds and sizes are SymExprs evaluated against a
  :class:`~repro.analysis.workload.WorkloadProfile` at decomposition time.
* :class:`Section` — a rectilinear region: per-dimension half-open interval
  with SymExpr bounds, or the distinguished ``FULL`` / ``UNKNOWN`` extents.
* :class:`AccessPath` — a root :class:`~repro.lang.types.VarSymbol` plus a
  chain of selectors (field access, element/section selection).
* :class:`PathSet` — the set algebra used by the analysis equations,
  with the must/may asymmetry of Figure 2: removal (``- Gen``) only strikes
  paths *definitely covered*, insertion (``+ Cons``) keeps anything that
  *may* be needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Union

from ..lang.types import Type, VarSymbol

# ---------------------------------------------------------------------------
# Symbolic polynomials
# ---------------------------------------------------------------------------

_Monomial = tuple[str, ...]  # sorted tuple of parameter names (with repeats)


class SymExpr:
    """Polynomial over workload parameters with float coefficients.

    Immutable.  Construct with :meth:`const`, :meth:`var`, or arithmetic on
    existing expressions; ints/floats coerce automatically.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[_Monomial, float] | None = None) -> None:
        cleaned = {
            mono: coeff
            for mono, coeff in (terms or {}).items()
            if coeff != 0.0
        }
        self._terms: dict[_Monomial, float] = cleaned

    # -- constructors -------------------------------------------------------
    @staticmethod
    def const(value: float) -> "SymExpr":
        return SymExpr({(): float(value)})

    @staticmethod
    def var(name: str) -> "SymExpr":
        return SymExpr({(name,): 1.0})

    @staticmethod
    def coerce(value: "SymExpr | int | float") -> "SymExpr":
        if isinstance(value, SymExpr):
            return value
        return SymExpr.const(float(value))

    # -- inspection ----------------------------------------------------------
    @property
    def is_constant(self) -> bool:
        return all(mono == () for mono in self._terms)

    @property
    def constant_value(self) -> float:
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return self._terms.get((), 0.0)

    def parameters(self) -> set[str]:
        return {name for mono in self._terms for name in mono}

    def evaluate(self, profile: Mapping[str, float]) -> float:
        """Numeric value under ``profile``; missing parameters default to 1
        (a deliberate bias: unknown scale factors neither grow nor vanish)."""
        total = 0.0
        for mono, coeff in self._terms.items():
            prod = coeff
            for name in mono:
                prod *= profile.get(name, 1.0)
            total += prod
        return total

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other: "SymExpr | int | float") -> "SymExpr":
        other = SymExpr.coerce(other)
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            terms[mono] = terms.get(mono, 0.0) + coeff
        return SymExpr(terms)

    __radd__ = __add__

    def __neg__(self) -> "SymExpr":
        return SymExpr({mono: -coeff for mono, coeff in self._terms.items()})

    def __sub__(self, other: "SymExpr | int | float") -> "SymExpr":
        return self + (-SymExpr.coerce(other))

    def __rsub__(self, other: "SymExpr | int | float") -> "SymExpr":
        return SymExpr.coerce(other) + (-self)

    def __mul__(self, other: "SymExpr | int | float") -> "SymExpr":
        other = SymExpr.coerce(other)
        terms: dict[_Monomial, float] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = tuple(sorted(m1 + m2))
                terms[mono] = terms.get(mono, 0.0) + c1 * c2
        return SymExpr(terms)

    __rmul__ = __mul__

    def substitute(self, mapping: Mapping[str, "SymExpr"]) -> "SymExpr":
        """Replace parameters by expressions (used by interprocedural
        renaming of formals to actuals)."""
        if not any(name in mapping for mono in self._terms for name in mono):
            return self
        result = SymExpr()
        for mono, coeff in self._terms.items():
            term = SymExpr.const(coeff)
            for name in mono:
                term = term * mapping.get(name, SymExpr.var(name))
            result = result + term
        return result

    # -- comparison (decidable only when the difference is constant) ---------
    def definitely_le(self, other: "SymExpr | int | float") -> bool:
        diff = SymExpr.coerce(other) - self
        return diff.is_constant and diff.constant_value >= 0.0

    def definitely_eq(self, other: "SymExpr | int | float") -> bool:
        diff = SymExpr.coerce(other) - self
        return diff.is_constant and diff.constant_value == 0.0

    # -- dunder ----------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, float)):
            other = SymExpr.const(other)
        if not isinstance(other, SymExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in sorted(self._terms.items()):
            name = "*".join(mono) if mono else ""
            if name and coeff == 1.0:
                parts.append(name)
            elif name:
                parts.append(f"{coeff:g}*{name}")
            else:
                parts.append(f"{coeff:g}")
        return " + ".join(parts)


ZERO = SymExpr.const(0)
ONE = SymExpr.const(1)


# ---------------------------------------------------------------------------
# Rectilinear sections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """Half-open [lo, hi) with symbolic bounds."""

    lo: SymExpr
    hi: SymExpr

    def size(self) -> SymExpr:
        return self.hi - self.lo

    def covers(self, other: "Interval") -> bool:
        """Definitely contains ``other``?"""
        return self.lo.definitely_le(other.lo) and other.hi.definitely_le(self.hi)

    def same(self, other: "Interval") -> bool:
        return self.lo.definitely_eq(other.lo) and self.hi.definitely_eq(other.hi)

    def hull(self, other: "Interval") -> "Interval":
        """Smallest decidable enclosing interval; falls back to self∪other
        bounds only when comparable, else returns an unknown-sized hull
        marked by non-comparable bounds kept from self."""
        lo = self.lo if self.lo.definitely_le(other.lo) else other.lo
        hi = self.hi if other.hi.definitely_le(self.hi) else other.hi
        return Interval(lo, hi)

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi})"


class Section:
    """A rectilinear selection over an array/collection.

    Three shapes: ``FULL`` (every element), ``UNKNOWN`` (some elements —
    conservative), or a tuple of per-dimension :class:`Interval` bounds.
    """

    __slots__ = ("kind", "intervals")

    def __init__(self, kind: str, intervals: tuple[Interval, ...] = ()) -> None:
        assert kind in ("full", "unknown", "rect")
        self.kind = kind
        self.intervals = intervals

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def full() -> "Section":
        return _FULL

    @staticmethod
    def unknown() -> "Section":
        return _UNKNOWN

    @staticmethod
    def rect(*intervals: Interval) -> "Section":
        return Section("rect", tuple(intervals))

    @staticmethod
    def point(index: SymExpr) -> "Section":
        return Section("rect", (Interval(index, index + 1),))

    # -- relations -------------------------------------------------------------
    def covers(self, other: "Section") -> bool:
        """Must-containment: every element of ``other`` is in ``self``."""
        if self.kind == "full":
            return True
        if self.kind == "unknown" or other.kind in ("full", "unknown"):
            return False
        if len(self.intervals) != len(other.intervals):
            return False
        return all(a.covers(b) for a, b in zip(self.intervals, other.intervals))

    def same(self, other: "Section") -> bool:
        if self.kind != other.kind:
            return False
        if self.kind in ("full", "unknown"):
            return True
        if len(self.intervals) != len(other.intervals):
            return False
        return all(a.same(b) for a, b in zip(self.intervals, other.intervals))

    def hull(self, other: "Section") -> "Section":
        """May-union: smallest representable section containing both."""
        if self.kind == "full" or other.kind == "full":
            return _FULL
        if self.kind == "unknown" or other.kind == "unknown":
            return _UNKNOWN
        if len(self.intervals) != len(other.intervals):
            return _UNKNOWN
        return Section(
            "rect",
            tuple(a.hull(b) for a, b in zip(self.intervals, other.intervals)),
        )

    def count(self) -> SymExpr:
        """Number of selected elements (symbolic).  ``FULL``/``UNKNOWN``
        evaluate against the owning collection's extent parameter — callers
        multiply by it; here they count as 1 'whole-collection' unit."""
        if self.kind in ("full", "unknown"):
            return ONE
        total = ONE
        for iv in self.intervals:
            total = total * iv.size()
        return total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Section):
            return NotImplemented
        return self.kind == other.kind and self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash((self.kind, self.intervals))

    def __repr__(self) -> str:
        if self.kind == "full":
            return "[*]"
        if self.kind == "unknown":
            return "[?]"
        return "".join(repr(iv) for iv in self.intervals)


_FULL = Section("full")
_UNKNOWN = Section("unknown")


# ---------------------------------------------------------------------------
# Access paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldSel:
    name: str

    def __repr__(self) -> str:
        return f".{self.name}"


@dataclass(frozen=True)
class ElemSel:
    section: Section

    def __repr__(self) -> str:
        return repr(self.section)


Selector = Union[FieldSel, ElemSel]


class AccessPath:
    """A value location: root variable + selector chain.

    Roots are compared by *symbol identity* so that shadowed names stay
    distinct.  Examples: ``c``, ``c.corners[*]``, ``zbuf.depth[0, n)``.
    """

    __slots__ = ("root", "selectors", "type")

    def __init__(
        self,
        root: VarSymbol,
        selectors: tuple[Selector, ...] = (),
        type: Optional[Type] = None,
    ) -> None:
        self.root = root
        self.selectors = selectors
        self.type = type

    # -- derivation ------------------------------------------------------------
    def field(self, name: str, type: Optional[Type] = None) -> "AccessPath":
        return AccessPath(self.root, self.selectors + (FieldSel(name),), type)

    def elem(self, section: Section, type: Optional[Type] = None) -> "AccessPath":
        return AccessPath(self.root, self.selectors + (ElemSel(section),), type)

    # -- relations ---------------------------------------------------------------
    def same_shape(self, other: "AccessPath") -> bool:
        """Same root and selector structure, ignoring section bounds."""
        if self.root is not other.root or len(self.selectors) != len(other.selectors):
            return False
        for a, b in zip(self.selectors, other.selectors):
            if type(a) is not type(b):
                return False
            if isinstance(a, FieldSel) and a.name != b.name:  # type: ignore[union-attr]
                return False
        return True

    def covers(self, other: "AccessPath") -> bool:
        """Must-containment: writing ``self`` definitely defines ``other``.

        True when the roots match, ``self``'s selector chain is a prefix of
        (or equal to) ``other``'s, and every element selector of ``self``
        must-covers the corresponding selector of ``other``.
        """
        if self.root is not other.root:
            return False
        if len(self.selectors) > len(other.selectors):
            return False
        for a, b in zip(self.selectors, other.selectors):
            if isinstance(a, FieldSel):
                if not isinstance(b, FieldSel) or a.name != b.name:
                    return False
            else:
                if not isinstance(b, ElemSel) or not a.section.covers(b.section):
                    return False
        return True

    def overlaps(self, other: "AccessPath") -> bool:
        """May the two paths denote a common location?  Conservative: any
        shape match that cannot be disproven overlaps."""
        a, b = (self, other) if len(self.selectors) <= len(other.selectors) else (other, self)
        if a.root is not b.root:
            return False
        for sa, sb in zip(a.selectors, b.selectors):
            if isinstance(sa, FieldSel):
                if not isinstance(sb, FieldSel) or sa.name != sb.name:
                    return False
            else:
                if not isinstance(sb, ElemSel):
                    return False
                # disjointness of sections is only decidable for rects with
                # comparable bounds; we do not attempt it -> assume overlap
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AccessPath):
            return NotImplemented
        if self.root is not other.root or len(self.selectors) != len(other.selectors):
            return False
        for a, b in zip(self.selectors, other.selectors):
            if isinstance(a, FieldSel):
                if not isinstance(b, FieldSel) or a.name != b.name:
                    return False
            else:
                if not isinstance(b, ElemSel) or not a.section.same(b.section):
                    return False
        return True

    def __hash__(self) -> int:
        shape = tuple(
            sel.name if isinstance(sel, FieldSel) else "[]" for sel in self.selectors
        )
        return hash((id(self.root), shape))

    def __repr__(self) -> str:
        return self.root.name + "".join(repr(sel) for sel in self.selectors)


# ---------------------------------------------------------------------------
# Path sets
# ---------------------------------------------------------------------------


class PathSet:
    """Set of access paths with the Figure 2 must/may algebra.

    * :meth:`add` (may): inserts, merging same-shape paths by section hull.
    * :meth:`remove_covered` (must): removes paths definitely covered by a
      given definition — the ``- Gen(b)`` operation.
    * :meth:`union`, :meth:`difference` build new sets without mutation.
    """

    __slots__ = ("_paths",)

    def __init__(self, paths: Iterable[AccessPath] = ()) -> None:
        self._paths: list[AccessPath] = []
        for p in paths:
            self.add(p)

    def add(self, path: AccessPath) -> None:
        for i, existing in enumerate(self._paths):
            if existing.same_shape(path):
                merged = _merge_sections(existing, path)
                self._paths[i] = merged
                return
        self._paths.append(path)

    def remove_covered(self, definition: AccessPath) -> None:
        self._paths = [p for p in self._paths if not definition.covers(p)]

    def may_contain(self, path: AccessPath) -> bool:
        return any(p.overlaps(path) for p in self._paths)

    def union(self, other: "PathSet") -> "PathSet":
        out = PathSet(self._paths)
        for p in other:
            out.add(p)
        return out

    def difference_must(self, gens: "PathSet") -> "PathSet":
        """``self − gens`` with must semantics: strike only what a gen path
        definitely covers."""
        out = PathSet()
        for p in self._paths:
            if not any(g.covers(p) for g in gens):
                out.add(p)
        return out

    def copy(self) -> "PathSet":
        out = PathSet()
        out._paths = list(self._paths)
        return out

    def __iter__(self) -> Iterator[AccessPath]:
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)

    def __repr__(self) -> str:
        inner = ", ".join(sorted(repr(p) for p in self._paths))
        return "{" + inner + "}"


def _merge_sections(a: AccessPath, b: AccessPath) -> AccessPath:
    """Merge two same-shape paths by hulling every element selector."""
    selectors: list[Selector] = []
    for sa, sb in zip(a.selectors, b.selectors):
        if isinstance(sa, ElemSel):
            selectors.append(ElemSel(sa.section.hull(sb.section)))  # type: ignore[union-attr]
        else:
            selectors.append(sa)
    return AccessPath(a.root, tuple(selectors), a.type or b.type)
