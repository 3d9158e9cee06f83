"""Alias information for the communication analysis.

Figure 2 of the paper assumes "(potentially conservative) alias information
is available": *must*-alias facts drive additions to ``Gen`` (a location is
only generated if it is definitely defined), *may*-alias facts drive
additions to ``Cons`` (anything possibly read must be communicated).

The dialect makes strong aliasing guarantees that the default oracle
exploits:

* elements of a ``Rectdomain`` never alias each other (language rule, §3);
* distinct local variables of class type may alias only if one was assigned
  from the other (we track direct copies within a segment);
* fields with different names never alias; arrays reached through different
  roots may alias only if their roots may alias.

The oracle is pluggable so tests can force fully-conservative behaviour and
measure how much precision the language rules buy (an ablation the paper
implies but does not run).
"""

from __future__ import annotations

from ..lang.types import VarSymbol
from .values import AccessPath


class AliasOracle:
    """Type- and copy-based oracle; sound for the dialect's semantics."""

    def __init__(self) -> None:
        # root -> set of roots it may alias (symmetric closure maintained)
        self._may: dict[int, set[VarSymbol]] = {}

    def record_copy(self, dst: VarSymbol, src: VarSymbol) -> None:
        """Note ``dst = src`` for reference types: the two roots now may
        alias (and transitively anything src already aliased)."""
        group = self._may.setdefault(id(src), {src})
        group.add(dst)
        self._may[id(dst)] = group

    def may_alias_roots(self, a: VarSymbol, b: VarSymbol) -> bool:
        if a is b:
            return True
        return b in self._may.get(id(a), ()) or a in self._may.get(id(b), ())

    def must_define(self, written: AccessPath, target: AccessPath) -> bool:
        """Does a write to ``written`` definitely define ``target``?
        Only same-root, covering paths qualify — a may-aliased root is not a
        *must* definition."""
        return written.root is target.root and written.covers(target)


class ConservativeOracle(AliasOracle):
    """Everything of compatible shape may alias; nothing must-defines
    anything but an identical path.  Used to ablate analysis precision."""

    def may_alias_roots(self, a: VarSymbol, b: VarSymbol) -> bool:  # noqa: D102
        return True

    def must_define(self, written: AccessPath, target: AccessPath) -> bool:  # noqa: D102
        return written.root is target.root and written == target
