"""Required-communication analysis and volume estimation (paper §4.2-4.3).

Backward propagation over the candidate boundary chain::

    ReqComm(b_i) = ReqComm(b_{i+1}) - Gen(f_{i+1}) + Cons(f_{i+1})

with ``ReqComm`` past the last boundary seeded by the *live-out* set — what
the code following the ``PipelinedLoop`` (the viewing stage) still reads.
Subtraction uses must semantics, addition may semantics (Figure 2).

The paper's §4.2 observation — dropping a candidate boundary keeps the
computed ``ReqComm`` of the remaining boundaries correct — holds by
construction here and is property-tested.

:class:`VolumeModel` then prices a boundary in bytes for a given workload
profile:

* paths rooted at an element variable or a per-element local are carried
  once per *surviving record* of their foreach stream (packet size times
  the product of upstream guard selectivities);
* paths rooted at packet-level locals are carried once per packet;
* paths rooted outside the pipelined loop are broadcast once per run
  (amortized ``1/num_packets`` per packet); reduction-typed external roots
  are *stage state* — the runtime merges transparent copies and forwards
  the result once, so they are also amortized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang import ast
from ..lang.typecheck import CheckedProgram
from ..lang.types import (
    ArrayType,
    ClassType,
    PrimType,
    RectdomainType,
    VarSymbol,
)
from .boundaries import Boundary, FilterChain
from .gencons import GenConsAnalyzer, SegmentFacts
from .values import AccessPath, ElemSel, FieldSel, PathSet
from .workload import WorkloadProfile


@dataclass(slots=True)
class CommAnalysis:
    """Per-chain result: facts for every atom, ReqComm for every boundary
    (index 0 = b_1 ... index n-1 = b_n) plus the live-out seed."""

    chain: FilterChain
    atom_facts: list[SegmentFacts]
    reqcomm: list[PathSet]
    live_out: PathSet


def live_out_paths(
    analyzer: GenConsAnalyzer, chain: FilterChain
) -> PathSet:
    """Cons of the statements that follow the PipelinedLoop in its method —
    the values the viewing stage still needs."""
    body = chain.method.body.body
    after: list[ast.Stmt] = []
    seen = False
    for stmt in body:
        if stmt is chain.loop:
            seen = True
            continue
        if seen:
            after.append(stmt)
    if not seen:
        # the loop is nested (inside an if, etc.): conservatively keep
        # every external root the loop itself defines
        return PathSet()
    facts = analyzer.analyze(after)
    return facts.cons


def analyze_communication(
    chain: FilterChain, analyzer: GenConsAnalyzer | None = None
) -> CommAnalysis:
    """Run Gen/Cons on every atom and propagate ReqComm backwards.

    This is the single pass of §4.2: each atom is analyzed exactly once and
    each boundary's set is produced by one set operation."""
    analyzer = analyzer or GenConsAnalyzer(chain.checked)
    atom_facts = [analyzer.analyze_atom(atom) for atom in chain.atoms]
    live_out = live_out_paths(analyzer, chain)

    n = len(chain.boundaries)
    reqcomm: list[PathSet] = [PathSet() for _ in range(n)]
    following = live_out.copy()
    for i in range(n - 1, -1, -1):
        facts = atom_facts[i + 1]  # segment after boundary b_{i+1}
        req = following.difference_must(facts.gen).union(facts.cons)
        reqcomm[i] = req
        chain.boundaries[i].reqcomm = req
        following = req
    return CommAnalysis(
        chain=chain, atom_facts=atom_facts, reqcomm=reqcomm, live_out=live_out
    )


# ---------------------------------------------------------------------------
# Volume model
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class VolumeModel:
    """Prices ReqComm sets in bytes under a workload profile.

    ``size_hints`` resolves data-dependent extents: keys are dotted path
    names (``"tris"``, ``"c.corners"`` or ``"Cube.corners"``), values are
    either numbers (elements) or profile parameter names.
    """

    checked: CheckedProgram
    size_hints: dict[str, object] = field(default_factory=dict)
    default_array_len: float = 1.0
    pointer_bytes: int = 8

    # -- per-path sizing -----------------------------------------------------
    def _hint_len(self, path: AccessPath, profile: WorkloadProfile) -> float | None:
        keys: list[str] = []
        names = [path.root.name] + [
            sel.name for sel in path.selectors if isinstance(sel, FieldSel)
        ]
        keys.append(".".join(names))
        if len(names) >= 2:
            keys.append(names[-1])
        # class-qualified key for the last field
        cls = self._owning_class(path)
        if cls is not None and len(names) >= 2:
            keys.insert(0, f"{cls}.{names[-1]}")
        for key in keys:
            if key in self.size_hints:
                hint = self.size_hints[key]
                if isinstance(hint, str):
                    return profile.get(hint)
                return float(hint)  # type: ignore[arg-type]
        return None

    def _owning_class(self, path: AccessPath) -> str | None:
        t = path.root.type
        last_cls: str | None = None
        for sel in path.selectors:
            if isinstance(sel, FieldSel):
                if isinstance(t, ClassType):
                    last_cls = t.name
                    try:
                        t = self.checked.field_type(t.name, sel.name)
                    except KeyError:
                        return last_cls
            elif isinstance(sel, ElemSel):
                if isinstance(t, ArrayType):
                    t = t.elem
                elif isinstance(t, RectdomainType):
                    t = t.elem
        return last_cls

    def class_bytes(self, class_name: str, profile: WorkloadProfile) -> float:
        """Packed size of one object: scalar fields plus hinted arrays."""
        decl = self.checked.class_decls[class_name]
        total = 0.0
        for f in decl.fields:
            ftype = self.checked.field_type(class_name, f.name)
            if isinstance(ftype, PrimType):
                total += ftype.byte_size
            elif isinstance(ftype, ArrayType) and isinstance(ftype.elem, PrimType):
                key = f"{class_name}.{f.name}"
                hint = self.size_hints.get(key, self.default_array_len)
                length = profile.get(hint) if isinstance(hint, str) else float(hint)
                total += ftype.elem.byte_size * length
            elif isinstance(ftype, ClassType):
                total += self.class_bytes(ftype.name, profile)
            else:
                total += self.pointer_bytes
        return total

    def path_bytes(self, path: AccessPath, profile: WorkloadProfile) -> float:
        """Bytes to transfer ONE instance of this path (one record's worth;
        multiplicity across the stream is applied by the caller)."""
        count = 1.0
        for sel in path.selectors:
            if isinstance(sel, ElemSel) and sel.section.kind == "rect":
                count *= max(profile.evaluate(sel.section.count()), 0.0)
        t = path.type
        if isinstance(t, PrimType):
            return count * t.byte_size
        if isinstance(t, ArrayType):
            length = self._hint_len(path, profile)
            if length is None:
                length = self.default_array_len
            elem = t.elem
            elem_bytes = (
                elem.byte_size
                if isinstance(elem, PrimType)
                else self.class_bytes(elem.name, profile)
                if isinstance(elem, ClassType)
                else float(self.pointer_bytes)
            )
            return count * length * elem_bytes
        if isinstance(t, ClassType):
            return count * self.class_bytes(t.name, profile)
        if isinstance(t, RectdomainType):
            return (
                count
                * profile.packet_size
                * self.class_bytes(t.elem.name, profile)
            )
        # untyped path (e.g. synthesized): assume a double
        return count * 8.0

    # -- multiplicity ----------------------------------------------------------
    def _root_foreach(self, chain: FilterChain, root: VarSymbol) -> int | None:
        for fid, fissioned in enumerate(chain.fissioned):
            if root is fissioned.elem_var or root in fissioned.local_roots:
                return fid
        return None

    def stream_cardinality(
        self,
        chain: FilterChain,
        boundary_index: int,
        foreach_id: int,
        profile: WorkloadProfile,
    ) -> float:
        """Records of foreach ``foreach_id`` surviving past boundary
        ``b_{boundary_index}`` (1-based): packet size times the product of
        guard selectivities applied at or before atom ``boundary_index``."""
        card = profile.packet_size
        for atom in chain.atoms[:boundary_index]:
            if atom.foreach_id == foreach_id and atom.guard_param is not None:
                card *= profile.get(atom.guard_param)
        return card

    def boundary_volume(
        self,
        chain: FilterChain,
        boundary: Boundary,
        reqcomm: PathSet,
        profile: WorkloadProfile,
    ) -> float:
        """Total bytes crossing ``boundary`` per packet.

        Reduction-typed values are special (paper §2.2, §5): before their
        first accumulating update they are *scratch state* — the consuming
        filter's ``init()`` allocates them, nothing crosses the stream;
        after an update, the partial accumulator crosses once per packet.
        """
        packet_roots = chain.packet_roots
        hot_reductions = chain.reductions_written_before(boundary.index)
        total = 0.0
        priced_reductions: set[int] = set()
        for path in reqcomm:
            root = path.root
            if root.is_reduction:
                # price the whole accumulator once per root, not per path
                if root in hot_reductions and id(root) not in priced_reductions:
                    priced_reductions.add(id(root))
                    if isinstance(root.type, ClassType):
                        total += self.class_bytes(root.type.name, profile)
                    else:
                        total += self.path_bytes(path, profile)
                continue
            per_instance = self.path_bytes(path, profile)
            fid = self._root_foreach(chain, root)
            if fid is not None:
                mult = self.stream_cardinality(
                    chain, boundary.index, fid, profile
                )
            elif root is chain.packet_var:
                # the collection path itself already accounts for
                # packet_size via its Rectdomain type
                mult = 1.0
            elif root in packet_roots:
                mult = 1.0
            else:
                # external root (parameters, pre-loop scalars): broadcast
                # once per run, amortized over the packets
                mult = 1.0 / max(profile.num_packets, 1)
            total += per_instance * mult
        return total

    def final_output_volume(
        self, analysis: CommAnalysis, profile: WorkloadProfile
    ) -> float:
        """Bytes of the live-out set: what the last filter ships to the
        viewing node once per run, charged per packet amortized."""
        total = 0.0
        for path in analysis.live_out:
            total += self.path_bytes(path, profile)
        return total / max(profile.num_packets, 1)
