"""Candidate filter boundary selection (paper §4.1).

The compiler focuses on a single ``PipelinedLoop`` over packets.  Its body
is decomposed into a sequence of **atomic filters** ``f_1 .. f_{n+1}``
separated by ``n`` **candidate boundaries** ``b_1 .. b_n``:

* every top-level ``foreach`` is fissioned (:mod:`repro.analysis.fission`)
  and contributes one *element* atomic filter per stage — the foreach start
  and end, each internal call, and each guard conditional are candidate
  boundaries;
* every other top-level statement group forms a *packet* atomic filter
  (executed once per packet);
* non-foreach loops (``for``/``while``) are kept whole inside one atomic
  filter, per the paper's restriction ("any loop that is not a foreach loop
  must be completely inside a single filter").

The resulting :class:`FilterChain` is the unit every later phase consumes:
Gen/Cons analysis runs per atomic filter, ReqComm annotates boundaries, the
cost model prices atoms, and the DP assigns atoms to computing units.  It is
the paper's candidate boundary graph: packet-level conditionals stay inside
one atom, so that graph is always this chain.

Building the chain also walks each atom once and records what it reads and
writes (:class:`AtomFacts`): the cost model and the code generator read
those facts instead of walking the tree again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang import ast
from ..lang.errors import AnalysisError
from ..lang.typecheck import CheckedProgram
from ..lang.types import VarSymbol
from .fission import ElementStage, FissionedForeach, fission_foreach


@dataclass(frozen=True, slots=True)
class AtomFacts:
    """What one atom reads and writes, from one walk of its statements
    and one of its guard when the chain is built.  Tuples keep walk order."""

    #: distinct variables the statements read by name
    reads: tuple[VarSymbol, ...] = ()
    #: distinct reduction roots the statements update (method-call receivers)
    updates: tuple[VarSymbol, ...] = ()
    #: every declaration in the statements
    decls: tuple[ast.VarDecl, ...] = ()
    #: dotted sources of per-record values the statements read: element
    #: fields (``c.minval``) and per-element locals (``v``)
    elem_sources: tuple[str, ...] = ()
    #: the same two read sets of the guard
    guard_reads: tuple[VarSymbol, ...] = ()
    guard_sources: tuple[str, ...] = ()
    #: the first variable of each name the statements mention (statement by
    #: statement, its declarations before its reads)
    named: tuple[VarSymbol, ...] = ()
    #: distinct reduction variables the statements mention (statement by
    #: statement, its reads before its declarations)
    reductions: tuple[VarSymbol, ...] = ()


@dataclass(slots=True)
class AtomicFilter:
    """One indivisible unit of work between two candidate boundaries.

    ``kind``:

    * ``"packet"`` — statements executed once per packet;
    * ``"element"`` — a fission stage executed once per surviving element
      of its foreach stream (``elem_var``/``foreach_id`` identify the
      stream, ``guard`` filters it, ``applied_guards`` names the
      selectivity parameters already applied upstream).
    """

    index: int  # 1-based: f_1 .. f_{n+1}
    kind: str
    stmts: list[ast.Stmt] = field(default_factory=list)
    label: str = ""
    # element-stage context
    elem_var: VarSymbol | None = None
    domain: ast.Expr | None = None
    foreach_id: int = -1
    guard: ast.Expr | None = None
    guard_param: str | None = None
    applied_guards: tuple[str, ...] = ()
    #: first/last stage of its foreach (foreach start/end boundary markers)
    opens_foreach: bool = False
    closes_foreach: bool = False
    facts: AtomFacts = AtomFacts()

    def __repr__(self) -> str:
        return f"<f{self.index} {self.kind} {self.label!r}>"


@dataclass(slots=True)
class Boundary:
    """Candidate boundary b_i between f_i and f_{i+1} (1-based)."""

    index: int
    before: AtomicFilter
    after: AtomicFilter
    # annotated later by the communication analysis:
    reqcomm: object = None  # PathSet
    label: str = ""

    def __repr__(self) -> str:
        return f"<b{self.index} {self.label!r}>"


@dataclass(slots=True)
class FilterChain:
    """The decomposition input: atoms f_1..f_{n+1}, boundaries b_1..b_n."""

    checked: CheckedProgram
    method: ast.MethodDecl
    loop: ast.PipelinedLoop
    atoms: list[AtomicFilter]
    boundaries: list[Boundary]
    packet_var: VarSymbol
    #: per-element roots: locals declared inside some foreach body (their
    #: values are carried per stream record across element boundaries)
    per_element_roots: set[VarSymbol]
    #: loop-variable symbols of the fissioned foreach loops
    elem_vars: set[VarSymbol]
    fissioned: list[FissionedForeach] = field(default_factory=list)
    #: reduction root -> 1-based index of the first atom that updates it
    first_updates: dict[VarSymbol, int] = field(default_factory=dict)
    #: variables declared by the packet atoms (carried once per packet)
    packet_roots: set[VarSymbol] = field(default_factory=set)

    def atom(self, index: int) -> AtomicFilter:
        """1-based accessor matching the paper's f_i numbering."""
        return self.atoms[index - 1]

    def reductions_written_before(self, boundary_index: int) -> set[VarSymbol]:
        """Reduction roots that some atom at or before ``boundary_index``
        may update: the accumulators that already hold a partial result
        there (before that they are scratch state)."""
        return {
            root
            for root, first in self.first_updates.items()
            if first <= boundary_index
        }


def _check_no_pipelined_nesting(loop: ast.PipelinedLoop) -> None:
    for stmt in ast.walk_stmts(loop.body):
        if isinstance(stmt, ast.PipelinedLoop) and stmt is not loop:
            raise AnalysisError(
                "nested PipelinedLoop is not supported", stmt.span
            )


def _check_inner_loops_whole(stmts: list[ast.Stmt]) -> None:
    """for/while loops are legal but must sit entirely inside one atomic
    filter — which they do by construction; foreach nested inside another
    foreach is rejected (the paper's applications never need it and fission
    over nested streams is future work)."""
    for stmt in stmts:
        for inner in ast.walk_stmts(stmt):
            if inner is not stmt and isinstance(inner, ast.Foreach):
                if isinstance(stmt, ast.Foreach):
                    raise AnalysisError(
                        "nested foreach is not supported by boundary analysis",
                        inner.span,
                    )


def build_filter_chain(
    checked: CheckedProgram,
    method: ast.MethodDecl,
    loop: ast.PipelinedLoop,
) -> FilterChain:
    """Identify candidate boundaries in ``loop`` and build the chain."""
    _check_no_pipelined_nesting(loop)
    body = list(loop.body.body)
    _check_inner_loops_whole(body)

    atoms: list[AtomicFilter] = []
    per_element_roots: set[VarSymbol] = set()
    elem_vars: set[VarSymbol] = set()
    fissioned_loops: list[FissionedForeach] = []
    pending_packet: list[ast.Stmt] = []
    guard_serial = [0]

    def flush_packet() -> None:
        if pending_packet:
            atoms.append(
                AtomicFilter(
                    index=0,
                    kind="packet",
                    stmts=list(pending_packet),
                    label=f"packet#{len(atoms)}",
                )
            )
            pending_packet.clear()

    foreach_id = 0
    for stmt in body:
        if isinstance(stmt, ast.Foreach):
            flush_packet()
            fissioned = fission_foreach(stmt)
            # renumber guard params globally so two foreach loops in one
            # pipelined loop never collide
            stages = _renumber_guards(fissioned.stages, guard_serial)
            fissioned_loops.append(fissioned)
            per_element_roots |= fissioned.local_roots
            elem_vars.add(fissioned.elem_var)
            applied: list[str] = []
            for k, stage in enumerate(stages):
                atom = AtomicFilter(
                    index=0,
                    kind="element",
                    stmts=list(stage.stmts),
                    label=f"foreach#{foreach_id}.stage{k}",
                    elem_var=fissioned.elem_var,
                    domain=stmt.domain,
                    foreach_id=foreach_id,
                    guard=stage.guard,
                    guard_param=stage.guard_param,
                    applied_guards=tuple(applied),
                    opens_foreach=(k == 0),
                    closes_foreach=(k == len(stages) - 1),
                )
                if stage.guard_param is not None:
                    applied.append(stage.guard_param)
                atoms.append(atom)
            foreach_id += 1
        else:
            pending_packet.append(stmt)
    flush_packet()

    if not atoms:
        raise AnalysisError("PipelinedLoop body is empty", loop.span)

    first_updates: dict[VarSymbol, int] = {}
    packet_roots: set[VarSymbol] = set()
    for i, atom in enumerate(atoms):
        atom.index = i + 1
        atom.facts = atom_facts(atom, elem_vars, per_element_roots)
        for root in atom.facts.updates:
            first_updates.setdefault(root, atom.index)
        if atom.kind == "packet":
            packet_roots.update(
                d.symbol for d in atom.facts.decls if isinstance(d.symbol, VarSymbol)
            )

    boundaries = [
        Boundary(
            index=i + 1,
            before=atoms[i],
            after=atoms[i + 1],
            label=f"{atoms[i].label} | {atoms[i + 1].label}",
        )
        for i in range(len(atoms) - 1)
    ]

    assert loop.var_symbol is not None, "typecheck before boundary analysis"
    return FilterChain(
        checked=checked,
        method=method,
        loop=loop,
        atoms=atoms,
        boundaries=boundaries,
        packet_var=loop.var_symbol,  # type: ignore[arg-type]
        per_element_roots=per_element_roots,
        elem_vars=elem_vars,
        fissioned=fissioned_loops,
        first_updates=first_updates,
        packet_roots=packet_roots,
    )


def _renumber_guards(
    stages: list[ElementStage], serial: list[int]
) -> list[ElementStage]:
    out: list[ElementStage] = []
    for stage in stages:
        if stage.guard_param is not None:
            stage = ElementStage(
                stmts=stage.stmts,
                guard=stage.guard,
                guard_param=f"sel.g{serial[0]}",
            )
            serial[0] += 1
        out.append(stage)
    return out


def atom_facts(
    atom: AtomicFilter,
    elem_vars: set[VarSymbol],
    per_element_roots: set[VarSymbol],
) -> AtomFacts:
    """One walk over the atom's statements, one over its guard."""
    reads: dict[VarSymbol, None] = {}
    updates: dict[VarSymbol, None] = {}
    reductions: dict[VarSymbol, None] = {}
    named: dict[str, VarSymbol] = {}
    decls: list[ast.VarDecl] = []
    sources: set[str] = set()
    for stmt in atom.stmts:
        stmt_reads: list[VarSymbol] = []
        stmt_decls: list[VarSymbol] = []
        for node in ast.walk(stmt):
            if isinstance(node, ast.VarDecl):
                decls.append(node)
                if isinstance(node.symbol, VarSymbol):
                    stmt_decls.append(node.symbol)
            elif isinstance(node, ast.MethodCall):
                base = node.obj
                if (
                    isinstance(base, ast.Name)
                    and isinstance(base.symbol, VarSymbol)
                    and base.symbol.is_reduction
                ):
                    updates[base.symbol] = None
            else:
                _read(node, stmt_reads, sources, elem_vars, per_element_roots)
        reads.update(dict.fromkeys(stmt_reads))
        for sym in stmt_decls + stmt_reads:
            named.setdefault(sym.name, sym)
        for sym in stmt_reads + stmt_decls:
            if sym.is_reduction:
                reductions[sym] = None
    guard_reads: list[VarSymbol] = []
    guard_sources: set[str] = set()
    if atom.guard is not None:
        for node in ast.walk(atom.guard):
            _read(node, guard_reads, guard_sources, elem_vars, per_element_roots)
    return AtomFacts(
        reads=tuple(reads),
        updates=tuple(updates),
        decls=tuple(decls),
        elem_sources=tuple(sources),
        guard_reads=tuple(dict.fromkeys(guard_reads)),
        guard_sources=tuple(guard_sources),
        named=tuple(named.values()),
        reductions=tuple(reductions),
    )


def _read(
    node: object,
    reads: list[VarSymbol],
    sources: set[str],
    elem_vars: set[VarSymbol],
    per_element_roots: set[VarSymbol],
) -> None:
    """Record what one expression node reads."""
    if isinstance(node, ast.Name):
        sym = node.symbol
        if isinstance(sym, VarSymbol):
            reads.append(sym)
            if sym in per_element_roots:
                sources.add(sym.name)
    elif isinstance(node, ast.FieldAccess):
        base = node.obj
        if isinstance(base, ast.Name) and base.symbol in elem_vars:
            sources.add(f"{base.symbol.name}.{node.field_name}")  # type: ignore[union-attr]
