"""Filter code generation (paper §5).

Turns (filter chain, communication analysis, decomposition plan) into one
generated DataCutter filter per computing unit:

* consecutive atoms assigned to the same unit fuse — element stages of the
  same ``foreach`` become one per-record loop with inline guards
  (``continue`` drops filtered elements from the stream);
* each filter unpacks its input batch (§5's unpacking code), binds only the
  element fields it touches (*trimmed classes*), computes, then packs the
  next boundary's layout;
* reduction objects follow the scratch-state discipline: a per-packet
  accumulator is allocated in the filter holding its first update, crosses
  a cut only when already written, and pipeline-global accumulators are
  hosted by their updating filter, flushed at ``finalize`` as FINAL buffers
  that the last (viewing) filter merges via the reduction class's ``merge``.

The output of :meth:`FilterGenerator.generate` is a
:class:`CompiledPipeline` with real Python source per filter (inspectable,
test-asserted) and executable classes for the threaded runtime.

Restrictions (documented in DESIGN.md): per-element values may only cross a
cut within the foreach stream that produced them, so a ``PipelinedLoop``
body feeding one foreach's per-element outputs into a *second* foreach must
keep both on one unit; the paper's four applications all use a single
foreach per pipelined loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from ..analysis.boundaries import FilterChain
from ..analysis.reqcomm import CommAnalysis
from ..datacutter.buffers import Buffer
from ..datacutter.filters import Filter, FilterSpec, SourceFilter
from ..decompose.plan import DecompositionPlan
from ..lang import ast
from ..lang.types import ClassType, VarSymbol
from .buffers import BatchBuilder, pack, unpack
from .generated_registry import register_generated
from .layout import LayoutBuilder, PacketLayout, mangle
from .pygen import CodegenError, NameEnv, PyGen, generate_runtime_class
from .runtime_support import FINAL_PACKET, RawPacket, col_take, vec_mask
from .vectorize import analyze_group, emit_vector_group


@dataclass(slots=True)
class RuntimeConfig:
    """Everything the generated code needs beyond the program itself."""

    intrinsics: dict[str, Callable] = field(default_factory=dict)
    runtime_classes: dict[str, type] = field(default_factory=dict)
    size_hints: dict[str, object] = field(default_factory=dict)
    #: columnar intrinsic implementations (vector backend dispatch table)
    batch_intrinsics: dict[str, Callable] = field(default_factory=dict)
    #: concrete backend for element loops: "scalar" or "vector"
    backend: str = "scalar"


@dataclass(slots=True)
class GeneratedFilter:
    name: str
    unit: int  # 1-based
    source: str
    cls: type
    atoms: list[int]
    in_layout: PacketLayout | None
    out_layout: PacketLayout | None
    #: element loops emitted columnar / as scalar fallback in this filter
    vector_loops: int = 0
    scalar_loops: int = 0


@dataclass(slots=True)
class CompiledPipeline:
    """The §5 result: one filter per computing unit, ready to place."""

    chain: FilterChain
    plan: DecompositionPlan
    filters: list[GeneratedFilter]
    runtime_classes: dict[str, type]
    backend: str = "scalar"

    def specs(
        self,
        packets: Sequence[RawPacket],
        params: dict[str, Any] | None = None,
        widths: Sequence[int] | None = None,
    ) -> list[FilterSpec]:
        """Placed FilterSpecs for the threaded runtime."""
        params = dict(params or {})
        params["packets"] = list(packets)
        widths = list(widths) if widths is not None else [1] * len(self.filters)
        specs = []
        for gf, width in zip(self.filters, widths):
            specs.append(
                FilterSpec(
                    name=gf.name,
                    factory=gf.cls,
                    placement=gf.unit - 1,
                    width=width,
                    params=params,
                )
            )
        return specs

    def filter_source(self, unit: int) -> str:
        return self.filters[unit - 1].source


class FilterGenerator:
    def __init__(
        self,
        chain: FilterChain,
        analysis: CommAnalysis,
        plan: DecompositionPlan,
        config: RuntimeConfig | None = None,
    ) -> None:
        self.chain = chain
        self.analysis = analysis
        self.plan = plan
        self.config = config or RuntimeConfig()
        self.checked = chain.checked
        self._loop_counts = [0, 0]
        self.layouts = LayoutBuilder(chain, analysis, self.config.size_hints)
        self._rt_classes = self._build_runtime_classes()
        self._reduction_decls = self._collect_reduction_decls()
        self._red_syms = self._all_reduction_syms()
        self._red_classes = self._reduction_class_table()
        self._names = self._name_table()

    # ------------------------------------------------------------------ api
    def generate(self) -> CompiledPipeline:
        m = self.plan.m
        filters: list[GeneratedFilter] = []
        in_layout: PacketLayout | None = None
        for j in range(1, m + 1):
            atoms = self.plan.filters_on_unit(j)
            out_layout = self._layout_after_unit(j) if j < m else None
            gf = self._generate_filter(
                j, atoms, in_layout, out_layout, is_last=(j == m)
            )
            filters.append(gf)
            in_layout = out_layout
        return CompiledPipeline(
            chain=self.chain,
            plan=self.plan,
            filters=filters,
            runtime_classes=self._rt_classes,
            backend=self.config.backend,
        )

    # ------------------------------------------------------------- tables
    def _build_runtime_classes(self) -> dict[str, type]:
        classes: dict[str, type] = dict(self.config.runtime_classes)
        namespace: dict[str, Any] = {
            "_np": np,
            "_intr": self.config.intrinsics,
            "_RT": classes,
        }
        for name, decl in self.checked.class_decls.items():
            if name in classes:
                continue
            # driver classes (those containing a PipelinedLoop) have no
            # runtime representation — their loop IS the pipeline
            if any(
                isinstance(stmt, ast.PipelinedLoop)
                for meth in decl.methods
                for stmt in ast.walk_stmts(meth.body)
            ):
                continue
            src = generate_runtime_class(self.checked, name)
            exec(compile(src, f"<runtime class {name}>", "exec"), namespace)
            # anchor for pickling: instances of these classes cross process
            # boundaries in the process engine's final-result buffers
            classes[name] = register_generated(namespace[name])
        return classes

    def _collect_reduction_decls(self) -> dict[VarSymbol, ast.VarDecl]:
        decls: dict[VarSymbol, ast.VarDecl] = {}
        for atom in self.chain.atoms:
            for decl in atom.facts.decls:
                sym = decl.symbol
                if isinstance(sym, VarSymbol) and sym.is_reduction:
                    decls[sym] = decl
        return decls

    def _reduction_class_table(self) -> dict[str, type]:
        """root name -> runtime class, for every reduction symbol the
        pipelined loop touches."""
        table: dict[str, type] = {}
        for sym in self._red_syms:
            if isinstance(sym.type, ClassType):
                table[sym.name] = self._rt_classes[sym.type.name]
        return table

    def _all_reduction_syms(self) -> list[VarSymbol]:
        seen: dict[VarSymbol, None] = {}
        for atom in self.chain.atoms:
            seen.update(dict.fromkeys(atom.facts.reductions))
        return list(seen)

    def _name_table(self) -> dict[str, VarSymbol]:
        """name -> the first variable of that name the atoms mention."""
        table: dict[str, VarSymbol] = {}
        for atom in self.chain.atoms:
            for sym in atom.facts.named:
                table.setdefault(sym.name, sym)
        return table

    # ------------------------------------------------------------- layouts
    def _layout_after_unit(self, j: int) -> PacketLayout:
        """Layout crossing link L_j: boundary after the last filter on
        units <= j (raw input when all of them are empty)."""
        cut = self.plan.last_filter_before_link(j)
        consumer_atoms = set(self.plan.filters_on_unit(j + 1))
        if cut == 0:
            return self._raw_input_layout(consumer_atoms)
        if cut == len(self.chain.atoms):
            return PacketLayout()  # only FINAL buffers flow past the end
        return self.layouts.layout_for_boundary(cut, consumer_atoms)

    def _raw_input_layout(self, consumer_atoms: set[int]) -> PacketLayout:
        """ReqComm(b_0): one more backward step of the §4.2 equation —
        what the whole chain consumes from the raw input."""
        facts = self.analysis.atom_facts[0]
        first = (
            self.analysis.reqcomm[0]
            if self.analysis.reqcomm
            else self.analysis.live_out
        )
        b0 = first.difference_must(facts.gen).union(facts.cons)
        saved = self.analysis.reqcomm
        try:
            self.analysis.reqcomm = [b0] + list(saved)
            return self.layouts.layout_for_boundary(
                1, consumer_atoms, written_before_index=0
            )
        finally:
            self.analysis.reqcomm = saved

    # ---------------------------------------------------------- scanning
    def _external_syms(self, atoms: list[int]) -> list[VarSymbol]:
        seen: dict[VarSymbol, None] = {}
        for i in atoms:
            facts = self.chain.atom(i).facts
            for sym in facts.reads + facts.guard_reads:
                if sym.kind in ("param", "runtime"):
                    seen[sym] = None
        return list(seen)

    def _used_elem_sources(self, atoms: list[int]) -> set[str]:
        """Dotted sources (``c.minval``, ``tris``) read by these atoms."""
        used: set[str] = set()
        for i in atoms:
            facts = self.chain.atom(i).facts
            used.update(facts.elem_sources, facts.guard_sources)
        return used

    def _defined_sources(self, atoms: list[int]) -> set[str]:
        return {
            decl.name for i in atoms for decl in self.chain.atom(i).facts.decls
        }

    def _hosted_reductions(
        self, atoms: list[int]
    ) -> dict[str, tuple[VarSymbol, bool]]:
        """Reduction roots first *updated* on this unit; value is
        (symbol, is_external) where external = declared outside the loop."""
        atom_set = set(atoms)
        return {
            sym.name: (sym, sym not in self._reduction_decls)
            for sym, first in self.chain.first_updates.items()
            if first in atom_set
        }

    def _reduction_sym_by_name(self, name: str) -> VarSymbol | None:
        for sym in self._red_syms:
            if sym.name == name:
                return sym
        return None

    def _symbol_by_name(self, name: str) -> VarSymbol | None:
        return self._names.get(name)

    # ---------------------------------------------------------- generation
    def _generate_filter(
        self,
        j: int,
        atoms: list[int],
        in_layout: PacketLayout | None,
        out_layout: PacketLayout | None,
        is_last: bool,
    ) -> GeneratedFilter:
        is_source = j == 1
        name = f"gen_unit{j}"
        env = NameEnv(self.checked)
        for sym in self.chain.elem_vars:
            env.elem_vars.add(id(sym))
        self._loop_counts = [0, 0]  # [vector, scalar] element loops
        gen = PyGen(env)
        base = "_SourceFilter" if is_source else "_Filter"
        gen.emit(f"class {name}({base}):")
        with gen.block():
            gen.emit(f"'''Generated filter for unit C_{j}; atoms {atoms}.'''")
            self._gen_init(gen, atoms)
            if is_source:
                self._gen_source_body(gen, env, atoms, out_layout)
            else:
                self._gen_process_body(
                    gen, env, atoms, in_layout, out_layout, is_last
                )
            self._gen_finalize(gen, atoms, is_last)
        source = gen.source()
        namespace: dict[str, Any] = {
            "_np": np,
            "_intr": self.config.intrinsics,
            "_RT": self._rt_classes,
            "_RED_CLASSES": self._red_classes,
            "_Filter": Filter,
            "_SourceFilter": SourceFilter,
            "_Buffer": Buffer,
            "_BatchBuilder": BatchBuilder,
            "_pack": pack,
            "_unpack": unpack,
            "_IN_LAYOUT": in_layout,
            "_OUT_LAYOUT": out_layout,
            "_FINAL": FINAL_PACKET,
            "_intrb": self.config.batch_intrinsics,
            "_col_take": col_take,
            "_vec_mask": vec_mask,
        }
        try:
            exec(compile(source, f"<generated {name}>", "exec"), namespace)
        except SyntaxError as err:  # pragma: no cover - codegen bug guard
            raise CodegenError(
                f"generated source is invalid:\n{source}"
            ) from err
        return GeneratedFilter(
            name=name,
            unit=j,
            source=source,
            # anchor for pickling: process-engine pool workers receive
            # rebound FilterSpecs over their order channels, and the spec's
            # factory must resolve by reference in the already-forked child
            cls=register_generated(namespace[name]),
            atoms=atoms,
            in_layout=in_layout,
            out_layout=out_layout,
            vector_loops=self._loop_counts[0],
            scalar_loops=self._loop_counts[1],
        )

    def _gen_init(self, gen: PyGen, atoms: list[int]) -> None:
        hosted = self._hosted_reductions(atoms)
        gen.emit("def init(self, ctx):")
        with gen.block():
            gen.emit("self._params = ctx.params")
            gen.emit("self._finals = {}")
            gen.emit("self._data_seen = 0")
            for root, (sym, external) in hosted.items():
                if external:
                    assert isinstance(sym.type, ClassType)
                    gen.emit(f"self._red_{root} = _RT[{sym.type.name!r}]()")

    def _gen_finalize(self, gen: PyGen, atoms: list[int], is_last: bool) -> None:
        hosted = self._hosted_reductions(atoms)
        external = [root for root, (_s, ext) in hosted.items() if ext]
        gen.emit("def finalize(self, ctx):")
        with gen.block():
            if is_last:
                for root in external:
                    gen.emit(f"self._merge_final({root!r}, self._red_{root})")
                gen.emit("ctx.write(dict(self._finals))")
            elif external:
                gen.emit("payload = {}")
                for root in external:
                    gen.emit(f"payload[{root!r}] = self._red_{root}.pack()")
                gen.emit("ctx.write(payload, _FINAL)")
            else:
                gen.emit("pass")
        if is_last:
            gen.emit("def _merge_final(self, root, obj):")
            with gen.block():
                gen.emit("if root in self._finals:")
                with gen.block():
                    gen.emit("self._finals[root].merge(obj)")
                gen.emit("else:")
                with gen.block():
                    gen.emit("self._finals[root] = obj")

    def _gen_source_body(
        self,
        gen: PyGen,
        env: NameEnv,
        atoms: list[int],
        out_layout: PacketLayout | None,
    ) -> None:
        gen.emit("def generate(self, ctx):")
        with gen.block():
            for sym in self._external_syms(atoms):
                py = env.bind(sym)
                gen.emit(f"{py} = self._params[{sym.name!r}]")
            gen.emit("for _pkt, _pk in enumerate(self._params['packets']):")
            with gen.block():
                self._gen_unit_work(gen, env, atoms, out_layout, source_mode=True)
                if out_layout is not None:
                    gen.emit("yield _buf")
                else:
                    gen.emit("pass  # single-unit pipeline: results flush at finalize")
            if out_layout is None:
                # keep generate() a generator even when nothing streams
                gen.emit("if False:")
                with gen.block():
                    gen.emit("yield None")

    def _gen_process_body(
        self,
        gen: PyGen,
        env: NameEnv,
        atoms: list[int],
        in_layout: PacketLayout | None,
        out_layout: PacketLayout | None,
        is_last: bool,
    ) -> None:
        gen.emit("def process(self, buf, ctx):")
        with gen.block():
            gen.emit("if buf.packet == _FINAL:")
            with gen.block():
                if is_last:
                    gen.emit("for _root, _packed in buf.payload.items():")
                    with gen.block():
                        gen.emit(
                            "self._merge_final(_root, "
                            "_RED_CLASSES[_root].unpack(_packed))"
                        )
                else:
                    gen.emit("ctx.write_buffer(buf)")
                gen.emit("return")
            if not atoms:
                if is_last:
                    gen.emit("self._data_seen += 1")
                    gen.emit("return  # view unit: data reduced upstream")
                else:
                    # relay: same boundary contents, but the downstream
                    # layout may group columns differently -> re-pack
                    gen.emit("_b = _unpack(buf.payload, _IN_LAYOUT)")
                    gen.emit("ctx.write(_pack(_b, _OUT_LAYOUT), buf.packet)")
                return
            gen.emit("self._data_seen += 1")
            gen.emit("_pkt = buf.packet")
            gen.emit("_b = _unpack(buf.payload, _IN_LAYOUT)")
            for sym in self._external_syms(atoms):
                py = env.bind(sym)
                avail = (
                    {pf.source for pf in in_layout.packet_fields}
                    if in_layout
                    else set()
                )
                if sym.name in avail:
                    gen.emit(f"{py} = _b.packet_fields[{sym.name!r}]")
                else:
                    # not communicated: the analysis proved it dead here, or
                    # it is a shared run parameter
                    gen.emit(f"{py} = self._params.get({sym.name!r})")
            self._gen_unit_work(
                gen,
                env,
                atoms,
                out_layout,
                source_mode=False,
                in_layout=in_layout,
            )
            if out_layout is not None:
                gen.emit("ctx.write_buffer(_buf)")

    # -- the per-packet body ------------------------------------------------
    def _gen_unit_work(
        self,
        gen: PyGen,
        env: NameEnv,
        atoms: list[int],
        out_layout: PacketLayout | None,
        source_mode: bool,
        in_layout: PacketLayout | None = None,
    ) -> None:
        hosted = self._hosted_reductions(atoms)
        incoming_reductions = (
            set(in_layout.reduction_roots) if in_layout else set()
        )

        # reduction preamble
        for root, (sym, external) in hosted.items():
            py = env.bind(sym, root)
            if external:
                gen.emit(f"{py} = self._red_{root}")
            elif root in incoming_reductions:
                gen.emit(
                    f"{py} = _RED_CLASSES[{root!r}].unpack(_b.reductions[{root!r}])"
                )
            else:
                decl = self._reduction_decls.get(sym)
                if decl is not None and decl.init is not None:
                    gen.emit(f"{py} = {PyGen(env).expr(decl.init)}")
                else:
                    gen.emit(f"{py} = _RED_CLASSES[{root!r}]()")
        for root in incoming_reductions:
            if root in hosted:
                continue
            sym = self._reduction_sym_by_name(root)
            if sym is None:
                continue
            py = env.bind(sym, root)
            gen.emit(
                f"{py} = _RED_CLASSES[{root!r}].unpack(_b.reductions[{root!r}])"
            )

        if out_layout is not None:
            gen.emit("_bb = _BatchBuilder(_OUT_LAYOUT, packet=_pkt)")

        used = self._used_elem_sources(atoms)
        defined = self._defined_sources(atoms)
        out_sources = (
            {c.source for c in out_layout.columns} if out_layout else set()
        )
        needed = (used | out_sources) - defined

        emitted_element_loop = False
        for kind, group in self._group_atoms(atoms):
            if kind == "packet":
                for i in group:
                    self._gen_packet_atom(gen, i)
            else:
                self._gen_element_loop(
                    gen, env, group, needed, out_layout, source_mode, in_layout
                )
                emitted_element_loop = True

        if (
            out_layout is not None
            and out_layout.columns
            and not emitted_element_loop
        ):
            # no element atoms on this unit, yet per-record data must cross
            # (e.g. the Default plan's empty data unit): pure forwarding loop
            self._gen_element_loop(
                gen,
                env,
                [],
                {c.source for c in out_layout.columns},
                out_layout,
                source_mode,
                in_layout,
            )

        if out_layout is not None:
            for pf in out_layout.packet_fields:
                sym = self._symbol_by_name(pf.source)
                if sym is not None and id(sym) in env.bindings:
                    gen.emit(
                        f"_bb.packet_fields[{pf.source!r}] = {env.lookup(sym)}"
                    )
                elif source_mode:
                    gen.emit(
                        f"_bb.packet_fields[{pf.source!r}] = "
                        f"self._params[{pf.source!r}]"
                    )
                else:
                    gen.emit(
                        f"_bb.packet_fields[{pf.source!r}] = "
                        f"_b.packet_fields[{pf.source!r}]"
                    )
            for root in out_layout.reduction_roots:
                sym = self._reduction_sym_by_name(root)
                assert sym is not None, f"unknown reduction root {root}"
                gen.emit(f"_bb.reductions[{root!r}] = {env.lookup(sym)}.pack()")
            gen.emit("_payload = _pack(_bb.build(), _OUT_LAYOUT)")
            gen.emit("_buf = _Buffer(payload=_payload, packet=_pkt)")

    def _group_atoms(self, atoms: list[int]) -> list[tuple[str, list[int]]]:
        groups: list[tuple[str, list[int]]] = []
        for i in atoms:
            atom = self.chain.atom(i)
            if atom.kind == "element":
                if groups and groups[-1][0] == "element":
                    prev = self.chain.atom(groups[-1][1][-1])
                    if prev.foreach_id == atom.foreach_id:
                        groups[-1][1].append(i)
                        continue
                groups.append(("element", [i]))
            else:
                if groups and groups[-1][0] == "packet":
                    groups[-1][1].append(i)
                else:
                    groups.append(("packet", [i]))
        return groups

    def _gen_packet_atom(self, gen: PyGen, i: int) -> None:
        atom = self.chain.atom(i)
        gen.emit(f"# atom f{i} ({atom.label})")
        emitted = False
        for stmt in atom.stmts:
            if isinstance(stmt, ast.VarDecl) and isinstance(
                stmt.symbol, VarSymbol
            ):
                if stmt.symbol.is_reduction:
                    continue  # handled by the reduction preamble
            gen.stmt(stmt)
            emitted = True
        if not emitted:
            gen.emit("pass  # reduction allocation hoisted to preamble")

    def _gen_element_loop(
        self,
        gen: PyGen,
        env: NameEnv,
        group: list[int],
        needed: set[str],
        out_layout: PacketLayout | None,
        source_mode: bool,
        in_layout: PacketLayout | None,
    ) -> None:
        if self.config.backend == "vector":
            decision = analyze_group(
                self.chain, group, self._red_classes, self.config.batch_intrinsics
            )
            if decision.ok:
                self._loop_counts[0] += 1
                emit_vector_group(
                    self, gen, env, group, needed, out_layout,
                    source_mode, in_layout,
                )
                return
            gen.emit(f"# scalar fallback: {decision.reason}")
        self._loop_counts[1] += 1
        if group:
            elem = self.chain.atom(group[0]).elem_var
            gen.emit(f"# fused element loop: atoms {group}")
        else:
            # forwarding loop for a unit with no element atoms
            elem = (
                self.chain.fissioned[0].elem_var
                if self.chain.fissioned
                else None
            )
            gen.emit("# forwarding loop: no element atoms on this unit")
        assert elem is not None, "element loop without a foreach stream"

        # hoist column references out of the loop
        hoisted: dict[str, tuple[str, str]] = {}  # source -> (kind, py expr)
        for source in sorted(needed):
            py = mangle(source)
            parts = source.split(".")
            if source_mode:
                if parts[0] == elem.name and len(parts) == 2:
                    gen.emit(f"_h_{py} = _pk.fields[{parts[1]!r}]")
                    hoisted[source] = ("raw", f"_h_{py}")
                # per-element locals cannot come from the raw input
            else:
                assert in_layout is not None
                col = in_layout.column(source)
                if col is None:
                    continue
                if col.ragged:
                    gen.emit(f"_hv_{py}, _ho_{py} = _b.ragged[{source!r}]")
                    hoisted[source] = ("ragged", py)
                else:
                    gen.emit(f"_h_{py} = _b.columns[{source!r}]")
                    hoisted[source] = ("fixed", f"_h_{py}")

        count_src = "_pk.count" if source_mode else "_b.count"
        gen.emit(f"_n = {count_src}")
        gen.emit("for _r in range(_n):")
        with gen.block():
            for source, (kind, ref) in hoisted.items():
                py = mangle(source)
                if kind == "raw":
                    arr = ref
                    gen.emit(
                        f"{py} = {arr}[0][{arr}[1][_r]:{arr}[1][_r + 1]] "
                        f"if isinstance({arr}, tuple) else {arr}[_r]"
                    )
                elif kind == "ragged":
                    gen.emit(f"{py} = _hv_{py}[_ho_{py}[_r]:_ho_{py}[_r + 1]]")
                else:
                    gen.emit(f"{py} = {ref}[_r]")
                if "." not in source:
                    sym = self._symbol_by_name(source)
                    if sym is not None:
                        env.bind(sym, py)
            for i in group:
                atom = self.chain.atom(i)
                if atom.guard is not None:
                    guard_src = PyGen(env).expr(atom.guard)
                    gen.emit(f"if not ({guard_src}):")
                    with gen.block():
                        gen.emit("continue")
                for stmt in atom.stmts:
                    gen.stmt(stmt)
            if out_layout is not None and out_layout.columns:
                row_items = []
                for col in out_layout.columns:
                    row_items.append(
                        f"{col.name}={self._value_expr(env, col.source)}"
                    )
                gen.emit(f"_bb.append({', '.join(row_items)})")

    def _value_expr(self, env: NameEnv, source: str) -> str:
        if "." not in source:
            sym = self._symbol_by_name(source)
            if sym is not None:
                return env.lookup(sym)
        return mangle(source)
