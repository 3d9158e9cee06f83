"""Columnar (vector) codegen backend.

The scalar backend reproduces the paper's §6.5 code shape faithfully: a
per-record Python loop with an ``if not (guard): continue`` per conditional.
That shape is also why the compiled pipelines trail the §4.3 cost-model
predictions by 20–500× under CPython (see the calibration tables in
EXPERIMENTS.md).  The dialect guarantees exactly what data-parallel
lowering needs — ``foreach`` iterations are order-independent, domain
elements never alias, and reductions are associative and commutative — so
each fused element loop may legally be compiled to columnar NumPy instead:

* element-field reads become column views on the input batch,
* straight-line arithmetic becomes one ufunc expression per statement,
* a guard becomes a boolean mask that *compresses* the live columns
  (the §6.5 "conditional vs stride" gap, eliminated),
* ``if``/``else`` becomes select (``np.where``) over per-branch values,
* intrinsic calls dispatch to their registered **batch form**
  (:attr:`repro.lang.intrinsics.Intrinsic.batch_fn`), and
* reduction updates call ``batch_<method>`` on the runtime class once per
  packet instead of once per record.

:func:`analyze_group` decides *per fused loop* whether this lowering is
sound; anything it cannot prove falls back to the scalar loop, so partially
vectorizable programs still compile (the generated source records the
reason as a comment).  Both backends must produce byte-identical packed
batches — elementwise ufuncs neither reorder nor reassociate float
operations, and the differential suite in ``tests/test_vectorize.py``
asserts identity on all four applications.

Two invariants keep the lowering observationally equal to the scalar
loop.  First, generated columnar code never mutates an array in place:
every assignment — compound assignment included — *rebinds* its target,
because the current binding may be a zero-copy view of the caller's
packet/batch column or the saved pre-branch value of an ``if``/``else``
merge.  Second, each vectorized group runs under
``np.errstate(all='ignore')``: eager ``&``/``|`` and both-branch
``np.where`` evaluation compute lanes the scalar code short-circuits
past, and those dead lanes must not surface as FP warnings or errors.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

from ..lang import ast
from ..lang.types import VarSymbol
from .layout import PacketLayout, mangle
from .pygen import (
    _PREC_PY,
    CodegenError,
    NameEnv,
    PyGen,
    _is_int_type,
    _safe,
    zero_value,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..analysis.boundaries import FilterChain

BACKENDS = ("scalar", "vector")
ENV_VAR = "REPRO_BACKEND"


def resolve_backend(backend: str) -> str:
    """Resolve a ``CompileOptions.backend`` value to a concrete backend.

    ``"auto"`` consults the ``REPRO_BACKEND`` environment variable (used by
    the CI matrix job) and defaults to ``"scalar"``."""
    if backend == "auto":
        backend = os.environ.get(ENV_VAR, "").strip() or "scalar"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown codegen backend {backend!r}; expected one of "
            f"{BACKENDS + ('auto',)}"
        )
    return backend


# ---------------------------------------------------------------------------
# Vectorizability analysis
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Decision:
    """Outcome of the per-loop vectorizability analysis."""

    ok: bool
    reason: str = ""


class _Analyzer:
    def __init__(
        self,
        chain: "FilterChain",
        red_classes: Mapping[str, type],
        batch_intrinsics: Mapping[str, Callable],
    ) -> None:
        self.chain = chain
        self.red_classes = red_classes
        self.batch_intrinsics = batch_intrinsics

    def check_group(self, group: list[int]) -> Decision:
        for i in group:
            atom = self.chain.atom(i)
            if atom.guard is not None:
                reason = self._expr(atom.guard, in_branch=False)
                if reason:
                    return Decision(False, f"atom f{i} guard: {reason}")
            for stmt in atom.stmts:
                reason = self._stmt(stmt, in_branch=False)
                if reason:
                    return Decision(False, f"atom f{i}: {reason}")
        return Decision(True)

    # -- statements ---------------------------------------------------------
    def _stmt(self, node: ast.Stmt, in_branch: bool) -> str | None:
        if isinstance(node, ast.Block):
            for inner in node.body:
                reason = self._stmt(inner, in_branch)
                if reason:
                    return reason
            return None
        if isinstance(node, ast.VarDecl):
            sym = node.symbol
            if isinstance(sym, VarSymbol) and sym.is_reduction:
                return f"reduction '{sym.name}' declared inside element loop"
            if node.init is not None:
                return self._expr(node.init, in_branch)
            return None
        if isinstance(node, ast.Assign):
            target = node.target
            if not isinstance(target, ast.Name):
                return "assignment through a field or index"
            sym = target.symbol
            if isinstance(sym, VarSymbol):
                if sym in self.chain.elem_vars:
                    return f"assignment to element '{sym.name}'"
                if sym.is_reduction:
                    return f"assignment to reduction '{sym.name}'"
            return self._expr(node.value, in_branch)
        if isinstance(node, ast.ExprStmt):
            e = node.expr
            if self._is_reduction_update(e):
                assert isinstance(e, ast.MethodCall)
                if in_branch:
                    return "reduction update under if/else"
                reason = self._reduction_update(e)
                if reason:
                    return reason
                for a in e.args:
                    r = self._expr(a, in_branch)
                    if r:
                        return r
                return None
            return self._expr(e, in_branch)
        if isinstance(node, ast.If):
            reason = self._expr(node.cond, in_branch)
            if reason:
                return reason
            reason = self._stmt(node.then, in_branch=True)
            if reason:
                return reason
            if node.other is not None:
                return self._stmt(node.other, in_branch=True)
            return None
        return f"{type(node).__name__} not vectorizable"

    @staticmethod
    def _is_reduction_update(e: ast.Expr) -> bool:
        return (
            isinstance(e, ast.MethodCall)
            and isinstance(e.obj, ast.Name)
            and isinstance(e.obj.symbol, VarSymbol)
            and e.obj.symbol.is_reduction
        )

    def _reduction_update(self, e: ast.MethodCall) -> str | None:
        assert isinstance(e.obj, ast.Name) and isinstance(e.obj.symbol, VarSymbol)
        root = e.obj.symbol.name
        cls = self.red_classes.get(root)
        if cls is None:
            return f"no runtime class for reduction '{root}'"
        if not hasattr(cls, f"batch_{e.method}"):
            return (
                f"reduction class {cls.__name__} has no batch form "
                f"'batch_{e.method}'"
            )
        return None

    # -- expressions --------------------------------------------------------
    def _expr(self, e: ast.Expr, in_branch: bool) -> str | None:
        if isinstance(e, (ast.IntLit, ast.FloatLit, ast.BoolLit)):
            return None
        if isinstance(e, ast.Name):
            sym = e.symbol
            if isinstance(sym, VarSymbol):
                if sym in self.chain.elem_vars:
                    return f"whole-element use of '{sym.name}'"
                if sym.is_reduction:
                    return f"reduction '{sym.name}' used as a value"
            return None
        if isinstance(e, ast.FieldAccess):
            base = e.obj
            if (
                isinstance(base, ast.Name)
                and isinstance(base.symbol, VarSymbol)
                and base.symbol in self.chain.elem_vars
            ):
                return None  # element-field read -> column view
            return f"field access '.{e.field_name}' on a non-element value"
        if isinstance(e, ast.Unary):
            return self._expr(e.operand, in_branch)
        if isinstance(e, ast.Binary):
            return self._expr(e.left, in_branch) or self._expr(
                e.right, in_branch
            )
        if isinstance(e, ast.Ternary):
            return (
                self._expr(e.cond, in_branch)
                or self._expr(e.then, in_branch)
                or self._expr(e.other, in_branch)
            )
        if isinstance(e, ast.Call):
            if e.target_kind != "intrinsic":
                return "dialect method call has no batch form"
            name = e.target.name  # type: ignore[union-attr]
            if name not in self.batch_intrinsics:
                return f"intrinsic '{name}' has no batch form"
            if in_branch:
                # a masked call would execute on rows the scalar code skips
                return f"intrinsic call '{name}' under if/else"
            for a in e.args:
                reason = self._expr(a, in_branch)
                if reason:
                    return reason
            return None
        if isinstance(e, ast.MethodCall):
            return "method call inside an expression"
        return f"{type(e).__name__} not vectorizable"


def analyze_group(
    chain: "FilterChain",
    group: list[int],
    red_classes: Mapping[str, type],
    batch_intrinsics: Mapping[str, Callable],
) -> Decision:
    """Decide whether one fused element loop can be lowered columnar.

    An empty group (a pure forwarding loop) is always vectorizable."""
    if not group:
        return Decision(True)
    return _Analyzer(chain, red_classes, batch_intrinsics).check_group(group)


# ---------------------------------------------------------------------------
# Columnar expression translation
# ---------------------------------------------------------------------------


class VectorPyGen(PyGen):
    """Dialect expression -> columnar NumPy expression.

    Differences from the scalar translator: ``&&``/``||`` become eager
    elementwise ``&``/``|`` (sound here because the analysis only admits
    pure arithmetic operands), ``!`` becomes ``np.logical_not``, the
    ternary becomes ``np.where``, and intrinsic calls dispatch through the
    batch table ``_intrb``."""

    def _expr(self, node: ast.Expr) -> tuple[str, int]:
        P = _PREC_PY
        if isinstance(node, ast.Unary) and node.op == "!":
            return (
                f"_np.logical_not({self.expr(node.operand)})",
                P["postfix"],
            )
        if isinstance(node, ast.Ternary):
            return (
                f"_np.where({self.expr(node.cond)}, "
                f"{self.expr(node.then)}, {self.expr(node.other)})",
                P["postfix"],
            )
        if isinstance(node, ast.Call):
            if node.target_kind != "intrinsic":
                raise CodegenError(
                    "non-intrinsic call in vectorized loop"
                )
            args = ", ".join(self.expr(a) for a in node.args)
            return (
                f"_intrb[{node.target.name!r}]({args})",  # type: ignore[union-attr]
                P["postfix"],
            )
        if isinstance(node, (ast.MethodCall, ast.New, ast.NewArray, ast.Index)):
            raise CodegenError(
                f"{type(node).__name__} not supported in vectorized loop"
            )
        return super()._expr(node)

    def _binary(self, node: ast.Binary) -> tuple[str, int]:
        P = _PREC_PY
        if node.op in ("&&", "||"):
            py_op = "&" if node.op == "&&" else "|"
            # fully parenthesized: Python's & / | bind tighter than
            # comparisons, the opposite of the dialect's && / ||
            return (
                f"(({self.expr(node.left)}) {py_op} ({self.expr(node.right)}))",
                P["postfix"],
            )
        return super()._binary(node)


# ---------------------------------------------------------------------------
# Columnar loop emission
# ---------------------------------------------------------------------------


class _GroupEmitter:
    """Emits one fused element loop as straight-line columnar code.

    ``columnar`` tracks which generated Python names currently hold
    per-record columns (vs. broadcast packet scalars): guards compress
    exactly those, and ``if``/``else`` merges know whether a branch value
    needs selecting."""

    def __init__(
        self, fg: Any, gen: PyGen, env: NameEnv, columnar: set[str]
    ) -> None:
        self.fg = fg
        self.gen = gen
        self.env = env
        self.columnar = columnar
        self._serial = 0

    def _expr(self, node: ast.Expr) -> str:
        return VectorPyGen(self.env).expr(node)

    # -- columnar-ness ------------------------------------------------------
    def _is_columnar(self, e: ast.Expr) -> bool:
        if isinstance(e, ast.Name):
            sym = e.symbol
            if not isinstance(sym, VarSymbol):
                return False
            return self.env.bindings.get(id(sym)) in self.columnar
        if isinstance(e, ast.FieldAccess):
            base = e.obj
            if (
                isinstance(base, ast.Name)
                and isinstance(base.symbol, VarSymbol)
                and self.env.is_elem(base.symbol)
            ):
                return True
            return self._is_columnar(base)
        if isinstance(e, ast.Call):
            return True  # batch intrinsic result
        if isinstance(e, ast.Unary):
            return self._is_columnar(e.operand)
        if isinstance(e, ast.Binary):
            return self._is_columnar(e.left) or self._is_columnar(e.right)
        if isinstance(e, ast.Ternary):
            return (
                self._is_columnar(e.cond)
                or self._is_columnar(e.then)
                or self._is_columnar(e.other)
            )
        return False

    def _mark(self, name: str, is_col: bool) -> None:
        if is_col:
            self.columnar.add(name)
        else:
            self.columnar.discard(name)

    # -- guards -------------------------------------------------------------
    def guard(self, guard: ast.Expr, live: set[str]) -> None:
        """Compress the columns still ``live`` after the guard; the rest
        (read by nothing later) are dropped instead of taken."""
        self.gen.emit(f"_mask = _vec_mask({self._expr(guard)}, _n)")
        self.columnar &= live
        for name in sorted(self.columnar):
            self.gen.emit(f"{name} = _col_take({name}, _mask)")
        self.gen.emit("_n = int(_mask.sum())")

    # -- statements ---------------------------------------------------------
    def stmt(self, node: ast.Stmt) -> None:
        if isinstance(node, ast.Block):
            for inner in node.body:
                self.stmt(inner)
        elif isinstance(node, ast.VarDecl):
            sym = node.symbol
            assert isinstance(sym, VarSymbol)
            name = self.env.bind(sym)
            if node.init is not None:
                self.gen.emit(f"{name} = {self._expr(node.init)}")
                self._mark(name, self._is_columnar(node.init))
            else:
                self.gen.emit(f"{name} = {zero_value(sym.type)}")
                self._mark(name, False)
        elif isinstance(node, ast.Assign):
            self._assign(node)
        elif isinstance(node, ast.ExprStmt):
            e = node.expr
            if _Analyzer._is_reduction_update(e):
                assert isinstance(e, ast.MethodCall)
                assert isinstance(e.obj, ast.Name)
                obj = self.env.lookup(e.obj.symbol)  # type: ignore[arg-type]
                args = ", ".join(self._expr(a) for a in e.args)
                self.gen.emit(f"{obj}.batch_{e.method}({args})")
            else:
                self.gen.emit(self._expr(e))
        elif isinstance(node, ast.If):
            self._if(node)
        else:  # pragma: no cover - rejected by analyze_group
            raise CodegenError(
                f"{type(node).__name__} not supported in vectorized loop"
            )

    def _assign(self, node: ast.Assign) -> None:
        assert isinstance(node.target, ast.Name)
        sym = node.target.symbol
        assert isinstance(sym, VarSymbol)
        name = self.env.lookup(sym)
        value = self._expr(node.value)
        if node.op:
            op = node.op
            if op == "/" and _is_int_type(node.target.type):
                op = "//"
            # rebind — never emit 'name op= value': the name may alias a
            # column view of the caller's packet/batch (column hoist) or
            # the pre-branch value (if/else save), and an in-place ufunc
            # would mutate those instead of this binding alone
            self.gen.emit(f"{name} = {name} {op} ({value})")
            if self._is_columnar(node.value):
                self.columnar.add(name)
        else:
            self.gen.emit(f"{name} = {value}")
            self._mark(name, self._is_columnar(node.value))

    # -- if/else as select --------------------------------------------------
    def _if(self, node: ast.If) -> None:
        k = self._serial
        self._serial += 1
        self.gen.emit(f"_c{k} = {self._expr(node.cond)}")
        assigned = _assigned_outer(node)
        saved = []
        for sym in assigned:
            cur = self.env.lookup(sym)
            saved.append((sym, cur, cur in self.columnar))

        branch_results: list[dict[int, tuple[str, bool]]] = []
        for prefix, branch in (("t", node.then), ("e", node.other)):
            results: dict[int, tuple[str, bool]] = {}
            if branch is None:
                for sym, cur, was_col in saved:
                    results[id(sym)] = (cur, was_col)
                branch_results.append(results)
                continue
            for sym, cur, was_col in saved:
                tmp = f"_{prefix}{k}_{_safe(sym.name)}"
                self.gen.emit(f"{tmp} = {cur}")
                self.env.bind(sym, tmp)
                self._mark(tmp, was_col)
            self.stmt(branch)
            for sym, cur, was_col in saved:
                tmp = self.env.lookup(sym)
                results[id(sym)] = (tmp, tmp in self.columnar)
                self.env.bind(sym, cur)
                self._mark(cur, was_col)
            branch_results.append(results)

        then_r, else_r = branch_results
        cond_col = self._is_columnar(node.cond)
        for sym, cur, was_col in saved:
            t_name, t_col = then_r[id(sym)]
            e_name, e_col = else_r[id(sym)]
            self.gen.emit(f"{cur} = _np.where(_c{k}, {t_name}, {e_name})")
            self._mark(cur, cond_col or t_col or e_col or was_col)
            self.env.bind(sym, cur)


def _assigned_outer(node: ast.If) -> list[VarSymbol]:
    """Symbols assigned in either branch but declared outside it — the
    values that must be merged with ``np.where`` after the branches."""
    out: list[VarSymbol] = []
    seen: set[int] = set()
    for branch in (node.then, node.other):
        if branch is None:
            continue
        declared: set[int] = set()
        assigned: list[VarSymbol] = []
        for stmt in ast.walk_stmts(branch):
            if isinstance(stmt, ast.VarDecl) and isinstance(
                stmt.symbol, VarSymbol
            ):
                declared.add(id(stmt.symbol))
            if isinstance(stmt, ast.Assign) and isinstance(
                stmt.target, ast.Name
            ):
                sym = stmt.target.symbol
                if isinstance(sym, VarSymbol):
                    assigned.append(sym)
        for sym in assigned:
            if id(sym) not in declared and id(sym) not in seen:
                seen.add(id(sym))
                out.append(sym)
    return out


def emit_vector_group(
    fg: Any,
    gen: PyGen,
    env: NameEnv,
    group: list[int],
    needed: set[str],
    out_layout: PacketLayout | None,
    source_mode: bool,
    in_layout: PacketLayout | None,
) -> None:
    """Columnar counterpart of ``FilterGenerator._gen_element_loop``.

    Emits straight-line code: hoist the needed columns, evaluate guards as
    compressing masks, translate statements with :class:`VectorPyGen`, and
    hand the output columns to ``BatchBuilder.extend`` in one chunk.

    The whole group runs under ``np.errstate(all='ignore')``: eager ``&``/
    ``|`` and both-branch ``np.where`` evaluation legally compute lanes the
    scalar backend short-circuits past (e.g. the divide in
    ``x != 0.0 && y / x > 1.0``), and those dead lanes must not surface as
    RuntimeWarnings — or FloatingPointErrors under a caller's
    ``np.seterr`` — that the scalar backend would never produce.  Selected
    values are unaffected: errstate changes error handling, not results."""
    chain = fg.chain
    if group:
        elem = chain.atom(group[0]).elem_var
        gen.emit(f"# vectorized element loop: atoms {group}")
    else:
        elem = chain.fissioned[0].elem_var if chain.fissioned else None
        gen.emit("# vectorized forwarding loop: no element atoms on this unit")
    assert elem is not None, "element loop without a foreach stream"

    gen.emit("with _np.errstate(all='ignore'):")
    with gen.block():
        _emit_vector_group_body(
            fg, gen, env, group, needed, out_layout, source_mode, in_layout, elem
        )


def _emit_vector_group_body(
    fg: Any,
    gen: PyGen,
    env: NameEnv,
    group: list[int],
    needed: set[str],
    out_layout: PacketLayout | None,
    source_mode: bool,
    in_layout: PacketLayout | None,
    elem: VarSymbol,
) -> None:
    chain = fg.chain
    columnar: set[str] = set()
    for source in sorted(needed):
        py = mangle(source)
        parts = source.split(".")
        if source_mode:
            if parts[0] == elem.name and len(parts) == 2:
                gen.emit(f"{py} = _pk.fields[{parts[1]!r}]")
                columnar.add(py)
            # per-element locals cannot come from the raw input
        else:
            assert in_layout is not None
            col = in_layout.column(source)
            if col is None:
                continue
            if col.ragged:
                gen.emit(f"{py} = _b.ragged[{source!r}]")
            else:
                gen.emit(f"{py} = _b.columns[{source!r}]")
            columnar.add(py)
        if "." not in source:
            sym = fg._symbol_by_name(source)
            if sym is not None:
                env.bind(sym, py)
    gen.emit(f"_n = {'_pk.count' if source_mode else '_b.count'}")

    em = _GroupEmitter(fg, gen, env, columnar)
    for k, i in enumerate(group):
        atom = chain.atom(i)
        gen.emit(f"# atom f{i} ({atom.label})")
        if atom.guard is not None:
            em.guard(atom.guard, _live_names(fg, env, group[k:], out_layout))
        for stmt in atom.stmts:
            em.stmt(stmt)

    if out_layout is not None and out_layout.columns:
        items = []
        for col in out_layout.columns:
            value = fg._value_expr(env, col.source)
            if value not in columnar:
                # packet-uniform value: broadcast to the surviving records
                value = f"_np.full(_n, {value})"
            items.append(f"{col.name}={value}")
        gen.emit(f"_bb.extend({', '.join(items)})")


def _live_names(
    fg: Any, env: NameEnv, atoms: list[int], out_layout: PacketLayout | None
) -> set[str]:
    """Python names read after the guard of ``atoms[0]`` — by the
    statements of ``atoms``, the guards of ``atoms[1:]`` — or shipped by the
    out layout: the columns that guard must keep in step."""
    sources: set[str] = set()
    syms: list[VarSymbol] = []
    for k, i in enumerate(atoms):
        facts = fg.chain.atom(i).facts
        sources.update(facts.elem_sources)
        syms.extend(facts.reads)
        if k:
            sources.update(facts.guard_sources)
            syms.extend(facts.guard_reads)
    if out_layout is not None:
        for col in out_layout.columns:
            sources.add(col.source)
            if "." not in col.source:
                sym = fg._symbol_by_name(col.source)
                if sym is not None:
                    syms.append(sym)
    live = {mangle(source) for source in sources}
    live.update(env.bindings[id(sym)] for sym in syms if id(sym) in env.bindings)
    return live
