"""One-pass Gen/Cons analysis (paper §4.2, Figure 2).

For a code segment ``b`` (the statements of one atomic filter):

* ``Gen(b)``  — values *definitely defined* in ``b``,
* ``Cons(b)`` — values used in ``b`` and not defined in it.

The must-alias test is path identity: a write defines the paths of its own
root that it covers, and nothing reached through another root.  The
dialect's rules make that exact for ``Rectdomain`` elements (never aliased,
§3) and for distinct field names.

The algorithm walks the statement sequence **in reverse**:

* assignment ``s``: ``LHS(s)`` joins ``Gen`` and leaves ``Cons`` (must);
  ``RHS(s)`` uses join ``Cons`` (may);
* conditional ``s``: the block is analyzed independently; ``Cons(s)`` joins
  ``Cons(b)`` but ``Gen(s)`` is discarded — a guarded definition is not a
  definite definition;
* loop ``s``: the body's sets are computed once, accesses indexed by the
  loop variable are **widened to rectilinear sections** derived from the
  loop bounds, then ``Gen(s)`` joins ``Gen(b)`` and strikes ``Cons(b)``
  (the paper assumes loops execute at least one iteration);
* calls are expanded interprocedurally (dialect methods, context-sensitive)
  or through declared summaries (intrinsics) — see
  :mod:`repro.analysis.interproc`.

The entry points are :func:`analyze_segment` for raw statement lists and
:func:`analyze_atom` for :class:`~repro.analysis.boundaries.AtomicFilter`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from ..lang import ast
from ..lang.typecheck import CheckedProgram
from ..lang.types import VarSymbol
from .boundaries import AtomicFilter
from .values import (
    AccessPath,
    ElemSel,
    Interval,
    PathSet,
    Section,
    SymExpr,
)


def symbol_tag(sym: VarSymbol) -> str:
    """Symbolic-parameter name for a variable.

    ``runtime_define`` variables keep their source name so that workload
    profiles can bind them (e.g. ``num_packets``); everything else gets an
    identity-qualified tag so shadowed names stay distinct.
    """
    if sym.runtime_define or sym.kind == "param":
        return sym.name
    return f"{sym.name}@{id(sym):x}"


@dataclass(slots=True)
class SegmentFacts:
    """Result of analyzing one code segment."""

    gen: PathSet = field(default_factory=PathSet)
    cons: PathSet = field(default_factory=PathSet)


class GenConsAnalyzer:
    """Single-pass Gen/Cons engine.  One instance per compilation; reuse is
    safe because all per-segment state is local to :meth:`analyze`."""

    def __init__(
        self,
        checked: CheckedProgram,
        max_call_depth: int = 12,
    ) -> None:
        self.checked = checked
        self.max_call_depth = max_call_depth
        self._call_stack: list[str] = []
        #: number of statement visits — tests assert the one-pass property
        self.visit_count = 0

    # ------------------------------------------------------------------ api
    def analyze(self, stmts: list[ast.Stmt]) -> SegmentFacts:
        facts = SegmentFacts()
        for stmt in reversed(stmts):
            self._apply(stmt, facts)
        return facts

    def analyze_atom(self, atom: AtomicFilter) -> SegmentFacts:
        """Gen/Cons of one atomic filter.  Element stages additionally
        consume their guard expression and their element variable's fields
        read by the guard."""
        facts = self.analyze(atom.stmts)
        if atom.guard is not None:
            for path in self._uses(atom.guard):
                facts.cons.add(path)
        return facts

    # ---------------------------------------------------------- statements
    def _apply(self, stmt: ast.Stmt, facts: SegmentFacts) -> None:
        self.visit_count += 1
        if isinstance(stmt, ast.Block):
            for inner in reversed(stmt.body):
                self._apply(inner, facts)
        elif isinstance(stmt, ast.VarDecl):
            self._apply_vardecl(stmt, facts)
        elif isinstance(stmt, ast.Assign):
            self._apply_assign(stmt, facts)
        elif isinstance(stmt, ast.ExprStmt):
            self._apply_effects_then_uses(stmt.expr, facts, value_used=False)
        elif isinstance(stmt, ast.If):
            self._apply_conditional(stmt, facts)
        elif isinstance(stmt, (ast.While, ast.For, ast.Foreach)):
            self._apply_loop(stmt, facts)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._apply_effects_then_uses(stmt.value, facts, value_used=True)
        elif isinstance(stmt, (ast.Break, ast.Continue, ast.PipelinedLoop)):
            # PipelinedLoop never appears inside a segment (checked earlier)
            pass
        else:  # pragma: no cover
            raise AssertionError(f"unhandled statement {type(stmt).__name__}")

    def _apply_vardecl(self, stmt: ast.VarDecl, facts: SegmentFacts) -> None:
        sym = stmt.symbol
        assert isinstance(sym, VarSymbol), "typecheck before analysis"
        if stmt.init is not None:
            target = AccessPath(sym, (), sym.type)
            facts.gen.add(target)
            facts.cons.remove_covered(target)
            self._apply_effects_then_uses(stmt.init, facts, value_used=True)
        else:
            # an uninitialized declaration defines nothing
            pass

    def _apply_assign(self, stmt: ast.Assign, facts: SegmentFacts) -> None:
        target = self._path(stmt.target)
        if target is not None and self._is_must_write(target):
            facts.gen.add(target)
            facts.cons.remove_covered(target)
        if stmt.op:  # compound assignment also reads the target
            if target is not None:
                facts.cons.add(target)
        # index sub-expressions of the target are reads
        for idx_use in self._index_uses(stmt.target):
            facts.cons.add(idx_use)
        self._apply_effects_then_uses(stmt.value, facts, value_used=True)

    def _apply_conditional(self, stmt: ast.If, facts: SegmentFacts) -> None:
        # Fig 2: analyze the block(s) independently; only Cons propagates.
        then_facts = self.analyze(list(stmt.then.body))
        for path in then_facts.cons:
            facts.cons.add(path)
        if stmt.other is not None:
            else_facts = self.analyze(list(stmt.other.body))
            for path in else_facts.cons:
                facts.cons.add(path)
        self._apply_effects_then_uses(stmt.cond, facts, value_used=True)

    def _apply_loop(
        self, stmt: ast.While | ast.For | ast.Foreach, facts: SegmentFacts
    ) -> None:
        if isinstance(stmt, ast.Foreach):
            body_facts = self.analyze(list(stmt.body.body))
            gen_w, cons_w = self._widen_foreach(stmt, body_facts)
        else:
            inner_stmts = list(stmt.body.body)
            if isinstance(stmt, ast.For):
                prefix: list[ast.Stmt] = []
                if stmt.init is not None:
                    prefix.append(stmt.init)
                body_facts = self.analyze(prefix + inner_stmts)
                if stmt.update is not None:
                    update_facts = self.analyze([stmt.update])
                    for p in update_facts.cons:
                        body_facts.cons.add(p)
            else:
                body_facts = self.analyze(inner_stmts)
            gen_w, cons_w = self._widen_counted(stmt, body_facts)
            if isinstance(stmt, ast.While):
                self._apply_effects_then_uses(stmt.cond, facts, value_used=True)
            elif stmt.cond is not None:
                self._apply_effects_then_uses(stmt.cond, facts, value_used=True)
        # Fig 2 loop rule: Gen(s) joins Gen(b) and strikes Cons(b);
        # Cons(s) joins Cons(b).  (Loops are assumed to iterate >= once.)
        for g in gen_w:
            facts.gen.add(g)
            facts.cons.remove_covered(g)
        for c in cons_w:
            facts.cons.add(c)

    # ------------------------------------------------------------- widening
    def _loop_index_info(
        self, stmt: ast.For
    ) -> tuple[VarSymbol, SymExpr, SymExpr] | None:
        """Recognize ``for (int i = lo; i < hi; i += 1)`` (or ``i = i + 1``)
        and return (index symbol, lo, hi)."""
        init, cond, update = stmt.init, stmt.cond, stmt.update
        if not isinstance(init, ast.VarDecl) or init.init is None:
            return None
        sym = init.symbol
        if not isinstance(sym, VarSymbol):
            return None
        lo = self._sym_expr(init.init)
        if lo is None:
            return None
        if not (
            isinstance(cond, ast.Binary)
            and cond.op in ("<", "<=")
            and isinstance(cond.left, ast.Name)
            and cond.left.symbol is sym
        ):
            return None
        hi = self._sym_expr(cond.right)
        if hi is None:
            return None
        if cond.op == "<=":
            hi = hi + 1
        if not self._is_unit_step(update, sym):
            return None
        return sym, lo, hi

    @staticmethod
    def _is_unit_step(update: ast.Stmt | None, sym: VarSymbol) -> bool:
        if not isinstance(update, ast.Assign):
            return False
        if not (isinstance(update.target, ast.Name) and update.target.symbol is sym):
            return False
        if update.op == "+" and isinstance(update.value, ast.IntLit):
            return update.value.value == 1
        if update.op == "" and isinstance(update.value, ast.Binary):
            value = update.value
            return (
                value.op == "+"
                and isinstance(value.left, ast.Name)
                and value.left.symbol is sym
                and isinstance(value.right, ast.IntLit)
                and value.right.value == 1
            )
        return False

    def _widen_counted(
        self, stmt: ast.While | ast.For, facts: SegmentFacts
    ) -> tuple[PathSet, PathSet]:
        """Widen loop-variant sections.  Recognized counted loops produce
        exact rectilinear sections [lo, hi); anything else degrades: reads
        to UNKNOWN sections, loop-variant writes are dropped from Gen."""
        info = self._loop_index_info(stmt) if isinstance(stmt, ast.For) else None
        variant_tags: set[str] = set()
        for inner in ast.walk_stmts(stmt):
            if isinstance(inner, ast.Assign) and isinstance(inner.target, ast.Name):
                if isinstance(inner.target.symbol, VarSymbol):
                    variant_tags.add(symbol_tag(inner.target.symbol))
            if isinstance(inner, ast.VarDecl) and isinstance(inner.symbol, VarSymbol):
                variant_tags.add(symbol_tag(inner.symbol))
        gen_out, cons_out = PathSet(), PathSet()
        if info is not None:
            sym, lo, hi = info
            tag = symbol_tag(sym)
            exact = Section.rect(Interval(lo, hi))
            for g in facts.gen:
                widened = self._widen_path(g, {tag}, exact, must=True,
                                           other_variant=variant_tags - {tag})
                if widened is not None:
                    gen_out.add(widened)
            for c in facts.cons:
                if c.root is sym:
                    continue  # the loop defines its own index
                cons_out.add(
                    self._widen_path(c, {tag}, exact, must=False,
                                     other_variant=variant_tags - {tag})
                    or c
                )
        else:
            for g in facts.gen:
                widened = self._widen_path(g, variant_tags, Section.unknown(),
                                           must=True, other_variant=set())
                if widened is not None:
                    gen_out.add(widened)
            for c in facts.cons:
                cons_out.add(
                    self._widen_path(c, variant_tags, Section.unknown(),
                                     must=False, other_variant=set())
                    or c
                )
        return gen_out, cons_out

    def _widen_foreach(
        self, stmt: ast.Foreach, facts: SegmentFacts
    ) -> tuple[PathSet, PathSet]:
        """Rebase element-variable paths onto the iterated collection with
        FULL sections (every element is visited), mirroring the Fig 2 rule
        of replacing index functions by sections from the bounds."""
        elem = stmt.var_symbol
        assert isinstance(elem, VarSymbol)
        domain_path = self._path(stmt.domain)
        gen_out, cons_out = PathSet(), PathSet()
        for g in facts.gen:
            rebased = self._rebase_elem(g, elem, domain_path, must=True)
            if rebased is not None:
                gen_out.add(rebased)
        for c in facts.cons:
            rebased = self._rebase_elem(c, elem, domain_path, must=False)
            if rebased is not None:
                cons_out.add(rebased)
        if domain_path is not None:
            cons_out.add(domain_path)
        return gen_out, cons_out

    def _rebase_elem(
        self,
        path: AccessPath,
        elem: VarSymbol,
        domain_path: AccessPath | None,
        must: bool,
    ) -> AccessPath | None:
        if path.root is not elem:
            # locals declared inside the foreach die at loop exit
            if must and path.root.kind == "local":
                return None
            return path
        if domain_path is None:
            return None
        section = Section.full()
        return AccessPath(
            domain_path.root,
            domain_path.selectors + (ElemSel(section),) + path.selectors,
            path.type,
        )

    def _widen_path(
        self,
        path: AccessPath,
        variant_tags: set[str],
        section: Section,
        must: bool,
        other_variant: set[str],
    ) -> AccessPath | None:
        """Replace element selectors whose bounds mention loop-variant
        symbols.  For must (Gen) paths, selectors depending on *other*
        variant symbols (not the recognized index) defeat must-ness."""
        changed = False
        selectors = []
        for sel in path.selectors:
            if isinstance(sel, ElemSel) and sel.section.kind == "rect":
                params = set()
                for iv in sel.section.intervals:
                    params |= iv.lo.parameters() | iv.hi.parameters()
                if params & variant_tags:
                    selectors.append(ElemSel(section))
                    changed = True
                    continue
                if params & other_variant:
                    if must:
                        return None
                    selectors.append(ElemSel(Section.unknown()))
                    changed = True
                    continue
            selectors.append(sel)
        if not changed:
            return path
        return AccessPath(path.root, tuple(selectors), path.type)

    # ------------------------------------------------------------ expressions
    def _apply_effects_then_uses(
        self, expr: ast.Expr, facts: SegmentFacts, value_used: bool
    ) -> None:
        """Process an expression appearing on a RHS (or as a statement):
        call side effects first (they happen before the enclosing use, and
        we are scanning backwards), then plain uses."""
        for call in self._calls_in(expr):
            gens, cons = self.call_effects(call)
            for g in gens:
                facts.gen.add(g)
                facts.cons.remove_covered(g)
            for c in cons:
                facts.cons.add(c)
        for use in self._uses(expr):
            facts.cons.add(use)

    def _calls_in(self, expr: ast.Expr) -> list[ast.Expr]:
        return [
            e
            for e in ast.walk_exprs(expr)
            if isinstance(e, (ast.Call, ast.MethodCall))
        ]

    def _uses(self, expr: ast.Expr) -> list[AccessPath]:
        """May-read paths of an expression (excluding call side effects,
        which :meth:`call_effects` reports)."""
        out: list[AccessPath] = []
        self._collect_uses(expr, out)
        return out

    def _collect_uses(self, expr: ast.Expr, out: list[AccessPath]) -> None:
        if isinstance(expr, ast.Name):
            if isinstance(expr.symbol, VarSymbol):
                out.append(AccessPath(expr.symbol, (), expr.type))
        elif isinstance(expr, (ast.FieldAccess, ast.Index)):
            path = self._path(expr)
            if path is not None:
                out.append(path)
            else:
                self._collect_uses(expr.obj, out)
            if isinstance(expr, ast.Index):
                self._collect_uses(expr.index, out)
        elif isinstance(expr, (ast.Call, ast.MethodCall)):
            # Pathable arguments are governed by call_effects (summaries /
            # interprocedural analysis) — a write-only argument must not be
            # re-added as a read here.  Non-path arguments (arithmetic
            # expressions) still contribute their own reads.
            for arg in expr.args:
                if self._path(arg) is None:
                    self._collect_uses(arg, out)
            if isinstance(expr, ast.MethodCall) and self._path(expr.obj) is None:
                self._collect_uses(expr.obj, out)
        elif isinstance(expr, ast.Unary):
            self._collect_uses(expr.operand, out)
        elif isinstance(expr, ast.Binary):
            self._collect_uses(expr.left, out)
            self._collect_uses(expr.right, out)
        elif isinstance(expr, ast.Ternary):
            self._collect_uses(expr.cond, out)
            self._collect_uses(expr.then, out)
            self._collect_uses(expr.other, out)
        elif isinstance(expr, ast.New):
            for arg in expr.args:
                self._collect_uses(arg, out)
        elif isinstance(expr, ast.NewArray):
            self._collect_uses(expr.length, out)
        # literals: no uses

    def _index_uses(self, expr: ast.Expr) -> list[AccessPath]:
        """Reads performed by the index sub-expressions of an lvalue."""
        out: list[AccessPath] = []
        node = expr
        while isinstance(node, (ast.FieldAccess, ast.Index)):
            if isinstance(node, ast.Index):
                self._collect_uses(node.index, out)
            node = node.obj
        return out

    # --------------------------------------------------------------- paths
    def _path(self, expr: ast.Expr) -> AccessPath | None:
        if isinstance(expr, ast.Name):
            if isinstance(expr.symbol, VarSymbol):
                return AccessPath(expr.symbol, (), expr.type)
            return None
        if isinstance(expr, ast.FieldAccess):
            base = self._path(expr.obj)
            if base is None:
                return None
            return base.field(expr.field_name, expr.type)
        if isinstance(expr, ast.Index):
            base = self._path(expr.obj)
            if base is None:
                return None
            idx = self._sym_expr(expr.index)
            section = Section.point(idx) if idx is not None else Section.unknown()
            return base.elem(section, expr.type)
        return None

    def _sym_expr(self, expr: ast.Expr) -> SymExpr | None:
        """Convert an index expression to a symbolic polynomial, or None."""
        if isinstance(expr, ast.IntLit):
            return SymExpr.const(expr.value)
        if isinstance(expr, ast.Name) and isinstance(expr.symbol, VarSymbol):
            return SymExpr.var(symbol_tag(expr.symbol))
        if isinstance(expr, ast.Unary) and expr.op == "-":
            inner = self._sym_expr(expr.operand)
            return None if inner is None else -inner
        if isinstance(expr, ast.Binary) and expr.op in ("+", "-", "*"):
            left = self._sym_expr(expr.left)
            right = self._sym_expr(expr.right)
            if left is None or right is None:
                return None
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            return left * right
        return None

    def _is_must_write(self, path: AccessPath) -> bool:
        """A write is a definite definition when every element selector is
        an exact point or full section (no unknowns)."""
        for sel in path.selectors:
            if isinstance(sel, ElemSel) and sel.section.kind == "unknown":
                return False
        return True

    # ----------------------------------------------------------- call effects
    def call_effects(
        self, call: ast.Expr
    ) -> tuple[list[AccessPath], list[AccessPath]]:
        """(gen paths, cons paths) of one call expression, renamed into the
        caller's namespace.  Dispatches to interprocedural analysis for
        dialect methods and to declared summaries for intrinsics."""
        from .interproc import effects_of_call  # local import: cycle-free

        return effects_of_call(self, call)
