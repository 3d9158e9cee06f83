"""Semantic analysis for the pipeline dialect.

Responsibilities:

* build the class table and method/native signatures,
* resolve every name to a :class:`repro.lang.types.VarSymbol`,
* annotate every expression with its resolved :class:`Type`,
* enforce the dialect rules of Section 3:

  - ``foreach`` iterates a ``Rectdomain`` (or a packet bound by an enclosing
    ``PipelinedLoop``),
  - a reduction variable (object of a class implementing ``Reducinterface``)
    may be updated inside a ``foreach`` only through method calls on it, and
    its intermediate value may not otherwise be read inside the loop,
  - ``runtime_define`` variables are integral scalars bound at run time.

The result is a :class:`CheckedProgram`, the input to every later phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast
from .errors import SemanticError, SourceSpan
from .intrinsics import Intrinsic, IntrinsicRegistry
from .types import (
    ArrayType,
    BOOLEAN,
    ClassType,
    DOUBLE,
    INT,
    NULL,
    PrimType,
    PRIMITIVES,
    RectdomainType,
    Scope,
    Type,
    VarSymbol,
    VOID,
    assignable,
    promote,
)


@dataclass(slots=True)
class MethodSig:
    name: str
    owner: str
    param_types: list[Type]
    ret_type: Type
    decl: ast.MethodDecl


@dataclass(slots=True)
class NativeSig:
    name: str
    param_types: list[Type]
    ret_type: Type
    decl: ast.NativeDecl
    intrinsic: Intrinsic | None = None


@dataclass(slots=True)
class CheckedProgram:
    """A type-correct program plus its resolution tables."""

    program: ast.Program
    classes: dict[str, ClassType]
    class_decls: dict[str, ast.ClassDecl]
    methods: dict[str, MethodSig]  # keyed 'Class.method'
    natives: dict[str, NativeSig]
    registry: IntrinsicRegistry
    runtime_params: list[VarSymbol] = field(default_factory=list)

    def field_type(self, class_name: str, field_name: str) -> Type:
        decl = self.class_decls[class_name]
        for f in decl.fields:
            if f.name == field_name:
                return _TypeResolver(self).resolve(f.decl_type)
        raise KeyError(f"{class_name} has no field {field_name}")

    def pipelined_loops(self) -> list[tuple[ast.MethodDecl, ast.PipelinedLoop]]:
        return ast.find_pipelined_loops(self.program)


class _TypeResolver:
    """Turns source :class:`TypeNode` syntax into resolved :class:`Type`."""

    def __init__(self, ctx: "CheckedProgram | Checker") -> None:
        self.classes = ctx.classes

    def resolve(self, node: ast.TypeNode) -> Type:
        base: Type
        if node.name in PRIMITIVES:
            base = PRIMITIVES[node.name]
        elif node.name == "Rectdomain":
            if node.elem is None:
                raise SemanticError(
                    "Rectdomain type must name its element class: Rectdomain<k, Elem>",
                    node.span,
                )
            elem = self.classes.get(node.elem)
            if elem is None:
                raise SemanticError(f"unknown class '{node.elem}'", node.span)
            base = RectdomainType(dim=node.dim, elem=elem)
        else:
            cls = self.classes.get(node.name)
            if cls is None:
                raise SemanticError(f"unknown type '{node.name}'", node.span)
            base = cls
        for _ in range(node.array_depth):
            base = ArrayType(base)
        return base


class Checker:
    """Single-use semantic analyzer; call :meth:`check`."""

    def __init__(self, program: ast.Program, registry: IntrinsicRegistry) -> None:
        self.program = program
        self.registry = registry
        self.classes: dict[str, ClassType] = {}
        self.class_decls: dict[str, ast.ClassDecl] = {}
        self.methods: dict[str, MethodSig] = {}
        self.natives: dict[str, NativeSig] = {}
        self.runtime_params: list[VarSymbol] = []
        #: one set per enclosing foreach, innermost last: the variables
        #: declared inside it (its loop variable included)
        self._foreach_locals: list[set[VarSymbol]] = []
        self._current_ret: Type = VOID

    # ------------------------------------------------------------------ api
    def check(self) -> CheckedProgram:
        self._collect_classes()
        resolver = _TypeResolver(self)
        self._collect_signatures(resolver)
        for cls in self.program.classes:
            for meth in cls.methods:
                self._check_method(cls, meth, resolver)
        return CheckedProgram(
            program=self.program,
            classes=self.classes,
            class_decls=self.class_decls,
            methods=self.methods,
            natives=self.natives,
            registry=self.registry,
            runtime_params=self.runtime_params,
        )

    # ----------------------------------------------------------- table build
    def _collect_classes(self) -> None:
        for cls in self.program.classes:
            if cls.name in self.classes:
                raise SemanticError(f"duplicate class '{cls.name}'", cls.span)
            for iface in cls.implements:
                if iface != "Reducinterface":
                    raise SemanticError(
                        f"unknown interface '{iface}' (only Reducinterface is defined)",
                        cls.span,
                    )
            self.classes[cls.name] = ClassType(cls.name, cls.is_reduction)
            self.class_decls[cls.name] = cls
        # reject duplicate fields
        for cls in self.program.classes:
            seen: set[str] = set()
            for f in cls.fields:
                if f.name in seen:
                    raise SemanticError(
                        f"duplicate field '{f.name}' in class '{cls.name}'", f.span
                    )
                seen.add(f.name)

    def _collect_signatures(self, resolver: _TypeResolver) -> None:
        for cls in self.program.classes:
            for meth in cls.methods:
                key = f"{cls.name}.{meth.name}"
                if key in self.methods:
                    raise SemanticError(f"duplicate method '{key}'", meth.span)
                self.methods[key] = MethodSig(
                    name=meth.name,
                    owner=cls.name,
                    param_types=[resolver.resolve(p.decl_type) for p in meth.params],
                    ret_type=resolver.resolve(meth.ret_type),
                    decl=meth,
                )
        for nat in self.program.natives:
            if nat.name in self.natives:
                raise SemanticError(f"duplicate native '{nat.name}'", nat.span)
            self.natives[nat.name] = NativeSig(
                name=nat.name,
                param_types=[resolver.resolve(p.decl_type) for p in nat.params],
                ret_type=resolver.resolve(nat.ret_type),
                decl=nat,
                intrinsic=self.registry.lookup(nat.name),
            )

    # ------------------------------------------------------------- methods
    def _check_method(
        self, cls: ast.ClassDecl, meth: ast.MethodDecl, resolver: _TypeResolver
    ) -> None:
        scope = Scope()
        # 'this' fields are visible unqualified inside methods
        for f in cls.fields:
            scope.define(
                VarSymbol(
                    f.name, resolver.resolve(f.decl_type), kind="field", owner=cls.name
                )
            )
        scope = scope.child()
        for p in meth.params:
            sym = VarSymbol(p.name, resolver.resolve(p.decl_type), kind="param")
            p.symbol = sym
            scope.define(sym)
        self._current_ret = self.methods[f"{cls.name}.{meth.name}"].ret_type
        self._resolver = resolver
        self._check_block(meth.body, scope)

    # ------------------------------------------------------------ statements
    def _check_block(self, block: ast.Block, scope: Scope) -> None:
        inner = scope.child()
        for stmt in block.body:
            self._check_stmt(stmt, inner)

    def _check_stmt(self, stmt: ast.Stmt, scope: Scope) -> None:
        if isinstance(stmt, ast.Block):
            self._check_block(stmt, scope)
        elif isinstance(stmt, ast.VarDecl):
            self._check_var_decl(stmt, scope)
        elif isinstance(stmt, ast.Assign):
            self._check_assign(stmt, scope)
        elif isinstance(stmt, ast.ExprStmt):
            self._expr(stmt.expr, scope)
        elif isinstance(stmt, ast.If):
            cond = self._expr(stmt.cond, scope)
            self._require(cond == BOOLEAN, "if condition must be boolean", stmt.span)
            self._check_block(stmt.then, scope)
            if stmt.other is not None:
                self._check_block(stmt.other, scope)
        elif isinstance(stmt, ast.While):
            cond = self._expr(stmt.cond, scope)
            self._require(cond == BOOLEAN, "while condition must be boolean", stmt.span)
            self._check_block(stmt.body, scope)
        elif isinstance(stmt, ast.For):
            inner = scope.child()
            if stmt.init is not None:
                self._check_stmt(stmt.init, inner)
            if stmt.cond is not None:
                cond = self._expr(stmt.cond, inner)
                self._require(
                    cond == BOOLEAN, "for condition must be boolean", stmt.span
                )
            if stmt.update is not None:
                self._check_stmt(stmt.update, inner)
            self._check_block(stmt.body, inner)
        elif isinstance(stmt, ast.Foreach):
            self._check_foreach(stmt, scope)
        elif isinstance(stmt, ast.PipelinedLoop):
            self._check_pipelined(stmt, scope)
        elif isinstance(stmt, ast.Return):
            if stmt.value is None:
                self._require(
                    self._current_ret == VOID,
                    "non-void method must return a value",
                    stmt.span,
                )
            else:
                val = self._expr(stmt.value, scope)
                self._require(
                    assignable(self._current_ret, val),
                    f"cannot return {val} from method returning {self._current_ret}",
                    stmt.span,
                )
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            pass
        else:  # pragma: no cover - exhaustive over AST
            raise AssertionError(f"unhandled statement {type(stmt).__name__}")

    def _check_var_decl(self, stmt: ast.VarDecl, scope: Scope) -> None:
        decl_type = self._resolver.resolve(stmt.decl_type)
        if stmt.runtime_define:
            self._require(
                isinstance(decl_type, PrimType) and decl_type.is_integral(),
                "runtime_define variables must be integral scalars",
                stmt.span,
            )
        if stmt.init is not None:
            val = self._expr(stmt.init, scope)
            self._require(
                assignable(decl_type, val),
                f"cannot initialize {decl_type} variable '{stmt.name}' with {val}",
                stmt.span,
            )
        sym = VarSymbol(
            stmt.name,
            decl_type,
            kind="runtime" if stmt.runtime_define else "local",
            runtime_define=stmt.runtime_define,
        )
        if stmt.runtime_define:
            self.runtime_params.append(sym)
        if self._foreach_locals:
            self._foreach_locals[-1].add(sym)
        stmt.symbol = sym
        try:
            scope.define(sym)
        except KeyError:
            raise SemanticError(
                f"duplicate variable '{stmt.name}' in this scope", stmt.span
            ) from None

    def _check_assign(self, stmt: ast.Assign, scope: Scope) -> None:
        target = self._expr(stmt.target, scope, lvalue=True)
        value = self._expr(stmt.value, scope)
        if stmt.op:
            merged = promote(target, value)
            self._require(
                merged is not None and assignable(target, merged),
                f"cannot apply '{stmt.op}=' between {target} and {value}",
                stmt.span,
            )
        else:
            self._require(
                assignable(target, value),
                f"cannot assign {value} to {target}",
                stmt.span,
            )
        if self._foreach_locals:
            self._check_foreach_write(stmt)

    def _check_foreach_write(self, stmt: ast.Assign) -> None:
        """§3: foreach iterations are order-independent, and reduction
        updates are their only cross-iteration effect.  So inside a foreach
        an assignment may not target a variable declared outside the
        innermost foreach, a reduction variable, or an element's field."""
        target = stmt.target
        if isinstance(target, ast.Name):
            sym = target.symbol
            if not isinstance(sym, VarSymbol):
                return
            if sym.is_reduction:
                raise SemanticError(
                    f"reduction variable '{sym.name}' may only be updated through "
                    "its methods inside foreach",
                    stmt.span,
                )
            if sym not in self._foreach_locals[-1]:
                raise SemanticError(
                    f"foreach body may not assign to '{sym.name}', declared "
                    "outside the loop (iterations are order-independent; "
                    "fold across elements with a reduction)",
                    stmt.span,
                )
        elif (
            isinstance(target, ast.FieldAccess)
            and isinstance(target.obj, ast.Name)
            and isinstance(target.obj.symbol, VarSymbol)
            and target.obj.symbol.kind == "loopvar"
        ):
            raise SemanticError(
                f"element fields are read-only: cannot assign to "
                f"'{target.obj.symbol.name}.{target.field_name}'",
                stmt.span,
            )

    def _check_foreach(self, stmt: ast.Foreach, scope: Scope) -> None:
        domain = self._expr(stmt.domain, scope)
        self._require(
            isinstance(domain, RectdomainType),
            f"foreach must iterate a Rectdomain, got {domain}",
            stmt.span,
        )
        inner = scope.child()
        sym = VarSymbol(stmt.var, domain.elem, kind="loopvar")
        stmt.var_symbol = sym
        inner.define(sym)
        self._foreach_locals.append({sym})
        try:
            self._check_block(stmt.body, inner)
        finally:
            self._foreach_locals.pop()
        self._check_reduction_discipline(stmt)

    def _check_pipelined(self, stmt: ast.PipelinedLoop, scope: Scope) -> None:
        self._require(
            not self._foreach_locals,
            "PipelinedLoop may not be nested inside foreach",
            stmt.span,
        )
        domain = self._expr(stmt.domain, scope)
        self._require(
            isinstance(domain, RectdomainType),
            f"PipelinedLoop must iterate packets of a Rectdomain, got {domain}",
            stmt.span,
        )
        inner = scope.child()
        # the loop variable is one packet: a sub-collection of the same domain
        sym = VarSymbol(stmt.var, domain, kind="packetvar")
        stmt.var_symbol = sym
        inner.define(sym)
        self._check_block(stmt.body, inner)

    def _check_reduction_discipline(self, loop: ast.Foreach) -> None:
        """Inside a foreach, a reduction object may appear only as the
        receiver of a method call (a self-update).  This is the §3 rule that
        lets later phases treat reduction updates as associative+commutative.
        """
        allowed_receivers: set[int] = set()
        for expr in ast.walk_exprs(loop.body):
            if isinstance(expr, ast.MethodCall) and isinstance(expr.obj, ast.Name):
                sym = expr.obj.symbol
                if isinstance(sym, VarSymbol) and sym.is_reduction:
                    allowed_receivers.add(id(expr.obj))
        for expr in ast.walk_exprs(loop.body):
            if isinstance(expr, ast.Name):
                sym = expr.symbol
                if (
                    isinstance(sym, VarSymbol)
                    and sym.is_reduction
                    and id(expr) not in allowed_receivers
                ):
                    raise SemanticError(
                        f"reduction variable '{sym.name}' may only be used as a "
                        "method-call receiver inside foreach",
                        expr.span,
                    )

    # ---------------------------------------------------------- expressions
    def _require(self, ok: bool, message: str, span: SourceSpan) -> None:
        if not ok:
            raise SemanticError(message, span)

    def _expr(self, expr: ast.Expr, scope: Scope, lvalue: bool = False) -> Type:
        t = self._expr_inner(expr, scope, lvalue)
        expr.type = t
        return t

    def _expr_inner(self, expr: ast.Expr, scope: Scope, lvalue: bool) -> Type:
        if isinstance(expr, ast.IntLit):
            return INT
        if isinstance(expr, ast.FloatLit):
            return DOUBLE
        if isinstance(expr, ast.BoolLit):
            return BOOLEAN
        if isinstance(expr, ast.NullLit):
            return NULL
        if isinstance(expr, ast.StringLit):
            return PrimType("String")
        if isinstance(expr, ast.Name):
            sym = scope.lookup(expr.ident)
            if sym is None:
                raise SemanticError(f"undefined name '{expr.ident}'", expr.span)
            expr.symbol = sym
            return sym.type
        if isinstance(expr, ast.FieldAccess):
            obj = self._expr(expr.obj, scope)
            if isinstance(obj, ArrayType) and expr.field_name == "length":
                self._require(not lvalue, "array length is read-only", expr.span)
                return INT
            if isinstance(obj, ClassType):
                decl = self.class_decls.get(obj.name)
                if decl is not None:
                    for f in decl.fields:
                        if f.name == expr.field_name:
                            return self._resolver.resolve(f.decl_type)
                raise SemanticError(
                    f"class '{obj.name}' has no field '{expr.field_name}'", expr.span
                )
            raise SemanticError(f"cannot access field of {obj}", expr.span)
        if isinstance(expr, ast.Index):
            obj = self._expr(expr.obj, scope)
            idx = self._expr(expr.index, scope)
            self._require(
                isinstance(idx, PrimType) and idx.is_integral(),
                f"index must be integral, got {idx}",
                expr.index.span,
            )
            if isinstance(obj, ArrayType):
                return obj.elem
            if isinstance(obj, RectdomainType):
                return obj.elem
            raise SemanticError(f"cannot index {obj}", expr.span)
        if isinstance(expr, ast.Call):
            return self._check_call(expr, scope)
        if isinstance(expr, ast.MethodCall):
            return self._check_method_call(expr, scope)
        if isinstance(expr, ast.New):
            cls = self.classes.get(expr.class_name)
            if cls is None:
                raise SemanticError(f"unknown class '{expr.class_name}'", expr.span)
            for arg in expr.args:
                self._expr(arg, scope)
            return cls
        if isinstance(expr, ast.NewArray):
            elem = self._resolver.resolve(expr.elem_type)
            length = self._expr(expr.length, scope)
            self._require(
                isinstance(length, PrimType) and length.is_integral(),
                "array length must be integral",
                expr.span,
            )
            return ArrayType(elem)
        if isinstance(expr, ast.Unary):
            operand = self._expr(expr.operand, scope)
            if expr.op == "!":
                self._require(operand == BOOLEAN, "'!' needs boolean", expr.span)
                return BOOLEAN
            self._require(
                isinstance(operand, PrimType) and operand.is_numeric(),
                f"unary '-' needs a numeric operand, got {operand}",
                expr.span,
            )
            return operand
        if isinstance(expr, ast.Binary):
            return self._check_binary(expr, scope)
        if isinstance(expr, ast.Ternary):
            cond = self._expr(expr.cond, scope)
            self._require(cond == BOOLEAN, "ternary condition must be boolean", expr.span)
            then = self._expr(expr.then, scope)
            other = self._expr(expr.other, scope)
            merged = promote(then, other)
            if then == other:
                return then
            self._require(
                merged is not None, f"ternary arms disagree: {then} vs {other}", expr.span
            )
            return merged  # type: ignore[return-value]
        raise AssertionError(f"unhandled expression {type(expr).__name__}")

    def _check_binary(self, expr: ast.Binary, scope: Scope) -> Type:
        left = self._expr(expr.left, scope)
        right = self._expr(expr.right, scope)
        op = expr.op
        if op in ("&&", "||"):
            self._require(
                left == BOOLEAN and right == BOOLEAN,
                f"'{op}' needs boolean operands",
                expr.span,
            )
            return BOOLEAN
        if op in ("==", "!="):
            ok = (
                promote(left, right) is not None
                or left == right
                or NULL in (left, right)
            )
            self._require(ok, f"cannot compare {left} with {right}", expr.span)
            return BOOLEAN
        if op in ("<", "<=", ">", ">="):
            self._require(
                promote(left, right) is not None,
                f"cannot order {left} and {right}",
                expr.span,
            )
            return BOOLEAN
        if op == "%":
            self._require(
                isinstance(left, PrimType)
                and left.is_integral()
                and isinstance(right, PrimType)
                and right.is_integral(),
                "'%' needs integral operands",
                expr.span,
            )
            return promote(left, right)  # type: ignore[return-value]
        merged = promote(left, right)
        self._require(
            merged is not None and merged.is_numeric(),
            f"cannot apply '{op}' to {left} and {right}",
            expr.span,
        )
        return merged  # type: ignore[return-value]

    def _check_call(self, expr: ast.Call, scope: Scope) -> Type:
        arg_types = [self._expr(a, scope) for a in expr.args]
        nat = self.natives.get(expr.func)
        if nat is not None:
            self._check_args(expr.func, nat.param_types, arg_types, expr.span)
            expr.target_kind = "intrinsic"
            expr.target = nat
            return nat.ret_type
        # unqualified dialect method (any class; names are globally unique
        # per _collect_signatures when called unqualified)
        matches = [sig for sig in self.methods.values() if sig.name == expr.func]
        if len(matches) == 1:
            sig = matches[0]
            self._check_args(expr.func, sig.param_types, arg_types, expr.span)
            expr.target_kind = "method"
            expr.target = sig
            return sig.ret_type
        if len(matches) > 1:
            raise SemanticError(
                f"ambiguous unqualified call '{expr.func}' — defined in classes "
                + ", ".join(sorted(sig.owner for sig in matches)),
                expr.span,
            )
        raise SemanticError(f"unknown function '{expr.func}'", expr.span)

    def _check_method_call(self, expr: ast.MethodCall, scope: Scope) -> Type:
        obj = self._expr(expr.obj, scope)
        arg_types = [self._expr(a, scope) for a in expr.args]
        if isinstance(obj, RectdomainType):
            if expr.method == "size" and not arg_types:
                expr.target_kind = "domain_size"
                return INT
            raise SemanticError(
                f"Rectdomain has no method '{expr.method}'", expr.span
            )
        if isinstance(obj, ClassType):
            sig = self.methods.get(f"{obj.name}.{expr.method}")
            if sig is None:
                raise SemanticError(
                    f"class '{obj.name}' has no method '{expr.method}'", expr.span
                )
            self._check_args(expr.method, sig.param_types, arg_types, expr.span)
            expr.target_kind = "method"
            expr.target = sig
            return sig.ret_type
        raise SemanticError(f"cannot call a method on {obj}", expr.span)

    def _check_args(
        self,
        name: str,
        params: list[Type],
        args: list[Type],
        span: SourceSpan,
    ) -> None:
        if len(params) != len(args):
            raise SemanticError(
                f"'{name}' expects {len(params)} argument(s), got {len(args)}", span
            )
        for i, (p, a) in enumerate(zip(params, args)):
            if not assignable(p, a):
                raise SemanticError(
                    f"argument {i + 1} of '{name}': expected {p}, got {a}", span
                )


def check(program: ast.Program, registry: IntrinsicRegistry | None = None) -> CheckedProgram:
    """Type-check ``program`` against ``registry`` (may be empty)."""
    return Checker(program, registry or IntrinsicRegistry()).check()
