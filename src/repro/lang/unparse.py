"""Pretty-printer turning a dialect AST back into source text.

Only tests use it: parse → unparse → parse round-trips to an equal tree,
and the loop-fission tests read the rebuilt ``foreach`` loops back as
text.  Output is canonical: one statement per line, four-space indent,
fully parenthesized only where precedence requires it.
"""

from __future__ import annotations

from . import ast

_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3,
    "!=": 3,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
    "%": 6,
}

_UNARY_PREC = 7
_POSTFIX_PREC = 8


def unparse_type(node: ast.TypeNode) -> str:
    if node.name == "Rectdomain":
        base = f"Rectdomain<{node.dim}, {node.elem}>" if node.elem else f"Rectdomain<{node.dim}>"
    else:
        base = node.name
    return base + "[]" * node.array_depth


def unparse_expr(expr: ast.Expr, parent_prec: int = 0) -> str:
    text, prec = _expr(expr)
    if prec < parent_prec:
        return f"({text})"
    return text


def _expr(expr: ast.Expr) -> tuple[str, int]:
    if isinstance(expr, ast.IntLit):
        return str(expr.value), _POSTFIX_PREC
    if isinstance(expr, ast.FloatLit):
        text = repr(expr.value)
        if "e" not in text and "." not in text and "inf" not in text:
            text += ".0"
        return text, _POSTFIX_PREC
    if isinstance(expr, ast.BoolLit):
        return ("true" if expr.value else "false"), _POSTFIX_PREC
    if isinstance(expr, ast.NullLit):
        return "null", _POSTFIX_PREC
    if isinstance(expr, ast.StringLit):
        escaped = expr.value.replace("\\", "\\\\").replace('"', '\\"').replace(
            "\n", "\\n"
        ).replace("\t", "\\t")
        return f'"{escaped}"', _POSTFIX_PREC
    if isinstance(expr, ast.Name):
        return expr.ident, _POSTFIX_PREC
    if isinstance(expr, ast.FieldAccess):
        return f"{unparse_expr(expr.obj, _POSTFIX_PREC)}.{expr.field_name}", _POSTFIX_PREC
    if isinstance(expr, ast.Index):
        return (
            f"{unparse_expr(expr.obj, _POSTFIX_PREC)}[{unparse_expr(expr.index)}]",
            _POSTFIX_PREC,
        )
    if isinstance(expr, ast.Call):
        args = ", ".join(unparse_expr(a) for a in expr.args)
        return f"{expr.func}({args})", _POSTFIX_PREC
    if isinstance(expr, ast.MethodCall):
        args = ", ".join(unparse_expr(a) for a in expr.args)
        return (
            f"{unparse_expr(expr.obj, _POSTFIX_PREC)}.{expr.method}({args})",
            _POSTFIX_PREC,
        )
    if isinstance(expr, ast.New):
        args = ", ".join(unparse_expr(a) for a in expr.args)
        return f"new {expr.class_name}({args})", _POSTFIX_PREC
    if isinstance(expr, ast.NewArray):
        return (
            f"new {unparse_type(expr.elem_type)}[{unparse_expr(expr.length)}]",
            _POSTFIX_PREC,
        )
    if isinstance(expr, ast.Unary):
        return f"{expr.op}{unparse_expr(expr.operand, _UNARY_PREC)}", _UNARY_PREC
    if isinstance(expr, ast.Binary):
        prec = _PRECEDENCE[expr.op]
        left = unparse_expr(expr.left, prec)
        right = unparse_expr(expr.right, prec + 1)  # left-associative
        return f"{left} {expr.op} {right}", prec
    if isinstance(expr, ast.Ternary):
        return (
            f"{unparse_expr(expr.cond, 1)} ? {unparse_expr(expr.then)} : "
            f"{unparse_expr(expr.other)}",
            0,
        )
    raise AssertionError(f"unhandled expression {type(expr).__name__}")


class _Printer:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 0

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self.emit("{")
            self.depth += 1
            for inner in stmt.body:
                self.stmt(inner)
            self.depth -= 1
            self.emit("}")
        elif isinstance(stmt, ast.VarDecl):
            prefix = "runtime_define " if stmt.runtime_define else ""
            text = f"{prefix}{unparse_type(stmt.decl_type)} {stmt.name}"
            if stmt.init is not None:
                text += f" = {unparse_expr(stmt.init)}"
            self.emit(text + ";")
        elif isinstance(stmt, ast.Assign):
            self.emit(
                f"{unparse_expr(stmt.target)} {stmt.op}= {unparse_expr(stmt.value)};"
            )
        elif isinstance(stmt, ast.ExprStmt):
            self.emit(f"{unparse_expr(stmt.expr)};")
        elif isinstance(stmt, ast.If):
            self.emit(f"if ({unparse_expr(stmt.cond)})")
            self.stmt(stmt.then)
            if stmt.other is not None:
                self.emit("else")
                self.stmt(stmt.other)
        elif isinstance(stmt, ast.While):
            self.emit(f"while ({unparse_expr(stmt.cond)})")
            self.stmt(stmt.body)
        elif isinstance(stmt, ast.For):
            init = self._inline(stmt.init) if stmt.init else ""
            cond = unparse_expr(stmt.cond) if stmt.cond else ""
            update = self._inline(stmt.update) if stmt.update else ""
            self.emit(f"for ({init}; {cond}; {update})")
            self.stmt(stmt.body)
        elif isinstance(stmt, ast.Foreach):
            self.emit(f"foreach ({stmt.var} in {unparse_expr(stmt.domain)})")
            self.stmt(stmt.body)
        elif isinstance(stmt, ast.PipelinedLoop):
            self.emit(f"PipelinedLoop ({stmt.var} in {unparse_expr(stmt.domain)})")
            self.stmt(stmt.body)
        elif isinstance(stmt, ast.Return):
            if stmt.value is None:
                self.emit("return;")
            else:
                self.emit(f"return {unparse_expr(stmt.value)};")
        elif isinstance(stmt, ast.Break):
            self.emit("break;")
        elif isinstance(stmt, ast.Continue):
            self.emit("continue;")
        else:  # pragma: no cover
            raise AssertionError(f"unhandled statement {type(stmt).__name__}")

    def _inline(self, stmt: ast.Stmt) -> str:
        """Render a for-header clause without indentation or ';'."""
        sub = _Printer()
        sub.stmt(stmt)
        text = " ".join(line.strip() for line in sub.lines)
        return text.rstrip(";")


def unparse(program: ast.Program) -> str:
    """Render a whole program as canonical dialect source."""
    printer = _Printer()
    for nat in program.natives:
        params = ", ".join(
            f"{unparse_type(p.decl_type)} {p.name}" for p in nat.params
        )
        printer.emit(f"native {unparse_type(nat.ret_type)} {nat.name}({params});")
    for cls in program.classes:
        heading = f"class {cls.name}"
        if cls.implements:
            heading += " implements " + ", ".join(cls.implements)
        printer.emit(heading + " {")
        printer.depth += 1
        for fld in cls.fields:
            printer.emit(f"{unparse_type(fld.decl_type)} {fld.name};")
        for meth in cls.methods:
            params = ", ".join(
                f"{unparse_type(p.decl_type)} {p.name}" for p in meth.params
            )
            printer.emit(f"{unparse_type(meth.ret_type)} {meth.name}({params})")
            printer.stmt(meth.body)
        printer.depth -= 1
        printer.emit("}")
    return "\n".join(printer.lines) + "\n"


def unparse_stmt(stmt: ast.Stmt) -> str:
    """Render a single statement (used by fission diagnostics and tests)."""
    printer = _Printer()
    printer.stmt(stmt)
    return "\n".join(printer.lines)
