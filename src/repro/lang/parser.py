"""Parser for the pipeline dialect: recursive descent for declarations
and statements, precedence climbing for binary expressions.

Grammar (EBNF, ``//`` comments and whitespace elided by the lexer)::

    program     := (class_decl | native_decl)*
    native_decl := 'native' type IDENT '(' params? ')' ';'
    class_decl  := 'class' IDENT ('implements' IDENT (',' IDENT)*)?
                   '{' (field_decl | method_decl)* '}'
    field_decl  := type IDENT (',' IDENT)* ';'
    method_decl := type IDENT '(' params? ')' block
    params      := type IDENT (',' type IDENT)*
    type        := (prim | IDENT) ('[' ']')*
                 | 'Rectdomain' '<' INT (',' IDENT)? '>' ('[' ']')*
    block       := '{' stmt* '}'
    stmt        := block | var_decl ';' | if | while | for | foreach
                 | pipelined | 'return' expr? ';' | 'break' ';'
                 | 'continue' ';' | assign_or_expr ';'
    var_decl    := 'runtime_define'? type IDENT ('=' expr)?
    if          := 'if' '(' expr ')' stmt ('else' stmt)?
    while       := 'while' '(' expr ')' stmt
    for         := 'for' '(' simple? ';' expr? ';' simple? ')' stmt
    foreach     := 'foreach' '(' IDENT 'in' expr ')' stmt
    pipelined   := 'PipelinedLoop' '(' IDENT 'in' expr ')' stmt
    simple      := var_decl | assign_or_expr
    assign_or_expr := expr (('='|'+='|'-='|'*='|'/=') expr)?

Expressions use conventional precedence: ``?:``, ``||``, ``&&``, equality,
relational, additive, multiplicative, unary, postfix
(call / field / index), primary.  The five binary levels are one table,
:data:`_BINARY`, climbed by :meth:`Parser._binary`.  ``new T(args)``
allocates an object; ``new T[len]`` an array.

The parser is deterministic with two-token lookahead (needed to tell a
declaration ``T x`` from an expression statement starting with an
identifier).
"""

from __future__ import annotations

from . import ast
from .errors import ParseError
from .tokens import AUG_ASSIGN_OPS, PRIMITIVE_KINDS, Token, TokKind
from .lexer import tokenize


#: binary operator token -> (precedence, spelling), loosest first; every
#: level is left-associative (``?:`` sits above all of them, unary below)
_BINARY: dict[TokKind, tuple[int, str]] = {
    TokKind.OR: (1, "||"),
    TokKind.AND: (2, "&&"),
    TokKind.EQ: (3, "=="),
    TokKind.NE: (3, "!="),
    TokKind.LT: (4, "<"),
    TokKind.LE: (4, "<="),
    TokKind.GT: (4, ">"),
    TokKind.GE: (4, ">="),
    TokKind.PLUS: (5, "+"),
    TokKind.MINUS: (5, "-"),
    TokKind.STAR: (6, "*"),
    TokKind.SLASH: (6, "/"),
    TokKind.PERCENT: (6, "%"),
}

#: literal token -> its node
_LITERALS = {
    TokKind.INT: lambda tok: ast.IntLit(value=int(tok.text), span=tok.span),
    TokKind.FLOAT: lambda tok: ast.FloatLit(value=float(tok.text), span=tok.span),
    TokKind.STRING: lambda tok: ast.StringLit(value=tok.text, span=tok.span),
    TokKind.KW_TRUE: lambda tok: ast.BoolLit(value=True, span=tok.span),
    TokKind.KW_FALSE: lambda tok: ast.BoolLit(value=False, span=tok.span),
    TokKind.KW_NULL: lambda tok: ast.NullLit(span=tok.span),
}


class Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.toks = tokens
        self.pos = 0

    # ------------------------------------------------------------------ api
    @staticmethod
    def parse_source(source: str) -> ast.Program:
        return Parser(tokenize(source)).parse_program()

    # -------------------------------------------------------------- helpers
    # The token list always ends with EOF and ``pos`` never moves past it,
    # so ``toks[pos]`` is always valid; only lookahead needs a bound.
    def _peek(self, offset: int = 0) -> Token:
        if offset:
            return self.toks[min(self.pos + offset, len(self.toks) - 1)]
        return self.toks[self.pos]

    def _at(self, kind: TokKind, offset: int = 0) -> bool:
        return self._peek(offset).kind is kind

    def _advance(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind is not TokKind.EOF:
            self.pos += 1
        return tok

    def _expect(self, kind: TokKind, context: str = "") -> Token:
        tok = self.toks[self.pos]
        if tok.kind is not kind:
            where = f" in {context}" if context else ""
            raise ParseError(
                f"expected {kind.value!r} but found {tok.text or tok.kind.value!r}{where}",
                tok.span,
            )
        if kind is not TokKind.EOF:
            self.pos += 1
        return tok

    def _accept(self, kind: TokKind) -> Token | None:
        tok = self.toks[self.pos]
        if tok.kind is kind:
            if kind is not TokKind.EOF:
                self.pos += 1
            return tok
        return None

    # ------------------------------------------------------------- program
    def parse_program(self) -> ast.Program:
        classes: list[ast.ClassDecl] = []
        natives: list[ast.NativeDecl] = []
        first = self._peek().span
        while not self._at(TokKind.EOF):
            if self._at(TokKind.KW_CLASS):
                classes.append(self._class_decl())
            elif self._at(TokKind.KW_NATIVE):
                natives.append(self._native_decl())
            else:
                tok = self._peek()
                raise ParseError(
                    f"expected 'class' or 'native' at top level, found {tok.text!r}",
                    tok.span,
                )
        return ast.Program(classes=classes, natives=natives, span=first)

    def _native_decl(self) -> ast.NativeDecl:
        start = self._expect(TokKind.KW_NATIVE).span
        ret = self._type()
        name = self._expect(TokKind.IDENT, "native declaration").text
        params = self._param_list()
        self._expect(TokKind.SEMI, "native declaration")
        return ast.NativeDecl(ret_type=ret, name=name, params=params, span=start)

    def _class_decl(self) -> ast.ClassDecl:
        start = self._expect(TokKind.KW_CLASS).span
        name = self._expect(TokKind.IDENT, "class declaration").text
        implements: list[str] = []
        if self._accept(TokKind.KW_IMPLEMENTS):
            implements.append(self._expect(TokKind.IDENT).text)
            while self._accept(TokKind.COMMA):
                implements.append(self._expect(TokKind.IDENT).text)
        self._expect(TokKind.LBRACE, "class body")
        fields: list[ast.FieldDecl] = []
        methods: list[ast.MethodDecl] = []
        while not self._at(TokKind.RBRACE):
            member_type = self._type()
            member_name = self._expect(TokKind.IDENT, "class member").text
            if self._at(TokKind.LPAREN):
                params = self._param_list()
                body = self._block()
                methods.append(
                    ast.MethodDecl(
                        ret_type=member_type,
                        name=member_name,
                        params=params,
                        body=body,
                        span=member_type.span,
                        owner=name,
                    )
                )
            else:
                fields.append(
                    ast.FieldDecl(member_type, member_name, span=member_type.span)
                )
                while self._accept(TokKind.COMMA):
                    extra = self._expect(TokKind.IDENT, "field declaration").text
                    fields.append(
                        ast.FieldDecl(member_type, extra, span=member_type.span)
                    )
                self._expect(TokKind.SEMI, "field declaration")
        self._expect(TokKind.RBRACE, "class body")
        return ast.ClassDecl(
            name=name, implements=implements, fields=fields, methods=methods, span=start
        )

    def _param_list(self) -> list[ast.Param]:
        self._expect(TokKind.LPAREN, "parameter list")
        params: list[ast.Param] = []
        if not self._at(TokKind.RPAREN):
            while True:
                ptype = self._type()
                pname = self._expect(TokKind.IDENT, "parameter").text
                params.append(ast.Param(ptype, pname, span=ptype.span))
                if not self._accept(TokKind.COMMA):
                    break
        self._expect(TokKind.RPAREN, "parameter list")
        return params

    # ---------------------------------------------------------------- types
    def _type(self) -> ast.TypeNode:
        tok = self.toks[self.pos]
        if tok.kind in PRIMITIVE_KINDS:
            self.pos += 1
            node = ast.TypeNode(name=tok.text, span=tok.span)
        elif tok.kind is TokKind.KW_RECTDOMAIN:
            self._advance()
            self._expect(TokKind.LT, "Rectdomain type")
            dim_tok = self._expect(TokKind.INT, "Rectdomain dimension")
            elem = None
            if self._accept(TokKind.COMMA):
                elem = self._expect(TokKind.IDENT, "Rectdomain element class").text
            self._expect(TokKind.GT, "Rectdomain type")
            node = ast.TypeNode(
                name="Rectdomain", dim=int(dim_tok.text), elem=elem, span=tok.span
            )
        elif tok.kind is TokKind.IDENT:
            self.pos += 1
            node = ast.TypeNode(name=tok.text, span=tok.span)
        else:
            raise ParseError(f"expected a type, found {tok.text!r}", tok.span)
        toks = self.toks
        while (
            toks[self.pos].kind is TokKind.LBRACKET
            and toks[self.pos + 1].kind is TokKind.RBRACKET  # EOF-bounded
        ):
            self.pos += 2
            node.array_depth += 1
        return node

    # ----------------------------------------------------------- statements
    def _block(self) -> ast.Block:
        start = self._expect(TokKind.LBRACE, "block").span
        body: list[ast.Stmt] = []
        while not self._at(TokKind.RBRACE):
            body.append(self._statement())
        self._expect(TokKind.RBRACE, "block")
        return ast.Block(body=body, span=start)

    def _stmt_as_block(self) -> ast.Block:
        """Loop/conditional bodies are normalized to blocks."""
        if self._at(TokKind.LBRACE):
            return self._block()
        stmt = self._statement()
        return ast.Block(body=[stmt], span=stmt.span)

    def _looks_like_decl(self) -> bool:
        """Distinguish ``T x ...`` from an expression statement.  True for
        primitives, Rectdomain, ``runtime_define``, ``Ident Ident`` and
        ``Ident [ ] Ident`` shapes."""
        kind = self._peek().kind
        if kind is TokKind.KW_RUNTIME_DEFINE:
            return True
        if kind in PRIMITIVE_KINDS or kind is TokKind.KW_RECTDOMAIN:
            return True
        if kind is TokKind.IDENT:
            offset = 1
            while (
                self._at(TokKind.LBRACKET, offset)
                and self._at(TokKind.RBRACKET, offset + 1)
            ):
                offset += 2
            return self._at(TokKind.IDENT, offset)
        return False

    def _statement(self) -> ast.Stmt:
        tok = self._peek()
        kind = tok.kind
        if kind is TokKind.LBRACE:
            return self._block()
        if kind is TokKind.KW_IF:
            return self._if_stmt()
        if kind is TokKind.KW_WHILE:
            return self._while_stmt()
        if kind is TokKind.KW_FOR:
            return self._for_stmt()
        if kind is TokKind.KW_FOREACH:
            return self._foreach_stmt()
        if kind is TokKind.KW_PIPELINED:
            return self._pipelined_stmt()
        if kind is TokKind.KW_RETURN:
            self._advance()
            value = None if self._at(TokKind.SEMI) else self._expression()
            self._expect(TokKind.SEMI, "return statement")
            return ast.Return(value=value, span=tok.span)
        if kind is TokKind.KW_BREAK:
            self._advance()
            self._expect(TokKind.SEMI, "break statement")
            return ast.Break(span=tok.span)
        if kind is TokKind.KW_CONTINUE:
            self._advance()
            self._expect(TokKind.SEMI, "continue statement")
            return ast.Continue(span=tok.span)
        stmt = self._simple_statement()
        self._expect(TokKind.SEMI, "statement")
        return stmt

    def _simple_statement(self) -> ast.Stmt:
        """A declaration, assignment, or expression — no trailing ';'."""
        if self._looks_like_decl():
            return self._var_decl()
        expr = self._expression()
        tok = self._peek()
        if tok.kind is TokKind.ASSIGN or tok.kind in AUG_ASSIGN_OPS:
            self._advance()
            op = "" if tok.kind is TokKind.ASSIGN else AUG_ASSIGN_OPS[tok.kind]
            if not isinstance(expr, (ast.Name, ast.FieldAccess, ast.Index)):
                raise ParseError("invalid assignment target", expr.span)
            value = self._expression()
            return ast.Assign(target=expr, op=op, value=value, span=expr.span)
        return ast.ExprStmt(expr=expr, span=expr.span)

    def _var_decl(self) -> ast.VarDecl:
        runtime = self._accept(TokKind.KW_RUNTIME_DEFINE) is not None
        decl_type = self._type()
        name = self._expect(TokKind.IDENT, "variable declaration").text
        init = None
        if self._accept(TokKind.ASSIGN):
            init = self._expression()
        return ast.VarDecl(
            decl_type=decl_type,
            name=name,
            init=init,
            runtime_define=runtime,
            span=decl_type.span,
        )

    def _if_stmt(self) -> ast.If:
        start = self._expect(TokKind.KW_IF).span
        self._expect(TokKind.LPAREN, "if condition")
        cond = self._expression()
        self._expect(TokKind.RPAREN, "if condition")
        then = self._stmt_as_block()
        other = None
        if self._accept(TokKind.KW_ELSE):
            other = self._stmt_as_block()
        return ast.If(cond=cond, then=then, other=other, span=start)

    def _while_stmt(self) -> ast.While:
        start = self._expect(TokKind.KW_WHILE).span
        self._expect(TokKind.LPAREN, "while condition")
        cond = self._expression()
        self._expect(TokKind.RPAREN, "while condition")
        body = self._stmt_as_block()
        return ast.While(cond=cond, body=body, span=start)

    def _for_stmt(self) -> ast.For:
        start = self._expect(TokKind.KW_FOR).span
        self._expect(TokKind.LPAREN, "for header")
        init = None if self._at(TokKind.SEMI) else self._simple_statement()
        self._expect(TokKind.SEMI, "for header")
        cond = None if self._at(TokKind.SEMI) else self._expression()
        self._expect(TokKind.SEMI, "for header")
        update = None if self._at(TokKind.RPAREN) else self._simple_statement()
        self._expect(TokKind.RPAREN, "for header")
        body = self._stmt_as_block()
        return ast.For(init=init, cond=cond, update=update, body=body, span=start)

    def _foreach_stmt(self) -> ast.Foreach:
        start = self._expect(TokKind.KW_FOREACH).span
        self._expect(TokKind.LPAREN, "foreach header")
        var = self._expect(TokKind.IDENT, "foreach variable").text
        self._expect(TokKind.KW_IN, "foreach header")
        domain = self._expression()
        self._expect(TokKind.RPAREN, "foreach header")
        body = self._stmt_as_block()
        return ast.Foreach(var=var, domain=domain, body=body, span=start)

    def _pipelined_stmt(self) -> ast.PipelinedLoop:
        start = self._expect(TokKind.KW_PIPELINED).span
        self._expect(TokKind.LPAREN, "PipelinedLoop header")
        var = self._expect(TokKind.IDENT, "PipelinedLoop variable").text
        self._expect(TokKind.KW_IN, "PipelinedLoop header")
        domain = self._expression()
        self._expect(TokKind.RPAREN, "PipelinedLoop header")
        body = self._stmt_as_block()
        return ast.PipelinedLoop(var=var, domain=domain, body=body, span=start)

    # ---------------------------------------------------------- expressions
    def _expression(self) -> ast.Expr:
        """``?:`` over a binary expression; the ternary's branches are full
        expressions, so it is right-associative."""
        cond = self._binary(1)
        if self.toks[self.pos].kind is TokKind.QUESTION:
            self.pos += 1
            then = self._expression()
            self._expect(TokKind.COLON, "ternary expression")
            other = self._expression()
            return ast.Ternary(cond=cond, then=then, other=other, span=cond.span)
        return cond

    def _binary(self, min_prec: int) -> ast.Expr:
        """Precedence climbing over :data:`_BINARY`: every operator is
        left-associative, and a ``Binary``'s span is its left operand's."""
        left = self._unary()
        toks = self.toks
        while True:
            entry = _BINARY.get(toks[self.pos].kind)
            if entry is None or entry[0] < min_prec:
                return left
            prec, op = entry
            self.pos += 1
            right = self._binary(prec + 1)
            left = ast.Binary(op=op, left=left, right=right, span=left.span)

    def _unary(self) -> ast.Expr:
        tok = self.toks[self.pos]
        if tok.kind is TokKind.MINUS or tok.kind is TokKind.NOT:
            self.pos += 1
            operand = self._unary()
            return ast.Unary(op=tok.text, operand=operand, span=tok.span)
        return self._postfix()

    def _postfix(self) -> ast.Expr:
        expr = self._primary()
        toks = self.toks
        while True:
            kind = toks[self.pos].kind
            if kind is TokKind.DOT:
                self.pos += 1
                name = self._expect(TokKind.IDENT, "member access").text
                if toks[self.pos].kind is TokKind.LPAREN:
                    args = self._arg_list()
                    expr = ast.MethodCall(
                        obj=expr, method=name, args=args, span=expr.span
                    )
                else:
                    expr = ast.FieldAccess(obj=expr, field_name=name, span=expr.span)
            elif kind is TokKind.LBRACKET:
                self.pos += 1
                index = self._expression()
                self._expect(TokKind.RBRACKET, "index expression")
                expr = ast.Index(obj=expr, index=index, span=expr.span)
            else:
                return expr

    def _arg_list(self) -> list[ast.Expr]:
        self._expect(TokKind.LPAREN, "argument list")
        args: list[ast.Expr] = []
        if not self._at(TokKind.RPAREN):
            while True:
                args.append(self._expression())
                if not self._accept(TokKind.COMMA):
                    break
        self._expect(TokKind.RPAREN, "argument list")
        return args

    def _primary(self) -> ast.Expr:
        tok = self.toks[self.pos]
        kind = tok.kind
        if kind is TokKind.IDENT:
            self.pos += 1
            if self.toks[self.pos].kind is TokKind.LPAREN:
                args = self._arg_list()
                return ast.Call(func=tok.text, args=args, span=tok.span)
            return ast.Name(ident=tok.text, span=tok.span)
        literal = _LITERALS.get(kind)
        if literal is not None:
            self.pos += 1
            return literal(tok)
        if kind is TokKind.LPAREN:
            self.pos += 1
            inner = self._expression()
            self._expect(TokKind.RPAREN, "parenthesized expression")
            return inner
        if kind is TokKind.KW_NEW:
            return self._new_expr()
        raise ParseError(
            f"expected an expression, found {tok.text or tok.kind.value!r}", tok.span
        )

    def _new_expr(self) -> ast.Expr:
        start = self._expect(TokKind.KW_NEW).span
        base = self._type_base_for_new()
        if self._at(TokKind.LBRACKET):
            self._advance()
            length = self._expression()
            self._expect(TokKind.RBRACKET, "array allocation")
            return ast.NewArray(elem_type=base, length=length, span=start)
        args = self._arg_list() if self._at(TokKind.LPAREN) else []
        if base.array_depth or base.name == "Rectdomain":
            raise ParseError("cannot 'new' this type with constructor syntax", start)
        return ast.New(class_name=base.name, args=args, span=start)

    def _type_base_for_new(self) -> ast.TypeNode:
        tok = self._peek()
        if tok.kind in PRIMITIVE_KINDS or tok.kind is TokKind.IDENT:
            self._advance()
            return ast.TypeNode(name=tok.text, span=tok.span)
        raise ParseError(f"expected a type after 'new', found {tok.text!r}", tok.span)


def parse(source: str) -> ast.Program:
    """Parse dialect source text into a :class:`repro.lang.ast.Program`."""
    return Parser.parse_source(source)
