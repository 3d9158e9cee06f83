"""Semantic-analysis tests: typing, name resolution, dialect rules (§3)."""

import pytest

from repro.lang import check, parse
from repro.lang.errors import SemanticError
from repro.lang.types import BOOLEAN, DOUBLE, RectdomainType

from .test_vectorize import _PRELUDE as _VPRELUDE

PRELUDE = """
native Rectdomain<1, E> read();
class E { double v; double w; }
class Acc implements Reducinterface {
    double[] total;
    void add(double x) { return; }
    void merge(Acc other) { return; }
}
"""


def check_body(body: str, params: str = ""):
    return check(parse(PRELUDE + "class M { void f(%s) { %s } }" % (params, body)))


class TestTyping:
    def test_numeric_promotion(self):
        checked = check_body("int i = 1; double d = i + 2.5;")
        assert checked is not None

    def test_narrowing_rejected(self):
        with pytest.raises(SemanticError, match="cannot initialize"):
            check_body("int i = 2.5;")

    def test_condition_must_be_boolean(self):
        with pytest.raises(SemanticError, match="must be boolean"):
            check_body("if (1) { int x = 0; }")

    def test_modulo_requires_integral(self):
        with pytest.raises(SemanticError, match="integral"):
            check_body("double d = 1.5 % 2.0;")

    def test_array_indexing_and_length(self):
        checked = check_body("double[] xs = new double[4]; double v = xs[0]; int n = xs.length;")
        assert checked is not None

    def test_index_must_be_integral(self):
        with pytest.raises(SemanticError, match="integral"):
            check_body("double[] xs = new double[4]; double v = xs[1.5];")

    def test_field_access_and_unknown_field(self):
        check_body("E e = new E(); double v = e.v;")
        with pytest.raises(SemanticError, match="no field 'q'"):
            check_body("E e = new E(); double v = e.q;")

    def test_undefined_name(self):
        with pytest.raises(SemanticError, match="undefined name"):
            check_body("int x = missing;")

    def test_duplicate_variable_in_scope(self):
        with pytest.raises(SemanticError, match="duplicate variable"):
            check_body("int x = 1; int x = 2;")

    def test_shadowing_in_inner_scope_allowed(self):
        check_body("int x = 1; if (x > 0) { int y = 2; } int y = 3;")

    def test_return_type_checked(self):
        with pytest.raises(SemanticError, match="cannot return"):
            check(parse(PRELUDE + "class M { int f() { return 1.5; } }"))

    def test_ternary_arms_promote(self):
        check_body("double d = true ? 1 : 2.5;")

    def test_unknown_class_rejected(self):
        with pytest.raises(SemanticError, match="unknown type"):
            check_body("Missing m = null;")

    def test_runtime_define_must_be_integral(self):
        with pytest.raises(SemanticError, match="integral"):
            check_body("runtime_define double d;")

    def test_runtime_params_collected(self):
        checked = check_body("runtime_define int n;")
        assert [s.name for s in checked.runtime_params] == ["n"]


class TestCallsAndMethods:
    def test_native_call_resolved(self):
        checked = check_body("Rectdomain<1, E> d = read();")
        assert checked is not None

    def test_native_arity_checked(self):
        with pytest.raises(SemanticError, match="expects 0 argument"):
            check_body("Rectdomain<1, E> d = read(3);")

    def test_method_call_on_object(self):
        check_body("Acc a = new Acc(); a.add(1.0);")

    def test_method_argument_type_checked(self):
        with pytest.raises(SemanticError, match="argument 1"):
            check_body("Acc a = new Acc(); a.add(a);")

    def test_unknown_method(self):
        with pytest.raises(SemanticError, match="no method"):
            check_body("Acc a = new Acc(); a.nope();")

    def test_domain_size(self):
        check_body("int n = d.size();", params="Rectdomain<1, E> d")

    def test_unknown_function(self):
        with pytest.raises(SemanticError, match="unknown function"):
            check_body("int x = nothing();")


class TestDialectRules:
    def test_foreach_requires_rectdomain(self):
        with pytest.raises(SemanticError, match="must iterate a Rectdomain"):
            check_body("double[] xs = new double[3]; foreach (x in xs) { }")

    def test_foreach_element_typed(self):
        checked = check_body(
            "foreach (e in d) { double v = e.v; }", params="Rectdomain<1, E> d"
        )
        program = checked.program
        meth = program.find_method("f")
        loop = meth.body.body[0]
        assert loop.var_symbol.type.name == "E"

    def test_pipelined_loop_var_is_packet(self):
        checked = check_body(
            "PipelinedLoop (p in d) { foreach (e in p) { double v = e.v; } }",
            params="Rectdomain<1, E> d",
        )
        loop = checked.pipelined_loops()[0][1]
        assert isinstance(loop.var_symbol.type, RectdomainType)

    def test_pipelined_inside_foreach_rejected(self):
        with pytest.raises(SemanticError, match="not be nested"):
            check_body(
                "foreach (e in d) { PipelinedLoop (p in d) { } }",
                params="Rectdomain<1, E> d",
            )

    def test_reduction_assignment_inside_foreach_rejected(self):
        with pytest.raises(SemanticError, match="reduction variable"):
            check_body(
                "Acc a = new Acc(); foreach (e in d) { a = new Acc(); }",
                params="Rectdomain<1, E> d",
            )

    def test_reduction_read_inside_foreach_rejected(self):
        with pytest.raises(SemanticError, match="method-call receiver"):
            check_body(
                "Acc a = new Acc(); Acc b = new Acc(); "
                "foreach (e in d) { b.merge(a); }",
                params="Rectdomain<1, E> d",
            )

    def test_reduction_update_inside_foreach_allowed(self):
        check_body(
            "Acc a = new Acc(); foreach (e in d) { a.add(e.v); }",
            params="Rectdomain<1, E> d",
        )

    def test_foreach_local_writes_allowed(self):
        check_body(
            "foreach (e in d) { double t = e.v; t = t * 2.0; "
            "for (int i = 0; i < 3; i += 1) { t += e.w; } }",
            params="Rectdomain<1, E> d",
        )

    def test_outer_write_in_nested_foreach_rejected(self):
        # declared in the outer foreach, written in the inner one
        with pytest.raises(SemanticError, match="may not assign to 't'"):
            check_body(
                "foreach (e in d) { double t = 0.0; foreach (g in d) { t = g.v; } }",
                params="Rectdomain<1, E> d",
            )

    def test_element_field_write_rejected_with_span(self):
        with pytest.raises(SemanticError, match="read-only: cannot assign to 'e.v'") as info:
            check_body(
                "foreach (e in d) {\n e.v = 1.0; }",
                params="Rectdomain<1, E> d",
            )
        assert (info.value.span.line, info.value.span.col) == (PRELUDE.count("\n") + 2, 2)

    def test_reduction_usable_outside_foreach(self):
        check_body(
            "Acc a = new Acc(); Acc b = new Acc(); b.merge(a);",
        )

    def test_unknown_interface_rejected(self):
        with pytest.raises(SemanticError, match="unknown interface"):
            check(parse("class A implements Serializable { }"))

    def test_expression_types_annotated(self):
        checked = check_body("int i = 1; double d = i + 2.5; boolean b = d < 3.0;")
        meth = checked.program.find_method("f")
        decls = meth.body.body
        assert decls[1].init.type == DOUBLE
        assert decls[2].init.type == BOOLEAN


# ---------------------------------------------------------------------------
# §3: a foreach body writes no variable declared outside it.  The probe
# shapes below were accepted once and then miscompiled (a prefix scan came
# out element-wise on the vector backend); each must be refused, with the
# span of the offending assignment.
# ---------------------------------------------------------------------------

_PROBE = _VPRELUDE + """
class Main {
    void go(double thresh) {
        Rectdomain<1, Rec> recs = read_recs();
        Acc result = new Acc();
        PipelinedLoop (p in recs) {
            Acc local = new Acc();
            %s
            result.merge(local);
        }
        display(result);
    }
}
"""

#: name -> (PipelinedLoop body, the assignment the checker must point at)
_PROBES = {
    "prefix_scan": (
        "double run = 0.0; foreach (r in p) { run = run + r.a; local.add(run); }",
        "run = run + r.a",
    ),
    "sum_after_loop": (
        "double s = 0.0; foreach (r in p) { s += r.a; } local.add(s);",
        "s += r.a",
    ),
    "last_write": (
        "double last = 0.0; "
        "foreach (r in p) { if (r.a > thresh) { last = r.b; } } local.add(last);",
        "last = r.b",
    ),
    "max_scan": (
        "double m = 0.0; foreach (r in p) { if (r.a > m) { m = r.a; } } local.add(m);",
        "m = r.a",
    ),
}


@pytest.mark.parametrize("name", sorted(_PROBES))
def test_foreach_outer_write_rejected_with_span(name):
    body, assignment = _PROBES[name]
    source = _PROBE % body
    with pytest.raises(SemanticError, match="may not assign to") as info:
        check(parse(source))
    line = next(
        n for n, text in enumerate(source.splitlines(), 1) if assignment in text
    )
    col = source.splitlines()[line - 1].index(assignment) + 1
    assert (info.value.span.line, info.value.span.col) == (line, col)
