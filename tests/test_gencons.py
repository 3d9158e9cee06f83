"""Gen/Cons analysis tests, following Figure 2 statement by statement."""


from repro.analysis import GenConsAnalyzer
from repro.lang import check, parse

PRELUDE = """
native double[] produce(double x);
native double consume(double[] v);
class E { double v; double w; double[] data; }
class Acc implements Reducinterface {
    double[] total;
    void add(double x) { return; }
    void merge(Acc other) { return; }
}
"""


def analyze(body: str, params: str = ""):
    checked = check(parse(PRELUDE + "class M { void f(%s) { %s } }" % (params, body)))
    meth = checked.program.find_method("f")
    analyzer = GenConsAnalyzer(checked)
    facts = analyzer.analyze(list(meth.body.body))
    return facts, analyzer


def names(pathset):
    return {repr(p) for p in pathset}


class TestAssignments:
    def test_simple_def_and_use(self):
        facts, _ = analyze("double y = x + 1.0;", params="double x")
        assert names(facts.gen) == {"y"}
        assert names(facts.cons) == {"x"}

    def test_def_kills_earlier_use(self):
        # reverse scan: y = x; x = 1  -> x generated after its use? No:
        # program order is x = 1.0; y = x; so x is NOT consumed from outside
        facts, _ = analyze("double x = 1.0; double y = x;")
        assert names(facts.gen) == {"x", "y"}
        assert names(facts.cons) == set()

    def test_use_before_def_is_consumed(self):
        facts, _ = analyze("double y = x; double x2 = 1.0;", params="double x")
        assert "x" in names(facts.cons)

    def test_self_update_consumes(self):
        facts, _ = analyze("x = x + 1.0;", params="double x")
        assert names(facts.cons) == {"x"}
        assert names(facts.gen) == {"x"}

    def test_compound_assignment_consumes_target(self):
        facts, _ = analyze("x += 2.0;", params="double x")
        assert "x" in names(facts.cons)

    def test_field_write_is_precise(self):
        facts, _ = analyze("e.v = 1.0; double z = e.w;", params="E e")
        assert "e.v" in names(facts.gen)
        assert "e.w" in names(facts.cons)
        assert "e.v" not in names(facts.cons)

    def test_array_point_write(self):
        facts, _ = analyze(
            "a[2] = 1.0; double z = a[2];", params="double[] a"
        )
        # a[2] defined before use -> not consumed
        assert not any("[" in n and "a" in n for n in names(facts.cons))

    def test_unknown_index_is_not_must(self):
        facts, _ = analyze(
            "a[k * k] = 1.0; double z = a[0];", params="double[] a, int k"
        )
        # quadratic index isn't converted; the write is not a definite def
        assert any(n.startswith("a") for n in names(facts.cons))


class TestConditionals:
    def test_conditional_def_not_generated(self):
        """Fig 2: Gen(s) of a conditional block is discarded."""
        facts, _ = analyze(
            "if (c) { x = 1.0; } double y = x;",
            params="boolean c, double x",
        )
        assert "x" in names(facts.cons)
        assert "x" not in names(facts.gen)

    def test_conditional_use_propagates(self):
        facts, _ = analyze(
            "if (c) { double y = x; }", params="boolean c, double x"
        )
        assert "x" in names(facts.cons)

    def test_def_then_use_inside_conditional_not_consumed(self):
        """Fig 2: 'a variable that is both defined and used in the block s
        does not get added to the Cons(b) set'."""
        facts, _ = analyze(
            "if (c) { double t = 1.0; double u = t; }", params="boolean c"
        )
        assert "t" not in names(facts.cons)

    def test_both_branches_consume(self):
        facts, _ = analyze(
            "if (c) { double y = x1; } else { double y = x2; }",
            params="boolean c, double x1, double x2",
        )
        assert {"x1", "x2", "c"} <= names(facts.cons)


class TestLoops:
    def test_counted_loop_widens_to_section(self):
        facts, _ = analyze(
            "for (int i = 0; i < n; i = i + 1) { a[i] = 1.0; }",
            params="double[] a, int n",
        )
        gen_names = names(facts.gen)
        assert any(n.startswith("a[") and "n" in n for n in gen_names), gen_names

    def test_loop_write_kills_downstream_cons_constant_bound(self):
        """With decidable bounds the widened section definitely defines the
        downstream read (>=1 iteration assumption)."""
        facts, _ = analyze(
            "for (int i = 0; i < 4; i = i + 1) { a[i] = 1.0; }"
            "double z = a[0];",
            params="double[] a",
        )
        assert not any(n.startswith("a") for n in names(facts.cons))

    def test_loop_write_symbolic_bound_stays_conservative(self):
        """a[0, n) covers a[0, 1) only if n >= 1 is provable; with a free
        symbolic bound the read conservatively stays in Cons."""
        facts, _ = analyze(
            "for (int i = 0; i < n; i = i + 1) { a[i] = 1.0; }"
            "double z = a[0];",
            params="double[] a, int n",
        )
        assert any(n_.startswith("a") for n_ in names(facts.cons))
        assert any(n_.startswith("a[0, n") for n_ in names(facts.gen))

    def test_loop_read_widens(self):
        facts, _ = analyze(
            "double s = 0.0;"
            "for (int i = 0; i < n; i = i + 1) { s = s + a[i]; }",
            params="double[] a, int n",
        )
        assert any(n.startswith("a[") for n in names(facts.cons))

    def test_while_loop_conservative(self):
        facts, _ = analyze(
            "int i = 0; while (i < n) { a[i] = 1.0; i = i + 1; } double z = a[0];",
            params="double[] a, int n",
        )
        # the while write is not recognized as covering -> still consumed
        assert any(n.startswith("a") for n in names(facts.cons))

    def test_foreach_rebases_to_domain(self):
        facts, _ = analyze(
            "foreach (e in d) { double t = e.v; }",
            params="Rectdomain<1, E> d",
        )
        assert any(n.startswith("d[*]") for n in names(facts.cons)), names(facts.cons)


class TestCallsAndAllocation:
    def test_new_object_is_whole_definition(self):
        facts, _ = analyze("E e = new E(); double z = e.v;")
        assert "e.v" not in names(facts.cons)

    def test_new_array_is_whole_definition(self):
        facts, _ = analyze("double[] a = new double[4]; double z = a[0];")
        assert not any(n.startswith("a") for n in names(facts.cons))

    def test_intrinsic_summary_reads(self):
        facts, _ = analyze("double[] v = produce(x);", params="double x")
        # no registered summary: conservative (x may be read)
        assert "x" in names(facts.cons)

    def test_one_pass_visit_count(self):
        body = "double a = 1.0; double b = a; double c = b; double d = c;"
        _, analyzer = analyze(body)
        assert analyzer.visit_count == 4
