"""Tests for SymExpr, Section, AccessPath, and PathSet (analysis values)."""

from hypothesis import given, strategies as st

from repro.analysis.values import (
    AccessPath,
    Interval,
    PathSet,
    Section,
    SymExpr,
)
from repro.lang.types import DOUBLE, ArrayType, VarSymbol


def var(name="v", type=DOUBLE, kind="local"):
    return VarSymbol(name, type, kind)


class TestSymExpr:
    def test_constants(self):
        assert SymExpr.const(3).constant_value == 3
        assert (SymExpr.const(2) + 3).constant_value == 5

    def test_arithmetic(self):
        n = SymExpr.var("n")
        expr = (n + 1) * 2 - n
        assert expr.evaluate({"n": 10}) == 12
        assert (10 - n).evaluate({"n": 4}) == 6

    def test_polynomial_product(self):
        n, s = SymExpr.var("n"), SymExpr.var("s")
        expr = n * s + n
        assert expr.evaluate({"n": 4, "s": 0.5}) == 6

    def test_missing_parameter_defaults_to_one(self):
        assert SymExpr.var("mystery").evaluate({}) == 1.0

    def test_substitute(self):
        n = SymExpr.var("n")
        expr = n * n + 2
        sub = expr.substitute({"n": SymExpr.var("m") + 1})
        assert sub.evaluate({"m": 2}) == 11

    def test_definitely_le(self):
        n = SymExpr.var("n")
        assert n.definitely_le(n + 3)
        assert not (n + 3).definitely_le(n)
        assert not n.definitely_le(SymExpr.var("m"))  # incomparable

    def test_equality_and_hash(self):
        a = SymExpr.var("n") + 1
        b = 1 + SymExpr.var("n")
        assert a == b and hash(a) == hash(b)

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-5, 5))
    def test_linearity(self, a, b, c):
        n = SymExpr.var("n")
        expr = n * a + b
        assert expr.evaluate({"n": c}) == a * c + b


class TestSection:
    def test_full_covers_everything(self):
        rect = Section.rect(Interval(SymExpr.const(0), SymExpr.var("n")))
        assert Section.full().covers(rect)
        assert not rect.covers(Section.full())

    def test_unknown_covers_nothing(self):
        assert not Section.unknown().covers(Section.point(SymExpr.const(0)))

    def test_rect_containment(self):
        outer = Section.rect(Interval(SymExpr.const(0), SymExpr.const(10)))
        inner = Section.rect(Interval(SymExpr.const(2), SymExpr.const(5)))
        assert outer.covers(inner)
        assert not inner.covers(outer)

    def test_symbolic_containment(self):
        n = SymExpr.var("n")
        outer = Section.rect(Interval(SymExpr.const(0), n + 1))
        inner = Section.rect(Interval(SymExpr.const(0), n))
        assert outer.covers(inner)
        assert not inner.covers(outer)

    def test_hull(self):
        a = Section.rect(Interval(SymExpr.const(0), SymExpr.const(4)))
        b = Section.rect(Interval(SymExpr.const(2), SymExpr.const(9)))
        hull = a.hull(b)
        assert hull.covers(a) and hull.covers(b)

    def test_count(self):
        sec = Section.rect(Interval(SymExpr.const(3), SymExpr.var("n")))
        assert sec.count().evaluate({"n": 10}) == 7

    def test_point(self):
        point = Section.point(SymExpr.const(5))
        assert point.count().constant_value == 1


class TestAccessPath:
    def test_root_identity_not_name(self):
        a, b = var("x"), var("x")
        assert AccessPath(a) != AccessPath(b)
        assert AccessPath(a) == AccessPath(a)

    def test_field_chain_equality(self):
        v = var("c")
        assert AccessPath(v).field("minval") == AccessPath(v).field("minval")
        assert AccessPath(v).field("minval") != AccessPath(v).field("maxval")

    def test_equal_sections_compare_and_hash_equal(self):
        """Sections built apart with the same bounds are one value: equal,
        equal hashes, one set member — alone and under an element path."""
        v, n = var("a", ArrayType(DOUBLE)), SymExpr.var("n")

        def section(width):
            return Section.rect(Interval(n, n + width))

        assert section(4) == section(4) and section(4) != section(5)
        assert len({section(4), section(4), Section.full(), Section.full()}) == 2
        paths = [AccessPath(v).elem(section(w)) for w in (4, 4, 5)]
        assert paths[0] == paths[1] and paths[0] != paths[2]
        assert hash(paths[0]) == hash(paths[1])
        assert len(set(paths)) == 2

    def test_prefix_covers_extension(self):
        v = var("c")
        whole = AccessPath(v)
        part = AccessPath(v).field("vals").elem(Section.point(SymExpr.const(2)))
        assert whole.covers(part)
        assert not part.covers(whole)

    def test_section_covers(self):
        v = var("a", ArrayType(DOUBLE))
        big = AccessPath(v).elem(
            Section.rect(Interval(SymExpr.const(0), SymExpr.const(10)))
        )
        small = AccessPath(v).elem(Section.point(SymExpr.const(3)))
        assert big.covers(small)
        assert not small.covers(big)

    def test_unknown_section_write_covers_nothing(self):
        v = var("a", ArrayType(DOUBLE))
        unknown = AccessPath(v).elem(Section.unknown())
        point = AccessPath(v).elem(Section.point(SymExpr.const(1)))
        assert not unknown.covers(point)

    def test_overlaps_conservative(self):
        v = var("a", ArrayType(DOUBLE))
        p1 = AccessPath(v).elem(Section.point(SymExpr.const(1)))
        p2 = AccessPath(v).elem(Section.point(SymExpr.const(2)))
        # point disjointness is not decided -> conservative overlap
        assert p1.overlaps(p2)
        assert not p1.overlaps(AccessPath(var("b")))


class TestPathSet:
    def test_add_merges_same_shape_by_hull(self):
        v = var("a", ArrayType(DOUBLE))
        ps = PathSet()
        ps.add(AccessPath(v).elem(Section.point(SymExpr.const(1))))
        ps.add(AccessPath(v).elem(Section.point(SymExpr.const(5))))
        assert len(ps) == 1
        merged = next(iter(ps))
        assert merged.covers(AccessPath(v).elem(Section.point(SymExpr.const(3))))

    def test_remove_covered_must_semantics(self):
        v = var("c")
        ps = PathSet([AccessPath(v).field("x"), AccessPath(v).field("y")])
        ps.remove_covered(AccessPath(v).field("x"))
        assert [repr(p) for p in ps] == ["c.y"]

    def test_whole_object_removal(self):
        v = var("c")
        ps = PathSet([AccessPath(v).field("x"), AccessPath(v).field("y")])
        ps.remove_covered(AccessPath(v))
        assert len(ps) == 0

    def test_difference_must(self):
        v, w = var("a"), var("b")
        ps = PathSet([AccessPath(v), AccessPath(w)])
        out = ps.difference_must(PathSet([AccessPath(v)]))
        assert [p.root.name for p in out] == ["b"]

    def test_union(self):
        v, w = var("a"), var("b")
        u = PathSet([AccessPath(v)]).union(PathSet([AccessPath(w)]))
        assert {p.root.name for p in u} == {"a", "b"}

    def test_reqcomm_equation_identity(self):
        """ReqComm(f1) = (ReqComm(f2) - Gen) + Cons with must/may rules."""
        c, t = var("c"), var("tris")
        downstream = PathSet([AccessPath(t), AccessPath(c).field("vals")])
        gen = PathSet([AccessPath(t)])
        cons = PathSet([AccessPath(c).field("minval")])
        req = downstream.difference_must(gen).union(cons)
        names = {repr(p) for p in req}
        assert names == {"c.vals", "c.minval"}
