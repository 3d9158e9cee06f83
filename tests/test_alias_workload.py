"""Workload-profile tests."""


from repro.analysis import SymExpr, WorkloadProfile


class TestWorkloadProfile:
    def test_defaults(self):
        profile = WorkloadProfile({})
        assert profile.num_packets == 1
        assert profile.packet_size == 1.0
        assert profile["anything"] == 1.0

    def test_evaluate_symexpr(self):
        profile = WorkloadProfile({"n": 10.0})
        assert profile.evaluate(SymExpr.var("n") * 2 + 1) == 21.0
        assert profile.evaluate(5) == 5.0

    def test_with_params_copies(self):
        base = WorkloadProfile({"a": 1.0})
        derived = base.with_params(a=2.0, b=3.0)
        assert base["a"] == 1.0
        assert derived["a"] == 2.0 and derived["b"] == 3.0

    def test_get_default(self):
        assert WorkloadProfile({}).get("missing", 7.0) == 7.0

    def test_as_mapping_detached(self):
        profile = WorkloadProfile({"x": 1.0})
        mapping = profile.as_mapping()
        mapping["x"] = 99.0
        assert profile["x"] == 1.0
