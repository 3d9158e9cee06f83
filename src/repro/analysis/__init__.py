"""Compiler analyses (paper §4): candidate filter boundaries as a chain,
loop fission, one-pass Gen/Cons, required communication (ReqComm),
interprocedural summaries, operation counting, and workload profiles."""

from .boundaries import AtomicFilter, Boundary, FilterChain, build_filter_chain
from .fission import ElementStage, FissionedForeach, fission_foreach, rebuild_foreach_ast
from .gencons import GenConsAnalyzer, SegmentFacts, symbol_tag
from .opcount import OpCounter
from .reqcomm import CommAnalysis, VolumeModel, analyze_communication, live_out_paths
from .values import (
    AccessPath,
    ElemSel,
    FieldSel,
    Interval,
    PathSet,
    Section,
    SymExpr,
)
from .workload import WorkloadProfile

__all__ = [
    "AccessPath",
    "AtomicFilter",
    "Boundary",
    "CommAnalysis",
    "ElemSel",
    "ElementStage",
    "FieldSel",
    "FilterChain",
    "FissionedForeach",
    "GenConsAnalyzer",
    "Interval",
    "OpCounter",
    "PathSet",
    "Section",
    "SegmentFacts",
    "SymExpr",
    "VolumeModel",
    "WorkloadProfile",
    "analyze_communication",
    "build_filter_chain",
    "fission_foreach",
    "live_out_paths",
    "rebuild_foreach_ast",
    "symbol_tag",
]
