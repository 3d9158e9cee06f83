"""The §6 experiment harness: measured computation + simulated grid,
reproducing every evaluation figure's shape."""

from .harness import (
    calibrate_net_scale,
    cost_model_report,
    CostModelReport,
    CostModelRow,
    MeasuredRun,
    VERSIONS,
    VersionTimes,
    format_results,
    measure_pipeline,
    measure_specs,
    measure_version,
    run_experiment,
    simulate_measured,
    validate_cost_model,
)

__all__ = [
    "calibrate_net_scale",
    "cost_model_report",
    "CostModelReport",
    "CostModelRow",
    "MeasuredRun",
    "VERSIONS",
    "VersionTimes",
    "format_results",
    "measure_pipeline",
    "measure_specs",
    "measure_version",
    "run_experiment",
    "simulate_measured",
    "validate_cost_model",
]

from .figures import (
    ALL_FIGURES,
    FigureResult,
    PaperSeries,
    ShapeCheck,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
)

__all__ += [
    "ALL_FIGURES",
    "FigureResult",
    "PaperSeries",
    "ShapeCheck",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
]
