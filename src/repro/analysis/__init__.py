"""Experiment harness helpers shared by tests and benchmarks."""

from .experiments import (
    ScalingFit,
    TrialStats,
    fit_power_law,
    geometric_sizes,
    measure_peak,
    run_report_trials,
    run_trials,
    success_rate,
    summarize_reports,
)
from .tables import TextTable

__all__ = [
    "ScalingFit",
    "TextTable",
    "TrialStats",
    "fit_power_law",
    "geometric_sizes",
    "measure_peak",
    "run_report_trials",
    "run_trials",
    "success_rate",
    "summarize_reports",
]
