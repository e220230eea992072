"""`repro.eval` — metrics, table/figure rendering, experiment runner."""

from repro.eval.metrics import (
    accuracy,
    speedup,
    latency_percentiles,
)
from repro.eval.tables import Table, format_table
from repro.eval.figures import ascii_line_chart, ascii_bar_chart, Series
from repro.eval.runner import ModelDeviceResult, evaluate_dataset, DatasetEvaluation
from repro.eval.report import collect_report

__all__ = [
    "accuracy",
    "speedup",
    "latency_percentiles",
    "Table",
    "format_table",
    "ascii_line_chart",
    "ascii_bar_chart",
    "Series",
    "ModelDeviceResult",
    "evaluate_dataset",
    "DatasetEvaluation",
    "collect_report",
]
