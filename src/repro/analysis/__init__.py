"""Result analysis: summary statistics, calibration, sensitivity."""

from repro.analysis.calibration import (
    CalibrationCheck,
    calibration_report,
    fit_overhead,
    verify_profile_fit,
)
from repro.analysis.sensitivity import (
    DEFAULT_SEED_PANEL,
    SeedPanelResult,
    run_seed_panel,
)
from repro.analysis.stats import Summary, summarize

__all__ = [
    "Summary",
    "summarize",
    "CalibrationCheck",
    "calibration_report",
    "fit_overhead",
    "verify_profile_fit",
    "SeedPanelResult",
    "run_seed_panel",
    "DEFAULT_SEED_PANEL",
]
