"""Controlled-trial simulation and parameter estimation substrate.

Closes the measurement loop the paper could only describe: simulate a
trial with an enriched case mix, estimate the per-class model parameters
(with confidence intervals), and hand them to the core models for
trial-to-field extrapolation.
"""

from .design import (
    CellForecast,
    FeasibilityReport,
    TrialDesign,
    sample_size_for_difference,
    sample_size_for_half_width,
)
from .estimate import ClassEstimate, EstimationResult, ParameterEstimate, estimate_model
from .intervals import (
    ConfidenceInterval,
    clopper_pearson_interval,
    jeffreys_interval,
    wilson_interval,
)
from .readers import PanelEstimate, ReaderSpread, estimate_per_reader
from .storage import (
    CSV_COLUMNS,
    append_journal_entries,
    dump_records_csv,
    follow_journal_records,
    follow_records_csv,
    load_journal_entries,
    load_records_csv,
    record_from_entry,
    record_to_entry,
    records_from_entries,
)
from .records import CaseRecord, RecordBatch, TrialRecords
from .run import ControlledTrial, TrialOutcome, run_reading_session

__all__ = [
    "CaseRecord",
    "RecordBatch",
    "TrialRecords",
    "ConfidenceInterval",
    "wilson_interval",
    "clopper_pearson_interval",
    "jeffreys_interval",
    "ParameterEstimate",
    "ClassEstimate",
    "EstimationResult",
    "estimate_model",
    "run_reading_session",
    "ControlledTrial",
    "TrialOutcome",
    "TrialDesign",
    "CellForecast",
    "FeasibilityReport",
    "sample_size_for_half_width",
    "sample_size_for_difference",
    "PanelEstimate",
    "ReaderSpread",
    "estimate_per_reader",
    "dump_records_csv",
    "load_records_csv",
    "follow_records_csv",
    "follow_journal_records",
    "CSV_COLUMNS",
    "append_journal_entries",
    "load_journal_entries",
    "record_to_entry",
    "record_from_entry",
    "records_from_entries",
]
