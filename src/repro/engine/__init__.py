"""Vectorized batch simulation engine.

The scalar loop in :mod:`repro.system.simulate` pays Python-interpreter
cost per case; this package runs the same models as NumPy array kernels
over whole workloads at once, with bit-identical failure counts for
stateless systems, an ordered stream-carry path for
stateful-but-vectorizable temporal readers (fatigue, trust adaptation),
and a transparent scalar fallback for everything else (e.g. drifting
tools).  See ``docs/engine.md`` for the randomness layout and carry
protocol that make the equivalences exact.

:mod:`repro.engine.posterior` applies the same playbook to the analytic
side: array-backed parameter tables that evaluate equation (8) for whole
batches of posterior draws, tornado perturbations, or setting sweeps in
one contraction, bit-identical to the scalar model graph.  See
``docs/uncertainty.md``.
"""

from .arrays import ARRAY_FIELDS, LESION_CODES, CaseArrays
from .executor import (
    DEFAULT_CHUNK_SIZE,
    cancer_class_labels,
    compare_systems_batch,
    evaluate_system_batch,
    plan_chunks,
    supports_batch,
    supports_stream,
)
from .posterior import (
    PARAMETER_FIELDS,
    ParameterTable,
    sample_parameter_table,
    scenario_win_probability,
)
from .runtime import EngineRuntime, shared_memory_available

__all__ = [
    "CaseArrays",
    "ARRAY_FIELDS",
    "LESION_CODES",
    "DEFAULT_CHUNK_SIZE",
    "plan_chunks",
    "supports_batch",
    "supports_stream",
    "cancer_class_labels",
    "evaluate_system_batch",
    "compare_systems_batch",
    "EngineRuntime",
    "shared_memory_available",
    "PARAMETER_FIELDS",
    "ParameterTable",
    "sample_parameter_table",
    "scenario_win_probability",
]
