"""``classify_batch`` codes are checked once, where they are memoised.

A code indexes ``classifier.classes``: a cancer code that is negative,
past the last class or not an integer is a typed error naming the
classifier, on every path that classifies — never a numpy error from
the kernel or a per-class count quietly truncated from a float.
"""

import numpy as np
import pytest

from repro.engine import evaluate_system_batch
from repro.engine.executor import cancer_class_codes
from repro.exceptions import SimulationError
from repro.screening import SubtletyClassifier
from repro.sweep import ScenarioGrid, run_sweep

from tests.engine.test_executor import make_system, make_workload

N_CLASSES = len(SubtletyClassifier().classes)
BAD_CODES = [-1, N_CLASSES, 0.5]


class FixedCodeClassifier(SubtletyClassifier):
    """The subtlety classes, with every case given one fixed code."""

    def __init__(self, code):
        super().__init__()
        self.code = code

    def classify_batch(self, arrays):
        return np.full(len(arrays), self.code)


def grid():
    return ScenarioGrid(
        name="codes",
        populations=("routine",),
        num_cases=60,
        systems=("assisted",),
        biases=("mild",),
        dynamics=("none",),
        operating_points=(0.0,),
        replicates=1,
    )


@pytest.mark.parametrize("code", BAD_CODES)
class TestBadCodes:
    def test_cancer_class_codes(self, code):
        workload = make_workload(200)
        arrays = workload.to_arrays()
        with pytest.raises(SimulationError, match="FixedCodeClassifier"):
            cancer_class_codes(workload, FixedCodeClassifier(code), arrays, arrays.cancer_index)

    def test_evaluate_system_batch(self, code):
        with pytest.raises(SimulationError, match=r"not all integers in \[0, 2\)"):
            evaluate_system_batch(
                make_system(), make_workload(200), FixedCodeClassifier(code), seed=3
            )

    def test_run_sweep(self, code):
        with pytest.raises(SimulationError, match="FixedCodeClassifier"):
            run_sweep(grid(), seed=3, classifier=FixedCodeClassifier(code))


def test_every_declared_code_is_accepted():
    workload = make_workload(200)
    arrays = workload.to_arrays()
    for code in range(N_CLASSES):
        codes = cancer_class_codes(workload, FixedCodeClassifier(code), arrays, arrays.cancer_index)
        assert codes.dtype == np.int64
        assert codes.tolist() == [code] * len(arrays.cancer_index)


def test_unsigned_codes_are_accepted():
    workload = make_workload(200)
    arrays = workload.to_arrays()
    reference = cancer_class_codes(workload, SubtletyClassifier(), arrays, arrays.cancer_index)

    class Unsigned(SubtletyClassifier):
        def classify_batch(self, arrays):
            return super().classify_batch(arrays).astype(np.uint8)

    codes = cancer_class_codes(workload, Unsigned(), arrays, arrays.cancer_index)
    assert codes.dtype == np.int64
    np.testing.assert_array_equal(codes, reference)
