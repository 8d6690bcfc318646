"""Pinned seeded counts of the Section 7 panel and a fused sweep grid.

``test_seeded_pins.py`` pins the Section 5 panel; these values pin the
kernels it does not reach, recorded before the per-chunk derived arrays
(:class:`~repro.engine.arrays.CaseArrays`) replaced each kernel's own
layout and logit computation:

* the Section 7 panel — adaptive-trust assisted reading (the
  speculative stream kernel) and unaided/assisted double reading with
  arbitration and with the either/unanimous policies (the shared-draw
  splitter for two and three readers, with and without a tool) —
  through :func:`compare_systems_batch` and a serial
  :class:`EngineRuntime`, over a workload cut into uneven chunks;
* every cell of a small :func:`run_sweep` grid (unaided and assisted,
  no dynamics, fatigue and adaptive trust, two operating points, two
  replicates, trial and field mixes) on the fused path, multi-chunk.

A change that moves one of them is a determinism break, not a re-pin.
"""

import pytest

from repro.cadt import Cadt, DetectionAlgorithm
from repro.engine import EngineRuntime, compare_systems_batch
from repro.reader import MILD_BIAS, ReaderModel, ReaderSkill
from repro.screening import SubtletyClassifier
from repro.sweep import ScenarioGrid, run_sweep
from repro.sweep.grid import SystemSpec, WorkloadSpec
from repro.system import AssistedDoubleReading, DoubleReading, RecallPolicy

#: seed -> system -> (FN failures, FP failures, per-class FN (name, failures, trials)).
SECTION7 = {
    101: {
        'assisted/bias=mild/dyn=adaptive/op=+0':
            (114, 241, (('difficult', 81, 364), ('easy', 33, 386))),
        'assisted_double/arbitration': (72, 139, (('difficult', 60, 364), ('easy', 12, 386))),
        'assisted_double/unanimous': (205, 44, (('difficult', 132, 364), ('easy', 73, 386))),
        'double/arbitration': (151, 77, (('difficult', 106, 364), ('easy', 45, 386))),
        'double/either': (85, 361, (('difficult', 64, 364), ('easy', 21, 386))),
    },
    202: {
        'assisted/bias=mild/dyn=adaptive/op=+0':
            (119, 245, (('difficult', 75, 364), ('easy', 44, 386))),
        'assisted_double/arbitration': (65, 108, (('difficult', 57, 364), ('easy', 8, 386))),
        'assisted_double/unanimous': (217, 47, (('difficult', 138, 364), ('easy', 79, 386))),
        'double/arbitration': (174, 78, (('difficult', 118, 364), ('easy', 56, 386))),
        'double/either': (81, 369, (('difficult', 64, 364), ('easy', 17, 386))),
    },
}

#: cell id -> (FN failures, FP failures, per-class FN (name, failures, trials)).
SWEEP_CELLS = {
    'routine/field/n700/cf0.5/s3|assisted/bias=mild/dyn=adaptive/op=+0.3|rep=0':
        (0, 89, (('difficult', 0, 1), ('easy', 0, 2))),
    'routine/field/n700/cf0.5/s3|assisted/bias=mild/dyn=adaptive/op=+0.3|rep=1':
        (0, 101, (('difficult', 0, 1), ('easy', 0, 2))),
    'routine/field/n700/cf0.5/s3|assisted/bias=mild/dyn=adaptive/op=+0|rep=0':
        (1, 117, (('difficult', 1, 1), ('easy', 0, 2))),
    'routine/field/n700/cf0.5/s3|assisted/bias=mild/dyn=adaptive/op=+0|rep=1':
        (0, 119, (('difficult', 0, 1), ('easy', 0, 2))),
    'routine/field/n700/cf0.5/s3|assisted/bias=mild/dyn=fatigue/op=+0.3|rep=0':
        (0, 146, (('difficult', 0, 1), ('easy', 0, 2))),
    'routine/field/n700/cf0.5/s3|assisted/bias=mild/dyn=fatigue/op=+0.3|rep=1':
        (0, 151, (('difficult', 0, 1), ('easy', 0, 2))),
    'routine/field/n700/cf0.5/s3|assisted/bias=mild/dyn=fatigue/op=+0|rep=0':
        (1, 171, (('difficult', 1, 1), ('easy', 0, 2))),
    'routine/field/n700/cf0.5/s3|assisted/bias=mild/dyn=fatigue/op=+0|rep=1':
        (0, 167, (('difficult', 0, 1), ('easy', 0, 2))),
    'routine/field/n700/cf0.5/s3|assisted/bias=mild/dyn=none/op=+0.3|rep=0':
        (0, 94, (('difficult', 0, 1), ('easy', 0, 2))),
    'routine/field/n700/cf0.5/s3|assisted/bias=mild/dyn=none/op=+0.3|rep=1':
        (0, 97, (('difficult', 0, 1), ('easy', 0, 2))),
    'routine/field/n700/cf0.5/s3|assisted/bias=mild/dyn=none/op=+0|rep=0':
        (0, 88, (('difficult', 0, 1), ('easy', 0, 2))),
    'routine/field/n700/cf0.5/s3|assisted/bias=mild/dyn=none/op=+0|rep=1':
        (1, 103, (('difficult', 1, 1), ('easy', 0, 2))),
    'routine/field/n700/cf0.5/s3|unaided/bias=mild/dyn=adaptive|rep=0':
        (2, 61, (('difficult', 1, 1), ('easy', 1, 2))),
    'routine/field/n700/cf0.5/s3|unaided/bias=mild/dyn=adaptive|rep=1':
        (1, 67, (('difficult', 0, 1), ('easy', 1, 2))),
    'routine/field/n700/cf0.5/s3|unaided/bias=mild/dyn=fatigue|rep=0':
        (1, 137, (('difficult', 0, 1), ('easy', 1, 2))),
    'routine/field/n700/cf0.5/s3|unaided/bias=mild/dyn=fatigue|rep=1':
        (1, 131, (('difficult', 1, 1), ('easy', 0, 2))),
    'routine/field/n700/cf0.5/s3|unaided/bias=mild/dyn=none|rep=0':
        (1, 87, (('difficult', 1, 1), ('easy', 0, 2))),
    'routine/field/n700/cf0.5/s3|unaided/bias=mild/dyn=none|rep=1':
        (3, 74, (('difficult', 1, 1), ('easy', 2, 2))),
    'routine/trial/n700/cf0.5/s3|assisted/bias=mild/dyn=adaptive/op=+0.3|rep=0':
        (52, 41, (('difficult', 38, 178), ('easy', 14, 172))),
    'routine/trial/n700/cf0.5/s3|assisted/bias=mild/dyn=adaptive/op=+0.3|rep=1':
        (58, 42, (('difficult', 45, 178), ('easy', 13, 172))),
    'routine/trial/n700/cf0.5/s3|assisted/bias=mild/dyn=adaptive/op=+0|rep=0':
        (58, 53, (('difficult', 40, 178), ('easy', 18, 172))),
    'routine/trial/n700/cf0.5/s3|assisted/bias=mild/dyn=adaptive/op=+0|rep=1':
        (60, 37, (('difficult', 48, 178), ('easy', 12, 172))),
    'routine/trial/n700/cf0.5/s3|assisted/bias=mild/dyn=fatigue/op=+0.3|rep=0':
        (67, 82, (('difficult', 50, 178), ('easy', 17, 172))),
    'routine/trial/n700/cf0.5/s3|assisted/bias=mild/dyn=fatigue/op=+0.3|rep=1':
        (62, 71, (('difficult', 43, 178), ('easy', 19, 172))),
    'routine/trial/n700/cf0.5/s3|assisted/bias=mild/dyn=fatigue/op=+0|rep=0':
        (64, 88, (('difficult', 46, 178), ('easy', 18, 172))),
    'routine/trial/n700/cf0.5/s3|assisted/bias=mild/dyn=fatigue/op=+0|rep=1':
        (71, 90, (('difficult', 50, 178), ('easy', 21, 172))),
    'routine/trial/n700/cf0.5/s3|assisted/bias=mild/dyn=none/op=+0.3|rep=0':
        (55, 42, (('difficult', 41, 178), ('easy', 14, 172))),
    'routine/trial/n700/cf0.5/s3|assisted/bias=mild/dyn=none/op=+0.3|rep=1':
        (67, 46, (('difficult', 45, 178), ('easy', 22, 172))),
    'routine/trial/n700/cf0.5/s3|assisted/bias=mild/dyn=none/op=+0|rep=0':
        (54, 56, (('difficult', 42, 178), ('easy', 12, 172))),
    'routine/trial/n700/cf0.5/s3|assisted/bias=mild/dyn=none/op=+0|rep=1':
        (35, 46, (('difficult', 27, 178), ('easy', 8, 172))),
    'routine/trial/n700/cf0.5/s3|unaided/bias=mild/dyn=adaptive|rep=0':
        (107, 36, (('difficult', 66, 178), ('easy', 41, 172))),
    'routine/trial/n700/cf0.5/s3|unaided/bias=mild/dyn=adaptive|rep=1':
        (98, 31, (('difficult', 71, 178), ('easy', 27, 172))),
    'routine/trial/n700/cf0.5/s3|unaided/bias=mild/dyn=fatigue|rep=0':
        (124, 56, (('difficult', 79, 178), ('easy', 45, 172))),
    'routine/trial/n700/cf0.5/s3|unaided/bias=mild/dyn=fatigue|rep=1':
        (132, 69, (('difficult', 91, 178), ('easy', 41, 172))),
    'routine/trial/n700/cf0.5/s3|unaided/bias=mild/dyn=none|rep=0':
        (81, 37, (('difficult', 55, 178), ('easy', 26, 172))),
    'routine/trial/n700/cf0.5/s3|unaided/bias=mild/dyn=none|rep=1':
        (102, 29, (('difficult', 66, 178), ('easy', 36, 172))),
}

#: Chunk sizes that cut the workloads into uneven chunks with odd tails.
SECTION7_CHUNK_SIZE = 777
SWEEP_CHUNK_SIZE = 301


@pytest.fixture(scope="module")
def workload():
    return WorkloadSpec(
        "routine", "trial", num_cases=2500, cancer_fraction=0.3, population_seed=11
    ).build()


def section7_panel(seed):
    def reader(k):
        return ReaderModel(
            skill=ReaderSkill(), bias=MILD_BIAS, name=f"reader{k}", seed=seed + k
        )

    return [
        SystemSpec("assisted", "mild", "adaptive").build(seed),
        DoubleReading(
            [reader(1), reader(2)], RecallPolicy.ARBITRATION, arbiter=reader(3),
            name="double/arbitration",
        ),
        AssistedDoubleReading(
            [reader(4), reader(5)], Cadt(DetectionAlgorithm(), seed=seed + 6),
            RecallPolicy.ARBITRATION, arbiter=reader(7), name="assisted_double/arbitration",
        ),
        DoubleReading([reader(8), reader(9)], RecallPolicy.EITHER, name="double/either"),
        AssistedDoubleReading(
            [reader(10), reader(11)],
            Cadt(DetectionAlgorithm(threshold_shift=0.3), seed=seed + 12),
            RecallPolicy.UNANIMOUS, name="assisted_double/unanimous",
        ),
    ]


def pinned_view(evaluations):
    return {
        name: (
            evaluation.false_negative.failures,
            evaluation.false_positive.failures,
            tuple(
                sorted(
                    (case_class.name, estimate.failures, estimate.trials)
                    for case_class, estimate in evaluation.per_class_false_negative.items()
                )
            ),
        )
        for name, evaluation in evaluations.items()
    }


@pytest.mark.parametrize("seed", sorted(SECTION7))
def test_section7_executor_compare_matches_pins(workload, seed):
    evaluations = compare_systems_batch(
        section7_panel(seed), workload, SubtletyClassifier(), seed=seed,
        chunk_size=SECTION7_CHUNK_SIZE,
    )
    assert pinned_view(evaluations) == SECTION7[seed]


@pytest.mark.parametrize("seed", sorted(SECTION7))
def test_section7_runtime_compare_matches_pins(workload, seed):
    with EngineRuntime(workers=1) as runtime:
        evaluations = runtime.compare(
            section7_panel(seed), workload, SubtletyClassifier(), seed=seed,
            chunk_size=SECTION7_CHUNK_SIZE,
        )
    assert pinned_view(evaluations) == SECTION7[seed]


def test_fused_sweep_cells_match_pins():
    grid = ScenarioGrid(
        name="pins",
        populations=("routine",),
        profiles=("trial", "field"),
        num_cases=700,
        population_seed=3,
        systems=("unaided", "assisted"),
        biases=("mild",),
        dynamics=("none", "fatigue", "adaptive"),
        operating_points=(0.0, 0.3),
        replicates=2,
    )
    result = run_sweep(
        grid, seed=17, classifier=SubtletyClassifier(), chunk_size=SWEEP_CHUNK_SIZE
    )
    assert pinned_view(result.evaluations()) == SWEEP_CELLS
