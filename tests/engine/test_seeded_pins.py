"""Pinned seeded counts of the paper's Section 5 panel.

The determinism contract says seeded results depend only on
``(seed, chunk_size)``.  These values pin that contract across engine
refactors: the panel (unaided, assisted/mild, assisted/strong at +0.2,
assisted/mild with fatigue) over a multi-chunk workload at three seeds.
A change to the tally, the columnisation or any single-reader
randomness layout that moves one of them is a determinism break, not a
re-pin.
"""

import pytest

from repro.engine import EngineRuntime, compare_systems_batch
from repro.screening import SubtletyClassifier
from repro.sweep.grid import SystemSpec, WorkloadSpec

#: seed -> system -> (FN failures, FP failures, per-class FN (name, failures, trials)).
PINNED = {
    101: {
        "unaided/bias=mild/dyn=none": (
            241, 221, (("difficult", 166, 474), ("easy", 75, 426))),
        "assisted/bias=mild/dyn=none/op=+0": (
            141, 278, (("difficult", 99, 474), ("easy", 42, 426))),
        "assisted/bias=strong/dyn=none/op=+0.2": (
            148, 357, (("difficult", 103, 474), ("easy", 45, 426))),
        "assisted/bias=mild/dyn=fatigue/op=+0": (
            163, 505, (("difficult", 115, 474), ("easy", 48, 426))),
    },
    202: {
        "unaided/bias=mild/dyn=none": (
            252, 250, (("difficult", 160, 474), ("easy", 92, 426))),
        "assisted/bias=mild/dyn=none/op=+0": (
            140, 284, (("difficult", 99, 474), ("easy", 41, 426))),
        "assisted/bias=strong/dyn=none/op=+0.2": (
            145, 357, (("difficult", 108, 474), ("easy", 37, 426))),
        "assisted/bias=mild/dyn=fatigue/op=+0": (
            174, 495, (("difficult", 123, 474), ("easy", 51, 426))),
    },
    303: {
        "unaided/bias=mild/dyn=none": (
            227, 253, (("difficult", 140, 474), ("easy", 87, 426))),
        "assisted/bias=mild/dyn=none/op=+0": (
            148, 288, (("difficult", 96, 474), ("easy", 52, 426))),
        "assisted/bias=strong/dyn=none/op=+0.2": (
            135, 374, (("difficult", 92, 474), ("easy", 43, 426))),
        "assisted/bias=mild/dyn=fatigue/op=+0": (
            166, 522, (("difficult", 111, 474), ("easy", 55, 426))),
    },
}


@pytest.fixture(scope="module")
def workload():
    return WorkloadSpec(
        "routine", "trial", num_cases=3000, cancer_fraction=0.3, population_seed=7
    ).build()


def section5_panel(seed):
    return [
        SystemSpec("unaided", "mild").build(seed),
        SystemSpec("assisted", "mild").build(seed),
        SystemSpec("assisted", "strong", operating_point=0.2).build(seed),
        SystemSpec("assisted", "mild", "fatigue").build(seed),
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


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_executor_compare_matches_pins(workload, seed):
    evaluations = compare_systems_batch(
        section5_panel(seed), workload, SubtletyClassifier(), seed=seed, chunk_size=1024
    )
    assert pinned_view(evaluations) == PINNED[seed]


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_runtime_compare_matches_pins(workload, seed):
    with EngineRuntime(workers=1) as runtime:
        evaluations = runtime.compare(
            section5_panel(seed), workload, SubtletyClassifier(), seed=seed, chunk_size=1024
        )
    assert pinned_view(evaluations) == PINNED[seed]
