"""The adaptive-trust chunk kernel: exact under many catches, linear work.

:func:`repro.reader.dynamics.advance_adaptive_chunk` steps the success
recurrence once per case and tests only the catch candidates.  These
tests hold it to the scalar :class:`AdaptiveReader` loop on a workload
with hundreds of caught machine failures, with trust that saturates
between catches and trust that never does, and bound the recurrence
steps it asks for by the chunk's length.
"""

import numpy as np
import pytest

import repro.reader.dynamics as dynamics
from repro.cadt import Cadt, DetectionAlgorithm
from repro.engine import evaluate_system_batch
from repro.reader import MILD_BIAS, AdaptiveReader, AdaptiveTrust, ReaderModel
from repro.reader.dynamics import trust_growth_path
from repro.screening import routine_screening_population, trial_workload
from repro.sweep.grid import SystemSpec, WorkloadSpec
from repro.system import AssistedReading, evaluate_system

from tests.engine.test_equivalence import failure_counts

SEED = 31
N = 4_000
CHUNK_SIZES = [1, 7, 1_024, N]
#: growth 0.5 reaches max_trust's fixed point within ~55 successes, so
#: trust saturates between catches; growth 0.001 needs tens of thousands.
TRUST = {
    "saturating": dict(growth_rate=0.5, failure_penalty=0.5),
    "unsaturated": dict(growth_rate=0.001, failure_penalty=0.9),
}


@pytest.fixture(scope="module")
def workload():
    return trial_workload(
        routine_screening_population(seed=SEED), N, cancer_fraction=0.5, name="catches"
    )


def make_system(trust):
    return AssistedReading(
        AdaptiveReader(
            ReaderModel(bias=MILD_BIAS, name="r", seed=SEED + 1),
            AdaptiveTrust(**TRUST[trust]),
            seed=SEED + 2,
        ),
        Cadt(DetectionAlgorithm(), seed=SEED + 3),
    )


def trust_state(system):
    trust = system.reader.trust
    return (trust.trust, trust.observed_successes, trust.caught_failures)


@pytest.fixture(scope="module", params=[(t, s) for t in TRUST for s in (None, 77)],
                ids=lambda p: f"{p[0]}-{'seeded' if p[1] else 'unseeded'}")
def scalar(request, workload):
    """The scalar loop: decisions and committed trust state (seeded runs
    thread one generator through every case)."""
    trust, seed = request.param
    system = make_system(trust)
    rng = None if seed is None else np.random.default_rng(seed)
    recall = np.array([system.decide(case, rng).recall for case in workload.cases])
    return trust, seed, recall, trust_state(system)


@pytest.fixture(scope="module")
def engine_reference(workload):
    """``evaluate_system``'s counts and committed trust state, per
    (trust, seed), computed once."""
    cache = {}

    def reference(trust, seed):
        if (trust, seed) not in cache:
            system = make_system(trust)
            counts = failure_counts(evaluate_system(system, workload, seed=seed))
            cache[trust, seed] = (counts, trust_state(system))
        return cache[trust, seed]

    return reference


class TestManyCatches:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_stream_equals_the_scalar_loop(self, scalar, workload, chunk_size):
        trust, seed, expected, expected_state = scalar
        assert expected_state[2] > 100  # hundreds of caught failures
        system = make_system(trust)
        rng = None if seed is None else np.random.default_rng(seed)
        arrays = workload.to_arrays()
        state = system.stream_state()
        recall = []
        for start in range(0, N, chunk_size):
            decisions, state = system.advance_stream(
                arrays.chunk(start, min(start + chunk_size, N)), state, rng=rng
            )
            recall.append(decisions.recall)
        system.commit_stream(state)
        recall = np.concatenate(recall)
        np.testing.assert_array_equal(recall, expected)
        assert trust_state(system) == expected_state

    @pytest.mark.parametrize("trust", TRUST)
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES[1:])
    def test_engine_counts_equal_the_scalar_loop(
        self, engine_reference, workload, trust, chunk_size
    ):
        """Through ``evaluate_system_batch``: unseeded at every chunk size
        the test above does not already walk one case at a time; seeded
        where the engine's one chunk takes the scalar loop's draw."""
        seeds = (None, 5) if chunk_size == N else (None,)
        for seed in seeds:
            system = make_system(trust)
            result = evaluate_system_batch(system, workload, seed=seed, chunk_size=chunk_size)
            assert (failure_counts(result), trust_state(system)) == engine_reference(trust, seed)


def test_recurrence_steps_are_linear_in_the_chunk(monkeypatch):
    """The kernel asks the trust path for at most one step per case.

    A kernel that re-decides the rest of the chunk after every catch
    asks for about cases x catches / 2 steps: over a million here.
    """
    asked = []

    def counting_path(trust, growth_rate, max_trust, num_cases):
        asked.append(num_cases)
        return trust_growth_path(trust, growth_rate, max_trust, num_cases)

    monkeypatch.setattr(dynamics, "trust_growth_path", counting_path)
    cases = 8_000
    arrays = WorkloadSpec("routine", "trial", num_cases=cases, population_seed=3).build().to_arrays()
    system = SystemSpec("assisted", "mild", "adaptive").build(5)
    _, state = system.advance_stream(arrays, system.stream_state(), rng=np.random.default_rng(9))
    assert int(state.caught_failures[0]) > 100
    assert sum(asked) <= 2 * cases


@pytest.mark.parametrize(
    "trust, growth, max_trust",
    [(1.0, 0.01, 2.0), (0.25, 0.5, 2.0), (1.0, 1e-6, 2.0), (-0.0, 0.0, 1.0), (2.0, 0.3, 2.0),
     (0.0, 1.0, 3.0)],
)
def test_trust_path_stops_at_its_fixed_point_exactly(trust, growth, max_trust):
    """Against the per-case recurrence over 50,000 successes, bit for bit."""
    path = trust_growth_path(trust, growth, max_trust, 50_000)
    reference = np.empty(50_001)
    t = trust
    for i in range(50_000):
        reference[i] = t
        t = min(t + growth * (max_trust - t), max_trust)
    reference[50_000] = t
    assert path.tobytes() == reference.tobytes()
