"""Columnar case generation is byte-identical to the per-case generator.

The population model draws straight into columns.  This module keeps the
per-case generator it replaced (one validated ``Case`` per draw, scalar
sigmoids, ``rng.choice`` for the lesion profile, the trial builder's
rejection sampling and interleave) as the loop reference, and pins every
seeded workload's columns to it byte for byte.
"""

from itertools import islice

import numpy as np
import pytest

from repro._numeric import exp, sigmoid, sqrt
from repro.engine import ARRAY_FIELDS, CaseArrays
from repro.exceptions import ProbabilityError, SimulationError
from repro.screening import Case, PopulationModel, field_workload, trial_workload
from repro.screening.workload import Workload
from repro.sweep.grid import POPULATIONS


class LoopReference:
    """The per-case generator, driving a population model's own generator."""

    def __init__(self, population: PopulationModel):
        self.population = population
        self.rng = population._rng
        self.next_id = population._next_id

    def _new_id(self) -> int:
        case_id = self.next_id
        self.next_id += 1
        return case_id

    def generate_cancer_case(self) -> Case:
        p = self.population
        profile_index = int(self.rng.choice(len(p.lesion_profiles), p=p._lesion_weights))
        profile = p.lesion_profiles[profile_index]
        density = float(self.rng.beta(2.2, 2.8))
        subtlety = float(self.rng.beta(1.8, 2.4))
        shared = float(self.rng.normal())
        rho = p.difficulty_correlation
        machine_latent = rho * shared + sqrt(1.0 - rho * rho) * float(self.rng.normal())
        human_latent = rho * shared + sqrt(1.0 - rho * rho) * float(self.rng.normal())
        covariates = p.subtlety_spread * (subtlety - 0.5) + p.density_spread * (
            density - 0.5
        )
        return Case(
            case_id=self._new_id(),
            has_cancer=True,
            lesion_type=profile.lesion_type,
            breast_density=density,
            subtlety=subtlety,
            machine_difficulty=sigmoid(
                profile.machine_base + covariates + p.noise_scale * machine_latent
            ),
            human_detection_difficulty=sigmoid(
                profile.human_detection_base + covariates + p.noise_scale * human_latent
            ),
            human_classification_difficulty=sigmoid(
                profile.human_classification_base
                + 0.5 * covariates
                + p.noise_scale * 0.5 * human_latent
            ),
            distractor_level=float(self.rng.beta(2.0, 5.0)),
        )

    def generate_healthy_case(self) -> Case:
        density = float(self.rng.beta(2.2, 2.8))
        distractors = float(self.rng.beta(2.0, 4.0))
        suspiciousness = sigmoid(
            -3.0 + 2.2 * distractors + 1.0 * (density - 0.5)
            + self.population.noise_scale * float(self.rng.normal())
        )
        return Case(
            case_id=self._new_id(),
            has_cancer=False,
            lesion_type=None,
            breast_density=density,
            subtlety=0.0,
            machine_difficulty=0.0,
            human_detection_difficulty=0.0,
            human_classification_difficulty=suspiciousness,
            distractor_level=distractors,
        )

    def generate_case(self) -> Case:
        if float(self.rng.random()) < self.population.prevalence:
            return self.generate_cancer_case()
        return self.generate_healthy_case()

    def trial_cases(
        self, num_cases, cancer_fraction, subtlety_enrichment=0.0, selection_seed=None
    ) -> tuple[Case, ...]:
        num_cancers = round(num_cases * cancer_fraction)
        if subtlety_enrichment > 0:
            selection_rng = np.random.default_rng(selection_seed)
            cancers = []
            while len(cancers) < num_cancers:
                candidate = self.generate_cancer_case()
                acceptance = exp(subtlety_enrichment * (candidate.subtlety - 1.0))
                if float(selection_rng.random()) < acceptance:
                    cancers.append(candidate)
        else:
            cancers = [self.generate_cancer_case() for _ in range(num_cancers)]
        healthy = [self.generate_healthy_case() for _ in range(num_cases - num_cancers)]
        combined = []
        cancer_iter, healthy_iter = iter(cancers), iter(healthy)
        remaining_cancers, remaining_healthy = len(cancers), len(healthy)
        credit = 0.0
        for _ in range(num_cases):
            take_cancer = remaining_cancers > 0 and (
                remaining_healthy == 0 or credit + cancer_fraction >= 1.0
            )
            if take_cancer:
                combined.append(next(cancer_iter))
                remaining_cancers -= 1
                credit += cancer_fraction - 1.0
            else:
                combined.append(next(healthy_iter))
                remaining_healthy -= 1
                credit += cancer_fraction
        return tuple(combined)


def assert_byte_identical(workload: Workload, expected: tuple[Case, ...]) -> None:
    got = workload.to_arrays()
    want = CaseArrays.from_cases(expected)
    for name in ARRAY_FIELDS:
        column, reference = getattr(got, name), getattr(want, name)
        assert column.dtype == reference.dtype, name
        assert column.tobytes() == reference.tobytes(), name
    assert workload.cases == expected


SEEDS = (1, 7, 2024)
NUM_CASES = 300


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("preset", sorted(POPULATIONS))
class TestWorkloadsMatchTheLoop:
    def test_field(self, preset, seed):
        reference = LoopReference(POPULATIONS[preset](seed=seed))
        expected = tuple(reference.generate_case() for _ in range(NUM_CASES))
        assert_byte_identical(
            field_workload(POPULATIONS[preset](seed=seed), NUM_CASES), expected
        )

    @pytest.mark.parametrize("enrichment", [0.0, 2.0])
    @pytest.mark.parametrize("cancer_fraction", [0.5, 0.3, 0.13])
    def test_trial(self, preset, seed, cancer_fraction, enrichment):
        reference = LoopReference(POPULATIONS[preset](seed=seed))
        expected = reference.trial_cases(
            NUM_CASES, cancer_fraction, enrichment, selection_seed=seed + 1
        )
        workload = trial_workload(
            POPULATIONS[preset](seed=seed),
            NUM_CASES,
            cancer_fraction=cancer_fraction,
            subtlety_enrichment=enrichment,
            selection_seed=seed + 1,
        )
        assert_byte_identical(workload, expected)


@pytest.mark.parametrize("seed", SEEDS)
def test_case_methods_continue_one_stream(seed):
    """Every Case-returning method draws from, and numbers by, one sequence."""
    population = PopulationModel(prevalence=0.2, seed=seed)
    reference = LoopReference(PopulationModel(prevalence=0.2, seed=seed))
    got = [
        *population.generate(40),
        *population.generate_cancers(7),
        *population.generate_healthy(9),
        population.generate_case(),
        population.generate_cancer_case(),
        population.generate_healthy_case(),
        *islice(population.stream(), 25),
        *population.generate(3),
    ]
    expected = [
        *(reference.generate_case() for _ in range(40)),
        *(reference.generate_cancer_case() for _ in range(7)),
        *(reference.generate_healthy_case() for _ in range(9)),
        reference.generate_case(),
        reference.generate_cancer_case(),
        reference.generate_healthy_case(),
        *(reference.generate_case() for _ in range(25)),
        *(reference.generate_case() for _ in range(3)),
    ]
    assert got == expected
    assert [case.case_id for case in got] == list(range(len(got)))


def test_rejected_candidates_use_up_ids():
    population = PopulationModel(seed=5)
    workload = trial_workload(
        population, 100, cancer_fraction=0.5, subtlety_enrichment=2.0, selection_seed=3
    )
    ids = workload.to_arrays().case_id
    assert population._next_id > len(workload)
    assert int(ids.max()) == population._next_id - 1
    assert len(set(ids.tolist())) == len(workload)


def test_choice_is_searchsorted_on_its_normalised_cdf():
    """``rng.choice(n, p=w)`` draws one uniform and inverts numpy's own cdf."""
    weights = PopulationModel()._lesion_weights
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    chooser, inverter = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(20_000):
        expected = int(chooser.choice(len(weights), p=weights))
        assert int(cdf.searchsorted(inverter.random(), side="right")) == expected
        assert chooser.beta(2.2, 2.8) == inverter.beta(2.2, 2.8)


class TestColumnChecks:
    """Case's per-field checks, run over whole columns."""

    @staticmethod
    def healthy_row(density=0.5, distractors=0.2):
        return (0, False, 0.0, density, 0.0, 0.1, 0.0, 0.0, distractors)

    @pytest.mark.parametrize("bad", [1.5, -0.1, float("nan"), float("inf")])
    def test_out_of_range_or_non_finite_value_rejected(self, bad):
        population = PopulationModel(seed=1)
        with pytest.raises(ProbabilityError, match="breast_density"):
            population._columns([self.healthy_row(), self.healthy_row(density=bad)])

    def test_first_bad_case_is_reported_as_its_case_check_would(self):
        population = PopulationModel(seed=1)
        rows = [self.healthy_row(distractors=2.0), self.healthy_row(density=-1.0)]
        with pytest.raises(ProbabilityError, match="distractor_level"):
            population._columns(rows)

    def test_values_within_tolerance_are_clipped(self):
        population = PopulationModel(seed=1)
        arrays = population._columns(
            [self.healthy_row(density=1.0 + 1e-12, distractors=-1e-12)]
        )
        assert arrays.breast_density[0] == 1.0
        assert arrays.distractor_level[0] == 0.0

    def test_negative_count_rejected(self):
        with pytest.raises(SimulationError):
            field_workload(PopulationModel(seed=1), -1)


class TestWorkloadHoldsColumns:
    @pytest.fixture
    def workload(self):
        return trial_workload(PopulationModel(seed=9), 120, cancer_fraction=0.4, name="w")

    def test_column_reads_do_not_materialise_cases(self, workload):
        assert len(workload) == 120
        assert workload.cancer_fraction == pytest.approx(0.4)
        workload.to_arrays()
        workload.fingerprint()
        assert workload._cases is None
        assert workload.cases is workload.cases

    def test_cases_constructor_columnises_once(self, workload):
        rebuilt = Workload("w", workload.cases)
        assert rebuilt.to_arrays() is rebuilt.to_arrays()
        assert rebuilt == workload
        assert hash(rebuilt) == hash(workload)
        with pytest.raises(ValueError):
            rebuilt.to_arrays().subtlety[0] = 0.5

    def test_equality_is_name_and_content(self, workload):
        assert workload != Workload("other", workload.cases)
        shorter = Workload("w", workload.cases[:-1])
        assert workload != shorter
        assert workload != "w"

    def test_split_by_truth_keeps_order(self, workload):
        cancers, healthy = workload.split_by_truth()
        assert cancers.cases == workload.cancer_cases
        assert healthy.cases == workload.healthy_cases

    def test_pickle_round_trip_stays_read_only(self, workload):
        import pickle

        restored = pickle.loads(pickle.dumps(workload))
        assert restored == workload
        with pytest.raises(ValueError):
            restored.to_arrays().case_id[0] = 1
