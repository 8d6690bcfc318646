"""The deployed CADT: a detection algorithm plus operational effects.

Section 5 (item 4) lists reasons the machine's failure probabilities may
change in the field: "maintenance practices, systematic differences in
film characteristics, better detection algorithms, different tuning".
:class:`Cadt` wraps a :class:`~repro.cadt.algorithm.DetectionAlgorithm`
with exactly those operational effects:

* **calibration drift** — the effective threshold drifts as cases are
  processed (film digitiser aging), degrading performance between
  maintenance visits;
* **maintenance** — recalibration resets the drift;
* **film-quality offset** — a site-specific systematic shift.

A :class:`Cadt` is the object the trial and system simulators hold; its
state advances per processed case, so two trials with equal seeds and
maintenance schedules see identical machine behaviour.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .._numeric import PrivateGenerator
from ..exceptions import SimulationError
from ..screening.case import Case
from .algorithm import CadtBatchOutput, CadtOutput, DetectionAlgorithm

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from ..engine.arrays import CaseArrays

__all__ = ["Cadt"]


class Cadt:
    """A computer-aided detection tool as operated at a site.

    Args:
        algorithm: The underlying detection algorithm.
        drift_per_case: Additive logit drift of the effective threshold per
            processed case (0 disables drift; positive values slowly make
            the tool miss more).
        film_quality_offset: Site-systematic logit shift (e.g. a poorly
            calibrated digitiser), applied on top of drift.
        seed: Seed for the tool's private random generator, created on
            its first draw (``None``: OS entropy, at construction).
    """

    def __init__(
        self,
        algorithm: DetectionAlgorithm | None = None,
        drift_per_case: float = 0.0,
        film_quality_offset: float = 0.0,
        seed: int | None = None,
    ):
        self.algorithm = algorithm if algorithm is not None else DetectionAlgorithm()
        if not math.isfinite(drift_per_case):
            raise SimulationError(f"drift_per_case must be finite, got {drift_per_case!r}")
        if not math.isfinite(film_quality_offset):
            raise SimulationError(
                f"film_quality_offset must be finite, got {film_quality_offset!r}"
            )
        self.drift_per_case = float(drift_per_case)
        self.film_quality_offset = float(film_quality_offset)
        self._rng = PrivateGenerator(seed)
        self._cases_since_maintenance = 0
        self._cases_processed = 0

    # -- state -----------------------------------------------------------------

    @property
    def cases_processed(self) -> int:
        """Total cases processed since construction."""
        return self._cases_processed

    @property
    def accumulated_drift(self) -> float:
        """Current logit drift since the last maintenance."""
        return self.drift_per_case * self._cases_since_maintenance

    @property
    def effective_algorithm(self) -> DetectionAlgorithm:
        """The algorithm as currently operating (drift and offset applied)."""
        shift = (
            self.algorithm.threshold_shift
            + self.accumulated_drift
            + self.film_quality_offset
        )
        if shift == self.algorithm.threshold_shift:
            return self.algorithm
        return self.algorithm.with_threshold_shift(shift)

    def perform_maintenance(self) -> None:
        """Recalibrate: reset accumulated drift to zero."""
        self._cases_since_maintenance = 0

    # -- behaviour ----------------------------------------------------------------

    def miss_probability(self, case: Case) -> float:
        """Current per-case miss probability (drift and offset included)."""
        return self.effective_algorithm.miss_probability(case)

    def false_positive_probability(self, case: Case) -> float:
        """Current per-case probability of any false prompt."""
        return self.effective_algorithm.false_positive_probability(case)

    def process(self, case: Case, rng: np.random.Generator | None = None) -> CadtOutput:
        """Process one case, advancing the tool's operational state.

        Args:
            case: The case to annotate.
            rng: Random generator to sample with; the tool's private
                generator when omitted.
        """
        output = self.effective_algorithm.process(
            case, rng if rng is not None else self._rng()
        )
        self._cases_processed += 1
        self._cases_since_maintenance += 1
        return output

    def process_batch(
        self,
        arrays: "CaseArrays",
        u: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
    ) -> CadtBatchOutput:
        """Process a whole batch of cases in one vectorized step.

        Only valid for a drift-free tool: per-case drift makes the
        effective threshold depend on processing order, which is exactly
        the statefulness the batch engine's scalar fallback exists for.

        Args:
            arrays: The batch, as a struct of arrays.
            u: Pre-drawn uniforms of shape ``(n, 2)``; drawn from ``rng``
                (or the tool's private generator) when omitted.
            rng: Random generator used when ``u`` is omitted.
        """
        if self.drift_per_case != 0.0:
            raise SimulationError(
                "process_batch requires drift_per_case == 0; a drifting tool "
                "is stateful and must go through the per-case scalar path"
            )
        n = len(arrays)
        if u is None:
            u = (rng if rng is not None else self._rng()).random((n, 2))
        output = self.effective_algorithm.process_batch(arrays, u)
        self._cases_processed += n
        self._cases_since_maintenance += n
        return output

    def __repr__(self) -> str:
        return (
            f"Cadt(version={self.algorithm.version!r}, "
            f"processed={self._cases_processed}, "
            f"drift={self.accumulated_drift:+.4f})"
        )
