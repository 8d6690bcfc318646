"""Private generators: pinned unseeded outputs and the lazy-creation rules.

The seeded pins (``tests/engine/test_seeded_pins*.py``) thread one
shared generator through every decision, so they never reach a
component's *private* generator.  These values do: each system is built
by :meth:`SystemSpec.build` and then decided with no seed, so the
reader, its temporal wrapper and the CADT draw from the generators the
build seeded.  They were recorded before the private generators became
lazy (created on their first draw, with the component seeds derived
only then); a change that moves one of them is a determinism break,
not a re-pin.

Each pin is the sha1 of the packed recall decisions and the recall
count, for the batch (or chunked stream) path and for the scalar loop,
on a fresh build and on a copy pickled before its first use.  The other
tests hold the rules themselves: a seeded component creates its
generator on its first private draw and pickles its seed until then,
an unseeded one is eager, and a deferred component seed equals child
``i`` of ``SeedSequence(seed).spawn(3)``.
"""

import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._numeric import SpawnedSeed
from repro.cadt import Cadt
from repro.reader import AdaptiveReader, FatiguedReader, ReaderModel
from repro.sweep.grid import DYNAMICS, SYSTEM_KINDS, SystemSpec, WorkloadSpec

#: Uneven stream chunks, so the carried state crosses chunk boundaries.
CHUNK = 97
BUILD_SEED = 2024


def _workload():
    return WorkloadSpec("routine", "trial", num_cases=300, population_seed=11).build()


def _digest(recall):
    recall = np.asarray(recall, dtype=bool)
    return hashlib.sha1(np.packbits(recall).tobytes()).hexdigest()[:16], int(recall.sum())


def batch_outputs(system, arrays):
    """Unseeded recalls from the batch path, or the stream path in chunks."""
    if getattr(system, "supports_batch", False):
        return _digest(system.decide_batch(arrays).recall)
    state = system.stream_state()
    recalls = []
    for start in range(0, len(arrays), CHUNK):
        decisions, state = system.advance_stream(
            arrays.chunk(start, min(start + CHUNK, len(arrays))), state
        )
        recalls.append(decisions.recall)
    return _digest(np.concatenate(recalls))


def scalar_outputs(system, workload):
    """Unseeded recalls from the per-case loop."""
    return _digest([system.decide(case).recall for case in workload])


SPECS = [
    SystemSpec(kind, "mild", dynamics, operating_point)
    for kind in SYSTEM_KINDS
    for dynamics in DYNAMICS
    for operating_point in (0.0, 0.2)
]

#: (kind, dynamics, operating point) -> (batch pin, scalar pin).
PINS = {
    ('unaided', 'none', 0.0): (('7cc31f07d38f1e9b', 115), ('7cc31f07d38f1e9b', 115)),
    ('unaided', 'none', 0.2): (('7cc31f07d38f1e9b', 115), ('7cc31f07d38f1e9b', 115)),
    ('unaided', 'adaptive', 0.0): (('1c17fc1fcd5dd8ec', 129), ('1c17fc1fcd5dd8ec', 129)),
    ('unaided', 'adaptive', 0.2): (('1c17fc1fcd5dd8ec', 129), ('1c17fc1fcd5dd8ec', 129)),
    ('unaided', 'fatigue', 0.0): (('a9fc9e83a2570679', 123), ('a9fc9e83a2570679', 123)),
    ('unaided', 'fatigue', 0.2): (('a9fc9e83a2570679', 123), ('a9fc9e83a2570679', 123)),
    ('assisted', 'none', 0.0): (('cf217f28a07ceff2', 145), ('cf217f28a07ceff2', 145)),
    ('assisted', 'none', 0.2): (('55551659d8889aec', 141), ('55551659d8889aec', 141)),
    ('assisted', 'adaptive', 0.0): (('bf4856e2ac5beb75', 156), ('bf4856e2ac5beb75', 156)),
    ('assisted', 'adaptive', 0.2): (('b65354ba779783de', 152), ('b65354ba779783de', 152)),
    ('assisted', 'fatigue', 0.0): (('4895c40a622f7660', 167), ('4895c40a622f7660', 167)),
    ('assisted', 'fatigue', 0.2): (('765c1cb1001d1a03', 163), ('765c1cb1001d1a03', 163)),
}


@pytest.fixture(scope="module")
def workload():
    return _workload()


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.label() + f"@{spec.operating_point}")
class TestUnseededOutputsPinned:
    def key(self, spec):
        return (spec.kind, spec.dynamics, spec.operating_point)

    def test_fresh_build(self, spec, workload):
        batch = batch_outputs(spec.build(BUILD_SEED), workload.to_arrays())
        scalar = scalar_outputs(spec.build(BUILD_SEED), workload)
        assert (batch, scalar) == PINS[self.key(spec)]

    def test_copy_pickled_before_first_use(self, spec, workload):
        batch_system = pickle.loads(pickle.dumps(spec.build(BUILD_SEED)))
        scalar_system = pickle.loads(pickle.dumps(spec.build(BUILD_SEED)))
        batch = batch_outputs(batch_system, workload.to_arrays())
        scalar = scalar_outputs(scalar_system, workload)
        assert (batch, scalar) == PINS[self.key(spec)]

    def test_original_and_copy_share_their_state(self, spec, workload):
        """A copy pickled before first use draws what the original draws."""
        original = spec.build(BUILD_SEED)
        copy = pickle.loads(pickle.dumps(original))
        arrays = workload.to_arrays()
        assert batch_outputs(original, arrays) == batch_outputs(copy, arrays)


def spawned_component_seeds(seed, count):
    """How component seeds were derived before: one ``SeedSequence.spawn``."""
    return [
        int(sequence.generate_state(1)[0])
        for sequence in np.random.SeedSequence(seed).spawn(count)
    ]


class TestComponentSeedDerivation:
    @given(st.integers(0, 2**128))
    @settings(max_examples=60, deadline=None)
    def test_spawned_seed_equals_spawn_key_state(self, seed):
        """Component ``i``'s seed needs only its own spawn key, not a spawn."""
        for i, derived in enumerate(spawned_component_seeds(seed, 3)):
            sequence = np.random.SeedSequence(seed, spawn_key=(i,))
            assert derived == int(sequence.generate_state(1)[0])
            assert derived == SpawnedSeed(seed, i).derive()

    def test_build_defers_the_derivation(self):
        system = SystemSpec("assisted", "mild", "fatigue").build(7)
        components = (system.reader.base_reader, system.reader, system.cadt)
        for i, component in enumerate(components):
            assert component._rng.seed == SpawnedSeed(7, i)
            assert component._rng._generator is None


def components(seed):
    reader = ReaderModel(seed=seed)
    return [
        reader,
        FatiguedReader(reader, seed=seed),
        AdaptiveReader(reader, seed=seed),
        Cadt(seed=seed),
    ]


def private_draws(component):
    return component._rng().random(3)


class TestLazyPrivateGenerators:
    def test_seeded_generator_is_created_on_first_private_draw(self):
        for component in components(5):
            assert component._rng._generator is None
            assert (private_draws(component) == np.random.default_rng(5).random(3)).all()
            assert component._rng._generator is not None

    def test_unused_seeded_component_pickles_its_seed(self):
        for component in components(5):
            copy = pickle.loads(pickle.dumps(component))
            assert copy._rng.seed == 5 and copy._rng._generator is None
            assert b"PCG64" not in pickle.dumps(component)

    def test_shared_generator_leaves_the_private_one_unmade(self, workload):
        system = SystemSpec("assisted", "mild", "fatigue").build(3)
        arrays = workload.to_arrays()
        system.advance_stream(arrays, system.stream_state(), rng=np.random.default_rng(1))
        for component in (system.reader.base_reader, system.reader, system.cadt):
            assert component._rng._generator is None

    def test_unseeded_component_is_eager_and_its_copy_shares_state(self):
        for component in components(None):
            assert component._rng._generator is not None
            copy = pickle.loads(pickle.dumps(component))
            assert (private_draws(copy) == private_draws(component)).all()

    def test_spawned_seed_equals_an_explicit_integer_seed(self, workload):
        arrays = workload.to_arrays()
        lazy = ReaderModel(seed=SpawnedSeed(9, 2))
        eager = ReaderModel(seed=spawned_component_seeds(9, 3)[2])
        assert (lazy.decide_batch(arrays) == eager.decide_batch(arrays)).all()


if __name__ == "__main__":  # pragma: no cover - how the pins were recorded
    cases = _workload()
    for spec in SPECS:
        batch = batch_outputs(spec.build(BUILD_SEED), cases.to_arrays())
        scalar = scalar_outputs(spec.build(BUILD_SEED), cases)
        print(f"    {(spec.kind, spec.dynamics, spec.operating_point)!r}: ({batch!r}, {scalar!r}),")
