"""``stream.Stream`` draws exactly the stream of its oracle, ``default_rng(SeedSequence(seed))``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entconv.cavity import CavityParams
from entconv.protocols import ProtocolSpec, monte_carlo
from entconv.stream import HANDOVER, Stream

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 20260810, 3**8383]   # the last has 4000 digits


def _oracle(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


def _same(got, want):
    assert type(got) is type(want) and got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def _check_draws(seed, shapes):
    ours, numpy = Stream(seed), _oracle(seed)
    for shape in shapes:
        _same(ours.random(shape), numpy.random(shape))
    _same(ours.multinomial(1000, [0.2, 0.3, 0.5]), numpy.multinomial(1000, [0.2, 0.3, 0.5]))
    _same(ours.random((4,)), numpy.random((4,)))   # and the stream goes on in step


@pytest.mark.parametrize("seed", SEEDS, ids=["0", "1", "2**32-1", "2**32", "2**64+1", "readme", "4000_digits"])
def test_draws_match_numpy(seed):
    _check_draws(seed, [(), (1,), (7,), (0,), (300,), ()])


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**300), shapes=st.lists(st.tuples(st.integers(0, 50)), max_size=4))
def test_draws_match_numpy_for_drawn_seeds(seed, shapes):
    _check_draws(seed, [(), *shapes])


def test_a_run_of_draws_crosses_the_handover_in_step():
    ours, numpy = Stream(7), _oracle(7)
    taken = 0
    while taken <= HANDOVER:   # numpy takes over with the call that would pass HANDOVER
        _same(ours.random((1000,)), numpy.random((1000,)))
        taken += 1000
        assert (ours._numpy is None) == (taken <= HANDOVER)
    _same(ours.random((3,)), numpy.random((3,)))


def test_a_realistic_ensemble_past_the_handover_counts_as_numpy_draws_it():
    # 5000 realistic n=5 trials draw ~37 000 uniforms, so the batches after the
    # first few draw from the numpy Generator that continues the stream
    spec = ProtocolSpec(n_photons=5, max_iterations=8, gate_mode="realistic",
                        params=CavityParams(g=0.3, kappa=26.0, gamma=0.0004))
    ours = Stream(27)
    assert monte_carlo(spec, 5000, ours) == monte_carlo(spec, 5000, _oracle(27))
    assert ours._drawn <= HANDOVER and ours._numpy is not None


@pytest.mark.parametrize("seed", [-1, -2**70])
def test_a_negative_seed_is_rejected_as_seed_sequence_rejects_it(seed):
    with pytest.raises(ValueError, match="non-negative"):
        np.random.SeedSequence(seed)
    with pytest.raises(ValueError, match="non-negative"):
        Stream(seed)
