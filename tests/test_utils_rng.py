"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils import as_rng, spawn_rngs
from repro.utils.rng import int_seed


def test_as_rng_none_returns_generator():
    rng = as_rng(None)
    assert isinstance(rng, np.random.Generator)


def test_as_rng_int_is_reproducible():
    a = as_rng(42).random(5)
    b = as_rng(42).random(5)
    assert np.array_equal(a, b)


def test_as_rng_passthrough_identity():
    rng = np.random.default_rng(7)
    assert as_rng(rng) is rng


def test_as_rng_different_seeds_differ():
    assert not np.array_equal(as_rng(1).random(5), as_rng(2).random(5))


def test_spawn_rngs_count_and_independence():
    rngs = spawn_rngs(3, 4)
    assert len(rngs) == 4
    draws = [r.random(8) for r in rngs]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(draws[i], draws[j])


def test_spawn_rngs_reproducible_from_int():
    a = [r.random(3) for r in spawn_rngs(11, 2)]
    b = [r.random(3) for r in spawn_rngs(11, 2)]
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_spawn_rngs_from_generator():
    rngs = spawn_rngs(np.random.default_rng(5), 3)
    assert len(rngs) == 3
    assert all(isinstance(r, np.random.Generator) for r in rngs)


def test_spawn_rngs_zero():
    assert spawn_rngs(1, 0) == []


def test_spawn_rngs_negative_raises():
    with pytest.raises(ValueError):
        spawn_rngs(1, -1)


def test_int_seed_passes_integers_and_draws_from_streams():
    assert int_seed(5) == 5 and int_seed(np.int64(5)) == 5
    drawn = int_seed(np.random.default_rng(1))
    assert drawn == int_seed(np.random.default_rng(1))
    assert drawn == int_seed(np.random.SeedSequence(1))
