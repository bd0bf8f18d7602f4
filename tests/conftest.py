"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.simulation import RngPool, Simulator, TraceLog


@pytest.fixture
def sim() -> Simulator:
    return Simulator()

@pytest.fixture
def trace() -> TraceLog:
    return TraceLog()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def rng_pool() -> RngPool:
    return RngPool(seed=12345)


@pytest.fixture
def gc_disabled():
    """Run with the cyclic collector off, so only reference counting frees:
    an object that outlives ``del`` is held by a reference cycle."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
