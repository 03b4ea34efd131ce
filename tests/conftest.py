"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gaussian.distribution import Gaussian


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def paper_sigma_10() -> np.ndarray:
    """The paper's default 2-D covariance (Eq. 34 with γ = 10)."""
    root3 = np.sqrt(3.0)
    return 10.0 * np.array([[7.0, 2.0 * root3], [2.0 * root3, 3.0]])


@pytest.fixture
def paper_gaussian(paper_sigma_10) -> Gaussian:
    return Gaussian([500.0, 500.0], paper_sigma_10)


@pytest.fixture
def eigh_calls(monkeypatch) -> list[tuple[int, ...]]:
    """The shape of every matrix handed to ``np.linalg.eigh`` from here on.

    Σ is decomposed where a ``Gaussian`` is built from raw input and
    nowhere else; tests pin that by the length of this list.
    """
    calls: list[tuple[int, ...]] = []
    eigh = np.linalg.eigh

    def counting(matrix, *args, **kwargs):
        calls.append(np.shape(matrix))
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def random_spd(rng: np.random.Generator, dim: int, *, scale: float = 1.0) -> np.ndarray:
    """A random symmetric positive-definite matrix for property tests."""
    a = rng.standard_normal((dim, dim))
    return scale * (a @ a.T + dim * np.eye(dim) * 0.05)
