"""Synthetic DPBench-style benchmark distributions (evaluation substrate).

The paper's data-dependent experiments (Table 4, Table 6, Fig. 4a) run over a
"diverse collection of 10 datasets taken from DPBench" — 1-D histograms such
as HEPTH, ADULTFRANK, MEDCOST, SEARCHLOGS, PATENT, INCOME, NETTRACE and 2-D
spatial datasets.  Those files are not bundled here, so this module provides
ten seeded synthetic distributions that span the same qualitative regimes the
benchmark was designed to cover: smooth vs spiky, dense vs sparse, uniform vs
heavy-tailed, clustered vs scattered.

Each generator returns a non-negative integer data vector (a histogram).  The
``scale`` parameter controls the total number of records.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

DatasetGenerator = Callable[[int, int, int], np.ndarray]


def _normalise_to_scale(weights: np.ndarray, scale: int, rng: np.random.Generator) -> np.ndarray:
    """Turn non-negative weights into an integer histogram with ~``scale`` records."""
    weights = np.clip(np.asarray(weights, dtype=np.float64), 0.0, None)
    total = weights.sum()
    if total <= 0:
        weights = np.ones_like(weights)
        total = weights.sum()
    probabilities = weights / total
    return rng.multinomial(scale, probabilities).astype(np.float64)


def uniform(n: int, scale: int = 100_000, seed: int = 0) -> np.ndarray:
    """Flat histogram: the regime where Uniform/Identity do well."""
    rng = np.random.default_rng(seed)
    return _normalise_to_scale(np.ones(n), scale, rng)


def gaussian_bump(n: int, scale: int = 100_000, seed: int = 1) -> np.ndarray:
    """A single smooth mode centred in the domain."""
    rng = np.random.default_rng(seed)
    x = np.arange(n)
    weights = np.exp(-0.5 * ((x - n / 2) / (n / 12)) ** 2)
    return _normalise_to_scale(weights, scale, rng)


def bimodal(n: int, scale: int = 100_000, seed: int = 2) -> np.ndarray:
    """Two separated smooth modes."""
    rng = np.random.default_rng(seed)
    x = np.arange(n)
    weights = np.exp(-0.5 * ((x - n / 4) / (n / 20)) ** 2) + 0.6 * np.exp(
        -0.5 * ((x - 3 * n / 4) / (n / 16)) ** 2
    )
    return _normalise_to_scale(weights, scale, rng)


def power_law(n: int, scale: int = 100_000, seed: int = 3) -> np.ndarray:
    """Zipf-like heavy tail (e.g. search-log frequencies)."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, n + 1) ** 1.1
    return _normalise_to_scale(weights, scale, rng)


def sparse_spikes(n: int, scale: int = 100_000, seed: int = 4) -> np.ndarray:
    """Mostly-empty domain with a few tall spikes (e.g. network trace ports)."""
    rng = np.random.default_rng(seed)
    weights = np.zeros(n)
    spikes = rng.choice(n, size=max(4, n // 200), replace=False)
    weights[spikes] = rng.pareto(1.5, size=len(spikes)) + 1.0
    return _normalise_to_scale(weights, scale, rng)


def piecewise_uniform(n: int, scale: int = 100_000, seed: int = 5) -> np.ndarray:
    """A few flat segments of very different densities (DAWA's best case)."""
    rng = np.random.default_rng(seed)
    num_segments = 8
    edges = np.sort(rng.choice(np.arange(1, n), size=num_segments - 1, replace=False))
    edges = np.concatenate([[0], edges, [n]])
    weights = np.zeros(n)
    for lo, hi in zip(edges[:-1], edges[1:]):
        weights[lo:hi] = rng.pareto(1.0) + 0.01
    return _normalise_to_scale(weights, scale, rng)


def exponential_decay(n: int, scale: int = 100_000, seed: int = 6) -> np.ndarray:
    """Counts decaying exponentially across the domain (e.g. income tails)."""
    rng = np.random.default_rng(seed)
    weights = np.exp(-np.arange(n) / (n / 8))
    return _normalise_to_scale(weights, scale, rng)


def clustered(n: int, scale: int = 100_000, seed: int = 7) -> np.ndarray:
    """Many narrow clusters scattered over the domain."""
    rng = np.random.default_rng(seed)
    weights = np.full(n, 1e-3)
    centers = rng.choice(n, size=max(6, n // 128), replace=False)
    x = np.arange(n)
    for c in centers:
        weights += np.exp(-0.5 * ((x - c) / (n / 256 + 1)) ** 2) * rng.pareto(1.2)
    return _normalise_to_scale(weights, scale, rng)


def zipf_shuffled(n: int, scale: int = 100_000, seed: int = 8) -> np.ndarray:
    """Heavy-tailed counts with no spatial smoothness (shuffled Zipf)."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, n + 1) ** 0.9
    rng.shuffle(weights)
    return _normalise_to_scale(weights, scale, rng)


def staircase(n: int, scale: int = 100_000, seed: int = 9) -> np.ndarray:
    """Monotone step function: favourable for hierarchical strategies."""
    rng = np.random.default_rng(seed)
    steps = 16
    weights = np.repeat(np.linspace(1.0, 20.0, steps), int(np.ceil(n / steps)))[:n]
    return _normalise_to_scale(weights, scale, rng)


#: The ten named 1-D benchmark distributions used by the evaluation harness.
DATASETS_1D: dict[str, DatasetGenerator] = {
    "UNIFORM": uniform,
    "GAUSSIAN": gaussian_bump,
    "BIMODAL": bimodal,
    "POWERLAW": power_law,
    "SPARSE": sparse_spikes,
    "PIECEWISE": piecewise_uniform,
    "EXPDECAY": exponential_decay,
    "CLUSTERED": clustered,
    "ZIPFSHUF": zipf_shuffled,
    "STAIRCASE": staircase,
}


def load_1d(name: str, n: int = 4096, scale: int = 100_000, seed: int | None = None) -> np.ndarray:
    """Load one of the named 1-D distributions as a data vector of length ``n``."""
    key = name.upper()
    if key not in DATASETS_1D:
        raise KeyError(f"unknown dataset {name!r}; available: {sorted(DATASETS_1D)}")
    generator = DATASETS_1D[key]
    default_seed = list(DATASETS_1D).index(key)
    return generator(n, scale, default_seed if seed is None else seed)


def load_2d(
    name: str = "GAUSS2D", shape: tuple[int, int] = (256, 256), scale: int = 1_000_000, seed: int = 0
) -> np.ndarray:
    """Synthetic 2-D spatial datasets (for UniformGrid / AdaptiveGrid / Quadtree).

    Supported names: ``GAUSS2D`` (one blob), ``MIXTURE2D`` (several blobs of
    different spread), ``SPARSE2D`` (scattered points), ``UNIFORM2D``.
    Returns the flattened row-major histogram of size ``rows * cols``.
    """
    rng = np.random.default_rng(seed)
    rows, cols = shape
    key = name.upper()
    r = np.arange(rows)[:, None]
    c = np.arange(cols)[None, :]
    if key == "UNIFORM2D":
        weights = np.ones((rows, cols))
    elif key == "GAUSS2D":
        weights = np.exp(
            -0.5 * (((r - rows / 2) / (rows / 8)) ** 2 + ((c - cols / 2) / (cols / 8)) ** 2)
        )
    elif key == "MIXTURE2D":
        weights = np.zeros((rows, cols))
        for _ in range(6):
            cr, cc = rng.integers(0, rows), rng.integers(0, cols)
            sr, sc = rng.uniform(rows / 40, rows / 8), rng.uniform(cols / 40, cols / 8)
            weights += np.exp(-0.5 * (((r - cr) / sr) ** 2 + ((c - cc) / sc) ** 2)) * rng.pareto(1.5)
    elif key == "SPARSE2D":
        weights = np.zeros((rows, cols))
        idx = rng.choice(rows * cols, size=max(8, rows * cols // 500), replace=False)
        weights.flat[idx] = rng.pareto(1.2, size=len(idx)) + 1.0
    else:
        raise KeyError(f"unknown 2-D dataset {name!r}")
    return _normalise_to_scale(weights.ravel(), scale, rng)
