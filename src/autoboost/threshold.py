"""Metric-aware optimization of classification decision thresholds.

Binary tasks search a cutoff on the positive-class probability with a
multi-start linesearch; multiclass tasks anneal per-class divisors on the
open simplex with a heavy-tailed (generalized simulated annealing) visiting
distribution. Both optimizers always evaluate the default thresholds, so
they can never return something worse than plain argmax / 0.5.
"""

from __future__ import annotations

import math

import numpy as np

_POSITIVE_FLOOR = 1e-6
# Binary linesearch: a grid of _N_STEPS cutoffs in _N_STARTS windows.
_N_STEPS = 100
_N_STARTS = 5
# Multiclass annealing: iterations, visiting shape and initial temperature.
_GSA_ITERS = 500
_Q_V = 2.62
_TEMP0 = 1.0


def apply_thresholds(prob: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Turn an (n, K) matrix of row-stochastic probabilities into class indices.

    ``t`` is a 1-D threshold array. One entry is a binary cutoff: class 1
    iff p_1 >= t[0]. K entries are positive per-class divisors: the argmax
    of p_k / t_k, ties resolving to the lowest class index. Scaling the
    divisors by a positive constant changes no label.
    """
    prob = np.asarray(prob, dtype=np.float64)
    if prob.ndim != 2:
        raise ValueError("prob must be an (n, K) matrix")
    k = prob.shape[1]
    if len(t) == 1:
        if k != 2:
            raise ValueError(f"scalar threshold needs 2 probability columns, got {k}")
        return (prob[:, 1] >= t[0]).astype(np.intp)
    if len(t) != k:
        raise ValueError(f"threshold length {len(t)} does not match {k} classes")
    return np.argmax(prob / t, axis=1).astype(np.intp)


def _errors(prob: np.ndarray, truth: np.ndarray, cutoffs: np.ndarray) -> np.ndarray:
    """Misclassification rate of the rule p >= t at each cutoff t."""
    return ((prob[None, :] >= cutoffs[:, None]) != truth).mean(axis=1)


def optimize_binary(prob: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, float]:
    """Multi-start linesearch for the binary cutoff that minimizes mmce.

    The (0,1) interval is covered by a grid of 100 points split into 5 equal
    windows; each window's best point is refined once at 10x resolution. The
    default cutoff 0.5 is always evaluated, so the returned value never
    exceeds the error at 0.5. Ties go to the smallest cutoff.
    """
    prob = np.asarray(prob, dtype=np.float64).ravel()
    truth = np.asarray(truth)
    if prob.ndim != 1 or len(prob) != len(truth) or len(prob) == 0:
        raise ValueError("need matching non-empty probability and truth vectors")
    distinct = set(np.unique(truth).tolist())
    if not distinct <= {0, 1}:
        raise ValueError(f"binary truth must be 0/1 class indices, got {sorted(distinct)}")

    spacing = 1.0 / (_N_STEPS + 1)
    grid = spacing * np.arange(1, _N_STEPS + 1)
    values = _errors(prob, truth, grid)

    candidates = [(0.5, float(_errors(prob, truth, np.asarray([0.5]))[0]))]
    window = _N_STEPS // _N_STARTS
    for lo in range(0, _N_STEPS, window):
        local = lo + int(np.argmin(values[lo : lo + window]))
        # Offset 0 of the fine grid is the window's best grid point itself.
        fine = grid[local] + (spacing / 10.0) * np.arange(-9, 10)
        fine = fine[(fine > 0.0) & (fine < 1.0)]
        candidates.extend(zip(fine.tolist(), _errors(prob, truth, fine).tolist()))

    best_t, best_v = min(candidates, key=lambda c: (c[1], c[0]))
    return np.asarray([best_t]), best_v


def _visiting_temperature(i: int) -> float:
    return _TEMP0 * (2.0 ** (_Q_V - 1.0) - 1.0) / ((1.0 + i) ** (_Q_V - 1.0) - 1.0)


def _tsallis_step(rng, size: int) -> list[float]:
    """Heavy-tailed visiting sample via the Student-t representation.

    A q-Gaussian with shape q equals a Student-t with nu = (3-q)/(q-1)
    degrees of freedom, which for the customary q_v = 2.62 gives the very
    heavy tails that let the annealer make occasional long jumps.
    """
    nu = (3.0 - _Q_V) / (_Q_V - 1.0)
    normal = rng.standard_normal(size).tolist()
    chi2 = rng.chisquare(nu, size).tolist()
    return [g * math.sqrt(nu / max(c, 1e-300)) for g, c in zip(normal, chi2)]


def optimize_multiclass_gsa(
    prob: np.ndarray, truth: np.ndarray, seed: int = 1
) -> tuple[np.ndarray, float]:
    """Generalized simulated annealing of per-class divisors that minimize mmce.

    State is a point on the open simplex, started at uniform (which equals
    plain argmax and is evaluated first, so the result is never worse).
    Each of 500 iterations i perturbs every coordinate with a heavy-tailed
    visiting step (shape q_v = 2.62) scaled by
    T_v(i) = T0 (2^(q_v-1)-1)/((1+i)^(q_v-1)-1) with T0 = 1, clamps the
    proposal back onto the open simplex, and accepts worse states with
    probability exp(-delta / T_a) where T_a = T_v(i)/(i+1). Best-ever state
    and value are returned; the run is deterministic per (non-negative) seed.

    The step and the clamp run on Python floats; the normalizing total is
    NumPy's sum of the clamped proposal, so it keeps NumPy's summation order.
    A state is scored by counting the rows whose label differs, which gives
    the same float as ``metrics.mmce``.
    """
    prob = np.asarray(prob, dtype=np.float64)
    if prob.ndim != 2 or prob.shape[0] == 0 or prob.shape[1] < 3:
        raise ValueError("multiclass threshold optimization needs a non-empty (n, K>=3) matrix")
    n, k = prob.shape
    truth = np.asarray(truth)
    if truth.shape != (n,):
        raise ValueError(f"need a 1-D truth vector of {n} entries, got shape {truth.shape}")
    rng = np.random.default_rng(seed)

    def evaluate(state: np.ndarray) -> float:
        return int(np.count_nonzero((prob / state).argmax(axis=1) != truth)) / n

    start = np.full(k, 1.0 / k)
    start = start / start.sum()
    current, current_value = start.tolist(), evaluate(start)
    best_state, best_value = start, current_value

    for i in range(1, _GSA_ITERS + 1):
        t_visit = _visiting_temperature(i)
        step = _tsallis_step(rng, k)
        proposal = np.array([max(c + t_visit * s, _POSITIVE_FLOOR) for c, s in zip(current, step)])
        proposal /= proposal.sum()
        value = evaluate(proposal)
        if value < best_value:
            best_state, best_value = proposal, value
        accept = value <= current_value
        if not accept:
            t_accept = t_visit / (i + 1.0)
            accept = rng.uniform() < math.exp(-(value - current_value) / max(t_accept, 1e-300))
        if accept:
            current, current_value = proposal.tolist(), value

    return best_state, best_value
