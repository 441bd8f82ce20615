"""Sequential model-based optimization over the fixed hyperparameter space.

The tuner works on the unit cube: a Latin hypercube warm start, a zero-mean
Gaussian process surrogate with an anisotropic Matern-5/2 kernel on
standardized objective values, and expected improvement maximized over seeded
random candidates plus coordinate-wise local refinement. Parameters marked
log2 decode as 2^raw; integers round half away from zero.

A fit evaluates the likelihood thousands of times on kernel matrices of
under 50 x 50, where call overhead outweighs the arithmetic. So the GP
calls LAPACK without scipy.linalg's input checks: one function builds the
kernel matrix from the point differences (computed once per fit) and
factors it with dpotrf, the likelihood and the final fit solve with dpotrs,
and the posterior solves with dtrtrs.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy

from .data import DataError

_SQRT5 = math.sqrt(5.0)
_NUGGET_FLOOR = 1e-8
_NUGGET_CAP = 1e-2
_SD_FLOOR = 1e-12
_DUP_TOL = 1e-9
_N_CANDIDATES = 1000
_N_REFINE = 10
_REFINE_STEPS = (0.05, 0.01)


class TuneError(RuntimeError):
    """The optimization loop was asked to do something its state forbids."""


@dataclass(frozen=True)
class Param:
    name: str
    lower: float
    upper: float
    integer: bool = False
    log2: bool = False


# The fixed 8-parameter search space, in unit-cube coordinate order.
SPACE = (
    Param("eta", 0.01, 0.2),
    Param("gamma", -7.0, 6.0, log2=True),
    Param("max_depth", 3.0, 20.0, integer=True),
    Param("colsample_bytree", 0.5, 1.0),
    Param("colsample_bylevel", 0.5, 1.0),
    Param("lambda", -10.0, 10.0, log2=True),
    Param("alpha", -10.0, 10.0, log2=True),
    Param("subsample", 0.5, 1.0),
)


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


def decode_config(point) -> dict:
    """Map a unit-cube point to raw parameter values."""
    point = np.asarray(point, dtype=np.float64)
    if point.shape != (len(SPACE),):
        raise ValueError(f"point must have length {len(SPACE)}")
    if np.any(point < 0.0) or np.any(point > 1.0):
        raise ValueError("point coordinates must lie in [0,1]")
    values = {}
    for u, p in zip(point, SPACE):
        # Convex form is exact at the corners, unlike lower + u*(upper-lower).
        raw = p.lower * (1.0 - u) + p.upper * u
        value = 2.0**raw if p.log2 else raw
        values[p.name] = _round_half_away(value) if p.integer else float(value)
    return values


def initial_design(n_init: int, seed: int) -> np.ndarray:
    """Latin hypercube: per dimension, one point in each of n_init strata."""
    if n_init < 1:
        raise ValueError(f"n_init must be >= 1, got {n_init}")
    rng = np.random.default_rng(seed)
    pts = np.empty((n_init, len(SPACE)), dtype=np.float64)
    for j in range(len(SPACE)):
        strata = rng.permutation(n_init)
        pts[:, j] = (strata + rng.uniform(size=n_init)) / n_init
    return pts


# ---------------------------------------------------------------------------
# Gaussian process surrogate


def _matern52(t: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Matern-5/2 correlation at t = sqrt(5) * scaled distance, given e = exp(-t)."""
    return (1.0 + t + t * t / 3.0) * e


def _kernel_parts(D: np.ndarray, ell: np.ndarray):
    """Squared scaled differences S and t = sqrt(5) * scaled distance.

    ``D`` holds the coordinate differences of two point sets,
    ``A[:, None, :] - B[None, :, :]``.
    """
    diff = D / ell
    S = diff * diff
    T = _SQRT5 * np.sqrt(S.sum(axis=-1))
    return S, T


def _factor_kernel(D: np.ndarray, ell: np.ndarray, sf2: float, noise: float):
    """K = sf2 * M + noise * I of the difference tensor, factored with LAPACK's dpotrf.

    Returns S and T from ``_kernel_parts``, E = exp(-T), the Matern matrix M and
    K's lower Cholesky factor L, which is None when K is not positive definite.
    """
    S, T = _kernel_parts(D, ell)
    E = np.exp(-T)
    M = _matern52(T, E)
    K = sf2 * M
    K[np.diag_indices(len(K))] += noise
    L, info = scipy.linalg.lapack.dpotrf(K, lower=1, clean=1)
    return S, T, E, M, (L if info == 0 else None)


def _nll_and_grad(theta: np.ndarray, D: np.ndarray, z: np.ndarray, noise: float):
    """Negative log marginal likelihood and its gradient in log parameters.

    ``D`` is the difference tensor of the training points against
    themselves, computed once per fit. A kernel matrix that LAPACK cannot
    factor scores 1e25 with a zero gradient.
    """
    n, _, d = D.shape
    sf2 = np.exp(theta[d])
    S, T, E, M, L = _factor_kernel(D, np.exp(theta[:d]), sf2, noise)
    if L is None:
        return 1e25, np.zeros(d + 1)
    alpha, _ = scipy.linalg.lapack.dpotrs(L, z, lower=1)
    nll = 0.5 * float(z @ alpha) + float(np.log(np.diag(L)).sum()) + 0.5 * n * math.log(2 * math.pi)
    K_inv, _ = scipy.linalg.lapack.dpotrs(L, np.eye(n), lower=1)
    A = np.outer(alpha, alpha) - K_inv
    grad = np.empty(d + 1)
    # dK/dlog(ell_i) = (5/3) (1+T) exp(-T) sf2 * S_i, dK/dlog(sf2) = sf2 * M.
    C = (5.0 / 3.0) * (1.0 + T) * E * sf2
    grad[:d] = -0.5 * np.einsum("ij,ijk->k", A * C, S)
    grad[d] = -0.5 * float((A * (sf2 * M)).sum())
    return nll, grad


@dataclass
class GPSurrogate:
    """Fitted zero-mean GP on standardized objective values."""

    X: np.ndarray
    y_mean: float
    y_std: float
    length_scales: np.ndarray
    signal_var: float
    noise_var: float
    chol: np.ndarray  # lower Cholesky factor of the training kernel matrix
    alpha: np.ndarray  # K^-1 z, z the standardized training values

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate([np.log(self.length_scales), [math.log(self.signal_var)]])

    def posterior(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and sd of the latent objective, destandardized."""
        P = np.atleast_2d(np.asarray(points, dtype=np.float64))
        _, t = _kernel_parts(P[:, None, :] - self.X[None, :, :], self.length_scales)
        Ks = self.signal_var * _matern52(t, np.exp(-t))
        mu = self.y_mean + self.y_std * (Ks @ self.alpha)
        V, _ = scipy.linalg.lapack.dtrtrs(self.chol, Ks.T, lower=1)
        var = np.clip(self.signal_var - (V * V).sum(axis=0), 0.0, None)
        sd = self.y_std * np.sqrt(var)
        return mu, sd


def gp_fit(X, y, seed: int = 0, warm_start: np.ndarray | None = None) -> GPSurrogate | None:
    """Fit the surrogate by maximizing log marginal likelihood.

    Hyperparameters (anisotropic length-scales, signal variance) are found by
    multi-start L-BFGS-B with analytic gradients; the nugget stays at a small
    floor because objective evaluations are deterministic, escalating by
    decades only if the kernel matrix cannot be factorized. Constant values
    have nothing to fit and give None, on which the proposal step draws a
    random point.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) < 2:
        raise ValueError("gp_fit needs at least 2 points")
    if len(y) != len(X):
        raise ValueError("X and y lengths differ")
    if not np.all(np.isfinite(y)):
        raise ValueError("objective values must be finite")
    d = X.shape[1]
    y_mean = float(np.mean(y))
    y_std = float(np.std(y))
    if y_std < _SD_FLOOR:
        return None
    z = (y - y_mean) / y_std

    bounds = [(math.log(0.05), math.log(3.0))] * d + [(math.log(1e-3), math.log(1e3))]
    starts = []
    if warm_start is not None:
        starts.append(np.asarray(warm_start, dtype=np.float64))
    starts.append(np.concatenate([np.full(d, math.log(0.5)), [0.0]]))
    rng = np.random.default_rng(seed)
    starts.append(np.concatenate([
        rng.uniform(math.log(0.1), math.log(1.0), size=d),
        [rng.uniform(math.log(0.25), math.log(4.0))],
    ]))

    # _nll_and_grad returns 1e25 or a finite value, so the first start sets best_theta.
    D = X[:, None, :] - X[None, :, :]
    best_theta, best_nll = None, np.inf
    for theta0 in starts:
        res = scipy.optimize.minimize(
            _nll_and_grad, theta0, args=(D, z, _NUGGET_FLOOR),
            method="L-BFGS-B", jac=True, bounds=bounds,
            options={"maxiter": 50, "gtol": 1e-4},
        )
        if res.fun < best_nll:
            best_nll, best_theta = res.fun, res.x

    ell = np.exp(best_theta[:d])
    sf2 = float(np.exp(best_theta[d]))
    noise = _NUGGET_FLOOR
    while (L := _factor_kernel(D, ell, sf2, noise)[-1]) is None:
        noise *= 10.0
        if noise > _NUGGET_CAP:
            raise TuneError("kernel matrix singular even at maximum nugget")
    alpha, _ = scipy.linalg.lapack.dpotrs(L, z, lower=1)
    return GPSurrogate(X, y_mean, y_std, ell, sf2, noise, L, alpha)


def ei_value(mu, sd, best):
    """Closed-form expected improvement for minimization.

    EI = (best - mu) Phi(z) + sd phi(z) with z = (best - mu)/sd, degrading to
    max(best - mu, 0) when sd vanishes.
    """
    mu = np.asarray(mu, dtype=np.float64)
    sd = np.asarray(sd, dtype=np.float64)
    improve = best - mu
    with np.errstate(divide="ignore", invalid="ignore"):
        z = improve / sd
        phi = np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
        ei = improve * scipy.special.ndtr(z) + sd * phi
    ei = np.where(sd < _SD_FLOOR, np.maximum(improve, 0.0), ei)
    return float(ei) if ei.ndim == 0 else ei


@dataclass
class EvalRecord:
    point: np.ndarray
    config: dict
    value: float
    elapsed: float


@dataclass
class TuneState:
    """History and surrogate of one optimization run."""

    budget: int
    seed: int
    evaluated: list[EvalRecord] = field(default_factory=list)
    gp: GPSurrogate | None = None

    @property
    def incumbent_index(self) -> int:
        if not self.evaluated:
            raise TuneError("no evaluations recorded")
        return int(np.argmin([r.value for r in self.evaluated]))

    @property
    def incumbent(self) -> EvalRecord:
        return self.evaluated[self.incumbent_index]


def propose_point(state: TuneState) -> np.ndarray:
    """Maximize EI over seeded uniform candidates plus local refinements.

    Falls back to a random point when there is no surrogate. A proposal
    that duplicates an evaluated point within L-inf 1e-9 is nudged by a
    seeded uniform offset of magnitude 1e-3.
    """
    if len(state.evaluated) >= state.budget:
        raise TuneError("budget exhausted, cannot propose another point")
    d = len(SPACE)
    rng = np.random.default_rng([state.seed, len(state.evaluated)])
    points = np.asarray([r.point for r in state.evaluated]) if state.evaluated else np.empty((0, d))
    gp = state.gp
    if gp is None:
        return _dedup(rng.uniform(size=d), points, rng)

    best = min(r.value for r in state.evaluated)
    cand = rng.uniform(size=(_N_CANDIDATES, d))
    mu, sd = gp.posterior(cand)
    ei = ei_value(mu, sd, best)
    top = np.argsort(-ei)[:_N_REFINE]
    refined, refined_ei = _refine(gp, cand[top], ei[top], best)
    # The first start in EI-rank order among those with the highest refined EI.
    return _dedup(refined[int(np.argmax(refined_ei))], points, rng)


def _refine(gp: GPSurrogate, starts: np.ndarray, start_ei: np.ndarray, best: float):
    """Coordinate-wise EI ascent from all starts at once.

    Each (step, coordinate) sweep scores four moves per start in one posterior
    call; a start moves only to its best trial, and only if that is strictly
    better.
    """
    cur, cur_ei = starts.copy(), start_ei.copy()
    n, d = cur.shape
    rows = np.arange(n)
    for step in _REFINE_STEPS:
        offsets = np.asarray((-step, -step / 3.0, step / 3.0, step))
        for j in range(d):
            trials = np.repeat(cur[:, None, :], len(offsets), axis=1)
            trials[:, :, j] = np.clip(cur[:, j, None] + offsets, 0.0, 1.0)
            mu, sd = gp.posterior(trials.reshape(-1, d))
            e = ei_value(mu, sd, best).reshape(n, len(offsets))
            i = np.argmax(e, axis=1)
            moved = e[rows, i] > cur_ei
            cur[moved] = trials[rows[moved], i[moved]]
            cur_ei[moved] = e[rows[moved], i[moved]]
    return cur, cur_ei


def _dedup(pt: np.ndarray, evaluated: np.ndarray, rng) -> np.ndarray:
    for _ in range(100):
        if len(evaluated) == 0 or np.min(np.abs(evaluated - pt).max(axis=1)) > _DUP_TOL:
            return pt
        pt = np.clip(pt + rng.uniform(-1e-3, 1e-3, size=len(pt)), 0.0, 1.0)
    raise TuneError("could not produce a non-duplicate proposal")


def tune(
    objective,
    budget: int = 160,
    deadline: float = 3600.0,
    n_init: int | None = None,
    seed: int = 1,
) -> TuneState:
    """Run the SMBO loop: initial design, then {fit GP, propose, evaluate}.

    Non-finite objective values are recorded as a penalty, the worst plus
    the range of the finite values the objective has returned so far
    (earlier penalties never enter it), and the loop continues; failures in
    the initial design share the penalty computed after the design. An
    exception from the objective counts as a non-finite value and is
    reported as a warning, except a ``DataError``, which no other
    configuration can fix, and a warning that the warning filter raised as
    an error; those two propagate. If the design yields no finite value at all the run raises
    ``TuneError``, chained from the design's first exception. The wall-clock
    deadline is checked before every evaluation except the very first, so
    at least one configuration is always evaluated.
    """
    if n_init is None:
        if budget < 2:
            raise TuneError(f"budget must be >= 2, got {budget} (the initial design's n_init must be >= 2)")
        n_init = min(2 * len(SPACE), budget)
    if n_init < 2:
        raise TuneError(f"n_init must be >= 2, got {n_init}")
    if budget < n_init:
        raise TuneError(f"budget ({budget}) must be >= n_init ({n_init})")

    start = time.monotonic()
    state = TuneState(budget=budget, seed=seed)
    returned: list[float] = []
    first_error = None
    for i, pt in enumerate(initial_design(n_init, seed)):
        if i > 0 and time.monotonic() - start > deadline:
            break
        error = _evaluate(state, objective, pt, start, returned, penalize=False)
        first_error = first_error or error
    if not returned:
        raise TuneError("all initial evaluations returned non-finite values") from first_error
    penalty = _penalty_value(returned)
    for r in state.evaluated:
        if not math.isfinite(r.value):
            r.value = penalty

    warm = None
    while len(state.evaluated) < budget and time.monotonic() - start <= deadline:
        pts = np.asarray([r.point for r in state.evaluated])
        vals = np.asarray([r.value for r in state.evaluated])
        state.gp = gp_fit(pts, vals, seed=seed + 131 * len(state.evaluated), warm_start=warm)
        if state.gp is not None:
            warm = state.gp.theta
        proposal = propose_point(state)
        _evaluate(state, objective, proposal, start, returned, penalize=True)
    return state


def _evaluate(
    state: TuneState, objective, point: np.ndarray, start: float, returned: list[float], penalize: bool
):
    """Record one evaluation; a finite value also joins ``returned``.

    Returns the exception the objective raised, if any, after recording it
    as a non-finite value.
    """
    error = None
    try:
        value = float(objective(point))
    except (DataError, Warning):
        # A warning here is one the warning filter turned into an error, as
        # ``-W error::RuntimeWarning`` does for a NumPy overflow: it must stop the run.
        raise
    except Exception as exc:
        warnings.warn(f"evaluation {len(state.evaluated) + 1} failed and counts as non-finite: {exc!r}")
        error, value = exc, math.nan
    if math.isfinite(value):
        returned.append(value)
    elif penalize:
        value = _penalty_value(returned)
    state.evaluated.append(EvalRecord(
        point=np.asarray(point, dtype=np.float64),
        config=decode_config(point),
        value=value,
        elapsed=time.monotonic() - start,
    ))
    return error


def _penalty_value(returned: list[float]) -> float:
    worst, best = max(returned), min(returned)
    return worst + (worst - best) if worst > best else worst + 1.0


def history_csv(evaluations) -> str:
    """Tuning history as CSV: iteration, raw parameters, objective, seconds.

    ``evaluations`` are mappings with the decoded ``config`` over the
    ``SPACE`` parameters, the objective ``value`` and the cumulative
    ``elapsed`` seconds, as in a fitted pipeline's ``history["evaluations"]``.
    """
    names = [p.name for p in SPACE]
    lines = [",".join(["iteration", *names, "objective", "seconds"])]
    for i, rec in enumerate(evaluations, start=1):
        row = [str(i)]
        row += [repr(rec["config"][name]) for name in names]
        row += [repr(rec["value"]), f"{rec['elapsed']:.3f}"]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
