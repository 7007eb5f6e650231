"""Closed-form pieces of the KL-constrained robust loss.

For one training instance with positive logit ``L_+`` and contrast logits
``L_1..L_K``, write ``h_k = L_k - L_+`` for the margins. The robust loss at
temperature ``tau`` is

    f(z, tau) = tau * log( (1/K) * sum_k exp(h_k / tau) ) + tau * rho .

It is the Lagrangian dual of maximizing the expected margin over probability
vectors confined to a KL ball of radius ``rho`` around uniform, with the KL
penalty weighted by the floor temperature ``tau0``:

    max_{p in simplex, KL(p, 1/K) <= rho}  sum_k p_k h_k - tau0 * KL(p, 1/K)
        = min_{tau >= tau0} f(z, tau) - tau0 * rho .

The inner maximizer at fixed tau is the Gibbs distribution
p_k = exp(L_k/tau) / sum_l exp(L_l/tau), which makes the first and second
tau-derivatives explicit: the gradient is ``rho`` minus the KL divergence of
the Gibbs weights from uniform, and the Hessian is a Gibbs variance scaled by
1/tau^3, hence nonnegative, hence f is convex in tau.

f, df/dtau and d2f/dtau2 are written once, for (n, K) margin blocks with one
tau per row; robust_loss, grad_tau and hess_tau are one-row calls. Besides
these, this module provides the log-mean-exp gap ``b_z`` with its provable
[0, max - mean] bounds, the fixed-point form of the interior optimal
temperature, and a brute-force simplex-enumeration oracle for the primal side
of the duality used by the verification suite.

Everything here is a pure float64 function of its inputs; nothing mutates
shared state, so every operation is safe to call from concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, UnsupportedSizeError, bounds, check_fields

__all__ = [
    "LogitSet",
    "DroConfig",
    "block_loss",
    "block_grad_curvature",
    "robust_loss",
    "grad_tau",
    "hess_tau",
    "gibbs_distribution",
    "primal_dro_oracle",
    "compute_bz",
    "fixed_point_rhs",
]


def _as_vector(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DomainError(f"{what} must be a 1-d vector, got shape {arr.shape}")
    return arr


def _require_tau(tau: float) -> float:
    tau = float(tau)
    if not math.isfinite(tau) or tau <= 0.0:
        raise DomainError(f"tau must be a finite positive real, got {tau}")
    return tau


@dataclass(frozen=True)
class LogitSet:
    """One instance: the positive logit and its K >= 1 contrasting logits."""

    positive: float
    contrast: np.ndarray

    def __post_init__(self):
        pos = float(self.positive)
        arr = _as_vector(self.contrast, "contrast")
        if arr.size < 1:
            raise DomainError("contrast set must hold at least one logit")
        if not (math.isfinite(pos) and np.isfinite(arr).all()):
            raise DomainError("logits must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "positive", pos)
        object.__setattr__(self, "contrast", arr)

    @property
    def k(self) -> int:
        return self.contrast.size

    @property
    def margins(self) -> np.ndarray:
        """h_k = L_k - L_+."""
        return self.contrast - self.positive


@dataclass(frozen=True)
class DroConfig:
    """Hyper-parameters shared by all instances.

    ``tau0`` is the temperature floor, ``tau_max`` the ceiling used by the
    temperature network's output map, ``rho`` the KL-ball radius. ``rho = 0``
    is admitted (the ball degenerates to the uniform point); the bridge
    identities between the robust and plain losses live exactly there.
    """

    tau0: float = field(default=1e-3, metadata=bounds(0, open_lo=True))
    tau_max: float = 2.0
    rho: float = field(default=1.0, metadata=bounds(0))

    def __post_init__(self):
        # stored as floats, so equal configs hash equal (trainer.config_hash)
        for name in ("tau0", "tau_max", "rho"):
            object.__setattr__(self, name, float(getattr(self, name)))
        check_fields(self)
        if self.tau_max <= self.tau0:
            raise DomainError(
                f"tau_max must exceed tau0, got tau_max={self.tau_max} tau0={self.tau0}"
            )


def _shifted_scaled_margins(h: np.ndarray, tau: float) -> np.ndarray:
    # (h - max h) / tau: all entries <= 0, so exp never overflows even for
    # tau far below the 1e-6 regime where the unshifted form would.
    return (h - h.max()) / tau


def block_loss(h: np.ndarray, tau: np.ndarray, rho: float) -> np.ndarray:
    """f(z, tau) of every row of an (n, K) margin block at its own tau."""
    h_max = h.max(axis=1)
    log_mean = np.log(np.exp((h - h_max[:, None]) / tau[:, None]).sum(axis=1) / h.shape[1])
    return h_max + tau * log_mean + tau * rho


def block_grad_curvature(d: np.ndarray, tau: np.ndarray, rho: float, curvature: bool = True):
    """df/dtau = rho - KL(p, uniform) and (if asked) d2f/dtau2 = Var_p(h) / tau^3
    of every row at its own tau, p the Gibbs weights, from one exp pass; the
    curvature is a centered second moment, so >= 0, or None when not asked for.

    d holds each row's shifted margins h - max h, so exp never overflows.
    """
    z = d / tau[:, None]
    p = np.exp(z)
    se = p.sum(axis=1)
    p /= se[:, None]
    mu = np.einsum("ij,ij->i", p, z)
    grad = np.log(se / d.shape[1]) - mu + rho
    if not curvature:
        return grad, None
    z -= mu[:, None]
    return grad, np.einsum("ij,ij->i", p, np.square(z, out=z)) / tau


def robust_loss(ls: LogitSet, tau: float, cfg: DroConfig) -> float:
    """f(z, tau) = tau * log((1/K) * sum_k exp(h_k/tau)) + tau * rho, on one row."""
    return float(block_loss(ls.margins[None, :], np.array([_require_tau(tau)]), cfg.rho)[0])


def grad_tau(ls: LogitSet, tau: float, cfg: DroConfig) -> float:
    """d f / d tau: block_grad_curvature on one row."""
    h, tau = ls.margins[None, :], np.array([_require_tau(tau)])
    return float(block_grad_curvature(h - h.max(), tau, cfg.rho, curvature=False)[0][0])


def hess_tau(ls: LogitSet, tau: float) -> float:
    """d2 f / d tau2: block_grad_curvature on one row."""
    h, tau = ls.margins[None, :], np.array([_require_tau(tau)])
    return float(block_grad_curvature(h - h.max(), tau, 0.0)[1][0])


def gibbs_distribution(ls: LogitSet, tau: float) -> np.ndarray:
    """p_k = exp(L_k/tau) / sum_l exp(L_l/tau), max-shifted."""
    tau = _require_tau(tau)
    z = _shifted_scaled_margins(ls.contrast, tau)
    e = np.exp(z)
    return e / float(e.sum())


def compute_bz(ls: LogitSet, tau: float) -> float:
    """b_z = tau * log((1/K) sum_k e^{L_k/tau}) - mean_k L_k.

    Lies in [0, max_k L_k - mean_k L_k] for every tau > 0: the lower bound is
    the arithmetic-geometric mean inequality on the exponentials, the upper
    bound is log-mean-exp <= max.
    """
    tau = _require_tau(tau)
    L = ls.contrast
    z = _shifted_scaled_margins(L, tau)
    lme = float(L.max()) + tau * math.log(float(np.mean(np.exp(z))))
    return lme - float(L.mean())


def fixed_point_rhs(ls: LogitSet, tau: float, cfg: DroConfig) -> float:
    """(1/rho) * [ sum_k (p_k(tau) - 1/K) * L_k - b_z(tau) ].

    At an interior minimizer tau* of f(z, .) this evaluates to tau* itself,
    which is the self-consistency the temperature network's pooling layer
    mirrors. Uniform logits give 0, signalling the clamped regime below tau0.
    """
    tau = _require_tau(tau)
    if cfg.rho <= 0.0:
        raise DomainError("fixed point form requires rho > 0")
    L = ls.contrast
    p = gibbs_distribution(ls, tau)
    attended = float((p - 1.0 / L.size) @ L)
    return (attended - compute_bz(ls, tau)) / cfg.rho


def primal_dro_oracle(ls: LogitSet, cfg: DroConfig, grid_step: float = 0.005) -> float:
    """Brute-force primal value by dense simplex enumeration.

    Maximizes sum_k p_k h_k - tau0 * KL(p, uniform) over all grid points of
    the simplex with KL(p, uniform) <= rho. Deliberately derivative-free and
    independent of the dual solver so the two sides of the duality can be
    compared.

    The grid uses n = K * round(1 / (K * grid_step)) subdivisions, snapped to
    a multiple of K so the exact uniform point is always a grid point (with
    rho = 0 the feasible set would otherwise be empty, e.g. K = 3 at step
    0.005); feasibility carries 1e-12 of slack for float noise at that
    corner. The best coarse point is then polished by stall-terminated local
    walks at step/10 and step/100, alternating between the two scales until
    a full sweep stops improving. When the ball constraint binds, the coarse
    argmax can sit many cells away from the true maximizer along the curved
    boundary (position along the boundary matters less than distance from
    it), so the walks must travel; near-tied top margins additionally force
    strongly anisotropic moves (many steps traded between the tied pair per
    step taken off a third coordinate), which is why the fine scale gets a
    wide candidate window. The returned value sits below the true supremum
    by O(grid_step) in the worst case, in practice O(grid_step/100).
    Zero-probability corners follow the 0 * log 0 = 0 convention.
    """
    grid_step = float(grid_step)
    if not (0.0 < grid_step <= 0.1):
        raise DomainError(f"grid_step must lie in (0, 0.1], got {grid_step}")
    k = ls.k
    if k > 4:
        raise UnsupportedSizeError(
            f"primal oracle supports K <= 4 (grid size ~(1/step)^(K-1)), got K={k}"
        )
    h = ls.margins
    n = max(k, k * round(1.0 / (k * grid_step)))
    probs, kl = _simplex_grid(k, n)
    objective = probs @ h - cfg.tau0 * kl
    feasible = kl <= cfg.rho + 1e-12
    masked = np.where(feasible, objective, -np.inf)
    best_idx = int(masked.argmax())
    best_val = float(masked[best_idx])
    best_p = probs[best_idx]

    # radius 48 at the fine scale covers margin ties down to ~1:47
    # anisotropy; K = 4 pays (2r+1)^3 candidates per pass so it takes a
    # narrower window there
    radii = (10, 48) if k <= 3 else (10, 20)
    for _ in range(8):
        improved = False
        step = 1.0 / n
        for radius in radii:
            step /= 10.0
            # repeat until stalled so the search can travel along the curved
            # KL boundary further than one coarse cell
            for _ in range(200):
                val, best_p = _local_simplex_max(h, cfg, best_val, best_p, step, radius)
                if val <= best_val:
                    break
                best_val = val
                improved = True
        if not improved:
            break
    return best_val


def _local_simplex_max(h, cfg, best_val, best_p, step, radius):
    """One enumeration pass over best_p + step * (zero-sum offsets)."""
    k = h.size
    cand = best_p[None, :] + step * _zero_sum_offsets(k, radius)
    cand = cand[(cand >= -1e-12).all(axis=1)]
    cand = np.maximum(cand, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(cand > 0.0, cand * np.log(cand), 0.0)
    kl = plogp.sum(axis=1) + math.log(k)
    objective = cand @ h - cfg.tau0 * kl
    masked = np.where(kl <= cfg.rho + 1e-12, objective, -np.inf)
    idx = int(masked.argmax())
    if masked[idx] > best_val:
        return float(masked[idx]), cand[idx]
    return best_val, best_p


@lru_cache(maxsize=8)
def _zero_sum_offsets(k: int, radius: int):
    """Integer vectors of length k with entries in [-radius, radius], sum 0."""
    axes = np.meshgrid(*([np.arange(-radius, radius + 1)] * (k - 1)), indexing="ij")
    head = np.stack([a.ravel() for a in axes], axis=1) if k > 1 else np.zeros((1, 0))
    last = -head.sum(axis=1, keepdims=True)
    offsets = np.concatenate([head, last], axis=1)
    offsets = offsets[np.abs(offsets[:, -1]) <= radius]
    return offsets.astype(np.float64)


def _compositions(k: int, n: int) -> np.ndarray:
    """All length-k nonnegative integer vectors summing to n, as rows in
    lexicographic order: each pass expands a remainder r into r + 1 rows."""
    rows = np.zeros((1, 0), dtype=np.int64)
    rest = np.array([n], dtype=np.int64)
    for _ in range(k - 1):
        counts = rest + 1
        parent = np.repeat(np.arange(rest.size), counts)
        entry = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
        rows = np.concatenate([rows[parent], entry[:, None]], axis=1)
        rest = rest[parent] - entry
    return np.concatenate([rows, rest[:, None]], axis=1)


@lru_cache(maxsize=8)
def _simplex_grid(k: int, n: int):
    """Probability rows counts/n and their KL(p, uniform), cached per (k, n)."""
    counts = _compositions(k, n)
    probs = counts / float(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(counts > 0, probs * np.log(probs), 0.0)
    kl = plogp.sum(axis=1) + math.log(k)
    probs.flags.writeable = False
    kl.flags.writeable = False
    return probs, kl
