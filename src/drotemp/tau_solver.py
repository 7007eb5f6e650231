"""Per-instance optimal temperature for the robust loss.

f(z, .) is convex on (0, inf) -- its second derivative is a Gibbs variance --
so the minimum over [tau0, inf) is either at the boundary, exactly when the
gradient at tau0 is already nonnegative, or at the unique interior root of
the gradient. newton_solve decides the boundary case up front from that
gradient sign, then runs Newton updates tau <- tau - grad/hess safeguarded by
bisection on a maintained sign-change bracket. golden_section_oracle is an
independent derivative-free minimizer used to cross-check the solver.

batch_solve runs the same method on many instances at once, vectorized:
rows are grouped by K into (rows, K) margin blocks of at most _BLOCK_ELEMENTS
entries, each block iterates with a per-row active set, and an iterate's
gradient and curvature come from one exp pass. Every step is elementwise or
a reduction along a row, so a row's solution is bit-identical whatever
batch, block or K mix it is solved in. The arithmetic follows grad_tau and
hess_tau step for step (row dot products through the same kernel as their
1-d ``@``, math.log per row), so where numpy dispatches both to one dot
kernel the batch reproduces newton_solve exactly; the tested contract is
solver tolerance. newton_solve stays the scalar reference.

The gradient equals rho - KL(gibbs(tau), uniform) and tends to rho as tau
grows, so for rho > 0 a finite minimizer always exists; the bracket_hi guard
only fires for pathological configurations such as rho = 0 with non-constant
margins, where the infimum sits at tau = infinity.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dro_core import DroConfig, LogitSet, grad_tau, hess_tau, robust_loss
from .errors import DomainError

__all__ = [
    "SolveStatus",
    "SolverOptions",
    "TauSolution",
    "UnboundedDescentError",
    "BatchSolveError",
    "newton_solve",
    "golden_section_oracle",
    "batch_solve",
    "batch_robust_loss",
]

_MIN_CURVATURE = 1e-14
# margins per batch_solve block: large enough to amortize numpy call overhead,
# small enough that a block's temporaries stay in cache (one 400 x 512 block
# ran slower than the scalar loop)
_BLOCK_ELEMENTS = 16_384


class SolveStatus(enum.Enum):
    INTERIOR = "Interior"
    CLAMPED_AT_TAU0 = "ClampedAtTau0"
    MAX_ITER_REACHED = "MaxIterReached"


class UnboundedDescentError(RuntimeError):
    """The gradient stayed negative past bracket_hi; no finite minimizer found."""


class BatchSolveError(RuntimeError):
    """A batch instance failed; carries the failing index and the cause."""

    def __init__(self, index: int, cause: Exception):
        self.index = index
        self.cause = cause
        super().__init__(f"instance {index}: {cause}")


@dataclass(frozen=True)
class SolverOptions:
    init_tau: float = 1.0
    tol: float = 1e-8
    max_iter: int = 50
    bracket_hi: float = 1e3

    def __post_init__(self):
        if not (math.isfinite(self.init_tau) and self.init_tau > 0):
            raise DomainError(f"init_tau must be > 0, got {self.init_tau}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise DomainError(f"tol must be > 0, got {self.tol}")
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.bracket_hi <= self.init_tau:
            raise DomainError(
                f"bracket_hi must exceed init_tau, got {self.bracket_hi} <= {self.init_tau}"
            )


@dataclass(frozen=True)
class TauSolution:
    tau: float
    status: SolveStatus
    iterations: int
    final_grad: float


def newton_solve(
    ls: LogitSet, cfg: DroConfig, opts: SolverOptions = SolverOptions()
) -> TauSolution:
    """Minimize f(z, tau) over tau >= tau0.

    Convexity makes the clamp decision exact: grad_tau(tau0) >= 0 means the
    whole ray is nondecreasing and tau0 is the minimizer. Otherwise a sign
    change is bracketed (doubling up to bracket_hi) and Newton iterates from
    init_tau, replacing any step that leaves the open bracket, or that meets
    curvature <= 1e-14, with a bisection step. Stops when |delta tau| < tol
    and |grad| < tol * max(1, rho).
    """
    g0 = grad_tau(ls, cfg.tau0, cfg)
    if g0 >= 0.0:
        return TauSolution(cfg.tau0, SolveStatus.CLAMPED_AT_TAU0, 0, g0)

    # bracket the root: grad(lo) < 0 <= grad(hi)
    lo, hi = cfg.tau0, max(2.0 * cfg.tau0, opts.init_tau)
    g_hi = grad_tau(ls, hi, cfg)
    while g_hi < 0.0:
        lo = hi
        hi *= 2.0
        if hi > opts.bracket_hi:
            raise UnboundedDescentError(
                f"gradient still {g_hi:.3e} at tau={lo:.3e}; "
                f"no minimizer below bracket_hi={opts.bracket_hi}"
            )
        g_hi = grad_tau(ls, hi, cfg)

    x = min(max(opts.init_tau, lo), hi)
    g = grad_tau(ls, x, cfg)
    grad_scale = max(1.0, cfg.rho)
    for iteration in range(1, opts.max_iter + 1):
        if g < 0.0:
            lo = x
        else:
            hi = x
        curvature = hess_tau(ls, x)
        if curvature <= _MIN_CURVATURE:
            nxt = 0.5 * (lo + hi)
        else:
            nxt = x - g / curvature
            if not (lo < nxt < hi):
                nxt = 0.5 * (lo + hi)
        delta = abs(nxt - x)
        x = nxt
        g = grad_tau(ls, x, cfg)
        if delta < opts.tol and abs(g) < opts.tol * grad_scale:
            return TauSolution(x, SolveStatus.INTERIOR, iteration, g)
    return TauSolution(x, SolveStatus.MAX_ITER_REACHED, opts.max_iter, g)


def golden_section_oracle(
    ls: LogitSet, cfg: DroConfig, lo: float, hi: float, tol: float = 1e-9
) -> float:
    """Minimizer of f(z, .) on [lo, hi] within tol, by golden-section search.

    Derivative-free and independent of the Newton path; correct because f is
    unimodal on the interval (convexity).
    """
    lo, hi = float(lo), float(hi)
    if lo >= hi:
        raise DomainError(f"golden section needs lo < hi, got [{lo}, {hi}]")
    if lo < cfg.tau0:
        raise DomainError(f"lo must be >= tau0={cfg.tau0}, got {lo}")
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be > 0, got {tol}")

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = robust_loss(ls, c, cfg)
    fd = robust_loss(ls, d, cfg)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = robust_loss(ls, c, cfg)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = robust_loss(ls, d, cfg)
    mid = 0.5 * (a + b)
    # the boundary can win when the interior never descends (e.g. f = tau*rho)
    candidates = [(robust_loss(ls, t, cfg), t) for t in (lo, mid, hi)]
    return min(candidates)[1]


def _k_blocks(instances: list[LogitSet]):
    """(row indices, margins h = L_k - L_+) pairs: rows of one K, at most
    _BLOCK_ELEMENTS margins per block, indices ascending."""
    rows_by_k: dict[int, list[int]] = {}
    for index, ls in enumerate(instances):
        rows_by_k.setdefault(ls.k, []).append(index)
    for k, rows in rows_by_k.items():
        step = max(1, _BLOCK_ELEMENTS // k)
        for start in range(0, len(rows), step):
            idx = rows[start : start + step]
            contrast = np.stack([instances[i].contrast for i in idx])
            positive = np.array([instances[i].positive for i in idx])
            yield idx, contrast - positive[:, None]


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for every row: stacked matmul takes the same dot kernel
    per row as the 1-d ``@`` in grad_tau / hess_tau.

    Row sums would be cheaper to write but round differently, and a last-ulp
    difference can move a row onto or off an exact zero gradient, where
    newton_solve's bracket rule spends extra bisection steps: with row sums,
    3 of 102 random K = 8 rows took 2-3 iterations more than newton_solve.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _row_log(values: np.ndarray) -> np.ndarray:
    """math.log per entry: np.log may round differently from the scalar path."""
    return np.fromiter(map(math.log, values.tolist()), dtype=np.float64, count=values.size)


def _grad_curvature(d: np.ndarray, tau: np.ndarray, rho: float, curvature: bool = True):
    """grad_tau and (if asked) hess_tau of every row at its own tau, from one
    exp pass; the curvature is None when not asked for.

    d holds each row's shifted margins h - max h; the arithmetic is that of
    grad_tau and hess_tau, step for step, so each row reproduces them.
    """
    z = d / tau[:, None]
    p = np.exp(z)
    se = p.sum(axis=1)
    p /= se[:, None]
    mu = _row_dot(p, z)
    grad = _row_log(se / d.shape[1]) - mu + rho
    if not curvature:
        return grad, None
    z -= mu[:, None]
    return grad, _row_dot(p, np.square(z, out=z)) / tau


_CLAMPED, _INTERIOR, _MAX_ITER = range(3)
_STATUSES = (SolveStatus.CLAMPED_AT_TAU0, SolveStatus.INTERIOR, SolveStatus.MAX_ITER_REACHED)


def _solve_block(h: np.ndarray, cfg: DroConfig, opts: SolverOptions):
    """newton_solve on every row of an (n, K) margin block.

    Returns the rows' TauSolutions and (row, message) of the first row
    without a bounded minimizer, or None.
    """
    n = h.shape[0]
    d = h - h.max(axis=1, keepdims=True)
    tau = np.full(n, cfg.tau0)
    grad, _ = _grad_curvature(d, tau, cfg.rho, curvature=False)
    status = np.full(n, _CLAMPED)
    iterations = np.zeros(n, dtype=np.int64)
    failure = None

    # bracket grad(lo) < 0 <= grad(hi): newton_solve's doubling schedule is
    # the same for every row, and a row leaves it at its first grad(hi) >= 0
    lo, hi = np.empty(n), np.empty(n)
    active = pending = np.flatnonzero(grad < 0.0)
    t_lo, t_hi = cfg.tau0, max(2.0 * cfg.tau0, opts.init_tau)
    while pending.size:
        t = np.full(pending.size, t_hi)
        g_hi, _ = _grad_curvature(d[pending], t, cfg.rho, curvature=False)
        lo[pending], hi[pending] = t_lo, t_hi
        still = g_hi < 0.0
        pending, g_hi = pending[still], g_hi[still]
        t_lo, t_hi = t_hi, 2.0 * t_hi
        if pending.size and t_hi > opts.bracket_hi:
            failure = (
                int(pending[0]),
                f"gradient still {g_hi[0]:.3e} at tau={t_lo:.3e}; "
                f"no minimizer below bracket_hi={opts.bracket_hi}",
            )
            active = np.setdiff1d(active, pending, assume_unique=True)
            break

    lo, hi, d = lo[active], hi[active], d[active]
    x = np.minimum(np.maximum(opts.init_tau, lo), hi)
    g, curvature = _grad_curvature(d, x, cfg.rho)
    grad_tol = opts.tol * max(1.0, cfg.rho)
    iteration = 0
    while active.size and iteration < opts.max_iter:
        iteration += 1
        below = g < 0.0
        np.copyto(lo, x, where=below)
        np.copyto(hi, x, where=~below)
        # the floor only keeps the division finite: rows at or below it bisect
        nxt = x - g / np.maximum(curvature, _MIN_CURVATURE)
        newton = (curvature > _MIN_CURVATURE) & (lo < nxt) & (nxt < hi)
        np.copyto(nxt, 0.5 * (lo + hi), where=~newton)
        done = np.abs(nxt - x) < opts.tol
        x = nxt
        g, curvature = _grad_curvature(d, x, cfg.rho)
        if not np.count_nonzero(done):
            continue
        done &= np.abs(g) < grad_tol
        rows = active[done]
        tau[rows], grad[rows], iterations[rows] = x[done], g[done], iteration
        status[rows] = _INTERIOR
        keep = ~done
        active, x, g, curvature, lo, hi, d = (
            v[keep] for v in (active, x, g, curvature, lo, hi, d)
        )
    tau[active], grad[active], iterations[active] = x, g, opts.max_iter
    status[active] = _MAX_ITER
    columns = (tau.tolist(), status.tolist(), iterations.tolist(), grad.tolist())
    solutions = [TauSolution(t, _STATUSES[code], its, fg) for t, code, its, fg in zip(*columns)]
    return solutions, failure


def batch_solve(
    instances: list[LogitSet], cfg: DroConfig, opts: SolverOptions = SolverOptions()
) -> list[TauSolution]:
    """newton_solve's method over a list, vectorized, order preserved.

    Rows are grouped by K and solved a block at a time; each row's solution
    is independent of the rest of the batch. Within solver tolerance of
    newton_solve: same status, tau within 1e-6 relative, iteration counts
    within one. Rows with no bounded minimizer raise BatchSolveError for the
    smallest such index, with an UnboundedDescentError cause.
    """
    if not instances:
        raise DomainError("batch_solve needs a nonempty instance list")
    solutions: list[TauSolution] = [None] * len(instances)
    first_failure = None
    for idx, h in _k_blocks(instances):
        block, failure = _solve_block(h, cfg, opts)
        for index, solution in zip(idx, block):
            solutions[index] = solution
        if failure is not None and (first_failure is None or idx[failure[0]] < first_failure[0]):
            first_failure = (idx[failure[0]], failure[1])
    if first_failure is not None:
        index, message = first_failure
        raise BatchSolveError(index, UnboundedDescentError(message))
    return solutions


def batch_robust_loss(instances: list[LogitSet], taus, cfg: DroConfig) -> np.ndarray:
    """robust_loss of every instance at its tau, computed a K block at a time."""
    taus = np.asarray(taus, dtype=np.float64)
    out = np.empty(len(instances))
    for idx, h in _k_blocks(instances):
        tau = taus[idx]
        h_max = h.max(axis=1)
        log_mean = _row_log(np.exp((h - h_max[:, None]) / tau[:, None]).sum(axis=1) / h.shape[1])
        out[idx] = h_max + tau * log_mean + tau * cfg.rho
    return out
