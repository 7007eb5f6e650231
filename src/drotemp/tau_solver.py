"""Per-instance optimal temperature for the robust loss.

f(z, .) is convex on (0, inf) -- its second derivative is a Gibbs variance --
so the minimum over [tau0, inf) is either at the boundary, exactly when the
gradient at tau0 is already nonnegative, or at the unique interior root of
the gradient. solve_margins finds it for every row of an (n, K) margin block
by safeguarded Newton, vectorized over the rows, on dro_core's block forms of
the gradient and curvature; margins_loss evaluates f there. newton_solve is
solve_margins on one LogitSet's margins.
golden_section_oracle (derivative-free) and dro_core.primal_dro_oracle (the
primal worst case) are the independent references the solver is checked
against.

The gradient equals rho - KL(gibbs(tau), uniform) and tends to rho as tau
grows, so for rho > 0 a finite minimizer always exists; the bracket_hi guard
only fires for pathological configurations such as rho = 0 with non-constant
margins, where the infimum sits at tau = infinity.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .dro_core import DroConfig, LogitSet, block_grad_curvature, block_loss, robust_loss
# grad_tau and hess_tau are not called here; perfbench's tracer wraps them by name
from .dro_core import grad_tau, hess_tau  # noqa: F401
from .errors import DomainError, bounds, check_fields

__all__ = [
    "SolveStatus",
    "SolverOptions",
    "TauSolution",
    "UnboundedDescentError",
    "newton_solve",
    "golden_section_oracle",
    "STATUSES",
    "solve_margins",
    "margins_loss",
]

_MIN_CURVATURE = 1e-14
# margins per solve_margins slice: large enough to amortize numpy call overhead,
# small enough that a block's temporaries stay in cache (one 400 x 512 block
# ran slower than solving its rows one at a time)
_BLOCK_ELEMENTS = 16_384


class SolveStatus(enum.Enum):
    INTERIOR = "Interior"
    CLAMPED_AT_TAU0 = "ClampedAtTau0"
    MAX_ITER_REACHED = "MaxIterReached"


class UnboundedDescentError(RuntimeError):
    """The gradient stayed negative past bracket_hi; no finite minimizer found."""


@dataclass(frozen=True)
class SolverOptions:
    init_tau: float = field(default=1.0, metadata=bounds(0, open_lo=True))
    tol: float = field(default=1e-8, metadata=bounds(0, open_lo=True))
    max_iter: int = field(default=50, metadata=bounds(1))
    bracket_hi: float = 1e3

    def __post_init__(self):
        check_fields(self)
        if self.bracket_hi <= self.init_tau:
            raise DomainError(
                f"bracket_hi must exceed init_tau={self.init_tau}, got {self.bracket_hi}"
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
    """solve_margins on one instance; no bounded minimizer raises
    UnboundedDescentError with solve_margins' message."""
    columns, failure = solve_margins(ls.margins[None, :], cfg, opts)
    if failure is not None:
        raise UnboundedDescentError(failure[1])
    tau, code, iterations, grad = (column.item() for column in columns)
    return TauSolution(tau, STATUSES[code], iterations, grad)


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


def _row_slices(n: int, k: int) -> list[slice]:
    """Row slices of an (n, K) margin block, each holding at most
    _BLOCK_ELEMENTS margins."""
    step = max(1, _BLOCK_ELEMENTS // k)
    return [slice(start, start + step) for start in range(0, n, step)]


# a row's status code indexes STATUSES
STATUSES = tuple(SolveStatus)
_INTERIOR, _CLAMPED, _MAX_ITER = range(len(STATUSES))


def _solve_block(h: np.ndarray, cfg: DroConfig, opts: SolverOptions):
    """The safeguarded Newton method on every row of an (n, K) margin block.

    Returns the rows' (tau, code, iterations, grad) columns and (row, message)
    of the first row without a bounded minimizer, or None.
    """
    n = h.shape[0]
    d = h - h.max(axis=1, keepdims=True)
    tau = np.full(n, cfg.tau0)
    grad, _ = block_grad_curvature(d, tau, cfg.rho, curvature=False)
    status = np.full(n, _CLAMPED)
    iterations = np.zeros(n, dtype=np.int64)
    failure = None

    # bracket grad(lo) < 0 <= grad(hi): the doubling schedule is the same for
    # every row, and a row leaves it at its first grad(hi) >= 0
    lo, hi = np.empty(n), np.empty(n)
    active = pending = np.flatnonzero(grad < 0.0)
    t_lo, t_hi = cfg.tau0, max(2.0 * cfg.tau0, opts.init_tau)
    while pending.size:
        t = np.full(pending.size, t_hi)
        g_hi, _ = block_grad_curvature(d[pending], t, cfg.rho, curvature=False)
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
    g, curvature = block_grad_curvature(d, x, cfg.rho)
    grad_tol = opts.tol * max(1.0, cfg.rho)
    # an exact zero gradient is the root itself: that iterate, the start
    # included, is converged (the bracket rule below would bisect away from it)
    done = g == 0.0
    iteration = 0
    while True:
        if np.count_nonzero(done):
            rows = active[done]
            tau[rows], grad[rows], iterations[rows] = x[done], g[done], iteration
            status[rows] = _INTERIOR
            keep = ~done
            active, x, g, curvature, lo, hi, d = (
                v[keep] for v in (active, x, g, curvature, lo, hi, d)
            )
        if not active.size or iteration == opts.max_iter:
            break
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
        g, curvature = block_grad_curvature(d, x, cfg.rho)
        done &= np.abs(g) < grad_tol
        done |= g == 0.0
    tau[active], grad[active], iterations[active] = x, g, opts.max_iter
    status[active] = _MAX_ITER
    return (tau, status, iterations, grad), failure


def solve_margins(h: np.ndarray, cfg: DroConfig, opts: SolverOptions = SolverOptions()):
    """Minimize f(z, tau) over tau >= tau0 for every row of an (n, K) margin
    block h = L_k - L_+, _BLOCK_ELEMENTS margins at a time (a block's
    temporaries then stay in cache).

    grad_tau(tau0) >= 0 means, by convexity, that tau0 is the minimizer
    (ClampedAtTau0). Otherwise a sign change is bracketed (doubling up to
    bracket_hi) and Newton iterates from init_tau; a step that leaves the open
    bracket, or meets curvature <= 1e-14, becomes a bisection step. A row is
    Interior once |delta tau| < tol and |grad| < tol * max(1, rho), or at an
    exactly zero gradient; if neither within max_iter, it is MaxIterReached.

    Returns the rows' (tau, code, iterations, grad) columns, code indexing
    STATUSES, and (row, message) of the first row with no bounded minimizer,
    or None; such a row keeps code CLAMPED_AT_TAU0. Rows are independent of
    each other and of the slicing.
    """
    columns = (np.empty(len(h)), np.empty(len(h), dtype=np.int64),
               np.empty(len(h), dtype=np.int64), np.empty(len(h)))
    failure = None
    for rows in _row_slices(*h.shape):
        block, block_failure = _solve_block(h[rows], cfg, opts)
        for column, values in zip(columns, block):
            column[rows] = values
        if failure is None and block_failure is not None:
            failure = (rows.start + block_failure[0], block_failure[1])
    return columns, failure


def margins_loss(h: np.ndarray, taus: np.ndarray, cfg: DroConfig) -> np.ndarray:
    """robust_loss of every row of an (n, K) margin block at its own tau,
    _BLOCK_ELEMENTS margins at a time."""
    out = np.empty(len(h))
    for rows in _row_slices(*h.shape):
        out[rows] = block_loss(h[rows], taus[rows], cfg.rho)
    return out
