"""Named numerical checks of the identities the robust losses rely on.

Each check generates its own deterministic instances from a seed, compares an
implementation against an independent reference (dense simplex enumeration,
derivative-free search, or central differences), and reports the worst
residual next to its fixed tolerance. Checks never print; callers decide how
to render the reports. All tolerances live in one table.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import diff_engine as de
from . import models as md
from . import tempnet as tn
from .diff_engine import Tape, Tensor, backward
from .dro_core import (
    DroConfig,
    LogitSet,
    compute_bz,
    fixed_point_rhs,
    grad_tau,
    hess_tau,
    primal_dro_oracle,
    robust_loss,
)
from .errors import DomainError
from .tau_solver import SolveStatus, SolverOptions, UnboundedDescentError, newton_solve
from .tau_solver import margins_loss, solve_margins

TOLERANCES = {
    "bz_bounds": 1e-12,
    "duality": 1e-3,
    "fixed_point": 1e-5,
    "gradients": 1e-5,
    "upper_bound": 1e-9,
}

REPORT_HEADER = "check,instances,max_residual,tolerance,pass,seed"

# stand-in for "tau -> infinity" when rho = 0 removes the interior minimum;
# the remaining gap to the limit is Var(h) / (2 tau), far below the tolerance
_RHO_ZERO_TAU = 1e6


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check; passed is derived, never supplied."""

    name: str
    instances: int
    max_residual: float
    tolerance: float
    seed: int
    passed: bool = dataclasses.field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.max_residual <= self.tolerance))

    def csv_row(self) -> str:
        return ",".join(
            [
                self.name,
                str(self.instances),
                repr(float(self.max_residual)),
                repr(float(self.tolerance)),
                "true" if self.passed else "false",
                str(self.seed),
            ]
        )

    def describe(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"{self.name}: {verdict} (max residual {self.max_residual:.3e}"
            f" vs tolerance {self.tolerance:.0e}, {self.instances} instances, seed {self.seed})"
        )


def _worst(*residuals: float) -> float:
    """The largest residual, or NaN if any is NaN (Python's max may drop it)."""
    return math.nan if any(map(math.isnan, residuals)) else max(residuals)


def _report(name: str, instances: int, residual: float, seed: int) -> CheckReport:
    return CheckReport(
        name=name,
        instances=instances,
        max_residual=float(residual),
        tolerance=TOLERANCES[name],
        seed=seed,
    )


# ---------------------------------------------------------------------------
# duality


def _dual_value(ls: LogitSet, cfg: DroConfig) -> float:
    """min over tau >= tau0 of the dual objective, minus the tau0 * rho shift."""
    if cfg.rho == 0.0:
        best = min(robust_loss(ls, cfg.tau0, cfg), robust_loss(ls, _RHO_ZERO_TAU, cfg))
        return best
    sol = newton_solve(ls, cfg, SolverOptions(tol=1e-10))
    return robust_loss(ls, sol.tau, cfg) - cfg.tau0 * cfg.rho


def check_duality(n_instances: int = 200, seed: int = 0) -> CheckReport:
    """Dual minimization against dense simplex enumeration, K in {2, 3, 4}.

    Instances mix generic margins with the two degenerate families (all-zero
    margins and rho = 0) so the clamped and boundary regimes are exercised in
    every run.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    count = 0
    for k in (2, 3, 4):
        for i in range(n_instances):
            if i % 10 == 8:
                ls = LogitSet(0.0, np.zeros(k))
            else:
                ls = LogitSet(float(rng.normal()), rng.normal(size=k))
            rho = 0.0 if i % 10 == 9 else float(rng.uniform(0.05, 1.5))
            cfg = DroConfig(tau0=float(rng.uniform(0.01, 0.2)), tau_max=50.0, rho=rho)
            gap = abs(_dual_value(ls, cfg) - primal_dro_oracle(ls, cfg, 0.005))
            worst = _worst(worst, gap)
            count += 1
    return _report("duality", count, worst, seed)


# ---------------------------------------------------------------------------
# fixed point


def _interior_instances(n: int, rng: np.random.Generator):
    """Yield n instances whose minimizer is interior (status-filtered)."""
    produced = 0
    while produced < n:
        k = int(rng.integers(4, 65))
        ls = LogitSet(float(rng.normal()), rng.normal(size=k) * float(rng.uniform(0.5, 3.0)))
        cfg = DroConfig(tau0=1e-3, tau_max=1e4, rho=float(rng.uniform(0.05, 0.5)))
        sol = newton_solve(ls, cfg, SolverOptions(tol=1e-9, bracket_hi=1e6))
        if sol.status is SolveStatus.INTERIOR:
            produced += 1
            yield ls, cfg, sol


def check_fixed_point(n_instances: int = 1000, seed: int = 0) -> CheckReport:
    """Interior minimizers must satisfy tau = fixed_point_rhs(tau)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for ls, cfg, sol in _interior_instances(n_instances, rng):
        worst = _worst(worst, abs(fixed_point_rhs(ls, sol.tau, cfg) - sol.tau))
    return _report("fixed_point", n_instances, worst, seed)


# ---------------------------------------------------------------------------
# b_z bounds


def check_bz_bounds(n_instances: int = 10_000, seed: int = 0) -> CheckReport:
    """0 <= b_z <= max - mean for random logits and temperatures.

    The residual is the worst overshoot beyond either end; the tolerance
    admits only float rounding, so any real violation fails loudly.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        k = int(rng.integers(1, 1025))
        scale = 10.0 ** rng.uniform(-2, 2)
        ls = LogitSet(0.0, rng.normal(size=k) * scale)
        tau = 10.0 ** rng.uniform(-3, 3)
        b = compute_bz(ls, tau)
        hi = float(ls.contrast.max() - ls.contrast.mean())
        worst = _worst(worst, -b, b - hi)
    return _report("bz_bounds", n_instances, worst, seed)


# ---------------------------------------------------------------------------
# network upper bound


def _upper_bound_draw(rng: np.random.Generator) -> Tuple[float, float]:
    """(mean solved minimum, mean network loss) for one random dataset/net."""
    k = int(rng.integers(8, 33))
    n = int(rng.integers(4, 17))
    net_cfg = tn.TempNetConfig(
        variant=tn.Variant.LLM_LOGITS,
        d0=k,
        d1=int(rng.integers(2, k + 1)),
        d2=2,
        tau0=float(rng.uniform(0.005, 0.1)),
        tau_max=float(rng.uniform(1.0, 3.0)),
        rho=float(rng.uniform(0.1, 2.0)),
    )
    net = tn.init_llm_tempnet(net_cfg, seed=int(rng.integers(1 << 31)))
    cfg = DroConfig(tau0=net_cfg.tau0, tau_max=net_cfg.tau_max, rho=net_cfg.rho)
    logits = rng.normal(size=(n, k))
    taus = tn.llm_tau_batch(net, Tensor(logits)).data

    h = logits - logits.max(axis=1, keepdims=True)
    (solved_taus, *_), failure = solve_margins(h, cfg, SolverOptions(bracket_hi=1e7))
    if failure is not None:
        raise UnboundedDescentError(failure[1])
    solved = margins_loss(h, solved_taus, cfg)
    predicted = margins_loss(h, taus, cfg)
    return float(solved.mean()), float(predicted.mean())


def check_upper_bound(n_draws: int = 100, seed: int = 0) -> CheckReport:
    """Mean solved minimum never exceeds the mean network-predicted loss.

    Any per-instance temperature rule upper-bounds the per-instance minimum,
    so the residual is the (nonnegative part of the) worst margin by which a
    random network beat the solver.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_draws):
        solved, predicted = _upper_bound_draw(rng)
        worst = _worst(worst, solved - predicted)
    return _report("upper_bound", n_draws, worst, seed)


# ---------------------------------------------------------------------------
# gradients


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(1.0, np.abs(analytic))
    return float(np.max(np.abs(analytic - numeric) / denom))


def _fd_error(grads, tensor: Tensor, value: Callable[[], float]) -> float:
    """grads[tensor] against central differences of value() in tensor's entries."""
    return _rel_err(grads[tensor], de.central_difference(lambda _: value(), tensor))


def _grads_of(build: Callable[[], Tensor]):
    with Tape() as tape:
        loss = build()
    return backward(loss, tape)


def _check_core_derivatives(rng: np.random.Generator, fault: bool) -> float:
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 33))
        ls = LogitSet(float(rng.normal()), rng.normal(size=k))
        cfg = DroConfig(tau0=1e-3, tau_max=10.0, rho=float(rng.uniform(0.0, 1.0)))
        tau = 10.0 ** rng.uniform(-1, 1)
        analytic_g = grad_tau(ls, tau, cfg)
        if fault:
            analytic_g = -analytic_g  # deliberate sign flip to prove detection
        numeric_g = de.central_difference(lambda t: robust_loss(ls, t.item(), cfg), Tensor(tau))
        numeric_h = de.central_difference(lambda t: grad_tau(ls, t.item(), cfg), Tensor(tau))
        worst = _worst(
            worst, _rel_err(analytic_g, numeric_g), _rel_err(hess_tau(ls, tau), numeric_h)
        )
    return worst


def _check_tempnet_gradients(rng: np.random.Generator) -> float:
    cfg = tn.TempNetConfig(
        variant=tn.Variant.LLM_LOGITS, d0=8, d1=5, d2=3, tau0=0.05, tau_max=1.5, rho=1.2
    )
    net = tn.init_llm_tempnet(cfg, seed=int(rng.integers(1 << 31)))
    logits = rng.normal(size=(4, 8))
    weights = rng.normal(size=4)

    def value() -> float:
        taus = tn.llm_tau_batch(net, Tensor(logits))
        return float(taus.data @ weights)

    grads = _grads_of(
        lambda: de.sum(de.mul(tn.llm_tau_batch(net, Tensor(logits)), Tensor(weights)))
    )
    return _worst(*(_fd_error(grads, tensor, value) for _, tensor in net.tensors()))


def _check_lm_loss_gradients(rng: np.random.Generator) -> float:
    lm_cfg = md.LmConfig(vocab_size=9, d_model=6, d_ff=8, n_blocks=1, context_len=6)
    lm = md.init_lm(lm_cfg, seed=int(rng.integers(1 << 31)))
    lm.out_proj.data = 0.4 * rng.normal(size=lm.out_proj.shape)
    net_cfg = tn.TempNetConfig(
        variant=tn.Variant.LLM_LOGITS, d0=9, d1=6, d2=3, tau0=0.1, tau_max=1.8, rho=1.0
    )
    net = tn.init_llm_tempnet(net_cfg, seed=int(rng.integers(1 << 31)))
    batch = md.TokenBatch([rng.integers(0, 9, size=6), rng.integers(0, 9, size=5)])
    cfg = DroConfig(tau0=0.1, tau_max=1.8, rho=1.0)

    grads = _grads_of(lambda: md.robust_softmax_loss(lm, net, batch, cfg))
    # temperatures the recorded loss used; the model-side probe holds them fixed
    taus = md.lm_eval_pass(lm, net, batch)[1]

    def fixed_tau_value() -> float:
        return md.robust_softmax_loss(lm, taus, batch, cfg).item()

    def full_value() -> float:
        return md.robust_softmax_loss(lm, net, batch, cfg).item()

    return _worst(
        _fd_error(grads, lm.emb, fixed_tau_value),
        _fd_error(grads, net.W1, full_value),
        _fd_error(grads, net.phi, full_value),
    )


def _check_stacked_primitives(rng: np.random.Generator) -> float:
    """Stacked matmul, stacked affine, 3-D transpose and reshape."""
    a = Tensor(rng.normal(size=(3, 4, 5)))
    b = Tensor(rng.normal(size=(3, 5, 2)))
    w = Tensor(rng.normal(size=(5, 2)).T)  # affine's (p, k) weight
    flat = Tensor(rng.normal(size=(12, 5)))

    def probe(f, x: Tensor) -> float:
        weights = Tensor(rng.normal(size=f(x).shape))
        return de.finite_diff_check(lambda t: de.sum(de.mul(f(t), weights)), x)

    return _worst(
        probe(lambda t: de.matmul(t, b), a),
        probe(lambda t: de.matmul(a, t), b),
        probe(lambda t: de.affine(a, t), w),
        probe(de.transpose, a),
        probe(lambda t: de.affine(de.reshape(t, (3, 4, 5)), w), flat),
    )


def _check_gcl_loss_gradients(rng: np.random.Generator) -> float:
    tow_cfg = md.TwoTowerConfig(img_dim=5, txt_dim=4, hidden=6, out_dim=5)
    towers = md.init_two_tower(tow_cfg, seed=int(rng.integers(1 << 31)))
    net_cfg = tn.TempNetConfig(
        variant=tn.Variant.CL_EMBEDDING, d0=5, d1=6, d2=3, tau0=0.05, tau_max=1.0, rho=2.0
    )
    net_img = tn.init_cl_tempnet(net_cfg, seed=int(rng.integers(1 << 31)))
    net_txt = tn.init_cl_tempnet(net_cfg, seed=int(rng.integers(1 << 31)))
    batch = md.PairBatch(rng.normal(size=(5, 5)), rng.normal(size=(5, 4)))
    cfg = DroConfig(tau0=0.05, tau_max=1.0, rho=2.0)

    grads = _grads_of(lambda: md.robust_gcl_loss(towers, net_img, net_txt, batch, cfg))
    taus1 = tn.cl_tau_batch(net_img, md.encode_image(towers, Tensor(batch.x))).data
    taus2 = tn.cl_tau_batch(net_txt, md.encode_text(towers, Tensor(batch.t))).data

    def fixed_tau_value() -> float:
        return md.robust_gcl_loss(towers, taus1, taus2, batch, cfg).item()

    def full_value() -> float:
        return md.robust_gcl_loss(towers, net_img, net_txt, batch, cfg).item()

    return _worst(
        _fd_error(grads, towers.image.W1, fixed_tau_value),
        _fd_error(grads, net_txt.W2, full_value),
    )


def check_gradients(seed: int = 0, fault: bool = False) -> CheckReport:
    """Analytic and reverse-mode derivatives against central differences.

    Covers the scalar loss derivatives, the temperature network, the stacked
    tape primitives the LM forward batches through, and both composite
    losses (where the model-side comparison probes the loss at the recorded
    temperatures, matching the detached-temperature contract).
    ``fault`` flips one analytic sign so harness failures are demonstrably
    loud, not silent.
    """
    rng = np.random.default_rng(seed)
    worst = _worst(
        _check_core_derivatives(rng, fault),
        _check_tempnet_gradients(rng),
        _check_lm_loss_gradients(rng),
        _check_gcl_loss_gradients(rng),
        _check_stacked_primitives(rng),
    )
    return _report("gradients", 20 + 4, worst, seed)


# ---------------------------------------------------------------------------
# suite


_CHECKS: Dict[str, Callable[..., CheckReport]] = {
    "bz_bounds": check_bz_bounds,
    "duality": check_duality,
    "fixed_point": check_fixed_point,
    "gradients": check_gradients,
    "upper_bound": check_upper_bound,
}


def run_suite(
    seed: int = 0,
    only: Optional[Union[str, Sequence[str]]] = None,
    fault: bool = False,
) -> List[CheckReport]:
    """Run the named checks (all by default) and merge reports in name order."""
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if only is None:
        names = sorted(_CHECKS)
    else:
        names = [only] if isinstance(only, str) else list(only)
        for name in names:
            if name not in _CHECKS:
                raise DomainError(f"unknown check {name!r}; choose from {sorted(_CHECKS)}")
        names = sorted(set(names))
    return [check_gradients(seed=seed, fault=fault) if name == "gradients"
            else _CHECKS[name](seed=seed) for name in names]


def suite_csv(reports: Sequence[CheckReport]) -> str:
    return "\n".join([REPORT_HEADER] + [r.csv_row() for r in reports]) + "\n"
