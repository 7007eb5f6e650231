import itertools
import json
import math
import pathlib

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize, minimize_scalar

from drotemp import diff_engine as de
from drotemp import dro_core
from drotemp.diff_engine import Tensor
from drotemp.dro_core import (
    DroConfig,
    LogitSet,
    block_grad_curvature,
    block_loss,
    compute_bz,
    fixed_point_rhs,
    gibbs_distribution,
    grad_tau,
    hess_tau,
    primal_dro_oracle,
    robust_loss,
)
from drotemp.errors import DomainError, UnsupportedSizeError

ORACLE = json.loads(
    (pathlib.Path(__file__).parent / "oracles" / "dro_values.json").read_text()
)


def central_diff(f, x, eps):
    return (f(x + eps) - f(x - eps)) / (2.0 * eps)


def rel_err(analytic, reference):
    return abs(analytic - reference) / max(1.0, abs(analytic))


def random_instance(rng, k=None, scale=1.0):
    k = k or int(rng.integers(1, 33))
    return LogitSet(float(rng.normal() * scale), rng.normal(size=k) * scale)


# bounded, finite logit vectors for property tests
logit_vectors = st.lists(
    st.floats(-20.0, 20.0, allow_nan=False), min_size=1, max_size=16
)


class TestValidation:
    def test_logitset_rejects_empty_contrast(self):
        with pytest.raises(DomainError):
            LogitSet(0.0, [])

    def test_logitset_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            LogitSet(float("nan"), [0.0])
        with pytest.raises(DomainError):
            LogitSet(0.0, [1.0, float("inf")])

    def test_droconfig_orders_tau_bounds(self):
        with pytest.raises(DomainError):
            DroConfig(tau0=2.0, tau_max=1.0)
        with pytest.raises(DomainError):
            DroConfig(tau0=0.0)
        with pytest.raises(DomainError):
            DroConfig(rho=-0.5)
        assert DroConfig(rho=0.0).rho == 0.0  # degenerate ball is legal

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan")])
    def test_tau_domain_errors(self, tau):
        ls = LogitSet(0.0, [1.0, 2.0])
        cfg = DroConfig()
        for fn in (
            lambda: robust_loss(ls, tau, cfg),
            lambda: grad_tau(ls, tau, cfg),
            lambda: hess_tau(ls, tau),
            lambda: gibbs_distribution(ls, tau),
            lambda: compute_bz(ls, tau),
            lambda: fixed_point_rhs(ls, tau, cfg),
        ):
            with pytest.raises(DomainError):
                fn()


class TestStableLogsumexp:
    """The logsumexp inside the tape's robust_rows node, which every training
    loss ends in, against the same extended-precision oracle as the
    closed-form pieces: one row at tau = 1 and c = 0, the plain logsumexp."""

    @staticmethod
    def lse(values) -> float:
        row = Tensor(np.asarray(values, dtype=np.float64)[None, :])
        return de.robust_rows(row, Tensor(np.ones(1)), 0.0).item()

    def test_two_equal_terms(self):
        assert self.lse([0.0, 0.0]) == pytest.approx(math.log(2), abs=1e-15)

    def test_single_term_is_identity(self):
        for a in (-3.75, 0.0, 12.5):
            assert self.lse([a]) == pytest.approx(a, abs=1e-15)

    def test_frozen_extended_precision_values(self):
        for name, case in ORACLE["logsumexp"].items():
            got = self.lse(case["values"])
            assert got == pytest.approx(case["expected"], rel=1e-12), name

    def test_matches_mpmath_on_large_magnitudes(self):
        rng = np.random.default_rng(42)
        mp.mp.dps = 60
        for _ in range(20):
            v = rng.normal(size=64) * 1e4
            exact = float(mp.log(mp.fsum(mp.e ** mp.mpf(x) for x in v)))
            assert rel_err(self.lse(v), exact) <= 1e-12

    def test_no_overflow_far_beyond_float_range(self):
        assert math.isfinite(self.lse([1e308, 1e308, 1e308]))


class TestRobustLoss:
    def test_zero_margins_give_tau_rho(self):
        ls = LogitSet(1.0, [1.0, 1.0])
        assert robust_loss(ls, 0.5, DroConfig(rho=10.0)) == pytest.approx(5.0, abs=1e-15)

    def test_single_contrast_is_margin_plus_tau_rho(self):
        ls = LogitSet(0.0, [2.0])
        assert robust_loss(ls, 1.0, DroConfig(rho=10.0)) == pytest.approx(12.0, abs=1e-14)

    def test_frozen_values(self):
        for name, case in ORACLE["cases"].items():
            ls = LogitSet(case["positive"], case["contrast"])
            cfg = DroConfig(tau0=case["tau0"], tau_max=1e6, rho=case["rho"])
            got = robust_loss(ls, case["tau"], cfg)
            assert rel_err(got, case["expected"]["loss"]) <= 1e-12, name

    def test_finite_in_cold_limit(self):
        ls = LogitSet(0.0, [150.0, -400.0, 7.0])
        cfg = DroConfig(rho=9.0)
        for tau in (1e-7, 1e-9, 1e-12):
            value = robust_loss(ls, tau, cfg)
            assert math.isfinite(value)
            assert value == pytest.approx(150.0, abs=1e-4)  # -> max margin

    @given(logit_vectors, st.floats(-30.0, 30.0), st.floats(0.1, 20.0))
    @settings(max_examples=150, deadline=None)
    def test_translation_invariance(self, contrast, shift, tau):
        # the shifted margins lose ~eps*|shift| to cancellation and the
        # derivatives divide by tau, so the 1e-12 contract is stated for
        # moderate shifts and tau >= 0.1 (measured headroom ~20x)
        cfg = DroConfig(rho=0.8)
        base = LogitSet(0.25, contrast)
        moved = LogitSet(0.25 + shift, [c + shift for c in contrast])
        assert abs(robust_loss(base, tau, cfg) - robust_loss(moved, tau, cfg)) <= 1e-12
        assert abs(grad_tau(base, tau, cfg) - grad_tau(moved, tau, cfg)) <= 1e-12
        assert abs(hess_tau(base, tau) - hess_tau(moved, tau)) <= 1e-12

    @given(logit_vectors, st.floats(0.05, 5.0), st.floats(1e-2, 10.0))
    @settings(max_examples=150, deadline=None)
    def test_scale_law(self, contrast, c, tau):
        # f(c*z, c*tau) = c * f(z, tau)
        cfg = DroConfig(rho=1.3)
        ls = LogitSet(-0.4, contrast)
        scaled = LogitSet(-0.4 * c, [x * c for x in contrast])
        lhs = robust_loss(scaled, c * tau, cfg)
        rhs = c * robust_loss(ls, tau, cfg)
        assert rel_err(lhs, rhs) <= 1e-12


class TestDerivatives:
    def test_uniform_margins_grad_is_rho(self):
        ls = LogitSet(0.0, [0.3, 0.3, 0.3])
        assert grad_tau(ls, 0.7, DroConfig(rho=9.0)) == pytest.approx(9.0, abs=1e-14)

    def test_single_contrast_grad_is_rho(self):
        ls = LogitSet(1.7, [-4.0])
        assert grad_tau(ls, 0.3, DroConfig(rho=10.0)) == pytest.approx(10.0, abs=1e-14)

    def test_uniform_margins_hessian_is_zero(self):
        assert hess_tau(LogitSet(0.0, [1.0, 1.0, 1.0]), 0.5) == 0.0

    def test_frozen_values(self):
        for name, case in ORACLE["cases"].items():
            ls = LogitSet(case["positive"], case["contrast"])
            cfg = DroConfig(tau0=case["tau0"], tau_max=1e6, rho=case["rho"])
            assert rel_err(grad_tau(ls, case["tau"], cfg), case["expected"]["grad"]) <= 1e-12, name
            assert rel_err(hess_tau(ls, case["tau"]), case["expected"]["hess"]) <= 1e-12, name

    def test_grad_matches_central_difference_k32(self):
        rng = np.random.default_rng(3)
        cfg = DroConfig(rho=1.2)
        for _ in range(50):
            ls = random_instance(rng, k=32)
            tau = float(rng.uniform(0.05, 4.0))
            fd = central_diff(lambda t: robust_loss(ls, t, cfg), tau, 1e-6)
            assert rel_err(grad_tau(ls, tau, cfg), fd) <= 1e-6

    def test_hess_matches_central_difference_k32(self):
        rng = np.random.default_rng(4)
        cfg = DroConfig(rho=1.2)
        for _ in range(50):
            ls = random_instance(rng, k=32)
            tau = float(rng.uniform(0.05, 4.0))
            fd = central_diff(lambda t: grad_tau(ls, t, cfg), tau, 1e-6)
            assert rel_err(hess_tau(ls, tau), fd) <= 1e-5

    @given(logit_vectors, st.floats(1e-3, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_convexity_hessian_nonnegative(self, contrast, tau):
        assert hess_tau(LogitSet(0.1, contrast), tau) >= -1e-14


class TestBlockForms:
    """robust_loss, grad_tau and hess_tau are one-row calls into the block
    forms the solver runs, so each row of a block reproduces them bit for bit
    whatever the other rows' temperatures are."""

    def test_rows_of_a_mixed_block_equal_their_one_row_calls(self):
        rng = np.random.default_rng(12)
        cfg = DroConfig(rho=0.6)
        for k in (1, 2, 7, 64, 513):
            rows = [random_instance(rng, k, float(rng.uniform(0.1, 8.0))) for _ in range(9)]
            taus = 10.0 ** rng.uniform(-3, 2, size=len(rows))
            h = np.stack([ls.margins for ls in rows])
            loss = block_loss(h, taus, cfg.rho)
            grad, curvature = block_grad_curvature(h - h.max(axis=1, keepdims=True), taus, cfg.rho)
            for i, (ls, tau) in enumerate(zip(rows, taus)):
                assert loss[i] == robust_loss(ls, tau, cfg), (k, i)
                assert grad[i] == grad_tau(ls, tau, cfg), (k, i)
                assert curvature[i] == hess_tau(ls, tau), (k, i)


class TestGibbsDistribution:
    def test_equal_logits_uniform(self):
        p = gibbs_distribution(LogitSet(0.0, [2.0] * 5), 0.7)
        np.testing.assert_allclose(p, np.full(5, 0.2), atol=1e-15)

    def test_cold_limit_concentrates_on_argmax(self):
        p = gibbs_distribution(LogitSet(0.0, [1.0, 2.0, 3.0]), 0.01)
        assert p[0] < 1e-8 and p[1] < 1e-8
        assert p[2] == pytest.approx(1.0, abs=1e-8)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        contrast = rng.normal(size=7)
        a = gibbs_distribution(LogitSet(0.0, contrast), 0.4)
        b = gibbs_distribution(LogitSet(0.0, contrast + 13.0), 0.4)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_frozen_values(self):
        for name, case in ORACLE["cases"].items():
            p = gibbs_distribution(LogitSet(case["positive"], case["contrast"]), case["tau"])
            np.testing.assert_allclose(p, case["expected"]["gibbs"], atol=1e-13, err_msg=name)

    @given(logit_vectors, st.floats(1e-3, 50.0))
    @settings(max_examples=150, deadline=None)
    def test_valid_simplex_on_fuzz(self, contrast, tau):
        p = gibbs_distribution(LogitSet(0.0, contrast), tau)
        assert (p >= 0).all()
        assert abs(p.sum() - 1.0) <= 1e-12


class TestComputeBz:
    def test_equal_logits_zero(self):
        assert compute_bz(LogitSet(0.0, [2.0, 2.0]), 0.3) == pytest.approx(0.0, abs=1e-15)

    def test_single_logit_zero(self):
        assert compute_bz(LogitSet(0.0, [-7.7]), 1.1) == pytest.approx(0.0, abs=1e-15)

    def test_frozen_values(self):
        for name, case in ORACLE["cases"].items():
            got = compute_bz(LogitSet(case["positive"], case["contrast"]), case["tau"])
            assert rel_err(got, case["expected"]["bz"]) <= 1e-12, name

    def test_bounds_on_500_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            ls = random_instance(rng, scale=float(rng.uniform(0.1, 30.0)))
            tau = float(10 ** rng.uniform(-4, 2))
            b = compute_bz(ls, tau)
            gap = ls.contrast.max() - ls.contrast.mean()
            assert -1e-12 <= b <= gap + 1e-12

    def test_cold_limit_approaches_max_minus_mean(self):
        ls = LogitSet(0.0, [5.0, 0.0, 0.0, 0.0])
        gap = ls.contrast.max() - ls.contrast.mean()
        b = compute_bz(ls, 1e-6)
        # approach is O(tau * log K) from below
        assert b <= gap and b == pytest.approx(gap, abs=1e-5)


class TestFixedPointRhs:
    def test_equal_logits_zero(self):
        assert fixed_point_rhs(LogitSet(0.0, [1.0, 1.0]), 0.5, DroConfig(rho=10.0)) == 0.0

    def test_single_contrast_zero(self):
        assert fixed_point_rhs(LogitSet(0.0, [3.0]), 0.5, DroConfig(rho=2.0)) == 0.0

    def test_rho_zero_rejected(self):
        with pytest.raises(DomainError):
            fixed_point_rhs(LogitSet(0.0, [1.0, 2.0]), 0.5, DroConfig(rho=0.0))

    def test_frozen_values(self):
        for name, case in ORACLE["cases"].items():
            ls = LogitSet(case["positive"], case["contrast"])
            cfg = DroConfig(tau0=case["tau0"], tau_max=1e6, rho=case["rho"])
            got = fixed_point_rhs(ls, case["tau"], cfg)
            assert rel_err(got, case["expected"]["fixed_point_rhs"]) <= 1e-11, name

    def test_interior_minimizer_is_fixed_point(self):
        rng = np.random.default_rng(8)
        cfg = DroConfig(tau0=1e-3, tau_max=100.0, rho=0.5)
        found = 0
        for _ in range(40):
            ls = random_instance(rng, k=12)
            res = minimize_scalar(
                lambda t: robust_loss(ls, t, cfg),
                bounds=(cfg.tau0, 100.0),
                method="bounded",
                options={"xatol": 1e-12},
            )
            tau_star = float(res.x)
            if abs(grad_tau(ls, tau_star, cfg)) > 1e-7:  # clamped or edge
                continue
            found += 1
            assert abs(fixed_point_rhs(ls, tau_star, cfg) - tau_star) <= 1e-5
        assert found >= 20  # the draw must actually exercise interior cases


class TestPrimalOracle:
    def test_zero_margins_optimum_at_uniform(self):
        value = primal_dro_oracle(LogitSet(0.0, [0.0, 0.0, 0.0]), DroConfig(rho=1.0))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_rho_zero_forces_uniform(self):
        value = primal_dro_oracle(LogitSet(0.0, [0.0, 1.0]), DroConfig(rho=0.0))
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_k5_unsupported(self):
        with pytest.raises(UnsupportedSizeError):
            primal_dro_oracle(LogitSet(0.0, np.zeros(5)), DroConfig())

    @pytest.mark.parametrize("step", [0.0, -0.01, 0.2])
    def test_grid_step_domain(self, step):
        with pytest.raises(DomainError):
            primal_dro_oracle(LogitSet(0.0, [0.0, 1.0]), DroConfig(), step)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_grid_counts_match_itertools_enumeration(self, k):
        for n in range(13):
            got = dro_core._compositions(k, n)
            expected = [c for c in itertools.product(range(n + 1), repeat=k) if sum(c) == n]
            assert got.dtype == np.int64
            assert got.tolist() == [list(c) for c in expected], (k, n)

    def test_corner_limit_reaches_max_margin(self):
        # huge ball, negligible penalty: optimum concentrates on the best margin
        ls = LogitSet(0.0, [0.1, 0.9, -0.4])
        value = primal_dro_oracle(ls, DroConfig(tau0=1e-9, tau_max=1.0, rho=50.0))
        assert value == pytest.approx(0.9, abs=1e-6)

    def test_matches_constrained_ascent(self):
        # independent route: SLSQP from several starts on the same program
        rng = np.random.default_rng(9)
        for _ in range(5):
            k = int(rng.integers(2, 5))
            ls = LogitSet(float(rng.normal()), rng.normal(size=k))
            cfg = DroConfig(tau0=0.05, tau_max=2.0, rho=float(rng.uniform(0.1, 1.0)))
            h = ls.margins

            def neg(p):
                p = np.clip(p, 1e-300, None)
                kl = float(np.sum(p * np.log(p))) + math.log(k)
                return -(float(p @ h) - cfg.tau0 * kl)

            def ball(p):
                p = np.clip(p, 1e-300, None)
                return cfg.rho - (float(np.sum(p * np.log(p))) + math.log(k))

            best = -np.inf
            for s in range(6):
                x0 = np.random.default_rng(s).dirichlet(np.ones(k))
                res = minimize(
                    neg,
                    x0,
                    method="SLSQP",
                    bounds=[(0.0, 1.0)] * k,
                    constraints=[
                        {"type": "eq", "fun": lambda p: p.sum() - 1.0},
                        {"type": "ineq", "fun": ball},
                    ],
                    options={"maxiter": 300, "ftol": 1e-14},
                )
                if res.success:
                    best = max(best, -res.fun)
            got = primal_dro_oracle(ls, cfg, 0.005)
            assert got == pytest.approx(best, abs=2e-4)

    def test_duality_against_scalar_minimization(self):
        rng = np.random.default_rng(10)
        worst = 0.0
        for _ in range(30):
            k = int(rng.integers(2, 5))
            ls = LogitSet(float(rng.normal()), rng.normal(size=k))
            cfg = DroConfig(tau0=0.05, tau_max=50.0, rho=float(rng.uniform(0.05, 2.0)))
            res = minimize_scalar(
                lambda t: robust_loss(ls, t, cfg),
                bounds=(cfg.tau0, 50.0),
                method="bounded",
                options={"xatol": 1e-12},
            )
            dual = min(robust_loss(ls, cfg.tau0, cfg), float(res.fun)) - cfg.tau0 * cfg.rho
            primal = primal_dro_oracle(ls, cfg, 0.005)
            worst = max(worst, abs(dual - primal))
        assert worst <= 1e-3, f"worst duality gap {worst:.2e}"
