import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drotemp.dro_core import (
    DroConfig,
    LogitSet,
    fixed_point_rhs,
    grad_tau,
    robust_loss,
)
from drotemp import tau_solver
from drotemp.errors import DomainError
from drotemp.tau_solver import (
    STATUSES,
    SolveStatus,
    SolverOptions,
    TauSolution,
    UnboundedDescentError,
    golden_section_oracle,
    margins_loss,
    newton_solve,
    solve_margins,
)


ORACLE = json.loads(
    (pathlib.Path(__file__).parent / "oracles" / "dro_values.json").read_text()
)


def random_instance(rng, k=None, scale=1.0):
    k = k or int(rng.integers(2, 65))
    return LogitSet(float(rng.normal() * scale), rng.normal(size=k) * scale)


class TestSolverOptions:
    def test_defaults(self):
        opts = SolverOptions()
        assert opts.init_tau == 1.0
        assert opts.tol == 1e-8
        assert opts.max_iter == 50
        assert opts.bracket_hi == 1e3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"init_tau": 0.0},
            {"tol": -1e-9},
            {"max_iter": 0},
            {"bracket_hi": 0.5},
            {"bracket_hi": float("nan")},
            {"bracket_hi": float("inf")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            SolverOptions(**kwargs)


class TestNewtonSolve:
    def test_uniform_margins_clamp_at_tau0(self):
        ls = LogitSet(1.0, [1.0, 1.0, 1.0])
        for rho in (0.1, 1.0, 10.0):
            sol = newton_solve(ls, DroConfig(tau0=0.001, tau_max=2.0, rho=rho))
            assert sol.status is SolveStatus.CLAMPED_AT_TAU0
            assert sol.tau == 0.001
            assert sol.iterations == 0
            assert sol.final_grad == pytest.approx(rho, abs=1e-14)

    def test_interior_solution_zeroes_gradient(self):
        rng = np.random.default_rng(0)
        cfg = DroConfig(tau0=1e-3, tau_max=10.0, rho=0.4)
        interior = 0
        for _ in range(100):
            ls = random_instance(rng)
            sol = newton_solve(ls, cfg)
            assert sol.tau >= cfg.tau0
            if sol.status is SolveStatus.INTERIOR:
                interior += 1
                assert abs(sol.final_grad) <= 1e-8 * max(1.0, cfg.rho)
                # the row reduction and grad_tau's 1-d dot round differently
                assert abs(grad_tau(ls, sol.tau, cfg) - sol.final_grad) <= 8 * np.finfo(float).eps
        assert interior >= 80

    def test_exact_zero_gradient_is_converged(self):
        # the iterates reach grad == 0.0 exactly before |grad| < tol = 1e-300
        # can hold: that is the root, so the solve stops there as Interior
        ls = LogitSet(0.0, [2.0, -1.0, 0.5, 0.1])
        cfg = DroConfig(rho=1.0)
        sol = newton_solve(ls, cfg, SolverOptions(tol=1e-300))
        assert sol.status is SolveStatus.INTERIOR
        assert sol.final_grad == 0.0
        assert sol.iterations < 10
        oracle = golden_section_oracle(ls, cfg, cfg.tau0, 1e3, tol=1e-10)
        assert abs(sol.tau - oracle) <= 1e-6 * max(1.0, oracle)
        # started on that root, the solve takes no step and keeps it
        again = newton_solve(ls, cfg, SolverOptions(init_tau=sol.tau))
        assert again == TauSolution(sol.tau, SolveStatus.INTERIOR, 0, 0.0)

    def test_matches_golden_section_on_1000_instances(self):
        rng = np.random.default_rng(1)
        cfg = DroConfig(tau0=1e-3, tau_max=10.0, rho=0.6)
        for i in range(200):
            k = int(rng.integers(2, 513))
            ls = random_instance(rng, k=k, scale=float(rng.uniform(0.3, 3.0)))
            sol = newton_solve(ls, cfg)
            oracle = golden_section_oracle(ls, cfg, cfg.tau0, 1e3, tol=1e-10)
            assert abs(sol.tau - oracle) <= 1e-6 * max(1.0, sol.tau), f"instance {i}"

    def test_rho_monotonicity_interior(self):
        # large K so that KL(gibbs(tau0), uniform) can exceed rho = 11 and
        # every solve stays interior; tau* then strictly decreases with rho
        rng = np.random.default_rng(2)
        ls = LogitSet(0.0, rng.normal(size=300_000))
        taus = []
        for rho in (8.0, 9.0, 10.0, 11.0):
            sol = newton_solve(ls, DroConfig(tau0=1e-3, tau_max=3.0, rho=rho))
            assert sol.status is SolveStatus.INTERIOR
            taus.append(sol.tau)
        assert all(a > b for a, b in zip(taus, taus[1:])), taus

    def test_rho_monotonicity_with_clamping(self):
        # small K: large rho clamps; the sequence is still nonincreasing
        ls = LogitSet(0.0, [0.5, -0.2, 0.9])
        taus = [
            newton_solve(ls, DroConfig(tau0=1e-3, tau_max=3.0, rho=rho)).tau
            for rho in (0.05, 0.2, 0.8, 1.09, 1.2, 5.0)
        ]
        assert all(a >= b for a, b in zip(taus, taus[1:])), taus

    def test_scale_law(self):
        rng = np.random.default_rng(3)
        cfg = DroConfig(tau0=1e-5, tau_max=50.0, rho=0.5)
        for _ in range(20):
            ls = random_instance(rng, k=16)
            base = newton_solve(ls, cfg)
            if base.status is not SolveStatus.INTERIOR:
                continue
            for c in (0.5, 2.0, 7.0):
                scaled = LogitSet(ls.positive * c, ls.contrast * c)
                sol = newton_solve(scaled, cfg)
                assert sol.status is SolveStatus.INTERIOR
                assert abs(sol.tau - c * base.tau) <= 1e-6 * max(1.0, abs(c * base.tau))

    def test_fixed_point_at_interior_solutions(self):
        rng = np.random.default_rng(4)
        cfg = DroConfig(tau0=1e-3, tau_max=10.0, rho=0.7)
        checked = 0
        for _ in range(200):
            ls = random_instance(rng, k=24)
            sol = newton_solve(ls, cfg)
            if sol.status is not SolveStatus.INTERIOR:
                continue
            checked += 1
            assert abs(fixed_point_rhs(ls, sol.tau, cfg) - sol.tau) <= 1e-5
        assert checked >= 150

    def test_unbounded_descent_guard(self):
        # rho = 0 with non-constant margins: grad = -KL < 0 for every tau
        ls = LogitSet(0.0, [0.0, 1.0])
        with pytest.raises(UnboundedDescentError):
            newton_solve(ls, DroConfig(rho=0.0))

    def test_max_iter_reached_status(self):
        rng = np.random.default_rng(5)
        ls = random_instance(rng, k=32)
        cfg = DroConfig(tau0=1e-3, tau_max=10.0, rho=0.4)
        sol = newton_solve(ls, cfg, SolverOptions(max_iter=1, init_tau=900.0))
        assert sol.status is SolveStatus.MAX_ITER_REACHED
        assert sol.iterations == 1

    @given(
        st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=12),
        st.floats(0.05, 4.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_tau_never_below_floor(self, contrast, rho):
        cfg = DroConfig(tau0=0.01, tau_max=20.0, rho=rho)
        sol = newton_solve(LogitSet(0.3, contrast), cfg)
        assert sol.tau >= cfg.tau0
        assert isinstance(sol, TauSolution)


class TestGoldenSectionOracle:
    def test_uniform_margins_return_lower_edge(self):
        ls = LogitSet(0.0, [0.7, 0.7])
        cfg = DroConfig(tau0=1e-3, tau_max=2.0, rho=2.0)
        assert golden_section_oracle(ls, cfg, cfg.tau0, 100.0, 1e-9) == cfg.tau0

    def test_single_contrast_returns_lower_edge(self):
        # K = 1: f = h + tau*rho, increasing in tau
        ls = LogitSet(0.0, [3.0])
        cfg = DroConfig(tau0=1e-3, tau_max=2.0, rho=1.0)
        assert golden_section_oracle(ls, cfg, cfg.tau0, 100.0, 1e-9) == cfg.tau0

    def test_agrees_with_dense_grid_scan(self):
        rng = np.random.default_rng(6)
        cfg = DroConfig(tau0=1e-3, tau_max=10.0, rho=0.8)
        for _ in range(5):
            ls = random_instance(rng, k=12)
            grid = np.arange(cfg.tau0, 3.0, 1e-4)
            values = [robust_loss(ls, float(t), cfg) for t in grid]
            best = float(grid[int(np.argmin(values))])
            got = golden_section_oracle(ls, cfg, cfg.tau0, 3.0, 1e-8)
            assert abs(got - best) <= 2e-4

    def test_domain_errors(self):
        ls = LogitSet(0.0, [1.0, 2.0])
        cfg = DroConfig()
        with pytest.raises(DomainError):
            golden_section_oracle(ls, cfg, 2.0, 2.0, 1e-8)
        with pytest.raises(DomainError):
            golden_section_oracle(ls, cfg, 5.0, 1.0, 1e-8)
        with pytest.raises(DomainError):
            golden_section_oracle(ls, cfg, 1e-6, 1.0, 1e-8)  # below tau0


def block_solutions(columns):
    """solve_margins' (tau, code, iterations, grad) columns as one TauSolution per row."""
    return [TauSolution(t, STATUSES[c], i, g)
            for t, c, i, g in zip(*(column.tolist() for column in columns))]


class TestBatchSolve:
    """solve_margins and margins_loss on (n, K) margin blocks."""

    def test_single_uniform_instance(self):
        (_, code, _, _), failure = solve_margins(np.array([[1.0, 1.0]]), DroConfig(rho=1.0))
        assert failure is None and STATUSES[code[0]] is SolveStatus.CLAMPED_AT_TAU0

    def test_matches_golden_section_and_permutation(self):
        rng = np.random.default_rng(7)
        for rho, opts in [
            (0.5, SolverOptions()),
            (0.05, SolverOptions()),
            (3.0, SolverOptions(init_tau=0.01)),
            (0.5, SolverOptions(max_iter=2)),
        ]:
            cfg = DroConfig(tau0=1e-3, tau_max=10.0, rho=rho)
            k = int(rng.integers(2, 65))
            instances = [
                random_instance(rng, k=k, scale=float(rng.uniform(0.1, 6.0))) for _ in range(100)
            ]
            instances.append(LogitSet(0.5, [0.5] * k))  # zero margins: clamps
            h = np.stack([ls.margins for ls in instances])
            columns, failure = solve_margins(h, cfg, opts)
            assert failure is None
            block = block_solutions(columns)
            for i, (ls, got) in enumerate(zip(instances, block)):
                if got.status is SolveStatus.MAX_ITER_REACHED:
                    assert got.iterations == opts.max_iter, (rho, i)
                    continue
                if got.status is SolveStatus.INTERIOR:
                    assert abs(got.final_grad) < opts.tol * max(1.0, rho), (rho, i)
                ref = golden_section_oracle(ls, cfg, cfg.tau0, opts.bracket_hi, tol=1e-10)
                assert abs(got.tau - ref) <= 1e-6 * max(1.0, got.tau), (rho, i)

            reversed_columns, _ = solve_margins(h[::-1], cfg, opts)
            assert block_solutions(reversed_columns) == block[::-1]

    def test_row_independent_of_batch(self, monkeypatch):
        # every row of a block is newton_solve on its instance alone, and
        # margins_loss gives it the same loss, however the block is sliced
        rng = np.random.default_rng(8)
        cfg = DroConfig(tau0=1e-3, tau_max=10.0, rho=0.5)
        for k in (1, 3, 8, 64, 512, 700, 1000):
            instances = [random_instance(rng, k=k, scale=float(rng.uniform(0.1, 6.0)))
                         for _ in range(12)]
            instances.append(LogitSet(0.2, [0.7] * k))  # clamps
            h = np.stack([ls.margins for ls in instances])
            alone = [newton_solve(ls, cfg) for ls in instances]
            losses = margins_loss(h, np.array([sol.tau for sol in alone]), cfg).tolist()
            # slices of 1 and 1000 margins split the block across slice boundaries
            for block_elements in (1, 1000, tau_solver._BLOCK_ELEMENTS):
                monkeypatch.setattr(tau_solver, "_BLOCK_ELEMENTS", block_elements)
                columns, failure = solve_margins(h, cfg)
                assert failure is None
                assert block_solutions(columns) == alone, (k, block_elements)
                assert margins_loss(h, columns[0], cfg).tolist() == losses, (k, block_elements)

    def test_solve_margins_columns_are_batch_solve(self, monkeypatch):
        # the columns of a many-row block are the one-row solves stacked,
        # and margins_loss on the block is the one-row losses stacked
        rng = np.random.default_rng(10)
        cfg = DroConfig(tau0=1e-3, tau_max=10.0, rho=0.5)
        for k in (1, 3, 64, 700):
            instances = [random_instance(rng, k=k, scale=float(rng.uniform(0.1, 6.0)))
                         for _ in range(40)]
            instances.append(LogitSet(0.2, [0.7] * k))  # clamps
            h = np.stack([ls.margins for ls in instances])
            expected, expected_loss = [], []
            for row in h:
                columns, failure = solve_margins(row[None, :], cfg)
                assert failure is None
                expected += block_solutions(columns)
                expected_loss += margins_loss(row[None, :], columns[0], cfg).tolist()
            for block_elements in (1, 1000, 16_384):
                monkeypatch.setattr(tau_solver, "_BLOCK_ELEMENTS", block_elements)
                columns, failure = solve_margins(h, cfg)
                assert failure is None
                assert block_solutions(columns) == expected, (k, block_elements)
                loss = margins_loss(h, columns[0], cfg)
                assert loss.tolist() == expected_loss, (k, block_elements)

    def test_solve_margins_names_the_first_unbounded_row_across_slices(self, monkeypatch):
        # rho = 0: rows with spread margins have no bounded minimizer
        h = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 2.0], [0.0, 1.0], [1.0, 1.0]])
        monkeypatch.setattr(tau_solver, "_BLOCK_ELEMENTS", 4)  # slices of 2 rows
        (_, code, _, _), failure = solve_margins(h, DroConfig(rho=0.0))
        assert failure[0] == 2 and "bracket_hi" in failure[1]
        assert STATUSES[code[4]] is SolveStatus.CLAMPED_AT_TAU0
        with pytest.raises(UnboundedDescentError) as excinfo:
            newton_solve(LogitSet(0.0, h[2]), DroConfig(rho=0.0))
        assert str(excinfo.value) == failure[1]

    def test_margins_loss_matches_robust_loss(self):
        rng = np.random.default_rng(9)
        cfg = DroConfig(tau0=1e-3, tau_max=10.0, rho=0.7)
        for k in (1, 7, 64):
            instances = [random_instance(rng, k=k, scale=float(rng.uniform(0.1, 6.0)))
                         for _ in range(20)]
            taus = rng.uniform(1e-3, 5.0, size=len(instances))
            got = margins_loss(np.stack([ls.margins for ls in instances]), taus, cfg)
            for ls, tau, loss in zip(instances, taus, got):
                ref = robust_loss(ls, float(tau), cfg)
                assert abs(loss - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_margins_loss_matches_frozen_values(self):
        for name, case in ORACLE["cases"].items():
            ls = LogitSet(case["positive"], case["contrast"])
            cfg = DroConfig(tau0=case["tau0"], tau_max=1e6, rho=case["rho"])
            got = margins_loss(ls.margins[None, :], np.array([case["tau"]]), cfg)[0]
            expected = case["expected"]["loss"]
            assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected)), name
