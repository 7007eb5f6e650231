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
    BatchSolveError,
    SolveStatus,
    SolverOptions,
    TauSolution,
    UnboundedDescentError,
    batch_robust_loss,
    batch_solve,
    golden_section_oracle,
    newton_solve,
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
                assert abs(grad_tau(ls, sol.tau, cfg)) == abs(sol.final_grad)
        assert interior >= 80

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


class TestBatchSolve:
    def test_single_uniform_instance(self):
        out = batch_solve([LogitSet(0.0, [1.0, 1.0])], DroConfig(rho=1.0))
        assert [s.status for s in out] == [SolveStatus.CLAMPED_AT_TAU0]

    def test_matches_sequential_and_permutation(self):
        # batch_solve repeats grad_tau / hess_tau's arithmetic and matches
        # newton_solve bit for bit where numpy sends both paths' dot products
        # to one kernel; that is a property of the build, so the contract
        # tested here is solver tolerance
        rng = np.random.default_rng(7)
        for rho, opts in [
            (0.5, SolverOptions()),
            (0.05, SolverOptions()),
            (3.0, SolverOptions(init_tau=0.01)),
            (0.5, SolverOptions(max_iter=2)),
        ]:
            cfg = DroConfig(tau0=1e-3, tau_max=10.0, rho=rho)
            instances = [
                random_instance(rng, scale=float(rng.uniform(0.1, 6.0))) for _ in range(100)
            ]
            instances += [LogitSet(0.0, [1.0]), LogitSet(0.5, [0.5, 0.5, 0.5])]
            batch = batch_solve(instances, cfg, opts)
            for i, (ls, got) in enumerate(zip(instances, batch)):
                ref = newton_solve(ls, cfg, opts)
                assert got.status is ref.status, (rho, i)
                assert abs(got.tau - ref.tau) <= 1e-6 * max(1.0, ref.tau), (rho, i)
                assert abs(got.iterations - ref.iterations) <= 1, (rho, i)
                if got.status is SolveStatus.INTERIOR:
                    assert abs(got.final_grad) < opts.tol * max(1.0, rho)

            perm = list(reversed(range(len(instances))))
            permuted = batch_solve([instances[i] for i in perm], cfg, opts)
            assert permuted == [batch[i] for i in perm]

    def test_row_independent_of_batch(self, monkeypatch):
        rng = np.random.default_rng(8)
        cfg = DroConfig(tau0=1e-3, tau_max=10.0, rho=0.5)
        instances = [
            random_instance(rng, k=k, scale=float(rng.uniform(0.1, 6.0)))
            for k in (3, 8, 64, 512, 1000)
            for _ in range(12)
        ]
        order = rng.permutation(len(instances))
        mixed = [instances[i] for i in order]
        batch = batch_solve(mixed, cfg)
        alone = [batch_solve([ls], cfg)[0] for ls in mixed]
        assert batch == alone
        # blocks of 1000 margins split every K group across block boundaries
        monkeypatch.setattr(tau_solver, "_BLOCK_ELEMENTS", 1000)
        assert batch_solve(mixed, cfg) == batch
        by_k = batch_solve(instances, cfg)
        assert [by_k[i] for i in order] == batch

    def test_batch_robust_loss_matches_robust_loss(self):
        rng = np.random.default_rng(9)
        cfg = DroConfig(tau0=1e-3, tau_max=10.0, rho=0.7)
        instances = [random_instance(rng, scale=float(rng.uniform(0.1, 6.0))) for _ in range(60)]
        taus = rng.uniform(1e-3, 5.0, size=len(instances))
        got = batch_robust_loss(instances, taus, cfg)
        for ls, tau, loss in zip(instances, taus, got):
            ref = robust_loss(ls, float(tau), cfg)
            assert abs(loss - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            batch_solve([], DroConfig())

    def test_error_carries_instance_index(self):
        instances = [
            LogitSet(0.0, [1.0, 1.0]),  # fine: clamps
            LogitSet(0.0, [0.0, 1.0]),  # rho=0 + spread margins: unbounded descent
        ]
        with pytest.raises(BatchSolveError) as excinfo:
            batch_solve(instances, DroConfig(rho=0.0))
        assert excinfo.value.index == 1
        assert isinstance(excinfo.value.cause, UnboundedDescentError)

        # two unbounded rows: the smaller index is reported, although its K
        # group is not the first one solved
        instances = [
            LogitSet(0.0, [1.0, 1.0, 1.0]),  # clamps
            LogitSet(0.0, [0.0, 2.0, 1.0]),  # unbounded, K = 3
            LogitSet(0.0, [1.0, 1.0]),  # clamps
            LogitSet(0.0, [0.0, 1.0]),  # unbounded, K = 2: solved first
        ]
        cfg = DroConfig(rho=0.0)
        with pytest.raises(BatchSolveError) as excinfo:
            batch_solve(instances, cfg)
        assert excinfo.value.index == 1
        with pytest.raises(UnboundedDescentError) as scalar:
            newton_solve(instances[1], cfg)
        assert str(excinfo.value.cause) == str(scalar.value)
