"""The verification checks themselves: residuals, determinism, fault paths."""

import numpy as np
import pytest

from drotemp import verify as vf
from drotemp.dro_core import DroConfig, LogitSet, primal_dro_oracle, robust_loss
from drotemp.errors import DomainError
from drotemp.tau_solver import SolveStatus, SolverOptions, newton_solve


class TestCheckReport:
    def test_pass_flag_is_derived_from_residual(self):
        good = vf.CheckReport(name="duality", instances=5, max_residual=1e-4, tolerance=1e-3, seed=0)
        bad = vf.CheckReport(name="duality", instances=5, max_residual=2e-3, tolerance=1e-3, seed=0)
        assert good.passed and not bad.passed

    def test_boundary_residual_passes(self):
        edge = vf.CheckReport(name="duality", instances=1, max_residual=1e-3, tolerance=1e-3, seed=0)
        assert edge.passed

    def test_describe_prints_residual_even_on_pass(self):
        report = vf.CheckReport(name="duality", instances=5, max_residual=3e-4, tolerance=1e-3, seed=7)
        text = report.describe()
        assert "3.000e-04" in text and "pass" in text and "seed 7" in text

    def test_csv_row_fields(self):
        report = vf.CheckReport(name="gradients", instances=23, max_residual=0.5, tolerance=1e-5, seed=3)
        assert report.csv_row() == "gradients,23,0.5,1e-05,false,3"


class TestDuality:
    def test_small_run_passes(self):
        report = vf.check_duality(n_instances=10, seed=2)
        assert report.passed and report.instances == 30
        assert report.tolerance == 1e-3

    def test_zero_margin_instances_vanish_on_both_sides(self):
        for k in (2, 3, 4):
            ls = LogitSet(0.0, np.zeros(k))
            cfg = DroConfig(tau0=0.05, tau_max=10.0, rho=0.7)
            assert abs(vf._dual_value(ls, cfg)) <= 1e-12
            assert abs(primal_dro_oracle(ls, cfg, 0.005)) <= 1e-12

    def test_rho_zero_reduces_to_uniform_expectation(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            ls = LogitSet(float(rng.normal()), rng.normal(size=3))
            cfg = DroConfig(tau0=0.05, tau_max=10.0, rho=0.0)
            dual = vf._dual_value(ls, cfg)
            primal = primal_dro_oracle(ls, cfg, 0.005)
            uniform = float(ls.margins.mean())
            assert dual == pytest.approx(uniform, abs=1e-3)
            assert abs(dual - primal) <= 1e-3

    def test_deterministic_given_seed(self):
        a = vf.check_duality(n_instances=5, seed=11)
        b = vf.check_duality(n_instances=5, seed=11)
        assert a == b


class TestFixedPoint:
    def test_small_run_passes(self):
        report = vf.check_fixed_point(n_instances=100, seed=4)
        assert report.passed and report.instances == 100

    def test_generator_yields_interior_only(self):
        rng = np.random.default_rng(9)
        for ls, cfg, sol in vf._interior_instances(25, rng):
            assert sol.status is SolveStatus.INTERIOR
            check = newton_solve(ls, cfg, SolverOptions(tol=1e-9, bracket_hi=1e6))
            assert check.status is SolveStatus.INTERIOR

    def test_residual_shrinks_with_solver_tolerance(self):
        from drotemp.dro_core import fixed_point_rhs

        rng = np.random.default_rng(21)
        loose_worst, tight_worst = 0.0, 0.0
        found = 0
        while found < 10:
            ls = LogitSet(float(rng.normal()), rng.normal(size=16) * 2.0)
            cfg = DroConfig(tau0=1e-3, tau_max=1e4, rho=0.2)
            loose = newton_solve(ls, cfg, SolverOptions(tol=1e-4, bracket_hi=1e6))
            tight = newton_solve(ls, cfg, SolverOptions(tol=1e-8, bracket_hi=1e6))
            if loose.status is not SolveStatus.INTERIOR:
                continue
            found += 1
            loose_worst = max(loose_worst, abs(fixed_point_rhs(ls, loose.tau, cfg) - loose.tau))
            tight_worst = max(tight_worst, abs(fixed_point_rhs(ls, tight.tau, cfg) - tight.tau))
        assert tight_worst < loose_worst


class TestBzBounds:
    def test_large_run_has_no_violations(self):
        report = vf.check_bz_bounds(n_instances=3000, seed=6)
        assert report.passed
        assert report.max_residual <= 1e-12

    def test_nan_residual_fails(self, monkeypatch):
        # one NaN b_z among 50 instances; Python's max(worst, nan) would keep
        # worst and report a pass
        real, calls = vf.compute_bz, iter(range(50))
        monkeypatch.setattr(
            vf, "compute_bz", lambda ls, tau: np.nan if next(calls) == 20 else real(ls, tau)
        )
        report = vf.check_bz_bounds(n_instances=50, seed=0)
        assert np.isnan(report.max_residual) and not report.passed
        assert report.describe().startswith("bz_bounds: FAIL (max residual nan")

    def test_single_logit_is_tight_at_zero(self):
        from drotemp.dro_core import compute_bz

        ls = LogitSet(0.0, np.array([1.7]))
        assert compute_bz(ls, 0.3) == pytest.approx(0.0, abs=1e-15)


class TestUpperBound:
    def test_small_run_passes(self):
        report = vf.check_upper_bound(n_draws=25, seed=8)
        assert report.passed and report.instances == 25

    def test_solved_temperatures_achieve_equality(self):
        rng = np.random.default_rng(3)
        cfg = DroConfig(tau0=0.02, tau_max=2.0, rho=0.8)
        solved_mean, probe_mean = 0.0, 0.0
        rows = rng.normal(size=(12, 10))
        for row in rows:
            ls = LogitSet(float(row.max()), row)
            sol = newton_solve(ls, cfg, SolverOptions(bracket_hi=1e7))
            value = robust_loss(ls, sol.tau, cfg)
            solved_mean += value
            probe_mean += robust_loss(ls, sol.tau, cfg)
        assert abs(solved_mean - probe_mean) <= 1e-6

    def test_tau_max_everywhere_is_strictly_worse(self):
        rng = np.random.default_rng(13)
        cfg = DroConfig(tau0=0.02, tau_max=2.0, rho=0.8)
        solved_mean, ceiling_mean = 0.0, 0.0
        for row in rng.normal(size=(12, 10)):
            ls = LogitSet(float(row.max()), row)
            sol = newton_solve(ls, cfg, SolverOptions(bracket_hi=1e7))
            solved_mean += robust_loss(ls, sol.tau, cfg)
            ceiling_mean += robust_loss(ls, cfg.tau_max, cfg)
        assert solved_mean < ceiling_mean


class TestGradients:
    def test_battery_passes(self):
        report = vf.check_gradients(seed=12)
        assert report.passed
        assert report.max_residual <= 1e-5

    def test_fault_injection_fails_loudly(self):
        report = vf.check_gradients(seed=12, fault=True)
        assert not report.passed
        assert report.max_residual > 1.0


class TestSuite:
    def test_reports_merge_in_name_order(self):
        reports = vf.run_suite(seed=1, only=["upper_bound", "bz_bounds", "gradients"])
        assert [r.name for r in reports] == ["bz_bounds", "gradients", "upper_bound"]

    def test_only_accepts_a_single_name(self):
        reports = vf.run_suite(seed=1, only="bz_bounds")
        assert len(reports) == 1 and reports[0].name == "bz_bounds"

    def test_unknown_check_rejected(self):
        with pytest.raises(DomainError, match="unknown check"):
            vf.run_suite(only="entropy")

    def test_csv_has_header_and_one_row_per_check(self):
        reports = vf.run_suite(seed=1, only=["bz_bounds", "gradients"])
        lines = vf.suite_csv(reports).splitlines()
        assert lines[0] == vf.REPORT_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("bz_bounds,") and lines[2].startswith("gradients,")

    def test_tolerances_come_from_the_table(self):
        for report in vf.run_suite(seed=1, only=["bz_bounds", "gradients", "upper_bound"]):
            assert report.tolerance == vf.TOLERANCES[report.name]
