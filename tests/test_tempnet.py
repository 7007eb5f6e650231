import dataclasses
import json
import pathlib

import numpy as np
import pytest

from drotemp import diff_engine as de
from drotemp.diff_engine import Tensor, finite_diff_check
from drotemp.dro_core import DroConfig, LogitSet, robust_loss
from drotemp.errors import DomainError, NonFiniteError
from drotemp.tau_solver import SolverOptions, newton_solve
from drotemp.tempnet import (
    TempNetConfig,
    TempNetParams,
    Variant,
    _cl_parts,
    _llm_parts,
    cl_tau_batch,
    init_cl_tempnet,
    init_llm_tempnet,
    llm_tau_batch,
)

ORACLE = json.loads(
    (pathlib.Path(__file__).parent / "oracles" / "tempnet_values.json").read_text()
)


def llm_cfg(**kw):
    base = dict(variant=Variant.LLM_LOGITS, d0=12, d1=8, d2=4, tau0=1e-3, tau_max=2.0, rho=1.0)
    base.update(kw)
    return TempNetConfig(**base)


def cl_cfg(**kw):
    base = dict(variant=Variant.CL_EMBEDDING, d0=10, d1=8, d2=4, tau0=1e-3, tau_max=0.05, rho=4.0)
    base.update(kw)
    return TempNetConfig(**base)


def params_from_case(case, variant):
    cfg = TempNetConfig(
        variant=variant,
        d0=len(case["input"]),
        d1=len(case["b1"]),
        d2=len(case["w3"]),
        tau0=case["tau0"],
        tau_max=case["tau_max"],
        rho=case["rho"],
    )
    tensor = lambda name: Tensor(np.asarray(case[name], dtype=np.float64), requires_grad=True)
    return TempNetParams(
        cfg=cfg,
        W1=tensor("W1"),
        b1=tensor("b1"),
        W2=tensor("W2"),
        w3=tensor("w3"),
        phi=Tensor(np.asarray(case["phi"]), requires_grad=True),
        b=Tensor(np.asarray(case["b"]), requires_grad=True),
    )


def head(u, w3, phi=1.0, b=0.0, rho=1.0, tau0=1e-3, tau_max=2.0):
    """The pooled scalars s and the temperatures of the TempNet head, the
    tape node the network ends in, on rows u of prototypical logits."""
    u, w3, phi, b = (Tensor(np.asarray(v, dtype=np.float64)) for v in (u, w3, phi, b))
    return de.tempnet_head(u, w3, phi, b, rho, tau0, tau_max)


def pooled(u, w3, phi, b, rho) -> float:
    """The pooled scalar s for one row of prototypical logits."""
    return float(head([u], w3, phi, b, rho)[0].data[0])


def mapped(s, tau0, tau_max) -> float:
    """The temperature at pooled scalar s. A constant u row pools to exactly
    zero, so at rho = 1 the head's s is -b."""
    s_out, tau = head(np.ones((1, 2)), [1.0, 1.0], b=-s, tau0=tau0, tau_max=tau_max)
    assert s_out.data[0] == s
    return float(tau.data[0])


def unit_rows(rng, n, d):
    rows = rng.normal(size=(n, d))
    return rows / np.sqrt((rows * rows).sum(axis=1, keepdims=True))


class TestConfigValidation:
    def test_llm_requires_narrowing_widths(self):
        with pytest.raises(DomainError):
            llm_cfg(d0=8, d1=12)
        with pytest.raises(DomainError):
            llm_cfg(d1=4, d2=6)

    def test_widths_must_be_positive(self):
        with pytest.raises(DomainError):
            llm_cfg(d2=0)
        with pytest.raises(DomainError):
            cl_cfg(d2=0)

    def test_cl_allows_wide_input_but_not_wide_projection(self):
        cl_cfg(d0=3, d1=8, d2=8)  # d0 unconstrained relative to d1
        with pytest.raises(DomainError):
            cl_cfg(d1=4, d2=5)

    def test_range_and_rho(self):
        with pytest.raises(DomainError):
            llm_cfg(tau0=2.0, tau_max=2.0)
        with pytest.raises(DomainError, match="^tau_max must be finite, got inf$"):
            cl_cfg(tau_max=np.inf)
        with pytest.raises(DomainError):
            llm_cfg(rho=0.0)
        with pytest.raises(DomainError):
            llm_cfg(rho=-1.0)

    def test_variant_type_checked(self):
        with pytest.raises(DomainError):
            TempNetConfig(variant="LlmLogits", d0=4, d1=4, d2=4)


class TestOutputMap:
    def test_zero_is_midpoint(self):
        assert mapped(0.0, 0.001, 2.0) == pytest.approx(1.0005, abs=1e-15)
        assert mapped(0.0, 0.2, 0.4) == pytest.approx(0.3, abs=1e-15)

    def test_saturation(self):
        assert mapped(50.0, 0.001, 2.0) == pytest.approx(2.0, abs=1e-12)
        assert mapped(-50.0, 0.001, 2.0) == pytest.approx(0.001, abs=1e-12)

    def test_monotone_on_fuzzed_pairs(self):
        rng = np.random.default_rng(3)
        s = rng.normal(size=(10_000, 2)) * 5.0
        lo, hi = s.min(axis=1), s.max(axis=1)
        keep = lo < hi

        def tau_at(x):
            return head(np.ones((1, 2)), [1.0, 1.0], b=-x, tau0=0.001, tau_max=2.0)[1].data[0]

        taus_lo = np.array([tau_at(x) for x in lo[keep]])
        taus_hi = np.array([tau_at(x) for x in hi[keep]])
        assert (taus_lo < taus_hi).all()

    def test_frozen_values(self):
        for case in ORACLE["output_map"].values():
            got = mapped(case["s"], case["tau0"], case["tau_max"])
            assert got == pytest.approx(case["expected"], rel=1e-14, abs=1e-300)


class TestPooling:
    def test_constant_u_gives_minus_b_over_rho(self):
        u = np.full(7, 3.25)
        w3 = np.linspace(-1, 1, 7)
        assert pooled(u, w3, 0.5, 1.4, 2.0) == pytest.approx(-0.7, abs=1e-12)

    def test_single_logit_identity_weights(self):
        assert pooled([5.0], [1.0], 1.0, 0.0, 3.0) == 0.0

    def test_frozen_values(self):
        for case in ORACLE["pooling"].values():
            got = pooled(case["u"], case["w3"], case["phi"], case["b"], case["rho"])
            assert got == pytest.approx(case["expected"], rel=1e-12, abs=1e-15)

    def test_domain_errors(self):
        # an optimizer step can drive phi to zero
        with pytest.raises(DomainError):
            head(np.ones((1, 1)), [1.0], phi=0.0)
        with pytest.raises(DomainError):
            cl_cfg(rho=-2.0)
        with pytest.raises(DomainError):
            TempNetParams(**{**vars(init_cl_tempnet(cl_cfg(), seed=0)), "w3": Tensor(np.ones(1))})

    def test_large_logits_stable(self):
        # max-shifted softmax: huge prototypical logits must not overflow
        s = pooled([900.0, -900.0], [1.0, 1.0], 1.0, 0.0, 1.0)
        assert np.isfinite(s)
        assert s == pytest.approx((1.0 - 0.5) * 900.0 + (0.0 - 0.5) * (-900.0), rel=1e-12)


class TestInitLlm:
    def test_fixed_fields(self):
        p = init_llm_tempnet(llm_cfg(), seed=0)
        assert np.array_equal(p.w3.data, np.ones(4))
        assert float(p.b.data) == 0.0
        assert float(p.phi.data) == 1.0

    def test_shapes(self):
        p = init_llm_tempnet(llm_cfg(d0=32, d1=16, d2=8), seed=1)
        assert p.W1.shape == (16, 32)
        assert p.W2.shape == (8, 16)
        assert p.b1.shape == (16,)

    def test_deterministic_and_seed_sensitive(self):
        a = init_llm_tempnet(llm_cfg(), seed=9)
        b = init_llm_tempnet(llm_cfg(), seed=9)
        c = init_llm_tempnet(llm_cfg(), seed=10)
        assert np.array_equal(a.W1.data, b.W1.data)
        assert np.array_equal(a.W2.data, b.W2.data)
        assert not np.array_equal(a.W1.data, c.W1.data)

    def test_uniform_bounds(self):
        cfg = llm_cfg(d0=32, d1=16, d2=8)
        p = init_llm_tempnet(cfg, seed=4)
        assert np.abs(p.W1.data).max() <= np.sqrt(6.0 / 32)
        assert np.abs(p.W2.data).max() <= np.sqrt(6.0 / 16)

    def test_initial_taus_strictly_interior(self):
        cfg = llm_cfg()
        p = init_llm_tempnet(cfg, seed=7)
        rng = np.random.default_rng(11)
        taus = llm_tau_batch(p, Tensor(rng.normal(size=(100, cfg.d0)) * 3.0)).data
        assert ((cfg.tau0 < taus) & (taus < cfg.tau_max)).all()

    def test_variant_mismatch(self):
        with pytest.raises(DomainError):
            init_llm_tempnet(cl_cfg(), seed=0)


class TestInitCl:
    def test_defaults_without_samples(self):
        p = init_cl_tempnet(cl_cfg(), seed=3)
        assert float(p.phi.data) == 0.01
        assert np.array_equal(p.w3.data, np.ones(4))
        assert p.W2.shape == (8, 4)
        assert np.abs(p.W2.data).max() <= np.sqrt(6.0 / 8)

    def test_exact_sample_rows_become_columns(self):
        cfg = cl_cfg()
        rng = np.random.default_rng(5)
        samples = rng.normal(size=(cfg.d2, cfg.d1))
        p = init_cl_tempnet(cfg, seed=3, sample_embeddings=samples)
        assert np.array_equal(p.W2.data, samples.T)

    def test_surplus_samples_select_subset_in_order(self):
        cfg = cl_cfg()
        rng = np.random.default_rng(6)
        samples = rng.normal(size=(20, cfg.d1))
        p = init_cl_tempnet(cfg, seed=3, sample_embeddings=samples)
        cols = p.W2.data.T
        rows = {tuple(r) for r in samples}
        for col in cols:
            assert tuple(col) in rows

    def test_too_few_samples_rejected(self):
        cfg = cl_cfg()
        with pytest.raises(DomainError):
            init_cl_tempnet(cfg, seed=0, sample_embeddings=np.ones((cfg.d2 - 1, cfg.d1)))

    def test_zero_sample_rows_never_become_prototypes(self):
        cfg = cl_cfg()
        rng = np.random.default_rng(7)
        samples = np.abs(rng.normal(size=(12, cfg.d1)))
        samples[::2] = 0.0  # ReLU outputs of inputs that silence every unit
        for seed in range(20):
            p = init_cl_tempnet(cfg, seed=seed, sample_embeddings=samples)
            assert np.abs(p.W2.data).sum(axis=0).min() > 0.0
            cl_tau_batch(p, Tensor(np.eye(cfg.d0)))  # prototypes normalize

    def test_draw_unchanged_when_no_row_is_zero(self):
        # the prototype draw follows the first-layer draw on the same
        # generator, exactly as before zero rows were screened out
        cfg = cl_cfg()
        samples = np.random.default_rng(8).normal(size=(16, cfg.d1))
        p = init_cl_tempnet(cfg, seed=4, sample_embeddings=samples)
        rng = np.random.default_rng(4)
        rng.uniform(size=(cfg.d1, cfg.d0))
        idx = np.sort(rng.choice(16, size=cfg.d2, replace=False))
        np.testing.assert_array_equal(p.W2.data, samples[idx].T)

    def test_too_few_nonzero_samples_rejected(self):
        cfg = cl_cfg()
        samples = np.zeros((10, cfg.d1))
        samples[: cfg.d2 - 1] = 1.0
        with pytest.raises(DomainError, match="nonzero"):
            init_cl_tempnet(cfg, seed=0, sample_embeddings=samples)

    def test_wrong_sample_width_rejected(self):
        cfg = cl_cfg()
        with pytest.raises(DomainError):
            init_cl_tempnet(cfg, seed=0, sample_embeddings=np.ones((6, cfg.d1 + 1)))

    def test_initial_taus_interior_on_unit_inputs(self):
        cfg = cl_cfg()
        p = init_cl_tempnet(cfg, seed=12)
        rng = np.random.default_rng(13)
        taus = cl_tau_batch(p, Tensor(unit_rows(rng, 50, cfg.d0))).data
        assert ((cfg.tau0 < taus) & (taus < cfg.tau_max)).all()

    def test_variant_mismatch(self):
        with pytest.raises(DomainError):
            init_cl_tempnet(llm_cfg(), seed=0)


def one_row(parts, params, row, **kw):
    """v, u, s and tau of a one-row batch, as plain values."""
    v, u, s, tau = parts(params, Tensor(np.asarray(row, dtype=np.float64)[None, :]), **kw)
    return v.data[0], u.data[0], float(s.data[0]), float(tau.data[0])


class TestForwardLlm:
    def test_matches_independent_reference(self):
        case = ORACLE["llm_forward"]["small"]
        p = params_from_case(case, Variant.LLM_LOGITS)
        v, u, s, tau = one_row(_llm_parts, p, case["input"])
        want = case["expected"]
        np.testing.assert_allclose(v, want["v"], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(u, want["u"], rtol=1e-12, atol=1e-15)
        assert s == pytest.approx(want["s"], rel=1e-12)
        assert tau == pytest.approx(want["tau"], rel=1e-12)
        assert llm_tau_batch(p, Tensor(np.asarray([case["input"]]))).data[0] == tau

    def test_zero_row_accepted(self):
        # an all-zero row goes through unnormalized, so v = relu(b1)
        p = init_llm_tempnet(llm_cfg(), seed=0)
        rows = np.stack([np.zeros(12), np.arange(1.0, 13.0)])
        taus = llm_tau_batch(p, Tensor(rows)).data
        v, _, _, tau = one_row(_llm_parts, p, rows[0])
        np.testing.assert_array_equal(v, np.maximum(p.b1.data, 0.0))
        assert taus[0] == tau
        assert taus[1] == one_row(_llm_parts, p, rows[1])[3]

    def test_nonfinite_rejected(self):
        p = init_llm_tempnet(llm_cfg(), seed=0)
        bad = np.ones((1, 12))
        bad[0, 3] = np.inf
        with pytest.raises(NonFiniteError), np.errstate(invalid="ignore"):
            llm_tau_batch(p, Tensor(bad))

    def test_wrong_length_rejected(self):
        p = init_llm_tempnet(llm_cfg(), seed=0)
        with pytest.raises(DomainError):
            llm_tau_batch(p, Tensor(np.ones((1, 13))))

    def test_positive_scale_invariance(self):
        p = init_llm_tempnet(llm_cfg(), seed=2)
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(1, 12))
        tau_a = llm_tau_batch(p, Tensor(logits)).data[0]
        # power-of-two scaling is lossless, so invariance is bit-exact
        tau_pow2 = llm_tau_batch(p, Tensor(4.0 * logits)).data[0]
        assert tau_a == tau_pow2
        # a general positive scale rounds each component once before the
        # network ever sees it; invariance holds to normalization rounding
        tau_b = llm_tau_batch(p, Tensor(3.7 * logits)).data[0]
        assert tau_b == pytest.approx(tau_a, rel=1e-12)

    def test_zeroed_head_gives_midpoint(self):
        cfg = llm_cfg(tau0=0.001, tau_max=2.0)
        p = init_llm_tempnet(cfg, seed=0)
        p.w3.data[:] = 0.0  # pooled sum vanishes, b = 0, so s = 0
        _, _, s, tau = one_row(_llm_parts, p, np.arange(1.0, 13.0))
        assert s == 0.0
        assert tau == pytest.approx(1.0005, abs=1e-15)

    def test_range_fuzz(self):
        cfg = llm_cfg()
        p = init_llm_tempnet(cfg, seed=21)
        rng = np.random.default_rng(22)
        n = 10_000
        scales = 10.0 ** rng.uniform(-6, 6, size=n)
        logits = rng.normal(size=(n, cfg.d0)) * scales[:, None]
        taus = llm_tau_batch(p, Tensor(logits)).data
        assert (taus >= cfg.tau0).all() and (taus <= cfg.tau_max).all()


class TestForwardCl:
    @pytest.mark.parametrize("name", ["moderate_phi", "sharp_phi"])
    def test_matches_independent_reference(self, name):
        case = ORACLE["cl_forward"][name]
        p = params_from_case(case, Variant.CL_EMBEDDING)
        v, u, s, tau = one_row(_cl_parts, p, case["input"])
        want = case["expected"]
        np.testing.assert_allclose(v, want["v"], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(u, want["u"], rtol=1e-12, atol=1e-15)
        assert s == pytest.approx(want["s"], rel=1e-12)
        assert tau == pytest.approx(want["tau"], rel=1e-12)

    def test_prototype_logits_bounded_by_v_norm(self):
        # unit prototype columns: |u_k| <= ||v|| by Cauchy-Schwarz
        cfg = cl_cfg()
        rng = np.random.default_rng(31)
        for seed in range(5):
            p = init_cl_tempnet(cfg, seed=seed, sample_embeddings=rng.normal(size=(9, cfg.d1)))
            v, u, _, _ = _cl_parts(p, Tensor(unit_rows(rng, 20, cfg.d0)))
            bound = np.sqrt((v.data**2).sum(axis=1)) + 1e-12
            assert (np.abs(u.data).max(axis=1) <= bound).all()

    def test_zero_w3_ignores_embedding(self):
        cfg = cl_cfg()
        p = init_cl_tempnet(cfg, seed=1)
        p.w3.data[:] = 0.0
        p.b.data[()] = 0.8
        rng = np.random.default_rng(17)
        _, _, s, _ = _cl_parts(p, Tensor(unit_rows(rng, 4, cfg.d0)))
        assert all(x == pytest.approx(-0.8 / cfg.rho, abs=1e-15) for x in s.data)

    def test_range_fuzz(self):
        cfg = cl_cfg()
        p = init_cl_tempnet(cfg, seed=41)
        rng = np.random.default_rng(42)
        taus = cl_tau_batch(p, Tensor(unit_rows(rng, 10_000, cfg.d0))).data
        assert (taus >= cfg.tau0).all() and (taus <= cfg.tau_max).all()


def _grad_check(params, build, field_name):
    """Max FD error of sum of taus wrt one parameter tensor."""
    def f(probe):
        trial = dataclasses.replace(params, **{field_name: probe})
        return de.sum(build(trial))

    return finite_diff_check(f, getattr(params, field_name))


class TestGradients:
    PARAM_FIELDS = ["W1", "b1", "W2", "w3", "phi", "b"]

    @pytest.mark.parametrize("field_name", PARAM_FIELDS)
    def test_llm_parameter_gradients(self, field_name):
        cfg = llm_cfg(d0=9, d1=6, d2=3)
        params = init_llm_tempnet(cfg, seed=5)
        rng = np.random.default_rng(50)
        x = Tensor(rng.normal(size=(4, cfg.d0)))
        err = _grad_check(params, lambda p: llm_tau_batch(p, x), field_name)
        assert err <= 1e-5

    @pytest.mark.parametrize("field_name", PARAM_FIELDS)
    def test_cl_parameter_gradients(self, field_name):
        cfg = cl_cfg(d0=7, d1=6, d2=3, tau_max=2.0, rho=1.5)
        params = init_cl_tempnet(cfg, seed=6)
        rng = np.random.default_rng(51)
        x = Tensor(unit_rows(rng, 4, cfg.d0))
        err = _grad_check(params, lambda p: cl_tau_batch(p, x), field_name)
        assert err <= 1e-5

    def test_cl_input_gradient(self):
        # embeddings feed the network inside a larger graph, so gradients
        # must flow back into the input rows too
        cfg = cl_cfg(d0=7, d1=6, d2=3)
        params = init_cl_tempnet(cfg, seed=8)
        rng = np.random.default_rng(52)
        x = Tensor(unit_rows(rng, 3, cfg.d0), requires_grad=True)
        err = finite_diff_check(lambda t: de.sum(cl_tau_batch(params, t)), x)
        assert err <= 1e-5


class TestUpperBoundProperty:
    def test_solved_minimum_below_network_loss(self):
        # the exact per-instance minimum over tau can never exceed the loss
        # at the network's predicted tau
        rng = np.random.default_rng(77)
        opts = SolverOptions(tol=1e-10)
        for draw in range(100):
            k = int(rng.integers(2, 17))
            cfg = TempNetConfig(
                variant=Variant.LLM_LOGITS,
                d0=k,
                d1=max(1, k // 2),
                d2=max(1, k // 4),
                tau0=1e-3,
                tau_max=2.0,
                rho=float(rng.uniform(0.2, 3.0)),
            )
            params = init_llm_tempnet(cfg, seed=draw)
            dro = DroConfig(tau0=cfg.tau0, tau_max=cfg.tau_max, rho=cfg.rho)
            solved, at_net = [], []
            for _ in range(10):
                logits = rng.normal(size=k)
                target = int(rng.integers(k))
                ls = LogitSet(float(logits[target]), logits)
                tau_net = llm_tau_batch(params, Tensor(logits[None, :])).data[0]
                solved.append(robust_loss(ls, newton_solve(ls, dro, opts).tau, dro))
                at_net.append(robust_loss(ls, tau_net, dro))
            assert np.mean(solved) <= np.mean(at_net) + 1e-9
