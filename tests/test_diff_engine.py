import numpy as np
import pytest

import drotemp.diff_engine as de
import drotemp.tempnet as tn
from drotemp.diff_engine import (
    Tape,
    Tensor,
    backward,
    finite_diff_check,
    stop_gradient,
)
from drotemp.errors import DomainError, NonFiniteError, ShapeError


def grad_of(build, *params):
    """Record build() on a fresh tape and return its gradient dict."""
    with Tape() as tape:
        out = build()
    return backward(out, tape)


class TestForwardValues:
    def test_relu(self):
        np.testing.assert_array_equal(
            de.relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0]
        )

    def test_relu_passes_nan_and_its_gradient(self):
        x = Tensor([np.nan, -1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            out = de.relu(x)
            total = de.sum(out)
        np.testing.assert_array_equal(out.data, [np.nan, 0.0, 2.0])
        np.testing.assert_array_equal(backward(total, tape)[x], [1.0, 0.0, 1.0])

    def test_relu_bits_on_finite_inputs_match_the_greater_than_mask(self):
        rng = np.random.default_rng(31)
        data = np.concatenate(
            [rng.normal(size=64), [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf]]
        )
        g = rng.normal(size=data.size)
        x = Tensor(data, requires_grad=True)
        with Tape() as tape:
            out = de.relu(x)
            total = de.sum(de.mul(out, Tensor(g)))
        old_mask = data > 0.0
        old_out = np.where(old_mask, data, 0.0)
        assert out.data.tobytes() == old_out.tobytes()
        assert backward(total, tape)[x].tobytes() == (g * old_mask).tobytes()

    def test_l2_normalize(self):
        np.testing.assert_allclose(
            de.l2_normalize(Tensor([3.0, 4.0])).data, [0.6, 0.8], atol=1e-15
        )

    def test_l2_normalize_keep_policy_passes_zero_rows(self):
        x = Tensor(np.array([[3.0, 4.0], [0.0, 0.0]]), requires_grad=True)
        out = de.l2_normalize(x, axis=-1, zero_policy="keep")
        np.testing.assert_array_equal(out.data, [[0.6, 0.8], [0.0, 0.0]])
        grads = grad_of(lambda: de.sum(de.mul(de.l2_normalize(x, -1, "keep"), 3.0)))
        np.testing.assert_array_equal(grads[x][1], [0.0, 0.0])
        with pytest.raises(DomainError):
            de.l2_normalize(x, axis=-1, zero_policy="clip")

    def test_add_colvec_forward(self):
        x = Tensor(np.zeros((3, 2)))
        v = Tensor(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(de.add_colvec(x, v).data, [[1, 1], [2, 2], [3, 3]])
        with pytest.raises(ShapeError):
            de.add_colvec(x, Tensor(np.zeros(2)))

    def test_l2_normalize_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            de.l2_normalize(Tensor([0.0, 0.0]))

    def test_non_finite_output_has_its_own_type(self):
        # an op passes a non-finite value on, and so does its gradient; the
        # callers' checks raise NonFiniteError (temperature networks, eval
        # passes) or TrainingDivergedError (loss value, flat gradients)
        x = Tensor([1.0, 0.0], requires_grad=True)
        with Tape() as tape:
            out = de.reciprocal(x)
            total = de.sum(out)
        assert out.data[1] == np.inf
        assert backward(total, tape)[x][1] == -np.inf
        assert issubclass(NonFiniteError, DomainError)

    def test_logistic_extremes_stay_finite(self):
        out = de.logistic(Tensor([-1000.0, 0.0, 1000.0])).data
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = de.softmax(Tensor(rng.normal(size=(5, 9)) * 50.0), axis=-1).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(5), atol=1e-12)

    def test_logsumexp_matches_shifted_reference(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 6)) * 300.0
        got = de.logsumexp(Tensor(x), axis=1).data
        m = x.max(axis=1, keepdims=True)
        ref = (m + np.log(np.exp(x - m).sum(axis=1, keepdims=True))).squeeze(1)
        np.testing.assert_allclose(got, ref, rtol=1e-14)

    def test_exp_overflow_is_a_domain_error(self):
        # an op passes an overflow on as inf (here 1 / 0); the check of
        # whoever consumes it raises NonFiniteError, a DomainError (here a
        # temperature network)
        out = de.reciprocal(Tensor([[0.0, 1.0]]))
        assert out.data[0, 0] == np.inf
        cfg = tn.TempNetConfig(variant=tn.Variant.CL_EMBEDDING, d0=2, d1=4, d2=2)
        with pytest.raises(DomainError, match="embedding rows are not all finite"):
            tn.cl_tau_batch(tn.init_cl_tempnet(cfg, seed=0), out)

    def test_shape_errors_name_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            de.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
        assert err.value.lhs == (2, 3) and err.value.rhs == (3, 2)
        with pytest.raises(ShapeError):
            de.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        with pytest.raises(ShapeError):
            de.add_rowvec(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))
        with pytest.raises(ShapeError):
            de.scale_rows(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))

    def test_embedding_and_gather_validate_indices(self):
        with pytest.raises(DomainError):
            de.embedding_lookup(Tensor(np.zeros((4, 2))), [0, 4])
        with pytest.raises(DomainError):
            de.gather_rows(Tensor(np.zeros((2, 3))), [0, 3])


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        grads = grad_of(lambda: de.sum(x))
        np.testing.assert_array_equal(grads[x], np.ones(5))

    def test_logsumexp_gradient_is_softmax(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(1, 8)), requires_grad=True)
        grads = grad_of(lambda: de.logsumexp(x, axis=1))
        z = np.exp(x.data - x.data.max())
        np.testing.assert_allclose(grads[x], z / z.sum(), rtol=1e-13)

    def test_non_scalar_root_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = de.mul(x, 2.0)
        with pytest.raises(DomainError):
            backward(y, tape)

    def test_untouched_leaf_gets_zeros(self):
        # a zero contribution is stored; a leaf on a branch that never reaches
        # the root is absent (a zero gradient), and so is every intermediate
        x, z, dead = (Tensor(np.ones(3), requires_grad=True) for _ in range(3))
        with Tape() as tape:
            branch = de.sum(de.mul(z, 0.0))
            de.sum(dead)
            out = de.add(de.sum(x), branch)
        grads = backward(out, tape)
        np.testing.assert_array_equal(grads[z], np.zeros(3))
        assert set(grads) == {x, z}

    def test_reused_leaf_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        grads = grad_of(lambda: de.sum(de.add(de.mul(x, x), x)))
        np.testing.assert_allclose(grads[x], [2.0 * 3.0 + 1.0])

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.normal(size=(7, 5)), requires_grad=True)
        x = Tensor(rng.normal(size=(9, 5)))

        def run():
            with Tape() as tape:
                out = de.mean(de.relu(de.matmul(x, de.transpose(w))))
            return backward(out, tape)[w]

        a, b = run(), run()
        assert (a == b).all()

    def test_gradients_mapping_api(self):
        x = Tensor(np.ones(2), requires_grad=True)
        grads = grad_of(lambda: de.sum(x))
        assert type(grads) is dict
        assert x in grads and len(grads) == 1
        with pytest.raises(KeyError):
            grads[Tensor(np.ones(2), requires_grad=True)]
        # a first contribution is stored as a copy: transpose hands back a
        # strided view (of the root's own seed, for a 1x1 root), and the
        # stored gradient is C-contiguous and owns its memory
        w = Tensor(np.ones((2, 3)), requires_grad=True)
        gw = grad_of(lambda: de.sum(de.transpose(w)))[w]
        assert gw.flags.c_contiguous and gw.flags.owndata
        u = Tensor(np.ones((1, 1)), requires_grad=True)
        assert grad_of(lambda: de.transpose(u))[u].flags.owndata


class TestStopGradient:
    def test_forward_identity(self):
        x = Tensor([1.0, -2.0])
        np.testing.assert_array_equal(stop_gradient(x).data, x.data)

    def test_detached_branch(self):
        # d/dx [ sg(x) . x ] = x, not 2x
        x = Tensor([1.5, -0.5, 2.0], requires_grad=True)
        grads = grad_of(lambda: de.sum(de.mul(stop_gradient(x), x)))
        np.testing.assert_allclose(grads[x], x.data)

    def test_loss_only_through_stop_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        with Tape() as tape:
            out = de.add(de.sum(de.mul(stop_gradient(x), stop_gradient(x))), de.sum(y))
        grads = backward(out, tape)
        assert x not in grads  # no gradient path at all
        np.testing.assert_array_equal(grads[y], np.ones(2))


class TestFiniteDiffCheck:
    def test_half_squared_norm(self):
        # unit-scale input keeps the central-difference cancellation noise
        # (~eps_machine * f / eps) well under the 1e-9 bar
        x = Tensor(np.linspace(-0.5, 0.5, 11))
        err = finite_diff_check(lambda t: de.mul(0.5, de.sum(de.mul(t, t))), x)
        assert err <= 1e-9

    def test_needs_scalar_function(self):
        with pytest.raises(DomainError):
            finite_diff_check(lambda t: de.mul(t, 2.0), Tensor(np.ones(3)))

    def test_nan_gradient_fails(self):
        # a NaN coordinate must not be dropped by the maximum over coordinates
        err = finite_diff_check(lambda t: de.sum(de.mul(t, float("nan"))), Tensor(np.ones(3)))
        assert np.isnan(err) and not err <= 1e-5

    def test_central_difference_is_the_numeric_gradient_and_restores_x(self):
        x = Tensor(np.array([[0.5, -1.0], [2.0, 0.25]]))
        before = x.data.copy()
        grad = de.central_difference(lambda t: float((t.data**3).sum()), x, eps=1e-5)
        np.testing.assert_allclose(grad, 3.0 * before**2, rtol=1e-9)
        assert x.data.tobytes() == before.tobytes()

    def test_eps_domain(self):
        with pytest.raises(DomainError):
            finite_diff_check(lambda t: de.sum(t), Tensor(np.ones(2)), eps=0.0)

    @pytest.mark.parametrize(
        "name,fn,shape",
        [
            ("relu", lambda t: de.sum(de.relu(t)), (33,)),
            ("relu_long", lambda t: de.sum(de.relu(t)), (4096,)),
            ("logistic", lambda t: de.sum(de.logistic(t)), (17,)),
            ("neg", lambda t: de.sum(de.mul(de.neg(t), t)), (9,)),
            ("sum_rows", lambda t: de.sum(de.mul(de.sum(t, axis=1), 3.0)), (3, 4)),
            ("reciprocal", lambda t: de.sum(de.reciprocal(de.add(de.mul(t, t), 1.0))), (7,)),
            ("softmax", lambda t: de.sum(de.mul(de.softmax(t), de.softmax(t))), (8,)),
            ("logsumexp_all", lambda t: de.sum(de.logsumexp(t, axis=1)), (1, 4096)),
            ("l2_normalize", lambda t: de.sum(de.mul(de.l2_normalize(t), Tensor(np.arange(6.0)))), (6,)),
            ("mean", lambda t: de.mean(de.mul(t, t)), (12,)),
        ],
    )
    def test_unary_primitives(self, name, fn, shape):
        rng = np.random.default_rng(hash(name) % 2**32)
        x = Tensor(rng.normal(size=shape))
        # keep relu inputs away from the kink where FD is one-sided
        if name.startswith("relu"):
            x.data[np.abs(x.data) < 1e-3] += 0.01
        assert finite_diff_check(fn, x) <= 1e-5, name

    def test_matrix_primitives(self):
        rng = np.random.default_rng(4)
        w = Tensor(rng.normal(size=(5, 7)))
        x = Tensor(rng.normal(size=(9, 7)))
        v = Tensor(rng.normal(size=5))
        s = Tensor(rng.normal(size=9))

        base = lambda m: de.matmul(x, de.transpose(m))
        assert finite_diff_check(lambda t: de.sum(base(t)), w) <= 1e-6
        assert finite_diff_check(lambda t: de.sum(de.matmul(t, de.transpose(w))), x) <= 1e-6
        assert finite_diff_check(lambda t: de.sum(de.add_rowvec(base(w), t)), v) <= 1e-6
        assert finite_diff_check(lambda t: de.sum(de.mul_rowvec(base(w), t)), v) <= 1e-6
        assert finite_diff_check(lambda t: de.sum(de.scale_rows(base(w), t)), s) <= 1e-6
        assert (
            finite_diff_check(
                lambda t: de.sum(de.softmax(de.scale_rows(base(w), t), axis=-1)), s
            )
            <= 1e-5
        )
        assert finite_diff_check(lambda t: de.sum(de.logsumexp(base(t), axis=1)), w) <= 1e-5
        assert finite_diff_check(lambda t: de.sum(de.l2_normalize(base(t), axis=0)), w) <= 1e-5

    def test_gather_and_embedding(self):
        rng = np.random.default_rng(5)
        table = Tensor(rng.normal(size=(6, 4)))
        ids = [0, 0, 5, 2]
        err = finite_diff_check(
            lambda t: de.sum(de.mul(de.embedding_lookup(t, ids), de.embedding_lookup(t, ids))),
            table,
        )
        assert err <= 1e-5

        x = Tensor(rng.normal(size=(5, 3)))
        idx = [2, 0, 1, 1, 2]
        assert finite_diff_check(lambda t: de.sum(de.gather_rows(t, idx)), x) <= 1e-9

    def test_colvec(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.normal(size=(4, 3)))
        v = Tensor(rng.normal(size=4))
        assert finite_diff_check(lambda t: de.sum(de.mul(de.add_colvec(x, t), 2.0)), v) <= 1e-9

    def test_duplicate_embedding_ids_accumulate(self):
        table = Tensor(np.zeros((3, 2)), requires_grad=True)
        grads = grad_of(lambda: de.sum(de.embedding_lookup(table, [0, 0, 2])))
        np.testing.assert_array_equal(grads[table], [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])

    def test_concat_backward(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        grads = grad_of(lambda: de.sum(de.mul(de.concat([a, b]), Tensor(np.arange(5.0)))))
        np.testing.assert_array_equal(grads[a], [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(grads[b], [3.0, 4.0])

    def test_composite_mlp_chain(self):
        rng = np.random.default_rng(6)
        w1 = Tensor(rng.normal(size=(8, 5)) * 0.7)
        b1 = Tensor(rng.normal(size=8))
        w2 = Tensor(rng.normal(size=(1, 8)) * 0.7)
        x = Tensor(rng.normal(size=(4, 5)))

        def net(wa, ba, wb, inp):
            hidden = de.relu(de.affine(inp, wa, ba))
            return de.mean(de.matmul(hidden, de.transpose(wb)))

        assert finite_diff_check(lambda t: net(t, b1, w2, x), w1) <= 1e-5
        assert finite_diff_check(lambda t: net(w1, t, w2, x), b1) <= 1e-5
        assert finite_diff_check(lambda t: net(w1, b1, t, x), w2) <= 1e-5
        assert finite_diff_check(lambda t: net(w1, b1, w2, t), x) <= 1e-5


class TestStackedPrimitives:
    """3-D matmul operands, 3-D transpose and reshape."""

    def weighted(self, rng, f, x):
        weights = Tensor(rng.normal(size=f(x).shape))
        return lambda t: de.sum(de.mul(f(t), weights))

    def test_stacked_matmul_matches_per_slice_products(self):
        rng = np.random.default_rng(20)
        a = rng.normal(size=(3, 4, 5))
        b = rng.normal(size=(3, 5, 2))
        w = rng.normal(size=(5, 2))
        pairwise = de.matmul(Tensor(a), Tensor(b)).data
        shared = de.matmul(Tensor(a), Tensor(w)).data
        for i in range(3):
            np.testing.assert_allclose(pairwise[i], a[i] @ b[i], rtol=1e-14, atol=1e-14)
            np.testing.assert_allclose(shared[i], a[i] @ w, rtol=1e-14, atol=1e-14)

    def test_stacked_matmul_gradients_both_shapes(self):
        rng = np.random.default_rng(21)
        a = Tensor(rng.normal(size=(3, 4, 5)))
        b = Tensor(rng.normal(size=(3, 5, 2)))
        w = Tensor(rng.normal(size=(5, 2)))
        assert finite_diff_check(self.weighted(rng, lambda t: de.matmul(t, b), a), a) <= 1e-6
        assert finite_diff_check(self.weighted(rng, lambda t: de.matmul(a, t), b), b) <= 1e-6
        assert finite_diff_check(self.weighted(rng, lambda t: de.matmul(t, w), a), a) <= 1e-6
        assert finite_diff_check(self.weighted(rng, lambda t: de.matmul(a, t), w), w) <= 1e-6

    def test_stacked_matmul_shape_errors(self):
        a = Tensor(np.zeros((3, 4, 5)))
        with pytest.raises(ShapeError):
            de.matmul(a, Tensor(np.zeros((2, 5, 2))))
        with pytest.raises(ShapeError):
            de.matmul(a, Tensor(np.zeros((3, 4, 2))))
        with pytest.raises(ShapeError):
            de.matmul(a, Tensor(np.zeros(5)))

    def test_transpose_swaps_last_two_axes(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        np.testing.assert_array_equal(de.transpose(x).data, np.swapaxes(x.data, 1, 2))
        assert finite_diff_check(self.weighted(rng, de.transpose, x), x) <= 1e-9
        with pytest.raises(ShapeError):
            de.transpose(Tensor(np.zeros((2, 2, 2, 2))))

    def test_reshape_round_trip_and_gradient(self):
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(6, 4)))
        stacked = de.reshape(x, (2, 3, 4))
        np.testing.assert_array_equal(stacked.data[1, 2], x.data[5])
        np.testing.assert_array_equal(de.reshape(stacked, (6, 4)).data, x.data)
        assert finite_diff_check(self.weighted(rng, lambda t: de.reshape(t, (2, 3, 4)), x), x) <= 1e-9
        with pytest.raises(ShapeError):
            de.reshape(x, (5, 5))
        with pytest.raises(ShapeError):
            de.reshape(x, (-1, -24))

    def test_shared_matmul_on_stack_matches_flat_rows(self):
        # one shared projection applied to a stack equals applying it to the
        # flat rows, values and gradients alike
        rng = np.random.default_rng(24)
        x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        coef = Tensor(rng.normal(size=(6, 3)))
        flat = grad_of(lambda: de.sum(de.mul(de.matmul(x, w), coef)))
        stacked = grad_of(
            lambda: de.sum(de.mul(de.reshape(de.matmul(de.reshape(x, (2, 3, 4)), w), (6, 3)), coef))
        )
        np.testing.assert_allclose(stacked[w], flat[w], rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(stacked[x], flat[x], rtol=1e-13, atol=1e-14)
