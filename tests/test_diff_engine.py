import zlib

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


def lse_rows(x: Tensor) -> Tensor:
    """The row logsumexp: robust_rows at tau = 1 and c = 0."""
    return de.robust_rows(x, Tensor(np.ones(x.shape[0])), 0.0)


def head_tau(u: Tensor, w3=None, phi=0.7, b=0.3, rho=1.3, tau0=0.01, tau_max=2.0) -> Tensor:
    """The temperatures of tempnet_head on u, with plain values made tensors."""
    w3 = Tensor(np.linspace(-1.0, 1.5, u.shape[-1])) if w3 is None else w3
    phi, b = (t if isinstance(t, Tensor) else Tensor(np.asarray(t)) for t in (phi, b))
    return de.tempnet_head(u, w3, phi, b, rho, tau0, tau_max)[1]


# prototypical logits held fixed while a finite-difference check moves phi
PROTO = Tensor(np.linspace(-2.0, 3.0, 35).reshape(7, 5))
# one scalar per row of a (3, 4) input, held fixed while the check moves x
COL = Tensor(np.array([0.5, -1.5, 2.0]))


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

    def test_relu_bits_match_the_where_form_on_special_values(self):
        rng = np.random.default_rng(32)
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                   np.inf, -np.inf, np.nan, -np.nan]
        payload_nan = np.array([0x7FF8000000000123], dtype=np.uint64).view(np.float64)
        data = np.concatenate([rng.normal(size=64), special, payload_nan]).reshape(5, 15)
        g = rng.normal(size=data.shape)
        x = Tensor(data, requires_grad=True)
        with Tape() as tape:
            out = de.relu(x)
            total = de.sum(de.mul(out, Tensor(g)))
        mask = ~(data <= 0.0)
        assert out.data.tobytes() == np.where(mask, data, 0.0).tobytes()
        assert backward(total, tape)[x].tobytes() == (g * mask).tobytes()

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

    def test_sub_colvec_bits_match_adding_the_negation(self):
        # IEEE subtraction is addition of the negation, so the node keeps the
        # bytes of x + (-v) and of its gradient -(g summed over each row),
        # save the sign of a NaN in v, which x + (-v) flips
        rng = np.random.default_rng(34)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan]
        xd, g = rng.normal(size=(7, 6)), rng.normal(size=(7, 6))
        xd[0, :5], xd[3, 1:], g[1, :5], g[4, 1:] = special, special, special, special
        vd = np.array([0.5, -0.0, 0.0, np.inf, -np.inf, -1.25, np.nan])
        x, v = Tensor(xd, requires_grad=True), Tensor(vd, requires_grad=True)
        with np.errstate(invalid="ignore"), Tape() as tape:
            out = de.sub_colvec(x, v)
            total = de.sum(de.mul(out, Tensor(g)))
        with np.errstate(invalid="ignore"):
            grads = backward(total, tape)
            ref, gv = xd + (-vd)[:, None], -(g.sum(axis=1))
        assert out.data[:-1].tobytes() == ref[:-1].tobytes()
        assert np.isnan(out.data[-1]).all()
        assert grads[x].tobytes() == g.tobytes()
        assert grads[v].tobytes() == gv.tobytes()
        with pytest.raises(ShapeError) as err:
            de.sub_colvec(x, Tensor(np.zeros(6)))
        assert err.value.op == "sub_colvec" and str(err.value).startswith("sub_colvec:")

    def test_l2_normalize_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            de.l2_normalize(Tensor([0.0, 0.0]))

    def test_non_finite_output_has_its_own_type(self):
        # an op passes a non-finite value on, and so does its gradient; the
        # callers' checks raise NonFiniteError (temperature networks, eval
        # passes) or TrainingDivergedError (loss value, flat gradients)
        x = Tensor([[1.0, np.nan, 2.0], [0.5, 2.0, -1.0]], requires_grad=True)
        with Tape() as tape:
            out = head_tau(x)
            total = de.sum(out)
        assert np.isnan(out.data[0]) and np.isfinite(out.data[1])
        grad = backward(total, tape)[x]
        assert np.isnan(grad[0]).all() and np.isfinite(grad[1]).all()
        assert issubclass(NonFiniteError, DomainError)

    def test_logistic_extremes_stay_finite(self):
        # a constant row pools to exactly 0, so s = -b, and on [0, 1] the
        # output map is the logistic itself
        out = [head_tau(Tensor(np.ones((1, 2))), b=-s, rho=1.0, tau0=0.0, tau_max=1.0).data[0]
               for s in (-1000.0, 0.0, 1000.0)]
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = de.softmax(Tensor(rng.normal(size=(5, 9)) * 50.0)).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(5), atol=1e-12)

    def test_logsumexp_matches_shifted_reference(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 6)) * 300.0
        got = lse_rows(Tensor(x)).data
        m = x.max(axis=1, keepdims=True)
        ref = (m + np.log(np.exp(x - m).sum(axis=1, keepdims=True))).squeeze(1)
        np.testing.assert_allclose(got, ref, rtol=1e-14)

    def test_exp_overflow_is_a_domain_error(self):
        # an op passes an overflow on as inf (here an infinite tau_max); the
        # check of whoever consumes it raises NonFiniteError, a DomainError
        # (here a temperature network)
        out = de.reshape(head_tau(Tensor(np.ones((2, 3))), tau_max=np.inf), (1, 2))
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
            de.affine(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))
        with pytest.raises(ShapeError):
            de.robust_rows(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)), 0.0)
        with pytest.raises(ShapeError):
            head_tau(Tensor(np.zeros((2, 3))), w3=Tensor(np.zeros(2)))

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
        grads = grad_of(lambda: lse_rows(x))
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

    def test_reused_scalar_leaf_accumulates(self):
        # the first contribution the walk meets is x * 1.0's; for a 0-d x that
        # product is a numpy scalar, which cannot be summed into in place
        x = Tensor(np.asarray(3.0), requires_grad=True)
        grads = grad_of(lambda: de.sum(de.add(de.mul(x, x), de.mul(x, 1.0))))
        assert grads[x].shape == () and float(grads[x]) == 2.0 * 3.0 + 1.0

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
        # a gradient is stored as is only when fresh and C-contiguous; the
        # embedding backward hands back a view of its bincount
        table = Tensor(np.asfortranarray(np.ones((3, 2))), requires_grad=True)
        gt = grad_of(lambda: de.sum(de.embedding_lookup(table, [0, 2])))[table]
        assert gt.flags.c_contiguous and gt.flags.owndata

    @pytest.mark.parametrize("into", [False, True])
    def test_gradient_handed_to_two_inputs_is_not_summed_into(self, into):
        # add hands its g to both inputs; p takes a second contribution (from
        # z) before q's node reads its gradient, so sharing one array would
        # give dx = 30 instead of 2 * (1 + 5) + 3 * 1 = 15
        x = Tensor(np.ones(2), requires_grad=True)
        with Tape() as tape:
            p, q = de.mul(x, 2.0), de.mul(x, 3.0)
            z = de.mul(p, 5.0)
            out = de.sum(de.add(de.add(p, q), z))
        dest = {x: np.empty(2)} if into else None
        np.testing.assert_array_equal(backward(out, tape, into=dest)[x], [15.0, 15.0])


class TestBackwardInto:
    """backward(root, tape, into): leaf gradients written into given arrays."""

    def test_untouched_leaf_reads_exact_zeros(self):
        x, dead = (Tensor(np.ones(3), requires_grad=True) for _ in range(2))
        dest = {x: np.full(3, np.nan), dead: np.full(3, np.nan)}
        with Tape() as tape:
            de.sum(dead)
            out = de.sum(x)
        grads = backward(out, tape, into=dest)
        assert dest[dead].tobytes() == np.zeros(3).tobytes()
        assert dest[x].tobytes() == np.ones(3).tobytes()
        assert grads[x] is dest[x] and dead not in grads

    def test_lone_negative_zero_keeps_its_sign(self):
        # written, not added to a zeroed buffer: 0.0 + -0.0 would be +0.0
        x = Tensor(np.ones(2), requires_grad=True)
        dest = {x: np.full(2, np.nan)}
        with Tape() as tape:
            out = de.sum(de.mul(x, Tensor([-0.0, 2.0])))
        backward(out, tape, into=dest)
        assert np.signbit(dest[x][0]) and dest[x][0] == 0.0
        assert dest[x][1] == 2.0

    def test_contributions_sum_in_record_order(self):
        # three uses of x; the reverse walk adds the last-recorded first, so
        # the sum is (c + b) + a, which here differs from (a + b) + c
        a, b, c = 1.0, 1e16, -1e16
        x = Tensor(np.ones(1), requires_grad=True)
        with Tape() as tape:
            terms = [de.sum(de.mul(x, coef)) for coef in (a, b, c)]
            out = de.add(de.add(terms[0], terms[1]), terms[2])
        dest = {x: np.full(1, np.nan)}
        grads = backward(out, tape, into=dest)
        assert dest[x][0] == (c + b) + a == 1.0 and (a + b) + c == 0.0
        assert backward(out, tape)[x].tobytes() == dest[x].tobytes() == grads[x].tobytes()

    def test_wrong_shape_destination_is_a_shape_error(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape() as tape:
            out = de.sum(x)
        with pytest.raises(ShapeError) as err:
            backward(out, tape, into={x: np.zeros(6)})
        assert err.value.op == "backward"
        assert err.value.lhs == (2, 3) and err.value.rhs == (6,)

    def test_second_pass_is_identical_and_leaves_forward_arrays_alone(self):
        # a gradient stored without a copy is never an op's saved array: two
        # passes over one tape give the same bytes, and no forward value moves
        rng = np.random.default_rng(41)
        w = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=5), requires_grad=True)
        x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        w3, phi, hb = (Tensor(v, requires_grad=True) for v in (rng.normal(size=5), 0.6, 0.2))
        with Tape() as tape:
            h = de.relu(de.affine(x, w, b))
            y = de.add(h, de.reshape(de.transpose(de.reshape(h, (5, 6))), (6, 5)))
            z = de.concat([de.mul(y, y), de.add(de.mul(y, y), 1.0)])
            s, tau = de.tempnet_head(z, w3, phi, hb, 1.5, 0.1, 2.0)
            out = de.add(de.mean(tau), de.sum(de.softmax(y)))
        forward = [(output.data, output.data.tobytes()) for output, _, _ in tape._nodes]
        forward.append((s.data, s.data.tobytes()))
        leaves = [t.data.tobytes() for t in (w, b, x, w3, phi, hb)]
        runs = []
        for into in (None, {w: np.empty((5, 4)), b: np.empty(5), phi: np.empty(())}, None):
            grads = backward(out, tape, into=into)
            runs.append([grads[t].tobytes() for t in (w, b, x, w3, phi, hb)])
        assert runs[0] == runs[1] == runs[2]
        assert all(data.tobytes() == before for data, before in forward)
        assert [t.data.tobytes() for t in (w, b, x, w3, phi, hb)] == leaves


class TestAffine:
    """affine is one node with the composed matmul / transpose / bias bits,
    with or without the bias and on a matrix or a stacked x."""

    def operands(self, requires_grad=True):
        rng = np.random.default_rng(42)
        return tuple(
            Tensor(rng.normal(size=shape), requires_grad=requires_grad)
            for shape in ((16, 32), (24, 32), (24,))
        )

    def test_records_one_node(self):
        x, w, b = self.operands()
        with Tape() as tape:
            de.affine(x, w, b)
        assert len(tape) == 1

    def test_bits_match_the_composed_numpy_reference(self):
        for form in ("bias", "bias-free", "stacked"):
            for w_grad in (True, False):
                self.check_bits(form, w_grad)

    def check_bits(self, form, w_grad):
        x, w, b = self.operands()
        w.requires_grad = w_grad
        if form == "stacked":
            x = Tensor(x.data.reshape(2, 8, 32), requires_grad=True)
        bias = (b,) if form == "bias" else ()
        coef = np.random.default_rng(43).normal(size=x.shape[:-1] + (24,))
        with Tape() as tape:
            y = de.affine(x, w, *bias)
            out = de.sum(de.mul(y, Tensor(coef)))
        grads = backward(out, tape)
        # the numpy of matmul(x, transpose(w)) (+ b): transpose's C-contiguous
        # output, then matmul's forward and its gradient rules
        wt = w.data.T.copy()
        ref = x.data @ wt
        assert y.data.tobytes() == (ref + b.data if bias else ref).tobytes()
        assert grads[x].tobytes() == (coef @ wt.swapaxes(-1, -2)).tobytes()
        if form == "stacked":
            gwt = x.data.reshape(-1, 32).T @ coef.reshape(-1, 24)
        else:
            gwt = x.data.swapaxes(-1, -2) @ coef
        if w_grad:
            assert grads[w].tobytes() == gwt.swapaxes(-1, -2).copy().tobytes()
        assert (w in grads) == w_grad
        if bias:
            assert grads[b].tobytes() == coef.sum(axis=0).tobytes()
        assert (b in grads) == bool(bias)

    @pytest.mark.parametrize(
        "shapes",
        [((16, 31), (24, 32), (24,)), ((16, 32), (24, 32), (23,)),
         ((2, 16, 32), (24, 32), (24,)), ((16, 32), (24, 32), (1, 24)),
         ((16, 32), (2, 24, 32)), ((2, 16, 32), (2, 24, 32))],
    )
    def test_shape_error_names_affine(self, shapes):
        with pytest.raises(ShapeError) as err:
            de.affine(*(Tensor(np.zeros(shape)) for shape in shapes))
        assert err.value.op == "affine" and str(err.value).startswith("affine:")

    @pytest.mark.parametrize("x_shape", [(5, 7), (2, 3, 7)], ids=["matrix", "stacked"])
    def test_bias_free_gradients_match_finite_differences(self, x_shape):
        rng = np.random.default_rng(45)
        x, w = Tensor(rng.normal(size=x_shape)), Tensor(rng.normal(size=(4, 7)))
        coef = Tensor(rng.normal(size=x_shape[:-1] + (4,)))
        assert finite_diff_check(lambda t: de.sum(de.mul(de.affine(t, w), coef)), x) <= 1e-6
        assert finite_diff_check(lambda t: de.sum(de.mul(de.affine(x, t), coef)), w) <= 1e-6

    def test_bias_gradient_matches_finite_differences(self):
        x, w, b = self.operands(requires_grad=False)
        coef = Tensor(np.random.default_rng(44).normal(size=(16, 24)))
        assert finite_diff_check(lambda t: de.sum(de.mul(de.affine(x, w, t), coef)), b) <= 1e-6


def composed_chain(x, taus, c, g):
    """The numpy operations of reciprocal -> row scaling -> logsumexp -> + c
    -> * taus, forward and then backward from the output gradient g, in the
    order the tape summed them: (output, d/dx, d/dtaus)."""
    r = 1.0 / taus
    z = x * r[:, None]
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    se = e.sum(axis=1, keepdims=True)
    lse, soft = np.squeeze(m + np.log(se), axis=1), e / se
    a = lse + c
    gz = np.expand_dims(g * taus, 1) * soft
    dtaus = g * a
    dtaus += -(gz * x).sum(axis=1) * r * r
    return taus * a, gz * r[:, None], dtaus


class TestRobustRows:
    """Row i: taus_i * (logsumexp(x_i / taus_i) + c) as one tape node."""

    def operands(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(16, 29)) * 3.0
        taus = rng.uniform(0.05, 2.0, size=16)
        return x, taus, rng.normal(size=16)

    @pytest.mark.parametrize("taus_grad", [True, False], ids=["taus_grad", "taus_fixed"])
    def test_bytes_match_the_composed_chain(self, taus_grad):
        xd, td, g = self.operands(46)
        c = 0.7 - np.log(29)
        x, taus = Tensor(xd, requires_grad=True), Tensor(td, requires_grad=taus_grad)
        with Tape() as tape:
            out = de.robust_rows(x, taus, c)
            total = de.sum(de.mul(out, Tensor(g)))
        grads = backward(total, tape)
        ref_out, ref_dx, ref_dtaus = composed_chain(xd, td, c, g)
        assert out.data.tobytes() == ref_out.tobytes()
        assert grads[x].tobytes() == ref_dx.tobytes()
        if taus_grad:
            assert grads[taus].tobytes() == ref_dtaus.tobytes()
        else:
            assert taus not in grads and len(tape) == 3

    def test_gradients_match_finite_differences(self):
        xd, td, g = self.operands(47)
        coef = Tensor(g)
        x, taus = Tensor(xd), Tensor(td)
        f_x = lambda t: de.sum(de.mul(de.robust_rows(t, taus, 0.4), coef))
        f_taus = lambda t: de.sum(de.mul(de.robust_rows(x, t, 0.4), coef))
        assert finite_diff_check(f_x, x) <= 1e-6
        assert finite_diff_check(f_taus, taus) <= 1e-6

    @pytest.mark.parametrize("shapes", [((4, 3), (3,)), ((4,), (4,)), ((4, 3), (4, 1)),
                                        ((2, 4, 3), (2,))])
    def test_shape_error_names_robust_rows(self, shapes):
        with pytest.raises(ShapeError) as err:
            de.robust_rows(*(Tensor(np.ones(shape)) for shape in shapes), 0.0)
        assert err.value.op == "robust_rows" and str(err.value).startswith("robust_rows:")


def composed_head(u, w3, phi, b, rho, tau0, tau_max, g):
    """The numpy operations of reciprocal(phi) -> mul(u, .) -> softmax ->
    sub(., 1/d2) -> mul_rowvec(., w3) -> mul(., u) -> sum(axis=1) -> sub(., b)
    -> mul(., 1/rho) -> logistic -> mul(., span) -> add(., tau0), forward and
    then each node's backward in reverse record order from the output
    gradient g, summed as the tape summed them: (s, tau, du, dw3, dphi, db)."""
    r = 1.0 / phi
    z = u * np.asarray(r)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    centered = attn - np.asarray(1.0 / u.shape[1])
    weighted = centered * w3
    s = (np.asarray((weighted * u).sum(axis=1)) - b) * np.asarray(1.0 / rho)
    t = np.exp(-np.abs(s))
    sig = np.where(s >= 0, 1.0 / (1.0 + t), t / (1.0 + t))
    tau = sig * np.asarray(tau_max - tau0) + np.asarray(tau0)
    g_sig = g * np.asarray(tau_max - tau0)
    g_s = g_sig * sig * (1.0 - sig)
    g_pooled = g_s * np.asarray(1.0 / rho)
    db = np.asarray((-g_pooled).sum(), dtype=np.float64).reshape(())
    g_prod = np.repeat(np.expand_dims(g_pooled, 1), u.shape[1], axis=1)
    g_weighted, du = g_prod * u, g_prod * weighted
    g_attn, dw3 = g_weighted * w3, (g_weighted * centered).sum(axis=0)
    g_z = (g_attn - (g_attn * attn).sum(axis=-1, keepdims=True)) * attn
    du += g_z * np.asarray(r)
    g_r = np.asarray((g_z * u).sum(), dtype=np.float64).reshape(())
    return s, tau, du, dw3, np.asarray(-g_r * r * r), db


class TestTempnetHead:
    """The TempNet's pooling and output map as one tape node."""

    RHO, TAU0, TAU_MAX = 1.3, 0.01, 2.0

    def operands(self, seed):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(16, 8)) * 2.0
        return u, rng.normal(size=8), np.asarray(0.45), np.asarray(0.3), rng.normal(size=16)

    @pytest.mark.parametrize("w3_grad", [True, False], ids=["w3_grad", "w3_fixed"])
    @pytest.mark.parametrize("phi_grad", [True, False], ids=["phi_grad", "phi_fixed"])
    @pytest.mark.parametrize("b_grad", [True, False], ids=["b_grad", "b_fixed"])
    def test_bytes_match_the_composed_chain(self, w3_grad, phi_grad, b_grad):
        ud, wd, phid, bd, g = self.operands(48)
        u = Tensor(ud, requires_grad=True)
        w3, phi, b = (Tensor(v, requires_grad=flag)
                      for v, flag in ((wd, w3_grad), (phid, phi_grad), (bd, b_grad)))
        with Tape() as tape:
            s, tau = de.tempnet_head(u, w3, phi, b, self.RHO, self.TAU0, self.TAU_MAX)
            total = de.sum(de.mul(tau, Tensor(g)))
        grads = backward(total, tape)
        ref = composed_head(ud, wd, phid, bd, self.RHO, self.TAU0, self.TAU_MAX, g)
        assert s.data.tobytes() == ref[0].tobytes() and not s.requires_grad
        assert tau.data.tobytes() == ref[1].tobytes() and len(tape) == 3
        assert grads[u].tobytes() == ref[2].tobytes()
        for t, flag, want in ((w3, w3_grad, ref[3]), (phi, phi_grad, ref[4]), (b, b_grad, ref[5])):
            if flag:
                assert grads[t].shape == want.shape and grads[t].tobytes() == want.tobytes()
            else:
                assert t not in grads

    def test_gradients_match_finite_differences(self):
        ud, wd, phid, bd, g = self.operands(49)
        args = {"u": Tensor(ud), "w3": Tensor(wd), "phi": Tensor(phid), "b": Tensor(bd)}
        coef = Tensor(g)
        for name, x in args.items():
            def f(t, name=name):
                ops = {**args, name: t}
                tau = de.tempnet_head(*ops.values(), self.RHO, self.TAU0, self.TAU_MAX)[1]
                return de.sum(de.mul(tau, coef))

            assert finite_diff_check(f, x) <= 1e-6, name

    @pytest.mark.parametrize("shapes", [((4, 3), (4,), (), ()), ((4,), (4,), (), ()),
                                        ((2, 4, 3), (3,), (), ()), ((4, 3), (3, 1), (), ()),
                                        ((4, 3), (3,), (1,), ()), ((4, 3), (3,), (), (4,))])
    def test_shape_error_names_tempnet_head(self, shapes):
        u, w3, phi, b = (Tensor(np.ones(shape)) for shape in shapes)
        with pytest.raises(ShapeError) as err:
            de.tempnet_head(u, w3, phi, b, 1.0, 0.01, 2.0)
        assert err.value.op == "tempnet_head" and str(err.value).startswith("tempnet_head:")

    @pytest.mark.parametrize("phi", [0.0, -0.5])
    def test_non_positive_phi_is_a_domain_error(self, phi):
        # an optimizer step can drive phi there; the message names it
        with pytest.raises(DomainError, match=rf"^phi must be positive, got {phi}$"):
            head_tau(Tensor(np.ones((2, 3))), phi=phi)


# one call per recording op, on the shapes the models give it: cl-train's
# batch of 16 through 32-wide towers, an (n, m, d) attention stack, and the
# TempNet's scalar phi
_RNG = np.random.default_rng(45)
_M, _V, _S = (Tensor(_RNG.normal(size=shape)) for shape in ((16, 32), (32,), (16,)))
_PHI = Tensor(np.asarray(0.7))
_STACK = Tensor(_RNG.normal(size=(2, 8, 4)))
RECORDING_OPS = {
    "add": lambda: de.add(_M, _M),
    "sub": lambda: de.sub(_M, 1.0),
    "mul": lambda: de.mul(_M, _M),
    "relu": lambda: de.relu(_M),
    "matmul": lambda: de.matmul(_STACK, de.transpose(_STACK)),
    "transpose": lambda: de.transpose(_M),
    "reshape": lambda: de.reshape(_M, (2, 8, 32)),
    "affine": lambda: de.affine(_M, Tensor(_RNG.normal(size=(24, 32))), Tensor(np.zeros(24))),
    "sub_colvec": lambda: de.sub_colvec(_M, _S),
    "robust_rows": lambda: de.robust_rows(_M, Tensor(np.abs(_S.data) + 0.1), 0.5),
    "tempnet_head": lambda: head_tau(Tensor(_M.data[:, :8]), Tensor(_V.data[:8]), _PHI, 0.0),
    "softmax": lambda: de.softmax(_M),
    "l2_normalize": lambda: de.l2_normalize(_M, axis=-1),
    "mean": lambda: de.mean(_M),
    "sum": lambda: de.sum(_M),
    "concat": lambda: de.concat([_M, _M]),
    "gather_rows": lambda: de.gather_rows(_M, np.arange(16) % 32),
    "embedding_lookup": lambda: de.embedding_lookup(_M, [0, 3, 3]),
}


def test_every_recording_op_is_listed():
    not_ops = {"Tensor", "Tape", "backward", "stop_gradient", "finite_diff_check",
               "central_difference"}
    assert set(RECORDING_OPS) == set(de.__all__) - not_ops


@pytest.mark.parametrize("name", sorted(RECORDING_OPS))
def test_op_output_is_a_float64_ndarray(name):
    # the tape wraps each op's result without coercing it
    out = RECORDING_OPS[name]()
    assert type(out.data) is np.ndarray and out.data.dtype == np.float64
    assert out.requires_grad is False


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
            ("tempnet_head", lambda t: de.sum(head_tau(t)), (17, 4)),
            ("sub_colvec_x", lambda t: de.sum(de.mul(de.sub_colvec(t, COL), t)), (3, 4)),
            ("sum", lambda t: de.mul(de.sum(t), 3.0), (3, 4)),
            ("tempnet_head_phi", lambda t: de.sum(head_tau(PROTO, phi=de.add(de.mul(t, t), 0.5))), ()),
            ("softmax", lambda t: de.sum(de.mul(de.softmax(t), de.softmax(t))), (8,)),
            ("logsumexp_all", lambda t: de.sum(lse_rows(t)), (1, 4096)),
            ("l2_normalize", lambda t: de.sum(de.mul(de.l2_normalize(t), Tensor(np.arange(6.0)))), (6,)),
            ("mean", lambda t: de.mean(de.mul(t, t)), (12,)),
            ("sub_colvec_v", lambda t: de.sum(de.mul(de.sub_colvec(PROTO, t), PROTO)), (7,)),
        ],
    )
    def test_unary_primitives(self, name, fn, shape):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
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
        s = Tensor(np.abs(rng.normal(size=9)) + 0.5)

        base = lambda m: de.matmul(x, de.transpose(m))
        assert finite_diff_check(lambda t: de.sum(base(t)), w) <= 1e-6
        assert finite_diff_check(lambda t: de.sum(de.matmul(t, de.transpose(w))), x) <= 1e-6
        assert finite_diff_check(lambda t: de.sum(de.affine(x, w, t)), v) <= 1e-6
        assert finite_diff_check(lambda t: de.sum(head_tau(base(w), w3=t)), v) <= 1e-6
        assert finite_diff_check(lambda t: de.sum(de.robust_rows(base(w), t, 0.3)), s) <= 1e-6
        assert finite_diff_check(lambda t: de.sum(de.robust_rows(base(t), s, 0.3)), w) <= 1e-5
        assert finite_diff_check(lambda t: de.sum(lse_rows(base(t))), w) <= 1e-5
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
        assert finite_diff_check(lambda t: de.sum(de.mul(de.sub_colvec(x, t), 2.0)), v) <= 1e-9

    @pytest.mark.parametrize("ids", [
        [4, 0, 4, 4, 2, 0, 4, 1],  # repeated, as token ids
        np.tile(np.arange(3), 3),  # tiled, as positions
        [5, 3, 0, 1],  # unique, as kept rows
    ], ids=["repeated", "tiled", "unique"])
    def test_embedding_gradient_bits_match_add_at(self, ids):
        rng = np.random.default_rng(33)
        table = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        ids = np.asarray(ids)
        g = rng.normal(size=(ids.size, 4))
        g[0, 0], g[-1, 1], g[1, 2] = -0.0, np.nan, -0.0
        with Tape() as tape:
            total = de.sum(de.mul(de.embedding_lookup(table, ids), Tensor(g)))
        ref = np.zeros(table.shape)
        np.add.at(ref, ids, g)
        assert backward(total, tape)[table].tobytes() == ref.tobytes()

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
    """3-D matmul operands, a weight shared by a stack through affine, 3-D
    transpose and reshape."""

    def weighted(self, rng, f, x):
        weights = Tensor(rng.normal(size=f(x).shape))
        return lambda t: de.sum(de.mul(f(t), weights))

    def test_stacked_matmul_matches_per_slice_products(self):
        rng = np.random.default_rng(20)
        a = rng.normal(size=(3, 4, 5))
        b = rng.normal(size=(3, 5, 2))
        w = rng.normal(size=(5, 2))
        pairwise = de.matmul(Tensor(a), Tensor(b)).data
        shared = de.affine(Tensor(a), Tensor(w.T)).data
        for i in range(3):
            np.testing.assert_allclose(pairwise[i], a[i] @ b[i], rtol=1e-14, atol=1e-14)
            np.testing.assert_allclose(shared[i], a[i] @ w, rtol=1e-14, atol=1e-14)

    def test_stacked_matmul_gradients_both_shapes(self):
        rng = np.random.default_rng(21)
        a = Tensor(rng.normal(size=(3, 4, 5)))
        b = Tensor(rng.normal(size=(3, 5, 2)))
        w = Tensor(rng.normal(size=(5, 2)).T)
        assert finite_diff_check(self.weighted(rng, lambda t: de.matmul(t, b), a), a) <= 1e-6
        assert finite_diff_check(self.weighted(rng, lambda t: de.matmul(a, t), b), b) <= 1e-6
        assert finite_diff_check(self.weighted(rng, lambda t: de.affine(t, w), a), a) <= 1e-6
        assert finite_diff_check(self.weighted(rng, lambda t: de.affine(a, t), w), w) <= 1e-6

    def test_stacked_matmul_shape_errors(self):
        a = Tensor(np.zeros((3, 4, 5)))
        with pytest.raises(ShapeError):
            de.matmul(a, Tensor(np.zeros((2, 5, 2))))
        with pytest.raises(ShapeError):
            de.matmul(a, Tensor(np.zeros((3, 4, 2))))
        with pytest.raises(ShapeError):
            de.matmul(a, Tensor(np.zeros(5)))
        with pytest.raises(ShapeError):  # a shared weight goes through affine
            de.matmul(a, Tensor(np.zeros((5, 2))))

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
        w = Tensor(rng.normal(size=(4, 3)).T, requires_grad=True)
        coef = Tensor(rng.normal(size=(6, 3)))
        flat = grad_of(lambda: de.sum(de.mul(de.affine(x, w), coef)))
        stacked = grad_of(
            lambda: de.sum(de.mul(de.reshape(de.affine(de.reshape(x, (2, 3, 4)), w), (6, 3)), coef))
        )
        np.testing.assert_allclose(stacked[w], flat[w], rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(stacked[x], flat[x], rtol=1e-13, atol=1e-14)
