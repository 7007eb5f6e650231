import csv
import dataclasses
import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drotemp import diff_engine as de
from drotemp import models as md
from drotemp import tempnet as tn
from drotemp.diff_engine import Tape, Tensor, backward, finite_diff_check
from drotemp.dro_core import DroConfig, LogitSet, robust_loss
from drotemp.errors import DegenerateBatchError, DomainError, NonFiniteError
from drotemp.tau_solver import SolverOptions, newton_solve

ASSETS = pathlib.Path(__file__).parent.parent / "src" / "drotemp" / "assets"


def small_lm(seed=0, randomize_out=True, **cfg_kw):
    base = dict(vocab_size=7, d_model=6, d_ff=8, n_blocks=1, context_len=6)
    base.update(cfg_kw)
    cfg = md.LmConfig(**base)
    params = md.init_lm(cfg, seed=seed)
    if randomize_out:
        rng = np.random.default_rng(seed + 1000)
        params.out_proj.data[:] = rng.normal(size=params.out_proj.shape) * 0.4
    return params


def small_batch(rng, cfg, n_seqs=2):
    seqs = []
    for _ in range(n_seqs):
        m = int(rng.integers(3, cfg.context_len + 1))
        seqs.append(rng.integers(cfg.vocab_size, size=m))
    return md.TokenBatch(seqs)


def llm_tnet(vocab, seed=0, rho=1.0, tau0=1e-3, tau_max=2.0):
    cfg = tn.TempNetConfig(
        variant=tn.Variant.LLM_LOGITS,
        d0=vocab,
        d1=max(2, vocab // 2),
        d2=2,
        tau0=tau0,
        tau_max=tau_max,
        rho=rho,
    )
    return tn.init_llm_tempnet(cfg, seed=seed)


def const_tau_llm_tnet(vocab, tau, rho):
    """A logit-variant net emitting exactly tau: s = 0, symmetric range."""
    net = llm_tnet(vocab, rho=rho, tau0=tau - 0.5, tau_max=tau + 0.5)
    net.w3.data[:] = 0.0
    return net


def cl_tnet(dim, seed=0, rho=4.0, tau0=1e-3, tau_max=0.05):
    cfg = tn.TempNetConfig(
        variant=tn.Variant.CL_EMBEDDING, d0=dim, d1=8, d2=4, tau0=tau0, tau_max=tau_max, rho=rho
    )
    return tn.init_cl_tempnet(cfg, seed=seed)


def const_tau_cl_tnet(dim, tau, rho):
    net = cl_tnet(dim, rho=rho, tau0=tau / 2.0, tau_max=3.0 * tau / 2.0)
    net.w3.data[:] = 0.0
    return net


def small_towers(seed=0, img_dim=5, txt_dim=5, hidden=6, out_dim=4):
    return md.init_two_tower(
        md.TwoTowerConfig(img_dim=img_dim, txt_dim=txt_dim, hidden=hidden, out_dim=out_dim), seed
    )


def identity_towers(d):
    """Towers that pass one-hot inputs through unchanged."""
    cfg = md.TwoTowerConfig(img_dim=d, txt_dim=d, hidden=d, out_dim=d)
    towers = md.init_two_tower(cfg, seed=0)
    for tower in (towers.image, towers.text):
        tower.W1.data[:] = np.eye(d)
        tower.b1.data[:] = 0.0
        tower.W2.data[:] = np.eye(d)
        tower.b2.data[:] = 0.0
    return towers


def sequence_logits(lm, batch):
    """Per-sequence logit matrices (m_i x K), one forward per sequence."""
    return [md._stacked_logits(lm, seq[None, :]).data for seq in batch.sequences]


def lm_taus(lm, net, batch):
    """The temperatures robust_softmax_loss draws from net, sequence-major."""
    logits, _ = md._target_logits(lm, batch.sequences)
    return tn.llm_tau_batch(net, logits).data


def cl_taus(towers, net_img, net_txt, batch):
    """The per-side temperatures robust_gcl_loss draws from its networks."""
    taus1 = tn.cl_tau_batch(net_img, md.encode_image(towers, Tensor(batch.x))).data
    taus2 = tn.cl_tau_batch(net_txt, md.encode_text(towers, Tensor(batch.t))).data
    return taus1, taus2


def grads_of(build):
    with Tape() as tape:
        loss = build()
    return backward(loss, tape)


class TestLmValidation:
    def test_config_bounds(self):
        with pytest.raises(DomainError):
            md.LmConfig(vocab_size=1)
        with pytest.raises(DomainError):
            md.LmConfig(vocab_size=4, d_model=129)
        with pytest.raises(DomainError):
            md.LmConfig(vocab_size=4, n_blocks=3)
        with pytest.raises(DomainError):
            md.LmConfig(vocab_size=4, context_len=65)

    def test_token_batch_rules(self):
        with pytest.raises(DomainError):
            md.TokenBatch([[1]])
        with pytest.raises(DomainError):
            md.TokenBatch([[0.5, 1.5]])
        with pytest.raises(DomainError):
            md.TokenBatch([[-1, 2]])
        with pytest.raises(DomainError):
            md.TokenBatch([])
        batch = md.TokenBatch([[0, 1, 2], [3, 4]])
        assert batch.n_targets == 3

    @pytest.mark.parametrize("block, message", [
        (np.zeros((3, 1), dtype=np.int64), "every sequence needs at least 2 tokens"),
        (np.zeros((3, 4)), "token ids must be integers"),
        (np.array([[0, 1, 2], [3, -1, 4]]), "token ids must be nonnegative"),
        (np.zeros((0, 4), dtype=np.int64), "batch must contain at least one sequence"),
    ])
    def test_block_refusals_match_the_per_sequence_messages(self, block, message):
        for source in (block, list(block)):
            with pytest.raises(DomainError) as info:
                md.TokenBatch(source)
            assert str(info.value) == message

    def test_block_rows_match_per_sequence_rows(self):
        block = np.arange(12, dtype=np.int32).reshape(3, 4)
        for batch in (md.TokenBatch(block), md.TokenBatch([block[:2], block[2]])):
            assert len(batch.sequences) == 3
            for row, seq in zip(block, batch.sequences):
                assert seq.dtype == np.int64 and not seq.flags.writeable
                np.testing.assert_array_equal(seq, row)
        assert block.flags.writeable

    def test_out_of_range_ids_rejected_at_forward(self):
        lm = small_lm()
        with pytest.raises(DomainError):
            md.baseline_ce_loss(lm, md.TokenBatch([[0, 99]]))

    @pytest.mark.parametrize("seqs, message", [
        ([[0, 1, 2], [0, 7, 1], [7, 0, 1]], "token id 7 out of range for vocab 7"),
        ([[0, 1], [0] * 7, [1] * 7], "sequence length 7 exceeds context 6"),
    ])
    def test_forward_refusal_names_the_first_bad_sequence(self, seqs, message):
        lm = small_lm()
        with pytest.raises(DomainError) as info:
            md.baseline_ce_loss(lm, md.TokenBatch(seqs))
        assert str(info.value) == message

    def test_overlong_sequence_rejected(self):
        lm = small_lm()
        with pytest.raises(DomainError):
            md.baseline_ce_loss(lm, md.TokenBatch([np.zeros(7, dtype=int)]))


class TestLmForward:
    def test_zero_out_projection_means_zero_logits(self):
        lm = small_lm(randomize_out=False)
        rng = np.random.default_rng(0)
        for rows in sequence_logits(lm, small_batch(rng, lm.cfg, 3)):
            assert not rows.any()

    def test_shapes(self):
        lm = small_lm()
        rows = sequence_logits(lm, md.TokenBatch([[0, 1, 2, 3], [4, 5]]))
        assert [r.shape for r in rows] == [(4, 7), (2, 7)]

    def test_permuting_batch_permutes_outputs(self):
        lm = small_lm(seed=3)
        a = md.TokenBatch([[0, 1, 2], [3, 4, 5, 6], [1, 1]])
        b = md.TokenBatch([[3, 4, 5, 6], [1, 1], [0, 1, 2]])
        out_a = sequence_logits(lm, a)
        out_b = sequence_logits(lm, b)
        for i, j in ((0, 2), (1, 0), (2, 1)):
            np.testing.assert_array_equal(out_a[i], out_b[j])

    def test_causality_bit_exact(self):
        lm = small_lm(seed=4, n_blocks=2)
        base = np.array([1, 2, 3, 4, 5, 6])
        rows = sequence_logits(lm, md.TokenBatch([base]))[0]
        for j in range(1, 6):
            mutated = base.copy()
            mutated[j] = (mutated[j] + 3) % lm.cfg.vocab_size
            rows_m = sequence_logits(lm, md.TokenBatch([mutated]))[0]
            np.testing.assert_array_equal(rows[:j], rows_m[:j])
            assert not np.array_equal(rows[j:], rows_m[j:])

    def test_gradient_of_one_position_logit_sum(self):
        lm = small_lm(seed=5)
        ids = np.array([0, 3, 1, 2])

        def one_position_sum(probe, field):
            trial = dataclasses.replace(lm, **{field: probe})
            full = md._stacked_logits(trial, ids[None, :])
            return de.sum(de.embedding_lookup(full, np.array([2])))

        for field in ("emb", "pos", "out_proj"):
            err = finite_diff_check(lambda t: one_position_sum(t, field), getattr(lm, field))
            assert err <= 1e-5

        blk = lm.blocks[0]
        for name in ("Wq", "Wk", "Wv", "Wo", "Wf1", "bf1", "Wf2", "bf2"):
            def block_sum(probe):
                trial_blk = dataclasses.replace(blk, **{name: probe})
                trial = dataclasses.replace(lm, blocks=(trial_blk,))
                full = md._stacked_logits(trial, ids[None, :])
                return de.sum(de.embedding_lookup(full, np.array([2])))

            assert finite_diff_check(block_sum, getattr(blk, name)) <= 1e-5


def reference_logits(lm, ids):
    """Plain numpy forward of one sequence, independent of the tape."""
    d = lm.cfg.d_model
    m = len(ids)

    def rms(x):
        return x / np.sqrt((x * x).sum(axis=-1, keepdims=True)) * math.sqrt(d)

    x = lm.emb.data[ids] + lm.pos.data[:m]
    future = np.triu(np.ones((m, m), dtype=bool), k=1)
    for blk in lm.blocks:
        xn = rms(x)
        q, k, v = xn @ blk.Wq.data.T, xn @ blk.Wk.data.T, xn @ blk.Wv.data.T
        scores = np.where(future, -np.inf, q @ k.T / math.sqrt(d))
        attn = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn /= attn.sum(axis=1, keepdims=True)
        x = x + (attn @ v) @ blk.Wo.data.T
        h = np.maximum(rms(x) @ blk.Wf1.data.T + blk.bf1.data, 0.0)
        x = x + h @ blk.Wf2.data.T + blk.bf2.data
    return rms(x) @ lm.out_proj.data.T


def max_rel_err(got, ref):
    return float(np.abs(got - ref).max() / max(1.0, np.abs(ref).max()))


class TestStackedForward:
    def test_stacked_block_matches_per_sequence_reference(self):
        lm = small_lm(seed=20, n_blocks=2)
        rng = np.random.default_rng(200)
        ids = rng.integers(7, size=(4, 6))
        rows = md._stacked_logits(lm, ids).data
        assert rows.shape == (24, 7)
        for i in range(4):
            assert max_rel_err(rows[6 * i : 6 * i + 6], reference_logits(lm, ids[i])) <= 1e-12

    def test_mixed_lengths_with_runt_match_reference(self):
        lm = small_lm(seed=21, n_blocks=2)
        rng = np.random.default_rng(210)
        lengths = [6, 6, 6, 4, 4, 2, 6, 2]
        seqs = [rng.integers(7, size=m) for m in lengths]
        logits, targets = md._target_logits(lm, seqs)
        ref = np.concatenate([reference_logits(lm, seq)[:-1] for seq in seqs])
        assert logits.shape == (sum(lengths) - len(lengths), 7)
        assert max_rel_err(logits.data, ref) <= 1e-12
        np.testing.assert_array_equal(targets, np.concatenate([seq[1:] for seq in seqs]))

    def test_causality_within_a_stack(self):
        lm = small_lm(seed=22, n_blocks=2)
        rng = np.random.default_rng(220)
        ids = rng.integers(7, size=(3, 6))
        rows = md._stacked_logits(lm, ids).data.reshape(3, 6, 7)
        for j in range(1, 6):
            mutated = ids.copy()
            mutated[1, j] = (mutated[1, j] + 3) % 7
            rows_m = md._stacked_logits(lm, mutated).data.reshape(3, 6, 7)
            np.testing.assert_array_equal(rows[1, :j], rows_m[1, :j])
            assert not np.array_equal(rows[1, j:], rows_m[1, j:])

    def test_sequences_in_a_stack_are_independent(self):
        lm = small_lm(seed=23, n_blocks=2)
        rng = np.random.default_rng(230)
        ids = rng.integers(7, size=(3, 6))
        rows = md._stacked_logits(lm, ids).data.reshape(3, 6, 7)
        edited = ids.copy()
        edited[0] = (edited[0] + 1) % 7
        rows_e = md._stacked_logits(lm, edited).data.reshape(3, 6, 7)
        assert not np.array_equal(rows[0], rows_e[0])
        np.testing.assert_array_equal(rows[1:], rows_e[1:])

    def test_tape_size_does_not_grow_with_batch(self):
        lm = small_lm(seed=24)
        net = llm_tnet(7, seed=24)
        rng = np.random.default_rng(240)
        sizes = []
        for n in (1, 2, 8):
            batch = md.TokenBatch(rng.integers(7, size=(n, 6)))
            with Tape() as tape:
                md.robust_softmax_loss(lm, net, batch, DroConfig())
            sizes.append(len(tape))
        assert sizes[0] == sizes[1] == sizes[2]

    def test_eval_pass_spans_chunks_in_sequence_order(self):
        lm = small_lm(seed=25)
        net = llm_tnet(7, seed=25)
        rng = np.random.default_rng(250)
        lengths = [6] * 21 + [3] * 12 + [2]
        batch = md.TokenBatch([rng.integers(7, size=m) for m in lengths])
        assert len(lengths) > 2 * md.EVAL_BLOCK
        ppl, taus = md.lm_eval_pass(lm, net, batch)
        per_seq = [
            tn.llm_tau_batch(net, Tensor(reference_logits(lm, seq)[:-1])).data
            for seq in batch.sequences
        ]
        np.testing.assert_allclose(taus, np.concatenate(per_seq), rtol=1e-12, atol=0.0)
        assert ppl == md.perplexity(lm, net, batch)
        fixed_ppl, fixed_taus = md.lm_eval_pass(lm, 0.8, batch)
        assert fixed_taus.shape == (batch.n_targets,) and (fixed_taus == 0.8).all()
        assert fixed_ppl == md.perplexity(lm, 0.8, batch)

    @pytest.mark.parametrize("source", ["tempnet", 0.8])
    def test_eval_pass_bits_do_not_depend_on_block_size(self, monkeypatch, source):
        lm = small_lm(seed=26)
        net = llm_tnet(7, seed=26) if source == "tempnet" else source
        rng = np.random.default_rng(260)
        lengths = [6] * 37 + [4] * 5 + [2]
        batch = md.TokenBatch([rng.integers(7, size=m) for m in lengths])
        results = []
        for block in (1, 8, md.EVAL_BLOCK):
            monkeypatch.setattr(md, "EVAL_BLOCK", block)
            results.append(md.lm_eval_pass(lm, net, batch))
        for ppl, taus in results[1:]:
            assert ppl == results[0][0]
            np.testing.assert_array_equal(taus, results[0][1])


class TestRobustSoftmaxLoss:
    def test_needs_matching_tempnet(self):
        lm = small_lm()
        batch = md.TokenBatch([[0, 1, 2]])
        with pytest.raises(DomainError):
            md.robust_softmax_loss(lm, cl_tnet(7), batch, DroConfig())
        with pytest.raises(DomainError):
            md.robust_softmax_loss(lm, llm_tnet(9), batch, DroConfig())

    def test_array_source_matches_tempnet_source(self):
        lm = small_lm(seed=14)
        net = llm_tnet(7, seed=14)
        batch = md.TokenBatch([[0, 1, 2, 3], [4, 5, 6]])
        cfg = DroConfig(rho=0.7)
        at_net = md.robust_softmax_loss(lm, net, batch, cfg).item()
        assert md.robust_softmax_loss(lm, lm_taus(lm, net, batch), batch, cfg).item() == at_net

    def test_array_source_checked(self):
        lm = small_lm()
        batch = md.TokenBatch([[0, 1, 2], [3, 4]])  # 3 target positions
        for bad in ([1.0, 1.0], np.ones(4), [1.0, 0.0, 1.0], [1.0, np.nan, 1.0], np.ones((3, 1))):
            with pytest.raises(DomainError, match="3 positive temperatures"):
                md.robust_softmax_loss(lm, bad, batch, DroConfig())

    def test_zero_logits_contribute_rho_times_tau(self):
        lm = small_lm(randomize_out=False)
        net = llm_tnet(7, rho=2.5)
        cfg = DroConfig(rho=2.5)
        batch = md.TokenBatch([[0, 1, 2, 3]])
        loss = md.robust_softmax_loss(lm, net, batch, cfg)
        tau_z = tn.llm_tau_batch(net, Tensor(np.zeros((1, 7)))).data[0]
        assert loss.item() == pytest.approx(2.5 * tau_z, rel=1e-12)

    def test_bridge_to_cross_entropy(self):
        lm = small_lm(seed=6)
        rng = np.random.default_rng(60)
        batch = small_batch(rng, lm.cfg, 3)
        net = const_tau_llm_tnet(7, tau=1.0, rho=1.0)
        robust = md.robust_softmax_loss(lm, net, batch, DroConfig(rho=0.0))
        ce = md.baseline_ce_loss(lm, batch)
        assert robust.item() == pytest.approx(ce.item() - math.log(7), abs=1e-10)

    def test_tempnet_parameter_gradients(self):
        lm = small_lm(seed=7)
        net = llm_tnet(7, seed=7)
        batch = md.TokenBatch([[0, 1, 2, 3], [4, 5, 6]])
        cfg = DroConfig(rho=0.8)
        for field in ("W1", "b1", "W2", "w3", "phi", "b"):
            def f(probe):
                trial = dataclasses.replace(net, **{field: probe})
                return md.robust_softmax_loss(lm, trial, batch, cfg)

            assert finite_diff_check(f, getattr(net, field)) <= 1e-5

    def test_lm_parameter_gradients_against_frozen_tau_probe(self):
        # FD must probe the loss with temperatures held at the recorded
        # values: the network input is detached, so the analytic gradient is
        # the partial derivative at fixed tau by construction
        lm = small_lm(seed=8)
        net = llm_tnet(7, seed=8)
        batch = md.TokenBatch([[0, 1, 2, 3], [2, 2, 5]])
        cfg = DroConfig(rho=1.2)
        taus = lm_taus(lm, net, batch)

        grads = grads_of(lambda: md.robust_softmax_loss(lm, net, batch, cfg))

        def frozen(field, probe):
            trial = dataclasses.replace(lm, **{field: probe})
            return md.robust_softmax_loss(trial, taus, batch, cfg)

        for field in ("emb", "pos", "out_proj"):
            assert finite_diff_check(lambda t: frozen(field, t), getattr(lm, field)) <= 1e-5
            frozen_grads = grads_of(lambda: frozen(field, getattr(lm, field)))
            np.testing.assert_allclose(
                grads[getattr(lm, field)],
                frozen_grads[getattr(lm, field)],
                rtol=1e-10,
                atol=1e-12,
            )

    def test_block_parameter_gradients(self):
        lm = small_lm(seed=9)
        net = llm_tnet(7, seed=9)
        batch = md.TokenBatch([[0, 1, 2, 3]])
        cfg = DroConfig(rho=1.0)
        taus = lm_taus(lm, net, batch)
        blk = lm.blocks[0]
        for name in ("Wq", "Wo", "Wf1", "bf2"):
            def f(probe):
                trial_blk = dataclasses.replace(blk, **{name: probe})
                trial = dataclasses.replace(lm, blocks=(trial_blk,))
                return md.robust_softmax_loss(trial, taus, batch, cfg)

            assert finite_diff_check(f, getattr(blk, name)) <= 1e-5

    def test_batch_loss_dominates_solved_minima(self):
        lm = small_lm(seed=10)
        net = llm_tnet(7, seed=10, rho=1.5)
        cfg = DroConfig(rho=1.5)
        rng = np.random.default_rng(100)
        batch = small_batch(rng, lm.cfg, 4)
        loss = md.robust_softmax_loss(lm, net, batch, cfg)
        minima = []
        for seq, rows in zip(batch.sequences, sequence_logits(lm, batch)):
            for j in range(len(seq) - 1):
                ls = LogitSet(float(rows[j, seq[j + 1]]), rows[j])
                sol = newton_solve(ls, cfg, SolverOptions(tol=1e-10))
                minima.append(robust_loss(ls, sol.tau, cfg))
        assert np.mean(minima) <= loss.item() + 1e-9


class TestBaselineCe:
    def test_uniform_model_gives_log_k(self):
        lm = small_lm(randomize_out=False)
        rng = np.random.default_rng(1)
        loss = md.baseline_ce_loss(lm, small_batch(rng, lm.cfg, 3))
        assert loss.item() == pytest.approx(math.log(7), rel=1e-15)

    def test_near_one_hot_is_near_zero(self):
        cfg = md.LmConfig(vocab_size=2, d_model=1, d_ff=1, n_blocks=1, context_len=2)
        lm = md.init_lm(cfg, seed=0)
        for blk in lm.blocks:
            for name in ("Wq", "Wk", "Wv", "Wo", "Wf1", "bf1", "Wf2", "bf2"):
                getattr(blk, name).data[:] = 0.0
        lm.emb.data[:] = 1.0
        lm.pos.data[:] = 0.5
        lm.out_proj.data[:] = [[30.0], [0.0]]  # logits [30, 0] at every position
        loss = md.baseline_ce_loss(lm, md.TokenBatch([[0, 0]]))
        assert loss.item() <= 1e-12

    def test_matches_independent_nll(self):
        lm = small_lm(seed=11)
        rng = np.random.default_rng(110)
        batch = small_batch(rng, lm.cfg, 3)
        loss = md.baseline_ce_loss(lm, batch)
        nlls = []
        for seq, rows in zip(batch.sequences, sequence_logits(lm, batch)):
            for j in range(len(seq) - 1):
                probs = np.exp(rows[j] - rows[j].max())
                probs /= probs.sum()
                nlls.append(-np.log(probs[seq[j + 1]]))
        assert loss.item() == pytest.approx(np.mean(nlls), abs=1e-10)


class TestTwoTowerBasics:
    def test_pair_batch_validation(self):
        with pytest.raises(DegenerateBatchError):
            md.PairBatch(np.ones((1, 3)), np.ones((1, 3)))
        with pytest.raises(DomainError):
            md.PairBatch(np.ones((3, 2)), np.ones((2, 2)))
        with pytest.raises(DomainError):
            md.PairBatch(np.full((2, 2), np.nan), np.ones((2, 2)))

    def test_encoders_emit_unit_rows(self):
        towers = small_towers(seed=2)
        rng = np.random.default_rng(2)
        out = md.encode_image(towers, Tensor(rng.normal(size=(6, 5)))).data
        np.testing.assert_allclose((out * out).sum(axis=1), 1.0, atol=1e-12)

    def test_feature_width_checked(self):
        towers = small_towers()
        with pytest.raises(DomainError):
            md.encode_text(towers, Tensor(np.ones((3, 4))))


class TestRobustGcl:
    def test_identical_embeddings_give_rho_tau_sum(self):
        towers = small_towers(seed=3)
        x = np.tile(np.arange(1.0, 6.0), (4, 1))
        batch = md.PairBatch(x, x + 0.5)
        net1 = cl_tnet(4, seed=1)
        net2 = cl_tnet(4, seed=2)
        cfg = DroConfig(tau_max=0.05, rho=3.0)
        loss = md.robust_gcl_loss(towers, net1, net2, batch, cfg)
        taus1, taus2 = cl_taus(towers, net1, net2, batch)
        assert np.ptp(taus1) == 0.0 and np.ptp(taus2) == 0.0
        assert loss.item() == pytest.approx(3.0 * (taus1[0] + taus2[0]), rel=1e-12)

    def test_bridge_to_baseline_gcl(self):
        towers = small_towers(seed=4)
        rng = np.random.default_rng(40)
        batch = md.PairBatch(rng.normal(size=(5, 5)), rng.normal(size=(5, 5)))
        net1 = const_tau_cl_tnet(4, tau=0.3, rho=1.0)
        net2 = const_tau_cl_tnet(4, tau=0.3, rho=1.0)
        taus1, taus2 = cl_taus(towers, net1, net2, batch)
        tau = taus1[0]
        assert np.ptp(taus1) == 0.0 and taus2[0] == tau
        robust = md.robust_gcl_loss(towers, net1, net2, batch, DroConfig(rho=0.0))
        base = md.baseline_gcl_loss(towers, tau, tau, batch)
        assert robust.item() == pytest.approx(base.item() - 2 * tau * math.log(4), abs=1e-10)

    def test_sources_mix_per_side(self):
        towers = small_towers(seed=13)
        rng = np.random.default_rng(130)
        batch = md.PairBatch(rng.normal(size=(4, 5)), rng.normal(size=(4, 5)))
        net1, net2 = cl_tnet(4, seed=13), cl_tnet(4, seed=14)
        cfg = DroConfig(tau_max=0.05, rho=2.0)
        taus1, taus2 = cl_taus(towers, net1, net2, batch)
        both = md.robust_gcl_loss(towers, net1, net2, batch, cfg).item()
        assert md.robust_gcl_loss(towers, taus1, net2, batch, cfg).item() == both
        assert md.robust_gcl_loss(towers, net1, taus2, batch, cfg).item() == both
        assert md.robust_gcl_loss(towers, taus1, taus2, batch, cfg).item() == both
        with pytest.raises(DomainError, match="text side needs 4 positive"):
            md.robust_gcl_loss(towers, net1, -taus2, batch, cfg)
        with pytest.raises(DomainError, match="image side needs a ClEmbedding"):
            md.robust_gcl_loss(towers, llm_tnet(4), net2, batch, cfg)

    def test_tempnet_gradients(self):
        towers = small_towers(seed=5)
        rng = np.random.default_rng(50)
        batch = md.PairBatch(rng.normal(size=(4, 5)), rng.normal(size=(4, 5)))
        net1 = cl_tnet(4, seed=3)
        net2 = cl_tnet(4, seed=4)
        cfg = DroConfig(tau_max=0.05, rho=2.0)
        for field in ("W1", "b1", "W2", "w3", "phi", "b"):
            def f(probe):
                trial = dataclasses.replace(net1, **{field: probe})
                return md.robust_gcl_loss(towers, trial, net2, batch, cfg)

            assert finite_diff_check(f, getattr(net1, field)) <= 1e-5

    def test_tower_gradients_against_frozen_tau_probe(self):
        towers = small_towers(seed=6)
        rng = np.random.default_rng(61)
        batch = md.PairBatch(rng.normal(size=(4, 5)), rng.normal(size=(4, 5)))
        net1, net2 = cl_tnet(4, seed=5), cl_tnet(4, seed=6)
        cfg = DroConfig(tau_max=0.05, rho=2.0)
        taus1, taus2 = cl_taus(towers, net1, net2, batch)

        grads = grads_of(lambda: md.robust_gcl_loss(towers, net1, net2, batch, cfg))

        for side_name in ("image", "text"):
            side = getattr(towers, side_name)
            for field in ("W1", "b1", "W2", "b2"):
                def frozen(probe):
                    trial_side = dataclasses.replace(side, **{field: probe})
                    trial = dataclasses.replace(towers, **{side_name: trial_side})
                    return md.robust_gcl_loss(trial, taus1, taus2, batch, cfg)

                assert finite_diff_check(frozen, getattr(side, field)) <= 1e-5
                frozen_grads = grads_of(lambda: frozen(getattr(side, field)))
                np.testing.assert_allclose(
                    grads[getattr(side, field)],
                    frozen_grads[getattr(side, field)],
                    rtol=1e-10,
                    atol=1e-12,
                )


class TestBaselineGcl:
    def test_identical_embeddings_value(self):
        towers = small_towers(seed=7)
        x = np.tile(np.linspace(0.3, 1.7, 5), (3, 1))
        batch = md.PairBatch(x, x)
        loss = md.baseline_gcl_loss(towers, 0.5, 0.5, batch)
        assert loss.item() == pytest.approx(2 * 0.5 * math.log(2), rel=1e-12)

    def test_two_orthogonal_pairs(self):
        towers = identity_towers(2)
        batch = md.PairBatch(np.eye(2), np.eye(2))
        loss = md.baseline_gcl_loss(towers, 1.0, 1.0, batch)
        assert loss.item() == pytest.approx(-2.0, abs=1e-12)

    def test_matches_direct_reimplementation(self):
        towers = small_towers(seed=8)
        rng = np.random.default_rng(80)
        batch = md.PairBatch(rng.normal(size=(5, 5)), rng.normal(size=(5, 5)))
        tau1, tau2 = 0.7, 0.4
        loss = md.baseline_gcl_loss(towers, tau1, tau2, batch)

        ei = md.encode_image(towers, Tensor(batch.x)).data
        et = md.encode_text(towers, Tensor(batch.t)).data
        sims = ei @ et.T
        total = 0.0
        for i in range(5):
            neg_t = [sims[i, j] for j in range(5) if j != i]
            neg_i = [sims[j, i] for j in range(5) if j != i]
            total += -tau1 * np.log(
                np.exp(sims[i, i] / tau1) / sum(np.exp(v / tau1) for v in neg_t)
            )
            total += -tau2 * np.log(
                np.exp(sims[i, i] / tau2) / sum(np.exp(v / tau2) for v in neg_i)
            )
        assert loss.item() == pytest.approx(total / 5, abs=1e-10)

    def test_positive_taus_required(self):
        towers = small_towers()
        batch = md.PairBatch(np.eye(2, 5), np.eye(2, 5))
        with pytest.raises(DomainError):
            md.baseline_gcl_loss(towers, 0.0, 1.0, batch)

    def test_tower_gradients(self):
        towers = small_towers(seed=9)
        rng = np.random.default_rng(90)
        batch = md.PairBatch(rng.normal(size=(4, 5)), rng.normal(size=(4, 5)))
        for field in ("W1", "W2", "b2"):
            def f(probe):
                trial_side = dataclasses.replace(towers.image, **{field: probe})
                trial = dataclasses.replace(towers, image=trial_side)
                return md.baseline_gcl_loss(trial, 0.5, 0.5, batch)

            assert finite_diff_check(f, getattr(towers.image, field)) <= 1e-5


def test_each_objective_ends_in_robust_rows_nodes():
    """One loss per training objective at the default shapes (the bundled
    corpus's vocabulary, the LmConfig defaults and 8 windows of 32 tokens;
    the TwoTowerConfig defaults on 16 pairs of 12 + 12 features; TempNets of
    widths 16 and 8) records one robust_rows node per LM loss and per CL
    direction, one tempnet_head node per TempNet call, and one transpose
    node, of the attention keys or of the masked similarities: a composed
    chain or a weight transpose back in any of them shows here."""
    vocab = md.build_vocab(md.load_corpus(ASSETS / "corpus.txt")).size
    lm = md.init_lm(md.LmConfig(vocab_size=vocab), seed=0)
    rng = np.random.default_rng(0)
    windows = md.sample_windows(rng.integers(vocab, size=400), 32, 8, rng)
    llm_net = tn.init_llm_tempnet(
        tn.TempNetConfig(variant=tn.Variant.LLM_LOGITS, d0=vocab, d1=16, d2=8), seed=1
    )
    towers = md.init_two_tower(md.TwoTowerConfig(img_dim=12, txt_dim=12), seed=0)
    pairs = md.gen_clustered_pairs(16, dim=12, n_clusters=4, noise=0.3, seed=2)
    cl_cfg = tn.TempNetConfig(variant=tn.Variant.CL_EMBEDDING, d0=16, d1=16, d2=8)
    cl_nets = [tn.init_cl_tempnet(cl_cfg, seed=s) for s in (3, 4)]
    losses = {
        "lm-robust": lambda: md.robust_softmax_loss(lm, llm_net, windows, DroConfig()),
        "lm-ce": lambda: md.baseline_ce_loss(lm, windows),
        "cl-robust": lambda: md.robust_gcl_loss(towers, *cl_nets, pairs, DroConfig()),
        "cl-fixed": lambda: md.baseline_gcl_loss(towers, 0.05, 0.05, pairs),
    }
    nodes = {}
    for name, loss in losses.items():
        with Tape() as tape:
            loss()
        nodes[name] = [fn.__qualname__.split(".")[0] for _, _, fn in tape._nodes]
    assert {name: len(ops) for name, ops in nodes.items()} == {
        "lm-robust": 36, "lm-ce": 32, "cl-robust": 28, "cl-fixed": 18}
    assert {name: ops.count("robust_rows") for name, ops in nodes.items()} == {
        "lm-robust": 1, "lm-ce": 1, "cl-robust": 2, "cl-fixed": 2}
    assert {name: ops.count("tempnet_head") for name, ops in nodes.items()} == {
        "lm-robust": 1, "lm-ce": 0, "cl-robust": 2, "cl-fixed": 0}
    assert {name: ops.count("transpose") for name, ops in nodes.items()} == {
        "lm-robust": 1, "lm-ce": 1, "cl-robust": 1, "cl-fixed": 1}


class TestPerplexity:
    def test_uniform_model_gives_vocab_size(self):
        lm = small_lm(randomize_out=False)
        batch = md.TokenBatch([[0, 1, 2, 3], [4, 5]])
        assert md.perplexity(lm, 2.7, batch) == pytest.approx(7.0, rel=1e-12)
        assert md.perplexity(lm, llm_tnet(7), batch) == pytest.approx(7.0, rel=1e-12)

    def test_large_tau_flattens_to_vocab_size(self):
        lm = small_lm(seed=12)
        rng = np.random.default_rng(120)
        batch = small_batch(rng, lm.cfg, 3)
        assert md.perplexity(lm, 1e8, batch) == pytest.approx(7.0, rel=1e-6)

    def test_matches_independent_script(self):
        lm = small_lm(seed=13)
        rng = np.random.default_rng(130)
        batch = small_batch(rng, lm.cfg, 4)
        tau = 0.7
        got = md.perplexity(lm, tau, batch)
        nll = []
        for seq, rows in zip(batch.sequences, sequence_logits(lm, batch)):
            for j in range(len(seq) - 1):
                probs = np.exp(rows[j] / tau - (rows[j] / tau).max())
                probs /= probs.sum()
                nll.append(-np.log(probs[seq[j + 1]]))
        assert got == pytest.approx(float(np.exp(np.mean(nll))), abs=1e-8)

    def test_domain_errors(self):
        lm = small_lm()
        with pytest.raises(DomainError):
            md.perplexity(lm, -1.0, md.TokenBatch([[0, 1]]))
        with pytest.raises(DomainError):
            md.perplexity(lm, cl_tnet(7), md.TokenBatch([[0, 1]]))

    def test_non_finite_weight_raises_instead_of_a_nan_perplexity(self):
        lm = small_lm(seed=14)
        lm.out_proj.data[0, 0] = np.nan
        batch = md.TokenBatch([[0, 1, 2, 3], [4, 5]])
        with pytest.raises(NonFiniteError, match="log-likelihood is nan"):
            md.lm_eval_pass(lm, 0.7, batch)
        with pytest.raises(NonFiniteError, match="logit rows are not all finite"):
            md.lm_eval_pass(lm, llm_tnet(7), batch)


def encoded(towers, batch):
    """The unit-norm image and text embeddings recall_at_k ranks."""
    return (
        md.encode_image(towers, Tensor(batch.x)).data,
        md.encode_text(towers, Tensor(batch.t)).data,
    )


class TestRecallAtK:
    def test_identity_structure_is_perfect(self):
        towers = identity_towers(4)
        batch = md.PairBatch(np.eye(4), np.eye(4))
        assert md.recall_at_k(*encoded(towers, batch), 1) == (1.0, 1.0)

    def test_recall_at_n_is_one(self):
        towers = small_towers(seed=10)
        rng = np.random.default_rng(101)
        batch = md.PairBatch(rng.normal(size=(6, 5)), rng.normal(size=(6, 5)))
        assert md.recall_at_k(*encoded(towers, batch), 6) == (1.0, 1.0)

    def test_matches_brute_force(self):
        towers = small_towers(seed=11)
        rng = np.random.default_rng(111)
        batch = md.PairBatch(rng.normal(size=(5, 5)), rng.normal(size=(5, 5)))
        # partly tied: 7 pairs whose rows repeat 3 unit vectors per side, so
        # equal similarities recur within a row but not everywhere
        units = rng.normal(size=(3, 4))
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        tied = (units[rng.integers(3, size=7)], units[::-1][rng.integers(3, size=7)])
        assert 1 < len(np.unique(tied[0] @ tied[1].T)) < 9
        cases = [(encoded(towers, batch), (1, 2, 3, 5)), (tied, (1, 2, 7))]
        for (e_img, e_txt), ks in cases:
            n = len(e_img)
            sims = e_img @ e_txt.T
            for k in ks:
                img_r, txt_r = md.recall_at_k(e_img, e_txt, k)
                img_hits = sum(
                    1
                    for i in range(n)
                    if sorted(range(n), key=lambda j: (-sims[j, i], j)).index(i) < k
                )
                txt_hits = sum(
                    1
                    for i in range(n)
                    if sorted(range(n), key=lambda j: (-sims[i, j], j)).index(i) < k
                )
                assert img_r == pytest.approx(img_hits / n)
                assert txt_r == pytest.approx(txt_hits / n)

    def test_ties_break_to_lower_index(self):
        towers = small_towers(seed=12)
        row = np.linspace(0.2, 1.0, 5)
        batch = md.PairBatch(np.tile(row, (3, 1)), np.tile(row + 0.3, (3, 1)))
        # every similarity ties, so only query 0 can win at k = 1
        assert md.recall_at_k(*encoded(towers, batch), 1) == (
            pytest.approx(1 / 3), pytest.approx(1 / 3)
        )

    def test_k_out_of_range(self):
        towers = small_towers()
        batch = md.PairBatch(np.eye(2, 5), np.ones((2, 5)))
        with pytest.raises(DomainError):
            md.recall_at_k(*encoded(towers, batch), 3)
        with pytest.raises(DomainError):
            md.recall_at_k(*encoded(towers, batch), 0)

    def test_nan_hidden_weight_reaches_the_embeddings_and_recall(self):
        # the ReLU passes a NaN pre-activation on instead of zeroing it
        towers = small_towers(seed=13)
        towers.image.W1.data[0, 0] = np.nan
        batch = md.PairBatch(np.eye(3, 5), np.ones((3, 5)))
        emb = md.encode_image(towers, Tensor(batch.x)).data
        assert not np.isfinite(emb).all()
        with pytest.raises(NonFiniteError):
            md.recall_at_k(*encoded(towers, batch), 1)

    def test_non_finite_weight_raises_instead_of_a_recall(self):
        towers = small_towers(seed=13)
        towers.image.W2.data[0, 0] = np.nan
        batch = md.PairBatch(np.eye(3, 5), np.ones((3, 5)))
        with pytest.raises(NonFiniteError, match="similarities are not all finite"):
            md.recall_at_k(*encoded(towers, batch), 1)


def utf32_code_points(text):
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)


def searchsorted_encode(chars, text):
    """Vocab.encode before its code-point table: the ids by binary search
    into the sorted characters, or the first character not among them."""
    table = np.append(utf32_code_points(chars), np.uint32(0xFFFFFFFF))
    codes = utf32_code_points(text)
    ids = np.searchsorted(table, codes)
    unknown = table[ids] != codes
    return text[int(unknown.argmax())] if unknown.any() else ids


def assert_vocab_matches_the_sorted_set(text, probe):
    """build_vocab(text) is sorted(set(text)), and its encode(probe) gives
    the binary search's int64 ids or refuses its first unknown character."""
    vocab = md.build_vocab(text)
    assert vocab.chars == "".join(sorted(set(text)))
    expected = searchsorted_encode(vocab.chars, probe)
    if isinstance(expected, str):
        with pytest.raises(DomainError) as info:
            vocab.encode(probe)
        assert str(info.value) == f"character {expected!r} not in vocabulary"
    else:
        ids = vocab.encode(probe)
        assert ids.dtype == np.int64 and ids.shape == expected.shape
        assert ids.tobytes() == expected.astype(np.int64).tobytes()


# any code point, lone surrogates included
_ANY_CHARACTER = st.characters() | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)


class TestVocabMatchesTheSortedSet:
    @pytest.mark.parametrize(
        "text",
        [
            "caf\u00e9 \U0001f600 \u00e9a",
            "\u6e29\u5ea6\u7f51\u7edc\u9047\u4e0a\u5927\u6a21\u578b",
            "a\x00b\x00",
            "x\ud800y",
            "z\U0010fffd",
        ],
        ids=["accents-emoji", "cjk", "nul", "lone-surrogate", "u10fffd"],
    )
    def test_texts(self, text):
        assert_vocab_matches_the_sorted_set(text, text)

    def test_bundled_corpus(self):
        corpus = md.load_corpus(ASSETS / "corpus.txt")
        assert_vocab_matches_the_sorted_set(corpus, corpus)

    @settings(max_examples=200, deadline=None)
    @given(st.text(_ANY_CHARACTER, min_size=1), st.text(_ANY_CHARACTER, max_size=4))
    def test_random_text(self, text, extra):
        assert_vocab_matches_the_sorted_set(text, text)
        assert_vocab_matches_the_sorted_set(text, extra + text)


class TestCorpusPlumbing:
    def test_vocab_round_trip(self):
        vocab = md.build_vocab("the cat.")
        assert vocab.size == len(set("the cat."))
        ids = vocab.encode("the cat.")
        assert "".join(vocab.chars[i] for i in ids) == "the cat."
        with pytest.raises(DomainError):
            vocab.encode("dog")

    def test_vocab_encode_matches_dict_lookup(self):
        def reference(vocab, text):
            index = {c: i for i, c in enumerate(vocab.chars)}
            return np.array([index[c] for c in text], dtype=np.int64)

        corpus = md.load_corpus(ASSETS / "corpus.txt")
        wide = "caf\u00e9 \U0001f600 \u00e9a"
        for source, text in ((corpus, corpus), (wide, wide), (corpus, "")):
            vocab = md.build_vocab(source)
            ids = vocab.encode(text)
            assert ids.dtype == np.int64
            np.testing.assert_array_equal(ids, reference(vocab, text))

    @pytest.mark.parametrize(
        "text",
        # below, between and above the vocabulary's code points; U+00DD is
        # ord("a") past the end of the 124-entry table for "abcz"
        ["\tab", "a\x00", "abzq", "bad", "ab\u00e9", "a\U0001f600", "ab\ud800", "c\U0010ffff",
         "b\u00dd"],
    )
    def test_vocab_encode_names_first_unknown_character(self, text):
        vocab = md.build_vocab("abcz")
        first = next(c for c in text if c not in vocab.chars)
        assert searchsorted_encode(vocab.chars, text) == first
        with pytest.raises(DomainError, match="not in vocabulary") as info:
            vocab.encode(text)
        assert str(info.value) == f"character {first!r} not in vocabulary"

    def test_vocab_must_be_sorted_and_distinct(self):
        for chars in ("ba", "aab"):
            with pytest.raises(DomainError, match="sorted"):
                md.Vocab(chars)

    def test_bundled_corpus_loads(self):
        text = md.load_corpus(ASSETS / "corpus.txt")
        vocab = md.build_vocab(text)
        assert 20 <= vocab.size <= 40
        ids = vocab.encode(text[:200])
        assert ids.dtype == np.int64

    def test_corpus_line_ends_read_as_a_text_file_reads_them(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_bytes("ab\r\ncd\ref\n\u00e9\r".encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            assert md.load_corpus(path) == fh.read() == "ab\ncd\nef\n\u00e9\n"

    def test_sample_windows(self):
        rng = np.random.default_rng(5)
        ids = np.arange(100, dtype=np.int64) % 9
        batch = md.sample_windows(ids, context_len=8, batch_size=4, rng=rng)
        assert len(batch.sequences) == 4
        assert all(len(s) == 8 for s in batch.sequences)
        with pytest.raises(DomainError):
            md.sample_windows(ids[:5], context_len=8, batch_size=1, rng=rng)

    def test_eval_windows_cover_everything(self):
        ids = np.arange(21, dtype=np.int64)
        batch = md.eval_windows(ids, context_len=8)
        assert [len(s) for s in batch.sequences] == [8, 8, 5]
        np.testing.assert_array_equal(np.concatenate(batch.sequences), ids)
        # a trailing single token cannot form a target and is dropped
        batch = md.eval_windows(np.arange(17, dtype=np.int64), context_len=8)
        assert [len(s) for s in batch.sequences] == [8, 8]

    @pytest.mark.parametrize("length", [2, 7, 8, 9, 17])
    def test_eval_windows_match_slices(self, length):
        # lengths 2, m - 1, m, m + 1 and 2m + 1 for a context of m = 8
        ids = (np.arange(length, dtype=np.int64) * 5) % 11
        slices = [ids[s : s + 8] for s in range(0, length, 8)]
        expected = [s for s in slices if len(s) >= 2]
        got = md.eval_windows(ids, context_len=8).sequences
        assert len(got) == len(expected)
        for seq, ref in zip(got, expected):
            assert seq.dtype == np.int64 and seq.tobytes() == ref.tobytes()
        with pytest.raises(DomainError, match="eval split too short"):
            md.eval_windows(ids[:1], context_len=8)

    def test_sample_windows_match_slices_and_draw_the_same_stream(self):
        ids = (np.arange(300, dtype=np.int64) * 7) % 13
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        batch = md.sample_windows(ids, context_len=12, batch_size=6, rng=rng)
        starts = ref_rng.integers(0, len(ids) - 12 + 1, size=6)
        assert [seq.tobytes() for seq in batch.sequences] == [
            ids[s : s + 12].tobytes() for s in starts
        ]
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_split_ids(self):
        ids = np.arange(100)
        train, val = md.split_ids(ids, 0.1)
        assert len(train) == 90 and len(val) == 10
        with pytest.raises(DomainError):
            md.split_ids(ids, 1.5)


class TestPairData:
    def test_generation_is_deterministic_and_clustered(self):
        a = md.gen_clustered_pairs(40, dim=6, n_clusters=3, noise=0.1, seed=9)
        b = md.gen_clustered_pairs(40, dim=6, n_clusters=3, noise=0.1, seed=9)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.t, b.t)
        # matched pairs sit near the same center: cross-modal distance beats
        # the typical mismatched distance
        matched = np.linalg.norm(a.x - a.t, axis=1).mean()
        mismatched = np.linalg.norm(a.x - np.roll(a.t, 1, axis=0), axis=1).mean()
        assert matched < mismatched

    def test_csv_round_trip_is_exact(self, tmp_path):
        batch = md.gen_clustered_pairs(7, dim=4, n_clusters=2, noise=0.2, seed=3)
        path = tmp_path / "pairs.csv"
        md.save_pairs_csv(path, batch)
        loaded = md.load_pairs_csv(path)
        np.testing.assert_array_equal(loaded.x, batch.x)
        np.testing.assert_array_equal(loaded.t, batch.t)

    def test_bundled_fixture_loads(self):
        batch = md.load_pairs_csv(ASSETS / "pairs_fixture.csv")
        assert batch.n == 5
        assert batch.x.shape == (5, 6)

    def test_malformed_csv_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1,t0,t1\n1,2,3,4\n5,6,7\n")
        with pytest.raises(DomainError, match="3"):
            md.load_pairs_csv(path)
        path.write_text("x0,x1,t0,t1\n1,2,three,4\n")
        with pytest.raises(DomainError, match="2"):
            md.load_pairs_csv(path)
        path.write_text("")
        with pytest.raises(DomainError):
            md.load_pairs_csv(path)
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DomainError):
            md.load_pairs_csv(path)

    @pytest.mark.parametrize("header", [
        "t0,x0", "x0,xylophone,t0", "x1,x0,t0,t1", "x0,x1,t1,t0", "x0,t0,x1,t1", "x0,t1",
        "x0,x1,t0,t1,", "x0, t0",
    ])
    def test_header_must_be_the_saved_layout(self, tmp_path, header):
        # only x0..x{dx-1} then t0..t{dt-1}, as save_pairs_csv writes it
        path = tmp_path / "pairs.csv"
        row = ",".join(["1"] * len(header.split(",")))
        path.write_text("\n".join([header, row, row]) + "\n")
        with pytest.raises(DomainError, match="malformed header"):
            md.load_pairs_csv(path)

    def test_header_without_rows_names_the_file(self, tmp_path):
        path = tmp_path / "pairs.csv"
        for text in ["x0,t0\n", "x0,t0"]:
            path.write_text(text)
            with pytest.raises(DomainError) as info:
                md.load_pairs_csv(path)
            assert str(info.value) == f"pair file {path} has no rows"

    @pytest.mark.parametrize("text, line", [
        ("x0,t0\n1,2\n3," + "4" * 200_000 + "\n", 3), ("x0,t" + "0" * 200_000 + "\n1,2\n", 1),
    ], ids=["row", "header"])
    def test_oversized_field_names_its_line(self, tmp_path, text, line):
        path = tmp_path / "pairs.csv"
        path.write_text(text)
        with pytest.raises(DomainError) as info:
            md.load_pairs_csv(path)
        assert str(info.value) == f"{path}:{line}: field larger than field limit (131072)"


def per_line_pairs(path):
    """load_pairs_csv as it read every file before the one-call parse, one
    csv row and one float() per field at a time: the loader must give what
    this gives on any file."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DomainError(f"pair file {path} is empty") from None
        d_x = len([h for h in header if h.startswith("x")])
        d_t = len(header) - d_x
        saved = [f"x{i}" for i in range(d_x)] + [f"t{i}" for i in range(d_t)]
        if d_x < 1 or d_t < 1 or header != saved:
            raise DomainError(f"pair file {path} has a malformed header: {header!r}")
        xs, ts = [], []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != d_x + d_t:
                raise DomainError(f"{path}:{line_no}: expected {d_x + d_t} fields, got {len(row)}")
            try:
                values = [float(v) for v in row]
            except ValueError:
                raise DomainError(f"{path}:{line_no}: non-numeric field") from None
            xs.append(values[:d_x])
            ts.append(values[d_x:])
    return md.PairBatch(np.array(xs), np.array(ts))


def load_outcome(load, path):
    """The arrays a loader returns, as shapes, layouts and bytes, or the type
    and message of its refusal; a warning counts as a refusal."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    return [(a.shape, a.dtype, a.flags.c_contiguous, a.tobytes()) for a in (batch.x, batch.t)]


class TestPairLoaderMatchesThePerLineLoop:
    # bodies under the header x0,x1,t0,t1
    EDGE_CASES = {
        "lf": "1,2,3,4\n5,6,7,8\n",
        "crlf": "1,2,3,4\r\n5,6,7,8\r\n",
        "cr-only": "1,2,3,4\r5,6,7,8\r",
        "no-final-newline": "1,2,3,4\n5,6,7,8",
        "blank-line-in-middle": "1,2,3,4\n\n5,6,7,8\n",
        "blank-line-at-end": "1,2,3,4\n5,6,7,8\n\n",
        "blank-lines-only": "\n\r\n",
        "whitespace-line": "1,2,3,4\n  \n5,6,7,8\n",
        "hash-line": "1,2,3,4\n# note\n5,6,7,8\n",
        "quoted-field": '1,"2",3,4\n5,6,7,8\n',
        "space-around": "1, 2,3 ,4\n5,6,7,8\n",
        "tab-around": "1,\t2,3\t,4\n5,6,7,8\n",
        "underscore": "1_0,2,3,4\n5,6,7,8\n",
        "hex-float": "0x1p3,2,3,4\n5,6,7,8\n",
        "arabic-indic-digit": "\u0663,2,3,4\n5,6,7,8\n",
        "signs": "+1e3,-0,3,4\n5,6,7,-0.0\n",
        "nan": "nan,2,3,4\n5,6,7,8\n",
        "inf": "1,2,inf,4\n5,6,7,8\n",
        "empty-field": "1,,3,4\n5,6,7,8\n",
        "trailing-comma": "1,2,3,4,\n5,6,7,8,\n",
        "short-row": "1,2,3,4\n5,6,7\n",
        "every-row-one-too-long": "1,2,3,4,9\n5,6,7,8,9\n",
    }

    @pytest.mark.parametrize("body", EDGE_CASES.values(), ids=EDGE_CASES.keys())
    def test_edge_cases(self, tmp_path, body):
        path = tmp_path / "pairs.csv"
        path.write_text("x0,x1,t0,t1\n" + body, encoding="utf-8", newline="")
        assert load_outcome(md.load_pairs_csv, path) == load_outcome(per_line_pairs, path)

    @pytest.mark.parametrize("n_pairs, dim, seed, powers", [
        (40, 6, 0, (0, 0)), (40, 6, 1, (0, 0)), (160, 12, 7, (0, 0)), (160, 12, 8, (-320, 300)),
    ], ids=["gen-pairs-seed0", "gen-pairs-seed1", "160x24", "160x24-subnormal-to-huge"])
    def test_saved_files_take_the_one_call_parse(self, tmp_path, monkeypatch, n_pairs, dim, seed,
                                                 powers):
        # what save_pairs_csv writes never reaches the per-line loop, and reads
        # back with the loop's bits; each value is scaled by 10**p, p drawn
        # from the powers range
        batch = md.gen_clustered_pairs(n_pairs, dim, 4, 0.2, seed)
        p = np.random.default_rng(seed).integers(powers[0], powers[1] + 1, (2, n_pairs, dim))
        batch = md.PairBatch(batch.x * 10.0 ** p[0], batch.t * 10.0 ** p[1])
        path = tmp_path / "pairs.csv"
        md.save_pairs_csv(path, batch)
        expected = load_outcome(per_line_pairs, path)

        def per_line_loop(*args):
            raise AssertionError("a saved file took the per-line loop")

        monkeypatch.setattr(md, "_pair_rows", per_line_loop)
        assert load_outcome(md.load_pairs_csv, path) == expected
