"""Optimizer, schedule, checkpointing, and training-loop behavior."""

import binascii
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drotemp import diff_engine as de
from drotemp import models as md
from drotemp import tempnet as tn
from drotemp import trainer as tr
from drotemp.diff_engine import Gradients, Tape, Tensor, backward
from drotemp.dro_core import DroConfig
from drotemp.errors import (
    DomainError,
    IntegrityError,
    NonFiniteError,
    ShapeError,
    TrainingDivergedError,
)

CORPUS = "src/drotemp/assets/corpus.txt"


def small_run(**overrides) -> tr.TrainConfig:
    base = dict(
        total_steps=30,
        batch_size=4,
        seed=3,
        cfg=DroConfig(tau0=0.5, tau_max=2.0, rho=1.0),
        base_lr=3e-3,
        tempnet_lr=1e-3,
        eval_every=10,
    )
    base.update(overrides)
    return tr.TrainConfig(**base)


def small_lm_task(**overrides) -> tr.LmTask:
    base = dict(corpus_path=CORPUS, context_len=12, d_model=16, d_ff=32, tempnet_d1=8, tempnet_d2=4)
    base.update(overrides)
    return tr.LmTask(**base)


def cl_fixture(tmp_path, n=60, dim=6):
    path = tmp_path / "pairs.csv"
    md.save_pairs_csv(path, md.gen_clustered_pairs(n, dim, 3, 0.2, seed=11))
    return str(path)


def small_cl_task(pairs_path, **overrides) -> tr.ClTask:
    base = dict(pairs_path=pairs_path, hidden=12, out_dim=8, tempnet_d1=8, tempnet_d2=4)
    base.update(overrides)
    return tr.ClTask(**base)


def grads_for(pairs):
    """Exact gradients: d/dw sum(w * c) = c for each (tensor, coefficient)."""
    with Tape() as tape:
        total = None
        for tensor, coef in pairs:
            term = de.sum(de.mul(tensor, Tensor(coef)))
            total = term if total is None else de.add(total, term)
        loss = total
    return backward(loss, tape)


class TestTrainConfig:
    def test_accepts_defaults(self):
        run = small_run()
        assert run.beta2 == 0.95 and run.weight_decay == 0.1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"total_steps": 0},
            {"batch_size": 0},
            {"eval_every": 0},
            {"warmup_fraction": 0.0},
            {"warmup_fraction": 1.0},
            {"base_lr": -1e-3},
            {"tempnet_lr": float("nan")},
            {"weight_decay": -0.1},
            {"beta1": 1.0},
            {"beta2": 0.0},
            {"eps": 0.0},
        ],
    )
    def test_rejects_bad_fields(self, overrides):
        with pytest.raises(DomainError):
            small_run(**overrides)

    def test_rejects_non_dro_cfg(self):
        with pytest.raises(DomainError):
            small_run(cfg={"rho": 1.0})


class TestCosineLr:
    """The shared lr multiplier: linear warmup to 1, then cosine decay to 0."""

    def test_zero_at_step_zero(self):
        run = small_run(total_steps=1000, warmup_fraction=0.01)
        assert tr._schedule_scale(0, run) == 0.0

    def test_warmup_is_linear_and_hits_base_exactly(self):
        run = small_run(total_steps=1000, warmup_fraction=0.01)
        assert tr._schedule_scale(5, run) == pytest.approx(0.5, rel=1e-15)
        assert tr._schedule_scale(10, run) == 1.0

    def test_cosine_midpoint_is_half_base(self):
        run = small_run(total_steps=1010, warmup_fraction=0.00990099)
        # warmup rounds to 10 steps; midpoint of the remaining 1000
        assert abs(tr._schedule_scale(510, run) - 0.5) <= 1e-12

    def test_final_step_reaches_zero(self):
        run = small_run(total_steps=1000)
        assert tr._schedule_scale(1000, run) == 0.0

    def test_monotone_decay_after_warmup(self):
        run = small_run(total_steps=200, warmup_fraction=0.05)
        values = [tr._schedule_scale(s, run) for s in range(10, 201)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("step", [-1, 1001])
    def test_out_of_range_step_rejected(self, step):
        run = small_run(total_steps=1000)
        with pytest.raises(DomainError):
            tr._schedule_scale(step, run)

    def test_one_step_run_is_all_warmup(self):
        run = small_run(total_steps=1)
        assert tr._schedule_scale(1, run) == 1.0


class TestAdamW:
    """AdamW on a flat ParamGroup: same inputs and bounds as the per-tensor
    optimizer it replaced, plus the divergence guard."""

    def test_zero_gradient_is_pure_decay(self):
        run = small_run(base_lr=0.01, weight_decay=0.1)
        w0 = np.linspace(-1.0, 2.0, 6).reshape(2, 3)
        w = Tensor(w0.copy(), requires_grad=True)
        state = tr.OptimizerState()
        tr.adamw_step(tr.ParamGroup([("w", w)], state), Gradients(), lr=0.01, cfg=run)
        assert np.array_equal(w.data, w0 * (1.0 - 0.01 * 0.1))
        assert state.step == 1

    def test_single_step_matches_hand_computation(self):
        run = small_run(weight_decay=0.0)
        w = Tensor(np.asarray(1.5), requires_grad=True)
        grads = grads_for([(w, np.asarray(0.5))])
        tr.adamw_step(tr.ParamGroup([("w", w)], tr.OptimizerState()), grads, lr=0.1, cfg=run)
        m_hat = (0.1 * 0.5) / (1.0 - 0.9)
        v_hat = (0.05 * 0.25) / (1.0 - 0.95)
        expected = 1.5 - 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert float(w.data) == pytest.approx(expected, rel=1e-15)

    def test_two_steps_match_reference_implementation(self):
        run = small_run(base_lr=0.05, weight_decay=0.04, beta1=0.9, beta2=0.999)
        rng = np.random.default_rng(7)
        shapes = [(3, 2), (4,), ()]
        starts = [rng.normal(size=s) for s in shapes]
        grad_steps = [[rng.normal(size=s) for s in shapes] for _ in range(2)]
        lrs = [0.05, 0.02]

        tensors = [Tensor(a.copy(), requires_grad=True) for a in starts]
        named = [(f"p{i}", t) for i, t in enumerate(tensors)]
        state = tr.OptimizerState()
        group = tr.ParamGroup(named, state)
        for lr, gs in zip(lrs, grad_steps):
            tr.adamw_step(group, grads_for(list(zip(tensors, gs))), lr=lr, cfg=run)

        ref = [a.copy() for a in starts]
        m = [np.zeros_like(a) for a in starts]
        v = [np.zeros_like(a) for a in starts]
        for t, (lr, gs) in enumerate(zip(lrs, grad_steps), start=1):
            for i, g in enumerate(gs):
                m[i] = run.beta1 * m[i] + (1 - run.beta1) * g
                v[i] = run.beta2 * v[i] + (1 - run.beta2) * g * g
                m_hat = m[i] / (1 - run.beta1**t)
                v_hat = v[i] / (1 - run.beta2**t)
                ref[i] = ref[i] * (1 - lr * run.weight_decay) - lr * m_hat / (np.sqrt(v_hat) + run.eps)
        for tensor, expected in zip(tensors, ref):
            assert np.max(np.abs(tensor.data - expected)) <= 1e-12
        assert state.step == 2

    def test_moment_shape_mismatch_is_structured_error(self):
        w = Tensor(np.zeros((2, 2)), requires_grad=True)
        state = tr.OptimizerState(moments={"w": (np.zeros(3), np.zeros(3))})
        with pytest.raises(ShapeError):
            tr.ParamGroup([("w", w)], state)

    def test_flat_update_equals_per_tensor_update_bit_for_bit(self):
        # the per-tensor update the flat one replaced, in its operation order
        run = small_run(base_lr=0.05, weight_decay=0.04, beta1=0.9, beta2=0.999)
        rng = np.random.default_rng(8)
        shapes = [(3, 2), (4,), ()]
        starts = [rng.normal(size=s) for s in shapes]
        tensors = [Tensor(a.copy(), requires_grad=True) for a in starts]
        group = tr.ParamGroup([(f"p{i}", t) for i, t in enumerate(tensors)], tr.OptimizerState())
        ref = [a.copy() for a in starts]
        m = [np.zeros_like(a) for a in starts]
        v = [np.zeros_like(a) for a in starts]
        for t, lr in enumerate([0.05, 0.02, 0.01], start=1):
            gs = [rng.normal(size=s) for s in shapes]
            tr.adamw_step(group, grads_for(list(zip(tensors, gs))), lr=lr, cfg=run)
            c1, c2 = 1.0 - run.beta1**t, 1.0 - run.beta2**t
            for i, g in enumerate(gs):
                m[i] = run.beta1 * m[i] + (1.0 - run.beta1) * g
                v[i] = run.beta2 * v[i] + (1.0 - run.beta2) * g * g
                update = (m[i] / c1) / (np.sqrt(v[i] / c2) + run.eps)
                ref[i] = ref[i] * (1.0 - lr * run.weight_decay) - lr * update
        for i, tensor in enumerate(tensors):
            assert np.array_equal(tensor.data, ref[i])
            assert np.array_equal(group.state.moments[f"p{i}"][0], m[i])
            assert np.array_equal(group.state.moments[f"p{i}"][1], v[i])
            assert np.shares_memory(tensor.data, group.p)

    def test_moments_enter_the_state_at_the_first_update(self):
        w = Tensor(np.ones(3), requires_grad=True)
        state = tr.OptimizerState()
        group = tr.ParamGroup([("w", w)], state)
        assert state.moments == {}
        tr.adamw_step(group, Gradients(), lr=0.01, cfg=small_run())
        assert list(state.moments) == ["w"]
        assert all(np.shares_memory(a, b) for a, b in zip(state.moments["w"], (group.m, group.v)))

    def test_resumed_moments_are_copied_in_and_rebound(self):
        run = small_run()
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        saved = (np.full((2, 2), 0.5), np.full((2, 2), 0.25))
        state = tr.OptimizerState(step=3, moments={"w": saved})
        group = tr.ParamGroup([("w", w)], state)
        assert np.array_equal(group.m, np.full(4, 0.5)) and np.array_equal(group.v, np.full(4, 0.25))
        tr.adamw_step(group, grads_for([(w, np.ones((2, 2)))]), lr=0.01, cfg=run)
        m, v = state.moments["w"]
        assert np.array_equal(m.reshape(-1), group.m) and np.shares_memory(m, group.m)
        assert np.array_equal(v.reshape(-1), group.v) and np.shares_memory(v, group.v)
        assert np.array_equal(saved[0], np.full((2, 2), 0.5))  # the loaded arrays are not written

    REFUSALS = {
        "nan_gradient": "step 3: non-finite gradient in b",
        "overflowing_weights": "step 3: update of a gives non-finite weights",
        "overflowing_moment": "step 3: update of b gives non-finite second moments",
    }

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_divergent_update_is_refused_and_changes_nothing(self, case):
        run = small_run(weight_decay=1e155 if case == "overflowing_weights" else 0.1)
        a = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        b = Tensor(np.array([[0.5, 0.25], [3.0, -1.0]]), requires_grad=True)
        group = tr.ParamGroup([("a", a), ("b", b)], tr.OptimizerState())
        for _ in range(2):
            tr.adamw_step(group, grads_for([(a, np.ones(2)), (b, np.ones((2, 2)))]), lr=1e-3, cfg=run)
        before = [arr.copy() for arr in (group.p, group.m, group.v)]
        bad = np.ones((2, 2))
        bad[1, 0] = {"nan_gradient": np.nan, "overflowing_moment": 1e200}.get(case, 1.0)
        lr = 1e155 if case == "overflowing_weights" else 1e-3
        with pytest.raises(TrainingDivergedError, match=self.REFUSALS[case]) as excinfo:
            tr.adamw_step(group, grads_for([(a, np.ones(2)), (b, bad)]), lr=lr, cfg=run)
        assert excinfo.value.step == 3
        for was, now in zip(before, (group.p, group.m, group.v)):
            assert was.tobytes() == now.tobytes()
        assert group.state.step == 2


def section_span(raw: bytes, name: str):
    needle = struct.pack("<H", len(name)) + name.encode()
    i = raw.find(needle)
    assert i >= 0, f"section {name} not found"
    header_end = i + len(needle)
    (plen,) = struct.unpack("<Q", raw[header_end : header_end + 8])
    start = header_end + 8
    return start, start + plen


class TestCheckpoint:
    def trained(self, tmp_path):
        run = small_run(total_steps=4, eval_every=2)
        return run, tr.train(run, small_lm_task(), tmp_path / "run")

    def test_round_trip_is_bit_exact(self, tmp_path):
        _, (ckpt, _) = self.trained(tmp_path)
        loaded = tr.load_checkpoint(tmp_path / "run" / "checkpoint.bin")
        assert loaded.kind == "lm" and loaded.step == 4
        assert loaded.config_hash == ckpt.config_hash
        for (n1, a), (n2, b) in zip(loaded.foundation.tensors(), ckpt.foundation.tensors()):
            assert n1 == n2 and a.shape == b.shape and np.array_equal(a.data, b.data)
        for net_a, net_b in zip(loaded.tempnets, ckpt.tempnets):
            assert net_a.cfg == net_b.cfg
            for (n1, a), (n2, b) in zip(net_a.tensors(), net_b.tensors()):
                assert np.array_equal(a.data, b.data)
        for state_a, state_b in (
            (loaded.opt_model, ckpt.opt_model),
            (loaded.opt_tempnet, ckpt.opt_tempnet),
        ):
            assert state_a.step == state_b.step
            assert state_a.moments.keys() == state_b.moments.keys()
            for key in state_a.moments:
                assert np.array_equal(state_a.moments[key][0], state_b.moments[key][0])
                assert np.array_equal(state_a.moments[key][1], state_b.moments[key][1])
        assert loaded.rng_state == ckpt.rng_state

    def test_rng_state_resumes_the_same_stream(self, tmp_path):
        _, (ckpt, _) = self.trained(tmp_path)
        loaded = tr.load_checkpoint(tmp_path / "run" / "checkpoint.bin")
        a = np.random.Generator(np.random.PCG64())
        a.bit_generator.state = ckpt.rng_state
        b = np.random.Generator(np.random.PCG64())
        b.bit_generator.state = loaded.rng_state
        assert np.array_equal(a.integers(0, 1 << 40, size=16), b.integers(0, 1 << 40, size=16))

    def test_no_temp_file_left_behind(self, tmp_path):
        self.trained(tmp_path)
        leftovers = [p.name for p in (tmp_path / "run").iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_truncated_file_names_the_section(self, tmp_path):
        self.trained(tmp_path)
        path = tmp_path / "run" / "checkpoint.bin"
        raw = path.read_bytes()
        start, _ = section_span(raw, "foundation")
        clipped = tmp_path / "clipped.bin"
        clipped.write_bytes(raw[: start + 32])
        with pytest.raises(IntegrityError, match="foundation"):
            tr.load_checkpoint(clipped)

    def test_header_truncation_detected(self, tmp_path):
        self.trained(tmp_path)
        raw = (tmp_path / "run" / "checkpoint.bin").read_bytes()
        stub = tmp_path / "stub.bin"
        stub.write_bytes(raw[:3])
        with pytest.raises(IntegrityError, match="header"):
            tr.load_checkpoint(stub)

    def test_corrupted_payload_fails_checksum_naming_section(self, tmp_path):
        self.trained(tmp_path)
        path = tmp_path / "run" / "checkpoint.bin"
        raw = bytearray(path.read_bytes())
        start, stop = section_span(bytes(raw), "opt_model")
        raw[(start + stop) // 2] ^= 0xFF
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError, match="opt_model"):
            tr.load_checkpoint(bad)

    def test_unsupported_version_rejected(self, tmp_path):
        self.trained(tmp_path)
        raw = (tmp_path / "run" / "checkpoint.bin").read_bytes()
        future = tmp_path / "future.bin"
        future.write_bytes(raw[:4] + struct.pack("<H", 99) + raw[6:])
        with pytest.raises(IntegrityError, match="version"):
            tr.load_checkpoint(future)

    def test_missing_file_reports_path(self, tmp_path):
        with pytest.raises(OSError, match="nowhere.bin"):
            tr.load_checkpoint(tmp_path / "nowhere.bin")


def sections_of(raw: bytes):
    """(name, payload) pairs of a checkpoint file, in file order."""
    out, pos = [], 6
    while pos < len(raw):
        (name_len,) = struct.unpack("<H", raw[pos : pos + 2])
        name = raw[pos + 2 : pos + 2 + name_len].decode()
        pos += 2 + name_len
        (plen,) = struct.unpack("<Q", raw[pos : pos + 8])
        out.append((name, raw[pos + 8 : pos + 8 + plen]))
        pos += 8 + plen + 4
    return out


def repacked(raw: bytes, sections) -> bytes:
    """The checkpoint header followed by sections with fresh checksums."""
    parts = [raw[:6]]
    for name, payload in sections:
        nb = name.encode()
        parts += [struct.pack("<H", len(nb)), nb, struct.pack("<Q", len(payload)), payload,
                  struct.pack("<I", binascii.crc32(payload))]
    return b"".join(parts)


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A working directory plus the bytes of a 2-step robust LM and CL checkpoint."""
    root = tmp_path_factory.mktemp("fuzz")
    tr.train(small_run(total_steps=2, eval_every=2), small_lm_task(), root / "lm")
    pairs = cl_fixture(root)
    run = small_run(total_steps=2, eval_every=2, batch_size=8)
    tr.train(run, small_cl_task(pairs), root / "cl")
    raws = {kind: (root / kind / "checkpoint.bin").read_bytes() for kind in ("lm", "cl")}
    for raw in raws.values():
        assert repacked(raw, sections_of(raw)) == raw
    return root, raws


class TestCheckpointFuzz:
    """Damage of any kind raises IntegrityError, never a bare KeyError."""

    KINDS = st.sampled_from(["lm", "cl"])

    def load(self, root, raw: bytes):
        path = root / "damaged.bin"
        path.write_bytes(raw)
        return tr.load_checkpoint(path)

    @settings(max_examples=60, deadline=None)
    @given(kind=KINDS, data=st.data())
    def test_truncation(self, fuzz_base, kind, data):
        root, raws = fuzz_base
        cut = data.draw(st.integers(0, len(raws[kind]) - 1))
        with pytest.raises(IntegrityError):
            self.load(root, raws[kind][:cut])

    @settings(max_examples=60, deadline=None)
    @given(kind=KINDS, data=st.data())
    def test_bit_flip(self, fuzz_base, kind, data):
        root, raws = fuzz_base
        raw = bytearray(raws[kind])
        bit = data.draw(st.integers(0, 8 * len(raw) - 1))
        raw[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(IntegrityError):
            self.load(root, bytes(raw))

    @settings(max_examples=40, deadline=None)
    @given(kind=KINDS, data=st.data())
    def test_meta_key_dropped(self, fuzz_base, kind, data):
        root, raws = fuzz_base
        sections = sections_of(raws[kind])
        meta = json.loads(sections[0][1])
        key = data.draw(st.sampled_from(sorted(meta)))
        del meta[key]
        sections[0] = ("meta", json.dumps(meta).encode())
        with pytest.raises(IntegrityError, match=f"'meta' is missing '{key}'"):
            self.load(root, repacked(raws[kind], sections))

    @settings(max_examples=40, deadline=None)
    @given(kind=KINDS, data=st.data())
    def test_array_dropped(self, fuzz_base, kind, data):
        root, raws = fuzz_base
        sections = sections_of(raws[kind])
        with_arrays = [i for i, (name, _) in enumerate(sections) if name not in ("meta", "rng")]
        i = data.draw(st.sampled_from(with_arrays))
        name, payload = sections[i]
        arrays = tr._unpack_arrays(payload, name)
        del arrays[data.draw(st.integers(0, len(arrays) - 1))]
        sections[i] = (name, tr._pack_arrays(arrays))
        with pytest.raises(IntegrityError, match=f"'{name}' is missing"):
            self.load(root, repacked(raws[kind], sections))

    def test_wrong_field_type(self, fuzz_base):
        root, raws = fuzz_base
        sections = sections_of(raws["lm"])
        meta = json.loads(sections[0][1])
        meta["foundation_cfg"]["vocab_size"] = "many"
        sections[0] = ("meta", json.dumps(meta).encode())
        with pytest.raises(IntegrityError, match="not describe a valid run"):
            self.load(root, repacked(raws["lm"], sections))


class TestLmTraining:
    def test_metrics_file_has_expected_rows(self, tmp_path):
        run = small_run(total_steps=25, eval_every=10)
        _, metrics_path = tr.train(run, small_lm_task(), tmp_path)
        lines = metrics_path.read_text().splitlines()
        assert lines[0] == tr.METRICS_HEADER
        rows = tr.read_metrics(metrics_path)
        assert [r["step"] for r in rows] == [10, 20, 25]

    def test_same_seed_runs_are_bit_identical(self, tmp_path):
        run, task = small_run(), small_lm_task()
        _, p1 = tr.train(run, task, tmp_path / "a")
        _, p2 = tr.train(run, task, tmp_path / "b")
        assert p1.read_text() == p2.read_text()

    def test_different_seeds_differ(self, tmp_path):
        task = small_lm_task()
        _, p1 = tr.train(small_run(seed=3), task, tmp_path / "a")
        _, p2 = tr.train(small_run(seed=4), task, tmp_path / "b")
        assert p1.read_text() != p2.read_text()

    def test_loss_and_temperatures_behave(self, tmp_path):
        run = small_run()
        _, metrics_path = tr.train(run, small_lm_task(), tmp_path)
        rows = tr.read_metrics(metrics_path)
        assert rows[-1]["loss"] < rows[0]["loss"]
        for row in rows:
            assert run.cfg.tau0 <= row["tau_min"] <= row["tau_mean"] <= row["tau_max"] <= run.cfg.tau_max

    def test_ce_objective_reports_unit_temperature(self, tmp_path):
        run = small_run(total_steps=8, eval_every=4)
        _, metrics_path = tr.train(run, small_lm_task(objective="ce"), tmp_path)
        for row in tr.read_metrics(metrics_path):
            assert row["tau_mean"] == row["tau_min"] == row["tau_max"] == 1.0
            assert row["lr_tempnet"] == 0.0
            # the schedule ends exactly at zero, so only interior rows have lr > 0
            assert row["lr_model"] > 0.0 or row["step"] == run.total_steps

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        run, task = small_run(), small_lm_task()
        full_ckpt, full_metrics = tr.train(run, task, tmp_path / "full")
        tr.train(run, task, tmp_path / "part1", stop_at_step=17)
        resumed_ckpt, resumed_metrics = tr.train(
            run, task, tmp_path / "part2", resume_from=tmp_path / "part1" / "checkpoint.bin"
        )
        full_rows = full_metrics.read_text().splitlines()[1:]
        part1 = (tmp_path / "part1" / "metrics.csv").read_text().splitlines()[1:]
        part2 = resumed_metrics.read_text().splitlines()[1:]
        assert part1 + part2 == full_rows
        assert tr.foundation_fingerprint(resumed_ckpt.foundation.tensors()) == tr.foundation_fingerprint(
            full_ckpt.foundation.tensors()
        )
        assert tr.foundation_fingerprint(resumed_ckpt.tempnets[0].tensors()) == tr.foundation_fingerprint(
            full_ckpt.tempnets[0].tensors()
        )

    def test_in_place_resume_completes_the_metrics_file(self, tmp_path):
        run, task = small_run(), small_lm_task()
        _, full_metrics = tr.train(run, task, tmp_path / "full")
        tr.train(run, task, tmp_path / "part", stop_at_step=17)
        tr.train(
            run, task, tmp_path / "part", resume_from=tmp_path / "part" / "checkpoint.bin"
        )
        assert (tmp_path / "part" / "metrics.csv").read_bytes() == full_metrics.read_bytes()

    def test_resume_rejects_config_mismatch(self, tmp_path):
        run, task = small_run(), small_lm_task()
        tr.train(run, task, tmp_path / "orig", stop_at_step=5)
        other = small_run(seed=99)
        with pytest.raises(DomainError, match="different configuration"):
            tr.train(other, task, tmp_path / "resume", resume_from=tmp_path / "orig" / "checkpoint.bin")

    def test_stop_step_bounds_checked(self, tmp_path):
        run, task = small_run(), small_lm_task()
        with pytest.raises(DomainError):
            tr.train(run, task, tmp_path, stop_at_step=31)

    def test_tempnet_only_freezes_foundation(self, tmp_path):
        run, task = small_run(total_steps=10, eval_every=5), small_lm_task()
        base_ckpt, _ = tr.train(run, task, tmp_path / "base")
        follow = small_lm_task(mode="tempnet-only", init_from=str(tmp_path / "base" / "checkpoint.bin"))
        follow_ckpt, metrics_path = tr.train(run, follow, tmp_path / "follow")
        assert tr.foundation_fingerprint(follow_ckpt.foundation.tensors()) == tr.foundation_fingerprint(
            base_ckpt.foundation.tensors()
        )
        assert tr.foundation_fingerprint(follow_ckpt.tempnets[0].tensors()) != tr.foundation_fingerprint(
            base_ckpt.tempnets[0].tensors()
        )
        for row in tr.read_metrics(metrics_path):
            assert row["lr_model"] == 0.0
            assert row["lr_tempnet"] > 0.0 or row["step"] == run.total_steps

    def test_joint_finetune_updates_foundation(self, tmp_path):
        run, task = small_run(total_steps=10, eval_every=5), small_lm_task()
        base_ckpt, _ = tr.train(run, task, tmp_path / "base")
        follow = small_lm_task(mode="joint-finetune", init_from=str(tmp_path / "base" / "checkpoint.bin"))
        follow_ckpt, _ = tr.train(run, follow, tmp_path / "follow")
        assert tr.foundation_fingerprint(follow_ckpt.foundation.tensors()) != tr.foundation_fingerprint(
            base_ckpt.foundation.tensors()
        )

    def test_divergence_aborts_with_step(self, tmp_path):
        # lr * weight_decay overflows; the optimizer refuses the update before
        # it reaches the weights, and no numpy warning escapes (pytest turns
        # one into an error)
        run = small_run(total_steps=5, base_lr=1e155, weight_decay=1e155, eval_every=100)
        with pytest.raises(TrainingDivergedError) as excinfo:
            tr.train(run, small_lm_task(), tmp_path)
        assert 1 <= excinfo.value.step <= 5
        assert str(excinfo.value.step) in str(excinfo.value)
        assert str(excinfo.value) == "training diverged at step 1: update of emb gives non-finite weights"
        assert not (tmp_path / "checkpoint.bin").exists()

    def test_non_finite_loss_from_a_tape_op_is_divergence(self, tmp_path, monkeypatch):
        # 1 / (+-0) gives +-inf and their mean NaN: the tape passes both on,
        # without a numpy warning, and the loss-value check stops the step
        def infinite_loss(params, temps, batch, cfg):
            return de.mean(de.reciprocal(de.mul(params.emb, 0.0)))

        monkeypatch.setattr(md, "robust_softmax_loss", infinite_loss)
        with pytest.raises(TrainingDivergedError) as excinfo:
            tr.train(small_run(total_steps=2, eval_every=2), small_lm_task(), tmp_path)
        assert str(excinfo.value) == "training diverged at step 1: loss value nan"

    def test_only_non_finite_errors_count_as_divergence(self, tmp_path, monkeypatch):
        run = small_run(total_steps=2, eval_every=2)

        def failing_loss(exc):
            def loss(*args):
                raise exc

            return loss

        # what the logit TempNet raises when its temperatures are not finite
        diverged = NonFiniteError("llm_tau_batch: temperatures are not all finite")
        monkeypatch.setattr(md, "robust_softmax_loss", failing_loss(diverged))
        with pytest.raises(TrainingDivergedError) as excinfo:
            tr.train(run, small_lm_task(), tmp_path / "a")
        assert str(excinfo.value) == (
            "training diverged at step 1: llm_tau_batch: temperatures are not all finite"
        )
        # a domain error that merely mentions non-finite values is not a divergence
        invalid = DomainError("W1 contains non-finite entries")
        monkeypatch.setattr(md, "robust_softmax_loss", failing_loss(invalid))
        with pytest.raises(DomainError, match="W1 contains"):
            tr.train(run, small_lm_task(), tmp_path / "b")

    def test_checkpoint_shape_mismatch_rejected(self, tmp_path):
        run = small_run(total_steps=2, eval_every=2)
        tr.train(run, small_lm_task(), tmp_path / "base")
        wrong = small_lm_task(
            d_model=24, mode="tempnet-only", init_from=str(tmp_path / "base" / "checkpoint.bin")
        )
        with pytest.raises(DomainError, match="shape"):
            tr.train(run, wrong, tmp_path / "follow")


class TestClTraining:
    def run_cfg(self, **overrides):
        base = dict(
            total_steps=20,
            batch_size=16,
            seed=5,
            cfg=DroConfig(tau0=0.01, tau_max=1.0, rho=2.0),
            base_lr=2e-3,
            tempnet_lr=1e-3,
            eval_every=10,
            weight_decay=0.02,
            beta2=0.999,
        )
        base.update(overrides)
        return tr.TrainConfig(**base)

    def test_trains_and_reports_recall(self, tmp_path):
        run = self.run_cfg()
        _, metrics_path = tr.train(run, small_cl_task(cl_fixture(tmp_path)), tmp_path / "run")
        rows = tr.read_metrics(metrics_path)
        assert [r["step"] for r in rows] == [10, 20]
        for row in rows:
            assert 0.0 <= row["eval_metric"] <= 1.0
            assert run.cfg.tau0 <= row["tau_min"] <= row["tau_max"] <= run.cfg.tau_max

    def test_fixed_temperature_baseline(self, tmp_path):
        run = self.run_cfg(total_steps=6, eval_every=3)
        task = small_cl_task(cl_fixture(tmp_path), objective="fixed", fixed_tau1=0.07, fixed_tau2=0.2)
        _, metrics_path = tr.train(run, task, tmp_path / "run")
        for row in tr.read_metrics(metrics_path):
            assert row["tau_min"] == 0.07 and row["tau_max"] == 0.2
            assert row["tau_mean"] == pytest.approx(0.135, rel=1e-15)
            assert row["lr_tempnet"] == 0.0

    def test_tempnet_only_freezes_towers(self, tmp_path):
        run = self.run_cfg(total_steps=8, eval_every=4)
        pairs = cl_fixture(tmp_path)
        base_ckpt, _ = tr.train(run, small_cl_task(pairs), tmp_path / "base")
        follow = small_cl_task(
            pairs, mode="tempnet-only", init_from=str(tmp_path / "base" / "checkpoint.bin")
        )
        follow_ckpt, _ = tr.train(run, follow, tmp_path / "follow")
        assert tr.foundation_fingerprint(follow_ckpt.foundation.tensors()) == tr.foundation_fingerprint(
            base_ckpt.foundation.tensors()
        )

    def test_same_seed_identical(self, tmp_path):
        run = self.run_cfg(total_steps=8, eval_every=4)
        pairs = cl_fixture(tmp_path)
        _, p1 = tr.train(run, small_cl_task(pairs), tmp_path / "a")
        _, p2 = tr.train(run, small_cl_task(pairs), tmp_path / "b")
        assert p1.read_text() == p2.read_text()

    def test_oversized_batch_rejected(self, tmp_path):
        run = self.run_cfg(batch_size=55)
        with pytest.raises(DomainError, match="batch_size"):
            tr.train(run, small_cl_task(cl_fixture(tmp_path)), tmp_path / "run")

    def test_checkpoint_kind_mismatch_rejected(self, tmp_path):
        lm_run = small_run(total_steps=2, eval_every=2)
        tr.train(lm_run, small_lm_task(), tmp_path / "lm")
        task = small_cl_task(
            cl_fixture(tmp_path), mode="joint-finetune", init_from=str(tmp_path / "lm" / "checkpoint.bin")
        )
        with pytest.raises(DomainError, match="'lm'"):
            tr.train(self.run_cfg(), task, tmp_path / "cl")


    def test_zero_relu_rows_do_not_reach_prototypes(self, tmp_path):
        # at d1 = 8 some training embeddings silence every first-layer unit;
        # on this pair set such a row used to become a prototype column and
        # the first step failed normalizing it
        path = tmp_path / "pairs.csv"
        md.save_pairs_csv(path, md.gen_clustered_pairs(40, 6, 3, 0.5, seed=2))
        run = tr.TrainConfig(total_steps=2, batch_size=8, seed=2, cfg=DroConfig(), eval_every=2)
        task = tr.ClTask(pairs_path=str(path), hidden=16, out_dim=8, tempnet_d1=8, tempnet_d2=8)
        ckpt, metrics_path = tr.train(run, task, tmp_path / "run")
        for net in ckpt.tempnets:
            assert np.abs(net.W2.data).sum(axis=0).min() > 0.0
        assert [r["step"] for r in tr.read_metrics(metrics_path)] == [2]


class TestTaskValidation:
    def test_mode_must_be_known(self):
        with pytest.raises(DomainError, match="mode"):
            small_lm_task(mode="warm")

    def test_scratch_rejects_init_checkpoint(self):
        with pytest.raises(DomainError):
            small_lm_task(mode="scratch", init_from="x.bin")

    def test_non_scratch_requires_checkpoint(self):
        with pytest.raises(DomainError, match="init_from"):
            small_lm_task(mode="joint-finetune")

    def test_tempnet_only_needs_robust_objective(self):
        with pytest.raises(DomainError, match="robust"):
            small_lm_task(mode="tempnet-only", init_from="x.bin", objective="ce")

    def test_objective_checked(self):
        with pytest.raises(DomainError, match="objective"):
            small_cl_task("pairs.csv", objective="ce")

    def test_fixed_taus_positive(self):
        with pytest.raises(DomainError):
            small_cl_task("pairs.csv", fixed_tau1=0.0)


class TestReadMetrics:
    def test_round_trips_values(self, tmp_path):
        path = tmp_path / "metrics.csv"
        row = tr._metrics_row(7, 1.25, 0.5, np.array([0.25, 0.75]), 1e-3, 5e-4)
        path.write_text(tr.METRICS_HEADER + "\n" + row + "\n")
        rows = tr.read_metrics(path)
        assert rows == [
            {
                "step": 7,
                "loss": 1.25,
                "eval_metric": 0.5,
                "tau_mean": 0.5,
                "tau_min": 0.25,
                "tau_max": 0.75,
                "lr_model": 1e-3,
                "lr_tempnet": 5e-4,
            }
        ]

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("step,loss\n1,2.0\n")
        with pytest.raises(DomainError, match="header"):
            tr.read_metrics(path)


class TestOptimizerGroups:
    """train() gives each optimizer group flat buffers; the checkpoint keeps
    one array per name, and resume copies the saved moments in."""

    def test_cl_robust_resume_gives_the_uninterrupted_bytes(self, tmp_path):
        # two TempNets in one group, stopped mid-run and resumed in place
        run = small_run(total_steps=12, eval_every=4, batch_size=8)
        task = small_cl_task(cl_fixture(tmp_path))
        tr.train(run, task, tmp_path / "full")
        tr.train(run, task, tmp_path / "part", stop_at_step=6)
        tr.train(run, task, tmp_path / "part", resume_from=tmp_path / "part" / "checkpoint.bin")
        for name in ("metrics.csv", "checkpoint.bin"):
            assert (tmp_path / "part" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()

    def test_tempnet_only_writes_an_empty_model_optimizer_section(self, tmp_path):
        run = small_run(total_steps=4, eval_every=2)
        tr.train(run, small_lm_task(), tmp_path / "base")
        follow = small_lm_task(mode="tempnet-only", init_from=str(tmp_path / "base" / "checkpoint.bin"))
        tr.train(run, follow, tmp_path / "follow")
        raw = (tmp_path / "follow" / "checkpoint.bin").read_bytes()
        lo, hi = section_span(raw, "opt_model")
        assert raw[lo:hi] == struct.pack("<I", 0)
        loaded = tr.load_checkpoint(tmp_path / "follow" / "checkpoint.bin")
        assert loaded.opt_model.step == 0 and loaded.opt_model.moments == {}
        assert loaded.opt_tempnet.step == 4 and len(loaded.opt_tempnet.moments) == 6

    def test_step_zero_checkpoint_has_no_moments(self, tmp_path):
        tr.train(small_run(), small_lm_task(), tmp_path, stop_at_step=0)
        loaded = tr.load_checkpoint(tmp_path / "checkpoint.bin")
        assert loaded.opt_model.moments == {} and loaded.opt_tempnet.moments == {}

    def test_wrong_shape_checkpoint_moment_raises_before_step_one(self, tmp_path, monkeypatch):
        run, task = small_run(total_steps=6, eval_every=2), small_lm_task()
        tr.train(run, task, tmp_path, stop_at_step=2)
        path = tmp_path / "checkpoint.bin"
        ckpt = tr.load_checkpoint(path)
        m, v = ckpt.opt_tempnet.moments["tempnet0.W1"]
        ckpt.opt_tempnet.moments["tempnet0.W1"] = (m[:, :-1], v[:, :-1])
        tr.save_checkpoint(ckpt, path)
        metrics = (tmp_path / "metrics.csv").read_bytes()

        def no_step(self, rng):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(tr._LmRuntime, "sample_batch", no_step)
        with pytest.raises(ShapeError):
            tr.train(run, task, tmp_path, resume_from=path)
        assert (tmp_path / "metrics.csv").read_bytes() == metrics

    def test_non_finite_checkpoint_value_is_an_integrity_error(self, tmp_path):
        tr.train(small_run(total_steps=2, eval_every=2), small_lm_task(), tmp_path)
        path = tmp_path / "checkpoint.bin"
        ckpt = tr.load_checkpoint(path)
        ckpt.foundation.blocks[0].Wq.data[0, 0] = np.nan
        tr.save_checkpoint(ckpt, path)
        with pytest.raises(IntegrityError, match="'foundation' holds non-finite values in blocks.0.Wq"):
            tr.load_checkpoint(path)

