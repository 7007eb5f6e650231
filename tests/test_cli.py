"""End-to-end checks of the command-line surface.

Commands run in-process through cli.main so exit codes and stdout/stderr are
observable without subprocesses.
"""

import binascii
import contextlib
import dataclasses
import io
import json
import math
import os
import resource
import stat
import struct
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drotemp import cli
from drotemp import models as md
from drotemp import trainer as tr
from drotemp.dro_core import DroConfig, LogitSet, robust_loss
from drotemp.errors import DomainError
from drotemp.tau_solver import UnboundedDescentError, golden_section_oracle, newton_solve

CORPUS = "src/drotemp/assets/corpus.txt"
FIXTURE = "src/drotemp/assets/pairs_fixture.csv"

LM_OVERRIDES = [
    f"data.corpus={CORPUS}",
    "dro.rho=0.5",
    "train.total_steps=20",
    "train.eval_every=10",
    "train.batch_size=4",
    "lm.context_len=12",
    "lm.d_model=16",
    "lm.d_ff=32",
    "tempnet.d1=8",
    "tempnet.d2=4",
]

CL_OVERRIDES = [
    "train.total_steps=15",
    "train.eval_every=5",
    "train.batch_size=8",
    "cl.hidden=16",
    "cl.out_dim=8",
    "tempnet.d1=8",
    "tempnet.d2=4",
]


def run_cli(argv):
    return cli.main(argv)


# ---------------------------------------------------------------------------
# shared runs (training is the expensive part; do each once per module)


@pytest.fixture(scope="module")
def lm_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("lm_run")
    assert run_cli(["train-lm", "--out", str(out)] + LM_OVERRIDES) == 0
    return out


@pytest.fixture(scope="module")
def cl_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cl_run")
    pairs = root / "pairs.csv"
    assert (
        run_cli(
            [
                "gen-pairs", "--n", "60", "--dim", "6", "--clusters", "3",
                "--noise", "0.2", "--seed", "11", "--output", str(pairs),
            ]
        )
        == 0
    )
    out = root / "run"
    assert run_cli(["train-cl", "--out", str(out), f"data.pairs={pairs}", *CL_OVERRIDES]) == 0
    return out, pairs


@pytest.fixture(scope="module")
def uniform_ckpt(tmp_path_factory):
    # a step-0 scratch snapshot: the output projection starts at zero, so the
    # model is exactly uniform over the vocabulary
    out = tmp_path_factory.mktemp("uniform")
    run = tr.TrainConfig(
        total_steps=5, batch_size=4, seed=0,
        cfg=DroConfig(tau0=1e-3, tau_max=2.0, rho=0.5), eval_every=5,
    )
    task = tr.LmTask(
        corpus_path=CORPUS, context_len=12, d_model=16, d_ff=32,
        tempnet_d1=8, tempnet_d2=4,
    )
    tr.train(run, task, out, stop_at_step=0)
    return out / "checkpoint.bin"


@pytest.fixture(scope="module")
def fixture_cl_ckpt(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixture_cl")
    assert (
        run_cli(
            [
                "train-cl", "--out", str(out),
                f"data.pairs={FIXTURE}",
                "train.total_steps=6",
                "train.eval_every=3",
                "train.batch_size=3",
                "cl.hidden=8",
                "cl.out_dim=4",
                "tempnet.d1=4",
                "tempnet.d2=2",
            ]
        )
        == 0
    )
    return out / "checkpoint.bin"


def with_meta(source, tmp_path, edit):
    """A copy of the checkpoint at source whose meta JSON edit has changed in
    place, with a valid checksum; the path of the copy."""
    raw = source.read_bytes()
    # the meta section comes first: name length, name, payload length, payload, crc
    (name_len,) = struct.unpack("<H", raw[6:8])
    at = 8 + name_len
    (size,) = struct.unpack("<Q", raw[at : at + 8])
    meta = json.loads(raw[at + 8 : at + 8 + size])
    edit(meta)
    payload = json.dumps(meta).encode()
    damaged = tmp_path / "damaged.bin"
    damaged.write_bytes(
        raw[:at] + struct.pack("<Q", len(payload)) + payload
        + struct.pack("<I", binascii.crc32(payload)) + raw[at + 8 + size + 4 :]
    )
    return damaged


def read_taus(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], np.array([float(line.split(",")[-1]) for line in lines[1:]])


# ---------------------------------------------------------------------------
# config resolution


# every config key with its default and type; a change to a dataclass default,
# or a key that appears or disappears, must show up here
RUN_KEYS = {
    "task.mode": ("scratch", str),
    "task.objective": ("robust", str),
    "task.init_from": (None, str),
    "dro.rho": (1.0, float),
    "dro.tau0": (1e-3, float),
    "dro.tau_max": (2.0, float),
    "tempnet.d1": (16, int),
    "tempnet.d2": (8, int),
    "train.total_steps": (200, int),
    "train.batch_size": (8, int),
    "train.seed": (0, int),
    "train.base_lr": (1e-3, float),
    "train.tempnet_lr": (1e-4, float),
    "train.warmup_fraction": (0.01, float),
    "train.weight_decay": (0.1, float),
    "train.beta1": (0.9, float),
    "train.beta2": (0.95, float),
    "train.eps": (1e-8, float),
    "train.eval_every": (100, int),
}

LM_KEYS = {
    **RUN_KEYS,
    "data.corpus": (None, str),
    "lm.d_model": (32, int),
    "lm.d_ff": (64, int),
    "lm.n_blocks": (1, int),
    "lm.context_len": (32, int),
    "lm.val_fraction": (0.1, float),
}

CL_KEYS = {
    **RUN_KEYS,
    "train.base_lr": (2e-4, float),
    "train.weight_decay": (0.02, float),
    "train.beta2": (0.999, float),
    "train.batch_size": (16, int),
    "data.pairs": (None, str),
    "cl.hidden": (32, int),
    "cl.out_dim": (16, int),
    "cl.eval_fraction": (0.25, float),
    "cl.fixed_tau1": (0.05, float),
    "cl.fixed_tau2": (0.05, float),
}


class TestConfigSchema:
    @pytest.mark.parametrize(
        "schema, table", [(cli._LM_SCHEMA, LM_KEYS), (cli._CL_SCHEMA, CL_KEYS)], ids=["lm", "cl"]
    )
    def test_keys_defaults_and_types_are_pinned(self, schema, table):
        got = {key: (spec.default, spec.convert) for key, spec in schema.items()}
        assert got == table

    def test_resolved_config_reruns_under_the_same_hash(self, lm_run, cl_run, tmp_path):
        for command, run_dir in (("train-lm", lm_run), ("train-cl", cl_run[0])):
            again = tmp_path / command
            resolved = run_dir / "config.resolved"
            assert run_cli([command, "--out", str(again), "--config", str(resolved)]) == 0
            assert (again / "config.resolved").read_bytes() == resolved.read_bytes()
            assert (
                tr.load_checkpoint(again / "checkpoint.bin").config_hash
                == tr.load_checkpoint(run_dir / "checkpoint.bin").config_hash
            )


class TestConfigResolution:
    def test_defaults_fill_unset_keys(self):
        values = cli.resolve_config(cli._LM_SCHEMA, None, [])
        assert values["train.total_steps"] == 200
        assert values["task.mode"] == "scratch"
        assert values["data.corpus"] is None

    def test_file_comments_and_override_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "\n"
            "train.total_steps = 50\n"
            "dro.rho = 2.5\n",
            encoding="utf-8",
        )
        values = cli.resolve_config(cli._LM_SCHEMA, str(cfg), ["train.total_steps=75"])
        assert values["train.total_steps"] == 75
        assert values["dro.rho"] == 2.5

    def test_unknown_key_in_file_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus.k = 3\n", encoding="utf-8")
        with pytest.raises(DomainError, match="bogus.k"):
            cli.resolve_config(cli._LM_SCHEMA, str(cfg), [])

    def test_unknown_override_rejected(self):
        with pytest.raises(DomainError, match="nope.key"):
            cli.resolve_config(cli._LM_SCHEMA, None, ["nope.key=1"])

    def test_unparseable_value_rejected(self):
        with pytest.raises(DomainError, match="train.total_steps"):
            cli.resolve_config(cli._LM_SCHEMA, None, ["train.total_steps=abc"])

    def test_override_requires_equals(self):
        with pytest.raises(DomainError, match="key=value"):
            cli.resolve_config(cli._LM_SCHEMA, None, ["train.total_steps"])

    def test_file_line_without_equals_names_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dro.rho = 1.0\njust words\n", encoding="utf-8")
        with pytest.raises(DomainError, match=":2:"):
            cli.resolve_config(cli._LM_SCHEMA, str(cfg), [])

    def test_resolved_snapshot_round_trips(self, tmp_path):
        values = cli.resolve_config(
            cli._LM_SCHEMA, None, [f"data.corpus={CORPUS}", "train.base_lr=0.005"]
        )
        cli.write_resolved_config(values, tmp_path)
        again = cli.resolve_config(cli._LM_SCHEMA, str(tmp_path / "config.resolved"), [])
        assert again == values


class TestParserReuse:
    def test_consecutive_calls_parse_independently(self, tmp_path, monkeypatch):
        parser = cli._parser()
        assert cli._parser() is parser and cli.build_parser() is not parser
        seen = []

        def recording_parse(argv=None):
            seen.append(type(parser).parse_args(parser, argv))
            return seen[-1]

        monkeypatch.setattr(parser, "parse_args", recording_parse)
        first = ["train-lm", "--out", str(tmp_path / "a"), "--rho", "0.3", "--mode", "scratch",
                 "bogus.key=1", "other.key=2"]
        pairs = tmp_path / "pairs.csv"
        assert run_cli(first) == 1  # unknown key: rejected before any training
        assert run_cli(["gen-pairs", "--n", "4", "--dim", "2", "--output", str(pairs)]) == 0
        assert run_cli(["train-lm", "--out", str(tmp_path / "b"), "bogus.key=3"]) == 1
        a, g, b = seen
        assert (a.command, a.rho, a.mode, a.override) == (
            "train-lm", 0.3, "scratch", ["bogus.key=1", "other.key=2"]
        )
        assert (g.command, g.clusters, g.noise, g.seed) == ("gen-pairs", 4, 0.2, 0)
        assert not hasattr(g, "override") and not hasattr(g, "rho")
        assert (b.rho, b.mode, b.tau_max, b.config, b.override) == (
            None, None, None, None, ["bogus.key=3"]
        )
        assert a.override == ["bogus.key=1", "other.key=2"]
        assert b.out != a.out and not (tmp_path / "a").exists()


# ---------------------------------------------------------------------------
# solve-tau


class TestSolveTau:
    def test_zero_margins_clamp_at_floor(self, tmp_path):
        src = tmp_path / "in.jsonl"
        src.write_text('{"positive":1.0,"contrast":[1.0,1.0]}\n', encoding="utf-8")
        dst = tmp_path / "out.jsonl"
        rc = run_cli(
            ["solve-tau", "--input", str(src), "--output", str(dst),
             "--rho", "10", "--tau0", "0.001"]
        )
        assert rc == 0
        rec = json.loads(dst.read_text().strip())
        assert rec["status"] == "ClampedAtTau0"
        assert rec["tau"] == 0.001
        assert rec["loss"] == pytest.approx(0.01, abs=1e-15)

    def test_unconverged_instances_warn_but_exit_zero(self, tmp_path, capsys):
        rng = np.random.default_rng(43)
        src = tmp_path / "in.jsonl"
        src.write_text(
            "".join(
                json.dumps({"positive": float(rng.normal()), "contrast": rng.normal(size=8).tolist()})
                + "\n"
                for _ in range(12)
            ),
            encoding="utf-8",
        )
        dst = tmp_path / "out.jsonl"
        # no gradient gets below 1e-300 short of an exact zero
        rc = run_cli(["solve-tau", "--input", str(src), "--output", str(dst), "--tol", "1e-300"])
        assert rc == 0
        statuses = [json.loads(line)["status"] for line in dst.read_text().splitlines()]
        unconverged = statuses.count("MaxIterReached")
        assert unconverged >= 1
        err = capsys.readouterr().err
        assert err.startswith(f"warning: {unconverged} of 12 instances")
        assert "MaxIterReached" in err

    def test_converged_stream_prints_no_warning(self, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        src.write_text('{"positive":0.3,"contrast":[1.0,0.2,-0.5]}\n', encoding="utf-8")
        rc = run_cli(["solve-tau", "--input", str(src), "--output", str(tmp_path / "o.jsonl")])
        assert rc == 0
        assert capsys.readouterr().err == ""

    def test_batch_matches_golden_section_in_order(self, tmp_path):
        rng = np.random.default_rng(42)
        cfg = DroConfig(tau0=0.01, tau_max=50.0, rho=0.7)
        instances = []
        for _ in range(60):
            k = int(rng.integers(2, 64))
            pos = float(rng.normal())
            contrast = (pos + rng.normal(scale=2.0, size=k)).tolist()
            instances.append({"positive": pos, "contrast": contrast})
        src = tmp_path / "in.jsonl"
        src.write_text(
            "".join(json.dumps(r) + "\n" for r in instances), encoding="utf-8"
        )
        dst = tmp_path / "out.jsonl"
        rc = run_cli(
            ["solve-tau", "--input", str(src), "--output", str(dst),
             "--rho", "0.7", "--tau0", "0.01", "--tau-max", "50.0"]
        )
        assert rc == 0
        out_lines = dst.read_text().strip().split("\n")
        assert len(out_lines) == len(instances)
        for rec_in, line in zip(instances, out_lines):
            rec = json.loads(line)
            ls = LogitSet(rec_in["positive"], rec_in["contrast"])
            ref = golden_section_oracle(ls, cfg, cfg.tau0, 1e3)
            assert abs(rec["tau"] - ref) <= 1e-6 * max(1.0, ref)

    def test_malformed_json_names_line(self, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        src.write_text(
            '{"positive":1.0,"contrast":[0.5]}\n{broken\n', encoding="utf-8"
        )
        dst = tmp_path / "out.jsonl"
        rc = run_cli(["solve-tau", "--input", str(src), "--output", str(dst)])
        assert rc == 1
        assert ":2:" in capsys.readouterr().err
        assert not dst.exists()

    def test_empty_contrast_names_line(self, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        src.write_text('{"positive":1.0,"contrast":[]}\n', encoding="utf-8")
        rc = run_cli(
            ["solve-tau", "--input", str(src), "--output", str(tmp_path / "o")]
        )
        assert rc == 1
        assert ":1:" in capsys.readouterr().err

    def test_extra_keys_rejected(self, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        src.write_text(
            '{"positive":1.0,"contrast":[0.5],"weight":2}\n', encoding="utf-8"
        )
        rc = run_cli(
            ["solve-tau", "--input", str(src), "--output", str(tmp_path / "o")]
        )
        assert rc == 1
        assert "positive" in capsys.readouterr().err

    def test_blank_lines_skipped(self, tmp_path):
        src = tmp_path / "in.jsonl"
        src.write_text(
            '{"positive":1.0,"contrast":[0.5]}\n\n{"positive":0.0,"contrast":[1.0]}\n',
            encoding="utf-8",
        )
        dst = tmp_path / "out.jsonl"
        assert run_cli(["solve-tau", "--input", str(src), "--output", str(dst)]) == 0
        assert len(dst.read_text().strip().split("\n")) == 2

    def test_missing_input_is_io_error(self, tmp_path):
        rc = run_cli(
            ["solve-tau", "--input", str(tmp_path / "none.jsonl"),
             "--output", str(tmp_path / "o")]
        )
        assert rc == 2

    def test_summary_counts_every_status(self, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        src.write_text(
            '{"positive":1.0,"contrast":[1.0,1.0]}\n'
            '{"positive":0.3,"contrast":[1.0,0.2,-0.5]}\n'
            '{"positive":0.0,"contrast":[2.0,-1.0,0.5,0.1]}\n'
            '{"positive":-0.4,"contrast":[0.2,1.0,0.2,-0.6,-1.3]}\n',
            encoding="utf-8",
        )
        dst = tmp_path / "out.jsonl"
        assert run_cli(["solve-tau", "--input", str(src), "--output", str(dst)]) == 0
        assert capsys.readouterr().out == (
            f"solved 4 instances -> {dst} (Interior 3, ClampedAtTau0 1, MaxIterReached 0)\n"
        )
        # under tol 1e-300 only an exact zero gradient converges: lines 2 and
        # 3 reach one, line 4 stops at the iteration limit
        assert run_cli(
            ["solve-tau", "--input", str(src), "--output", str(dst), "--tol", "1e-300"]
        ) == 0
        records = [json.loads(line) for line in dst.read_text().splitlines()]
        assert [r["status"] for r in records] == [
            "ClampedAtTau0", "Interior", "Interior", "MaxIterReached"
        ]
        assert records[1]["grad"] == records[2]["grad"] == 0.0
        captured = capsys.readouterr()
        assert captured.out == (
            f"solved 4 instances -> {dst} (Interior 2, ClampedAtTau0 1, MaxIterReached 1)\n"
        )
        assert captured.err.startswith("warning: 1 of 4 instances")

    @pytest.mark.parametrize("bracket_hi", ["nan", "inf"])
    def test_non_finite_bracket_hi_exits_1(self, tmp_path, capsys, bracket_hi):
        # rho = 0 with spread margins has no bounded minimizer
        src = tmp_path / "in.jsonl"
        src.write_text('{"positive":0.0,"contrast":[0.0,1.0]}\n', encoding="utf-8")
        dst = tmp_path / "out.jsonl"
        argv = ["solve-tau", "--input", str(src), "--output", str(dst),
                "--rho", "0", "--bracket-hi", bracket_hi]
        assert run_cli(argv) == 1
        assert "bracket_hi must be finite" in capsys.readouterr().err
        assert not dst.exists()

    @pytest.mark.parametrize("text", ["", "\n  \n\n"])
    def test_empty_and_blank_streams_write_empty_output(self, tmp_path, capsys, text):
        src = tmp_path / "in.jsonl"
        src.write_text(text, encoding="utf-8")
        dst = tmp_path / "out.jsonl"
        assert run_cli(["solve-tau", "--input", str(src), "--output", str(dst)]) == 0
        assert dst.read_text(encoding="utf-8") == ""
        assert capsys.readouterr().out == (
            f"solved 0 instances -> {dst} (Interior 0, ClampedAtTau0 0, MaxIterReached 0)\n"
        )

    def test_unsolvable_line_before_malformed_line_wins(self, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        src.write_text(
            '{"positive":0.0,"contrast":[1.0,1.0]}\n'
            '{"positive":0.0,"contrast":[0.0,1.0]}\n'
            "{broken\n",
            encoding="utf-8",
        )
        dst = tmp_path / "out.jsonl"
        rc = run_cli(["solve-tau", "--input", str(src), "--output", str(dst), "--rho", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert ":2:" in err and "bracket_hi" in err
        assert list(tmp_path.iterdir()) == [src]

    def test_unsolvable_line_in_later_chunk_names_its_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "SOLVE_CHUNK", 2)
        fine = '{"positive":0.0,"contrast":[1.0,1.0]}\n'
        unbounded = '{"positive":0.0,"contrast":[0.0,1.0]}\n'
        # line 2 is blank, so chunks are lines (1, 3), (4, 5) and (6, 7); the
        # third fails after the first two went to the temporary file
        src = tmp_path / "in.jsonl"
        src.write_text(fine + "\n" + fine * 3 + unbounded * 2, encoding="utf-8")
        dst = tmp_path / "out.jsonl"
        rc = run_cli(["solve-tau", "--input", str(src), "--output", str(dst), "--rho", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{src}:6: gradient still" in err
        assert list(tmp_path.iterdir()) == [src]

    def test_non_numeric_logit_names_line(self, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        src.write_text(
            '{"positive":1.0,"contrast":[0.5]}\n{"positive":"a","contrast":[0.5]}\n',
            encoding="utf-8",
        )
        rc = run_cli(["solve-tau", "--input", str(src), "--output", str(tmp_path / "o")])
        assert rc == 1
        assert ":2: logits must be numbers" in capsys.readouterr().err

    def test_output_independent_of_chunk_size(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(44)
        src = tmp_path / "in.jsonl"
        src.write_text(
            "".join(
                json.dumps({"positive": float(rng.normal()),
                            "contrast": rng.normal(size=int(rng.integers(1, 40))).tolist()})
                + "\n"
                for _ in range(50)
            ),
            encoding="utf-8",
        )
        whole, chunked = tmp_path / "whole.jsonl", tmp_path / "chunked.jsonl"
        assert run_cli(["solve-tau", "--input", str(src), "--output", str(whole)]) == 0
        monkeypatch.setattr(cli, "SOLVE_CHUNK", 7)
        assert run_cli(["solve-tau", "--input", str(src), "--output", str(chunked)]) == 0
        assert chunked.read_bytes() == whole.read_bytes()
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["chunked.jsonl", "in.jsonl", "whole.jsonl"]

    def test_symlinked_output_written_through(self, tmp_path, monkeypatch):
        # one line per chunk: two lines take the path through a temporary file
        monkeypatch.setattr(cli, "SOLVE_CHUNK", 1)
        fine = '{"positive":1.0,"contrast":[1.0,1.0]}\n'
        src = tmp_path / "in.jsonl"
        real = tmp_path / "results" / "out.jsonl"
        real.parent.mkdir()
        real.write_text("old\n", encoding="utf-8")
        real.chmod(0o640)
        link = tmp_path / "link.jsonl"
        link.symlink_to(real)
        argv = ["solve-tau", "--input", str(src), "--output", str(link)]
        for text in ("{broken\n", fine * 2 + "{broken\n"):
            src.write_text(text, encoding="utf-8")
            assert run_cli(argv) == 1
            assert real.read_text(encoding="utf-8") == "old\n"
        src.write_text(fine * 2, encoding="utf-8")
        assert run_cli(argv) == 0
        assert link.is_symlink() and link.resolve() == real.resolve()
        records = [json.loads(line) for line in real.read_text(encoding="utf-8").splitlines()]
        assert [rec["status"] for rec in records] == ["ClampedAtTau0"] * 2
        assert stat.S_IMODE(real.stat().st_mode) == 0o640
        assert [p.name for p in real.parent.iterdir()] == ["out.jsonl"]

    def test_missing_output_directory_names_the_output(self, tmp_path, capsys, monkeypatch):
        # one line per chunk: three lines take the path through a temporary file
        monkeypatch.setattr(cli, "SOLVE_CHUNK", 1)
        src = tmp_path / "in.jsonl"
        src.write_text('{"positive":1.0,"contrast":[0.5,2.0]}\n' * 3, encoding="utf-8")
        dst = tmp_path / "absent" / "out.jsonl"
        assert run_cli(["solve-tau", "--input", str(src), "--output", str(dst)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("io error: ") and f"'{dst}'" in err and ".tmp" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_fifo_output_written_in_place(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "SOLVE_CHUNK", 1)
        src = tmp_path / "in.jsonl"
        src.write_text('{"positive":1.0,"contrast":[1.0,1.0]}\n' * 2, encoding="utf-8")
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        # a nonblocking reader lets the command open the pipe without a thread
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert run_cli(["solve-tau", "--input", str(src), "--output", str(fifo)]) == 0
            data = os.read(reader, 1 << 16).decode("utf-8")
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert [json.loads(line)["status"] for line in data.splitlines()] == ["ClampedAtTau0"] * 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl", "out.fifo"]

# ---------------------------------------------------------------------------
# solve-tau's input contract: a record is a JSON object with exactly the keys
# positive and contrast, every logit a finite JSON number (not a bool, not a
# string), and the margins' spread over tau0 finite; anything else exits 1
# naming file:line, and no output line holds NaN or inf.

SOLVE_CFG = DroConfig(tau0=1e-3, tau_max=2.0, rho=0.5)
SOLVE_ARGS = ["--rho", "0.5", "--tau0", "0.001"]


class Raw(str):
    """JSON text written as it is."""


class Pairs(list):
    """A JSON object as its (key, value) pairs, so a key may repeat."""


def to_json(value) -> str:
    if isinstance(value, Raw):
        return value
    if isinstance(value, Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {to_json(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(to_json, value)) + "]"
    return json.dumps(value)


def strict_loads(line: str):
    """json.loads that refuses NaN and Infinity."""
    def refuse(token):
        raise ValueError(f"non-finite token {token}")
    return json.loads(line, parse_constant=refuse)


def library_lines(records, cfg=SOLVE_CFG) -> str:
    """The output the library gives valid (positive, contrast) records:
    json.dumps of newton_solve and robust_loss on each record's LogitSet."""
    solved = [(ls, newton_solve(ls, cfg)) for ls in (LogitSet(p, c) for p, c in records)]
    return "".join(
        json.dumps({"tau": sol.tau, "status": sol.status.value,
                    "loss": robust_loss(ls, sol.tau, cfg), "grad": sol.final_grad}) + "\n"
        for ls, sol in solved
    )


def contract(text: str, cfg=SOLVE_CFG):
    """The contract on one nonblank line: (None, (positive, contrast)) for a
    valid record, else (a fragment of its refusal, None)."""
    repeated = []

    def pairs_hook(pairs):
        keys = [key for key, _ in pairs]
        repeated.extend(keys[len(set(keys)):])
        return dict(pairs)

    try:
        record = json.loads(text, object_pairs_hook=pairs_hook, parse_int=Decimal)
    except json.JSONDecodeError:
        return "invalid JSON", None
    except RecursionError:
        return "invalid JSON: nested too deeply", None
    if repeated:
        return "duplicate key", None
    if not isinstance(record, dict) or set(record) != {"positive", "contrast"}:
        return "record must have exactly the keys 'positive' and 'contrast'", None
    positive, contrast = record["positive"], record["contrast"]
    if not isinstance(contrast, list):
        return "contrast must be a JSON array", None
    if not contrast:
        return "contrast set must hold at least one logit", None
    logits = [positive, *contrast]
    if not all(isinstance(x, (float, Decimal)) for x in logits):
        return "logits must be numbers", None

    def value(x):  # a JSON integer is the float int() converts to
        if isinstance(x, float):
            return x
        try:
            return float(int(x))
        except OverflowError:
            return math.inf

    positive, *contrast = map(value, logits)
    if not all(map(math.isfinite, [positive, *contrast])):
        return "logits must be finite", None
    ls = LogitSet(positive, contrast)
    with np.errstate(all="ignore"):
        h = ls.margins
        if not math.isfinite((h.max() - h.min()) / cfg.tau0):
            return "margins overflow", None
        try:
            sol = newton_solve(ls, cfg)
        except UnboundedDescentError:  # large margins put the minimizer beyond bracket_hi
            return "gradient still", None
        loss = robust_loss(ls, sol.tau, cfg)
    if not (math.isfinite(loss) and math.isfinite(sol.final_grad)):
        return "loss or gradient at the solution is not finite", None
    return None, (positive, contrast)


def run_solve(path, out, args=SOLVE_ARGS):
    """cli.main on one stream: (exit code, stdout, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(["solve-tau", "--input", str(path), "--output", str(out), *args])
    return rc, stdout.getvalue(), stderr.getvalue()


BAD_LOGITS = [
    True, False, None, "1.5", [1.0], Pairs([("a", 1.0)]),
    math.nan, math.inf, -math.inf,
    Raw("1" + "0" * 400), Raw("-" + "9" * 5000),
]
# JSON integers and float extremes a valid record may hold
ODD_LOGITS = [0, 7, -3, 10**20, Raw("-0"), 5e-324, -1e-320, 1e-320, 1e308, -1.7976931348623157e308]


@st.composite
def record_lines(draw):
    """One line of text: a record drawn at some magnitude, maybe mutated."""
    k = draw(st.one_of(st.integers(1, 8), st.integers(1, 1000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-320, 1e-3, 1.0, 30.0, 1e150, 1e306, 1.7e308]))
    contrast = (rng.uniform(-1.0, 1.0, size=k) * scale).tolist()
    positive = float(rng.uniform(-1.0, 1.0) * scale)
    if draw(st.booleans()):  # ties at the maximum: the clamp exit
        contrast[: max(1, (3 * k) // 4)] = [max(contrast)] * max(1, (3 * k) // 4)
    for _ in range(draw(st.integers(0, 2))):
        contrast[draw(st.integers(0, k - 1))] = draw(st.sampled_from(ODD_LOGITS))
    if draw(st.booleans()):
        positive = draw(st.sampled_from(ODD_LOGITS))
    pairs = Pairs([("positive", positive), ("contrast", contrast)])
    mutation = draw(st.sampled_from(
        ["none"] * 4 + ["logit", "positive", "contrast", "keys", "duplicate", "nest", "syntax"]
    ))
    if mutation == "logit":
        contrast[draw(st.integers(0, k - 1))] = draw(st.sampled_from(BAD_LOGITS))
    elif mutation == "positive":
        pairs[0] = ("positive", draw(st.sampled_from(BAD_LOGITS)))
    elif mutation == "contrast":
        pairs[1] = ("contrast", draw(st.sampled_from(
            [[], 1.0, "1.0", None, Pairs([("0", 1.0)]), [[1.0, 2.0]], [contrast]]
        )))
    elif mutation == "keys":
        pairs = draw(st.sampled_from([
            Pairs(pairs[:1]), Pairs(pairs[1:]), Pairs([*pairs, ("weight", 1.0)]),
            Pairs([("Positive", positive), pairs[1]]),
        ]))
    elif mutation == "duplicate":
        key, logit = draw(st.sampled_from([("positive", positive), ("contrast", contrast)]))
        pairs.insert(draw(st.integers(0, 2)), (key, logit))
    pairs = draw(st.permutations(pairs))
    text = to_json(Pairs(pairs))
    if mutation == "nest":
        nested = [f"[{text}]", f'{{"record": {text}}}', "[" * 3000 + "]" * 3000]
        text = draw(st.sampled_from(nested))
    elif mutation == "syntax":
        text = draw(st.sampled_from([text[:-1], text + "}", text.replace(":", "", 1), "{broken"]))
    return text


BLANK = st.sampled_from(["", " ", "\t", "  \t "])


class TestSolveTauContract:
    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(
            st.tuples(st.lists(BLANK, max_size=2), record_lines()), min_size=1, max_size=4
        )
    )
    def test_fuzzed_records_solve_or_name_their_line(self, tmp_path_factory, lines):
        """A stream of mutated records either solves, giving the library's
        bytes, or exits 1 with one error line naming its first bad line."""
        work = tmp_path_factory.mktemp("fuzz")
        text, first_bad, valid = "", None, []
        lineno = 0
        for blanks, line in lines:
            for blank in blanks:
                text += blank + "\n"
                lineno += 1
            text += line + "\n"
            lineno += 1
            refusal, record = contract(line)
            if refusal is None:
                valid.append(record)
            elif first_bad is None:
                first_bad = (lineno, refusal)
        src, dst = work / "in.jsonl", work / "out.jsonl"
        src.write_text(text, encoding="utf-8")
        rc, out, err = run_solve(src, dst)
        if first_bad is None:
            assert (rc, err) == (0, "")
            output = dst.read_text(encoding="utf-8")
            assert output == library_lines(valid)
            assert [set(strict_loads(line)) for line in output.splitlines()] == [
                {"tau", "status", "loss", "grad"}
            ] * len(valid)
        else:
            lineno, refusal = first_bad
            assert rc == 1 and out == "" and not dst.exists()
            assert err.startswith(f"error: {src}:{lineno}: ") and err.count("\n") == 1, err
            assert refusal in err, err

    @settings(max_examples=150, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(
            ["fine"] * 6 + ["blank", "unbounded", "malformed", "string", "nan", "overflow"]
        ), min_size=1, max_size=14),
        chunk=st.integers(1, 5),
        k=st.integers(1, 4),
    )
    def test_first_bad_line_wins_across_chunks(self, tmp_path_factory, kinds, chunk, k):
        """Under rho = 0 spread margins have no bounded minimizer, so a line
        may fail to parse, be refused, or fail to solve: whichever comes
        first in the file is named, in whatever chunk it falls."""
        lines = {
            "fine": json.dumps({"positive": 0.0, "contrast": [1.0] * k}),
            "blank": "",
            "unbounded": json.dumps({"positive": 0.0, "contrast": [0.0, 1.0] * k}),
            "malformed": "{broken",
            "string": json.dumps({"positive": 0.0, "contrast": ["1.0"] * k}),
            "nan": json.dumps({"positive": 0.0, "contrast": [math.nan] * k}),
            "overflow": json.dumps({"positive": 0.0, "contrast": [1e308, -1e308] * k}),
        }
        messages = {
            "unbounded": "gradient still", "malformed": "invalid JSON",
            "string": "logits must be numbers", "nan": "logits must be finite",
            "overflow": "margins overflow",
        }
        work = tmp_path_factory.mktemp("chunks")
        src, dst = work / "in.jsonl", work / "out.jsonl"
        src.write_text("".join(lines[kind] + "\n" for kind in kinds), encoding="utf-8")
        with mock.patch.object(cli, "SOLVE_CHUNK", chunk):
            rc, _, err = run_solve(src, dst, ["--rho", "0"])
        bad = [(i, kind) for i, kind in enumerate(kinds, start=1) if kind in messages]
        if not bad:
            assert (rc, err) == (0, "")
            fine = kinds.count("fine")
            assert dst.read_text(encoding="utf-8").count("ClampedAtTau0") == fine
        else:
            lineno, kind = bad[0]
            assert rc == 1 and not dst.exists()
            assert err.startswith(f"error: {src}:{lineno}: {messages[kind]}"), err

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_output_bytes_equal_the_library(self, tmp_path, monkeypatch, seed):
        """Mixed-K streams, integers and extremes included, give the bytes of
        json.dumps over newton_solve and robust_loss, at any chunk size."""
        rng = np.random.default_rng(seed)
        records, text = [], ""
        for _ in range(300):
            k = int(rng.choice([1, 2, 8, 64, 512, 1000]))
            scale = float(rng.choice([1e-320, 1e-3, 1.0, 10.0, 30.0]))
            contrast = (rng.normal(size=k) * scale).tolist()
            if rng.random() < 0.25:  # ties at the maximum: the clamp exit
                contrast[: (3 * k + 3) // 4] = [max(contrast)] * ((3 * k + 3) // 4)
            positive = float(rng.normal() * scale)
            if rng.random() < 0.2:  # integer logits, -0 included
                positive, contrast[0] = int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
            text += json.dumps({"positive": positive, "contrast": contrast}) + "\n"
            records.append((float(positive), [float(x) for x in contrast]))
        text = text.replace('"positive": 0,', '"positive": -0,')
        src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        src.write_text(text, encoding="utf-8")
        expected = library_lines(records)
        for chunk in (1024, 37):
            monkeypatch.setattr(cli, "SOLVE_CHUNK", chunk)
            assert run_solve(src, dst)[0] == 0
            output = dst.read_text(encoding="utf-8")
            assert output == expected
            for line in output.splitlines():
                strict_loads(line)

    @pytest.mark.parametrize("line, message", [
        ('{"positive": 1%s, "contrast": [0.5]}' % ("0" * 400), "logits must be finite"),
        ('{"positive": 1.0, "contrast": [0.5, -%s]}' % ("9" * 5000), "logits must be finite"),
        ('{"positive": NaN, "contrast": [0.5]}', "logits must be finite"),
        ('{"positive": 1.0, "contrast": [0.5, Infinity]}', "logits must be finite"),
        ('{"positive": 0.0, "contrast": [1e308, -1e308]}',
         "margins overflow: (max - min) of contrast - positive, over tau0, is not finite"),
        # a finite spread whose quotient by tau0 = 1e-3 overflows
        ('{"positive": 0.0, "contrast": [1e307, -1e307]}',
         "margins overflow: (max - min) of contrast - positive, over tau0, is not finite"),
        ('{"positive": 1.0, "contrast": [0.5], "positive": 2.0}', "duplicate key 'positive'"),
        ('{"positive": true, "contrast": [0.5]}', "logits must be numbers"),
        ('{"positive": 1.0, "contrast": [0.5, false]}', "logits must be numbers"),
        ('{"positive": "1", "contrast": ["2", "3"]}', "logits must be numbers"),
        ('{"positive": 1.0, "contrast": [[0.5]]}', "logits must be numbers"),
        ('{"positive": 1.0, "contrast": 0.5}', "contrast must be a JSON array of logits"),
        ("[" * 100_000, "invalid JSON: nested too deeply"),
    ])
    def test_refused_with_one_line(self, tmp_path, line, message):
        src = tmp_path / "in.jsonl"
        src.write_text('{"positive": 1.0, "contrast": [0.5]}\n' + line + "\n", encoding="utf-8")
        rc, out, err = run_solve(src, tmp_path / "out.jsonl")
        assert (rc, out) == (1, "")
        assert err == f"error: {src}:2: {message}\n"

    def test_overflowing_loss_is_refused(self, tmp_path):
        # clamped at tau0 = 1e-3, the loss h + tau0 * rho leaves the float range
        src = tmp_path / "in.jsonl"
        src.write_text('{"positive": -8.985e307, "contrast": [8.985e307]}\n', encoding="utf-8")
        rc, _, err = run_solve(src, tmp_path / "out.jsonl", ["--rho", "1e308"])
        assert rc == 1
        assert err == f"error: {src}:1: loss or gradient at the solution is not finite\n"

    def test_integer_logits_solve_as_their_floats(self, tmp_path):
        src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        src.write_text(
            '{"positive": -0, "contrast": [-0, 1, 2]}\n'
            '{"positive": 0.0, "contrast": [0.0, 1.0, 2.0]}\n'
            # beyond 2**53 an integer rounds as float() rounds it
            '{"positive": 12345678901234567891, "contrast": [12345678901234567890]}\n'
            '{"positive": 12345678901234567891.0, "contrast": [12345678901234567890.0]}\n',
            encoding="utf-8",
        )
        assert run_solve(src, dst)[0] == 0
        lines = dst.read_text(encoding="utf-8").splitlines()
        assert lines[0] == lines[1] and lines[2] == lines[3]


# ---------------------------------------------------------------------------
# train-lm


class TestTrainLm:
    def test_run_directory_contents(self, lm_run):
        for name in ("config.resolved", "metrics.csv", "checkpoint.bin", "temperatures.csv"):
            assert (lm_run / name).exists(), name

    def test_resolved_snapshot_reproduces_run(self, lm_run, tmp_path):
        out = tmp_path / "replay"
        rc = run_cli(
            ["train-lm", "--config", str(lm_run / "config.resolved"), "--out", str(out)]
        )
        assert rc == 0
        assert (out / "metrics.csv").read_bytes() == (lm_run / "metrics.csv").read_bytes()
        assert (
            out / "temperatures.csv"
        ).read_bytes() == (lm_run / "temperatures.csv").read_bytes()

    def test_same_seed_rerun_byte_identical(self, lm_run, tmp_path):
        out = tmp_path / "again"
        assert run_cli(["train-lm", "--out", str(out)] + LM_OVERRIDES) == 0
        assert (out / "metrics.csv").read_bytes() == (lm_run / "metrics.csv").read_bytes()

    @pytest.mark.parametrize("objective", ["robust", "ce"])
    def test_temperatures_equal_export_from_checkpoint(self, tmp_path, objective):
        # train-lm writes the final evaluation's taus; export-temps recomputes
        # them from the checkpoint, and the two files must agree byte for byte
        out = tmp_path / "run"
        argv = ["train-lm", "--out", str(out), *LM_OVERRIDES, f"task.objective={objective}"]
        assert run_cli(argv) == 0
        exported = tmp_path / "export.csv"
        rc = run_cli(
            ["export-temps", "--checkpoint", str(out / "checkpoint.bin"),
             "--corpus", CORPUS, "--output", str(exported)]
        )
        assert rc == 0
        assert (out / "temperatures.csv").read_bytes() == exported.read_bytes()
        _, taus = read_taus(exported)
        assert (taus == 1.0).all() if objective == "ce" else np.unique(taus).size > 1

    def test_steps_reuse_the_freed_heap(self, tmp_path):
        # each step frees its tape's temporaries; the next step must get them
        # back from the heap, not as fresh pages from the OS (a heap trimmed
        # after every step costs 60-300 minor faults per step at this shape)
        argv = ["train-lm", "--out", str(tmp_path / "run"), f"data.corpus={CORPUS}",
                "train.total_steps=40", "train.eval_every=40"]
        assert run_cli(argv) == 0
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert run_cli(argv) == 0
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 40 * 25

    def test_missing_corpus_names_key(self, tmp_path, capsys):
        rc = run_cli(["train-lm", "--out", str(tmp_path / "x"), "train.total_steps=5"])
        assert rc == 1
        assert "data.corpus" in capsys.readouterr().err

    def test_invalid_mode_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["train-lm", "--out", str(tmp_path / "x"), "--mode", "warmstart"])
        assert exc.value.code == 2

    def test_overrides_after_an_option_are_applied(self, lm_run, tmp_path):
        split = ["train-lm", "--out", str(tmp_path / "a"), LM_OVERRIDES[0],
                 "--mode", "tempnet-only", "train.total_steps=2", *LM_OVERRIDES[4:],
                 f"task.init_from={lm_run / 'checkpoint.bin'}"]
        # total_steps=3 before the option and =2 after it: the later one must win
        leading = ["train-lm", LM_OVERRIDES[0], "train.total_steps=3", "--out",
                   str(tmp_path / "b"), "train.total_steps=2"]
        for out, argv in ((tmp_path / "a", split), (tmp_path / "b", leading)):
            assert run_cli(argv) == 0
            assert "train.total_steps = 2\n" in (out / "config.resolved").read_text()
            assert tr.read_metrics(out / "metrics.csv")[-1]["step"] == 2
        assert "task.mode = tempnet-only\n" in (tmp_path / "a" / "config.resolved").read_text()

    def test_unknown_option_among_overrides_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["train-lm", "--out", str(tmp_path / "x"), f"data.corpus={CORPUS}",
                     "--bogus", "train.total_steps=2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bogus\n" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_invalid_mode_override_rejected(self, tmp_path, capsys):
        rc = run_cli(
            ["train-lm", "--out", str(tmp_path / "x"), "task.mode=warmstart"]
            + LM_OVERRIDES
        )
        assert rc == 1
        assert "mode" in capsys.readouterr().err

    def test_tempnet_only_preserves_foundation(self, lm_run, tmp_path):
        out = tmp_path / "frozen"
        rc = run_cli(
            ["train-lm", "--out", str(out), "--mode", "tempnet-only",
             f"task.init_from={lm_run / 'checkpoint.bin'}",
             "train.total_steps=8", "train.eval_every=8"]
            + LM_OVERRIDES[:1] + LM_OVERRIDES[4:]
        )
        assert rc == 0
        before = tr.load_checkpoint(lm_run / "checkpoint.bin")
        after = tr.load_checkpoint(out / "checkpoint.bin")
        for (name, kept), (_, trained) in zip(before.foundation.tensors(), after.foundation.tensors()):
            assert np.array_equal(kept.data, trained.data), name


@pytest.fixture(scope="module")
def frozen_sharp_lm(tmp_path_factory):
    # random text over a 512-symbol alphabet and a frozen model with a
    # randomized, sharpened output head: the temperature gradient
    # rho - KL then orders the descent speed by rho throughout training
    root = tmp_path_factory.mktemp("rho_sweep")
    rng = np.random.default_rng(7)
    alphabet = "".join(chr(0x100 + i) for i in range(512))
    text = alphabet + "".join(alphabet[i] for i in rng.integers(512, size=20000))
    corpus = root / "synth.txt"
    corpus.write_text(text, encoding="utf-8")
    run = tr.TrainConfig(
        total_steps=1, batch_size=4, seed=3,
        cfg=DroConfig(tau0=1e-3, tau_max=2.0, rho=8.0), eval_every=1,
    )
    task = tr.LmTask(
        corpus_path=str(corpus), context_len=8, d_model=16, d_ff=32,
        tempnet_d1=8, tempnet_d2=4,
    )
    ckpt, _ = tr.train(run, task, root / "base", stop_at_step=0)
    for name, tensor in ckpt.foundation.tensors():
        if "out_proj" in name:
            tensor.data = 4.0 * rng.normal(size=tensor.data.shape)
    tr.save_checkpoint(ckpt, root / "base" / "checkpoint.bin")
    return root, corpus


class TestRhoDirection:
    """Larger divergence radius pushes the learned temperatures down."""

    def final_tau_mean(self, root, corpus, rho):
        out = root / f"rho{rho}"
        rc = run_cli(
            ["train-lm", "--out", str(out), "--mode", "tempnet-only",
             "--rho", str(rho),
             f"data.corpus={corpus}",
             f"task.init_from={root / 'base' / 'checkpoint.bin'}",
             "train.total_steps=200", "train.eval_every=200",
             "train.tempnet_lr=1.0", "train.eps=10.0", "train.weight_decay=0.0",
             "train.seed=1", "lm.context_len=8", "lm.d_model=16", "lm.d_ff=32",
             "tempnet.d1=8", "tempnet.d2=4"]
        )
        assert rc == 0
        return tr.read_metrics(out / "metrics.csv")[-1]["tau_mean"]

    def test_rho_8_keeps_higher_temperatures_than_rho_11(self, frozen_sharp_lm):
        root, corpus = frozen_sharp_lm
        mean_8 = self.final_tau_mean(root, corpus, 8)
        mean_11 = self.final_tau_mean(root, corpus, 11)
        assert mean_8 > mean_11


# ---------------------------------------------------------------------------
# train-cl


class TestTrainCl:
    def test_run_directory_contents(self, cl_run):
        out, _ = cl_run
        for name in ("config.resolved", "metrics.csv", "checkpoint.bin", "temperatures.csv"):
            assert (out / name).exists(), name

    def test_temperatures_cover_both_sides(self, cl_run):
        out, _ = cl_run
        header, taus = read_taus(out / "temperatures.csv")
        assert header == "index,side,tau"
        lines = (out / "temperatures.csv").read_text().strip().split("\n")[1:]
        sides = [line.split(",")[1] for line in lines]
        # eval split of 60 pairs at 0.25 is 15 per side
        assert sides.count("image") == 15 and sides.count("text") == 15
        assert taus.size == 30

    @pytest.mark.parametrize("objective", ["robust", "fixed"])
    def test_temperatures_equal_export_from_checkpoint(self, cl_run, tmp_path, objective):
        # train-cl writes the final evaluation's taus, a fixed objective's two
        # taus spread over the eval pairs; export-temps must write the same
        _, pairs = cl_run
        out = tmp_path / "run"
        argv = ["train-cl", "--out", str(out), f"data.pairs={pairs}", *CL_OVERRIDES,
                f"task.objective={objective}"]
        assert run_cli(argv) == 0
        exported = tmp_path / "export.csv"
        rc = run_cli(
            ["export-temps", "--checkpoint", str(out / "checkpoint.bin"),
             "--pairs", str(pairs), "--output", str(exported)]
        )
        assert rc == 0
        assert (out / "temperatures.csv").read_bytes() == exported.read_bytes()
        _, taus = read_taus(exported)
        assert taus.size == 30
        assert (taus == 0.05).all() if objective == "fixed" else np.unique(taus).size > 2

    def test_missing_pairs_names_key(self, tmp_path, capsys):
        rc = run_cli(["train-cl", "--out", str(tmp_path / "x"), "train.total_steps=5"])
        assert rc == 1
        assert "data.pairs" in capsys.readouterr().err


class TestNonFiniteSettings:
    """Settings the loop would only meet at its first step are refused by
    name, with exit 1 and one stderr line."""

    @pytest.mark.parametrize(
        "command, override, message",
        [
            ("train-lm", "lm.context_len=0", "context_len must be >= 1, got 0"),
            ("train-lm", "train.eps=nan", "eps must be finite, got nan"),
            ("train-lm", "train.eps=inf", "eps must be finite, got inf"),
            ("train-cl", "cl.fixed_tau1=nan", "fixed_tau1 must be finite, got nan"),
            ("train-cl", "cl.fixed_tau1=inf", "fixed_tau1 must be finite, got inf"),
            ("train-lm", "train.seed=-1", "seed must be >= 0, got -1"),
            ("train-cl", "train.seed=-1", "seed must be >= 0, got -1"),
            ("train-lm", "lm.context_len=1", "context_len must be in [2, 64], got 1"),
            ("train-cl", "cl.fixed_tau1=0", "fixed_tau1 must be positive, got 0.0"),
            ("train-cl", "cl.fixed_tau1=-1", "fixed_tau1 must be positive, got -1.0"),
            ("train-cl", "cl.fixed_tau2=0", "fixed_tau2 must be positive, got 0.0"),
        ],
    )
    def test_refused_by_name(self, tmp_path, capsys, command, override, message):
        data = f"data.corpus={CORPUS}" if command == "train-lm" else f"data.pairs={FIXTURE}"
        argv = [command, "--out", str(tmp_path / "run"), data, "train.total_steps=2", override]
        capsys.readouterr()
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


# every key of both schemas, but the data paths and init_from, with each of
# these values, at 2 steps on the smallest shapes each family accepts
SWEEP_VALUES = ["nan", "inf", "-inf", "-1", "0", "1e308", ""]
SWEEP_BASE = {
    "train-lm": [f"data.corpus={CORPUS}", "train.batch_size=1", "lm.context_len=2",
                 "lm.d_model=1", "lm.d_ff=1"],
    "train-cl": [f"data.pairs={FIXTURE}", "train.batch_size=2", "cl.hidden=1", "cl.out_dim=1"],
}
SWEEP_KEYS = [
    (command, key)
    for command, schema in (("train-lm", cli._LM_SCHEMA), ("train-cl", cli._CL_SCHEMA))
    for key in schema
    if not key.startswith("data.") and key != "task.init_from"
]
# 1e308 for a scale, rate or decay that the config does not bound yet: the
# run ends as a divergence that does not name the key
SWEEP_DIVERGES = {
    ("train-lm", "dro.tau_max"), ("train-lm", "dro.rho"), ("train-lm", "train.tempnet_lr"),
    ("train-cl", "dro.tau_max"), ("train-cl", "dro.rho"), ("train-cl", "train.base_lr"),
    ("train-cl", "train.weight_decay"),
}


class TestConfigSweep:
    """Each bad value of each key exits 0 with nothing on stderr, or exits 1
    with one error line that names the key's field; none ends in a traceback."""

    @pytest.mark.parametrize("command, key", SWEEP_KEYS, ids=[" ".join(c) for c in SWEEP_KEYS])
    def test_bad_values(self, tmp_path, capsys, command, key):
        field = key.rsplit(".", 1)[1]
        for n, value in enumerate(SWEEP_VALUES):
            argv = [command, "--out", str(tmp_path / str(n)), *SWEEP_BASE[command],
                    "train.total_steps=2", "train.eval_every=2", "tempnet.d1=1", "tempnet.d2=1",
                    f"{key}={value}"]
            capsys.readouterr()
            rc = run_cli(argv)
            err = capsys.readouterr().err
            diverges = value == "1e308" and (command, key) in SWEEP_DIVERGES
            if rc == 0:
                assert err == "" and not diverges, (value, err)
                continue
            assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1, (value, err)
            assert err.startswith("error: training diverged at step ") == diverges, err
            assert diverges or field in err, (value, err)

    @pytest.mark.parametrize("command, key", [
        ("train-lm", "train.base_lr"), ("train-lm", "train.weight_decay"),
        ("train-cl", "train.tempnet_lr"),
    ])
    def test_overflowing_weights_evaluate_quietly(self, tmp_path, capsys, command, key):
        # step 1 leaves weights near the float limit; each evaluation of them
        # overflows inside numpy, checks its own result and warns nothing
        run_dir = tmp_path / "run"
        argv = [command, "--out", str(run_dir), *SWEEP_BASE[command], "train.total_steps=2",
                "train.eval_every=2", "tempnet.d1=1", "tempnet.d2=1", f"{key}=1e308"]
        assert run_cli(argv) == 0
        data = ["--corpus", CORPUS] if command == "train-lm" else ["--pairs", FIXTURE]
        ckpt = str(run_dir / "checkpoint.bin")
        capsys.readouterr()
        assert run_cli(["eval", "--checkpoint", ckpt, *data, "--out", str(tmp_path / "e")]) == 0
        assert run_cli(["export-temps", "--checkpoint", ckpt, *data,
                        "--output", str(tmp_path / "t")]) == 0
        assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# eval


class TestEval:
    def test_uniform_model_perplexity_is_vocab_size(self, uniform_ckpt, tmp_path, capsys):
        out_csv = tmp_path / "eval.csv"
        rc = run_cli(
            ["eval", "--checkpoint", str(uniform_ckpt), "--corpus", CORPUS,
             "--out", str(out_csv)]
        )
        assert rc == 0
        k = md.build_vocab(md.load_corpus(CORPUS)).size
        line = out_csv.read_text().strip().split("\n")[1]
        assert line.startswith("perplexity,")
        assert float(line.split(",")[1]) == pytest.approx(k, abs=1e-6)
        assert "perplexity" in capsys.readouterr().out

    def test_csv_lands_next_to_checkpoint_by_default(self, lm_run):
        rc = run_cli(
            ["eval", "--checkpoint", str(lm_run / "checkpoint.bin"), "--corpus", CORPUS]
        )
        assert rc == 0
        assert (lm_run / "eval.csv").exists()

    def test_tau_ceiling_rescales_at_inference(self, lm_run, tmp_path):
        base = tmp_path / "base.csv"
        wide = tmp_path / "wide.csv"
        assert run_cli(
            ["eval", "--checkpoint", str(lm_run / "checkpoint.bin"),
             "--corpus", CORPUS, "--out", str(base)]
        ) == 0
        assert run_cli(
            ["eval", "--checkpoint", str(lm_run / "checkpoint.bin"),
             "--corpus", CORPUS, "--tau-max-eval", "5.0", "--out", str(wide)]
        ) == 0
        ppl_base = float(base.read_text().strip().split("\n")[1].split(",")[1])
        ppl_wide = float(wide.read_text().strip().split("\n")[1].split(",")[1])
        assert ppl_base != ppl_wide

    def test_fixture_recall_matches_brute_force(self, fixture_cl_ckpt, tmp_path):
        out_csv = tmp_path / "eval.csv"
        rc = run_cli(
            ["eval", "--checkpoint", str(fixture_cl_ckpt), "--pairs", FIXTURE,
             "--k", "1", "--out", str(out_csv)]
        )
        assert rc == 0
        reported = {}
        for line in out_csv.read_text().strip().split("\n")[1:]:
            name, value = line.split(",")
            reported[name] = float(value)

        ckpt = tr.load_checkpoint(fixture_cl_ckpt)
        pairs = md.load_pairs_csv(FIXTURE)
        cut = pairs.n - max(2, int(round(pairs.n * 0.25)))
        from drotemp.diff_engine import Tensor

        e_img = md.encode_image(ckpt.foundation, Tensor(pairs.x[cut:])).data
        e_txt = md.encode_text(ckpt.foundation, Tensor(pairs.t[cut:])).data
        scores = e_img @ e_txt.T
        n = scores.shape[0]
        brute_img = float(np.mean(scores.argmax(axis=1) == np.arange(n)))
        brute_txt = float(np.mean(scores.argmax(axis=0) == np.arange(n)))
        assert reported["image_retrieval_recall@1"] == brute_img
        assert reported["text_retrieval_recall@1"] == brute_txt

    def test_lm_checkpoint_requires_corpus(self, lm_run, capsys):
        rc = run_cli(["eval", "--checkpoint", str(lm_run / "checkpoint.bin")])
        assert rc == 1
        assert "--corpus" in capsys.readouterr().err

    def test_cl_checkpoint_requires_pairs(self, fixture_cl_ckpt, capsys):
        rc = run_cli(["eval", "--checkpoint", str(fixture_cl_ckpt)])
        assert rc == 1
        assert "--pairs" in capsys.readouterr().err

    def test_missing_checkpoint_is_io_error(self, tmp_path):
        rc = run_cli(
            ["eval", "--checkpoint", str(tmp_path / "none.bin"), "--corpus", CORPUS]
        )
        assert rc == 2

    def test_checkpoint_meta_missing_a_key_exits_1(self, lm_run, tmp_path, capsys):
        damaged = with_meta(lm_run / "checkpoint.bin", tmp_path, lambda meta: meta.pop("step"))
        rc = run_cli(["eval", "--checkpoint", str(damaged), "--corpus", CORPUS])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: checkpoint section 'meta' is missing 'step'\n"

    def test_checkpoint_without_recorded_task_exits_1(self, lm_run, tmp_path, capsys):
        # eval rebuilds the run from meta.extra's task; without one it cannot
        def drop_task(meta):
            meta["extra"].pop("task")

        damaged = with_meta(lm_run / "checkpoint.bin", tmp_path, drop_task)
        rc = run_cli(["eval", "--checkpoint", str(damaged), "--corpus", CORPUS])
        assert rc == 1
        assert capsys.readouterr().err == "error: checkpoint section 'meta' is missing 'task'\n"

    def test_pairs_train_cl_rejects_are_rejected_by_eval(self, fixture_cl_ckpt, tmp_path, capsys):
        # 3 pairs leave 1 for training: train-cl refuses the split, and eval
        # must refuse the same file rather than score a split it never used
        small = md.load_pairs_csv(FIXTURE)
        path = tmp_path / "three.csv"
        md.save_pairs_csv(path, md.PairBatch(small.x[:3], small.t[:3]))
        rc = run_cli(["train-cl", "--out", str(tmp_path / "run"), f"data.pairs={path}"])
        assert rc == 1
        train_err = capsys.readouterr().err
        rc = run_cli(["eval", "--checkpoint", str(fixture_cl_ckpt), "--pairs", str(path)])
        assert rc == 1
        eval_err = capsys.readouterr().err
        assert eval_err == train_err
        assert eval_err.startswith("error: 3 pairs") and "Traceback" not in eval_err

    @pytest.mark.parametrize("header", [
        "t0,t1,t2,t3,t4,t5,x0,x1,x2,x3,x4,x5",  # the sides swapped
        "x0,xylophone,x2,x3,x4,x5,t0,t1,t2,t3,t4,t5",  # an x-named stranger
    ], ids=["swapped", "stranger"])
    def test_pairs_header_out_of_layout_exits_1(self, fixture_cl_ckpt, tmp_path, capsys, header):
        # a header save_pairs_csv would not write is refused, not read by
        # first letters into the wrong sides or a wrong split of the widths
        with open(FIXTURE, encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
        path = tmp_path / "pairs.csv"
        path.write_text("\n".join([header] + rows) + "\n")
        argvs = [
            ["train-cl", "--out", str(tmp_path / "run"), f"data.pairs={path}"],
            ["eval", "--checkpoint", str(fixture_cl_ckpt), "--pairs", str(path)],
        ]
        for argv in argvs:
            assert run_cli(argv) == 1
            err = capsys.readouterr().err
            assert err == f"error: pair file {path} has a malformed header: {header.split(',')!r}\n"

    def test_pairs_field_over_the_csv_limit_exits_1(self, fixture_cl_ckpt, tmp_path, capsys):
        path = tmp_path / "pairs.csv"
        with open(FIXTURE, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines[2] = "1" * 200_000 + lines[2][lines[2].index(","):]
        path.write_text("\n".join(lines) + "\n")
        argvs = [
            ["train-cl", "--out", str(tmp_path / "run"), f"data.pairs={path}"],
            ["eval", "--checkpoint", str(fixture_cl_ckpt), "--pairs", str(path)],
        ]
        for argv in argvs:
            assert run_cli(argv) == 1
            err = capsys.readouterr().err
            assert err == f"error: {path}:3: field larger than field limit (131072)\n"

    def test_transfer_pairs_evaluate_where_training_refuses(self, cl_run, tmp_path, capsys):
        # 4 pairs split 2 / 2: too few for a batch of 16, enough to evaluate
        _, pairs = cl_run
        trained = tmp_path / "b16"
        short = ["train.batch_size=16", "train.total_steps=2", "train.eval_every=2"]
        argv = ["train-cl", "--out", str(trained), f"data.pairs={pairs}", *CL_OVERRIDES, *short]
        assert run_cli(argv) == 0
        full = md.load_pairs_csv(pairs)
        four = tmp_path / "four.csv"
        md.save_pairs_csv(four, md.PairBatch(full.x[:4], full.t[:4]))
        ckpt = str(trained / "checkpoint.bin")
        rc = run_cli(["eval", "--checkpoint", ckpt, "--pairs", str(four), "--k", "2",
                      "--out", str(tmp_path / "eval.csv")])
        assert rc == 0
        rc = run_cli(["export-temps", "--checkpoint", ckpt, "--pairs", str(four),
                      "--output", str(tmp_path / "t.csv")])
        assert rc == 0
        header, taus = read_taus(tmp_path / "t.csv")
        assert header == "index,side,tau" and taus.size == 4
        capsys.readouterr()
        argv = ["train-cl", "--out", str(tmp_path / "run"), f"data.pairs={four}", *CL_OVERRIDES,
                *short]
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == "error: batch_size 16 exceeds the 2 training pairs\n"


class TestOpenRunRefusals:
    """eval and export-temps refuse, with exit 1 and one stderr line and no
    output file, what they cannot open a finished run with."""

    def refused(self, capsys, tmp_path, command, ckpt, data):
        out_path = tmp_path / "out.csv"
        target = ["--out", str(out_path)] if command == "eval" else ["--output", str(out_path)]
        capsys.readouterr()
        rc = run_cli([command, "--checkpoint", str(ckpt), *data, *target])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out_path.exists()
        return err

    @pytest.fixture(params=["lm", "cl"])
    def finished(self, request, lm_run, cl_run):
        """(kind, checkpoint, data arguments) of a trained robust run."""
        if request.param == "lm":
            return "lm", lm_run / "checkpoint.bin", ["--corpus", CORPUS]
        return "cl", cl_run[0] / "checkpoint.bin", ["--pairs", str(cl_run[1])]

    @pytest.mark.parametrize("command", ["eval", "export-temps"])
    def test_infinite_tau_ceiling(self, finished, tmp_path, capsys, command):
        _, ckpt, data = finished
        err = self.refused(capsys, tmp_path, command, ckpt, [*data, "--tau-max-eval", "inf"])
        assert err == "error: tau_max must be finite, got inf\n"

    @pytest.fixture(scope="class", params=["ce", "fixed"])
    def baseline(self, request, tmp_path_factory, cl_run):
        """(checkpoint, data arguments) of a trained run that holds no TempNet."""
        out = tmp_path_factory.mktemp(request.param)
        if request.param == "ce":
            argv, data = ["train-lm", *LM_OVERRIDES], ["--corpus", CORPUS]
        else:
            pairs = str(cl_run[1])
            argv, data = ["train-cl", f"data.pairs={pairs}", *CL_OVERRIDES], ["--pairs", pairs]
        assert run_cli([*argv, "--out", str(out), f"task.objective={request.param}"]) == 0
        return out / "checkpoint.bin", data

    @pytest.mark.parametrize("command", ["eval", "export-temps"])
    @pytest.mark.parametrize("value, message", [
        ("nan", "tau_max must be finite, got nan"),
        ("inf", "tau_max must be finite, got inf"),
        ("-5", "tau_max must exceed tau0, got tau_max=-5.0 tau0=0.001"),
        ("0.0001", "tau_max must exceed tau0, got tau_max=0.0001 tau0=0.001"),
    ], ids=["nan", "inf", "-5", "0.0001"])
    def test_tau_ceiling_checked_without_tempnets(
        self, baseline, tmp_path, capsys, command, value, message
    ):
        ckpt, data = baseline
        err = self.refused(capsys, tmp_path, command, ckpt, [*data, "--tau-max-eval", value])
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["eval", "export-temps"])
    def test_valid_tau_ceiling_without_tempnets_changes_nothing(
        self, baseline, tmp_path, command
    ):
        ckpt, data = baseline
        flag = "--out" if command == "eval" else "--output"
        outputs = []
        for name, extra in (("plain.csv", []), ("stretched.csv", ["--tau-max-eval", "5.0"])):
            out_path = tmp_path / name
            assert run_cli([command, "--checkpoint", str(ckpt), *data, *extra,
                            flag, str(out_path)]) == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_recall_cutoff_below_one(self, finished, tmp_path, capsys, k):
        kind, ckpt, data = finished
        err = self.refused(capsys, tmp_path, "eval", ckpt, [*data, "--k", k])
        if kind == "lm":
            assert err == f"error: k must be >= 1, got {k}\n"
        else:  # recall_at_k's own refusal, with the held-out pair count
            assert err.startswith("error: k must be in [1, ") and err.endswith(f"got {k}\n"), err

    @pytest.mark.parametrize("command", ["eval", "export-temps"])
    def test_checkpoint_short_of_a_tempnet(self, finished, tmp_path, capsys, command):
        # CRC-valid, but its recorded robust task needs one TempNet more
        _, source, data = finished
        ckpt = tr.load_checkpoint(source)
        bad = tmp_path / "short.bin"
        tr.save_checkpoint(dataclasses.replace(ckpt, tempnets=ckpt.tempnets[:-1]), bad)
        err = self.refused(capsys, tmp_path, command, bad, data)
        assert err.startswith("error: checkpoint holds TempNets ["), err

    @pytest.mark.parametrize("command", ["eval", "export-temps"])
    def test_data_of_another_shape_names_both(self, finished, tmp_path, capsys, command):
        kind, ckpt, _ = finished
        if kind == "lm":
            corpus = tmp_path / "abc.txt"
            corpus.write_text("abc " * 200, encoding="utf-8")
            trained = tr.load_checkpoint(ckpt).foundation.cfg.vocab_size
            data, sizes = ["--corpus", str(corpus)], ("vocab_size=4,", f"vocab_size={trained},")
        else:
            narrow = tmp_path / "narrow.csv"
            md.save_pairs_csv(narrow, md.gen_clustered_pairs(20, 4, 2, 0.2, seed=1))
            data, sizes = ["--pairs", str(narrow)], ("img_dim=4,", "img_dim=6,")
        err = self.refused(capsys, tmp_path, command, ckpt, data)
        assert all(size in err for size in sizes), err


# ---------------------------------------------------------------------------
# verify


class TestNonFiniteCheckpoint:
    """A checkpoint holding one NaN weight, or one array short by a column,
    written with valid checksums: eval, export-temps and a warm start from it
    exit 1 with one stderr line and write nothing."""

    @staticmethod
    def damaged(lm_run, cl_run, tmp_path, kind, damage, weight=None):
        """(checkpoint path, data arguments, damaged array's name)."""
        if kind == "lm":
            source, data = lm_run / "checkpoint.bin", ["--corpus", CORPUS]
            weight = weight or "blocks.0.Wq"
        else:
            run_dir, pairs = cl_run
            source, data = run_dir / "checkpoint.bin", ["--pairs", str(pairs)]
            weight = weight or "image.W2"
        ckpt = tr.load_checkpoint(source)
        tensor = dict(ckpt.foundation.tensors())[weight]
        if damage == "nan":
            tensor.data.reshape(-1)[0] = np.nan
        else:
            tensor.data = tensor.data[:, :-1].copy()
        bad = tmp_path / "checkpoint.bin"
        tr.save_checkpoint(ckpt, bad)
        return bad, data, weight

    @staticmethod
    def refused(capsys, tmp_path, command, bad, data):
        out_path = tmp_path / "out.csv"
        target = ["--out", str(out_path)] if command == "eval" else ["--output", str(out_path)]
        capsys.readouterr()
        rc = run_cli([command, "--checkpoint", str(bad), *data, *target])
        out, err = capsys.readouterr()
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "nan" not in out.lower()
        assert not out_path.exists()
        return err

    @pytest.mark.parametrize("command", ["eval", "export-temps"])
    @pytest.mark.parametrize("kind", ["lm", "cl"])
    def test_exits_1_with_one_line(self, lm_run, cl_run, tmp_path, capsys, kind, command):
        bad, data, _ = self.damaged(lm_run, cl_run, tmp_path, kind, "nan")
        self.refused(capsys, tmp_path, command, bad, data)

    @pytest.mark.parametrize("command", ["eval", "export-temps"])
    @pytest.mark.parametrize("kind", ["lm", "cl"])
    def test_wrong_shape_names_the_array(self, lm_run, cl_run, tmp_path, capsys, kind, command):
        bad, data, weight = self.damaged(lm_run, cl_run, tmp_path, kind, "short")
        err = self.refused(capsys, tmp_path, command, bad, data)
        assert f"{weight} must have shape" in err, err

    @pytest.mark.parametrize("command", ["eval", "export-temps"])
    def test_wrong_embedding_shape_names_it(self, lm_run, cl_run, tmp_path, capsys, command):
        bad, data, _ = self.damaged(lm_run, cl_run, tmp_path, "lm", "short", weight="emb")
        err = self.refused(capsys, tmp_path, command, bad, data)
        assert "emb must have shape" in err, err

    @pytest.mark.parametrize("kind", ["lm", "cl"])
    def test_warm_start_from_wrong_shape_names_the_array(
        self, lm_run, cl_run, tmp_path, capsys, kind
    ):
        bad, data, weight = self.damaged(lm_run, cl_run, tmp_path, kind, "short")
        if kind == "lm":
            command, overrides = "train-lm", LM_OVERRIDES
        else:
            command, overrides = "train-cl", [f"data.pairs={data[1]}", *CL_OVERRIDES]
        out = tmp_path / "run"
        capsys.readouterr()
        rc = run_cli([command, "--out", str(out), "--mode", "joint-finetune", *overrides,
                      f"task.init_from={bad}"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"{weight} must have shape" in err, err
        assert not (out / "checkpoint.bin").exists()


class TestVerifyCommand:
    def test_single_check_passes(self, capsys):
        assert run_cli(["verify", "--only", "check_bz_bounds", "--seed", "3"]) == 0
        assert capsys.readouterr().out.startswith("bz_bounds: pass")

    def test_bare_check_name_accepted(self, capsys):
        assert run_cli(["verify", "--only", "bz_bounds"]) == 0
        assert "bz_bounds: pass" in capsys.readouterr().out

    def test_fault_flag_fails_gradients(self, capsys):
        rc = run_cli(["verify", "--only", "gradients", "--fault"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_report_csv_written(self, tmp_path):
        out = tmp_path / "report.csv"
        assert run_cli(["verify", "--only", "bz_bounds", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "check,instances,max_residual,tolerance,pass,seed"
        assert lines[1].startswith("bz_bounds,")

    def test_unknown_check_rejected(self, capsys):
        rc = run_cli(["verify", "--only", "nonsense"])
        assert rc == 1
        assert "unknown check" in capsys.readouterr().err

    def test_negative_seed_refused(self, capsys):
        # refused as train.seed=-1 is, before numpy's generator sees it
        assert run_cli(["verify", "--seed", "-1"]) == 1
        assert capsys.readouterr() == ("", "error: seed must be >= 0, got -1\n")


# ---------------------------------------------------------------------------
# export-temps


class TestExportTemps:
    def test_lm_rows_match_validation_positions(self, lm_run, tmp_path):
        dst = tmp_path / "t.csv"
        rc = run_cli(
            ["export-temps", "--checkpoint", str(lm_run / "checkpoint.bin"),
             "--corpus", CORPUS, "--output", str(dst)]
        )
        assert rc == 0
        header, taus = read_taus(dst)
        assert header == "index,tau"
        text = md.load_corpus(CORPUS)
        ids = md.build_vocab(text).encode(text)
        _, val = md.split_ids(ids, 0.1)
        assert taus.size == md.eval_windows(val, 12).n_targets

    def test_lm_mean_matches_trainer_log(self, lm_run, tmp_path):
        dst = tmp_path / "t.csv"
        run_cli(
            ["export-temps", "--checkpoint", str(lm_run / "checkpoint.bin"),
             "--corpus", CORPUS, "--output", str(dst)]
        )
        _, taus = read_taus(dst)
        logged = tr.read_metrics(lm_run / "metrics.csv")[-1]["tau_mean"]
        assert abs(taus.mean() - logged) <= 1e-10

    def test_range_respects_inference_ceiling(self, lm_run, tmp_path):
        narrow = tmp_path / "n.csv"
        wide = tmp_path / "w.csv"
        run_cli(
            ["export-temps", "--checkpoint", str(lm_run / "checkpoint.bin"),
             "--corpus", CORPUS, "--output", str(narrow)]
        )
        run_cli(
            ["export-temps", "--checkpoint", str(lm_run / "checkpoint.bin"),
             "--corpus", CORPUS, "--output", str(wide), "--tau-max-eval", "5.0"]
        )
        _, t_narrow = read_taus(narrow)
        _, t_wide = read_taus(wide)
        assert np.all(t_narrow >= 1e-3) and np.all(t_narrow <= 2.0)
        assert np.all(t_wide >= 1e-3) and np.all(t_wide <= 5.0)
        # same sigmoid stretched onto a wider range sits strictly above
        assert np.all(t_wide > t_narrow)

    def test_cl_rows_cover_both_sides(self, cl_run, tmp_path):
        out, pairs = cl_run
        dst = tmp_path / "t.csv"
        rc = run_cli(
            ["export-temps", "--checkpoint", str(out / "checkpoint.bin"),
             "--pairs", str(pairs), "--output", str(dst)]
        )
        assert rc == 0
        header, taus = read_taus(dst)
        assert header == "index,side,tau"
        assert taus.size == 30

    def test_rerun_byte_identical(self, lm_run, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for dst in (a, b):
            run_cli(
                ["export-temps", "--checkpoint", str(lm_run / "checkpoint.bin"),
                 "--corpus", CORPUS, "--output", str(dst)]
            )
        assert a.read_bytes() == b.read_bytes()


class TestCommandsReproduceTheRun:
    """eval and export-temps read the evaluation the training loop wrote."""

    @pytest.mark.parametrize(
        "command, objective",
        [("train-lm", "robust"), ("train-lm", "ce"), ("train-cl", "robust"),
         ("train-cl", "fixed")],
    )
    def test_eval_and_export_equal_the_final_evaluation(
        self, cl_run, tmp_path, command, objective
    ):
        out = tmp_path / "run"
        if command == "train-lm":
            overrides, data = LM_OVERRIDES, ["--corpus", CORPUS]
        else:
            pairs = str(cl_run[1])
            overrides, data = [f"data.pairs={pairs}", *CL_OVERRIDES], ["--pairs", pairs]
        argv = [command, "--out", str(out), *overrides, f"task.objective={objective}"]
        assert run_cli(argv) == 0
        ckpt = ["--checkpoint", str(out / "checkpoint.bin"), *data]
        assert run_cli(["eval", *ckpt, "--out", str(tmp_path / "eval.csv")]) == 0
        assert run_cli(["export-temps", *ckpt, "--output", str(tmp_path / "t.csv")]) == 0
        logged = (out / "metrics.csv").read_text().strip().split("\n")[-1].split(",")[2]
        evaluated = (tmp_path / "eval.csv").read_text().strip().split("\n")[-1].split(",")[1]
        assert evaluated == logged
        assert (tmp_path / "t.csv").read_bytes() == (out / "temperatures.csv").read_bytes()


# ---------------------------------------------------------------------------
# input that is not UTF-8


class TestNotUtf8Input:
    """A byte that is not UTF-8 in any file a command reads is one error line
    that names the file, and its line where the reader knows it."""

    def write(self, path, text, line):
        lines = text.encode("utf-8").splitlines(keepends=True)
        lines[line - 1] = b"\xe9" + lines[line - 1]
        path.write_bytes(b"".join(lines))
        return path

    def refused(self, argv, capsys, message):
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_pairs_file(self, fixture_cl_ckpt, tmp_path, capsys):
        with open(FIXTURE, encoding="utf-8") as fh:
            path = self.write(tmp_path / "pairs.csv", fh.read(), 3)
        message = f"{path}:3: not UTF-8 text (invalid continuation byte)"
        self.refused(["eval", "--checkpoint", str(fixture_cl_ckpt), "--pairs", str(path)],
                     capsys, message)
        self.refused(["train-cl", "--out", str(tmp_path / "run"), f"data.pairs={path}"],
                     capsys, message)

    def test_corpus(self, tmp_path, capsys):
        path = self.write(tmp_path / "corpus.txt", "the cat\r\nsat on\rthe mat\n" * 3, 4)
        self.refused(["train-lm", "--out", str(tmp_path / "run"), f"data.corpus={path}"],
                     capsys, f"{path}:4: not UTF-8 text (invalid continuation byte)")

    def test_config_file(self, tmp_path, capsys):
        path = self.write(tmp_path / "run.cfg", "# a comment\ndro.rho = 0.5\n# caf\n", 3)
        self.refused(["train-cl", "--config", str(path), "--out", str(tmp_path / "run")],
                     capsys, f"{path}:3: not UTF-8 text (invalid continuation byte)")

    def test_solve_stream_leaves_no_output(self, tmp_path, capsys):
        # the bad byte sits past two solved chunks, after output has begun
        fine = '{"positive":1.0,"contrast":[0.5,2.0]}\n'
        n = 3 * cli.SOLVE_CHUNK
        src = self.write(tmp_path / "in.jsonl", fine * n, n)
        dst = tmp_path / "out.jsonl"
        self.refused(["solve-tau", "--input", str(src), "--output", str(dst)],
                     capsys, f"{src}: not UTF-8 text (invalid continuation byte)")
        assert list(tmp_path.iterdir()) == [src]


# ---------------------------------------------------------------------------
# gen-pairs


class TestGenPairs:
    def test_round_trip(self, tmp_path):
        dst = tmp_path / "p.csv"
        rc = run_cli(
            ["gen-pairs", "--n", "12", "--dim", "5", "--clusters", "2",
             "--noise", "0.1", "--seed", "4", "--output", str(dst)]
        )
        assert rc == 0
        batch = md.load_pairs_csv(dst)
        assert batch.n == 12 and batch.x.shape == (12, 5)

    def test_seed_determinism(self, tmp_path):
        outs = []
        for name, seed in (("a", 9), ("b", 9), ("c", 10)):
            dst = tmp_path / f"{name}.csv"
            run_cli(
                ["gen-pairs", "--n", "8", "--dim", "3", "--seed", str(seed),
                 "--output", str(dst)]
            )
            outs.append(dst.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0] != outs[2]

    def test_negative_seed_refused(self, tmp_path, capsys):
        dst = tmp_path / "x.csv"
        argv = ["gen-pairs", "--n", "5", "--dim", "3", "--seed", "-1", "--output", str(dst)]
        assert run_cli(argv) == 1
        assert capsys.readouterr() == ("", "error: seed must be >= 0, got -1\n")
        assert not dst.exists()

    @pytest.mark.parametrize("noise", ["nan", "inf", "-0.1"])
    def test_noise_outside_range_refused(self, tmp_path, capsys, noise):
        dst = tmp_path / "x.csv"
        argv = ["gen-pairs", "--n", "5", "--dim", "3", "--noise", noise, "--output", str(dst)]
        assert run_cli(argv) == 1
        assert capsys.readouterr() == ("", f"error: noise must be finite and >= 0, got {noise}\n")
        assert not dst.exists()

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--n", f"n_pairs {2**62} x dim 3"),
            ("--dim", f"n_pairs 5 x dim {2**62}"),
            ("--clusters", f"n_clusters {2**62} x dim 3"),
        ],
        ids=["n", "dim", "clusters"],
    )
    def test_size_numpy_cannot_hold_refused(self, tmp_path, capsys, flag, message):
        dst = tmp_path / "x.csv"
        argv = ["gen-pairs", "--n", "5", "--dim", "3", flag, str(2**62), "--output", str(dst)]
        assert run_cli(argv) == 1
        assert capsys.readouterr() == (
            "", f"error: {message} is more floats than numpy can hold\n"
        )
        assert not dst.exists()

    @pytest.mark.parametrize(
        "exc, line",
        [
            (MemoryError("Unable to allocate 745. GiB for an array"),
             "error: out of memory: Unable to allocate 745. GiB for an array\n"),
            (MemoryError(), "error: out of memory\n"),
        ],
        ids=["numpy-message", "bare"],
    )
    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch, exc, line):
        def exhausted(*args):
            raise exc

        monkeypatch.setattr(md, "gen_clustered_pairs", exhausted)
        dst = tmp_path / "x.csv"
        assert run_cli(["gen-pairs", "--n", "5", "--dim", "3", "--output", str(dst)]) == 1
        assert capsys.readouterr() == ("", line)
        assert not dst.exists()

