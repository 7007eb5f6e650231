"""End-to-end checks of the command-line surface.

Commands run in-process through cli.main so exit codes and stdout/stderr are
observable without subprocesses.
"""

import binascii
import json
import os
import stat
import struct

import numpy as np
import pytest

from drotemp import cli
from drotemp import models as md
from drotemp import trainer as tr
from drotemp.dro_core import DroConfig, LogitSet
from drotemp.errors import DomainError
from drotemp.tau_solver import golden_section_oracle

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
    assert (
        run_cli(
            [
                "train-cl", "--out", str(out),
                f"data.pairs={pairs}",
                "train.total_steps=15",
                "train.eval_every=5",
                "train.batch_size=8",
                "cl.hidden=16",
                "cl.out_dim=8",
                "tempnet.d1=8",
                "tempnet.d2=4",
            ]
        )
        == 0
    )
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


def read_taus(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], np.array([float(line.split(",")[-1]) for line in lines[1:]])


# ---------------------------------------------------------------------------
# config resolution


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

    def test_missing_corpus_names_key(self, tmp_path, capsys):
        rc = run_cli(["train-lm", "--out", str(tmp_path / "x"), "train.total_steps=5"])
        assert rc == 1
        assert "data.corpus" in capsys.readouterr().err

    def test_invalid_mode_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["train-lm", "--out", str(tmp_path / "x"), "--mode", "warmstart"])
        assert exc.value.code == 2

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
        assert tr.foundation_fingerprint(after.foundation.tensors()) == (
            tr.foundation_fingerprint(before.foundation.tensors())
        )


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

    def test_missing_pairs_names_key(self, tmp_path, capsys):
        rc = run_cli(["train-cl", "--out", str(tmp_path / "x"), "train.total_steps=5"])
        assert rc == 1
        assert "data.pairs" in capsys.readouterr().err


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
        raw = (lm_run / "checkpoint.bin").read_bytes()
        # the meta section comes first: name length, name, payload length, payload, crc
        (name_len,) = struct.unpack("<H", raw[6:8])
        at = 8 + name_len
        (size,) = struct.unpack("<Q", raw[at : at + 8])
        meta = json.loads(raw[at + 8 : at + 8 + size])
        del meta["step"]
        payload = json.dumps(meta).encode()
        damaged = tmp_path / "damaged.bin"
        damaged.write_bytes(
            raw[:at] + struct.pack("<Q", len(payload)) + payload
            + struct.pack("<I", binascii.crc32(payload)) + raw[at + 8 + size + 4 :]
        )
        rc = run_cli(["eval", "--checkpoint", str(damaged), "--corpus", CORPUS])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: checkpoint section 'meta' is missing 'step'\n"

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


# ---------------------------------------------------------------------------
# verify


class TestNonFiniteCheckpoint:
    """A checkpoint holding one NaN weight, written with valid checksums:
    eval and export-temps exit 1 with one stderr line and write nothing."""

    @pytest.mark.parametrize("command", ["eval", "export-temps"])
    @pytest.mark.parametrize("kind", ["lm", "cl"])
    def test_exits_1_with_one_line(self, lm_run, cl_run, tmp_path, capsys, kind, command):
        if kind == "lm":
            source, data, weight = lm_run / "checkpoint.bin", ["--corpus", CORPUS], "blocks.0.Wq"
        else:
            run_dir, pairs = cl_run
            source, data, weight = run_dir / "checkpoint.bin", ["--pairs", str(pairs)], "image.W2"
        ckpt = tr.load_checkpoint(source)
        dict(ckpt.foundation.tensors())[weight].data.reshape(-1)[0] = np.nan
        bad = tmp_path / "checkpoint.bin"
        tr.save_checkpoint(ckpt, bad)
        out_path = tmp_path / "out.csv"
        target = ["--out", str(out_path)] if command == "eval" else ["--output", str(out_path)]
        capsys.readouterr()
        rc = run_cli([command, "--checkpoint", str(bad), *data, *target])
        out, err = capsys.readouterr()
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "nan" not in out.lower()
        assert not out_path.exists()


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
