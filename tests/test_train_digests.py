"""Golden bytes: short training runs reproduce the recorded output digests.

``tests/oracles/train_digests.json`` holds the sha256 of ``metrics.csv``,
``checkpoint.bin`` and ``temperatures.csv`` for train-lm (robust, ce) and
train-cl (robust, fixed) at two seeds. A change that is meant to keep the
training bytes must pass this unchanged. The digests depend on numpy's
rounding, so the test skips when numpy or the machine differ from the ones
that wrote them.
"""

import importlib.util
import json
import pathlib
import platform

import numpy as np
import pytest

ORACLES = pathlib.Path(__file__).parent / "oracles"
RECORD = json.loads((ORACLES / "train_digests.json").read_text())

_spec = importlib.util.spec_from_file_location("gen_train_digests", ORACLES / "gen_train_digests.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


def test_training_outputs_match_recorded_digests(tmp_path):
    here = {"numpy": np.__version__, "machine": platform.machine()}
    recorded = {key: RECORD[key] for key in here}
    if here != recorded:
        pytest.skip(f"digests recorded with {recorded}, running with {here}")
    runs = {name: run["argv"] for name, run in RECORD["runs"].items()}
    got = gen.run_and_digest(RECORD["setup"], runs, tmp_path)
    assert got == {name: run["sha256"] for name, run in RECORD["runs"].items()}
