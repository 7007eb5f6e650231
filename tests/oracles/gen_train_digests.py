"""Regenerate train_digests.json: the sha256 of short training runs' outputs.

Each run is a ``train-lm`` (robust, ce) or ``train-cl`` (robust, fixed) call
at seeds 0 and 1, at the CLI's default model shapes but only a dozen steps, so
all eight take a few seconds. At these shapes the bytes depend on the memory
layout of the gradients (BLAS and pairwise sums take layout-dependent paths):
storing a transposed view instead of a contiguous copy changes them. The JSON
stores every run's argv next to the digests of its ``metrics.csv``,
``checkpoint.bin`` and ``temperatures.csv``, so a test can rerun exactly these
runs and compare. It also records the numpy version and machine, because
another BLAS or CPU family may round differently.

The runs execute in a scratch directory holding ``corpus.txt`` (a copy of the
bundled corpus) and ``pairs.csv`` (from the ``setup`` argv), and every path in
the argv is relative to it: the checkpoint's config hash covers the data
path, so an absolute path would change the bytes.

Regenerate only when a change is meant to move the training bytes, and say
so where the change is described. Run from the repository root:
    PYTHONPATH=src python tests/oracles/gen_train_digests.py
"""

import hashlib
import json
import os
import pathlib
import platform
import shutil
import tempfile

import numpy as np

from drotemp import cli

HERE = pathlib.Path(__file__).resolve().parent
CORPUS = HERE.parents[1] / "src" / "drotemp" / "assets" / "corpus.txt"
FILES = ("metrics.csv", "checkpoint.bin", "temperatures.csv")
SETUP = [
    "gen-pairs", "--n", "60", "--dim", "6", "--clusters", "3",
    "--noise", "0.2", "--seed", "11", "--output", "pairs.csv",
]
LM = ["data.corpus=corpus.txt", "train.total_steps=12", "train.eval_every=6"]
CL = ["data.pairs=pairs.csv", "train.total_steps=15", "train.eval_every=5"]


def argv_table() -> dict:
    runs = {}
    for seed in (0, 1):
        for command, objectives, base in (
            ("train-lm", ("robust", "ce"), LM), ("train-cl", ("robust", "fixed"), CL)
        ):
            family = command.split("-")[1]
            for objective in objectives:
                name = f"{family}-{objective}-{seed}"
                runs[name] = [command, "--out", name, *base,
                              f"task.objective={objective}", f"train.seed={seed}"]
    return runs


def run_and_digest(setup, runs: dict, workdir: pathlib.Path) -> dict:
    """Run setup and every argv in workdir; return name -> file -> sha256."""
    shutil.copyfile(CORPUS, workdir / "corpus.txt")
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        if cli.main(setup) != 0:
            raise RuntimeError(f"setup failed: {setup}")
        digests = {}
        for name, argv in runs.items():
            if cli.main(argv) != 0:
                raise RuntimeError(f"run failed: {argv}")
            digests[name] = {
                f: hashlib.sha256((workdir / name / f).read_bytes()).hexdigest()
                for f in FILES
            }
        return digests
    finally:
        os.chdir(cwd)


def main():
    runs = argv_table()
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_and_digest(SETUP, runs, pathlib.Path(tmp))
    payload = {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "setup": SETUP,
        "runs": {name: {"argv": runs[name], "sha256": digests[name]} for name in runs},
    }
    (HERE / "train_digests.json").write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
