"""The three benchmark workloads, their inputs and their correctness checks.

A workload runs ``drotemp`` commands in-process through ``cli.main`` over
the three ``legs`` of its class (legs 1/2/3 of the end-to-end metrics), and
checks every command's output in ``check``. ``report`` gives the same timings
under per-workload names (``solve_k8_inst_per_s``, ``lm_robust_ms_per_step``,
...).
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from statistics import median

import numpy as np

import inputs

import drotemp.cli as cli
import drotemp.models as md
import drotemp.trainer as tr
from drotemp.dro_core import DroConfig, LogitSet
from drotemp.tau_solver import golden_section_oracle

ORACLE_HI = 1e4
ORACLE_REL_TOL = 1e-6  # acceptance 2: |tau - ref| / max(1, ref)


# ---------------------------------------------------------------------------
# solve-stream


def check_solve_output(text: str, n: int, tau0: float) -> set:
    """Indices of the n expected output lines that fail: unparseable or
    missing, status MaxIterReached, or tau not a finite value >= tau0."""
    lines = text.splitlines()
    bad = set(range(len(lines), n))
    for i, line in enumerate(lines[:n]):
        try:
            rec = json.loads(line)
            tau = float(rec["tau"])
            ok = rec["status"] != "MaxIterReached" and math.isfinite(tau) and tau >= tau0
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            bad.add(i)
    return bad


def check_against_oracle(text: str, instances, sample, cfg: DroConfig) -> set:
    """Indices in sample whose tau misses golden_section_oracle by more than
    ORACLE_REL_TOL relative (lines already failing the format check are
    counted there)."""
    lines = text.splitlines()
    bad = set()
    for i in sample:
        try:
            tau = float(json.loads(lines[i])["tau"])
        except (IndexError, ValueError, KeyError, TypeError):
            continue
        pos, contrast, _ = instances[i]
        ref = golden_section_oracle(LogitSet(pos, contrast), cfg, cfg.tau0, ORACLE_HI, tol=1e-9)
        if not abs(tau - ref) <= ORACLE_REL_TOL * max(1.0, ref):
            bad.add(i)
    return bad


class SolveStream:
    name = "solve-stream"
    legs = ("k8", "k64", "k512")
    min_rounds = 1
    RHO, TAU0 = 0.5, 1e-3

    def __init__(self, work: Path, seed: int, smoke: bool):
        self.work = work
        self.n = 20 if smoke else 400
        self.n_oracle = 5 if smoke else 40
        self.setup_reps = 5 if smoke else 51
        self.cfg = DroConfig(tau0=self.TAU0, tau_max=2.0, rho=self.RHO)
        self.instances, self.sample, self.ref = {}, {}, {}
        for leg in self.legs:
            k = int(leg[1:])
            self.instances[leg] = inputs.solve_instances(k, self.n, inputs.sub_seed(seed, k))
            inputs.write_solve_stream(work / f"{leg}.jsonl", self.instances[leg])
            rng = np.random.default_rng(inputs.sub_seed(seed, k, 1))
            self.sample[leg] = sorted(rng.choice(self.n, self.n_oracle, replace=False).tolist())
        inputs.write_solve_stream(work / "one.jsonl", self.instances["k8"][:1])
        self.attempted = self.failed = 0
        self.facts = {"tied_share": inputs.TIED_SHARE}

    def argv(self, stream: str, out: str):
        return ["solve-tau", "--input", stream, "--output", out,
                "--rho", repr(self.RHO), "--tau0", repr(self.TAU0)]

    def setup(self, run_cli) -> float:
        """Median wall of solve-tau over a one-instance stream: the command's
        fixed cost (argument parsing, file handling, one solve)."""
        argv = self.argv(str(self.work / "one.jsonl"), str(self.work / "one.out"))
        return median(run_cli(argv)[1] for _ in range(self.setup_reps))

    def op(self, leg: str, rnd: int, traced: bool):
        out = self.work / f"{leg}{'-traced' if traced else ''}.out"
        return self.argv(str(self.work / f"{leg}.jsonl"), str(out)), self.n, out

    def check(self, leg: str, rnd: int, ok: bool, out: Path) -> int:
        """Failed instances of one command: every line checked, a seeded
        sample against the oracle, and each line byte-compared with the
        first output of the same stream."""
        self.attempted += self.n
        text = out.read_text(encoding="utf-8") if ok and out.exists() else ""
        if leg not in self.ref:
            bad = check_solve_output(text, self.n, self.TAU0)
            bad |= check_against_oracle(text, self.instances[leg], self.sample[leg], self.cfg)
            self.ref[leg] = (text, bad)
        else:
            ref_text, ref_bad = self.ref[leg]
            if text == ref_text:
                bad = ref_bad
            else:
                bad = check_solve_output(text, self.n, self.TAU0)
                ref_lines, lines = ref_text.splitlines(), text.splitlines()
                bad |= {i for i in range(self.n)
                        if i >= len(lines) or i >= len(ref_lines) or lines[i] != ref_lines[i]}
        self.failed += len(bad)
        return len(bad)

    def _records(self, leg: str):
        """The parseable records of the stream's first output."""
        records = []
        for line in self.ref[leg][0].splitlines():
            try:
                rec = json.loads(line)
                records.append({"status": rec["status"], "loss": float(rec["loss"])})
            except (ValueError, KeyError, TypeError):
                pass
        return records

    def statuses(self, leg: str):
        return [rec["status"] for rec in self._records(leg)]

    def result_loss(self) -> float:
        """Mean robust loss f(z, tau) at the returned tau over all streams."""
        losses = [rec["loss"] for leg in self.legs for rec in self._records(leg)]
        return float(np.mean(losses)) if losses else math.nan

    def report(self, med_wall: dict) -> list:
        rows = [(f"solve_{leg}_inst_per_s", self.n / med_wall[leg], "inst/s") for leg in self.legs]
        for leg in self.legs:
            st = self.statuses(leg)
            rows.append((f"solve_{leg}_clamped_share", st.count("ClampedAtTau0") / self.n, "ratio"))
            tied = sum(t for _, _, t in self.instances[leg]) / self.n
            rows.append((f"solve_{leg}_tied_share", tied, "ratio"))
        return rows


# ---------------------------------------------------------------------------
# training workloads


class _Training:
    """Shared base for train-lm / train-cl: a paper-path run, a control
    run and an eval command per input set; input set j is used in round
    j mod n_sets, so quality is averaged over n_sets seeds and every set
    repeats once it has been seen."""

    legs = ("robust", "control", "eval")

    def __init__(self, work: Path, seed: int, smoke: bool):
        self.work = work
        self.steps = self.smoke_steps if smoke else self.full_steps
        self.attempted = self.failed = 0
        self.facts = {}
        self.first_bytes = {}
        self.final = {}
        self.min_rounds = self.n_sets
        self.setup_reps = 3 if smoke else 15
        self.train_seeds = [inputs.sub_seed(seed, 100 + j) for j in range(self.n_sets)]

    def op(self, leg: str, rnd: int, traced: bool):
        j = rnd % self.n_sets
        tag = "-traced" if traced else ""
        if leg == "eval":
            out = self.work / f"eval-{j}{tag}.csv"
            ckpt = self.work / f"robust-{j}" / "checkpoint.bin"
            return ["eval", "--checkpoint", str(ckpt), *self.eval_args(j), "--out", str(out)], 1, out
        out = self.work / f"{leg}-{j}{tag}"
        argv = [self.command, "--out", str(out), *self.data_args(j),
                f"train.total_steps={self.steps}", f"train.eval_every={self.steps}",
                f"train.seed={self.train_seeds[j]}",
                f"task.objective={'robust' if leg == 'robust' else self.control}",
                *self.overrides]
        return argv, self.steps, out

    def setup(self, run_cli) -> float:
        """Sum over the two run configs of the median wall of
        trainer.train(..., stop_at_step=0): data load, vocabulary, model and
        TempNet init, step-0 checkpoint."""
        total = 0.0
        for objective in ("robust", self.control):
            walls = []
            for r in range(self.setup_reps):
                run, task = self.configs(objective, 0)
                t0 = time.perf_counter()
                tr.train(run, task, self.work / f"setup-{objective}", stop_at_step=0)
                walls.append(time.perf_counter() - t0)
            total += median(walls)
        return total

    def check(self, leg: str, rnd: int, ok: bool, out: Path) -> int:
        """1 if the command raised or exited non-zero, wrote a non-finite
        metric or a temperature outside [tau0, tau_max], or (for a repeat)
        metrics differing by a single byte from the first run; else 0."""
        self.attempted += 1
        j = rnd % self.n_sets
        try:
            good = ok and (self._check_eval(j, out) if leg == "eval" else self._check_run(leg, j, out))
        except (OSError, ValueError, KeyError, IndexError):
            good = False
        self.failed += not good
        return int(not good)

    def _check_run(self, leg: str, j: int, out: Path) -> bool:
        raw = (out / "metrics.csv").read_bytes()
        if self.first_bytes.setdefault((leg, j), raw) != raw:
            return False
        rows = tr.read_metrics(out / "metrics.csv")
        values = [v for row in rows for v in row.values()]
        taus = np.loadtxt(out / "temperatures.csv", delimiter=",", skiprows=1,
                          usecols=-1, ndmin=1)
        good = (
            len(rows) == 1
            and rows[-1]["step"] == self.steps
            and all(math.isfinite(v) for v in values)
            and self.tau0 <= rows[-1]["tau_min"] <= rows[-1]["tau_max"] <= self.tau_max
            and bool(np.all((taus >= self.tau0) & (taus <= self.tau_max)))
        )
        if good:
            self.final[(leg, j)] = rows[-1]
        return good

    def _check_eval(self, j: int, out: Path) -> bool:
        """The eval command must reproduce the run's own final eval metric."""
        raw = out.read_bytes()
        if self.first_bytes.setdefault(("eval", j), raw) != raw:
            return False
        got = dict(line.split(",") for line in raw.decode("utf-8").split()[1:])
        return float(got[self.eval_key]) == self.final[("robust", j)]["eval_metric"]

    def statuses(self, leg: str):
        return []

    def robust_metric(self) -> float:
        """Mean final eval metric of the robust runs (NaN if none passed)."""
        finals = [row["eval_metric"] for (leg, _), row in self.final.items() if leg == "robust"]
        return float(np.mean(finals)) if finals else math.nan


class LmTrain(_Training):
    name = "lm-train"
    command = "train-lm"
    control = "ce"
    eval_key = "perplexity"
    overrides = ()
    tau0, tau_max = 1e-3, 2.0

    n_sets, full_steps, smoke_steps = 2, 100, 4

    def __init__(self, work: Path, seed: int, smoke: bool):
        super().__init__(work, seed, smoke)
        self.corpus = Path(cli.__file__).parent / "assets" / "corpus.txt"
        self.facts["corpus_sha256"] = inputs.file_sha256(self.corpus)

    def data_args(self, j):
        return [f"data.corpus={self.corpus}"]

    def eval_args(self, j):
        return ["--corpus", str(self.corpus)]

    def configs(self, objective: str, j: int):
        run = tr.TrainConfig(total_steps=self.steps, batch_size=8, seed=self.train_seeds[j],
                             cfg=DroConfig(tau0=self.tau0, tau_max=self.tau_max, rho=1.0),
                             eval_every=self.steps)
        return run, tr.LmTask(corpus_path=str(self.corpus), objective=objective)

    def result_loss(self) -> float:
        """Validation perplexity of the robust runs, averaged over input sets."""
        return self.robust_metric()

    def report(self, med_wall: dict) -> list:
        return [
            ("lm_robust_ms_per_step", 1e3 * med_wall["robust"] / self.steps, "ms"),
            ("lm_ce_ms_per_step", 1e3 * med_wall["control"] / self.steps, "ms"),
            ("lm_eval_s", med_wall["eval"], "s"),
            ("lm_val_ppl", self.robust_metric(), "ppl"),
        ]


class ClTrain(_Training):
    name = "cl-train"
    command = "train-cl"
    control = "fixed"
    eval_key = "mean_recall@1"
    overrides = ("train.batch_size=16",)
    tau0, tau_max = 1e-3, 2.0

    n_sets, full_steps, smoke_steps = 4, 300, 10

    def __init__(self, work: Path, seed: int, smoke: bool):
        super().__init__(work, seed, smoke)
        for j in range(self.n_sets):
            md.save_pairs_csv(self.pairs(j), inputs.heterogeneous_pairs(inputs.sub_seed(seed, 200 + j)))

    def pairs(self, j: int) -> Path:
        return self.work / f"pairs-{j}.csv"

    def data_args(self, j):
        return [f"data.pairs={self.pairs(j)}"]

    def eval_args(self, j):
        return ["--pairs", str(self.pairs(j)), "--k", "1"]

    def configs(self, objective: str, j: int):
        """The run train-cl builds from its defaults (base_lr 2e-4, weight
        decay 0.02, beta2 0.999) and these arguments."""
        run = tr.TrainConfig(total_steps=self.steps, batch_size=16, seed=self.train_seeds[j],
                             cfg=DroConfig(tau0=self.tau0, tau_max=self.tau_max, rho=1.0),
                             base_lr=2e-4, weight_decay=0.02, beta2=0.999, eval_every=self.steps)
        return run, tr.ClTask(pairs_path=str(self.pairs(j)), objective=objective)

    def result_loss(self) -> float:
        """Retrieval miss rate 1 - recall@1 of the robust runs, averaged."""
        return 1.0 - self.robust_metric()

    def report(self, med_wall: dict) -> list:
        return [
            ("cl_robust_ms_per_step", 1e3 * med_wall["robust"] / self.steps, "ms"),
            ("cl_fixed_ms_per_step", 1e3 * med_wall["control"] / self.steps, "ms"),
            ("cl_eval_s", med_wall["eval"], "s"),
            ("cl_recall_at_1", self.robust_metric(), "ratio"),
        ]


WORKLOADS = {w.name: w for w in (SolveStream, LmTrain, ClTrain)}
