"""The benchmark's own test: every metric is printed with its unit, and the
correctness checks count planted faults.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import drotemp.cli as cli  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# per-workload names, printed on the lines before the JSON result
NAMED = {
    "solve-stream": {
        0: {"solve_k8_inst_per_s": "inst/s", "solve_k64_inst_per_s": "inst/s",
            "solve_k512_inst_per_s": "inst/s", "solve_k8_clamped_share": "ratio",
            "setup_s": "s", "peak_rss_mb": "MB"},
        1: {"cli.solve_self_ms_per_1k": "ms", "tau_solver.solve_ms_per_1k": "ms",
            "tau_solver.newton_iters_per_inst": "count", "tau_solver.clamped_frac": "ratio",
            "tau_solver.maxiter_frac": "ratio", "dro_core.grad_tau_calls_per_inst": "count",
            "dro_core.hess_tau_calls_per_inst": "count", "dro_core.busy_ms_per_1k": "ms",
            "trace.overhead_pct": "%"},
    },
    "lm-train": {
        0: {"lm_robust_ms_per_step": "ms", "lm_ce_ms_per_step": "ms", "lm_eval_s": "s",
            "lm_val_ppl": "ppl", "setup_s": "s", "peak_rss_mb": "MB"},
        1: {"models.perplexity_s": "s"},
    },
    "cl-train": {
        0: {"cl_robust_ms_per_step": "ms", "cl_fixed_ms_per_step": "ms",
            "cl_recall_at_1": "ratio", "setup_s": "s", "peak_rss_mb": "MB"},
        1: {"models.recall_at_k_s": "s"},
    },
}
TRAIN_LAYER_NAMES = {
    "cli.train_self_s": "s", "diff_engine.nodes_per_step": "count",
    "diff_engine.op_calls_per_step": "count", "diff_engine.backward_ms_per_step": "ms",
    "diff_engine.matmul.calls_per_step": "count", "diff_engine.matmul.ms_per_step": "ms",
    "models.loss_ms_per_step": "ms", "models.sample_ms_per_step": "ms",
    "tempnet.ms_per_step": "ms", "tempnet.rows_per_step": "count", "tempnet.step_share": "%",
    "tempnet.eval_s": "s", "trainer.adamw_ms_per_step": "ms", "trainer.checkpoint_s": "s",
    "trainer.step_self_ms": "ms", "trace.overhead_pct": "%",
}
NAMED["lm-train"][1].update(TRAIN_LAYER_NAMES)
NAMED["cl-train"][1].update(TRAIN_LAYER_NAMES)


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    printed = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            *_, name, value, unit = line.split()
            printed[name] = unit
            float(value)
    for name, unit in NAMED[workload][trace].items():
        assert printed.get(name) == unit, name
    assert printed["failed_ops"].startswith("ratio_of_")


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "solve-stream", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_solve_check_counts_planted_faults(tmp_path, capsys):
    wl = workloads.SolveStream(tmp_path, seed=5, smoke=True)
    argv, n, out = wl.op("k64", 0, traced=False)
    assert cli.main(argv) == 0
    assert wl.check("k64", 0, True, out) == 0

    lines = out.read_text(encoding="utf-8").splitlines()
    off, stalled, low = wl.sample["k64"][0], wl.sample["k64"][1], wl.sample["k64"][2]
    recs = {i: json.loads(lines[i]) for i in (off, stalled, low)}
    recs[off]["tau"] += 1e-3
    recs[stalled]["status"] = "MaxIterReached"
    recs[low]["tau"] = wl.TAU0 / 2
    for i, rec in recs.items():
        lines[i] = json.dumps(rec)
    text = "\n".join(lines) + "\n"

    assert workloads.check_against_oracle(text, wl.instances["k64"], [off], wl.cfg) == {off}
    assert workloads.check_solve_output(text, n, wl.TAU0) == {stalled, low}
    out.write_text(text, encoding="utf-8")
    assert wl.check("k64", 1, True, out) == 3  # each changed line also differs from the first run
    assert wl.check("k64", 2, False, out) == n
    assert (wl.attempted, wl.failed) == (3 * n, 3 + n)


def test_training_check_counts_planted_faults(tmp_path, capsys):
    wl = workloads.ClTrain(tmp_path, seed=5, smoke=True)
    argv, _, run_dir = wl.op("robust", 0, traced=False)
    assert cli.main(argv) == 0
    assert wl.check("robust", 0, True, run_dir) == 0
    eval_argv, _, eval_out = wl.op("eval", 0, traced=False)
    assert cli.main(eval_argv) == 0
    assert wl.check("eval", 0, True, eval_out) == 0

    metrics = run_dir / "metrics.csv"
    good = metrics.read_bytes()
    metrics.write_bytes(good + b"\n")  # same rows, one byte more
    assert wl.check("robust", 4, True, run_dir) == 1
    metrics.write_bytes(good)
    temps = run_dir / "temperatures.csv"
    temps.write_text("index,side,tau\n0,image,2.5\n", encoding="utf-8")  # above tau_max
    assert wl.check("robust", 4, True, run_dir) == 1
    eval_out.write_text("metric,value\nmean_recall@1,0.0\n", encoding="utf-8")
    assert wl.check("eval", 4, True, eval_out) == 1
    assert wl.check("robust", 4, False, run_dir) == 1
    assert (wl.attempted, wl.failed) == (6, 4)
