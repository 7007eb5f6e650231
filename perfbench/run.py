"""drotemp benchmark: one workload per run, from the root of a checkout.

    python3 perfbench/run.py --workload solve-stream --seed 1 --seconds 30 --trace 0

The package is imported from ./src; nothing is installed. One process runs
the ``drotemp`` commands in-process, one after the other (a closed loop with
one caller), with BLAS/OpenMP pinned to one thread. The workload's legs run
round-robin until --seconds have passed (and at least once per input set);
every command's output is checked, and the median wall per leg is reported.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a run in which every command runs twice, untraced and traced (order
alternating by round); the difference is the tracing overhead. The last
stdout line is the JSON result; the lines before it print every metric by
name and unit. Results, and in traced runs all spans, are also written to
.perfbench_out/.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("solve-stream", "lm-train", "cl-train")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own test")
    return p.parse_args(argv)


def machine() -> dict:
    """Machine and environment facts recorded with every result."""
    import numpy as np

    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                info[f"L{level}"] = (index / "size").read_text().strip()
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    return info


def run_cli(argv):
    """One drotemp command in-process: (exit code was 0, wall seconds)."""
    import drotemp.cli as cli

    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not the end of the run
        print(f"{argv[0]} raised {exc!r}", file=sys.stderr)
        rc = None
    return rc == 0, time.perf_counter() - t0


def measure(wl, seconds: float, tracer):
    """Round-robin over the legs until the deadline and min_rounds are met."""
    import spans

    modes = (False, True) if tracer else (False,)
    walls = {(leg, m): [] for leg in wl.legs for m in modes}
    units, traced_ops = {}, {leg: [] for leg in wl.legs}
    deadline = time.perf_counter() + seconds
    rnd = 0
    while rnd < wl.min_rounds or time.perf_counter() < deadline:
        for leg in wl.legs:
            for traced in modes if rnd % 2 == 0 else modes[::-1]:
                argv, units[leg], out = wl.op(leg, rnd, traced)
                lo = tracer.mark() if traced else 0
                if traced:
                    tracer.install()
                try:
                    ok, wall = run_cli(argv)
                finally:
                    if traced:
                        tracer.uninstall()
                if traced:
                    traced_ops[leg].append(spans.op_totals(tracer, lo, tracer.mark()))
                walls[leg, traced].append(wall)
                wl.check(leg, rnd, ok, out)
        rnd += 1
    return walls, units, traced_ops, rnd


def layer_report(wl, walls, traced_ops):
    """(per-layer JSON metrics, text rows) from the traced commands."""
    import spans

    legs = wl.legs
    per_leg = {}
    for leg in legs:
        per_leg[leg] = {}
        for t in traced_ops[leg]:
            spans.add_totals(per_leg[leg], t)
    everything = {}
    for leg in legs:
        spans.add_totals(everything, per_leg[leg])

    def ratio(a, b):
        return a / b if b else 0.0

    med = {key: statistics.median(v) for key, v in walls.items()}
    plain = sum(med[leg, False] for leg in legs)
    traced = sum(med[leg, True] for leg in legs)
    statuses = [s for leg in legs for s in wl.statuses(leg)]
    inst = everything.get("instances", 0)
    p = per_leg[legs[0]]
    steps = p.get("steps", 0)
    metrics = {f"{lay}.self_pct": (100 * ratio(everything[f"self_s.{lay}"], everything["wall_s"]), "%")
               for lay in spans.LAYERS}
    metrics.update({
        "tau_solver.newton_iters_per_inst": (ratio(everything["newton_iters"], inst), "count"),
        "tau_solver.clamped_frac": (ratio(statuses.count("ClampedAtTau0"), len(statuses)), "ratio"),
        "tau_solver.maxiter_frac": (ratio(statuses.count("MaxIterReached"), len(statuses)), "ratio"),
        "dro_core.grad_tau_calls_per_inst": (ratio(everything["grad_tau_calls"], inst), "count"),
        "dro_core.hess_tau_calls_per_inst": (ratio(everything["hess_tau_calls"], inst), "count"),
        "diff_engine.nodes_per_step": (ratio(p.get("nodes", 0), steps), "count"),
        "diff_engine.op_calls_per_step": (ratio(p["op_calls"], steps), "count"),
        "tempnet.rows_per_step": (ratio(p["tempnet_rows"], steps), "count"),
        "tempnet.step_share_pct": (100 * ratio(p["tempnet_step_s"], p.get("step_wall_s", 0)), "%"),
        "trace.overhead_pct": (100 * (traced - plain) / plain, "%"),
    })

    rows = []
    for leg in legs:
        t, n_ops = per_leg[leg], len(traced_ops[leg])
        rows.append((leg, "trace.overhead_pct",
                     100 * (med[leg, True] - med[leg, False]) / med[leg, False], "%"))
        rows.append((leg, "trace.wall_ms_per_op", 1e3 * t["wall_s"] / n_ops, "ms"))
        for lay in spans.LAYERS:
            rows.append((leg, f"{lay}.self_ms_per_op", 1e3 * t[f"self_s.{lay}"] / n_ops, "ms"))
        if t["instances"]:
            k = 1e6 / t["instances"]  # ms per 1000 instances
            rows += [
                (leg, "cli.solve_self_ms_per_1k", k * t["cli_self_s"], "ms"),
                (leg, "tau_solver.solve_ms_per_1k", k * t["solve_s"], "ms"),
                (leg, "dro_core.busy_ms_per_1k", k * t["dro_core_busy_s"], "ms"),
                (leg, "tau_solver.newton_iters_per_inst", t["newton_iters"] / t["instances"], "count"),
                (leg, "dro_core.grad_tau_calls_per_inst", t["grad_tau_calls"] / t["instances"], "count"),
                (leg, "dro_core.hess_tau_calls_per_inst", t["hess_tau_calls"] / t["instances"], "count"),
            ]
            st = wl.statuses(leg)
            rows.append((leg, "tau_solver.clamped_frac", ratio(st.count("ClampedAtTau0"), len(st)), "ratio"))
            rows.append((leg, "tau_solver.maxiter_frac", ratio(st.count("MaxIterReached"), len(st)), "ratio"))
            continue
        if t["steps"]:
            s = t["steps"]
            rows += [
                (leg, "diff_engine.nodes_per_step", t["nodes"] / s, "count"),
                (leg, "diff_engine.nodes_exact", float(t["nodes_min"] == t["nodes_max"]), "bool"),
                (leg, "diff_engine.op_calls_per_step", t["op_calls"] / s, "count"),
                (leg, "diff_engine.backward_ms_per_step", 1e3 * t["backward_s"] / s, "ms"),
                (leg, "models.loss_ms_per_step", 1e3 * t["loss_s"] / s, "ms"),
                (leg, "models.sample_ms_per_step", 1e3 * t["sample_s"] / s, "ms"),
                (leg, "tempnet.ms_per_step", 1e3 * t["tempnet_step_s"] / s, "ms"),
                (leg, "tempnet.rows_per_step", t["tempnet_rows"] / s, "count"),
                (leg, "tempnet.step_share", 100 * t["tempnet_step_s"] / t["step_wall_s"], "%"),
                (leg, "trainer.adamw_ms_per_step", 1e3 * t["adamw_s"] / s, "ms"),
                (leg, "trainer.step_ms", 1e3 * t["step_wall_s"] / s, "ms"),
                (leg, "trainer.step_self_ms", 1e3 * (t["step_wall_s"] - t["sample_s"] - t["loss_s"]
                                                     - t["backward_s"] - t["adamw_s"]) / s, "ms"),
                (leg, "cli.train_self_s", t["cli_train_self_s"] / n_ops, "s"),
            ]
            for key in sorted(k for k in t if k.startswith("calls.")):
                op = key[len("calls."):]
                rows.append((leg, f"{op}.calls_per_step", t[key] / s, "count"))
                rows.append((leg, f"{op}.ms_per_step", 1e3 * t[f"self_s.{op}"] / s, "ms"))
        rows += [
            (leg, "tempnet.eval_s", t["tempnet_eval_s"] / n_ops, "s"),
            (leg, "models.perplexity_s", t["perplexity_s"] / n_ops, "s"),
            (leg, "models.recall_at_k_s", t["recall_s"] / n_ops, "s"),
            (leg, "trainer.checkpoint_s", t["checkpoint_s"] / n_ops, "s"),
        ]
    return metrics, rows


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "drotemp" / "__init__.py").is_file():
        print(f"error: no drotemp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import drotemp

    if Path(drotemp.__file__).resolve().parent != (SRC / "drotemp").resolve():
        print(f"error: drotemp imported from {drotemp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        wl = workloads.WORKLOADS[args.workload](work, args.seed, args.smoke)
        setup_s = None if args.trace else wl.setup(run_cli)
        tracer = spans.Tracer() if args.trace else None
        t0 = time.perf_counter()
        walls, units, traced_ops, rounds = measure(wl, args.seconds, tracer)
        measured_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    med = {leg: statistics.median(walls[leg, False]) for leg in wl.legs}
    env = machine()
    samples = {f"{leg}{'-traced' if traced else ''}": [round(w, 6) for w in ws]
               for (leg, traced), ws in walls.items()}
    env.update(workload=args.workload, seed=args.seed, rounds=rounds,
               measured_s=round(measured_s, 3), closed_loop_callers=1,
               input_sizes={leg: units[leg] for leg in wl.legs})
    env.update(wl.facts)
    rows = [("", name, value, unit) for name, value, unit in wl.report(med)]
    for leg in wl.legs:
        # the highest percentile with at least ten samples above it
        w = walls[leg, False]
        rows.append((leg, "samples", len(w), "count"))
        if len(w) >= 20:
            q = int(100 * (1 - 10 / len(w)))
            rows.append((leg, f"ms_per_op_p{q}",
                         1e3 * statistics.quantiles(w, n=100)[q - 1] / units[leg], "ms"))
    if args.trace:
        metrics, layer_rows = layer_report(wl, walls, traced_ops)
        rows += layer_rows
        tracer.dump(OUT / f"{tag}-spans.json.gz", t0, {"env": env})
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {f"leg{i}_ms_per_op": (1e3 * med[leg] / units[leg], "ms")
                   for i, leg in enumerate(wl.legs, start=1)}
        metrics.update(result_loss=(wl.result_loss(), "1"), setup_s=(setup_s, "s"),
                       peak_rss_mb=(rss_mb, "MB"))
        rows += [("", "setup_s", setup_s, "s"), ("", "peak_rss_mb", rss_mb, "MB")]
    rows.append(("", "failed_ops", wl.failed / wl.attempted, f"ratio_of_{wl.attempted}"))

    result = {
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{tag}.json").write_text(
        json.dumps({"env": env, "rows": rows, **result, "wall_s": samples}, indent=1),
        encoding="utf-8",
    )
    print("env " + json.dumps(env))
    for leg, name, value, unit in rows:
        print(f"metric {leg + ' ' if leg else ''}{name} {value!r} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
