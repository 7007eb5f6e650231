"""Outside-in tracing of the drotemp layers.

Tracer.install replaces the package's public functions with timing wrappers
at the place each one is looked up at call time (a name imported by value,
such as ``trainer.backward`` or ``cli.newton_solve``, is wrapped in the
importing module), and uninstall puts the originals back. No file of the
package changes. Spans (name, start, end, parent, value) are appended to flat
arrays in memory and written out once by ``dump``.

``value`` carries one count per span where a layer's work is a count: the
tape length at backward, Newton iterations per solve, temperature rows per
TempNet call.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array

import numpy as np

LAYERS = ("cli", "tau_solver", "dro_core", "diff_engine", "models", "tempnet", "trainer")

LOSS_SPANS = (
    "models.robust_softmax_loss",
    "models.baseline_ce_loss",
    "models.robust_gcl_loss",
    "models.baseline_gcl_loss",
)
TEMPNET_SPANS = ("tempnet.llm_tau_batch", "tempnet.cl_tau_batch")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, value=None) -> None:
        """Replace owner.attr by a wrapper recording one span per call."""
        fn = getattr(owner, attr)
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        ids, parents, starts, ends, values = (
            self.name_id, self.parent, self.start, self.end, self.value
        )
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            values.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if value is not None:
                values[idx] = value(args, result)
            return result

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def install(self) -> None:
        import drotemp.cli as cli
        import drotemp.diff_engine as de
        import drotemp.models as md
        import drotemp.tau_solver as ts
        import drotemp.tempnet as tn
        import drotemp.trainer as tr

        w = self.wrap
        w(cli, "main", "cli.main")
        w(cli, "newton_solve", "tau_solver.newton_solve", lambda a, r: r.iterations)
        w(cli, "LogitSet", "dro_core.LogitSet")
        w(cli, "robust_loss", "dro_core.robust_loss")
        w(ts, "grad_tau", "dro_core.grad_tau")
        w(ts, "hess_tau", "dro_core.hess_tau")
        for op in de.__all__:
            fn = getattr(de, op)
            if not isinstance(fn, type) and op not in ("backward", "finite_diff_check"):
                w(de, op, f"diff_engine.{op}")
        w(tr, "backward", "diff_engine.backward", lambda a, r: len(a[1]))
        for name in LOSS_SPANS + ("models.perplexity", "models.recall_at_k", "models.sample_windows"):
            w(md, name.split(".")[1], name)
        for name in TEMPNET_SPANS:
            w(tn, name.split(".")[1], name, lambda a, r: r.shape[0])
        for fn in ("train", "adamw_step", "save_checkpoint", "load_checkpoint"):
            w(tr, fn, f"trainer.{fn}")
        for runtime in (tr._LmRuntime, tr._ClRuntime):
            w(runtime, "sample_batch", "trainer.sample_batch")
            w(runtime, "evaluate", "trainer.evaluate")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def mark(self) -> int:
        """Index of the next span."""
        return len(self.start)

    def dump(self, path, t0: float, extra: dict) -> None:
        """All spans as [name, start_us, end_us, parent], times from t0."""
        start = np.round((np.frombuffer(self.start) - t0) * 1e6).astype(np.int64)
        end = np.round((np.frombuffer(self.end) - t0) * 1e6).astype(np.int64)
        doc = {
            "names": self.names,
            "columns": ["name", "start_us", "end_us", "parent"],
            "spans": np.column_stack(
                [np.frombuffer(self.name_id, dtype=np.int32), start, end,
                 np.frombuffer(self.parent, dtype=np.int32)]
            ).tolist(),
            **extra,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def op_totals(tracer: Tracer, lo: int, hi: int) -> dict:
    """Raw per-layer sums for the spans [lo, hi) of one traced command.

    Span lo is the command's cli.main call. A training step runs from one
    trainer.sample_batch start to the next, the last one up to the first
    evaluation or checkpoint write after it; a span belongs to the step its
    start falls in.
    """
    nid = np.frombuffer(tracer.name_id, dtype=np.int32)[lo:hi]
    start = np.frombuffer(tracer.start)[lo:hi]
    end = np.frombuffer(tracer.end)[lo:hi]
    parent = np.frombuffer(tracer.parent, dtype=np.int32)[lo:hi] - lo
    value = np.frombuffer(tracer.value)[lo:hi]
    name = np.array(tracer.names)[nid]
    layer = np.array([n.split(".")[0] for n in tracer.names])[nid]
    dur = end - start
    self_t = dur.copy()
    nested = parent >= 0
    np.subtract.at(self_t, parent[nested], dur[nested])

    t = {}
    t["wall_s"] = float(dur[0])
    for lay in LAYERS:
        t[f"self_s.{lay}"] = float(self_t[layer == lay].sum())

    def total(mask) -> float:
        return float(dur[mask].sum())

    # solve-tau
    solve = name == "tau_solver.newton_solve"
    t["instances"] = int(solve.sum())
    t["newton_iters"] = float(value[solve].sum())
    t["solve_s"] = total(solve)
    t["grad_tau_calls"] = int((name == "dro_core.grad_tau").sum())
    t["hess_tau_calls"] = int((name == "dro_core.hess_tau").sum())
    t["dro_core_busy_s"] = total(layer == "dro_core")
    t["cli_self_s"] = float(self_t[0])
    t["cli_train_self_s"] = float(dur[0]) - total((name == "trainer.train") & (parent == 0))

    # training steps
    sample_idx = np.flatnonzero(name == "trainer.sample_batch")
    t["steps"] = len(sample_idx)
    in_step = np.zeros(len(name), dtype=bool)
    if len(sample_idx):
        step_start = start[sample_idx]
        after = start[(name == "trainer.evaluate") | (name == "trainer.save_checkpoint")]
        after = after[after > step_start[-1]]
        last_end = after.min() if len(after) else end[0]
        step_end = np.append(step_start[1:], last_end)
        t["step_wall_s"] = float((step_end - step_start).sum())
        k = np.searchsorted(step_start, start, side="right") - 1
        in_step = (k >= 0) & (start < step_end[np.maximum(k, 0)])
    backward = name == "diff_engine.backward"
    if backward.any():
        t["nodes"] = float(value[backward].sum())
        t["nodes_min"] = float(value[backward].min())
        t["nodes_max"] = float(value[backward].max())
    t["backward_s"] = total(backward & in_step)
    ops = (layer == "diff_engine") & ~backward & in_step
    t["op_calls"] = int(ops.sum())
    for op in np.unique(name[ops]):
        sel = ops & (name == op)
        t[f"calls.{op}"] = int(sel.sum())
        t[f"self_s.{op}"] = float(self_t[sel].sum())
    t["loss_s"] = total(np.isin(name, LOSS_SPANS) & in_step)
    t["sample_s"] = total((name == "trainer.sample_batch") & in_step)
    t["adamw_s"] = total((name == "trainer.adamw_step") & in_step)
    tnet = np.isin(name, TEMPNET_SPANS)
    t["tempnet_step_s"] = total(tnet & in_step)
    t["tempnet_rows"] = float(value[tnet & in_step].sum())
    t["tempnet_eval_s"] = total(tnet & ~in_step)
    t["perplexity_s"] = total(name == "models.perplexity")
    t["recall_s"] = total(name == "models.recall_at_k")
    t["checkpoint_s"] = total(
        (name == "trainer.save_checkpoint") | (name == "trainer.load_checkpoint")
    )
    return t


def add_totals(into: dict, t: dict) -> None:
    for key, v in t.items():
        if key == "nodes_min":
            into[key] = min(into.get(key, v), v)
        elif key == "nodes_max":
            into[key] = max(into.get(key, v), v)
        else:
            into[key] = into.get(key, 0) + v
