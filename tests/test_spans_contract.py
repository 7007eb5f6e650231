"""The benchmark's tracer keeps finding every name it wraps.

perfbench/spans.py wraps the package's functions by name from outside the
package. Here it is loaded unchanged, installed around short train-lm and
train-cl runs, and then uninstalled: renaming or bypassing a traced name
fails this test instead of the traced benchmark run. A wrapped name that no
command calls any more is a span gone stale; those are pinned in STALE_SPANS,
so a new one shows here.
"""

import importlib.util
from pathlib import Path

from drotemp import cli
from drotemp import models as md

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
CORPUS = "src/drotemp/assets/corpus.txt"
SMALL = ["train.total_steps=2", "train.eval_every=2", "train.batch_size=8",
         "tempnet.d1=8", "tempnet.d2=4"]
LM = [f"data.corpus={CORPUS}", "lm.context_len=12", "lm.d_model=16", "lm.d_ff=32"]
# wrapped, but no command calls them: solve-tau solves through
# cli.solve_margins, and the LM evaluation through models.lm_eval_pass
STALE_SPANS = {
    "tau_solver.newton_solve",
    "dro_core.LogitSet",
    "dro_core.robust_loss",
    "dro_core.grad_tau",
    "dro_core.hess_tau",
    "models.perplexity",
}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_runs_record_their_loss_and_uninstall_restores(tmp_path):
    pairs = tmp_path / "pairs.csv"
    md.save_pairs_csv(pairs, md.gen_clustered_pairs(40, 6, 3, 0.2, seed=4))
    cl = [f"data.pairs={pairs}", "cl.hidden=12", "cl.out_dim=8"]
    runs = [
        ("train-lm", LM, "robust", "models.robust_softmax_loss"),
        ("train-lm", LM, "ce", "models.baseline_ce_loss"),
        ("train-cl", cl, "robust", "models.robust_gcl_loss"),
        ("train-cl", cl, "fixed", "models.baseline_gcl_loss"),
    ]
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        originals = list(tracer._saved)
        for command, data, objective, loss_span in runs:
            assert loss_span in spans.LOSS_SPANS
            lo = tracer.mark()
            out = tmp_path / f"{command}-{objective}"
            argv = [command, "--out", str(out), *data, *SMALL, f"task.objective={objective}"]
            assert cli.main(argv) == 0
            hi = tracer.mark()
            recorded = {tracer.names[i] for i in tracer.name_id[lo:hi]}
            assert loss_span in recorded, (command, objective)
            totals = spans.op_totals(tracer, lo, hi)
            assert totals["steps"] == 2 and totals["loss_s"] > 0.0 and totals["nodes"] > 0
    finally:
        tracer.uninstall()
    assert len(originals) > 40
    for owner, attr, fn in originals:
        assert getattr(owner, attr) is fn, (owner, attr)


def test_every_wrapped_name_but_the_stale_ones_is_called(tmp_path):
    """The four training runs, eval and export-temps on each, solve-tau on
    one record and verify's gradient check reach every wrapped name but
    STALE_SPANS."""
    pairs = tmp_path / "pairs.csv"
    md.save_pairs_csv(pairs, md.gen_clustered_pairs(40, 6, 3, 0.2, seed=4))
    stream = tmp_path / "in.jsonl"
    stream.write_text('{"positive":1.0,"contrast":[0.5,2.0,-1.0]}\n', encoding="utf-8")
    commands = [["solve-tau", "--input", str(stream), "--output", str(tmp_path / "out.jsonl")],
                ["verify", "--seed", "0", "--only", "gradients"]]
    cl = [f"data.pairs={pairs}", "cl.hidden=12", "cl.out_dim=8"]
    for command, data, objective in [("train-lm", LM, "robust"), ("train-lm", LM, "ce"),
                                     ("train-cl", cl, "robust"), ("train-cl", cl, "fixed")]:
        out = tmp_path / f"{command}-{objective}"
        source = ["--corpus", CORPUS] if command == "train-lm" else ["--pairs", str(pairs)]
        run = ["--checkpoint", str(out / "checkpoint.bin"), *source]
        commands += [[command, "--out", str(out), *data, *SMALL, f"task.objective={objective}"],
                     ["eval", *run, "--out", str(out / "eval.csv")],
                     ["export-temps", *run, "--output", str(out / "temps.csv")]]
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        for argv in commands:
            assert cli.main(argv) == 0, argv
    finally:
        tracer.uninstall()
    called = {tracer.names[i] for i in tracer.name_id}
    assert "diff_engine.tempnet_head" in called
    assert set(tracer.names) - called == STALE_SPANS


def evaluations_and_outside_tau_calls(argv, tau_span):
    """Trace one training command: the indices of its trainer.evaluate spans,
    and of its tau_span calls outside the loss spans of the training steps,
    each with its ancestors."""
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.name_id]
    parent = list(tracer.parent)

    def ancestors(i):
        while parent[i] >= 0:
            i = parent[i]
            yield i

    evals = [i for i, name in enumerate(names) if name == "trainer.evaluate"]
    tau_calls = [i for i, name in enumerate(names) if name == tau_span]
    outside_steps = {
        i: set(ancestors(i)) for i in tau_calls
        if not any(names[a] in spans.LOSS_SPANS for a in ancestors(i))
    }
    assert len(outside_steps) < len(tau_calls)
    return evals, outside_steps


def test_traced_train_lm_evaluates_once(tmp_path):
    """train-lm writes temperatures.csv from the trainer's final evaluation,
    so outside the training steps every TempNet call lies under the run's
    one trainer.evaluate span: a second evaluation pass would show here."""
    argv = ["train-lm", "--out", str(tmp_path / "run"), *LM, *SMALL, "task.objective=robust"]
    evals, outside_steps = evaluations_and_outside_tau_calls(argv, "tempnet.llm_tau_batch")
    assert len(evals) == 1
    assert outside_steps and all(evals[0] in up for up in outside_steps.values())


def test_traced_train_cl_evaluates_once(tmp_path):
    """The same for train-cl, whose per-side temperature file comes from the
    final evaluation too."""
    pairs = tmp_path / "pairs.csv"
    md.save_pairs_csv(pairs, md.gen_clustered_pairs(40, 6, 3, 0.2, seed=4))
    argv = ["train-cl", "--out", str(tmp_path / "run"), f"data.pairs={pairs}", "cl.hidden=12",
            "cl.out_dim=8", *SMALL, "task.objective=robust"]
    evals, outside_steps = evaluations_and_outside_tau_calls(argv, "tempnet.cl_tau_batch")
    assert len(evals) == 1
    assert len(outside_steps) == 2  # the image side's and the text side's
    assert all(evals[0] in up for up in outside_steps.values())
