"""The benchmark's tracer keeps finding every name it wraps.

perfbench/spans.py wraps the package's functions by name from outside the
package. Here it is loaded unchanged, installed around short train-lm and
train-cl runs, and then uninstalled: renaming or bypassing a traced name
fails this test instead of the traced benchmark run.
"""

import importlib.util
from pathlib import Path

from drotemp import cli
from drotemp import models as md

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
CORPUS = "src/drotemp/assets/corpus.txt"
SMALL = ["train.total_steps=2", "train.eval_every=2", "train.batch_size=8",
         "tempnet.d1=8", "tempnet.d2=4"]


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_runs_record_their_loss_and_uninstall_restores(tmp_path):
    pairs = tmp_path / "pairs.csv"
    md.save_pairs_csv(pairs, md.gen_clustered_pairs(40, 6, 3, 0.2, seed=4))
    lm = [f"data.corpus={CORPUS}", "lm.context_len=12", "lm.d_model=16", "lm.d_ff=32"]
    cl = [f"data.pairs={pairs}", "cl.hidden=12", "cl.out_dim=8"]
    runs = [
        ("train-lm", lm, "robust", "models.robust_softmax_loss"),
        ("train-lm", lm, "ce", "models.baseline_ce_loss"),
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
