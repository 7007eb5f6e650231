"""Command-line surface: solving, training, evaluation, verification, export.

Configuration is a flat dotted-key table (``train.base_lr = 1e-4``) read from
an optional UTF-8 config file (``#`` comments allowed) and overridden by
``key=value`` arguments; a few common knobs also have dedicated flags. Unknown
keys are rejected, and every training run writes the fully resolved table
next to its outputs so a run can be reproduced from its own directory.

Exit codes: 0 success, 1 validation or check failure, 2 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import shutil
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import models as md
from . import tempnet as tn
from . import trainer as tr
from . import verify as vf
from .diff_engine import Tensor
# newton_solve and robust_loss are not called here; they stay importable from
# this module because perfbench's tracer wraps cli.newton_solve, cli.LogitSet
# and cli.robust_loss by name
from .dro_core import DroConfig, LogitSet, robust_loss  # noqa: F401
from .errors import DomainError, IntegrityError, TrainingDivergedError
from .tau_solver import (
    BatchSolveError,
    SolveStatus,
    SolverOptions,
    batch_robust_loss,
    batch_solve,
    newton_solve,  # noqa: F401
)

# ---------------------------------------------------------------------------
# config schema


def _f(raw: str) -> float:
    return float(raw)


def _i(raw: str) -> int:
    return int(raw)


def _s(raw: str) -> str:
    return raw


_COMMON_SCHEMA: Dict[str, tuple] = {
    "task.mode": (_s, "scratch"),
    "task.objective": (_s, "robust"),
    "task.init_from": (_s, None),
    "dro.rho": (_f, 1.0),
    "dro.tau0": (_f, 1e-3),
    "dro.tau_max": (_f, 2.0),
    "tempnet.d1": (_i, 16),
    "tempnet.d2": (_i, 8),
    "train.total_steps": (_i, 200),
    "train.batch_size": (_i, 8),
    "train.seed": (_i, 0),
    "train.base_lr": (_f, 1e-3),
    "train.tempnet_lr": (_f, 1e-4),
    "train.warmup_fraction": (_f, 0.01),
    "train.weight_decay": (_f, 0.1),
    "train.beta1": (_f, 0.9),
    "train.beta2": (_f, 0.95),
    "train.eps": (_f, 1e-8),
    "train.eval_every": (_i, 100),
}

_LM_SCHEMA: Dict[str, tuple] = {
    **_COMMON_SCHEMA,
    "data.corpus": (_s, None),
    "lm.d_model": (_i, 32),
    "lm.d_ff": (_i, 64),
    "lm.n_blocks": (_i, 1),
    "lm.context_len": (_i, 32),
    "lm.val_fraction": (_f, 0.1),
}

# contrastive defaults follow the usual recipe for that side: smaller lr and
# weight decay, slower second moment
_CL_SCHEMA: Dict[str, tuple] = {
    **_COMMON_SCHEMA,
    "train.base_lr": (_f, 2e-4),
    "train.weight_decay": (_f, 0.02),
    "train.beta2": (_f, 0.999),
    "train.batch_size": (_i, 16),
    "data.pairs": (_s, None),
    "cl.hidden": (_i, 32),
    "cl.out_dim": (_i, 16),
    "cl.eval_fraction": (_f, 0.25),
    "cl.fixed_tau1": (_f, 0.05),
    "cl.fixed_tau2": (_f, 0.05),
}


def _parse_config_file(path) -> Dict[str, str]:
    entries: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = line.split("=", 1)
            entries[key.strip()] = value.strip()
    return entries


def resolve_config(
    schema: Dict[str, tuple], config_path: Optional[str], overrides: Sequence[str]
) -> Dict[str, object]:
    """Defaults, then config file, then overrides; unknown keys are fatal."""
    values = {key: default for key, (_, default) in schema.items()}

    def apply(key: str, raw: str, source: str):
        if key not in schema:
            raise DomainError(f"unknown config key {key!r} (from {source})")
        converter = schema[key][0]
        try:
            values[key] = converter(raw)
        except ValueError:
            raise DomainError(f"config key {key!r} got unparseable value {raw!r}") from None

    if config_path is not None:
        for key, raw in _parse_config_file(config_path).items():
            apply(key, raw, str(config_path))
    for item in overrides:
        if "=" not in item:
            raise DomainError(f"override {item!r} must look like key=value")
        key, raw = item.split("=", 1)
        apply(key.strip(), raw.strip(), "command line")
    return values


def _require(values: Dict[str, object], key: str):
    if values[key] is None:
        raise DomainError(f"missing required config key {key!r}")
    return values[key]


def _format_value(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def write_resolved_config(values: Dict[str, object], out_dir: Path):
    lines = ["# resolved configuration"]
    for key in sorted(values):
        if values[key] is not None:
            lines.append(f"{key} = {_format_value(values[key])}")
    (out_dir / "config.resolved").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _train_config(values: Dict[str, object]) -> tr.TrainConfig:
    return tr.TrainConfig(
        total_steps=values["train.total_steps"],
        batch_size=values["train.batch_size"],
        seed=values["train.seed"],
        cfg=DroConfig(
            tau0=values["dro.tau0"], tau_max=values["dro.tau_max"], rho=values["dro.rho"]
        ),
        base_lr=values["train.base_lr"],
        tempnet_lr=values["train.tempnet_lr"],
        warmup_fraction=values["train.warmup_fraction"],
        weight_decay=values["train.weight_decay"],
        beta1=values["train.beta1"],
        beta2=values["train.beta2"],
        eps=values["train.eps"],
        eval_every=values["train.eval_every"],
    )


# ---------------------------------------------------------------------------
# temperature collection shared by eval / export / train summaries


def _rescaled_net(net: tn.TempNetParams, tau_max_eval: Optional[float]) -> tn.TempNetParams:
    """Same weights with the output map stretched to a new ceiling."""
    if tau_max_eval is None:
        return net
    cfg = dataclasses.replace(net.cfg, tau_max=float(tau_max_eval))
    return tn.TempNetParams(
        cfg=cfg, W1=net.W1, b1=net.b1, W2=net.W2, w3=net.w3, phi=net.phi, b=net.b
    )


def _lm_eval_windows(ckpt: tr.Checkpoint, corpus_path) -> md.TokenBatch:
    """The same validation windows the trainer evaluated on."""
    snap = ckpt.extra.get("task", {})
    val_fraction = float(snap.get("val_fraction", 0.1))
    text = md.load_corpus(corpus_path)
    vocab = md.build_vocab(text)
    cfg = ckpt.foundation.cfg
    if vocab.size != cfg.vocab_size:
        raise DomainError(
            f"corpus vocabulary size {vocab.size} != checkpoint vocabulary {cfg.vocab_size}"
        )
    _, val_ids = md.split_ids(vocab.encode(text), val_fraction)
    return md.eval_windows(val_ids, cfg.context_len)


def _lm_temperature_source(ckpt: tr.Checkpoint, tau_max_eval: Optional[float]):
    """The checkpoint's TempNet (at the inference ceiling), or tau = 1 for CE."""
    return _rescaled_net(ckpt.tempnets[0], tau_max_eval) if ckpt.tempnets else 1.0


def _collect_lm_temps(
    ckpt: tr.Checkpoint, corpus_path, tau_max_eval: Optional[float] = None
) -> np.ndarray:
    batch = _lm_eval_windows(ckpt, corpus_path)
    return md.lm_eval_pass(ckpt.foundation, _lm_temperature_source(ckpt, tau_max_eval), batch)[1]


def _cl_eval_pairs(ckpt: tr.Checkpoint, pairs_path) -> md.PairBatch:
    """The same eval pairs the trainer held out."""
    eval_fraction = float(ckpt.extra.get("task", {}).get("eval_fraction", 0.25))
    return md.split_pairs(md.load_pairs_csv(pairs_path), eval_fraction)[1]


def _collect_cl_temps(
    ckpt: tr.Checkpoint, pairs_path, tau_max_eval: Optional[float] = None
) -> Tuple[List[str], np.ndarray]:
    eval_pairs = _cl_eval_pairs(ckpt, pairs_path)
    sides = ["image"] * eval_pairs.n + ["text"] * eval_pairs.n
    if not ckpt.tempnets:
        snap = ckpt.extra.get("task", {})
        taus = np.concatenate(
            [
                np.full(eval_pairs.n, float(snap.get("fixed_tau1", 1.0))),
                np.full(eval_pairs.n, float(snap.get("fixed_tau2", 1.0))),
            ]
        )
        return sides, taus
    net_img = _rescaled_net(ckpt.tempnets[0], tau_max_eval)
    net_txt = _rescaled_net(ckpt.tempnets[1], tau_max_eval)
    e_img = md.encode_image(ckpt.foundation, Tensor(eval_pairs.x))
    e_txt = md.encode_text(ckpt.foundation, Tensor(eval_pairs.t))
    taus = np.concatenate(
        [tn.cl_tau_batch(net_img, e_img).data, tn.cl_tau_batch(net_txt, e_txt).data]
    )
    return sides, taus


def _write_lm_temps(path, taus: np.ndarray):
    lines = ["index,tau"] + [f"{i},{repr(float(t))}" for i, t in enumerate(taus)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_cl_temps(path, sides: List[str], taus: np.ndarray):
    lines = ["index,side,tau"] + [
        f"{i},{side},{repr(float(t))}" for i, (side, t) in enumerate(zip(sides, taus))
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# commands


# solve-tau reads, solves and writes its stream this many lines at a time,
# so memory stays bounded for any stream length
SOLVE_CHUNK = 1024


def _parse_instance(line: str) -> LogitSet:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid JSON: {exc.msg}") from None
    if not isinstance(record, dict) or set(record) != {"positive", "contrast"}:
        raise DomainError("record must have exactly the keys 'positive' and 'contrast'")
    try:
        return LogitSet(record["positive"], record["contrast"])
    except (TypeError, ValueError) as exc:
        raise DomainError(f"logits must be numbers: {exc}") from None


def _solve_lines(instances, linenos, path, cfg, opts, counts) -> str:
    """Solve one chunk of parsed lines; its output, one line per instance."""
    try:
        solutions = batch_solve(instances, cfg, opts)
    except BatchSolveError as exc:
        raise DomainError(f"{path}:{linenos[exc.index]}: {exc.cause}") from None
    losses = batch_robust_loss(instances, [sol.tau for sol in solutions], cfg)
    lines = []
    for sol, loss in zip(solutions, losses.tolist()):
        counts[sol.status] += 1
        lines.append(
            json.dumps(
                {"tau": sol.tau, "status": sol.status.value, "loss": loss, "grad": sol.final_grad}
            )
        )
    return "\n".join(lines) + "\n"


def _solve_stream(src, path, cfg, opts, counts):
    """Yield the output of every nonblank line of src, SOLVE_CHUNK lines at a
    time. The first failing line in file order is reported, whether it fails
    to parse or to solve."""
    instances, linenos = [], []
    for lineno, raw in enumerate(src, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            instances.append(_parse_instance(line))
        except DomainError as exc:
            if instances:  # an earlier line of the chunk may fail to solve
                _solve_lines(instances, linenos, path, cfg, opts, counts)
            raise DomainError(f"{path}:{lineno}: {exc}") from None
        linenos.append(lineno)
        if len(instances) == SOLVE_CHUNK:
            yield _solve_lines(instances, linenos, path, cfg, opts, counts)
            instances, linenos = [], []
    if instances:
        yield _solve_lines(instances, linenos, path, cfg, opts, counts)


def _write_whole(path: str, chunks) -> None:
    """Write the text chunks to path; a failure while they are produced
    leaves no partial output and an existing output untouched.

    Output of one chunk is written once it is complete. Longer output goes to
    a file beside path's target (symlinks followed) that is renamed over the
    target at the end, keeping the target's permission bits. A target that
    exists but is not a regular file (a FIFO, /dev/stdout on a pipe or
    terminal) is written in place, so there a failure after the second chunk
    leaves what was already written.
    """
    head = list(itertools.islice(chunks, 2))
    if len(head) < 2 or (os.path.exists(path) and not os.path.isfile(path)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(head)
            fh.writelines(chunks)
        return
    dst = Path(os.path.realpath(path))
    tmp = dst.with_name(f".{dst.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(head)
            fh.writelines(chunks)
        if dst.exists():
            shutil.copymode(dst, tmp)
        os.replace(tmp, dst)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cmd_solve_tau(args) -> int:
    cfg = DroConfig(tau0=args.tau0, tau_max=args.tau_max, rho=args.rho)
    opts = SolverOptions(tol=args.tol, bracket_hi=args.bracket_hi)
    counts = dict.fromkeys(SolveStatus, 0)
    with open(args.input, "r", encoding="utf-8") as src:
        _write_whole(args.output, _solve_stream(src, args.input, cfg, opts, counts))
    total = sum(counts.values())
    summary = ", ".join(f"{status.value} {n}" for status, n in counts.items())
    print(f"solved {total} instances -> {args.output} ({summary})")
    unconverged = counts[SolveStatus.MAX_ITER_REACHED]
    if unconverged:
        print(
            f"warning: {unconverged} of {total} instances stopped at the iteration"
            f" limit ({SolveStatus.MAX_ITER_REACHED.value}) before reaching tol {args.tol!r}",
            file=sys.stderr,
        )
    return 0


def _flag_overrides(args) -> List[str]:
    extra = []
    if args.mode is not None:
        extra.append(f"task.mode={args.mode}")
    if args.rho is not None:
        extra.append(f"dro.rho={args.rho!r}")
    if args.tau_max is not None:
        extra.append(f"dro.tau_max={args.tau_max!r}")
    if args.tempnet_lr is not None:
        extra.append(f"train.tempnet_lr={args.tempnet_lr!r}")
    return extra


def _run_training(args, schema: Dict[str, tuple], kind: str) -> int:
    values = resolve_config(schema, args.config, list(args.override) + _flag_overrides(args))
    run = _train_config(values)
    if kind == "lm":
        task: object = tr.LmTask(
            corpus_path=str(_require(values, "data.corpus")),
            mode=values["task.mode"],
            init_from=values["task.init_from"],
            objective=values["task.objective"],
            d_model=values["lm.d_model"],
            d_ff=values["lm.d_ff"],
            n_blocks=values["lm.n_blocks"],
            context_len=values["lm.context_len"],
            tempnet_d1=values["tempnet.d1"],
            tempnet_d2=values["tempnet.d2"],
            val_fraction=values["lm.val_fraction"],
        )
    else:
        task = tr.ClTask(
            pairs_path=str(_require(values, "data.pairs")),
            mode=values["task.mode"],
            init_from=values["task.init_from"],
            objective=values["task.objective"],
            hidden=values["cl.hidden"],
            out_dim=values["cl.out_dim"],
            tempnet_d1=values["tempnet.d1"],
            tempnet_d2=values["tempnet.d2"],
            eval_fraction=values["cl.eval_fraction"],
            fixed_tau1=values["cl.fixed_tau1"],
            fixed_tau2=values["cl.fixed_tau2"],
        )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_resolved_config(values, out_dir)
    ckpt, metrics_path = tr.train(run, task, out_dir)

    if kind == "lm":
        _write_lm_temps(out_dir / "temperatures.csv", _collect_lm_temps(ckpt, task.corpus_path))
    else:
        sides, taus = _collect_cl_temps(ckpt, task.pairs_path)
        _write_cl_temps(out_dir / "temperatures.csv", sides, taus)

    rows = tr.read_metrics(metrics_path)
    final = rows[-1] if rows else None
    print(f"run directory: {out_dir}")
    if final is not None:
        print(
            f"final step {final['step']}: loss {final['loss']!r},"
            f" eval {final['eval_metric']!r}, tau mean {final['tau_mean']!r}"
        )
    return 0


def cmd_train_lm(args) -> int:
    return _run_training(args, _LM_SCHEMA, "lm")


def cmd_train_cl(args) -> int:
    return _run_training(args, _CL_SCHEMA, "cl")


def cmd_eval(args) -> int:
    ckpt = tr.load_checkpoint(args.checkpoint)
    rows: List[Tuple[str, float]] = []
    if ckpt.kind == "lm":
        if args.corpus is None:
            raise DomainError("evaluating a language-model checkpoint needs --corpus")
        batch = _lm_eval_windows(ckpt, args.corpus)
        source = _lm_temperature_source(ckpt, args.tau_max_eval)
        ppl = md.perplexity(ckpt.foundation, source, batch)
        rows.append(("perplexity", ppl))
        print(f"perplexity: {ppl!r}")
    else:
        if args.pairs is None:
            raise DomainError("evaluating a contrastive checkpoint needs --pairs")
        eval_pairs = _cl_eval_pairs(ckpt, args.pairs)
        r_img, r_txt = md.recall_at_k(ckpt.foundation, eval_pairs, args.k)
        rows.extend(
            [
                (f"image_retrieval_recall@{args.k}", r_img),
                (f"text_retrieval_recall@{args.k}", r_txt),
                (f"mean_recall@{args.k}", 0.5 * (r_img + r_txt)),
            ]
        )
        for name, value in rows:
            print(f"{name}: {value!r}")
    out_path = Path(args.out) if args.out else Path(args.checkpoint).parent / "eval.csv"
    lines = ["metric,value"] + [f"{name},{repr(float(value))}" for name, value in rows]
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def cmd_verify(args) -> int:
    only = None
    if args.only:
        # accept both bare names and the check_... function names
        only = [name[len("check_"):] if name.startswith("check_") else name for name in args.only]
    reports = vf.run_suite(seed=args.seed, only=only, fault=args.fault)
    for report in reports:
        print(report.describe())
    if args.out:
        Path(args.out).write_text(vf.suite_csv(reports), encoding="utf-8")
    return 0 if all(r.passed for r in reports) else 1


def cmd_export_temps(args) -> int:
    ckpt = tr.load_checkpoint(args.checkpoint)
    if ckpt.kind == "lm":
        if args.corpus is None:
            raise DomainError("exporting from a language-model checkpoint needs --corpus")
        taus = _collect_lm_temps(ckpt, args.corpus, args.tau_max_eval)
        _write_lm_temps(args.output, taus)
    else:
        if args.pairs is None:
            raise DomainError("exporting from a contrastive checkpoint needs --pairs")
        sides, taus = _collect_cl_temps(ckpt, args.pairs, args.tau_max_eval)
        _write_cl_temps(args.output, sides, taus)
    print(f"wrote {taus.size} temperatures -> {args.output}")
    return 0


def cmd_gen_pairs(args) -> int:
    batch = md.gen_clustered_pairs(args.n, args.dim, args.clusters, args.noise, args.seed)
    md.save_pairs_csv(args.output, batch)
    print(f"wrote {batch.n} pairs -> {args.output}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_train_arguments(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="config file of dotted-key = value lines")
    sub.add_argument("--out", required=True, help="run directory for all outputs")
    sub.add_argument("--mode", choices=tr.MODES, help="training mode")
    sub.add_argument("--rho", type=float, help="divergence-ball radius")
    sub.add_argument("--tau-max", type=float, dest="tau_max", help="temperature ceiling")
    sub.add_argument("--tempnet-lr", type=float, dest="tempnet_lr", help="temperature-net lr")
    sub.add_argument(
        "override", nargs="*", metavar="key=value", help="config overrides (dotted keys)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drotemp",
        description="Robust-loss training with per-instance learned temperatures.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve-tau", help="solve optimal temperatures for a JSONL stream")
    solve.add_argument("--input", required=True, help="JSON Lines: {positive, contrast} records")
    solve.add_argument("--output", required=True, help="JSON Lines: {tau, status, loss, grad}")
    solve.add_argument("--rho", type=float, default=1.0)
    solve.add_argument("--tau0", type=float, default=1e-3)
    solve.add_argument("--tau-max", type=float, dest="tau_max", default=2.0)
    solve.add_argument("--tol", type=float, default=1e-8)
    solve.add_argument("--bracket-hi", type=float, dest="bracket_hi", default=1e6)
    solve.set_defaults(func=cmd_solve_tau)

    train_lm = commands.add_parser("train-lm", help="train the toy language model")
    _add_train_arguments(train_lm)
    train_lm.set_defaults(func=cmd_train_lm)

    train_cl = commands.add_parser("train-cl", help="train the two-tower contrastive model")
    _add_train_arguments(train_cl)
    train_cl.set_defaults(func=cmd_train_cl)

    ev = commands.add_parser("eval", help="evaluate a checkpoint")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--corpus", help="corpus file (language-model checkpoints)")
    ev.add_argument("--pairs", help="pair CSV (contrastive checkpoints)")
    ev.add_argument("--k", type=int, default=1, help="recall cutoff")
    ev.add_argument(
        "--tau-max-eval",
        type=float,
        dest="tau_max_eval",
        help="stretch the temperature output map to this ceiling at inference",
    )
    ev.add_argument("--out", help="metrics CSV path (default: eval.csv next to checkpoint)")
    ev.set_defaults(func=cmd_eval)

    ver = commands.add_parser("verify", help="run the numerical verification suite")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--only", action="append", help="run only this check (repeatable)")
    ver.add_argument(
        "--fault",
        action="store_true",
        help="flip one analytic sign to demonstrate failure detection",
    )
    ver.add_argument("--out", help="write the report CSV here")
    ver.set_defaults(func=cmd_verify)

    export = commands.add_parser("export-temps", help="export per-instance temperatures")
    export.add_argument("--checkpoint", required=True)
    export.add_argument("--corpus", help="corpus file (language-model checkpoints)")
    export.add_argument("--pairs", help="pair CSV (contrastive checkpoints)")
    export.add_argument("--output", required=True)
    export.add_argument("--tau-max-eval", type=float, dest="tau_max_eval")
    export.set_defaults(func=cmd_export_temps)

    gen = commands.add_parser("gen-pairs", help="generate a synthetic clustered pair CSV")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--clusters", type=int, default=4)
    gen.add_argument("--noise", type=float, default=0.2)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", required=True)
    gen.set_defaults(func=cmd_gen_pairs)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, IntegrityError, TrainingDivergedError, BatchSolveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
