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
import functools
import itertools
import json
import os
import shutil
import sys
from array import array
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from . import models as md
from . import trainer as tr
from . import verify as vf
# newton_solve and robust_loss are not called here; they stay importable from
# this module because perfbench's tracer wraps cli.newton_solve, cli.LogitSet
# and cli.robust_loss by name
from .dro_core import DroConfig, LogitSet, robust_loss  # noqa: F401
from .errors import DomainError, IntegrityError, TrainingDivergedError, read_utf8
from .tau_solver import (
    STATUSES,
    SolveStatus,
    SolverOptions,
    margins_loss,
    newton_solve,  # noqa: F401
    solve_margins,
)

# ---------------------------------------------------------------------------
# config schema
#
# The keys are the fields of DroConfig, TrainConfig and the task class; each
# takes its default from the field, and its converter from that default's
# type (the raw string when the default is None). The CLI declares only the
# defaults the library does not have.


class _Key(NamedTuple):
    convert: Callable[[str], object]
    default: object
    owner: type
    field: dataclasses.Field


# a key is "<section>.<field>" unless renamed here
_KEY_NAMES = {
    "mode": "task.mode", "objective": "task.objective", "init_from": "task.init_from",
    "tempnet_d1": "tempnet.d1", "tempnet_d2": "tempnet.d2",
    "corpus_path": "data.corpus", "pairs_path": "data.pairs",
}

# the run length, batch size and seed have no library default
_RUN_DEFAULTS = {"train.total_steps": 200, "train.batch_size": 8, "train.seed": 0}


def _schema(task_type: type, section: str, defaults: Dict[str, object]) -> Dict[str, _Key]:
    schema = {}
    for owner, prefix in ((DroConfig, "dro"), (tr.TrainConfig, "train"), (task_type, section)):
        for f in dataclasses.fields(owner):
            if f.name == "cfg":  # TrainConfig's DroConfig, whose fields are keys of their own
                continue
            key = _KEY_NAMES.get(f.name, f"{prefix}.{f.name}")
            default = defaults.get(key, None if f.default is dataclasses.MISSING else f.default)
            schema[key] = _Key(str if default is None else type(default), default, owner, f)
    return schema


_LM_SCHEMA = _schema(tr.LmTask, "lm", _RUN_DEFAULTS)

# contrastive defaults follow the usual recipe for that side: smaller lr and
# weight decay, slower second moment
_CL_SCHEMA = _schema(tr.ClTask, "cl", {
    **_RUN_DEFAULTS, "train.batch_size": 16,
    "train.base_lr": 2e-4, "train.weight_decay": 0.02, "train.beta2": 0.999,
})


def _parse_config_file(path) -> Dict[str, str]:
    entries: Dict[str, str] = {}
    for lineno, raw in enumerate(read_utf8(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


def resolve_config(
    schema: Dict[str, _Key], config_path: Optional[str], overrides: Sequence[str]
) -> Dict[str, object]:
    """Defaults, then config file, then overrides; unknown keys are fatal."""
    values = {key: spec.default for key, spec in schema.items()}

    def apply(key: str, raw: str, source: str):
        if key not in schema:
            raise DomainError(f"unknown config key {key!r} (from {source})")
        try:
            values[key] = schema[key].convert(raw)
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


def _format_value(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def write_resolved_config(values: Dict[str, object], out_dir: Path):
    lines = ["# resolved configuration"]
    for key in sorted(values):
        if values[key] is not None:
            lines.append(f"{key} = {_format_value(values[key])}")
    (out_dir / "config.resolved").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _run_and_task(schema: Dict[str, _Key], values: Dict[str, object]):
    """The run and the task the resolved values describe, each value in its
    key's field. A field without a dataclass default must be set."""
    given: Dict[type, dict] = {}
    for key, spec in schema.items():
        given.setdefault(spec.owner, {})[spec.field.name] = values[key]
    run = tr.TrainConfig(cfg=DroConfig(**given.pop(DroConfig)), **given.pop(tr.TrainConfig))
    for key, spec in schema.items():
        if values[key] is None and spec.field.default is dataclasses.MISSING:
            raise DomainError(f"missing required config key {key!r}")
    ((task_type, fields),) = given.items()
    return run, task_type(**fields)


# ---------------------------------------------------------------------------
# commands


# solve-tau reads, solves and writes its stream this many lines at a time,
# so memory stays bounded for any stream length
SOLVE_CHUNK = 1024


def _unique_keys(pairs):
    """A JSON object's (key, value) pairs as a dict; a repeated key is refused."""
    record = {}
    for key, value in pairs:
        if key in record:
            raise DomainError(f"duplicate key {key!r}")
        record[key] = value
    return record


# every JSON number arrives as a float: float(text) rounds an integer as
# float(int(text)) does, and gives inf where that overflows
_RECORD_DECODER = json.JSONDecoder(parse_int=float, object_pairs_hook=_unique_keys)


def _parse_instance(line: str):
    """(positive, contrast) of one stripped line: a JSON object with exactly
    the keys positive and contrast, whose logits are JSON numbers."""
    try:
        record, end = _RECORD_DECODER.raw_decode(line)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise DomainError("invalid JSON: nested too deeply") from None
    if end < len(line):
        raise DomainError("invalid JSON: Extra data")
    if not isinstance(record, dict) or set(record) != {"positive", "contrast"}:
        raise DomainError("record must have exactly the keys 'positive' and 'contrast'")
    positive, contrast = record["positive"], record["contrast"]
    if type(contrast) is not list:
        raise DomainError("contrast must be a JSON array of logits")
    if not contrast:
        raise DomainError("contrast set must hold at least one logit")
    # every JSON number parses to a float, so any other type is a bool,
    # string, null, array or object
    if type(positive) is not float or list(map(type, contrast)).count(float) < len(contrast):
        raise DomainError("logits must be numbers")
    return positive, contrast


_OUTPUT_LINE = '{"tau": %r, "status": "%s", "loss": %r, "grad": %r}'
_STATUS_NAMES = [status.value for status in STATUSES]


def _refusal(logits_finite: bool, spread_finite: bool) -> str:
    """Why a row whose margin spread, loss or gradient is not finite is refused."""
    if not logits_finite:
        return "logits must be finite"
    if not spread_finite:
        return "margins overflow: (max - min) of contrast - positive, over tau0, is not finite"
    return "loss or gradient at the solution is not finite"


def _solve_lines(groups, linenos, path, cfg, opts, counts) -> str:
    """Solve one chunk of parsed lines, one margin block per K; its output,
    one line per line of the chunk. The chunk's first refused or unsolvable
    line raises.

    groups maps each K to its lines' (rows in the chunk, positives, contrast
    logits packed row after row).
    """
    n = len(linenos)
    tau, loss, grad = np.empty(n), np.empty(n), np.empty(n)
    code = np.empty(n, dtype=np.int64)
    first_bad = (n, "")
    # a refused row is named below, so its overflow or NaN must not warn
    with np.errstate(all="ignore"):
        for k, (rows, positives, logits) in groups.items():
            h = np.frombuffer(logits).reshape(-1, k)
            positive = np.array(positives)
            logits_finite = np.isfinite(h).all(axis=1) & np.isfinite(positive)
            h -= positive[:, None]
            spread_finite = np.isfinite((h.max(axis=1) - h.min(axis=1)) / cfg.tau0)
            (group_tau, group_code, _, group_grad), failure = solve_margins(h, cfg, opts)
            group_loss = margins_loss(h, group_tau, cfg)
            tau[rows], code[rows], grad[rows] = group_tau, group_code, group_grad
            loss[rows] = group_loss
            ok = spread_finite & np.isfinite(group_loss) & np.isfinite(group_grad)
            if not ok.all():
                i = int(np.argmin(ok))
                first_bad = min(first_bad, (rows[i], _refusal(logits_finite[i], spread_finite[i])))
            if failure is not None:
                first_bad = min(first_bad, (rows[failure[0]], failure[1]))
    row, reason = first_bad
    if reason:
        raise DomainError(f"{path}:{linenos[row]}: {reason}")
    for status, count in zip(STATUSES, np.bincount(code, minlength=len(STATUSES)).tolist()):
        counts[status] += count
    names = map(_STATUS_NAMES.__getitem__, code.tolist())
    lines = map(_OUTPUT_LINE.__mod__, zip(tau.tolist(), names, loss.tolist(), grad.tolist()))
    return "\n".join(lines) + "\n"


def _solve_stream(src, path, cfg, opts, counts):
    """Yield the output of every nonblank line of src, SOLVE_CHUNK lines at a
    time. The first failing line in file order is reported, whether it fails
    to parse, is refused, or fails to solve."""
    groups, linenos = {}, []
    for lineno, raw in enumerate(src, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            positive, contrast = _parse_instance(line)
        except DomainError as exc:
            if linenos:  # an earlier line of the chunk may be refused or fail to solve
                _solve_lines(groups, linenos, path, cfg, opts, counts)
            raise DomainError(f"{path}:{lineno}: {exc}") from None
        group = groups.get(len(contrast))
        if group is None:
            group = groups[len(contrast)] = ([], [], array("d"))
        rows, positives, logits = group
        rows.append(len(linenos))
        positives.append(positive)
        logits.fromlist(contrast)
        linenos.append(lineno)
        if len(linenos) == SOLVE_CHUNK:
            yield _solve_lines(groups, linenos, path, cfg, opts, counts)
            groups, linenos = {}, []
    if linenos:
        yield _solve_lines(groups, linenos, path, cfg, opts, counts)


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
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            # name the output the caller gave, not the temp file beside it
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def cmd_solve_tau(args) -> int:
    cfg = DroConfig(tau0=args.tau0, tau_max=args.tau_max, rho=args.rho)
    opts = SolverOptions(tol=args.tol, bracket_hi=args.bracket_hi)
    counts = dict.fromkeys(SolveStatus, 0)
    with open(args.input, "r", encoding="utf-8") as src:
        try:
            _write_whole(args.output, _solve_stream(src, args.input, cfg, opts, counts))
        except UnicodeDecodeError as exc:
            # the stream is decoded a block ahead of the line being parsed,
            # so no line can be named
            raise DomainError(f"{args.input}: not UTF-8 text ({exc.reason})") from None
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


def _run_training(args, schema: Dict[str, _Key]) -> int:
    values = resolve_config(schema, args.config, list(args.override) + _flag_overrides(args))
    run, task = _run_and_task(schema, values)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_resolved_config(values, out_dir)
    _, metrics_path = tr.train(run, task, out_dir)
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
    return _run_training(args, _LM_SCHEMA)


def cmd_train_cl(args) -> int:
    return _run_training(args, _CL_SCHEMA)


def _open_run(args):
    """The finished run at --checkpoint, opened on the --corpus or --pairs data."""
    ckpt = tr.load_checkpoint(args.checkpoint)
    family, flag, data = (
        ("language-model", "--corpus", args.corpus) if ckpt.kind == "lm"
        else ("contrastive", "--pairs", args.pairs)
    )
    if data is None:
        raise DomainError(f"{args.command} of a {family} checkpoint needs {flag}")
    return tr.open_run(ckpt, data, args.tau_max_eval)


def cmd_eval(args) -> int:
    rows, _ = _open_run(args).evaluate(args.k)
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
    runtime = _open_run(args)
    n = runtime.write_temperatures(args.output, runtime.evaluate()[1])
    print(f"wrote {n} temperatures -> {args.output}")
    return 0


def cmd_gen_pairs(args) -> int:
    batch = md.gen_clustered_pairs(args.n, args.dim, args.clusters, args.noise, args.seed)
    md.save_pairs_csv(args.output, batch)
    print(f"wrote {batch.n} pairs -> {args.output}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_run_arguments(sub: argparse.ArgumentParser):
    sub.add_argument("--checkpoint", required=True)
    sub.add_argument("--corpus", help="corpus file (language-model checkpoints)")
    sub.add_argument("--pairs", help="pair CSV (contrastive checkpoints)")
    sub.add_argument(
        "--tau-max-eval", type=float, dest="tau_max_eval",
        help="stretch the temperature output map to this ceiling at inference",
    )


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


class _Parser(argparse.ArgumentParser):
    """argparse, but key=value overrides may sit anywhere after the command:
    argparse collects one run of them, and the later ones it leaves over join
    it in command-line order. Any other leftover is still a usage error."""

    def parse_args(self, args=None, namespace=None):
        parsed, rest = self.parse_known_args(args, namespace)
        takes_overrides = hasattr(parsed, "override")
        extra = [a for a in rest if not takes_overrides or "=" not in a or a.startswith("-")]
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        if rest:
            parsed.override += rest
        return parsed


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    _add_run_arguments(ev)
    ev.add_argument("--k", type=int, default=1, help="recall cutoff")
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
    _add_run_arguments(export)
    export.add_argument("--output", required=True)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process: parsing never mutates
    it, and building costs far more than a parse."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    tr._keep_freed_heap()
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, IntegrityError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy names the allocation it could not make
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
