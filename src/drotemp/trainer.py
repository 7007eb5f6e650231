"""Deterministic training loop for the robust-loss models.

The loop trains either the toy language model or the two-tower contrastive
model together with its temperature network(s). Everything is seeded and
single threaded: two runs with the same config produce bit-identical metrics
files, and a run resumed from a checkpoint continues the exact trajectory of
an uninterrupted one (parameters, optimizer moments, and the batch-sampling
RNG state all round-trip through the checkpoint).

Three modes are supported:

* ``scratch``         - initialize everything fresh from the run seed.
* ``joint-finetune``  - warm-start the foundation model from a checkpoint,
                        then train it jointly with a fresh temperature net.
* ``tempnet-only``    - freeze the foundation model from a checkpoint and
                        train only the temperature net(s).

Baseline objectives (plain cross entropy, fixed-temperature contrastive) run
through the same loop so their metrics are directly comparable.
"""

from __future__ import annotations

import binascii
import bisect
import ctypes
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import diff_engine as de
from . import models as md
from . import tempnet as tn
from .diff_engine import Tape, Tensor, backward
from .dro_core import DroConfig
from .errors import DomainError, IntegrityError, NonFiniteError, ShapeError, TrainingDivergedError
from .errors import bounds, check_fields

MODES = ("scratch", "joint-finetune", "tempnet-only")
METRICS_HEADER = "step,loss,eval_metric,tau_mean,tau_min,tau_max,lr_model,lr_tempnet"

# phi is a trained parameter but the attention pooling needs it positive;
# an optimizer step that crosses zero is clipped back to this floor
PHI_FLOOR = 1e-4

_MAGIC = b"TNCK"
_VERSION = 1


# ---------------------------------------------------------------------------
# configuration

_UNIT_OPEN = bounds(0, 1, open_lo=True, open_hi=True)  # a fraction or a moment decay


@dataclass(frozen=True)
class TrainConfig:
    """One run's optimization hyper-parameters.

    Defaults follow the usual language-model recipe (beta2 = 0.95, weight
    decay 0.1, 1% linear warmup into a cosine decay); contrastive runs
    typically override lr, weight_decay, and beta2.
    """

    total_steps: int = field(metadata=bounds(1))
    batch_size: int = field(metadata=bounds(1))
    seed: int = field(metadata=bounds(0))
    cfg: DroConfig
    base_lr: float = field(default=1e-3, metadata=bounds(0))
    tempnet_lr: float = field(default=1e-4, metadata=bounds(0))
    warmup_fraction: float = field(default=0.01, metadata=_UNIT_OPEN)
    weight_decay: float = field(default=0.1, metadata=bounds(0))
    beta1: float = field(default=0.9, metadata=_UNIT_OPEN)
    beta2: float = field(default=0.95, metadata=_UNIT_OPEN)
    eps: float = field(default=1e-8, metadata=bounds(0, open_lo=True))
    eval_every: int = field(default=100, metadata=bounds(1))

    def __post_init__(self):
        check_fields(self)
        if not isinstance(self.cfg, DroConfig):
            raise DomainError("cfg must be a DroConfig")


@dataclass(frozen=True)
class LmTask:
    """What to train on the language-model side."""

    corpus_path: str
    mode: str = "scratch"
    init_from: Optional[str] = None
    objective: str = "robust"  # "robust" or "ce" (fixed tau = 1 baseline)
    d_model: int = 32
    d_ff: int = 64
    n_blocks: int = 1
    # LmConfig holds the model's range; this refuses an empty window early
    context_len: int = field(default=32, metadata=bounds(1))
    tempnet_d1: int = 16
    tempnet_d2: int = 8
    val_fraction: float = field(default=0.1, metadata=_UNIT_OPEN)

    def __post_init__(self):
        check_fields(self)
        _check_task_common(self, ("robust", "ce"))


@dataclass(frozen=True)
class ClTask:
    """What to train on the contrastive side."""

    pairs_path: str
    mode: str = "scratch"
    init_from: Optional[str] = None
    objective: str = "robust"  # "robust" or "fixed" (constant-temperature baseline)
    hidden: int = 32
    out_dim: int = 16
    tempnet_d1: int = 16
    tempnet_d2: int = 8
    eval_fraction: float = field(default=0.25, metadata=_UNIT_OPEN)
    fixed_tau1: float = field(default=0.05, metadata=bounds(0, open_lo=True))
    fixed_tau2: float = field(default=0.05, metadata=bounds(0, open_lo=True))

    def __post_init__(self):
        check_fields(self)
        _check_task_common(self, ("robust", "fixed"))


def _check_task_common(task: Union[LmTask, ClTask], allowed: Tuple[str, ...]):
    if task.mode not in MODES:
        raise DomainError(f"mode must be one of {MODES}, got {task.mode!r}")
    if task.objective not in allowed:
        raise DomainError(f"objective must be one of {allowed}, got {task.objective!r}")
    if task.mode == "scratch" and task.init_from is not None:
        raise DomainError("scratch mode does not take an init checkpoint")
    if task.mode != "scratch" and task.init_from is None:
        raise DomainError(f"{task.mode} mode needs init_from")
    if task.mode == "tempnet-only" and task.objective != "robust":
        raise DomainError("tempnet-only mode requires the robust objective")


# ---------------------------------------------------------------------------
# optimizer and schedule


@dataclass
class OptimizerState:
    """Per-parameter first/second moments plus the shared step counter."""

    step: int = 0
    moments: Dict[str, Tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


class ParamGroup:
    """One optimizer group's parameters, gradient and moments, each held as
    one contiguous vector (p, g, m, v) with a slice per named tensor.

    Building the group copies each tensor into p and rebinds its ``.data`` to
    a view of its slice, so an in-place update of p updates every tensor.
    ``grad_views`` maps each tensor to its slice of g in the same way, for
    ``backward``'s ``into``: the gradient lands where ``adamw_step`` reads it.
    Moments already in ``state`` (a resumed run) are copied into m / v and
    their entries rebound to views the same way; moments not yet there start
    at zero and enter ``state.moments`` at the group's first update. The
    checkpoint therefore still reads and writes one array per name.
    """

    def __init__(self, named_tensors: Sequence[Tuple[str, Tensor]], state: OptimizerState):
        self.names = [name for name, _ in named_tensors]
        tensors = [tensor for _, tensor in named_tensors]
        self.offsets = [0]
        for tensor in tensors:
            self.offsets.append(self.offsets[-1] + tensor.size)
        self.p, self.g, self.m, self.v = (np.zeros(self.offsets[-1]) for _ in range(4))
        self.state = state
        self._pending = {}
        self.grad_views = {}
        for name, tensor, lo, hi in zip(self.names, tensors, self.offsets, self.offsets[1:]):
            shape = tensor.shape
            self.p[lo:hi] = tensor.data.reshape(-1)
            tensor.data = self.p[lo:hi].reshape(shape)
            self.grad_views[tensor] = self.g[lo:hi].reshape(shape)
            views = (self.m[lo:hi].reshape(shape), self.v[lo:hi].reshape(shape))
            if name in state.moments:
                for saved, flat in zip(state.moments[name], (self.m, self.v)):
                    if saved.shape != shape:
                        raise ShapeError("adamw_step", saved.shape, shape)
                    flat[lo:hi] = saved.reshape(-1)
                state.moments[name] = views
            else:
                self._pending[name] = views

    def commit(self, p: np.ndarray, m: np.ndarray, v: np.ndarray) -> None:
        """Write an accepted update into the buffers and count the step."""
        self.p[:] = p
        self.m[:] = m
        self.v[:] = v
        self.state.step += 1
        if self._pending:
            self.state.moments.update(self._pending)
            self._pending = {}

    def first_non_finite(self, flat: np.ndarray) -> str:
        """Name of the parameter owning the first non-finite entry of flat."""
        index = int(np.flatnonzero(~np.isfinite(flat))[0])
        return self.names[bisect.bisect_right(self.offsets, index) - 1]


def _schedule_scale(step: int, cfg: TrainConfig) -> float:
    """Schedule multiplier in [0, 1]; both lr groups share the shape."""
    total = int(cfg.total_steps)
    if not (0 <= step <= total):
        raise DomainError(f"schedule step must be in [0, {total}], got {step}")
    warmup = min(max(1, int(round(cfg.warmup_fraction * total))), total)
    if step <= warmup:
        return step / warmup
    progress = (step - warmup) / (total - warmup)
    return 0.5 * (1.0 + math.cos(math.pi * progress))


def adamw_step(group: ParamGroup, lr: float, cfg: TrainConfig) -> None:
    """One decoupled-weight-decay Adam update of a whole group, in place, from
    the gradient in its flat ``g``.

    Decay multiplies the weight by (1 - lr * weight_decay) before the moment
    update is subtracted, so a zero gradient shrinks a weight by exactly that
    factor.

    A non-finite gradient, or an update whose new weights or second moments
    would not be finite, raises TrainingDivergedError with the step the
    update would have been (the training step, when ``train`` calls it) and
    the first parameter concerned; p, m, v and the step are then unchanged.
    """
    t = group.state.step + 1
    g = group.g
    c1 = 1.0 - cfg.beta1**t
    c2 = 1.0 - cfg.beta2**t
    # the same elementwise operations, in the same order, as the per-tensor
    # update m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g g;
    # p = p (1 - lr wd) - lr (m / c1) / (sqrt(v / c2) + eps)
    with np.errstate(over="ignore", invalid="ignore"):
        m = cfg.beta1 * group.m
        m += (1.0 - cfg.beta1) * g
        gg = (1.0 - cfg.beta2) * g
        gg *= g
        v = cfg.beta2 * group.v
        v += gg
        update = m / c1
        update /= np.sqrt(v / c2) + cfg.eps
        update *= lr
        p = group.p * (1.0 - lr * cfg.weight_decay)
        p -= update
    # a non-finite gradient makes v non-finite, so these two checks cover it
    if not (np.isfinite(p).all() and np.isfinite(v).all()):
        if not np.isfinite(g).all():
            detail = f"non-finite gradient in {group.first_non_finite(g)}"
        else:
            bad, what = (p, "weights") if not np.isfinite(p).all() else (v, "second moments")
            detail = f"update of {group.first_non_finite(bad)} gives non-finite {what}"
        raise TrainingDivergedError(t, detail)
    group.commit(p, m, v)


# ---------------------------------------------------------------------------
# checkpoint serialization


@dataclass
class Checkpoint:
    """Everything needed to continue or evaluate a run."""

    kind: str  # "lm" or "cl"
    step: int
    config_hash: str
    foundation: Union[md.LmParams, md.TwoTowerParams]
    tempnets: Tuple[tn.TempNetParams, ...]
    opt_model: OptimizerState
    opt_tempnet: OptimizerState
    rng_state: dict
    extra: dict


def config_hash(run: TrainConfig, task: Union[LmTask, ClTask]) -> str:
    """Stable digest of the full run configuration."""
    payload = {
        "run": dataclasses.asdict(run),
        "task_type": type(task).__name__,
        "task": dataclasses.asdict(task),
    }
    blob = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _pack_arrays(named: Sequence[Tuple[str, np.ndarray]]) -> bytes:
    parts = [struct.pack("<I", len(named))]
    for name, arr in named:
        # asarray, not ascontiguousarray: the latter promotes 0-d to 1-d
        arr = np.asarray(arr, dtype="<f8", order="C")
        nb = name.encode("utf-8")
        parts.append(struct.pack("<H", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}q", *arr.shape))
        parts.append(arr.tobytes())
    return b"".join(parts)


def _unpack_arrays(payload: bytes, section: str) -> List[Tuple[str, np.ndarray]]:
    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(payload):
            raise IntegrityError(f"checkpoint section {section!r} is truncated")
        out = payload[pos : pos + n]
        pos += n
        return out

    pos = 0
    (count,) = struct.unpack("<I", take(4))
    named = []
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = take(name_len).decode("utf-8")
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}q", take(8 * ndim)) if ndim else ()
        arr = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape).copy()
        named.append((name, arr))
    if pos != len(payload):
        raise IntegrityError(f"checkpoint section {section!r} has trailing bytes")
    # one check per section; the per-array search runs only on failure
    if named and not np.isfinite(np.concatenate([arr.reshape(-1) for _, arr in named])).all():
        bad = next(name for name, arr in named if not np.isfinite(arr).all())
        raise IntegrityError(f"checkpoint section {section!r} holds non-finite values in {bad}")
    return named


def _pack_optimizer(state: OptimizerState) -> bytes:
    named = []
    for name, (m, v) in state.moments.items():
        named.append((name + ".m", m))
        named.append((name + ".v", v))
    return _pack_arrays(named)


def _unpack_optimizer(payload: bytes, section: str, step: int) -> OptimizerState:
    halves = dict(_unpack_arrays(payload, section))
    moments: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for name in halves:
        pair = (name[:-2] + ".m", name[:-2] + ".v")
        for half in pair:
            if half not in halves:
                raise IntegrityError(f"checkpoint section {section!r} is missing {half}")
        moments[name[:-2]] = (halves[pair[0]], halves[pair[1]])
    return OptimizerState(step=step, moments=moments)


def _tempnet_meta(net: tn.TempNetParams) -> dict:
    cfg = dataclasses.asdict(net.cfg)
    cfg["variant"] = net.cfg.variant.value
    return cfg


def _field(table, key: str, section: str):
    """table[key]; a missing key means the named section is damaged."""
    if not isinstance(table, dict) or key not in table:
        raise IntegrityError(f"checkpoint section {section!r} is missing {key!r}")
    return table[key]


def _params(cls, data: dict, section: str, prefix: str = "", **given):
    """cls with the given fields, and every other field a Tensor read from
    data[prefix + field]."""
    for f in dataclasses.fields(cls):
        if f.name not in given:
            given[f.name] = Tensor(_field(data, prefix + f.name, section), requires_grad=True)
    return cls(**given)


def _tempnet_from_meta(meta: dict, data: dict, section: str) -> tn.TempNetParams:
    cfg = tn.TempNetConfig(**{**meta, "variant": tn.Variant(_field(meta, "variant", "meta"))})
    return _params(tn.TempNetParams, data, section, cfg=cfg)


def _lm_from_meta(meta: dict, data: dict) -> md.LmParams:
    cfg = md.LmConfig(**meta)
    blocks = tuple(
        _params(md.BlockParams, data, "foundation", f"blocks.{i}.") for i in range(cfg.n_blocks)
    )
    return _params(md.LmParams, data, "foundation", cfg=cfg, blocks=blocks)


def _towers_from_meta(meta: dict, data: dict) -> md.TwoTowerParams:
    return md.TwoTowerParams(
        cfg=md.TwoTowerConfig(**meta),
        image=_params(md.TowerParams, data, "foundation", "image."),
        text=_params(md.TowerParams, data, "foundation", "text."),
    )


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write the checkpoint atomically (temp file in place, then rename)."""
    meta = {
        "version": _VERSION,
        "kind": ckpt.kind,
        "step": int(ckpt.step),
        "config_hash": ckpt.config_hash,
        "opt_model_step": int(ckpt.opt_model.step),
        "opt_tempnet_step": int(ckpt.opt_tempnet.step),
        "n_tempnets": len(ckpt.tempnets),
        "foundation_cfg": dataclasses.asdict(ckpt.foundation.cfg),
        "tempnet_cfgs": [_tempnet_meta(net) for net in ckpt.tempnets],
        "extra": ckpt.extra,
    }
    sections: List[Tuple[str, bytes]] = [
        ("meta", json.dumps(meta, sort_keys=True, default=str).encode("utf-8")),
        ("foundation", _pack_arrays([(n, t.data) for n, t in ckpt.foundation.tensors()])),
    ]
    for i, net in enumerate(ckpt.tempnets):
        sections.append((f"tempnet{i}", _pack_arrays([(n, t.data) for n, t in net.tensors()])))
    sections.append(("opt_model", _pack_optimizer(ckpt.opt_model)))
    sections.append(("opt_tempnet", _pack_optimizer(ckpt.opt_tempnet)))
    sections.append(("rng", json.dumps(ckpt.rng_state, sort_keys=True).encode("utf-8")))

    blob = [_MAGIC, struct.pack("<H", _VERSION)]
    for name, payload in sections:
        nb = name.encode("utf-8")
        blob.append(struct.pack("<H", len(nb)))
        blob.append(nb)
        blob.append(struct.pack("<Q", len(payload)))
        blob.append(payload)
        blob.append(struct.pack("<I", binascii.crc32(payload)))

    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(b"".join(blob))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _read_sections(raw: bytes) -> Dict[str, bytes]:
    if len(raw) < 6 or raw[:4] != _MAGIC:
        raise IntegrityError("checkpoint header is missing or corrupt")
    (version,) = struct.unpack("<H", raw[4:6])
    if version != _VERSION:
        raise IntegrityError(f"unsupported checkpoint version {version}")
    sections: Dict[str, bytes] = {}
    pos = 6
    while pos < len(raw):
        if pos + 2 > len(raw):
            raise IntegrityError("checkpoint section table is truncated")
        (name_len,) = struct.unpack("<H", raw[pos : pos + 2])
        pos += 2
        if pos + name_len > len(raw):
            raise IntegrityError("checkpoint section table is truncated")
        name = raw[pos : pos + name_len].decode("utf-8", errors="replace")
        pos += name_len
        if pos + 8 > len(raw):
            raise IntegrityError(f"checkpoint section {name!r} is truncated")
        (payload_len,) = struct.unpack("<Q", raw[pos : pos + 8])
        pos += 8
        if pos + payload_len + 4 > len(raw):
            raise IntegrityError(f"checkpoint section {name!r} is truncated")
        payload = raw[pos : pos + payload_len]
        pos += payload_len
        (crc,) = struct.unpack("<I", raw[pos : pos + 4])
        pos += 4
        if binascii.crc32(payload) != crc:
            raise IntegrityError(f"checkpoint section {name!r} failed its checksum")
        sections[name] = payload
    return sections


def load_checkpoint(path) -> Checkpoint:
    """Read and validate a checkpoint; any damage raises IntegrityError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    sections = _read_sections(raw)
    for required in ("meta", "foundation", "opt_model", "opt_tempnet", "rng"):
        if required not in sections:
            raise IntegrityError(f"checkpoint section {required!r} is missing")
    try:
        meta = json.loads(sections["meta"].decode("utf-8"))
    except ValueError as exc:
        raise IntegrityError(f"checkpoint section 'meta' is unreadable: {exc}") from None
    try:
        return _decode_checkpoint(meta, sections)
    except (TypeError, ValueError) as exc:  # fields present but of the wrong type or value
        raise IntegrityError(f"checkpoint does not describe a valid run: {exc}") from None


def _decode_checkpoint(meta: dict, sections: Dict[str, bytes]) -> Checkpoint:
    for key in ("version", "kind", "step", "config_hash", "opt_model_step", "opt_tempnet_step",
                "n_tempnets", "foundation_cfg", "tempnet_cfgs", "extra"):
        _field(meta, key, "meta")
    kind = meta["kind"]
    data = dict(_unpack_arrays(sections["foundation"], "foundation"))
    if kind == "lm":
        foundation: Union[md.LmParams, md.TwoTowerParams] = _lm_from_meta(
            meta["foundation_cfg"], data
        )
    elif kind == "cl":
        foundation = _towers_from_meta(meta["foundation_cfg"], data)
    else:
        raise IntegrityError(f"checkpoint section 'meta' has unknown kind {kind!r}")

    tempnets = []
    for i, net_meta in enumerate(meta["tempnet_cfgs"]):
        name = f"tempnet{i}"
        if name not in sections:
            raise IntegrityError(f"checkpoint section {name!r} is missing")
        data = dict(_unpack_arrays(sections[name], name))
        tempnets.append(_tempnet_from_meta(net_meta, data, name))

    return Checkpoint(
        kind=kind,
        step=int(meta["step"]),
        config_hash=meta["config_hash"],
        foundation=foundation,
        tempnets=tuple(tempnets),
        opt_model=_unpack_optimizer(sections["opt_model"], "opt_model", meta["opt_model_step"]),
        opt_tempnet=_unpack_optimizer(
            sections["opt_tempnet"], "opt_tempnet", meta["opt_tempnet_step"]
        ),
        rng_state=json.loads(sections["rng"].decode("utf-8")),
        extra=meta["extra"],
    )


# ---------------------------------------------------------------------------
# task runtimes


class _Runtime:
    """One task's data split and model shape (the constructor), then its
    foundation model and temperature networks: drawn for a new run
    (``draw``) or adopted from a checkpoint (``restore``). Subclasses sample,
    lay out the temperature file, and evaluate: ``evaluate(k)`` is the one
    evaluation (the loop's, ``eval``'s and ``export-temps``'), the run's
    ``eval.csv`` rows, its eval metric last, and held-out temperatures."""

    kind: str

    def check_trainable(self) -> None:
        """Refuse data and batch settings that can evaluate but not train."""

    def draw(self, init: Optional[Checkpoint]) -> None:
        """Fresh TempNets over a fresh model, or over init's model (a warm start)."""
        if init is None:
            self.model = self._fresh_model()
        else:
            self._check_checkpoint(init)
            self.model = init.foundation
        self.tempnets = self._fresh_tempnets() if self.task.objective == "robust" else ()

    def restore(self, ckpt: Checkpoint) -> None:
        """Adopt the checkpoint's model and TempNets."""
        self._check_checkpoint(ckpt)
        have = [net.cfg for net in ckpt.tempnets]
        want = list(self._tempnet_cfgs()) if self.task.objective == "robust" else []
        if have != want:
            raise IntegrityError(f"checkpoint holds TempNets {have}, its task needs {want}")
        self.model = ckpt.foundation
        self.tempnets = ckpt.tempnets

    def _check_checkpoint(self, ckpt: Checkpoint) -> None:
        if ckpt.kind != self.kind:
            raise DomainError(f"checkpoint holds a {ckpt.kind!r} model, expected {self.kind!r}")
        if ckpt.foundation.cfg != self.model_cfg:
            raise DomainError(
                f"checkpoint model shape {ckpt.foundation.cfg} != task shape {self.model_cfg}"
            )

    def _tempnet_cfg(self, variant: tn.Variant, d0: int) -> tn.TempNetConfig:
        cfg = self.run.cfg
        return tn.TempNetConfig(
            variant=variant, d0=d0, d1=self.task.tempnet_d1, d2=self.task.tempnet_d2,
            tau0=cfg.tau0, tau_max=cfg.tau_max, rho=cfg.rho,
        )

    def model_tensors(self):
        return self.model.tensors()

    def tempnet_tensors(self):
        out = []
        for i, net in enumerate(self.tempnets):
            out.extend((f"tempnet{i}.{n}", t) for n, t in net.tensors())
        return out

    def write_temperatures(self, path, taus: np.ndarray) -> int:
        """Write an evaluation's temperatures as CSV, one row per eval
        instance after a running index; returns the row count."""
        header, labels, taus = self._temperature_columns(taus)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            fh.writelines(
                f"{i},{label}{t!r}\n" for i, (label, t) in enumerate(zip(labels, taus.tolist()))
            )
        return len(taus)


class _LmRuntime(_Runtime):
    kind = "lm"

    def __init__(self, run: TrainConfig, task: LmTask):
        self.run = run
        self.task = task
        text = md.load_corpus(task.corpus_path)
        self.vocab = md.build_vocab(text)
        ids = self.vocab.encode(text)
        self.train_ids, val_ids = md.split_ids(ids, task.val_fraction)
        # built first, so a bad context_len is refused by name
        self.model_cfg = md.LmConfig(
            vocab_size=self.vocab.size,
            d_model=task.d_model,
            d_ff=task.d_ff,
            n_blocks=task.n_blocks,
            context_len=task.context_len,
        )
        self.eval_batch = md.eval_windows(val_ids, task.context_len)

    def check_trainable(self) -> None:
        if len(self.train_ids) < self.task.context_len:
            raise DomainError("training split shorter than one context window")

    def _fresh_model(self) -> md.LmParams:
        return md.init_lm(self.model_cfg, seed=self.run.seed)

    def _tempnet_cfgs(self) -> Tuple[tn.TempNetConfig, ...]:
        return (self._tempnet_cfg(tn.Variant.LLM_LOGITS, self.vocab.size),)

    def _fresh_tempnets(self) -> Tuple[tn.TempNetParams, ...]:
        (cfg,) = self._tempnet_cfgs()
        return (tn.init_llm_tempnet(cfg, seed=self.run.seed + 1),)

    def sample_batch(self, rng: np.random.Generator):
        return md.sample_windows(
            self.train_ids, self.task.context_len, self.run.batch_size, rng
        )

    def loss(self, batch) -> Tensor:
        if self.task.objective == "robust":
            return md.robust_softmax_loss(self.model, self.tempnets[0], batch, self.run.cfg)
        return md.baseline_ce_loss(self.model, batch)

    def evaluate(self, k: int = 1) -> Tuple[List[Tuple[str, float]], np.ndarray]:
        """Validation perplexity and its per-position temperatures; any k >= 1."""
        if k < 1:
            raise DomainError(f"k must be >= 1, got {k}")
        source = self.tempnets[0] if self.tempnets else 1.0
        ppl, taus = md.lm_eval_pass(self.model, source, self.eval_batch)
        return [("perplexity", ppl)], taus

    def _temperature_columns(self, taus: np.ndarray):
        return "index,tau", itertools.repeat(""), taus


class _ClRuntime(_Runtime):
    kind = "cl"

    def __init__(self, run: TrainConfig, task: ClTask):
        self.run = run
        self.task = task
        pairs = md.load_pairs_csv(task.pairs_path)
        self.train_pairs, self.eval_pairs = md.split_pairs(pairs, task.eval_fraction)
        self.model_cfg = md.TwoTowerConfig(
            img_dim=pairs.x.shape[1],
            txt_dim=pairs.t.shape[1],
            hidden=task.hidden,
            out_dim=task.out_dim,
        )

    def check_trainable(self) -> None:
        if self.run.batch_size > self.train_pairs.n:
            raise DomainError(
                f"batch_size {self.run.batch_size} exceeds the {self.train_pairs.n} training pairs"
            )
        if self.run.batch_size < 2:
            raise DomainError("contrastive batches need batch_size >= 2")

    def _fresh_model(self) -> md.TwoTowerParams:
        return md.init_two_tower(self.model_cfg, seed=self.run.seed)

    def _tempnet_cfgs(self) -> Tuple[tn.TempNetConfig, ...]:
        return (self._tempnet_cfg(tn.Variant.CL_EMBEDDING, self.task.out_dim),) * 2

    def _fresh_tempnets(self) -> Tuple[tn.TempNetParams, ...]:
        cfg_img, cfg_txt = self._tempnet_cfgs()
        return (
            self._init_side_net(cfg_img, self.run.seed + 1, md.encode_image, self.train_pairs.x),
            self._init_side_net(cfg_txt, self.run.seed + 2, md.encode_text, self.train_pairs.t),
        )

    def _init_side_net(self, cfg: tn.TempNetConfig, seed: int, encode, feats) -> tn.TempNetParams:
        # prototypes come from real transformation outputs: run a few training
        # embeddings through the freshly drawn first layer, then re-init with
        # those rows (same seed, so the first layer is reproduced verbatim)
        draft = tn.init_cl_tempnet(cfg, seed)
        emb = encode(self.model, Tensor(feats[: max(cfg.d2, 16)]))
        v = de.relu(de.affine(emb, draft.W1, draft.b1)).data
        return tn.init_cl_tempnet(cfg, seed, sample_embeddings=v)

    def sample_batch(self, rng: np.random.Generator):
        idx = np.sort(rng.choice(self.train_pairs.n, size=self.run.batch_size, replace=False))
        return md.PairBatch(self.train_pairs.x[idx], self.train_pairs.t[idx])

    def loss(self, batch) -> Tensor:
        if self.task.objective == "robust":
            return md.robust_gcl_loss(
                self.model, self.tempnets[0], self.tempnets[1], batch, self.run.cfg
            )
        return md.baseline_gcl_loss(self.model, self.task.fixed_tau1, self.task.fixed_tau2, batch)

    @md.quiet_floats()
    def evaluate(self, k: int = 1) -> Tuple[List[Tuple[str, float]], np.ndarray]:
        """Recall@k of each direction and their mean, plus held-out
        temperatures: the image side's then the text side's, or the two fixed
        taus. Each side is encoded once."""
        e_img = md.encode_image(self.model, Tensor(self.eval_pairs.x))
        e_txt = md.encode_text(self.model, Tensor(self.eval_pairs.t))
        r_img, r_txt = md.recall_at_k(e_img.data, e_txt.data, k)
        rows = [(f"image_retrieval_recall@{k}", r_img), (f"text_retrieval_recall@{k}", r_txt),
                (f"mean_recall@{k}", 0.5 * (r_img + r_txt))]
        if self.task.objective != "robust":
            return rows, np.array([self.task.fixed_tau1, self.task.fixed_tau2])
        nets = zip(self.tempnets, (e_img, e_txt))
        return rows, np.concatenate([tn.cl_tau_batch(net, emb).data for net, emb in nets])

    def _temperature_columns(self, taus: np.ndarray):
        n = self.eval_pairs.n
        # a fixed objective evaluates to one tau per side, not one per pair
        per_side = np.broadcast_to(taus.reshape(2, -1), (2, n)).reshape(-1)
        return "index,side,tau", ["image,"] * n + ["text,"] * n, per_side


# glibc mallopt parameters, from malloc.h
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _keep_freed_heap() -> None:
    """Start glibc's malloc at the thresholds its dynamic rule grows to.

    A training step frees its tape's temporaries, a few MB, at once. Under
    the default, dynamic thresholds, whether that memory goes back to the OS,
    to be faulted in again by the next step, depends on the heap's layout,
    which shifts with how the process was launched. On a 2-core x86-64 Linux
    host, a ce train-lm step of the benchmark took 15-40% longer in one launch
    than in another, with 0.5-1.1M minor page faults per run against 24k. Fixed
    at the values the dynamic rule reaches at its limit (mmap 32 MiB, trim
    twice that), every launch keeps its freed heap for the next step.
    train and cli.main set them on first use, so a library caller that
    trains gets them too; importing the package changes nothing.
    """
    if sys.platform.startswith("linux"):
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            mallopt(_M_MMAP_THRESHOLD, 32 << 20)
            mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _runtime(run: TrainConfig, task: Union[LmTask, ClTask]) -> _Runtime:
    if isinstance(task, LmTask):
        return _LmRuntime(run, task)
    if isinstance(task, ClTask):
        return _ClRuntime(run, task)
    raise DomainError(f"unknown task type {type(task).__name__}")


def open_run(ckpt: Checkpoint, data_path, tau_max: Optional[float] = None) -> _Runtime:
    """A finished run's runtime: the checkpoint's recorded run and task, with
    data_path (a corpus or pairs file, not necessarily the training data) in
    place of the training data, holding the checkpoint's model and TempNets.

    ``tau_max`` stretches each TempNet's output map to a new ceiling at
    inference; the weights are kept. Nothing is drawn fresh. A ceiling the
    run's DroConfig would refuse is refused for every checkpoint, with or
    without TempNets.
    """
    task_meta = _field(ckpt.extra, "task", "meta")
    run_meta = _field(ckpt.extra, "run", "meta")
    task_type, data_key = (LmTask, "corpus_path") if ckpt.kind == "lm" else (ClTask, "pairs_path")
    try:
        run = TrainConfig(**{**run_meta, "cfg": DroConfig(**_field(run_meta, "cfg", "meta"))})
        task = task_type(**{**task_meta, data_key: str(data_path)})
    except (TypeError, ValueError) as exc:
        raise IntegrityError(f"checkpoint does not describe a valid run: {exc}") from None
    if tau_max is not None:
        dataclasses.replace(run.cfg, tau_max=tau_max)  # DroConfig's checks, or DomainError
    runtime = _runtime(run, task)
    runtime.restore(ckpt)
    if tau_max is not None:
        runtime.tempnets = tuple(
            dataclasses.replace(net, cfg=dataclasses.replace(net.cfg, tau_max=tau_max))
            for net in runtime.tempnets
        )
    return runtime


# ---------------------------------------------------------------------------
# the loop


def _metrics_row(step, loss, metric, taus, lr_model, lr_tempnet) -> str:
    return ",".join(
        [
            str(step),
            repr(float(loss)),
            repr(float(metric)),
            repr(float(taus.mean())),
            repr(float(taus.min())),
            repr(float(taus.max())),
            repr(float(lr_model)),
            repr(float(lr_tempnet)),
        ]
    )


def read_metrics(path) -> List[dict]:
    """Rows of the metrics file as dicts with parsed numeric values."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != METRICS_HEADER:
            raise DomainError(f"unexpected metrics header {header!r} in {path}")
        names = header.split(",")
        for line in fh:
            parts = line.strip().split(",")
            row = dict(zip(names, parts))
            row["step"] = int(row["step"])
            for key in names[1:]:
                row[key] = float(row[key])
            rows.append(row)
    return rows


def train(
    run: TrainConfig,
    task: Union[LmTask, ClTask],
    out_dir,
    stop_at_step: Optional[int] = None,
    resume_from=None,
) -> Tuple[Checkpoint, Path]:
    """Run the loop; returns the final checkpoint and the metrics file path.

    ``stop_at_step`` ends the run early (after writing the checkpoint), and
    ``resume_from`` continues a checkpointed run with the identical config;
    the resumed trajectory matches an uninterrupted run bit for bit. Metrics
    rows are written at every ``eval_every`` step and at the final step.
    When the run stops at a step that evaluates, that evaluation's
    temperatures go to ``temperatures.csv``; otherwise the file is removed.
    """
    _keep_freed_heap()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    run_hash = config_hash(run, task)

    runtime = _runtime(run, task)
    runtime.check_trainable()
    rng = np.random.Generator(np.random.PCG64(run.seed))

    if resume_from is None:
        runtime.draw(load_checkpoint(task.init_from) if task.mode != "scratch" else None)
        opt_model, opt_tempnet = OptimizerState(), OptimizerState()
        start_step = 0
    else:
        ckpt = load_checkpoint(resume_from)
        if ckpt.config_hash != run_hash:
            raise DomainError(
                "resume checkpoint was written under a different configuration; "
                "start a new run or restore the original config"
            )
        runtime.restore(ckpt)
        opt_model, opt_tempnet = ckpt.opt_model, ckpt.opt_tempnet
        rng.bit_generator.state = ckpt.rng_state
        start_step = ckpt.step

    train_model = task.mode != "tempnet-only"
    if not train_model:
        for _, tensor in runtime.model_tensors():
            tensor.requires_grad = False
    train_tempnet = task.objective == "robust"
    # built after draw / restore, which bind the model's and TempNets' tensors
    model_group = ParamGroup(runtime.model_tensors(), opt_model) if train_model else None
    tempnet_group = ParamGroup(runtime.tempnet_tensors(), opt_tempnet) if train_tempnet else None
    groups = [group for group in (model_group, tempnet_group) if group is not None]
    grad_views = {t: view for group in groups for t, view in group.grad_views.items()}

    end_step = int(run.total_steps) if stop_at_step is None else int(stop_at_step)
    if not (start_step <= end_step <= run.total_steps):
        raise DomainError(
            f"stop step must lie in [{start_step}, {run.total_steps}], got {end_step}"
        )

    metrics_path = out_dir / "metrics.csv"
    ckpt_path = out_dir / "checkpoint.bin"

    def snapshot(step: int) -> Checkpoint:
        return Checkpoint(
            kind=runtime.kind,
            step=step,
            config_hash=run_hash,
            foundation=runtime.model,
            tempnets=tuple(runtime.tempnets),
            opt_model=opt_model,
            opt_tempnet=opt_tempnet,
            rng_state=rng.bit_generator.state,
            extra={
                "mode": task.mode,
                "objective": task.objective,
                "task": dataclasses.asdict(task),
                "run": dataclasses.asdict(run),
            },
        )

    # resuming into a directory that already holds this run's rows continues
    # the file, so an interrupted-then-resumed run leaves the same metrics as
    # an uninterrupted one
    append = resume_from is not None and metrics_path.exists()
    final_taus = None
    with open(metrics_path, "a" if append else "w", encoding="utf-8") as metrics:
        if not append:
            metrics.write(METRICS_HEADER + "\n")
        for step in range(start_step + 1, end_step + 1):
            batch = runtime.sample_batch(rng)
            # tape ops pass NaN / inf on, unchecked and without numpy's
            # warnings; the temperatures, the loss value and each group's
            # update are checked instead
            try:
                with md.quiet_floats():
                    with Tape() as tape:
                        loss = runtime.loss(batch)
                    loss_value = loss.item()
                    backward(loss, tape, grad_views)
            except NonFiniteError as exc:
                raise TrainingDivergedError(step, str(exc)) from exc
            if not math.isfinite(loss_value):
                raise TrainingDivergedError(step, f"loss value {loss_value}")

            scale = _schedule_scale(step, run)
            lr_model = run.base_lr * scale if train_model else 0.0
            lr_tempnet = run.tempnet_lr * scale if train_tempnet else 0.0
            if train_model:
                adamw_step(model_group, lr_model, run)
            if train_tempnet:
                adamw_step(tempnet_group, lr_tempnet, run)
                for net in runtime.tempnets:
                    if float(net.phi.data) < PHI_FLOOR:
                        net.phi.data[...] = PHI_FLOOR

            if step % run.eval_every == 0 or step == run.total_steps:
                rows, taus = runtime.evaluate()
                metrics.write(
                    _metrics_row(step, loss_value, rows[-1][1], taus, lr_model, lr_tempnet) + "\n"
                )
                metrics.flush()
                if step == end_step:
                    final_taus = taus

    final = snapshot(end_step)
    save_checkpoint(final, ckpt_path)
    temps_path = out_dir / "temperatures.csv"
    if final_taus is None:
        temps_path.unlink(missing_ok=True)
    else:
        runtime.write_temperatures(temps_path, final_taus)
    return final, metrics_path
