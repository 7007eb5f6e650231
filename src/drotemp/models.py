"""Desk-scale models that consume the robust losses.

Two model families live here: a character-level causal language model (token
embeddings, one or two single-head attention blocks, untied output
projection) and a two-tower encoder pair for contrastive retrieval over
synthetic clustered feature pairs. Both are built on the tape engine so the
robust losses and their baselines are differentiable end to end.

Loss conventions:
  - Language model: per position, the positive logit is the realized next
    token and the contrast set is the full vocabulary (positive included),
    matching the softmax form of the robust loss. Batch losses are means over
    all target positions.
  - Contrastive: per pair and per direction, the positive is the matched
    cross-modal similarity and the contrast set is the other n - 1 in-batch
    items, so the global loss is exact at this scale rather than estimated.
  - The robust losses take their temperatures from a source: a temperature
    network applied to detached model outputs, or an array of per-instance
    taus (for example solved ones). Either way the model's own gradients see
    tau as a per-instance constant. The baselines take one fixed tau.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from . import diff_engine as de
from . import tempnet as tn
from .diff_engine import Tensor
from .dro_core import DroConfig
from .errors import DegenerateBatchError, DomainError, NonFiniteError

_NEG_MASK = -1e9  # additive score mask; exp underflows to exactly zero


# ---------------------------------------------------------------------------
# language model


@dataclass(frozen=True)
class LmConfig:
    """Shape of the toy causal LM."""

    vocab_size: int
    d_model: int = 32
    d_ff: int = 64
    n_blocks: int = 1
    context_len: int = 32

    def __post_init__(self):
        if self.vocab_size < 2:
            raise DomainError(f"vocab_size must be >= 2, got {self.vocab_size}")
        if not (1 <= self.d_model <= 128):
            raise DomainError(f"d_model must be in [1, 128], got {self.d_model}")
        if not (1 <= self.d_ff <= 512):
            raise DomainError(f"d_ff must be in [1, 512], got {self.d_ff}")
        if self.n_blocks not in (1, 2):
            raise DomainError(f"n_blocks must be 1 or 2, got {self.n_blocks}")
        if not (2 <= self.context_len <= 64):
            raise DomainError(f"context_len must be in [2, 64], got {self.context_len}")


@dataclass
class BlockParams:
    """One single-head attention + feedforward block."""

    Wq: Tensor
    Wk: Tensor
    Wv: Tensor
    Wo: Tensor
    Wf1: Tensor
    bf1: Tensor
    Wf2: Tensor
    bf2: Tensor


@dataclass
class LmParams:
    cfg: LmConfig
    emb: Tensor
    pos: Tensor
    blocks: Tuple[BlockParams, ...]
    out_proj: Tensor

    def __post_init__(self):
        c = self.cfg
        if self.emb.shape != (c.vocab_size, c.d_model):
            raise DomainError(f"emb must be {c.vocab_size} x {c.d_model}, got {self.emb.shape}")
        if self.pos.shape != (c.context_len, c.d_model):
            raise DomainError(f"pos must be {c.context_len} x {c.d_model}, got {self.pos.shape}")
        if len(self.blocks) != c.n_blocks:
            raise DomainError(f"expected {c.n_blocks} blocks, got {len(self.blocks)}")
        if self.out_proj.shape != (c.vocab_size, c.d_model):
            raise DomainError(f"out_proj must be {c.vocab_size} x {c.d_model}")

    def tensors(self) -> Tuple[Tuple[str, Tensor], ...]:
        out = [("emb", self.emb), ("pos", self.pos)]
        for i, blk in enumerate(self.blocks):
            for name in ("Wq", "Wk", "Wv", "Wo", "Wf1", "bf1", "Wf2", "bf2"):
                out.append((f"blocks.{i}.{name}", getattr(blk, name)))
        out.append(("out_proj", self.out_proj))
        return tuple(out)


@dataclass(frozen=True)
class TokenBatch:
    """Token id sequences; targets are the next token at every position."""

    sequences: Tuple[np.ndarray, ...]

    def __init__(self, sequences):
        seqs = []
        for seq in sequences:
            arr = np.asarray(seq)
            if arr.ndim != 1 or arr.size < 2:
                raise DomainError("every sequence needs at least 2 tokens")
            if not np.issubdtype(arr.dtype, np.integer):
                raise DomainError("token ids must be integers")
            if arr.min() < 0:
                raise DomainError("token ids must be nonnegative")
            seqs.append(arr.astype(np.int64, copy=True))
        if not seqs:
            raise DomainError("batch must contain at least one sequence")
        for arr in seqs:
            arr.setflags(write=False)
        object.__setattr__(self, "sequences", tuple(seqs))

    @property
    def n_targets(self) -> int:
        return sum(len(s) - 1 for s in self.sequences)


def _param(name: str, data: np.ndarray) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True, name=name)


def init_lm(cfg: LmConfig, seed: int) -> LmParams:
    """Uniform Kaiming weights, small normal embeddings, zero output projection.

    The zero output projection makes the step-0 model exactly uniform, which
    keeps early robust-loss temperatures well defined and equal across seeds.
    """
    rng = np.random.default_rng(seed)
    d, ff = cfg.d_model, cfg.d_ff

    def kaiming(shape, fan_in):
        bound = math.sqrt(6.0 / fan_in)
        return rng.uniform(-bound, bound, size=shape)

    blocks = []
    for i in range(cfg.n_blocks):
        blocks.append(
            BlockParams(
                Wq=_param(f"blocks.{i}.Wq", kaiming((d, d), d)),
                Wk=_param(f"blocks.{i}.Wk", kaiming((d, d), d)),
                Wv=_param(f"blocks.{i}.Wv", kaiming((d, d), d)),
                Wo=_param(f"blocks.{i}.Wo", kaiming((d, d), d)),
                Wf1=_param(f"blocks.{i}.Wf1", kaiming((ff, d), d)),
                bf1=_param(f"blocks.{i}.bf1", np.zeros(ff)),
                Wf2=_param(f"blocks.{i}.Wf2", kaiming((d, ff), ff)),
                bf2=_param(f"blocks.{i}.bf2", np.zeros(d)),
            )
        )
    return LmParams(
        cfg=cfg,
        emb=_param("emb", rng.normal(size=(cfg.vocab_size, d)) * 0.05),
        pos=_param("pos", rng.normal(size=(cfg.context_len, d)) * 0.05),
        blocks=tuple(blocks),
        out_proj=_param("out_proj", np.zeros((cfg.vocab_size, d))),
    )


def _rmsnorm(x: Tensor, d: int) -> Tensor:
    return de.mul(de.l2_normalize(x, axis=-1), math.sqrt(d))


def _causal_mask(n: int, m: int) -> Tensor:
    """Additive mask for n stacked m x m score blocks, one per sequence."""
    return Tensor(np.broadcast_to(np.triu(np.full((m, m), _NEG_MASK), k=1), (n, m, m)))


def _stacked_logits(params: LmParams, ids: np.ndarray) -> Tensor:
    """Logit rows for an n x m block of equal-length sequences.

    Returns (n*m, K); row i*m + j predicts token j + 1 of sequence i. Rows
    stay flat through embeddings, norms, projections and the feedforward;
    only attention views them as (n, m, d), so each sequence attends within
    itself under its own causal mask.
    """
    cfg = params.cfg
    n, m = ids.shape
    d = cfg.d_model
    x = de.add(
        de.embedding_lookup(params.emb, ids.reshape(-1)),
        de.embedding_lookup(params.pos, np.tile(np.arange(m), n)),
    )
    mask = _causal_mask(n, m)
    for blk in params.blocks:
        xn = de.reshape(_rmsnorm(x, d), (n, m, d))
        q = de.matmul(xn, de.transpose(blk.Wq))
        k = de.matmul(xn, de.transpose(blk.Wk))
        v = de.matmul(xn, de.transpose(blk.Wv))
        scores = de.add(de.mul(de.matmul(q, de.transpose(k)), 1.0 / math.sqrt(d)), mask)
        ctx = de.matmul(de.softmax(scores, axis=-1), v)
        x = de.add(x, de.reshape(de.matmul(ctx, de.transpose(blk.Wo)), (n * m, d)))
        h = de.relu(de.affine(_rmsnorm(x, d), blk.Wf1, blk.bf1))
        x = de.add(x, de.affine(h, blk.Wf2, blk.bf2))
    return de.matmul(_rmsnorm(x, d), de.transpose(params.out_proj))


def _check_sequences(params: LmParams, sequences: Sequence[np.ndarray]):
    cfg = params.cfg
    for seq in sequences:
        if seq.max() >= cfg.vocab_size:
            raise DomainError(f"token id {int(seq.max())} out of range for vocab {cfg.vocab_size}")
        if len(seq) > cfg.context_len:
            raise DomainError(f"sequence length {len(seq)} exceeds context {cfg.context_len}")


def _target_logits(params: LmParams, sequences: Sequence[np.ndarray]) -> Tuple[Tensor, np.ndarray]:
    """Logit rows at every target position plus the target ids.

    Rows are sequence-major: the m - 1 predicting rows of each sequence in
    turn. Consecutive sequences of equal length share one stacked forward.
    """
    _check_sequences(params, sequences)
    parts = []
    for m, run in itertools.groupby(sequences, key=len):
        ids = np.stack(list(run))
        # every row but each sequence's last, which predicts past its end
        keep = (np.arange(ids.shape[0])[:, None] * m + np.arange(m - 1)).reshape(-1)
        parts.append(de.embedding_lookup(_stacked_logits(params, ids), keep))
    logits = parts[0] if len(parts) == 1 else de.concat(parts)
    return logits, np.concatenate([seq[1:] for seq in sequences])


def _robust_terms(logits: Tensor, taus: Tensor, targets: np.ndarray, rho: float) -> Tensor:
    """Per position: tau * (logsumexp(L / tau) - log K + rho) - L_target."""
    lse = de.logsumexp(de.scale_rows(logits, de.reciprocal(taus)), axis=1)
    positive = de.gather_rows(logits, targets)
    return de.sub(de.mul(taus, de.add(lse, rho - math.log(logits.shape[1]))), positive)


def _taus(temps, features: Tensor, variant: tn.Variant, what: str) -> Tensor:
    """One temperature per row of features, from a temperature source.

    temps is either a temperature network of the given variant, applied to
    the detached rows, or an array of one positive tau per row.
    """
    if isinstance(temps, tn.TempNetParams):
        if temps.cfg.variant is not variant:
            raise DomainError(f"{what} needs a {variant.value} temperature network")
        if variant is tn.Variant.LLM_LOGITS:
            return tn.llm_tau_batch(temps, de.stop_gradient(features), zero_rows="keep")
        return tn.cl_tau_batch(temps, de.stop_gradient(features))
    n = features.shape[0]
    taus = np.asarray(temps, dtype=np.float64)
    if taus.shape != (n,) or not (taus > 0.0).all():
        raise DomainError(f"{what} needs {n} positive temperatures, got shape {taus.shape}")
    return Tensor(taus)


def robust_softmax_loss(
    params: LmParams,
    temps: Union[tn.TempNetParams, np.ndarray],
    batch: TokenBatch,
    cfg: DroConfig,
) -> Tensor:
    """Mean over target positions of the robust loss.

    Per position: tau * (logsumexp(L / tau) - log K + rho) - L_target. tau
    comes from a logit-variant temperature network on the detached logit row,
    or from an array holding one positive tau per target position,
    sequence-major. The model's gradients treat tau as a per-instance
    constant either way. Returns a scalar node; call .item() for the value.
    """
    logits, targets = _target_logits(params, batch.sequences)
    taus = _taus(temps, logits, tn.Variant.LLM_LOGITS, "LM loss")
    return de.mean(_robust_terms(logits, taus, targets, cfg.rho))


def baseline_ce_loss(params: LmParams, batch: TokenBatch) -> Tensor:
    """Mean per-token negative log-likelihood at temperature 1."""
    logits, targets = _target_logits(params, batch.sequences)
    return de.mean(de.sub(de.logsumexp(logits, axis=1), de.gather_rows(logits, targets)))


# sequences per eval forward pass: keeps eval memory bounded for any corpus
EVAL_CHUNK = 8


def lm_eval_pass(
    params: LmParams,
    temperature_source: Union[float, tn.TempNetParams],
    corpus: Union[TokenBatch, Iterable[TokenBatch]],
) -> Tuple[float, np.ndarray]:
    """Perplexity and the temperature at every target position, in one pass.

    temperature_source is either a fixed positive tau applied everywhere or a
    logit-variant temperature network evaluated per position. Perplexity is
    exp of the mean NLL under temperature-scaled probabilities; temperatures
    come back sequence-major. The forward runs EVAL_CHUNK sequences at a time.
    A non-finite log-likelihood raises NonFiniteError.
    """
    batches = [corpus] if isinstance(corpus, TokenBatch) else list(corpus)
    if not batches:
        raise DomainError("perplexity needs a nonempty corpus")
    fixed: Optional[float] = None
    if isinstance(temperature_source, tn.TempNetParams):
        if temperature_source.cfg.variant is not tn.Variant.LLM_LOGITS:
            raise DomainError("perplexity needs a logit-variant temperature network")
    else:
        fixed = float(temperature_source)
        if fixed <= 0.0 or not np.isfinite(fixed):
            raise DomainError(f"fixed temperature must be positive, got {fixed}")

    sequences = [seq for batch in batches for seq in batch.sequences]
    total, tau_parts = 0.0, []
    for lo in range(0, len(sequences), EVAL_CHUNK):
        logits, targets = _target_logits(params, sequences[lo : lo + EVAL_CHUNK])
        rows = logits.data
        if fixed is None:
            taus = tn.llm_tau_batch(temperature_source, logits, zero_rows="keep").data
        else:
            taus = np.full(rows.shape[0], fixed)
        scaled = rows / taus[:, None]
        shift = scaled.max(axis=1)
        lse = shift + np.log(np.exp(scaled - shift[:, None]).sum(axis=1))
        total += float((lse - scaled[np.arange(rows.shape[0]), targets]).sum())
        tau_parts.append(taus)
    if not math.isfinite(total):
        raise NonFiniteError(f"perplexity: the validation log-likelihood is {total}")
    taus = np.concatenate(tau_parts)
    return float(np.exp(total / taus.size)), taus


def perplexity(
    params: LmParams,
    temperature_source: Union[float, tn.TempNetParams],
    corpus: Union[TokenBatch, Iterable[TokenBatch]],
) -> float:
    """exp of mean NLL under temperature-scaled probabilities (see lm_eval_pass)."""
    return lm_eval_pass(params, temperature_source, corpus)[0]


# ---------------------------------------------------------------------------
# two-tower contrastive model


@dataclass(frozen=True)
class TwoTowerConfig:
    """Shape of the paired encoders; both emit unit-norm out_dim vectors."""

    img_dim: int
    txt_dim: int
    hidden: int = 32
    out_dim: int = 16

    def __post_init__(self):
        for name in ("img_dim", "txt_dim", "hidden", "out_dim"):
            if int(getattr(self, name)) < 1:
                raise DomainError(f"{name} must be positive")


@dataclass
class TowerParams:
    W1: Tensor
    b1: Tensor
    W2: Tensor
    b2: Tensor


@dataclass
class TwoTowerParams:
    cfg: TwoTowerConfig
    image: TowerParams
    text: TowerParams

    def tensors(self) -> Tuple[Tuple[str, Tensor], ...]:
        out = []
        for side, tower in (("image", self.image), ("text", self.text)):
            for name in ("W1", "b1", "W2", "b2"):
                out.append((f"{side}.{name}", getattr(tower, name)))
        return tuple(out)


@dataclass(frozen=True)
class PairBatch:
    """n matched feature pairs; every non-matching item is a negative."""

    x: np.ndarray
    t: np.ndarray

    def __init__(self, x, t):
        x = np.asarray(x, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        if x.ndim != 2 or t.ndim != 2 or x.shape[0] != t.shape[0]:
            raise DomainError(f"paired features must be n x d each, got {x.shape} and {t.shape}")
        if x.shape[0] < 2:
            raise DegenerateBatchError(
                f"contrastive batch needs n >= 2 pairs for nonempty negatives, got {x.shape[0]}"
            )
        if not (np.isfinite(x).all() and np.isfinite(t).all()):
            raise DomainError("pair features must be finite")
        x.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "t", t)

    @property
    def n(self) -> int:
        return self.x.shape[0]


def init_two_tower(cfg: TwoTowerConfig, seed: int) -> TwoTowerParams:
    rng = np.random.default_rng(seed)

    def tower(prefix: str, in_dim: int) -> TowerParams:
        def kaiming(shape, fan_in):
            bound = math.sqrt(6.0 / fan_in)
            return rng.uniform(-bound, bound, size=shape)

        return TowerParams(
            W1=_param(f"{prefix}.W1", kaiming((cfg.hidden, in_dim), in_dim)),
            b1=_param(f"{prefix}.b1", np.zeros(cfg.hidden)),
            W2=_param(f"{prefix}.W2", kaiming((cfg.out_dim, cfg.hidden), cfg.hidden)),
            # nonzero output bias: an input that silences every hidden unit
            # still lands away from the origin, where normalization is defined
            b2=_param(f"{prefix}.b2", np.full(cfg.out_dim, 0.01)),
        )

    return TwoTowerParams(cfg=cfg, image=tower("image", cfg.img_dim), text=tower("text", cfg.txt_dim))


def _encode(tower: TowerParams, feats: Tensor) -> Tensor:
    hidden = de.relu(de.affine(feats, tower.W1, tower.b1))
    return de.l2_normalize(de.affine(hidden, tower.W2, tower.b2), axis=-1)


def encode_image(params: TwoTowerParams, feats: Tensor) -> Tensor:
    """Unit-norm image embeddings for feature rows (n x img_dim)."""
    if feats.data.ndim != 2 or feats.shape[1] != params.cfg.img_dim:
        raise DomainError(f"expected n x {params.cfg.img_dim} image features, got {feats.shape}")
    return _encode(params.image, feats)


def encode_text(params: TwoTowerParams, feats: Tensor) -> Tensor:
    """Unit-norm text embeddings for feature rows (n x txt_dim)."""
    if feats.data.ndim != 2 or feats.shape[1] != params.cfg.txt_dim:
        raise DomainError(f"expected n x {params.cfg.txt_dim} text features, got {feats.shape}")
    return _encode(params.text, feats)


def _similarities(
    towers: TwoTowerParams, batch: PairBatch
) -> Tuple[Tensor, Tensor, Tensor, Tensor]:
    """Both embeddings, the image x text similarities with the additive
    diagonal mask, and the matched (diagonal) similarities."""
    n = batch.n
    e_img = encode_image(towers, Tensor(batch.x))
    e_txt = encode_text(towers, Tensor(batch.t))
    sims = de.matmul(e_img, de.transpose(e_txt))
    masked = de.add(sims, Tensor(np.diag(np.full(n, _NEG_MASK))))
    return e_img, e_txt, masked, de.gather_rows(sims, np.arange(n))


def _direction_terms(sims: Tensor, diag: Tensor, taus: Tensor, rho: float, n: int) -> Tensor:
    """Per-anchor robust terms for one retrieval direction.

    sims rows already carry the additive diagonal mask, so the anchor's own
    positive drops out of the contrast set exactly.
    """
    margins = de.add_colvec(sims, de.neg(diag))
    lse = de.logsumexp(de.scale_rows(margins, de.reciprocal(taus)), axis=1)
    return de.mul(taus, de.add(lse, rho - math.log(n - 1)))


def robust_gcl_loss(
    towers: TwoTowerParams,
    temps_img: Union[tn.TempNetParams, np.ndarray],
    temps_txt: Union[tn.TempNetParams, np.ndarray],
    batch: PairBatch,
    cfg: DroConfig,
) -> Tensor:
    """Mean over pairs of the two directional robust terms.

    Per anchor: tau * (logsumexp(margins / tau) - log(n - 1) + rho) with
    margins against the n - 1 in-batch negatives. Each side's tau comes from
    an embedding-variant temperature network on the anchor's detached
    embedding (image and text sides use separate networks), or from an array
    of n positive taus.
    """
    n = batch.n
    e_img, e_txt, masked, diag = _similarities(towers, batch)
    taus1 = _taus(temps_img, e_img, tn.Variant.CL_EMBEDDING, "image side")
    taus2 = _taus(temps_txt, e_txt, tn.Variant.CL_EMBEDDING, "text side")
    img_terms = _direction_terms(masked, diag, taus1, cfg.rho, n)
    txt_terms = _direction_terms(de.transpose(masked), diag, taus2, cfg.rho, n)
    return de.mean(de.add(img_terms, txt_terms))


def baseline_gcl_loss(
    towers: TwoTowerParams, tau1: float, tau2: float, batch: PairBatch
) -> Tensor:
    """Fixed-temperature two-way contrastive loss with negative-only denominators."""
    if tau1 <= 0.0 or tau2 <= 0.0:
        raise DomainError(f"temperatures must be positive, got {tau1} and {tau2}")
    _, _, masked, diag = _similarities(towers, batch)

    def direction(rows: Tensor, tau: float) -> Tensor:
        lse = de.logsumexp(de.mul(rows, 1.0 / tau), axis=1)
        return de.sub(de.mul(lse, tau), diag)

    return de.mean(de.add(direction(masked, tau1), direction(de.transpose(masked), tau2)))


def recall_at_k(towers: TwoTowerParams, eval_pairs: PairBatch, k: int) -> Tuple[float, float]:
    """(image_retrieval, text_retrieval) recall@k over the evaluation pairs.

    image_retrieval ranks images for each text query; text_retrieval ranks
    texts for each image query. Ties break toward the lower index. A
    non-finite similarity raises NonFiniteError.
    """
    n = eval_pairs.n
    if not (1 <= k <= n):
        raise DomainError(f"k must be in [1, {n}], got {k}")
    sims = encode_image(towers, Tensor(eval_pairs.x)).data @ encode_text(
        towers, Tensor(eval_pairs.t)
    ).data.T
    if not np.isfinite(sims).all():
        raise NonFiniteError("recall_at_k: the embedding similarities are not all finite")

    def recall(score_rows: np.ndarray) -> float:
        hits = 0
        for i in range(n):
            order = np.argsort(-score_rows[i], kind="stable")
            hits += int(i in order[:k])
        return hits / n

    return recall(sims.T), recall(sims)


# ---------------------------------------------------------------------------
# data plumbing: character corpus and synthetic pairs


@dataclass(frozen=True)
class Vocab:
    """Sorted character vocabulary with a dense id per character."""

    chars: str

    @property
    def size(self) -> int:
        return len(self.chars)

    def encode(self, text: str) -> np.ndarray:
        index = {c: i for i, c in enumerate(self.chars)}
        try:
            return np.array([index[c] for c in text], dtype=np.int64)
        except KeyError as exc:
            raise DomainError(f"character {exc.args[0]!r} not in vocabulary") from None

    def decode(self, ids) -> str:
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.size):
            raise DomainError(f"id out of range for vocabulary of {self.size}")
        return "".join(self.chars[i] for i in ids)


def build_vocab(text: str) -> Vocab:
    if not text:
        raise DomainError("cannot build a vocabulary from empty text")
    return Vocab("".join(sorted(set(text))))


def load_corpus(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not text:
        raise DomainError(f"corpus file {path} is empty")
    return text


def sample_windows(
    ids: np.ndarray, context_len: int, batch_size: int, rng: np.random.Generator
) -> TokenBatch:
    """batch_size random contiguous windows of exactly context_len tokens."""
    if len(ids) < context_len:
        raise DomainError(f"corpus of {len(ids)} tokens shorter than context {context_len}")
    starts = rng.integers(0, len(ids) - context_len + 1, size=batch_size)
    return TokenBatch([ids[s : s + context_len] for s in starts])


def eval_windows(ids: np.ndarray, context_len: int) -> TokenBatch:
    """Non-overlapping full-coverage windows (trailing runt kept if >= 2)."""
    seqs = [ids[s : s + context_len] for s in range(0, len(ids), context_len)]
    seqs = [s for s in seqs if len(s) >= 2]
    if not seqs:
        raise DomainError("eval split too short for even one window")
    return TokenBatch(seqs)


def split_ids(ids: np.ndarray, val_fraction: float) -> Tuple[np.ndarray, np.ndarray]:
    """Leading train slice and trailing validation slice."""
    if not (0.0 < val_fraction < 1.0):
        raise DomainError(f"val_fraction must be in (0, 1), got {val_fraction}")
    cut = int(round(len(ids) * (1.0 - val_fraction)))
    return ids[:cut], ids[cut:]


def split_pairs(pairs: PairBatch, eval_fraction: float) -> Tuple[PairBatch, PairBatch]:
    """Leading train pairs and trailing eval pairs (at least 2 of each)."""
    cut = pairs.n - max(2, int(round(pairs.n * eval_fraction)))
    if cut < 2:
        raise DomainError(f"{pairs.n} pairs leave no room for a train/eval split")
    return PairBatch(pairs.x[:cut], pairs.t[:cut]), PairBatch(pairs.x[cut:], pairs.t[cut:])


def gen_clustered_pairs(
    n_pairs: int, dim: int, n_clusters: int, noise: float, seed: int
) -> PairBatch:
    """Matched pairs drawn around shared cluster centers with per-side noise."""
    if n_pairs < 2 or n_clusters < 1 or dim < 1:
        raise DomainError("need n_pairs >= 2, n_clusters >= 1, dim >= 1")
    if noise < 0.0:
        raise DomainError(f"noise must be nonnegative, got {noise}")
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_clusters, dim))
    assign = rng.integers(n_clusters, size=n_pairs)
    x = centers[assign] + noise * rng.normal(size=(n_pairs, dim))
    t = centers[assign] + noise * rng.normal(size=(n_pairs, dim))
    return PairBatch(x, t)


def save_pairs_csv(path, batch: PairBatch):
    """One row per pair: x0..x{d-1}, t0..t{d-1} with a labeling header."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"x{i}" for i in range(batch.x.shape[1])] + [f"t{i}" for i in range(batch.t.shape[1])]
        )
        for xi, ti in zip(batch.x, batch.t):
            writer.writerow([f"{v:.17g}" for v in xi] + [f"{v:.17g}" for v in ti])


def load_pairs_csv(path) -> PairBatch:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DomainError(f"pair file {path} is empty") from None
        d_x = len([h for h in header if h.startswith("x")])
        d_t = len([h for h in header if h.startswith("t")])
        if d_x < 1 or d_t < 1 or d_x + d_t != len(header):
            raise DomainError(f"pair file {path} has a malformed header: {header!r}")
        xs, ts = [], []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != d_x + d_t:
                raise DomainError(f"{path}:{line_no}: expected {d_x + d_t} fields, got {len(row)}")
            try:
                values = [float(v) for v in row]
            except ValueError:
                raise DomainError(f"{path}:{line_no}: non-numeric field") from None
            xs.append(values[:d_x])
            ts.append(values[d_x:])
    return PairBatch(np.array(xs), np.array(ts))
