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
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from . import diff_engine as de
from . import tempnet as tn
from .diff_engine import Tensor
from .dro_core import DroConfig
from .errors import DegenerateBatchError, DomainError, NonFiniteError, bounds, check_fields
from .errors import read_utf8

_NEG_MASK = -1e9  # additive score mask; exp underflows to exactly zero


def quiet_floats() -> np.errstate:
    """numpy's float warnings off, for code that checks its own result."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


# ---------------------------------------------------------------------------
# language model


@dataclass(frozen=True)
class LmConfig:
    """Shape of the toy causal LM."""

    vocab_size: int = field(metadata=bounds(2))
    d_model: int = field(default=32, metadata=bounds(1, 128))
    d_ff: int = field(default=64, metadata=bounds(1, 512))
    n_blocks: int = field(default=1, metadata=bounds(1, 2))
    context_len: int = field(default=32, metadata=bounds(2, 64))

    def __post_init__(self):
        check_fields(self)


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
        d, v = c.d_model, c.vocab_size
        _check_shapes(self, "", {"emb": (v, d), "pos": (c.context_len, d), "out_proj": (v, d)})
        if len(self.blocks) != c.n_blocks:
            raise DomainError(f"expected {c.n_blocks} blocks, got {len(self.blocks)}")
        for i, blk in enumerate(self.blocks):
            _check_shapes(blk, f"blocks.{i}.", _block_shapes(c))

    def tensors(self) -> Tuple[Tuple[str, Tensor], ...]:
        return de.named_tensors(self)


@dataclass(frozen=True)
class TokenBatch:
    """Token id sequences; targets are the next token at every position.

    Built from a 2-D integer array, one sequence per row, or from an
    iterable of 1-D sequences; an item of the iterable may also be a 2-D
    array of equal-length sequences. Each 2-D array is checked at once.
    """

    sequences: Tuple[np.ndarray, ...]

    def __init__(self, sequences):
        if isinstance(sequences, np.ndarray) and sequences.ndim == 2:
            sequences = (sequences,)
        rows = []
        for seq in sequences:
            arr = np.asarray(seq)
            rows.extend(_token_rows(arr[None] if arr.ndim == 1 else arr))
        if not rows:
            raise DomainError("batch must contain at least one sequence")
        object.__setattr__(self, "sequences", tuple(rows))

    @property
    def n_targets(self) -> int:
        return sum(len(s) - 1 for s in self.sequences)


def _token_rows(block: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The rows of an n x m block of token ids as read-only int64 arrays."""
    if block.ndim != 2 or (block.shape[0] and block.shape[1] < 2):
        raise DomainError("every sequence needs at least 2 tokens")
    if not block.size:
        return ()
    if not np.issubdtype(block.dtype, np.integer):
        raise DomainError("token ids must be integers")
    if block.min() < 0:
        raise DomainError("token ids must be nonnegative")
    block = block.astype(np.int64, copy=True)
    block.setflags(write=False)
    return tuple(block)


def _param(data: np.ndarray) -> Tensor:
    return Tensor(data, requires_grad=True)


def _kaiming(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform weights within sqrt(6 / fan_in), the fan-in being shape[1]."""
    bound = math.sqrt(6.0 / shape[1])
    return rng.uniform(-bound, bound, size=shape)


def _check_shapes(params, prefix: str, shapes: dict) -> None:
    """Refuse a field of params whose shape is not shapes[field], by its path."""
    for name, shape in shapes.items():
        got = getattr(params, name).shape
        if got != shape:
            raise DomainError(f"{prefix}{name} must have shape {shape}, got {got}")


def _block_shapes(cfg: LmConfig) -> dict:
    """The shape of each BlockParams field under cfg, in field order."""
    d, ff = cfg.d_model, cfg.d_ff
    return {"Wq": (d, d), "Wk": (d, d), "Wv": (d, d), "Wo": (d, d),
            "Wf1": (ff, d), "bf1": (ff,), "Wf2": (d, ff), "bf2": (d,)}


def init_lm(cfg: LmConfig, seed: int) -> LmParams:
    """Uniform Kaiming weights, small normal embeddings, zero output projection.

    The zero output projection makes the step-0 model exactly uniform, which
    keeps early robust-loss temperatures well defined and equal across seeds.
    """
    rng = np.random.default_rng(seed)
    blocks = tuple(
        BlockParams(**{
            name: _param(np.zeros(shape) if len(shape) == 1 else _kaiming(rng, shape))
            for name, shape in _block_shapes(cfg).items()
        })
        for _ in range(cfg.n_blocks)
    )
    d = cfg.d_model
    return LmParams(
        cfg=cfg,
        emb=_param(rng.normal(size=(cfg.vocab_size, d)) * 0.05),
        pos=_param(rng.normal(size=(cfg.context_len, d)) * 0.05),
        blocks=blocks,
        out_proj=_param(np.zeros((cfg.vocab_size, d))),
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
        q = de.affine(xn, blk.Wq)
        k = de.affine(xn, blk.Wk)
        v = de.affine(xn, blk.Wv)
        scores = de.add(de.mul(de.matmul(q, de.transpose(k)), 1.0 / math.sqrt(d)), mask)
        ctx = de.matmul(de.softmax(scores), v)
        x = de.add(x, de.reshape(de.affine(ctx, blk.Wo), (n * m, d)))
        h = de.relu(de.affine(_rmsnorm(x, d), blk.Wf1, blk.bf1))
        x = de.add(x, de.affine(h, blk.Wf2, blk.bf2))
    return de.affine(_rmsnorm(x, d), params.out_proj)


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
    blocks = [np.stack(list(run)) for _, run in itertools.groupby(sequences, key=len)]
    cfg = params.cfg
    if any(ids.shape[1] > cfg.context_len or ids.max() >= cfg.vocab_size for ids in blocks):
        _check_sequences(params, sequences)  # raises, naming the first bad sequence
    parts = []
    for ids in blocks:
        m = ids.shape[1]
        # every row but each sequence's last, which predicts past its end
        keep = (np.arange(ids.shape[0])[:, None] * m + np.arange(m - 1)).reshape(-1)
        parts.append(de.embedding_lookup(_stacked_logits(params, ids), keep))
    logits = parts[0] if len(parts) == 1 else de.concat(parts)
    return logits, np.concatenate([seq[1:] for seq in sequences])


def _target_terms(logits: Tensor, taus: Tensor, targets: np.ndarray, c: float) -> Tensor:
    """Per position: tau * (logsumexp(L / tau) + c) - L_target."""
    return de.sub(de.robust_rows(logits, taus, c), de.gather_rows(logits, targets))


def _taus(temps, features: Tensor, variant: tn.Variant, what: str) -> Tensor:
    """One temperature per row of features, from a temperature source.

    temps is either a temperature network of the given variant, applied to
    the detached rows, or an array of one positive tau per row.
    """
    if isinstance(temps, tn.TempNetParams):
        if temps.cfg.variant is not variant:
            raise DomainError(f"{what} needs a {variant.value} temperature network")
        if variant is tn.Variant.LLM_LOGITS:
            return tn.llm_tau_batch(temps, de.stop_gradient(features))
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
    return de.mean(_target_terms(logits, taus, targets, cfg.rho - math.log(logits.shape[1])))


def baseline_ce_loss(params: LmParams, batch: TokenBatch) -> Tensor:
    """Mean per-token negative log-likelihood at temperature 1."""
    logits, targets = _target_logits(params, batch.sequences)
    return de.mean(_target_terms(logits, Tensor(np.ones(logits.shape[0])), targets, 0.0))


# sequences per eval forward, 512 rows at context 32: half the per-call
# overhead of 8-sequence blocks at the same peak RSS, where 32-sequence
# blocks, faster still, raised a training run's peak RSS by 4%
EVAL_BLOCK = 16
# the NLL is summed in groups of this many sequences, then the group sums in
# order, so perplexity keeps its bits whatever EVAL_BLOCK is
_NLL_GROUP = 8


@quiet_floats()
def lm_eval_pass(
    params: LmParams,
    temperature_source: Union[float, tn.TempNetParams],
    batch: TokenBatch,
) -> Tuple[float, np.ndarray]:
    """Perplexity and the temperature at every target position, in one pass.

    temperature_source is either a fixed positive tau applied everywhere or a
    logit-variant temperature network evaluated per position. Perplexity is
    exp of the mean NLL under temperature-scaled probabilities; temperatures
    come back sequence-major. The forward runs EVAL_BLOCK sequences at a time.
    A non-finite log-likelihood raises NonFiniteError.
    """
    fixed: Optional[float] = None
    if isinstance(temperature_source, tn.TempNetParams):
        if temperature_source.cfg.variant is not tn.Variant.LLM_LOGITS:
            raise DomainError("perplexity needs a logit-variant temperature network")
    else:
        fixed = float(temperature_source)
        if fixed <= 0.0 or not np.isfinite(fixed):
            raise DomainError(f"fixed temperature must be positive, got {fixed}")

    sequences = batch.sequences
    nll_parts, tau_parts = [], []
    for lo in range(0, len(sequences), EVAL_BLOCK):
        logits, targets = _target_logits(params, sequences[lo : lo + EVAL_BLOCK])
        rows = logits.data
        if fixed is None:
            taus = tn.llm_tau_batch(temperature_source, logits).data
        else:
            taus = np.full(rows.shape[0], fixed)
        scaled = rows / taus[:, None]
        shift = scaled.max(axis=1)
        lse = shift + np.log(np.exp(scaled - shift[:, None]).sum(axis=1))
        nll_parts.append(lse - scaled[np.arange(rows.shape[0]), targets])
        tau_parts.append(taus)
    nll = np.concatenate(nll_parts)
    n = len(sequences)
    offsets = np.cumsum([0] + [len(seq) - 1 for seq in sequences])
    bounds = offsets[list(range(0, n, _NLL_GROUP)) + [n]].tolist()
    total = 0.0
    for start, end in zip(bounds, bounds[1:]):
        total += float(nll[start:end].sum())
    if not math.isfinite(total):
        raise NonFiniteError(f"perplexity: the validation log-likelihood is {total}")
    taus = np.concatenate(tau_parts)
    return float(np.exp(total / taus.size)), taus


def perplexity(
    params: LmParams,
    temperature_source: Union[float, tn.TempNetParams],
    batch: TokenBatch,
) -> float:
    """exp of mean NLL under temperature-scaled probabilities (see lm_eval_pass)."""
    return lm_eval_pass(params, temperature_source, batch)[0]


# ---------------------------------------------------------------------------
# two-tower contrastive model


@dataclass(frozen=True)
class TwoTowerConfig:
    """Shape of the paired encoders; both emit unit-norm out_dim vectors."""

    img_dim: int = field(metadata=bounds(1))
    txt_dim: int = field(metadata=bounds(1))
    hidden: int = field(default=32, metadata=bounds(1))
    out_dim: int = field(default=16, metadata=bounds(1))

    def __post_init__(self):
        check_fields(self)


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

    def __post_init__(self):
        c = self.cfg
        for side, in_dim in (("image", c.img_dim), ("text", c.txt_dim)):
            shapes = {"W1": (c.hidden, in_dim), "b1": (c.hidden,),
                      "W2": (c.out_dim, c.hidden), "b2": (c.out_dim,)}
            _check_shapes(getattr(self, side), side + ".", shapes)

    def tensors(self) -> Tuple[Tuple[str, Tensor], ...]:
        return de.named_tensors(self)


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

    def tower(in_dim: int) -> TowerParams:
        return TowerParams(
            W1=_param(_kaiming(rng, (cfg.hidden, in_dim))),
            b1=_param(np.zeros(cfg.hidden)),
            W2=_param(_kaiming(rng, (cfg.out_dim, cfg.hidden))),
            # nonzero output bias: an input that silences every hidden unit
            # still lands away from the origin, where normalization is defined
            b2=_param(np.full(cfg.out_dim, 0.01)),
        )

    return TwoTowerParams(cfg=cfg, image=tower(cfg.img_dim), text=tower(cfg.txt_dim))


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
    sims = de.affine(e_img, e_txt)
    masked = de.add(sims, Tensor(np.diag(np.full(n, _NEG_MASK))))
    return e_img, e_txt, masked, de.gather_rows(sims, np.arange(n))


def _direction_terms(sims: Tensor, diag: Tensor, taus: Tensor, rho: float, n: int) -> Tensor:
    """Per-anchor robust terms for one retrieval direction.

    sims rows already carry the additive diagonal mask, so the anchor's own
    positive drops out of the contrast set exactly.
    """
    return de.robust_rows(de.sub_colvec(sims, diag), taus, rho - math.log(n - 1))


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
        return de.sub(de.robust_rows(rows, Tensor(np.full(batch.n, tau)), 0.0), diag)

    return de.mean(de.add(direction(masked, tau1), direction(de.transpose(masked), tau2)))


@quiet_floats()
def recall_at_k(e_img: np.ndarray, e_txt: np.ndarray, k: int) -> Tuple[float, float]:
    """(image_retrieval, text_retrieval) recall@k of n matched pairs, given
    as the rows of their unit-norm image and text embeddings.

    image_retrieval ranks images for each text query; text_retrieval ranks
    texts for each image query. Ties break toward the lower index. A
    non-finite similarity raises NonFiniteError.
    """
    n = e_img.shape[0]
    if not (1 <= k <= n):
        raise DomainError(f"k must be in [1, {n}], got {k}")
    sims = e_img @ e_txt.T
    if not np.isfinite(sims).all():
        raise NonFiniteError("recall_at_k: the embedding similarities are not all finite")

    def recall(score_rows: np.ndarray) -> float:
        top = np.argsort(-score_rows, axis=1, kind="stable")[:, :k]
        return int((top == np.arange(n)[:, None]).sum()) / n

    return recall(sims.T), recall(sims)


# ---------------------------------------------------------------------------
# data plumbing: character corpus and synthetic pairs


def _code_points(text: str) -> np.ndarray:
    """The code points of text as a uint32 view, one per character."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)


@dataclass(frozen=True)
class Vocab:
    """Sorted character vocabulary with a dense id per character."""

    chars: str

    def __post_init__(self):
        if list(self.chars) != sorted(set(self.chars)):
            raise DomainError("vocabulary characters must be distinct and sorted")

    @property
    def size(self) -> int:
        return len(self.chars)

    def encode(self, text: str) -> np.ndarray:
        """int64 ids: each character's rank among the sorted vocabulary.

        Code points map through one dense table holding each character's id
        and -1 elsewhere, indexed up to the vocabulary's last code point plus
        one overflow slot that every higher code point is clipped to: 124
        entries for the bundled corpus, at most 0x110001 int64 (8.9 MB).
        """
        chars = _code_points(self.chars)
        table = np.full(int(chars.max(initial=0)) + 2, -1, dtype=np.int64)
        table[chars] = np.arange(len(chars))
        ids = table.take(_code_points(text), mode="clip")
        unknown = ids < 0
        if unknown.any():
            raise DomainError(f"character {text[int(unknown.argmax())]!r} not in vocabulary")
        return ids


def build_vocab(text: str) -> Vocab:
    """The distinct characters of text in code-point order, read off one
    bincount of its code points, whose table runs to the largest one: 123
    entries for the bundled corpus, at most 0x110000 int64 (8.9 MB)."""
    if not text:
        raise DomainError("cannot build a vocabulary from empty text")
    chars = np.flatnonzero(np.bincount(_code_points(text))).astype(np.uint32)
    return Vocab(chars.tobytes().decode("utf-32-le", "surrogatepass"))


def load_corpus(path) -> str:
    text = read_utf8(path).read()
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
    return TokenBatch(ids[starts[:, None] + np.arange(context_len)])


def eval_windows(ids: np.ndarray, context_len: int) -> TokenBatch:
    """Non-overlapping full-coverage windows (trailing runt kept if >= 2)."""
    n = len(ids) // context_len
    parts = [ids[: n * context_len].reshape(n, context_len), ids[n * context_len :]]
    parts = [part for part in parts if part.shape[-1] >= 2 and part.size]
    if not parts:
        raise DomainError("eval split too short for even one window")
    return TokenBatch(parts)


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
    if not 0.0 <= noise < math.inf:
        raise DomainError(f"noise must be finite and >= 0, got {noise}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    # numpy refuses an array of more bytes than an intp holds ("array is too big")
    most = np.iinfo(np.intp).max // 8
    for name, rows in (("n_pairs", n_pairs), ("n_clusters", n_clusters)):
        if rows * dim > most:
            raise DomainError(f"{name} {rows} x dim {dim} is more floats than numpy can hold")
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
    """The pairs of a CSV file in the layout save_pairs_csv writes: the header
    x0..x{d_x-1},t0..t{d_t-1}, then one row of d_x + d_t numbers per pair.

    A refused file is a DomainError that names the file, and a bad row as
    path:line. The rows are parsed in one np.loadtxt call, whose result is
    taken only when it holds one row per line; any other file goes through
    the per-line loop, which finds and names the bad line.
    """
    fh = read_utf8(path, newline="")
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise DomainError(f"pair file {path} is empty") from None
    except csv.Error as exc:
        raise DomainError(f"{path}:1: {exc}") from None
    d_x = len([h for h in header if h.startswith("x")])
    d_t = len(header) - d_x
    saved = [f"x{i}" for i in range(d_x)] + [f"t{i}" for i in range(d_t)]
    if d_x < 1 or d_t < 1 or header != saved:
        raise DomainError(f"pair file {path} has a malformed header: {header!r}")
    lines = fh.readlines()
    if not lines:
        raise DomainError(f"pair file {path} has no rows")
    width = d_x + d_t
    lengths = list(map(len, lines))
    # A line shorter than a row's width fields and commas (a blank one, which
    # np.loadtxt skips) or longer than csv's field limit goes to the loop.
    rows = None
    if 2 * width - 1 <= min(lengths) and max(lengths) <= csv.field_size_limit():
        try:
            rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    if rows is None or rows.shape != (len(lines), width):
        rows = np.array(_pair_rows(path, lines, width))
    return PairBatch(rows[:, :d_x].copy(), rows[:, d_x:].copy())


def _pair_rows(path, lines, width: int) -> list:
    """The rows of the body lines as lists of floats, read one csv record at
    a time; the first bad line raises, named as path:line."""
    rows, line_no = [], 1
    try:
        for line_no, row in enumerate(csv.reader(lines), start=2):
            if len(row) != width:
                raise DomainError(f"{path}:{line_no}: expected {width} fields, got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise DomainError(f"{path}:{line_no}: non-numeric field") from None
    except csv.Error as exc:
        raise DomainError(f"{path}:{line_no + 1}: {exc}") from None
    return rows
