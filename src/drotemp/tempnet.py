"""Per-instance temperature prediction network.

A small two-layer network maps a model output (a raw logit vector for language
models, or a unit-norm embedding for two-tower contrastive models) to a
temperature in [tau0, tau_max]. The head, one tape node (``tempnet_head``), is
shared by the two variants: prototypical logits u are pooled into a scalar s by
an attention-style weighted sum, and s is squashed through a logistic map.

The pooled scalar mirrors the fixed-point form of the optimal temperature: the
same radius rho that defines the robust loss scales the pooled sum, so a
well-trained network can approximate the per-instance minimizer directly.

Forward passes are pure. When a recording tape is active the batch entry
points build a differentiable graph over every parameter, so the network
trains jointly with the model that feeds it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from . import diff_engine as de
from .diff_engine import Tensor
from .errors import DomainError, NonFiniteError, bounds, check_fields


class Variant(Enum):
    """Input convention for the network."""

    LLM_LOGITS = "LlmLogits"
    CL_EMBEDDING = "ClEmbedding"


@dataclass(frozen=True)
class TempNetConfig:
    """Widths and output range for one temperature network.

    d0 is the input width (vocabulary size or embedding width), d1 the
    transformation width, d2 the number of prototypical logits.
    """

    variant: Variant
    d0: int = field(metadata=bounds(1))
    d1: int = field(metadata=bounds(1))
    d2: int = field(metadata=bounds(1))
    tau0: float = field(default=1e-3, metadata=bounds(0, open_lo=True))
    tau_max: float = 2.0
    rho: float = field(default=1.0, metadata=bounds(0, open_lo=True))

    def __post_init__(self):
        if not isinstance(self.variant, Variant):
            raise DomainError(f"variant must be a Variant member, got {self.variant!r}")
        check_fields(self)
        if self.variant is Variant.LLM_LOGITS:
            # widths must narrow toward the pooled scalar
            if not (self.d0 >= self.d1 >= self.d2):
                raise DomainError(
                    f"logit variant needs d0 >= d1 >= d2, got {self.d0}, {self.d1}, {self.d2}"
                )
        else:
            if self.d2 > self.d1:
                raise DomainError(f"embedding variant needs d2 <= d1, got d1={self.d1} d2={self.d2}")
        if self.tau_max <= self.tau0:
            raise DomainError(f"need tau0 < tau_max, got [{self.tau0}, {self.tau_max}]")


@dataclass
class TempNetParams:
    """Trainable parameters plus the config they were built for.

    W2 orientation depends on the variant: d2 x d1 applied as u = W2 @ v for
    logits, d1 x d2 prototype columns applied as u = normalize(W2).T @ v for
    embeddings. Prototype columns are normalized at use time, never in
    storage, so the raw parameters stay freely trainable.
    """

    cfg: TempNetConfig
    W1: Tensor
    b1: Tensor
    W2: Tensor
    w3: Tensor
    phi: Tensor
    b: Tensor

    def __post_init__(self):
        c = self.cfg
        expect_w2 = (c.d2, c.d1) if c.variant is Variant.LLM_LOGITS else (c.d1, c.d2)
        shapes = {
            "W1": (self.W1, (c.d1, c.d0)),
            "b1": (self.b1, (c.d1,)),
            "W2": (self.W2, expect_w2),
            "w3": (self.w3, (c.d2,)),
            "phi": (self.phi, ()),
            "b": (self.b, ()),
        }
        for name, (tensor, want) in shapes.items():
            if tensor.shape != want:
                raise DomainError(f"{name} must have shape {want}, got {tensor.shape}")
            if not np.isfinite(tensor.data).all():
                raise DomainError(f"{name} contains non-finite entries")
        if float(self.phi.data) <= 0.0:
            raise DomainError(f"phi must be positive, got {float(self.phi.data)}")

    def tensors(self) -> Tuple[Tuple[str, Tensor], ...]:
        """Parameters in a fixed order, for optimizers and checkpoints."""
        return de.named_tensors(self)


def _kaiming_uniform(rng: np.random.Generator, shape: Tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _param(data: np.ndarray) -> Tensor:
    return Tensor(data, requires_grad=True)


def init_llm_tempnet(cfg: TempNetConfig, seed: int) -> TempNetParams:
    """Kaiming-uniform W1/W2, zero biases, unit pooling weights, phi = 1."""
    if cfg.variant is not Variant.LLM_LOGITS:
        raise DomainError(f"config variant is {cfg.variant}, expected {Variant.LLM_LOGITS}")
    rng = np.random.default_rng(seed)
    return TempNetParams(
        cfg=cfg,
        W1=_param(_kaiming_uniform(rng, (cfg.d1, cfg.d0), fan_in=cfg.d0)),
        b1=_param(np.zeros(cfg.d1)),
        W2=_param(_kaiming_uniform(rng, (cfg.d2, cfg.d1), fan_in=cfg.d1)),
        w3=_param(np.ones(cfg.d2)),
        phi=_param(np.asarray(1.0)),
        b=_param(np.asarray(0.0)),
    )


def init_cl_tempnet(
    cfg: TempNetConfig, seed: int, sample_embeddings: Optional[np.ndarray] = None
) -> TempNetParams:
    """Prototype columns copied from sample transformation outputs when given.

    sample_embeddings rows live in the transformation output space (width d1);
    prototypes are drawn from the nonzero rows only (a zero column has no
    direction to normalize), and at least d2 of them are required. Absent
    samples fall back to Kaiming-uniform prototypes. phi starts at 0.01, the
    usual contrastive temperature scale.
    """
    if cfg.variant is not Variant.CL_EMBEDDING:
        raise DomainError(f"config variant is {cfg.variant}, expected {Variant.CL_EMBEDDING}")
    rng = np.random.default_rng(seed)
    w1 = _kaiming_uniform(rng, (cfg.d1, cfg.d0), fan_in=cfg.d0)
    if sample_embeddings is None:
        w2 = _kaiming_uniform(rng, (cfg.d1, cfg.d2), fan_in=cfg.d1)
    else:
        samples = np.asarray(sample_embeddings, dtype=np.float64)
        if samples.ndim != 2 or samples.shape[1] != cfg.d1:
            raise DomainError(f"sample_embeddings must be n x {cfg.d1}, got {samples.shape}")
        nonzero = np.flatnonzero(samples.any(axis=1))
        if nonzero.size < cfg.d2:
            raise DomainError(
                f"need at least d2={cfg.d2} nonzero sample rows for prototypes,"
                f" got {nonzero.size} of {samples.shape[0]}"
            )
        # sorted draw keeps provided order; with exactly d2 rows the columns
        # equal the rows verbatim
        idx = nonzero[np.sort(rng.choice(nonzero.size, size=cfg.d2, replace=False))]
        w2 = samples[idx].T.copy()
    return TempNetParams(
        cfg=cfg,
        W1=_param(w1),
        b1=_param(np.zeros(cfg.d1)),
        W2=_param(w2),
        w3=_param(np.ones(cfg.d2)),
        phi=_param(np.asarray(0.01)),
        b=_param(np.asarray(0.0)),
    )


def _llm_parts(params: TempNetParams, logits: Tensor) -> Tuple[Tensor, Tensor, Tensor, Tensor]:
    """v, u, s and tau for a batch of raw logit rows; an all-zero row (an
    untrained model emits them) goes through unnormalized."""
    normed = de.l2_normalize(logits, axis=-1, zero_policy="keep")
    v = de.relu(de.affine(normed, params.W1, params.b1))
    u = de.affine(v, params.W2)
    c = params.cfg
    return (v, u, *de.tempnet_head(u, params.w3, params.phi, params.b, c.rho, c.tau0, c.tau_max))


def _cl_parts(params: TempNetParams, embeddings: Tensor) -> Tuple[Tensor, Tensor, Tensor, Tensor]:
    """v, u, s and tau for a batch of embedding rows."""
    v = de.relu(de.affine(embeddings, params.W1, params.b1))
    # prototype columns normalized here so gradients flow through the norm
    u = de.matmul(v, de.l2_normalize(params.W2, axis=0))
    c = params.cfg
    return (v, u, *de.tempnet_head(u, params.w3, params.phi, params.b, c.rho, c.tau0, c.tau_max))


def _check_finite(data: np.ndarray, what: str) -> None:
    """NonFiniteError if data holds a NaN or an infinity.

    The tape does not check its ops, so the batch entry points check both
    ends: the ReLU maps a -inf input to zero, so only the input check sees it.
    """
    if not np.isfinite(data).all():
        raise NonFiniteError(f"{what} are not all finite")


def llm_tau_batch(params: TempNetParams, logits: Tensor) -> Tensor:
    """Temperatures for a batch of raw logit rows (n x d0) -> (n,).

    Differentiable in every parameter and in the logits; rows are L2
    normalized first, so the result is invariant to positive rescaling.
    All-zero rows (an untrained model emits them) go through unnormalized.
    """
    if logits.data.ndim != 2 or logits.shape[1] != params.cfg.d0:
        raise DomainError(f"expected n x {params.cfg.d0} logits, got {logits.shape}")
    _check_finite(logits.data, "llm_tau_batch: logit rows")
    tau = _llm_parts(params, logits)[3]
    _check_finite(tau.data, "llm_tau_batch: temperatures")
    return tau


def cl_tau_batch(params: TempNetParams, embeddings: Tensor) -> Tensor:
    """Temperatures for a batch of embedding rows (n x d0) -> (n,)."""
    if embeddings.data.ndim != 2 or embeddings.shape[1] != params.cfg.d0:
        raise DomainError(f"expected n x {params.cfg.d0} embeddings, got {embeddings.shape}")
    _check_finite(embeddings.data, "cl_tau_batch: embedding rows")
    tau = _cl_parts(params, embeddings)[3]
    _check_finite(tau.data, "cl_tau_batch: temperatures")
    return tau
