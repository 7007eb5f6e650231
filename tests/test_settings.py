"""The declared range of every settings field, read from its ``bounds``
metadata and tried at each finite edge: the edge of a closed end and the
nearest value inside an open one are accepted, the value just past a closed
end and an open edge itself are refused with the field named. A float field
refuses NaN and the infinities."""

import dataclasses
import math

import numpy as np
import pytest

from drotemp.dro_core import DroConfig
from drotemp.errors import DomainError
from drotemp.models import LmConfig, TwoTowerConfig
from drotemp.tau_solver import SolverOptions
from drotemp.tempnet import TempNetConfig, Variant
from drotemp.trainer import ClTask, LmTask, TrainConfig

# a valid instance of each settings class, at the lower edge of every bounded
# width, so one field can move to any edge of its own range
BASES = {
    DroConfig: {},
    SolverOptions: {},
    TempNetConfig: {"variant": Variant.CL_EMBEDDING, "d0": 1, "d1": 1, "d2": 1},
    LmConfig: {"vocab_size": 2, "d_model": 1, "d_ff": 1, "context_len": 2},
    TwoTowerConfig: {"img_dim": 1, "txt_dim": 1, "hidden": 1, "out_dim": 1},
    TrainConfig: {"total_steps": 1, "batch_size": 1, "seed": 0, "cfg": DroConfig()},
    LmTask: {"corpus_path": "corpus.txt"},
    ClTask: {"pairs_path": "pairs.csv"},
}


def _edges(field):
    """(accepted, refused) values at each finite end of the field's range."""
    lo, hi, open_lo, open_hi = field.metadata["bounds"]
    for edge, is_open, outward in ((lo, open_lo, -math.inf), (hi, open_hi, math.inf)):
        if not math.isfinite(edge):
            continue
        if field.type == "int":
            assert not is_open, field.name  # an integer range names its last member
            yield edge, edge + (1 if outward > 0 else -1)
        elif is_open:
            yield float(np.nextafter(edge, -outward)), float(edge)
        else:
            yield float(edge), float(np.nextafter(edge, outward))


EDGES = [
    (cls, f.name, accepted, refused)
    for cls in BASES
    for f in dataclasses.fields(cls)
    if "bounds" in f.metadata
    for accepted, refused in _edges(f)
]
FLOATS = [(cls, f.name) for cls in BASES for f in dataclasses.fields(cls) if f.type == "float"]


def test_every_class_declares_bounds():
    assert {cls for cls, *_ in EDGES} == set(BASES)


@pytest.mark.parametrize(
    "cls, name, accepted, refused", EDGES,
    ids=[f"{cls.__name__}.{name}={refused!r}" for cls, name, _, refused in EDGES],
)
def test_edge_accepted_and_just_past_it_refused(cls, name, accepted, refused):
    assert getattr(cls(**{**BASES[cls], name: accepted}), name) == accepted
    with pytest.raises(DomainError, match=f"^{name} must be "):
        cls(**{**BASES[cls], name: refused})


@pytest.mark.parametrize("cls, name", FLOATS, ids=[f"{c.__name__}.{n}" for c, n in FLOATS])
def test_non_finite_float_refused(cls, name):
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=f"^{name} must be finite, got {value}$"):
            cls(**{**BASES[cls], name: value})
