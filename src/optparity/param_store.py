"""Named, tagged parameter groups over one contiguous vector.

Optimizers and regularizers route per group by tag; the four tags cover
every exclusion rule used in the experiments (weights vs. bias/BN scale/
BN shift). A store keeps all of its parameters in one float64 vector
``flat``, ordered by tag (``TAGS`` order, model order within a tag), and
every group's ``values`` is a view into it, so a route over adjacent tags
is a single slice. Iteration, lookup, ``names()`` and the JSON snapshot
keep model order. All optimizer math downstream is shape-oblivious: norms
are taken over flat vectors, shape metadata exists only for the model.
`const` and `all_finite` are the numeric helpers the model and the
optimizer share.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DuplicateGroupName, ShapeMismatch, UnknownGroupName

TAGS = ("weight", "bias", "bn_scale", "bn_shift")


def const(value: float) -> np.ndarray:
    """`value` as a read-only 0-d float64 array. A ufunc takes it as an operand
    without first converting it, as it must a Python float, and computes the
    same bits."""
    array = np.array(value, dtype=np.float64)
    array.flags.writeable = False
    return array


def all_finite(x: np.ndarray) -> bool:
    """Whether every entry of `x` is finite: np.isfinite(x).all() without the
    Python layer of the method."""
    return np.logical_and.reduce(np.isfinite(x), axis=None)


@dataclass
class ParamGroup:
    name: str
    tag: str
    values: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self):
        if self.tag not in TAGS:
            raise ValueError(f"unknown tag {self.tag!r}")
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        self.shape = tuple(int(d) for d in self.shape)
        if self.values.size == 0:
            raise ShapeMismatch(f"group {self.name!r} is empty")
        if any(d <= 0 for d in self.shape):
            raise ShapeMismatch(f"group {self.name!r} has non-positive dims {self.shape}")
        if math.prod(self.shape) != self.values.size:
            raise ShapeMismatch(
                f"group {self.name!r}: {self.values.size} values vs shape {self.shape}"
            )

    @classmethod
    def _view(cls, seg: "Segment", flat: np.ndarray) -> "ParamGroup":
        """The group `seg` describes, over its slice of `flat`, unvalidated."""
        grp = object.__new__(cls)
        grp.name, grp.tag, grp.shape = seg.name, seg.tag, seg.shape
        grp.values = flat[seg.start:seg.stop]
        return grp

    def as_matrix(self) -> np.ndarray:
        return self.values.reshape(self.shape)


class Segment(NamedTuple):
    """Where one group lives in its store's flat vector."""

    name: str
    tag: str
    shape: tuple[int, ...]
    start: int
    stop: int


class ParamStore:
    """Groups in model order over one tag-ordered flat vector.

    `segments` lists the groups in model order and `flat_order` the same
    segments by offset; both are shared, unchanged, by every copy. A store
    never replaces its `flat`, so views into it stay valid: `layer_plan`
    holds the model's (see `model.layer_plan`), and a copy starts without.
    """

    def __init__(self, groups: list[ParamGroup] = ()):
        names = [g.name for g in groups]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise DuplicateGroupName(", ".join(dupes))
        by_tag = sorted(range(len(groups)), key=lambda i: TAGS.index(groups[i].tag))
        starts, offset = {}, 0
        for i in by_tag:
            starts[i] = offset
            offset += groups[i].values.size
        flat = np.empty(offset)
        segments = []
        for i, g in enumerate(groups):
            seg = Segment(g.name, g.tag, g.shape, starts[i], starts[i] + g.values.size)
            flat[seg.start:seg.stop] = g.values
            segments.append(seg)
        self.segments = tuple(segments)
        self.flat_order = tuple(sorted(segments, key=lambda s: s.start))
        self._adopt(flat)

    def _adopt(self, flat: np.ndarray) -> None:
        self.flat = flat
        self.layer_plan = None
        self.groups = [ParamGroup._view(seg, flat) for seg in self.segments]
        self._index = {g.name: g for g in self.groups}

    def __iter__(self):
        return iter(self.groups)

    def __len__(self):
        return len(self.groups)

    def __getitem__(self, name: str) -> ParamGroup:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownGroupName(name) from None

    def names(self) -> list[str]:
        return [g.name for g in self.groups]

    @property
    def total_params(self) -> int:
        return self.flat.size

    def copy(self) -> "ParamStore":
        new = object.__new__(ParamStore)
        new.segments, new.flat_order = self.segments, self.flat_order
        new._adopt(self.flat.copy())
        return new


def build_param_store(groups: list[ParamGroup]) -> ParamStore:
    """Validate and assemble groups, preserving input order."""
    if not groups:
        raise ShapeMismatch("empty group list")
    return ParamStore(list(groups))


def select_groups(store: ParamStore, tags: set[str]) -> list[str]:
    """Names of all groups whose tag is in `tags`, in store order."""
    return [g.name for g in store if g.tag in tags]


def global_l2_norm(store: ParamStore, names: list[str]) -> float:
    """sqrt of the sum of squares over the listed groups; 0 for an empty list."""
    total = 0.0
    for name in names:
        v = store[name].values
        total += float(v @ v)
    return math.sqrt(total)


def store_to_json(store: ParamStore) -> str:
    """Snapshot for checkpoint/restore: list of {name, tag, shape, values}."""
    doc = [
        {"name": g.name, "tag": g.tag, "shape": list(g.shape), "values": g.values.tolist()}
        for g in store
    ]
    return json.dumps(doc)


def store_from_json(text: str) -> ParamStore:
    doc = json.loads(text)
    return build_param_store(
        [
            ParamGroup(d["name"], d["tag"], np.array(d["values"]), tuple(d["shape"]))
            for d in doc
        ]
    )
