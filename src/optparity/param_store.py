"""Named, tagged parameter groups over one contiguous vector.

Optimizers and regularizers route per group by tag; the four tags cover
every exclusion rule used in the experiments (weights vs. bias/BN scale/
BN shift). A store keeps all of its parameters in one float64 vector
``flat``, which one `Layout` orders by tag (``TAGS`` order, model order
within a tag), and every group's ``values`` is a view into it, so a route
over adjacent tags is a single slice. All optimizer math downstream is
shape-oblivious: norms are taken over flat vectors, shape metadata exists
only for the model.
`const` and `all_finite` are the numeric helpers the model and the
optimizer share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DuplicateGroupName, InvalidConfig, ShapeMismatch, UnknownGroupName

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


class Segment(NamedTuple):
    """Where one group sits in a vector laid out like a store's `flat`."""

    name: str
    tag: str
    shape: tuple[int, ...]
    start: int
    stop: int


class Layout:
    """Where each group sits in a vector laid out like a store's `flat`, by
    tag (`TAGS` order) and in model order within a tag: the only code that
    assigns offsets. Built once from (name, tag, shape) in model order and
    shared, unchanged, by a store, its copies, its optimizer state and its
    layer plan. `segments` lists the groups in model order, `flat_order` the
    same segments by offset, and `size` is the vector's length.
    """

    def __init__(self, groups):
        groups = list(groups)
        if unknown := {tag for _, tag, _ in groups} - set(TAGS):
            raise InvalidConfig(f"unknown tag {min(unknown)!r}")
        sizes = [math.prod(shape) for _, _, shape in groups]
        starts, offset = [0] * len(groups), 0
        for i in sorted(range(len(groups)), key=lambda i: TAGS.index(groups[i][1])):
            starts[i], offset = offset, offset + sizes[i]
        self.segments = tuple(Segment(name, tag, shape, start, start + size) for
                              (name, tag, shape), start, size in zip(groups, starts, sizes))
        self.flat_order = tuple(sorted(self.segments, key=lambda seg: seg.start))
        self.size = offset
        self._index = {seg.name: seg for seg in self.segments}
        if len(self._index) != len(groups):
            names = [name for name, _, _ in groups]
            raise DuplicateGroupName(", ".join(sorted({n for n in names if names.count(n) > 1})))

    def __getitem__(self, name: str) -> Segment:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownGroupName(name) from None

    def views(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Each group's flat view of `vec`, by name, in model order."""
        return {seg.name: vec[seg.start:seg.stop] for seg in self.segments}


class ParamStore:
    """A `Layout` and one flat vector laid out by it.

    Iteration, lookup and `names()` keep model order, and each group they
    give is a view into `flat`. A store never replaces its `flat`, so views
    into it stay valid: `layer_plan` holds the model's (see
    `model.layer_plan`), and a copy shares the layout and starts without.
    """

    def __init__(self, layout: Layout, flat: np.ndarray):
        self.layout, self.flat = layout, flat
        self.layer_plan = None

    def __iter__(self):
        return (ParamGroup._view(seg, self.flat) for seg in self.layout.segments)

    def __getitem__(self, name: str) -> ParamGroup:
        return ParamGroup._view(self.layout[name], self.flat)

    def names(self) -> list[str]:
        return [seg.name for seg in self.layout.segments]

    def copy(self) -> "ParamStore":
        return ParamStore(self.layout, self.flat.copy())


def build_param_store(groups: list[ParamGroup]) -> ParamStore:
    """Validate and assemble groups, preserving input order."""
    if not groups:
        raise ShapeMismatch("empty group list")
    layout = Layout((g.name, g.tag, g.shape) for g in groups)
    flat = np.empty(layout.size)
    for g, values in zip(groups, layout.views(flat).values()):
        values[:] = g.values
    return ParamStore(layout, flat)
