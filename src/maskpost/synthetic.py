"""Analytic shape corpus for exercising the renderer without trained models.

Shapes live in the unit square and are rasterized onto align-corners grids,
so a shape's mask at any resolution is consistent with score-field
sampling: grid point (i, j) of a side-s grid sits at (j/(s-1), i/(s-1)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ScoreField, grid_coords

__all__ = ["Shape", "shape_mask", "shape_field", "default_corpus", "parse_corpus_spec"]


@dataclass(frozen=True)
class Shape:
    """A disk, axis-aligned rectangle, or annulus in unit-square coordinates.

    ``a`` is the radius (disk), half-width (rect) or outer radius (annulus);
    ``b`` is the half-height (rect) or inner radius (annulus). All four
    numbers are finite, ``a > 0``, a rect has ``b > 0`` and an annulus
    ``0 <= b < a``, so no shape is empty by construction.
    """

    kind: str
    cx: float
    cy: float
    a: float
    b: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _MAKERS:
            raise ValueError(f"unknown shape kind {self.kind!r}")
        if not all(math.isfinite(x) for x in (self.cx, self.cy, self.a, self.b)):
            raise ValueError(f"{self} has a non-finite center or size")
        if not self.a > 0:
            raise ValueError(f"{self.kind} needs a > 0, got a={self.a}")
        if self.kind == "rect" and not self.b > 0:
            raise ValueError(f"rect needs a half-height b > 0, got b={self.b}")
        if self.kind == "annulus" and not 0 <= self.b < self.a:
            raise ValueError(f"annulus needs 0 <= b < a, got a={self.a}, b={self.b}")

    def contains(self, u, v):
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        if self.kind == "disk":
            return (u - self.cx) ** 2 + (v - self.cy) ** 2 <= self.a ** 2
        if self.kind == "rect":
            return (np.abs(u - self.cx) <= self.a) & (np.abs(v - self.cy) <= self.b)
        d2 = (u - self.cx) ** 2 + (v - self.cy) ** 2  # annulus
        return (d2 <= self.a ** 2) & (d2 > self.b ** 2)


def shape_mask(shape: Shape, side: int) -> np.ndarray:
    """Ground-truth boolean mask: pixel-center membership on a side x side grid."""
    coords = grid_coords(side)
    u, v = np.meshgrid(coords, coords)  # u: columns, v: rows
    return shape.contains(u, v)


def shape_field(shape: Shape, side: int) -> ScoreField:
    """Ground-truth logits: +1 inside the shape, -1 outside."""
    return ScoreField(np.where(shape_mask(shape, side), 1.0, -1.0))


def _disk(i: int) -> Shape:
    return Shape(
        "disk",
        cx=0.5 + 0.08 * math.sin(2.1 * i),
        cy=0.5 + 0.08 * math.cos(1.3 * i),
        a=0.12 + 0.027 * i,
    )


def _rect(i: int) -> Shape:
    return Shape(
        "rect",
        cx=0.5 + 0.06 * math.sin(1.7 * i + 0.4),
        cy=0.5 + 0.06 * math.cos(0.9 * i + 1.1),
        a=0.10 + 0.025 * i,
        b=0.30 - 0.02 * i,
    )


def _annulus(i: int) -> Shape:
    outer = 0.16 + 0.022 * i
    return Shape(
        "annulus",
        cx=0.5 + 0.05 * math.sin(1.1 * i + 2.0),
        cy=0.5 + 0.05 * math.cos(1.9 * i + 0.7),
        a=outer,
        b=outer * (0.45 + 0.02 * i),
    )


_MAKERS = {"disk": _disk, "rect": _rect, "annulus": _annulus}


def default_corpus() -> list[Shape]:
    """The standard 30-shape benchmark: 10 disks, 10 rectangles, 10 annuli."""
    return parse_corpus_spec("default")


def _part_shapes(kind: str, count: str) -> list[Shape]:
    """The first ``count`` shapes of ``kind``'s family."""
    if kind not in _MAKERS:
        raise ValueError(f"unknown shape kind {kind!r}")
    try:
        n = int(count)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    shapes = []
    for i in range(n):
        try:
            shapes.append(_MAKERS[kind](i))
        except ValueError as exc:
            raise ValueError(f"shape {i}: {exc}") from None
    return shapes


def parse_corpus_spec(spec: str) -> list[Shape]:
    """Build a corpus from a spec like ``"disk:10,rect:5"`` (or ``"default"``).

    Each part is a known kind and a positive count, and every shape it makes
    must be valid; a bad part is named in the error.
    """
    if spec == "default":
        spec = "disk:10,rect:10,annulus:10"
    shapes: list[Shape] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        kind, _, count = part.partition(":")
        try:
            shapes.extend(_part_shapes(kind, count))
        except ValueError as exc:
            raise ValueError(f"corpus spec part {part!r}: {exc}") from None
    if not shapes:
        raise ValueError("corpus spec produced no shapes")
    return shapes
