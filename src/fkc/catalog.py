"""Builders for the stock complexes, mirrored byte-for-byte in data/*.fkc."""

from __future__ import annotations

from dataclasses import replace
from importlib import resources
from pathlib import Path

from .complexes import FormalComplex, Generator, dual, parse
from .region import Point

FILE_NAMES = (
    "unknot",
    "t2_3",
    "t2_5",
    "t2_3_mirror",
    "c2",
    "c3",
    "c4",
    "fig8",
    "square",
)


def unknot() -> FormalComplex:
    """One generator in grading 0 at the origin, zero boundary."""
    return FormalComplex("unknot", (Generator("e", 0, 0, 0),), (0,))


def torus_staircase(g: int, mirror: bool) -> FormalComplex:
    """Staircase complex of the (2, 2g+1) torus knot or its mirror.

    The mirror staircase has generators a_0..a_g in grading 0 on the
    antidiagonal i + j = -g and b_0..b_{g-1} in grading -1 just below it,
    with da_k = b_{k-1} + b_k.  The non-mirror complex is its dual.
    """
    if g < 1:
        raise ValueError("the staircase needs g >= 1")
    gens = []
    for k in range(g + 1):
        gens.append(Generator(f"a{k}", 0, -g + k, -k))
    for l in range(g):
        gens.append(Generator(f"b{l}", -1, -g + l, -l - 1))
    cols = [0] * (2 * g + 1)
    for k in range(g + 1):
        col = 0
        if k - 1 >= 0:
            col |= 1 << (g + 1 + k - 1)
        if k <= g - 1:
            col |= 1 << (g + 1 + k)
        cols[k] = col
    mirror_cx = FormalComplex(f"t2_{2 * g + 1}_mirror", tuple(gens), tuple(cols))
    if mirror:
        return mirror_cx
    return replace(dual(mirror_cx), name=f"t2_{2 * g + 1}")


def cn(n: int) -> FormalComplex:
    """The genus-one family: x_k at (k, k+1), x'_k at (k+1, k), y at (n, n).

    dx_k = dx'_k = x_{k-1} + x'_{k-1} and dy = x_{n-1} + x'_{n-1}.
    """
    if n < 1:
        raise ValueError("the family needs n >= 1")
    gens = []
    for k in range(n):
        gens.append(Generator(f"x{k}", k, k, k + 1))
        gens.append(Generator(f"x'{k}", k, k + 1, k))
    gens.append(Generator("y", n, n, n))
    cols = [0] * (2 * n + 1)
    for k in range(1, n):
        prev = (1 << (2 * (k - 1))) | (1 << (2 * (k - 1) + 1))
        cols[2 * k] = prev
        cols[2 * k + 1] = prev
    cols[2 * n] = (1 << (2 * (n - 1))) | (1 << (2 * (n - 1) + 1))
    return FormalComplex(f"c{n}", tuple(gens), tuple(cols))


def square_stabilizer(shift: Point = Point(0, 0)) -> FormalComplex:
    """The four-generator box, translated by the given filtration offsets.

    Gradings shift by shift.i + shift.j, so a diagonal translation by
    (a, a) is multiplication by U^{-a}; any offsets keep the boundary
    grading-legal.
    """
    a, b = shift.i, shift.j
    d = a + b
    gens = (
        Generator("s11", 1 + d, 1 + a, 1 + b),
        Generator("s01", 0 + d, 0 + a, 1 + b),
        Generator("s10", 0 + d, 1 + a, 0 + b),
        Generator("s00", -1 + d, 0 + a, 0 + b),
    )
    cols = (0b0110, 0b1000, 0b1000, 0)
    name = "square" if (a, b) == (0, 0) else f"square_{a}_{b}"
    return FormalComplex(name, gens, cols)


def figure_eight_model() -> FormalComplex:
    """Genus-one, tau-zero model: a free dot plus one box summand."""
    gens = (
        Generator("e", 0, 0, 0),
        Generator("s11", 1, 1, 1),
        Generator("s01", 0, 0, 1),
        Generator("s10", 0, 1, 0),
        Generator("s00", -1, 0, 0),
    )
    cols = (0, 0b01100, 0b10000, 0b10000, 0)
    return FormalComplex("fig8", gens, cols)


def builders() -> dict[str, FormalComplex]:
    """All shipped complexes by file stem."""
    return {
        "unknot": unknot(),
        "t2_3": torus_staircase(1, mirror=False),
        "t2_5": torus_staircase(2, mirror=False),
        "t2_3_mirror": torus_staircase(1, mirror=True),
        "c2": cn(2),
        "c3": cn(3),
        "c4": cn(4),
        "fig8": figure_eight_model(),
        "square": square_stabilizer(),
    }


def data_path(name: str) -> Path:
    """Filesystem path of a shipped .fkc file (stem without extension)."""
    with resources.as_file(resources.files("fkc").joinpath(f"data/{name}.fkc")) as p:
        return Path(p)


def load(name: str) -> FormalComplex:
    return parse(data_path(name).read_text(encoding="utf-8-sig"))
