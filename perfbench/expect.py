"""Expected answers for the benchmark's operations, derived without the
route being timed.

Every complex the benchmark builds carries a *stable type*: a signed
multiset of atoms, where tensor adds, dual negates, and a complex tensored
with its own dual cancels (C ⊗ C* is stably trivial), as does a stabilizer
summand.  Staircase atoms ``T<g>`` (the (2, 2g+1) torus knot) have closed
forms; other atoms are opaque and only appear where they cancel or where a
check takes its answer from another route.

Facts used, each a theorem about knot-like complexes:

* staircase: tau = g, V_k = ceil((g - k) / 2) for 0 <= k <= g, and
  Upsilon(t) = -g·t on [0, 1], mirrored on [1, 2];
* tau and Upsilon are additive under ⊗;
* V of a tensor product of staircases is the infimal convolution of the
  factors' V (extended by V_{-k} = V_k + k);
* nu+ = min{k >= 0 : V_k = 0}; nu+ vanishes on a tensor product of mirrored
  staircases (subadditivity) and is at least tau > 0 on a nonempty product of
  positive ones;
* compare(C, D) only depends on the stable types of C ⊗ D* and C* ⊗ D.

The GF(2) helpers at the end rebuild slices from the raw generator data, so
the hom_generators check shares no code with fkc.gf2.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterable, Optional


class Undetermined(ValueError):
    """The closed forms do not decide this quantity for this stable type."""


class StableType:
    """Signed multiset of atoms; equal types mean stably equivalent complexes."""

    def __init__(self, atoms: Optional[dict] = None):
        self.atoms = {a: m for a, m in (atoms or {}).items() if m}

    @staticmethod
    def staircase(g: int, mirror: bool = False) -> "StableType":
        return StableType({f"T{g}": -1 if mirror else 1})

    @staticmethod
    def atom(name: str) -> "StableType":
        return StableType({name: 1})

    @staticmethod
    def trivial() -> "StableType":
        return StableType()

    def __add__(self, other: "StableType") -> "StableType":
        out = Counter(self.atoms)
        out.update(other.atoms)
        return StableType(dict(out))

    def __neg__(self) -> "StableType":
        return StableType({a: -m for a, m in self.atoms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, StableType) and self.atoms == other.atoms

    def staircase_genera(self) -> list[int]:
        """Signed genera of the staircase factors; raises on opaque atoms."""
        out = []
        for a, m in self.atoms.items():
            if not a.startswith("T"):
                raise Undetermined(f"opaque atom {a}")
            out += [int(a[1:]) if m > 0 else -int(a[1:])] * abs(m)
        return out


def _staircase_v(g: int, k: int) -> int:
    if k < 0:
        return _staircase_v(g, -k) - k
    return max(0, -((k - g) // 2))


def v_k(t: StableType, k: int) -> int:
    gs = t.staircase_genera()
    if any(g < 0 for g in gs):
        if any(g > 0 for g in gs):
            raise Undetermined("mixed signs")
        return 0
    total = sum(gs)
    vals = {j: max(0, -j) for j in range(-total - k - 1, total + k + 2)}  # unknot
    for g in gs:
        vals = {
            j: min(_staircase_v(g, a) + vals.get(j - a, 10**9) for a in range(-total - k - 1, total + k + 2))
            for j in vals
        }
    return vals[k]


def nu_plus(t: StableType) -> int:
    k = 0
    while v_k(t, k):
        k += 1
    return k


def nu_plus_is_zero(t: StableType) -> bool:
    gs = t.staircase_genera()
    if all(g < 0 for g in gs):
        return True
    if all(g > 0 for g in gs):
        return False
    raise Undetermined("mixed signs")


def tau(t: StableType) -> int:
    return sum(t.staircase_genera())


def upsilon_at(t: StableType, x: Fraction) -> Fraction:
    return -tau(t) * min(Fraction(x), 2 - Fraction(x))


def upsilon_breakpoints(t: StableType) -> tuple:
    """Canonical PL breakpoints of Upsilon as (t, value) Fractions."""
    s = tau(t)
    if s == 0:
        return ((Fraction(0), Fraction(0)), (Fraction(2), Fraction(0)))
    return ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(-s)), (Fraction(2), Fraction(0)))


def compare(a: StableType, b: StableType) -> str:
    x = nu_plus_is_zero(a + (-b))
    y = nu_plus_is_zero((-a) + b)
    if x and y:
        return "equal"
    if x:
        return "less"
    if y:
        return "greater"
    return "incomparable"


def d_surgery_delta(t: StableType, p: int, q: int, i: int) -> int:
    return -2 * max(v_k(t, i // q), v_k(t, (p + q - 1 - i) // q))


def cn_tower(n: int) -> list[list[tuple[int, int]]]:
    """Region sets of the c_n tower as single-corner lists: G0 .. Gn."""
    levels = [[(k, k + 1), (k + 1, k)] for k in range(n)]
    return levels + [[(n, n)]]


# ---------------------------------------------------------------------------
# Independent GF(2) on raw generator data


def slice_images(c, n: int) -> list[int]:
    """Boundary of each grading-n basis element as a bitmask in grading n-1."""
    src = [(k, (g.gr - n) // 2) for k, g in enumerate(c.gens) if (g.gr - n) % 2 == 0]
    dst = {
        (k, (g.gr - n + 1) // 2): i
        for i, (k, g) in enumerate((k, g) for k, g in enumerate(c.gens) if (g.gr - n + 1) % 2 == 0)
    }
    images = []
    for k, l in src:
        bits = 0
        for t in range(len(c.gens)):
            if (c.d_cols[k] >> t) & 1:
                m = (c.gens[t].gr - c.gens[k].gr + 1) // 2
                bits ^= 1 << dst[(t, l + m)]
        images.append(bits)
    return images


def apply(images: list[int], bits: int) -> int:
    out, i = 0, 0
    while bits:
        if bits & 1:
            out ^= images[i]
        bits >>= 1
        i += 1
    return out


class Reducer:
    """Pivot table over GF(2) ints (highest bit pivots)."""

    def __init__(self, vectors: Iterable[int] = ()):
        self.pivots: dict[int, int] = {}
        for v in vectors:
            self.add(v)

    def reduce(self, v: int) -> int:
        while v:
            top = v.bit_length() - 1
            row = self.pivots.get(top)
            if row is None:
                return v
            v ^= row
        return 0

    def add(self, v: int) -> bool:
        v = self.reduce(v)
        if v:
            self.pivots[v.bit_length() - 1] = v
        return bool(v)


def hom_generators_ok(c, vectors: Iterable[int], complete: bool = True) -> bool:
    """Distinct grading-0 cycles, none a boundary; all 2^dim(im d_1) of
    them if `complete`."""
    d0 = slice_images(c, 0)
    boundaries = Reducer(slice_images(c, 1))
    vs = list(vectors)
    if len(set(vs)) != len(vs) or (complete and len(vs) != 1 << len(boundaries.pivots)):
        return False
    return all(apply(d0, v) == 0 and boundaries.reduce(v) != 0 for v in vs)
