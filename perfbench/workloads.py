"""The benchmark's two workloads: the command line and the library.

* ``cli``: the user's path.  One client in a closed loop runs one
  ``python -m fkc.cli`` subprocess at a time on `.fkc` files written in
  set-up.  Every command but sum/reverse validates first, so validation
  dominates; this is the only workload where start-up, parse and serialize
  show.
* ``library``: in-process calls, one client in a closed loop, on both
  computation routes.  The rank-probe half (nu+, tau, V_k, Upsilon(t),
  surgery deltas, compare) runs on a ladder of tensor products up to 405
  generators; the coset-enumeration half (G0, Upsilon, the G_n tower,
  homological generators, realizers, Upsilon^2) runs with k = dim im d_1 up
  to 16, on staircases, where minimalize dominates, and on products and c_n
  towers with few regions, where enumeration and g_next dominate.  Neither
  half validates.

The set of complexes and operations is fixed, so the cost classes are
fixed; a seed only fixes the order of operations and query parameters
(rationals t and s, surgery coefficients, tower depth, --vk-max).  Each
mix is sized so that p50 and p90 fall inside a cost class, not between two
(see the comments on each mix).
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

import expect as E
from expect import StableType as ST

from fkc import catalog, complexes, invariants, region
from fkc.region import Point

VALIDATE_CHECKS = ("parity", "filtered-boundary", "d-squared", "odd-rank", "global-homology",
                   "symmetry", "alexander-filtration", "algebraic-filtration")


@dataclass
class Op:
    label: str
    inputs: tuple[str, ...]            # complex names, for the size labels
    check: Callable[[Any], bool]       # True iff the answer is right
    call: Optional[Callable[[dict], Any]] = None   # in-process: fresh complexes -> answer
    argv: tuple[str, ...] = ()         # cli: arguments after `python -m fkc.cli`


@dataclass
class Input:
    cx: complexes.FormalComplex
    kind: ST
    path: Optional[Path] = None


def _staircase(g: int, mirror: bool = False) -> Input:
    return Input(catalog.torus_staircase(g, mirror), ST.staircase(g, mirror))


def _tensor(*parts: Input) -> Input:
    out = parts[0]
    for p in parts[1:]:
        out = Input(complexes.tensor(out.cx, p.cx), out.kind + p.kind)
    return out


def _dual(a: Input) -> Input:
    return Input(complexes.dual(a.cx), -a.kind)


def _atoms() -> dict[str, Input]:
    b = catalog.builders()
    kinds = {"unknot": ST.trivial(), "t2_3": ST.staircase(1), "t2_5": ST.staircase(2),
             "t2_3_mirror": ST.staircase(1, mirror=True), "c2": ST.atom("c2"),
             "c3": ST.atom("c3"), "c4": ST.atom("c4"),
             "fig8": ST.trivial(),     # a free dot plus one box summand
             "square": ST.trivial()}   # the stabilizer itself; not a knot complex
    return {name: Input(b[name], kinds[name]) for name in catalog.FILE_NAMES}


BAD_FILES = {
    "bad": "gen a 0 0 0\ngen b -1 1 1\nd a : b\n",                 # filtration raised
    "parity": "gen a 0 0 0\ngen b 0 0 0\ngen c 0 0 0\nd a : b\n",  # even grading drop
    "empty": "",
}


def _probe_inputs(atoms: dict[str, Input]) -> dict[str, Input]:
    c4c4 = _tensor(atoms["c4"], _dual(atoms["c4"]))
    t27x2 = _tensor(_staircase(3), _staircase(3))
    ladder = {"t27x2": t27x2, "c4c4d": c4c4,
              "t25t27x2": _tensor(atoms["t2_5"], t27x2),
              "t27x3": _tensor(_staircase(3), t27x2),
              "c4c4dt25": _tensor(c4c4, atoms["t2_5"])}
    out = {k: atoms[k] for k in ("unknot", "t2_3_mirror", "fig8", "t2_5")}
    out.update(ladder)
    out.update({k + "*": _dual(v) for k, v in ladder.items()})
    return out


def _enumeration_inputs(atoms: dict[str, Input]) -> dict[str, Input]:
    out = {f"t2_{2 * g + 1}": _staircase(g) for g in (6, 7, 8, 9, 10)}
    for n in (2, 3):
        out[f"c{n}c{n}d"] = _tensor(atoms[f"c{n}"], _dual(atoms[f"c{n}"]))
    for a, b in ((2, 4), (2, 3), (1, 4), (1, 3)):
        out[f"t2{2 * a + 1}t2{2 * b + 1}"] = _tensor(_staircase(a), _staircase(b))
    out.update({f"c{n}": Input(catalog.cn(n), ST.atom(f"c{n}")) for n in (6, 8, 10, 12, 14, 16)})
    return out


def setup(workload: str, workdir: Path) -> dict[str, Input]:
    """Build the workload's complexes; for cli also write the input files."""
    atoms = _atoms()
    if workload == "library":
        return {**_probe_inputs(atoms), **_enumeration_inputs(atoms)}
    if workload != "cli":
        raise ValueError(f"unknown workload {workload!r}")
    sq = lambda a: Input(catalog.square_stabilizer(Point(a, a)), ST.trivial())
    out = dict(atoms)
    out["t27x2"] = _tensor(_staircase(3), _staircase(3))
    out["t29x2"] = _tensor(_staircase(4), _staircase(4))
    out["c4c4d"] = _tensor(atoms["c4"], _dual(atoms["c4"]))
    out["t25x3"] = _tensor(atoms["t2_5"], atoms["t2_5"], atoms["t2_5"])
    out["t211m"] = _tensor(_staircase(5), _staircase(5, mirror=True))   # wide box
    for a in (40, 80):   # validation is O(box^2)
        s = sq(a)
        out[f"t25sq{a}"] = Input(complexes.direct_sum(atoms["t2_5"].cx, s.cx), atoms["t2_5"].kind)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for name, inp in out.items():
        inp.path = workdir / f"{name}.fkc"
        inp.path.write_text(complexes.serialize(inp.cx))
    for name, text in BAD_FILES.items():
        out[name] = Input(None, ST.trivial(), workdir / f"{name}.fkc")
        out[name].path.write_text(text)
    return out


def fresh(inputs: dict[str, Input]) -> dict[str, complexes.FormalComplex]:
    """New complex objects for one round, so no round reuses another's caches."""
    ctx = {}
    for name, inp in inputs.items():
        c = inp.cx
        ctx[name] = complexes.FormalComplex(c.name, c.gens, c.d_cols)
        ctx[name].boundary_matrix(0)
        ctx[name].boundary_matrix(1)
    return ctx


def _rational(rng: random.Random, exclude_one: bool) -> Fraction:
    """A rational in (0, 2) with denominator 7..13; t = 1 is the staircase breakpoint."""
    b = rng.choice((7, 9, 11, 13))
    choices = [a for a in range(1, 2 * b) if not (exclude_one and a == b)]
    return Fraction(rng.choice(choices), b)


def _surgery(rng: random.Random) -> tuple[int, int, int]:
    q = rng.choice((1, 2, 3))
    p = rng.choice([p for p in range(1, 13) if Fraction(p, q).denominator == q])
    return p, q, rng.randrange(p)


def operations(workload: str, inputs: dict[str, Input], rng: random.Random) -> list[Op]:
    if workload == "cli":
        return _cli_ops(inputs, rng)
    return _probe_ops(inputs, rng) + _enumeration_ops(inputs, rng)


# ---------------------------------------------------------------------------
# library: 212 in-process calls, the 105 rank-probe queries below plus the 107
# enumeration queries after them.  Costs on a 2-core x86 host: more than half
# run under 10 ms, so p50 (between the 106th and 107th) sits in a dense run
# near 6 ms.  p90 (between the 191st and 192nd, 21 calls beyond it) sits in a
# cluster of 7 calls at 70-100 ms whose cost no seeded parameter changes
# (realizers of t2_17 and t2_5 ⊗ t2_9, homological generators and G0 of
# t2_5 ⊗ t2_9, compare(t2_5 ⊗ t2_7^2, t2_3 mirror), two c12 towers),
# above 8 calls at 45-65 ms (Upsilon(t) and compare on the 405-generator
# entry, G0/Upsilon of t2_17).  Above it: more compare on the 245..405-
# generator entries (150-720 ms), upsilon2 on t2_5 ⊗ t2_7, G0/Upsilon/
# realizers of t2_19, the c14 and c16 towers, upsilon2(c3 ⊗ c3*), g0(t2_21).


def _probe_ops(inputs: dict[str, Input], rng: random.Random) -> list[Op]:
    inv = invariants
    ops = []

    def add(label, names, call, expected):
        ops.append(Op(label, names, lambda r, e=expected: r == e, call))

    for name in ("t27x2", "c4c4d", "t25t27x2", "t27x3", "c4c4dt25"):
        kind = inputs[name].kind
        add(f"nu_plus {name}", (name,), lambda x, n=name: inv.nu_plus(x[n]), E.nu_plus(kind))
        add(f"nu_plus {name}*", (name + "*",), lambda x, n=name + "*": inv.nu_plus(x[n]), E.nu_plus(-kind))
        add(f"tau {name}", (name,), lambda x, n=name: inv.tau(x[n]), E.tau(kind))
        add(f"tau {name}*", (name + "*",), lambda x, n=name + "*": inv.tau(x[n]), E.tau(-kind))
        for k in range(complexes.genus(inputs[name].cx) + 1):
            add(f"v_k {name} {k}", (name,), lambda x, n=name, k=k: inv.v_k(x[n], k), E.v_k(kind, k))
        for _ in range(5):
            t = _rational(rng, exclude_one=False)
            add(f"upsilon_at {name} {t}", (name,), lambda x, n=name, t=t: inv.upsilon_at(x[n], t),
                E.upsilon_at(kind, t))
        for _ in range(2):
            p, q, i = _surgery(rng)
            add(f"d_surgery_delta {name} {p}/{q} {i}", (name,),
                lambda x, n=name, a=(p, q, i): inv.d_surgery_delta(x[n], *a),
                E.d_surgery_delta(kind, p, q, i))
        for atom in ("unknot", "t2_3_mirror", "fig8"):
            add(f"compare {name} {atom}", (name, atom),
                lambda x, n=name, a=atom: inv.compare(x[n], x[a]),
                E.compare(kind, inputs[atom].kind))
    add("compare c4c4dt25 t2_5", ("c4c4dt25", "t2_5"),
        lambda x: inv.compare(x["c4c4dt25"], x["t2_5"]), "equal")
    return ops


def _g0_check(c: complexes.FormalComplex) -> Callable[[Any], bool]:
    """The *_from_g0 formulas must agree with the rank-probe route."""
    memo = {}

    def check(regions) -> bool:
        if "probe" not in memo:
            g = complexes.genus(c)
            memo["probe"] = (invariants.nu_plus(c), invariants.tau(c),
                             [invariants.v_k(c, k) for k in range(g + 1)])
        nu, ta, vs = memo["probe"]
        return (invariants.nu_plus_from_g0(regions) == nu
                and invariants.tau_from_g0(regions) == ta
                and [invariants.v_k_from_g0(regions, k) for k in range(len(vs))] == vs)

    return check


def _hom_check(c: complexes.FormalComplex) -> Callable[[Any], bool]:
    verified = []

    def check(gens) -> bool:
        bits = sorted(h.vector.bits for h in gens)
        if verified:
            return bits == verified[0]
        if not E.hom_generators_ok(c, bits):
            return False
        verified.append(bits)
        return True

    return check


def _tower_check(n: int) -> Callable[[Any], bool]:
    want = [[region.quadrant(i, j) for i, j in level] for level in E.cn_tower(n)]
    return lambda tower: (
        [list(level) for level in tower.region_sets()] == want and tower.stop_reason == "singleton"
    )


def _realizers_check(c: complexes.FormalComplex) -> Callable[[Any], bool]:
    g0_ok = _g0_check(c)
    return lambda by_region: g0_ok(tuple(by_region)) and E.hom_generators_ok(
        c, [v.bits for vs in by_region.values() for v in vs], complete=False)


def _enumeration_ops(inputs: dict[str, Input], rng: random.Random) -> list[Op]:
    inv = invariants
    ops = []

    def add(fn, name, check):   # looked up at call time, so a traced run sees the wrapper
        ops.append(Op(f"{fn} {name}", (name,), check, lambda x, n=name: getattr(inv, fn)(x[n])))

    small = ("t2_13", "t2_15", "c3c3d", "c2c2d", "t25t27", "t23t29", "t23t27")
    for name in ("t2_13", "t2_15", "t2_17", "t2_19", "t2_21", "c3c3d", "c2c2d", "t25t27",
                 "t23t29", "t23t27", "t25t29"):
        add("hom_generators", name, _hom_check(inputs[name].cx))
    for name in small + ("t2_17", "t25t29", "t2_19", "t2_21"):
        add("g0", name, _g0_check(inputs[name].cx))
    for name in small + ("t2_17", "t25t29", "t2_19"):
        want = E.upsilon_breakpoints(inputs[name].kind)
        add("upsilon", name, lambda f, w=want: f.breakpoints == w)
    for name in ("t2_13", "c3c3d", "c2c2d", "t25t27", "t23t29", "t2_17", "t25t29", "t2_19"):
        add("level0_realizers", name, _realizers_check(inputs[name].cx))
    for n in (6, 6, 8, 8, 8, 10, 10, 10, 12, 12, 14, 16):
        depth = n + 1 + rng.randrange(3)
        ops.append(Op(f"g_tower c{n} {depth}", (f"c{n}",), _tower_check(n),
                      lambda x, n=n, d=depth: inv.g_tower(x[f"c{n}"], d)))
    # Away from t = 1 a staircase product has one Upsilon-minimizing
    # generator, and c_n ⊗ c_n* is stably the unknot: both give infinity.
    for name, count in (("t2_13", 4), ("t2_15", 6), ("t2_17", 12), ("t2_19", 12),
                        ("t23t27", 6), ("t23t29", 8), ("c2c2d", 4), ("t25t27", 2), ("c3c3d", 1)):
        for _ in range(count):
            t, s = _rational(rng, exclude_one=True), _rational(rng, exclude_one=False)
            ops.append(Op(f"upsilon2 {name} {t} {s}", (name,), lambda v: v == inv.INFINITY,
                          lambda x, n=name, t=t, s=s: inv.upsilon2(x[n], t, s)))
    return ops


# ---------------------------------------------------------------------------
# cli: 105 commands.  Costs on a 2-core x86 host, sorted: 85 commands on the
# catalog atoms at 80-125 ms (start-up bound; p50 is the 53rd), 14 on t2_7^2
# at ~0.2 s (ranks 86-99) holding p90 (between the 95th and 96th), then
# validation of t2_5 ⊕ square@(40,40) ~0.33 s, c4 ⊗ c4* ~0.44 s, t2_9^2
# ~0.55 s, square@(80,80) ~0.85 s, t2_11 ⊗ t2_11 mirror ~1.5 s, and
# invariants of t2_5^3 ~0.62 s.


def _validate_text(report) -> str:
    lines = []
    for ch in report.checks:
        if ch.passed:
            lines.append(f"{ch.name}: ok")
        else:
            lines.append(f"{ch.name}: FAIL" + (f" ({ch.detail})" if ch.detail else ""))
    return "".join(line + "\n" for line in lines)


def _cli_ops(inputs: dict[str, Input], rng: random.Random) -> list[Op]:
    inv = invariants
    ops = []

    def path(name):
        return str(inputs[name].path)

    def expect_out(rc: int, text: Callable[[], str]) -> Callable[[Any], bool]:
        memo = []

        def check(res) -> bool:
            code, out, err = res
            if code != rc or "Traceback" in err:
                return False
            if not memo:
                memo.append(text())
            return out == memo[0]

        return check

    def expect_exit(rc: int, stream: int, needle: str) -> Callable[[Any], bool]:
        return lambda res: res[0] == rc and "Traceback" not in res[2] and needle in res[stream]

    def add(label, names, argv, check):
        ops.append(Op(label, names, check, argv=tuple(argv)))

    def read(argv, names, rc, text):
        add(" ".join([argv[0]] + list(names) + list(argv[1:])), names,
            [argv[0]] + [path(n) for n in names] + list(argv[1:]), expect_out(rc, text))

    def write(cmd, names, build):
        out = inputs[names[0]].path.parent / f"out-{cmd}-{'-'.join(names)}.fkc"

        def check(res) -> bool:
            code, stdout, err = res
            return (code == 0 and stdout == "" and "Traceback" not in err
                    and complexes.parse(out.read_text()) == build(*(inputs[n].cx for n in names)))

        add(f"{cmd} {' '.join(names)} -o", names,
            [cmd] + [path(n) for n in names] + ["-o", str(out)], check)

    all_ok = "".join(f"{n}: ok\n" for n in VALIDATE_CHECKS)

    def validate(name):
        if name == "square":
            read(["validate"], (name,), 1, lambda: _validate_text(complexes.validate(inputs[name].cx)))
        else:
            read(["validate"], (name,), 0, lambda: all_ok)

    def invariants_text(name, vk_max=None):
        c, kind = inputs[name].cx, inputs[name].kind
        try:
            nu, nud, ta = E.nu_plus(kind), E.nu_plus(-kind), E.tau(kind)
            vk = lambda k: E.v_k(kind, k)
        except E.Undetermined:   # opaque atom: the G0 formulas are the independent route
            regions = inv.g0(c)
            nu, nud = inv.nu_plus_from_g0(regions), inv.nu_plus_dual_from_g0(regions)
            ta = inv.tau_from_g0(regions)
            vk = lambda k: inv.v_k_from_g0(regions, k)
        lines = [f"nu_plus = {nu}", f"nu_plus_dual = {nud}", f"tau = {ta}",
                 f"genus = {complexes.genus(c)}"]
        lines += [f"V_{k} = {vk(k)}" for k in range((nu if vk_max is None else vk_max) + 1)]
        return "".join(line + "\n" for line in lines)

    def invariants_op(name, vk_max=None):
        extra = [] if vk_max is None else ["--vk-max", str(vk_max)]
        read(["invariants"] + extra, (name,), 0, lambda: invariants_text(name, vk_max))

    def upsilon_text(name):
        try:
            bps = E.upsilon_breakpoints(inputs[name].kind)
            body = " ".join(f"({t},{v})" for t, v in bps)
        except E.Undetermined:
            body = inv.upsilon(inputs[name].cx).render()
        return f"upsilon = {body}\n"

    def g0_text(name):
        c = inputs[name].cx
        regions = inv.g0(c)
        if not _g0_check(c)(regions):
            return "G0 disagrees with the rank-probe route\n"
        return f"G0 = {region.render_region_set(regions)}\n"

    def gtower_op(n):
        depth = n + 1 + rng.randrange(3)
        levels = E.cn_tower(n)
        text = "".join(f"G{k} = {{ " + ", ".join(f"{{({i},{j})}}" for i, j in lv) + " }\n"
                       for k, lv in enumerate(levels)) + "stop = singleton\n"
        read(["gtower", "--depth", str(depth)], (f"c{n}",), 0, lambda: text)

    def compare_op(a, b):
        want = E.compare(inputs[a].kind, inputs[b].kind)
        read(["compare"], (a, b), 0, lambda: want + "\n")

    def dsurgery_op(name):
        p, q, i = _surgery(rng)
        read(["dsurgery", "-p", str(p), "-q", str(q), "-i", str(i)], (name,), 0,
             lambda: f"d_delta = {E.d_surgery_delta(inputs[name].kind, p, q, i)}\n")

    def limit_op(cmd, name, *extra):
        add(f"{cmd} {name} --max-enum 16", (name,), [cmd, path(name), *extra, "--max-enum", "16"],
            expect_exit(3, 2, "enumeration requires"))

    atoms = ("unknot", "t2_3", "t2_5", "t2_3_mirror", "c2", "c3", "c4", "fig8")
    # -- 85 commands on atoms --
    for name in atoms + ("square",):
        validate(name)
        read(["stabilizer-check"], (name,), 0,
             lambda n=name: f"stabilizer = {'true' if n == 'square' else 'false'}\n")
    for name in atoms:
        invariants_op(name)
        read(["upsilon"], (name,), 0, lambda n=name: upsilon_text(n))
        read(["g0"], (name,), 0, lambda n=name: g0_text(n))
    for name in ("t2_3", "t2_5", "c3", "c4"):
        invariants_op(name, vk_max=1 + rng.randrange(3))
    for n in (2, 3, 4, 4):
        gtower_op(n)
    # pairs whose stable types differ by a one-signed sum of staircases, or not at all
    for a, b in (("t2_3", "unknot"), ("unknot", "t2_3"), ("t2_5", "unknot"), ("unknot", "t2_5"),
                 ("t2_3_mirror", "unknot"), ("unknot", "t2_3_mirror"), ("t2_3", "t2_3_mirror"),
                 ("t2_3_mirror", "t2_3"), ("t2_5", "t2_3_mirror"), ("fig8", "unknot"),
                 ("fig8", "t2_3"), ("t2_5", "fig8"), ("t2_5", "t2_5"),
                 ("c2", "c2"), ("c3", "c3"), ("c4", "c4")):
        compare_op(a, b)
    for name in ("t2_3", "t2_3", "t2_5", "t2_5", "t2_5"):
        dsurgery_op(name)
    for cmd, names, build in (
        ("tensor", ("t2_3", "t2_5"), complexes.tensor), ("tensor", ("c2", "fig8"), complexes.tensor),
        ("tensor", ("unknot", "c3"), complexes.tensor), ("dual", ("c3",), complexes.dual),
        ("dual", ("t2_5",), complexes.dual), ("dual", ("fig8",), complexes.dual),
        ("sum", ("t2_5", "square"), complexes.direct_sum), ("sum", ("c2", "unknot"), complexes.direct_sum),
        ("reverse", ("c4",), complexes.reverse), ("reverse", ("t2_3",), complexes.reverse),
    ):
        write(cmd, names, build)
    # robustness probes with their documented outcomes; the last two are
    # known defects (a traceback today), so they fail at baseline
    read(["validate"], ("bad",), 1,
         lambda: _validate_text(complexes.validate(complexes.parse(BAD_FILES["bad"]))))
    add("g0 t2_5 --max-enum 2", ("t2_5",), ["g0", path("t2_5"), "--max-enum", "2"],
        expect_exit(3, 2, "enumeration requires 4 vectors"))
    add("validate empty", (), ["validate", path("empty")], expect_exit(1, 1, "FAIL"))
    add("invariants --force parity", (), ["invariants", "--force", path("parity")],
        expect_exit(1, 2, "fkc: error:"))

    # -- 14 commands on t2_7^2, validation-bound at about twice the start-up --
    validate("t27x2")
    invariants_op("t27x2")
    for low in (1, 4):
        invariants_op("t27x2", vk_max=low + rng.randrange(3))
    write("dual", ("t27x2",), complexes.dual)
    write("tensor", ("t27x2", "unknot"), complexes.tensor)
    for atom in ("unknot", "t2_3_mirror", "fig8"):
        compare_op("t27x2", atom)
    dsurgery_op("t27x2")
    limit_op("g0", "t27x2")
    limit_op("upsilon", "t27x2")
    limit_op("gtower", "t27x2", "--depth", "2")
    limit_op("upsilon2", "t27x2", "--t", "1/3", "--s", "1/2")

    # -- 6 on the wider products and stabilizer sums --
    for name in ("t25sq40", "c4c4d", "t29x2", "t25sq80", "t211m"):
        validate(name)
    invariants_op("t25x3", vk_max=3)
    return ops
