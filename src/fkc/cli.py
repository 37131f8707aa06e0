"""Command-line front end for .fkc files.

Exit codes: 0 success, 1 validation failure, 2 usage or parse error,
3 enumeration limit exceeded.  Errors go to stderr as `fkc: error: ...`.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from pathlib import Path

from . import complexes, invariants
from .complexes import FkcParseError, FormalComplex
from .gf2 import EnumerationLimitError
from .region import render_region_set


class UsageError(ValueError):
    pass


class ValidationFailure(RuntimeError):
    def __init__(self, path: str, failed: tuple[str, ...]):
        super().__init__(f"{path} failed validation: {', '.join(failed)}")


def _err(message: str) -> None:
    print(f"fkc: error: {message}", file=sys.stderr)


def _load(path: str) -> FormalComplex:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {path}: not UTF-8 text") from exc
    try:
        return complexes.parse(text)
    except FkcParseError as exc:
        raise FkcParseError(exc.line, f"{path}: {exc.args[0].split(': ', 1)[-1]}") from exc


def _load_validated(path: str, force: bool = False) -> FormalComplex:
    """Load and validate; `force` skips only the homological checks."""
    c = _load(path)
    report = complexes.validate(c)
    if not (report.structural_ok if force else report.ok):
        raise ValidationFailure(path, report.failed())
    return c


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return value


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r}") from exc


def _write_output(c: FormalComplex, out: str) -> None:
    try:
        Path(out).write_text(complexes.serialize(c))
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _cmd_validate(args) -> int:
    c = _load(args.file)
    report = complexes.validate(c)
    for check in report.checks:
        if check.passed:
            print(f"{check.name}: ok")
        elif check.detail:
            print(f"{check.name}: FAIL ({check.detail})")
        else:
            print(f"{check.name}: FAIL")
    return 0 if report.ok else 1


def _cmd_invariants(args) -> int:
    c = _load_validated(args.file, force=args.force)
    try:
        np = invariants.nu_plus(c)
        print(f"nu_plus = {np}")
        print(f"nu_plus_dual = {invariants.nu_plus(complexes.dual(c))}")
        print(f"tau = {invariants.tau(c)}")
        print(f"genus = {complexes.genus(c)}")
        vk_max = args.vk_max if args.vk_max is not None else np
        for k in range(vk_max + 1):
            print(f"V_{k} = {invariants.v_k(c, k)}")
    except ValueError as exc:
        # only a --force run gets here: the complex breaks an axiom the
        # invariants rely on
        _err(str(exc))
        return 1
    return 0


def _cmd_upsilon(args) -> int:
    c = _load_validated(args.file)
    fn = invariants.upsilon(c, cap=args.max_enum)
    print(f"upsilon = {fn.render()}")
    return 0


def _cmd_upsilon2(args) -> int:
    c = _load_validated(args.file)
    t = _parse_rational(args.t)
    s = _parse_rational(args.s)
    if not 0 < t < 2:
        raise UsageError("--t must lie strictly between 0 and 2")
    if not 0 <= s <= 2:
        raise UsageError("--s must lie in [0, 2]")
    value = invariants.upsilon2(c, t, s, cap=args.max_enum)
    print(f"upsilon2 = {'inf' if value == invariants.INFINITY else value}")
    return 0


def _cmd_g0(args) -> int:
    c = _load_validated(args.file)
    regions = invariants.g0(c, cap=args.max_enum)
    print(f"G0 = {render_region_set(regions)}")
    return 0


def _cmd_gtower(args) -> int:
    c = _load_validated(args.file)
    tower = invariants.g_tower(c, args.depth, cap=args.max_enum)
    for k, level in enumerate(tower.levels):
        print(f"G{k} = {render_region_set(level.regions)}")
    print(f"stop = {tower.stop_reason}")
    return 0


def _cmd_compare(args) -> int:
    a = _load_validated(args.a)
    b = _load_validated(args.b)
    print(invariants.compare(a, b))
    return 0


def _cmd_tensor(args) -> int:
    a = _load_validated(args.a)
    b = _load_validated(args.b)
    _write_output(complexes.tensor(a, b), args.output)
    return 0


def _cmd_dual(args) -> int:
    a = _load_validated(args.a)
    _write_output(complexes.dual(a), args.output)
    return 0


def _cmd_sum(args) -> int:
    a = _load(args.a)
    b = _load(args.b)
    _write_output(complexes.direct_sum(a, b), args.output)
    return 0


def _cmd_reverse(args) -> int:
    a = _load(args.a)
    _write_output(complexes.reverse(a), args.output)
    return 0


def _cmd_dsurgery(args) -> int:
    c = _load_validated(args.file)
    try:
        delta = invariants.d_surgery_delta(c, args.p, args.q, args.i)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(f"d_delta = {delta}")
    return 0


def _cmd_stabilizer_check(args) -> int:
    c = _load(args.file)
    try:
        flag = complexes.is_stabilizer(c)
    except ValueError as exc:
        raise ValidationFailure(args.file, (str(exc),)) from exc
    print(f"stabilizer = {'true' if flag else 'false'}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="fkc",
        description="Formal knot complexes: validation, invariants and constructions.",
    )
    # only the commands that enumerate cosets take the cap
    enum_cap = argparse.ArgumentParser(add_help=False)
    enum_cap.add_argument(
        "--max-enum",
        type=_nonnegative_int,
        default=invariants.DEFAULT_ENUM_CAP,
        metavar="N",
        help="cap on coset enumerations (default %(default)s)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run the axiom checks")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("invariants", help="nu+, tau, genus, V_k")
    p.add_argument("file")
    p.add_argument("--vk-max", type=_nonnegative_int, default=None, metavar="K")
    p.add_argument("--force", action="store_true",
                   help="compute even if the homological checks fail")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("upsilon", parents=[enum_cap], help="exact PL Upsilon breakpoints")
    p.add_argument("file")
    p.set_defaults(func=_cmd_upsilon)

    p = sub.add_parser("upsilon2", parents=[enum_cap], help="secondary Upsilon at (t, s)")
    p.add_argument("file")
    p.add_argument("--t", required=True)
    p.add_argument("--s", required=True)
    p.set_defaults(func=_cmd_upsilon2)

    p = sub.add_parser("g0", parents=[enum_cap], help="minimal generator regions")
    p.add_argument("file")
    p.set_defaults(func=_cmd_g0)

    p = sub.add_parser("gtower", parents=[enum_cap], help="the region tower")
    p.add_argument("file")
    p.add_argument("--depth", type=_nonnegative_int, required=True)
    p.set_defaults(func=_cmd_gtower)

    p = sub.add_parser("compare", help="order of two complexes")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("tensor", help="tensor product to -o")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("dual", help="dual complex to -o")
    p.add_argument("a")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("sum", help="direct sum to -o")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_sum)

    p = sub.add_parser("reverse", help="swap the two filtrations")
    p.add_argument("a")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_reverse)

    p = sub.add_parser("dsurgery", help="surgery correction-term difference")
    p.add_argument("file")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.add_argument("-i", type=int, required=True)
    p.set_defaults(func=_cmd_dsurgery)

    p = sub.add_parser("stabilizer-check", help="acyclicity test")
    p.add_argument("file")
    p.set_defaults(func=_cmd_stabilizer_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ValidationFailure as exc:
        _err(str(exc))
        return 1
    except (UsageError, FkcParseError) as exc:
        _err(str(exc))
        return 2
    except EnumerationLimitError as exc:
        _err(str(exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
