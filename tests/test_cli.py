import argparse
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fkc import catalog, cli
from fkc.cli import main
from fkc.complexes import direct_sum, parse, serialize, tensor
from fkc.region import Point


@pytest.fixture()
def data(tmp_path):
    paths = {}
    for name, c in catalog.builders().items():
        p = tmp_path / f"{name}.fkc"
        p.write_text(serialize(c))
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_trefoil(data, capsys):
    code, out, _ = run(capsys, "invariants", data["t2_3"])
    assert code == 0
    assert out == (
        "nu_plus = 1\n"
        "nu_plus_dual = 0\n"
        "tau = 1\n"
        "genus = 1\n"
        "V_0 = 1\n"
        "V_1 = 0\n"
    )


def test_invariants_vk_max(data, capsys):
    code, out, _ = run(capsys, "invariants", data["unknot"], "--vk-max", "2")
    assert code == 0
    assert out.endswith("V_0 = 0\nV_1 = 0\nV_2 = 0\n")


def test_g0_c2(data, capsys):
    code, out, _ = run(capsys, "g0", data["c2"])
    assert code == 0
    assert out == "G0 = { {(0,1)}, {(1,0)} }\n"


def test_compare_trefoil_c2(data, capsys):
    code, out, _ = run(capsys, "compare", data["t2_3"], data["c2"])
    assert code == 0
    assert out == "less\n"


def test_upsilon_trefoil(data, capsys):
    code, out, _ = run(capsys, "upsilon", data["t2_3"])
    assert code == 0
    assert out == "upsilon = (0,0) (1,-1) (2,0)\n"


def test_upsilon_rational_rendering(data, capsys):
    code, out, _ = run(capsys, "upsilon", data["t2_5"])
    assert code == 0
    assert out == "upsilon = (0,0) (1,-2) (2,0)\n"


def test_upsilon2_trefoil(data, capsys):
    code, out, _ = run(capsys, "upsilon2", data["t2_3"], "--t", "1", "--s", "1")
    assert code == 0
    assert out == "upsilon2 = -1\n"


def test_upsilon2_infinite(data, capsys):
    code, out, _ = run(capsys, "upsilon2", data["t2_3_mirror"], "--t", "1", "--s", "1")
    assert code == 0
    assert out == "upsilon2 = inf\n"


def test_upsilon2_rational_args(data, capsys):
    code, out, _ = run(capsys, "upsilon2", data["t2_3"], "--t", "1/2", "--s", "1/2")
    assert code == 0
    assert out.startswith("upsilon2 = ")


def test_gtower_c3(data, capsys):
    code, out, _ = run(capsys, "gtower", data["c3"], "--depth", "5")
    assert code == 0
    assert out == (
        "G0 = { {(0,1)}, {(1,0)} }\n"
        "G1 = { {(1,2)}, {(2,1)} }\n"
        "G2 = { {(2,3)}, {(3,2)} }\n"
        "G3 = { {(3,3)} }\n"
        "stop = singleton\n"
    )


def test_validate_ok(data, capsys):
    code, out, _ = run(capsys, "validate", data["fig8"])
    assert code == 0
    assert "parity: ok" in out
    assert "FAIL" not in out


def test_validate_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.fkc"
    bad.write_text("gen x 0 0 0\ngen y 1 0 0\nd y : x\n")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "odd-rank: FAIL" in out


def test_invariants_aborts_on_invalid(tmp_path, capsys):
    bad = tmp_path / "bad.fkc"
    bad.write_text("gen x 0 0 0\ngen y 0 0 0\ngen z 0 0 0\n")
    code, _, err = run(capsys, "invariants", str(bad))
    assert code == 1
    assert err.startswith("fkc: error:")


def test_invariants_force_runs_anyway(tmp_path, capsys):
    # fails the homology checks (two unknot dots) but nu+ is still defined
    bad = tmp_path / "two_dots.fkc"
    bad.write_text("gen a 0 0 0\ngen b 0 0 0\ngen c 0 1 1\ngen d 1 1 1\nd d : c\n")
    code, out, _ = run(capsys, "invariants", str(bad), "--force")
    assert code == 0
    assert "nu_plus = 0" in out


def test_invariants_force_still_rejects_structural_failure(tmp_path, capsys):
    # an even grading drop: --force skips only the homological checks
    bad = tmp_path / "parity.fkc"
    bad.write_text("gen a 0 0 0\ngen b 0 0 0\ngen c 0 0 0\nd a : b\n")
    code, out, err = run(capsys, "invariants", str(bad), "--force")
    assert code == 1 and out == ""
    assert err.startswith("fkc: error:") and "parity" in err


def test_invariants_force_reports_an_empty_scan(tmp_path, capsys):
    # genus 0 and the one generator at (1, 1): no cut that nu+ scans holds it
    bad = tmp_path / "high.fkc"
    bad.write_text("gen x 0 1 1\n")
    code, out, err = run(capsys, "invariants", str(bad), "--force")
    assert code == 1 and out == ""
    assert err == (
        "fkc: error: no homological generator in {i <= 0};"
        " the complex violates the axioms\n"
    )


def test_validate_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.fkc"
    empty.write_text("")
    code, out, _ = run(capsys, "validate", str(empty))
    assert code == 1
    assert out == (
        "parity: ok\n"
        "filtered-boundary: ok\n"
        "d-squared: ok\n"
        "odd-rank: FAIL (rank 0 is even)\n"
        "global-homology: FAIL (H_even=0, H_odd=0 (want 1, 0))\n"
        "symmetry: ok\n"
        "alexander-filtration: FAIL (subquotient Euler characteristic 0)\n"
        "algebraic-filtration: FAIL (subquotient Euler characteristic 0)\n"
    )


def test_invariants_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.fkc"
    empty.write_text("")
    code, out, err = run(capsys, "invariants", str(empty))
    assert code == 1 and out == ""
    assert err.startswith("fkc: error:") and "failed validation" in err
    code, out, err = run(capsys, "invariants", str(empty), "--force")
    assert code == 1 and out == ""
    assert err == "fkc: error: H_0 vanishes; the complex violates the axioms\n"


def test_stabilizer_check_empty_file(tmp_path, capsys):
    # zero generators: the complex is acyclic
    empty = tmp_path / "empty.fkc"
    empty.write_text("")
    code, out, err = run(capsys, "stabilizer-check", str(empty))
    assert (code, out, err) == (0, "stabilizer = true\n", "")


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("invariants", "t2_3", "--vk-max", "-1"), "--vk-max"),
        (("gtower", "c3", "--depth", "-1"), "--depth"),
        (("g0", "t2_3", "--max-enum", "-1"), "--max-enum"),
    ],
)
def test_negative_flags_are_usage_errors(data, capsys, argv, flag):
    cmd, name, *rest = argv
    code, out, err = run(capsys, cmd, data[name], *rest)
    assert code == 2 and out == ""
    assert f"argument {flag}: not a non-negative integer: '-1'" in err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "syntax.fkc"
    bad.write_text("gen a 0 0 0\nd a : zz\n")
    code, _, err = run(capsys, "invariants", str(bad))
    assert code == 2
    assert err.startswith("fkc: error: line 2")


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "g0", "/nonexistent/x.fkc")
    assert code == 2
    assert err.startswith("fkc: error:")


def test_non_utf8_file_is_a_read_error(tmp_path, capsys):
    bad = tmp_path / "binary.fkc"
    bad.write_bytes(b"\xff\xfe\x00")
    code, out, err = run(capsys, "validate", str(bad))
    assert (code, out, err) == (2, "", f"fkc: error: cannot read {bad}: not UTF-8 text\n")


@pytest.mark.parametrize("cmd", ["validate", "invariants"])
def test_byte_order_mark_is_ignored(tmp_path, capsys, monkeypatch, cmd):
    plain = catalog.data_path("t2_3")
    marked = tmp_path / "t2_3.fkc"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert run(capsys, cmd, str(marked)) == run(capsys, cmd, str(plain))
    monkeypatch.setattr(catalog, "data_path", lambda name: marked)
    assert catalog.load("t2_3") == parse(plain.read_text())


@pytest.mark.parametrize(
    "argv,code,out,err",
    [
        (("g0", "c2"), 0, "G0 = { {(0,1)}, {(1,0)} }\n", ""),
        (("validate", "missing"), 2, "", "fkc: error: cannot read "),
        (("g0", "t2_5", "--max-enum", "2"), 3, "", "fkc: error: enumeration requires 4 vectors"),
    ],
)
def test_cli_subprocess(tmp_path, argv, code, out, err):
    """The module entry point as a real process: exit code, stdout, and a
    stderr that holds the error message and no traceback."""
    files = {"c2": catalog.data_path("c2"), "t2_5": catalog.data_path("t2_5"),
             "missing": tmp_path / "missing.fkc"}
    args = [str(files.get(a, a)) for a in argv]
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "fkc.cli", *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert (proc.returncode, proc.stdout) == (code, out)
    assert proc.stderr.startswith(err) and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [("dual", "c2"), ("reverse", "c2"), ("tensor", "t2_3", "c2"), ("sum", "unknot", "square")],
)
def test_unwritable_output_is_a_usage_error(data, tmp_path, capsys, argv):
    cmd, *names = argv
    target = tmp_path / "missing" / "out.fkc"
    code, out, err = run(capsys, cmd, *(data[n] for n in names), "-o", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"fkc: error: cannot write {target}:")


@pytest.mark.parametrize("cmd", ["validate", "invariants", "stabilizer-check"])
def test_max_enum_only_on_enumerating_commands(data, capsys, cmd):
    code, out, err = run(capsys, cmd, data["t2_3"], "--max-enum", "5")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --max-enum 5" in err


def test_usage_error_exit_code(capsys):
    code = main(["frobnicate"])
    assert code == 2


def test_enum_limit_exit_code(data, capsys):
    code, _, err = run(capsys, "g0", data["t2_3"], "--max-enum", "1")
    assert code == 3
    assert "enumeration requires 2" in err


def test_bad_t_range(data, capsys):
    code, _, err = run(capsys, "upsilon2", data["t2_3"], "--t", "2", "--s", "1")
    assert code == 2
    assert "strictly between" in err


def test_tensor_output(data, tmp_path, capsys):
    out_path = tmp_path / "out.fkc"
    code, out, _ = run(capsys, "tensor", data["t2_3"], data["t2_3"], "-o", str(out_path))
    assert code == 0 and out == ""
    expected = tensor(
        catalog.torus_staircase(1, False), catalog.torus_staircase(1, False)
    )
    assert parse(out_path.read_text()) == expected


def test_dual_output_round_trip(data, tmp_path, capsys):
    out_path = tmp_path / "dual.fkc"
    code, _, _ = run(capsys, "dual", data["c2"], "-o", str(out_path))
    assert code == 0
    back = tmp_path / "back.fkc"
    code, _, _ = run(capsys, "dual", str(out_path), "-o", str(back))
    assert code == 0
    roundtrip = parse(back.read_text())
    assert [g.gr for g in roundtrip.gens] == [g.gr for g in catalog.cn(2).gens]


def test_sum_allows_stabilizer_summand(data, tmp_path, capsys):
    out_path = tmp_path / "sum.fkc"
    code, _, _ = run(capsys, "sum", data["unknot"], data["square"], "-o", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "invariants", str(out_path))
    assert code == 0 and "nu_plus = 0" in out


def test_reverse_output(data, tmp_path, capsys):
    out_path = tmp_path / "rev.fkc"
    code, _, _ = run(capsys, "reverse", data["c2"], "-o", str(out_path))
    assert code == 0
    rev = parse(out_path.read_text())
    assert [(g.alg, g.alex) for g in rev.gens] == [
        (g.alex, g.alg) for g in catalog.cn(2).gens
    ]


def test_dsurgery(data, capsys):
    code, out, _ = run(capsys, "dsurgery", data["t2_3"], "-p", "3", "-q", "1", "-i", "1")
    assert code == 0
    assert out == "d_delta = 0\n"
    code, out, _ = run(capsys, "dsurgery", data["t2_3"], "-p", "1", "-q", "1", "-i", "0")
    assert out == "d_delta = -2\n"


def test_dsurgery_rejects_bad_args(data, capsys):
    code, _, err = run(capsys, "dsurgery", data["t2_3"], "-p", "4", "-q", "2", "-i", "0")
    assert code == 2
    assert "coprime" in err


def test_stabilizer_check(data, capsys):
    code, out, _ = run(capsys, "stabilizer-check", data["square"])
    assert code == 0 and out == "stabilizer = true\n"
    code, out, _ = run(capsys, "stabilizer-check", data["unknot"])
    assert code == 0 and out == "stabilizer = false\n"


def test_deterministic_output(data, capsys):
    first = run(capsys, "gtower", data["c4"], "--depth", "4")
    second = run(capsys, "gtower", data["c4"], "--depth", "4")
    assert first == second


def test_main_builds_the_parser_once(data, capsys, monkeypatch):
    # the parser is cached per process, and a usage error leaves it usable
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    assert run(capsys, "g0", data["c2"]) == (0, "G0 = { {(0,1)}, {(1,0)} }\n", "")
    assert run(capsys, "g0", data["c2"], "--depth", "1")[0] == 2
    assert run(capsys, "upsilon2", data["t2_3"], "--t", "1", "--s", "1")[0] == 0
    assert built.count("fkc") == 1


# -- fuzzed CLI boundary ---------------------------------------------------------

FUZZ_COMMANDS = (
    ("validate",),
    ("invariants",),
    ("invariants", "--force"),
    ("upsilon",),
    ("g0",),
    ("gtower", "--depth", "3", "--max-enum", "16"),
    ("upsilon2", "--t", "1", "--s", "1/2"),
    ("stabilizer-check",),
    ("dsurgery", "-p", "3", "-q", "2", "-i", "1"),
)
FUZZ_NAMES = ("a", "b", "x", "y", "z")
SMALL = st.integers(-3, 3)


@st.composite
def _random_lines(draw):
    """gen lines, and d lines whose names are mostly declared ones."""
    names = draw(st.lists(st.sampled_from(FUZZ_NAMES), min_size=1, max_size=5, unique=True))
    lines = [f"gen {n} {draw(SMALL)} {draw(SMALL)} {draw(SMALL)}" for n in names]
    known = st.sampled_from(names) | st.sampled_from(FUZZ_NAMES)
    for src in draw(st.lists(known, max_size=4)):
        targets = draw(st.lists(known, min_size=1, max_size=3))
        lines.append(f"d {src} : {' '.join(targets)}")
    return "\n".join(draw(st.permutations(lines))) + "\n"


@st.composite
def _built_text(draw):
    """A catalog atom plus a square at a small offset, or times a small atom."""
    atoms = catalog.builders()
    c = atoms[draw(st.sampled_from(sorted(atoms)))]
    if draw(st.booleans()):
        c = direct_sum(c, catalog.square_stabilizer(Point(draw(SMALL), draw(SMALL))))
    else:
        c = tensor(c, atoms[draw(st.sampled_from(("unknot", "t2_3", "t2_3_mirror", "c2", "fig8")))])
    return serialize(c)


@st.composite
def fkc_texts(draw):
    text = draw(st.one_of(_random_lines(), _built_text()))
    if draw(st.integers(0, 3)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


def _run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=20, deadline=None)
@given(text=fkc_texts())
def test_fuzzed_files_end_in_a_documented_exit_code(tmp_path_factory, text):
    """Every input ends in exit 0, 1, 2 or 3 without an escaping exception,
    and a second run prints the same stdout."""
    path = tmp_path_factory.getbasetemp() / "fuzz.fkc"
    path.write_text(text, encoding="utf-8")
    for cmd, *opts in FUZZ_COMMANDS:
        argv = [cmd, str(path), *opts]
        first = _run_quiet(argv)
        assert first[0] in (0, 1, 2, 3), (argv, text)
        assert _run_quiet(argv) == first, (argv, text)
