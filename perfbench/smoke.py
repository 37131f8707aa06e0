"""Self-check of the benchmark, about three minutes.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced on seed 0 with the
shortest run, and checks that:

* each run prints every end-to-end (untraced) or per-layer (traced) metric
  named in BENCHMARK.json, with its unit, and nothing else;
* the only failures at baseline are the two known-defect CLI probes;
* every layer function a mix calls directly is traced, and the traced
  library workload never validates and never calls gf2.rank;
* a deliberately wrong expected answer raises the failure count and clears
  ``correct``;
* without the fkc sources the benchmark exits non-zero and prints no result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
KNOWN_DEFECTS = {"validate empty", "invariants --force parity"}
TRACED = {
    "cli": ["cli.main.self_s"] + [f"complexes.{n}.calls" for n in ("parse", "serialize", "validate")],
    "library": [f"invariants.{n}.self_s" for n in (
        "nu_plus", "tau", "v_k", "upsilon_at", "d_surgery_delta", "compare", "g0",
        "level0_realizers", "g_next", "g_tower", "hom_generators", "upsilon", "upsilon2")],
}


def run(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


def result(workload: str, trace: int, *extra: str) -> tuple[dict, list[str]]:
    code, lines = run("--workload", workload, "--seed", "0", "--seconds", "0",
                      "--trace", str(trace), *extra)
    assert code == 0, f"{workload} trace={trace} exited {code}"
    return json.loads(lines[-1]), lines[:-1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in (w["name"] for w in spec["workloads"]):
            res, lines = result(w, trace)
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == want, f"{w} trace={trace}: metrics differ: {set(got) ^ set(want)}"
            assert res["correct"], f"{w} trace={trace}: wrong answers {lines}"
            crashed = [line.split(": ", 1)[1] for line in lines if line.startswith("crashed: ")]
            # the failure share is exactly that of the known defects: once per round each
            assert res["failed"] == len(crashed), (res["failed"], crashed)
            assert set(crashed) == (KNOWN_DEFECTS if w == "cli" else set()), crashed
            assert len({crashed.count(label) for label in KNOWN_DEFECTS & set(crashed)}) <= 1
            if trace:
                # every layer function the mix calls directly shows up in the trace
                for name in TRACED[w]:
                    assert res["metrics"][name]["value"] > 0, f"{w}: {name} is zero"
            if trace and w == "library":
                for name in ("complexes.validate.calls", "gf2.rank.calls"):
                    assert res["metrics"][name]["value"] == 0, f"{w}: {name} is not zero"
            print(f"ok: {w} trace={trace}: {len(got)} metrics, "
                  f"{res['failed']}/{res['attempted']} failed")

    base, _ = result("library", 0)
    wrong, _ = result("library", 0, "--inject-wrong-answer")
    assert not wrong["correct"] and wrong["failed"] > base["failed"], wrong
    assert wrong["metrics"]["success_rate"]["value"] < base["metrics"]["success_rate"]["value"]
    print("ok: a wrong expected answer is reported")

    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = run("--workload", "cli", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
    assert code != 0 and not any(line.startswith("{") for line in lines), (code, lines)
    shutil.rmtree(bare)
    print("ok: no sources, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
