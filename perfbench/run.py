"""fkc benchmark: measure one workload and print its result line.

    python3 perfbench/run.py --workload {cli,library} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/`` and the CLI is started as ``python -m fkc.cli`` with
``PYTHONPATH=src``.  Working files go to ``.bench_work/``.

``--trace 0`` measures end to end: whole rounds of the workload's operation
mix (cli 105 operations, library 210, each round in a seeded order, on
fresh complex objects) until the busy time reaches ``--seconds``, and at least two
rounds.  One client, closed loop: the next operation starts when the
previous one has finished and its answer has been checked; check time is
not counted.  An operation's latency is its best wall time over the rounds;
latency_s.p50 and latency_s.p90 are taken over the operations of the mix
(at least 10 lie beyond p90), and ops_per_s = successful share x mix size /
sum of latencies.  It
also prints success_rate, peak_rss_mb and setup_s.

``--trace 1`` runs one round traced between two untraced ones (spans
recorded around the public functions of each fkc module, see tracing.py),
and prints the per-layer metrics: calls, self times and waste ratios, each
a total over the traced round, plus trace.overhead_s.  For ``cli`` the
round is replayed in-process through ``fkc.cli.main`` and
``cli.startup_s.p50`` times ``python -m fkc.cli --help``.  The spans, with
the size labels of each operation (n, k = dim im d_1, genus, box width),
are written to ``.bench_work/trace-<workload>-<seed>.json``.

An operation fails if it raised (or, for the CLI, printed a traceback),
exited with another code than the documented one, or gave an answer its
check rejects.  ``correct`` is false only for rejected answers; crashes are
counted in ``failed`` alone.

The last line of stdout is the JSON result.  Exit code 2, with no result,
when the checkout has no ``src/fkc``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7
MIN_ROUNDS = 2
STARTUP_REPEATS = 15

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("latency_s.p50", "s"),
    ("latency_s.p90", "s"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def _calls_self(name):
    return [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]


PER_LAYER = (
    [("cli.startup_s.p50", "s"), ("cli.main.self_s", "s")]
    + _calls_self("complexes.parse") + _calls_self("complexes.serialize")
    + _calls_self("complexes.validate") + _calls_self("complexes.homology_dim")
    + _calls_self("complexes.tensor") + _calls_self("complexes.dual")
    + [(f"complexes.{n}.self_s", "s") for n in ("direct_sum", "reverse", "is_stabilizer")]
    + _calls_self("gf2.rank") + _calls_self("gf2.restrict_columns")
    + _calls_self("gf2.kernel_basis") + _calls_self("gf2.solve")
    + [("gf2.span_contains.calls", "count"),
       ("gf2.enumerate_coset.vectors", "count"), ("gf2.enumerate_coset.self_s", "s"),
       ("invariants.probe_queries", "count"), ("invariants.kernel_basis_per_query", "ratio")]
    + [(f"invariants.{n}.self_s", "s") for n in (
        "nu_plus", "tau", "v_k", "upsilon_at", "d_surgery_delta", "compare",
        "g0", "level0_realizers", "g_next", "g_tower", "hom_generators", "upsilon", "upsilon2")]
    + [("invariants.g0.vectors", "count"), ("invariants.g0.regions_per_vector", "ratio")]
    + _calls_self("region.minimalize")
    + [("region.minimalize.inputs", "count"), ("region.minimalize.kept_ratio", "ratio"),
       ("region.subset.calls", "count"), ("trace.overhead_s", "s")]
)


class Tally:
    """Latency samples, per operation of the mix, and outcomes so far."""

    def __init__(self):
        self.samples: dict[int, list[float]] = {}
        self.failed = 0
        self.wrong: list[str] = []
        self.crashed: list[str] = []

    def record(self, op, seconds: float, result, crashed: bool) -> None:
        self.samples.setdefault(id(op), []).append(seconds)
        if crashed:
            self.failed += 1
            self.crashed.append(op.label)
        elif not op.check(result):
            self.failed += 1
            self.wrong.append(op.label)

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.samples.values())

    @property
    def busy(self) -> float:
        return sum(sum(v) for v in self.samples.values())


def _cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _run_cli(argv, env, workdir: Path):
    """One `python -m fkc.cli` subprocess: (seconds, (rc, stdout, stderr), max RSS in KiB)."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "fkc.cli", *argv],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    result = (proc.returncode, out_path.read_text(), err_path.read_text())
    return seconds, result, usage.ru_maxrss


def _replay_cli(op):
    """The same argv through fkc.cli.main in this process."""
    from fkc import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except Exception:   # a traceback in the real CLI
        return time.perf_counter() - t0, None, True
    return time.perf_counter() - t0, (rc, out.getvalue(), err.getvalue()), False


def _run_inprocess(op, ctx):
    t0 = time.perf_counter()
    try:
        result = op.call(ctx)
    except Exception:
        return time.perf_counter() - t0, None, True
    return time.perf_counter() - t0, result, False


def _round(workload, inputs, ops, rng, tally, tracer=None, sizes=None, replay=False):
    """Run every operation once, in a seeded order.  Returns the max child RSS (KiB)."""
    import workloads

    order = list(ops)
    rng.shuffle(order)
    ctx = workloads.fresh(inputs) if workload != "cli" else None
    env = _cli_env()
    peak = 0
    for op in order:
        if tracer is not None:
            tracer.begin_op(op.label, [sizes(n) for n in op.inputs])
        if workload == "cli" and not replay:
            seconds, result, rss = _run_cli(op.argv, env, WORK / workload)
            peak = max(peak, rss)
            crashed = "Traceback" in result[2]
        elif workload == "cli":
            seconds, result, crashed = _replay_cli(op)
        else:
            seconds, result, crashed = _run_inprocess(op, ctx)
        if tracer is not None:
            tracer.end_op()
        tally.record(op, seconds, result, crashed)
        # drop this answer and its garbage before the next operation starts,
        # so neither its memory nor a collection it triggers depends on the order
        result = None
        gc.collect()
    return peak


def _setup_seconds(workload: str) -> float:
    """Median set-up time over fresh interpreters: import, build, write files."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_once.py"), workload, str(WORK / f"setup-{workload}")],
            capture_output=True, text=True, cwd=ROOT, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def _startup_seconds() -> float:
    env = _cli_env()
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "fkc.cli", "--help"], capture_output=True,
                       env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _size_labels(inputs):
    from expect import Reducer, slice_images

    memo = {}

    def sizes(name):
        if name not in memo:
            c = inputs[name].cx
            if c is None:   # a deliberately malformed file
                return {"name": name}
            coords = [v for g in c.gens for v in (g.alg, g.alex)]
            memo[name] = {"name": name, "n": len(c.gens),
                          "k": len(Reducer(slice_images(c, 1)).pivots),
                          "genus": max(abs(g.alex - g.alg) for g in c.gens),
                          "box": max(coords) - min(coords)}
        return memo[name]

    return sizes


def measure(workload, seed, seconds, wrong_answer=False):
    import workloads

    rng = random.Random(seed)
    inputs = workloads.setup(workload, WORK / workload)
    ops = workloads.operations(workload, inputs, rng)
    if wrong_answer:
        ops[0].check = lambda r, c=ops[0].check: not c(r)
    tally, rounds, child_rss = Tally(), 0, 0
    while tally.busy < seconds or rounds < MIN_ROUNDS:
        child_rss = max(child_rss, _round(workload, inputs, ops, rng, tally))
        rounds += 1
    rss_kib = child_rss if workload == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Each operation's latency is its best of the rounds: other tenants of a
    # shared host only ever add time, and they do so for tens of seconds.
    best = [min(v) for v in tally.samples.values()]
    deciles = statistics.quantiles(best, n=10)
    success = 1 - tally.failed / tally.attempted
    metrics = {
        "ops_per_s": success * len(best) / sum(best),
        "latency_s.p50": deciles[4],
        "latency_s.p90": deciles[8],
        "success_rate": success,
        "peak_rss_mb": rss_kib / 1024,
        "setup_s": _setup_seconds(workload),
    }
    beyond = sum(1 for b in best if b > deciles[8])
    print(f"{workload}: {len(best)} operations x {rounds} rounds = {tally.attempted} samples, "
          f"best of {rounds} per operation, {beyond} operations beyond p90, busy {tally.busy:.2f} s")
    return tally, metrics


def trace(workload, seed):
    import workloads
    from tracing import Tracer

    rng = random.Random(seed)
    inputs = workloads.setup(workload, WORK / workload)
    ops = workloads.operations(workload, inputs, rng)
    replay = workload == "cli"
    # untraced rounds on both sides of the traced one, so warm-up does not
    # land on either side of the overhead
    before, after = Tally(), Tally()
    _round(workload, inputs, ops, random.Random(seed), before, replay=replay)
    tracer, tally = Tracer(), Tally()
    tracer.install()
    try:
        _round(workload, inputs, ops, random.Random(seed), tally, tracer,
               _size_labels(inputs), replay=replay)
    finally:
        tracer.uninstall()
    _round(workload, inputs, ops, random.Random(seed), after, replay=replay)
    layer = tracer.layer_metrics()
    layer["trace.overhead_s"] = tally.busy - (before.busy + after.busy) / 2
    layer["cli.startup_s.p50"] = _startup_seconds() if workload == "cli" else 0.0
    path = WORK / f"trace-{workload}-{seed}.json"
    tracer.dump(path)
    print(f"{workload}: traced {tally.attempted} operations, {len(tracer.spans)} spans -> {path}")
    return tally, {name: layer.get(name, 0.0) for name, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli", "library"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-wrong-answer", action="store_true",
                        help="reject the first operation's correct answer (self-test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fkc" / "__init__.py").is_file():
        print(f"run.py: no fkc sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    WORK.mkdir(exist_ok=True)
    if args.trace:
        tally, values = trace(args.workload, args.seed)
        units = dict(PER_LAYER)
    else:
        tally, values = measure(args.workload, args.seed, args.seconds, args.inject_wrong_answer)
        units = dict(END_TO_END)
    for label in tally.crashed:
        print(f"crashed: {label}")
    for label in tally.wrong:
        print(f"wrong answer: {label}")
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
