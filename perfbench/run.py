"""Closed-loop query benchmark for glaurent.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload finite_basis --seed 1 --seconds 25 --trace 0

One client, one thread: each query starts when the previous one returns.
glaurent is imported from ``src/`` of the checkout and driven through its
public entry points only: ``glaurent.cli.main`` on generated instance files
for ``kernel``, ``positivity`` and ``component``, and
``glaurent.s0_generators`` for the degree-zero ring.

``--trace 0`` times whole cycles of queries until ``--seconds`` of query
time have passed (and at least 100 queries ran) and reports the end-to-end
metrics.  ``--trace 1`` replays a fixed prefix of the workload twice, first
untraced and then with span tracing on a fresh import, and reports the
per-layer metrics of the traced pass.  Every output is checked by
:mod:`check` outside its timed interval.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS = ROOT / ".perfbench_spans"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
from spans import Tracer, dump  # noqa: E402

DEFAULT_SEED = 0
MIN_QUERIES = 100
SETUP_REPEATS = 3

# Cycles generated per run (about 1.5 times what the reference commit runs in
# 25 s, so that a faster commit still measures for its full time) and cycles
# replayed by a traced run (about 10 s untraced on the reference commit).
CYCLES = {"finite_basis": 30, "positivity_certify": 750,
          "degree_zero_ring": 165, "module_generators": 45}
TRACE_CYCLES = {"finite_basis": 8, "positivity_certify": 200,
                "degree_zero_ring": 40, "module_generators": 10}

END_TO_END_UNITS = {"setup_s": "s", "query_p50_ms": "ms", "query_p90_ms": "ms",
                    "queries_per_s": "1/s", "peak_rss_mb": "MB"}


def load_glaurent():
    """Import glaurent afresh from the checkout's ``src/``.

    Dropping the modules first gives new, empty caches, as a new process
    would have.
    """
    for name in [k for k in sys.modules if k == "glaurent" or k.startswith("glaurent.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    package = importlib.import_module("glaurent")
    importlib.import_module("glaurent.cli")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"glaurent imported from {package.__file__}, not from {SRC}")
    return package


def setup(workload: str, seed: int):
    """Import glaurent, then generate the workload's instances."""
    start = time.perf_counter()
    package = load_glaurent()
    queries = gen.WORKLOADS[workload](seed, CYCLES[workload])
    return time.perf_counter() - start, package, queries


def _cli(package, argv) -> tuple[int, str]:
    out = io.StringIO()
    try:
        code = package.cli.main(argv, out=out, err=io.StringIO())
    except Exception as exc:  # an escaped exception is a failed query, not a crash
        return -1, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def execute(package, q: gen.Query, path: Path) -> tuple[float, check.Outcome]:
    """Run one query on the instance file at ``path``; return its wall time
    and what it produced."""
    if q.kind == "s0":
        inst = json.loads(path.read_text())
        spec = package.ActionSpec(inst["r"], inst["s"], inst["p"], tuple(inst["torsion"]),
                                  package.IntMatrix.from_rows(inst["L"], inst["r"] + inst["s"]))
        start = time.perf_counter()
        try:
            gens = package.s0_generators(spec)
        except Exception as exc:  # an escaped exception is a failed query, not a crash
            return time.perf_counter() - start, check.Outcome(((-1, repr(exc)),))
        elapsed = time.perf_counter() - start
        return elapsed, check.Outcome(((0, ", ".join(str(m) for m in gens)),))
    if q.kind == "certify":
        start = time.perf_counter()
        calls = (_cli(package, ["kernel", str(path)]), _cli(package, ["positivity", str(path)]))
        return time.perf_counter() - start, check.Outcome(calls)
    argv = ["component", str(path), "--degree=" + ",".join(str(x) for x in q.degree)]
    start = time.perf_counter()
    call = _cli(package, argv)
    return time.perf_counter() - start, check.Outcome((call,))


def load_digests(workload: str, seed: int) -> list[str]:
    """Digests recorded for the default seed; none for any other seed."""
    if seed != DEFAULT_SEED:
        return []
    return json.loads((HERE / "digests.json").read_text()).get(workload, [])


class Pass:
    """One loop over queries: latencies, output digests and failures."""

    def __init__(self, expected: list[str]) -> None:
        self.expected = expected
        self.latencies: list[float] = []
        self.digests: list[str] = []
        self.failures: list[str] = []

    def run(self, package, queries, workdir: Path, seconds: float | None) -> None:
        """Run whole cycles until ``seconds`` of query time (and at least
        :data:`MIN_QUERIES`) have passed; ``None`` runs every query.

        Each instance is written, untimed, to a new file just before its
        first query and deleted after its last.  Writing thousands of files
        up front made set-up slow and erratic, and rewriting one file in
        place makes ext4 flush it to disk on every close.
        """
        workdir.mkdir(parents=True, exist_ok=True)
        path = None
        spent = 0.0
        for i, q in enumerate(queries):
            if (seconds is not None and i and q.cycle != queries[i - 1].cycle
                    and spent >= seconds and i >= MIN_QUERIES):
                break
            if path is None or path.name != q.file:
                if path is not None:
                    path.unlink()
                path = workdir / q.file
                path.write_bytes(q.instance.document(q.file))
            elapsed, outcome = execute(package, q, path)
            spent += elapsed
            self.latencies.append(elapsed)
            self.digests.append(outcome.digest())
            try:
                check.check(q, outcome)
                if i < len(self.expected) and self.digests[-1] != self.expected[i]:
                    raise check.CheckFailed("output digest differs from the recorded one")
            except (check.CheckFailed, ValueError, IndexError) as exc:
                self.failures.append(f"query {i} ({q.file}): {exc}")


def end_to_end(setup_s: float, p: Pass) -> dict[str, float]:
    lat = p.latencies
    return {
        "setup_s": setup_s,
        "query_p50_ms": 1e3 * statistics.median(lat),
        "query_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
        "queries_per_s": len(lat) / sum(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(workload: str, package, queries, workdir: Path, expected: list[str],
              spans_path: Path):
    """Untraced, then traced on a fresh import, over the same queries; the
    spans are written to ``spans_path``."""
    prefix = [q for q in queries if q.cycle < TRACE_CYCLES[workload]]
    plain = Pass(expected)
    plain.run(package, prefix, workdir, None)
    package = load_glaurent()
    tracer = Tracer()
    tracer.install()
    traced = Pass(expected)
    try:
        traced.run(package, prefix, workdir, None)
    finally:
        tracer.uninstall()
    dump(tracer.spans, spans_path)
    print(f"{len(tracer.spans)} spans written to {spans_path}", file=sys.stderr)
    return tracer.metrics(sum(traced.latencies), sum(plain.latencies)), [plain, traced]


def _layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith(("_ratio", ".yield")):
        return "ratio"
    if name.endswith("output_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "glaurent" / "__init__.py").is_file():
        print(f"error: no glaurent sources under {SRC}", file=sys.stderr)
        return 2
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, package, queries = setup(args.workload, args.seed)
        setups.append(elapsed)
    expected = load_digests(args.workload, args.seed)
    workdir = WORK / f"{args.workload}-{args.seed}"
    try:
        if args.trace:
            metrics, passes = per_layer(args.workload, package, queries, workdir, expected,
                                        SPANS / f"{args.workload}-{args.seed}.tsv")
            units = {k: _layer_unit(k) for k in metrics}
        else:
            p = Pass(expected)
            p.run(package, queries, workdir, args.seconds)
            passes = [p]
            metrics = end_to_end(statistics.median(setups), p)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} error_rate = {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} queries)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
