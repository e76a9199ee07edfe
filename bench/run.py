"""Seeded end-to-end benchmark of the sepenum command line.

    python3 bench/run.py --workload ranked-stream --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --seed 3          # every workload, one process each

A workload run generates its inputs from the seed, writes them as
edge-list files under .bench_work/, and then calls `sepenum.cli.main`
(imported from this tree's src/) on the workload's query list, over and
over, as a closed loop with one client: the next query starts when the
previous one returns.  Another pass starts only while it is expected to
finish within --seconds; there is always at least one, and two without
tracing (the first one measures peak memory).  Standard output
of each call goes to a sink that timestamps every line and reads
`sepenum.mincut.flow_call_count()` there.  Times are reported at a
reference host speed (see `ReferenceClock`).  Outputs are checked after the
timed loop.  The last line printed is one JSON object: with --trace 0 it
holds the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run.  See bench/README.md for the metric definitions.
"""

import argparse
import ast
import contextlib
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED_DIGESTS = Path(__file__).resolve().parent / "expected_digests.json"

if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from bench import checker, gen, tracing  # noqa: E402
from bench.workloads import WORKLOADS, Query  # noqa: E402

DEFAULT_SECONDS = 30
# set-up is sampled at least SETUP_MIN_REPEATS times and until the samples
# add up to SETUP_SECONDS, so that the small inputs get more samples
SETUP_MIN_REPEATS = 9
SETUP_MAX_REPEATS = 15
SETUP_SECONDS = 3.0
# the reference clock's probe graph, and the probe's duration on the
# reference host
REFERENCE_VERTICES = 20_000
REFERENCE_PROBE_MS = 100.0
PROBES_PER_SAMPLE = 2

# What a CLI call pays before any algorithm runs, measured in a fresh
# interpreter; argv: src directory, then the input files.
SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sepenum.cli
from sepenum.graph import parse_graph
for path in sys.argv[2:]:
    with open(path) as f:
        parse_graph(f.read())
print(time.perf_counter() - start)
"""

# Reported with the end-to-end metrics but not gated: on a shared host
# they spread by more than a gate's bound between runs of the same code.
UNGATED_UNITS = {"ttfo_ms_p50": "ms", "delay_ms_p99": "ms"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "delay_ms_p50": "ms",
    "delay_flows_max": "flow_calls",
    "flows_per_emission": "flow_calls",
    "peak_rss_mib": "MiB",
}


def _layer_units() -> dict[str, str]:
    units = {}
    for layer in tracing.ALL_LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.ms": "ms",
                      f"{layer}.self_ms": "ms"})
    units.update({
        "mincut.augment.augmentations": "count",
        "mincut.paths.path_vertices": "count",
        "important.filter.kept_ratio": "ratio",
        "trace.wall_s_untraced": "s",
        "trace.wall_s_traced": "s",
        "trace.overhead_ratio": "ratio",
        "info.src_loc": "lines",
        "info.public_names": "count",
    })
    return units


PER_LAYER_UNITS = _layer_units()


class ReferenceClock:
    """Converts times measured on this host into times at a reference speed.

    The speed of a shared host drifts by a quarter and more within minutes,
    for reasons outside this process: CPU time drifts with wall time, so it
    cannot help.  Between the measured calls the clock times a fixed probe
    that, like sepenum, allocates and walks graphs much larger than the
    CPU caches: the checker's own parse of a fixed random graph's edge list
    and a breadth-first search over it.  The probe runs no sepenum code, so
    no change to sepenum moves it.  A time t is reported as
    t * REFERENCE_PROBE_MS / (median probe time of the run).
    """

    def __init__(self):
        family = gen.random_connected("reference", REFERENCE_VERTICES, seed=0)
        self._text = family.text()
        self._source = family.s
        self.probe_ns: list[int] = []

    def sample(self) -> None:
        # without collections, whose cost grows with what sepenum has allocated
        gc.disable()
        try:
            for _ in range(PROBES_PER_SAMPLE):
                start = time.perf_counter_ns()
                checker.InputGraph(self._text).component(self._source, frozenset())
                self.probe_ns.append(time.perf_counter_ns() - start)
        finally:
            gc.enable()

    def scale(self) -> float:
        """Reference time per unit of time measured here."""
        return REFERENCE_PROBE_MS * 1e6 / statistics.median(self.probe_ns)


class LineSink:
    """Stands in for stdout during one CLI call: keeps the text, and for
    every completed line the time and the process-wide flow-call count."""

    def __init__(self, flow_count):
        self._flow_count = flow_count
        self.parts: list[str] = []
        self.times: list[int] = []
        self.flows: list[int] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        for _ in range(text.count("\n")):
            self.times.append(time.perf_counter_ns())
            self.flows.append(self._flow_count())
        return len(text)

    def flush(self) -> None:
        pass


@dataclass
class Execution:
    query: int  # index into the workload's query list
    rc: int | None  # None when main raised
    text: str
    start: int
    end: int
    flows_start: int
    flows_end: int
    times: list[int]
    flows: list[int]
    errors: list[str] = field(default_factory=list)

    def emissions(self, command: str) -> tuple[list[int], list[int]]:
        """Line times and flow counts of the printed separators; minsep
        prints its connectivity on a line of its own first."""
        skip = 1 if command == "minsep" else 0
        return self.times[skip:], self.flows[skip:]


def run_query(sepenum_cli, flow_count, query: Query, path: Path, index: int,
              tracer: tracing.Tracer | None) -> Execution:
    sink = LineSink(flow_count)
    argv = query.argv(path)
    flows_start = flow_count()
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(sink):
            if tracer is None:
                rc = sepenum_cli.main(argv)
            else:
                rc = tracer.call(tracing.CLI_LAYER, sepenum_cli.main, argv)
    except Exception:  # a crash is a failed query, not a failed benchmark
        traceback.print_exc()
        rc = None
    end = time.perf_counter_ns()
    return Execution(index, rc, "".join(sink.parts), start, end, flows_start,
                     flow_count(), sink.times, sink.flows)


@dataclass
class Pass:
    traced: bool
    ns: int  # the sum of the query times
    executions: list[Execution]


def run_passes(queries, paths, seconds: float, tracer=None, clock=None) -> list[Pass]:
    """Closed loop over the query list.  With a tracer, passes alternate
    between untraced and traced, untraced first, so that both kinds see
    the same machine conditions; then there is at least one of each.  With
    a clock, it is sampled before every query."""
    import sepenum.cli
    from sepenum.mincut import flow_call_count

    passes: list[Pass] = []
    executed = 0
    min_passes = 1 if tracer is None else 2
    began = time.perf_counter()
    while len(passes) < min_passes or (
            time.perf_counter() - began
            + statistics.median(p.ns for p in passes) / 1e9 <= seconds):
        active = tracer if tracer is not None and len(passes) % 2 else None
        try:
            if active is not None:
                active.install()
            executions = []
            for index, (query, path) in enumerate(zip(queries, paths)):
                if clock is not None:
                    clock.sample()
                # Start each call, as in a fresh CLI process, with nothing to
                # collect, and with the benchmark's own objects (inputs, earlier
                # outputs) out of the view of sepenum's collections.
                gc.collect()
                gc.freeze()
                if active is not None:
                    active.query = executed
                executions.append(run_query(sepenum.cli, flow_call_count, query,
                                            path, index, active))
                executed += 1
        finally:
            if active is not None:
                active.uninstall()
        passes.append(Pass(active is not None,
                           sum(ex.end - ex.start for ex in executions), executions))
    return passes


def measure_setup(files: list[Path], clock: ReferenceClock) -> float:
    """Median over fresh interpreters of import plus parsing every input,
    in seconds of this host; the clock is sampled before each one."""
    samples: list[float] = []
    while len(samples) < SETUP_MIN_REPEATS or (
            sum(samples) < SETUP_SECONDS and len(samples) < SETUP_MAX_REPEATS):
        clock.sample()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, files)],
            capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def check_executions(queries, paths, executions, work: Path) -> None:
    """Fill in Execution.errors.  Each distinct output of a query is checked
    once; every pass must also print what the first pass printed, and a
    query whose input does not depend on the seed must print the committed
    digest."""
    expected = json.loads(EXPECTED_DIGESTS.read_text())
    reference = checker.KappaReference(work.parent / "kappa_cache.json")
    texts = [path.read_text() for path in paths]
    graphs = [checker.InputGraph(text) for text in texts]
    verdicts: dict[tuple[int, str], list[str]] = {}
    first_digest: dict[int, str] = {}
    for ex in executions:
        query = queries[ex.query]
        if ex.rc != 0:
            ex.errors.append(f"exit code {ex.rc}")
            continue
        digest = checker.digest(ex.text)
        first = first_digest.setdefault(ex.query, digest)
        if digest != first:
            ex.errors.append("output differs from the first pass")
        want = expected.get(query.name)
        if not query.seeded and want is not None and digest != want:
            ex.errors.append("output digest differs from the committed one")
        if (ex.query, digest) not in verdicts:
            kappa = reference.kappa(query, texts[ex.query])
            verdicts[ex.query, digest] = checker.check_query(
                query, graphs[ex.query], ex.text.splitlines(), kappa)
        ex.errors.extend(verdicts[ex.query, digest])


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(queries, executions, pass_ns, scale: float) -> dict[str, float]:
    """The end-to-end metrics, times multiplied by scale."""
    gaps_ns, flow_gaps, ttfo_ns = [], [], []
    flows = emitted = 0
    for ex in executions:
        if ex.times:
            ttfo_ns.append(ex.times[0] - ex.start)
        times, counts = ex.emissions(queries[ex.query].command)
        previous_time, previous_flows = ex.start, ex.flows_start
        for t, f in zip(times, counts):
            gaps_ns.append(t - previous_time)
            flow_gaps.append(f - previous_flows)
            previous_time, previous_flows = t, f
        flows += ex.flows_end - ex.flows_start
        emitted += len(times)
    gaps_ns.sort()
    return {
        "wall_s": scale * statistics.median(pass_ns) / 1e9,
        "delay_ms_p50": scale * statistics.median(gaps_ns) / 1e6,
        "delay_flows_max": max(flow_gaps),
        "flows_per_emission": flows / emitted,
        "gaps": len(gaps_ns),
        "ttfo_ms_p50": scale * statistics.median(ttfo_ns) / 1e6,
        "delay_ms_p99": scale * percentile(gaps_ns, 0.99) / 1e6,
    }


def layer_metrics(tracer: tracing.Tracer, executions, passes: int) -> dict[str, float]:
    totals = tracing.layer_totals(tracer.spans)
    metrics = {}
    for layer in tracing.ALL_LAYERS:
        row = totals.get(layer, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for key, value in row.items():
            metrics[f"{layer}.{key}"] = value / passes
    # the process-wide counter counts every flow, whichever function ran it
    metrics["mincut.flow_calls.calls"] = sum(
        ex.flows_end - ex.flows_start for ex in executions) / passes
    metrics["mincut.augment.augmentations"] = tracer.counts["augmentations"] / passes
    metrics["mincut.paths.path_vertices"] = tracer.counts["path_vertices"] / passes
    filter_calls = totals.get("important.filter", {}).get("calls", 0)
    metrics["important.filter.kept_ratio"] = (
        tracer.counts["important_returned"] / filter_calls if filter_calls else 0.0)
    return metrics


def src_loc() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def public_names() -> int:
    """Public names bound in sepenum/__init__.py by imports and definitions."""
    tree = ast.parse((SRC / "sepenum" / "__init__.py").read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return len([n for n in names if not n.startswith("_")])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, work_root: Path = WORK) -> dict:
    """One workload run; returns the result object the CLI prints last."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    queries = WORKLOADS[name](seed, tiny)
    work = work_root / f"{name}-seed{seed}"
    work.mkdir(parents=True, exist_ok=True)
    families = {q.family.name: q.family for q in queries}
    written = {fam_name: fam.write(work) for fam_name, fam in families.items()}
    paths = [written[q.family.name] for q in queries]

    info = {"src_loc": src_loc(), "public_names": public_names()}
    if trace:
        tracer = tracing.Tracer()
        passes = run_passes(queries, paths, seconds, tracer)
        traced = [p for p in passes if p.traced]
        metrics = layer_metrics(tracer, [ex for p in traced for ex in p.executions],
                                len(traced))
        metrics["trace.wall_s_untraced"] = statistics.median(
            p.ns for p in passes if not p.traced) / 1e9
        metrics["trace.wall_s_traced"] = statistics.median(p.ns for p in traced) / 1e9
        metrics["trace.overhead_ratio"] = (metrics["trace.wall_s_traced"]
                                           / metrics["trace.wall_s_untraced"])
        metrics["info.src_loc"] = info["src_loc"]
        metrics["info.public_names"] = info["public_names"]
        tracing.write_spans(tracer.spans, work / "spans.tsv")
        notes = {"missing_names": tracer.missing}
        units = PER_LAYER_UNITS
    else:
        # peak memory is read after one pass, before the reference clock's
        # probe has allocated its graph
        began = time.perf_counter()
        passes = run_passes(queries, paths, 0)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        first_pass_s = time.perf_counter() - began
        setup_clock, clock = ReferenceClock(), ReferenceClock()
        setup_s = measure_setup(sorted(set(paths)), setup_clock)
        passes += run_passes(queries, paths, seconds - first_pass_s, clock=clock)
        e2e = end_to_end(queries, [ex for p in passes for ex in p.executions],
                         [p.ns for p in passes], clock.scale())
        notes = {"gaps": e2e.pop("gaps"),
                 "ungated": {k: {"value": e2e.pop(k), "unit": unit}
                             for k, unit in UNGATED_UNITS.items()},
                 "host_setup_s": setup_s,
                 "reference_scale": clock.scale(),
                 "reference_scale_setup": setup_clock.scale()}
        metrics = {"setup_s": setup_clock.scale() * setup_s, **e2e,
                   "peak_rss_mib": peak_rss_mib}
        units = END_TO_END_UNITS
    executions = [ex for p in passes for ex in p.executions]
    notes.update(passes=len(passes), pass_s=[p.ns / 1e9 for p in passes])

    check_executions(queries, paths, executions, work)
    failed = sum(1 for ex in executions if ex.errors)
    result = {
        "correct": failed == 0,
        "attempted": len(executions),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report = {
        "workload": name, "seed": seed, "trace": trace, **result, **info,
        "fail_ratio": failed / len(executions), **notes,
        "queries": [{"name": q.name, "argv": q.argv(p.name),
                     "digest": checker.digest(next(
                         (ex.text for ex in executions if ex.query == i), ""))}
                    for i, (q, p) in enumerate(zip(queries, paths))],
        "errors": sorted({f"{queries[ex.query].name}: {e}"
                          for ex in executions for e in ex.errors}),
    }
    (work / ("result-trace.json" if trace else "result.json")).write_text(
        json.dumps(report, indent=1))
    return report


def print_report(report: dict) -> None:
    print(f"# {report['workload']} seed={report['seed']} trace={int(report['trace'])}"
          f" passes={report['passes']} attempted={report['attempted']}"
          f" failed={report['failed']} fail_ratio={report['fail_ratio']:.4f}"
          f" src_loc={report['src_loc']} public_names={report['public_names']}")
    if "gaps" in report:
        print(f"# delay samples: {report['gaps']}; times at reference speed, this host's"
              f" times x {report['reference_scale']:.4f}"
              f" (set-up x {report['reference_scale_setup']:.4f})")
        for name, metric in report["ungated"].items():
            print(f"# not gated: {name} {metric['value']:.6g} {metric['unit']}")
    for missing in report.get("missing_names", []):
        print(f"# not traced, name not found: {missing}")
    for error in report["errors"]:
        print(f"# FAILED {error}")
    for name, metric in report["metrics"].items():
        print(f"{report['workload']:<15} {name:<34} {metric['value']:>14.6g} {metric['unit']}")


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process, one after the other."""
    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(f"# {name}: exit code {done.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload in this process (default: all, "
                             "each in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sepenum" / "cli.py").is_file():
        print(f"error: no sepenum sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    print(json.dumps({key: report[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
