"""nsdial benchmark: end-to-end metrics per workload, per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload cli_corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

With one workload the last line of standard output is a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run record (machine, inputs, grids, failures, per-input rows).  With
``--workload all`` every workload runs once and a table of every metric, with
its unit and the failed-operation ratio, is printed instead.

Metric names and units come from ``BENCHMARK.json``.  Workloads, metrics and
the layer each metric should move are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
WORKER = BENCH / "worker.py"
PY = sys.executable

WORKLOADS = ("cli_corpus", "closure_sweep", "frontend")
# Operations per pass.  cli_corpus always runs both fixture directories and
# sizes only its grid; the closure and frontend sizes are formulas (and, for
# frontend, as many terms again plus one proof).
# The closure and frontend passes are kept short, so that a run times every
# operation several times.  Fewer closure formulas would make the cost of a
# pass depend on the seed: the oracle work of one formula varies five-fold
# within a sweep size, and 300 formulas spread 0.08 (quartiles over median)
# in total oracle calls over ten seeds.
FULL = {"cli_grid": (2, 2), "closure_sweep": 600, "frontend": 600}
TINY = {"cli_grid": (1, 2), "closure_sweep": 20, "frontend": 40}
# A run makes a fixed number of passes, --seconds divided by the nominal time
# of a pass (process start, input generation and the set-up samples after it
# included), so that the number of samples behind each estimate does not
# depend on how fast the machine was.  A traced pass is counted at three times
# the nominal time.
NOMINAL_PASS_S = {"cli_corpus": 7.0, "closure_sweep": 4.8, "frontend": 1.3}
TRACED_PASS_FACTOR = 3
OVERRUN = 1.25  # on a machine much slower than nominal, stop after this share of --seconds
# Wall-clock cap of one operation; the parent kills the child past it.
OP_CAP_S = {"cli_corpus": 60.0, "closure_sweep": 10.0, "frontend": 5.0}
READY_CAP_S = 60.0  # input generation in a worker, before its first operation
RUN_LIMIT_S = 150.0  # no operation may run past this point of a run
SETUP_SAMPLES = 12  # timed set-ups per run, spread over its passes
FASTEST_FROM = 12  # samples of a timed unit from which its fastest, not its median, is taken
GATED_PERCENTILES = (90,)  # end-to-end metrics; p50 and p99 are in the run record only
PERCENTILES = (50, 90, 99)
TERM_CALLS = ("terms.substitute", "reduce.value_to_term", "reduce.normalize", "reduce.eval_nat")


@dataclass
class Child:
    lines: list  # (seconds since spawn, text)
    returncode: int
    rss_mb: float
    wall: float
    timed_out: bool


@dataclass
class Pass:
    """One pass over a workload's inputs, made in fresh processes."""

    traced: bool
    units: dict = field(default_factory=dict)  # timed unit -> seconds; they add up to the pass
    latency_ms: dict = field(default_factory=dict)  # operation -> time to its result
    info: dict = field(default_factory=dict)  # operation -> what the per-input rows show
    ops: int = 0
    problems: list = field(default_factory=list)  # (operation, problem), one per failed operation
    traces: list = field(default_factory=list)
    rss_mb: float = 0.0
    elapsed: float = 0.0  # everything, process start-up included
    grid: dict | None = None  # the grid every operation of the pass ran on, if any


class Run:
    """One benchmark run: its settings, scratch directory and deadline."""

    def __init__(self, workload, seed, tiny, work: Path):
        self.workload, self.seed = workload, seed
        self.sizes = TINY if tiny else FULL
        self.work = work
        self.started = time.perf_counter()
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]),
            "PYTHONUNBUFFERED": "1", "PYTHONHASHSEED": "0"}
        self.children = 0
        self.setup_s: list[float] = []  # every timed set-up

    def time_left(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def path(self, stem: str) -> Path:
        self.children += 1
        return self.work / f"{stem}-{self.children}.json"

    def spawn(self, cmd, cap_s, first_cap_s=None) -> Child:
        """Run a child, timestamping each stdout line; kill it when a line is late.

        A line is late when more than ``cap_s`` seconds (``first_cap_s`` for the
        first line) pass after the previous one, or when the run's limit is hit.
        The child has always ended when this returns or raises.
        """
        start = time.perf_counter()
        with open(self.work / "stderr.txt", "ab") as err:
            proc = subprocess.Popen([str(c) for c in cmd], cwd=ROOT, env=self.env,
                                    stdout=subprocess.PIPE, stderr=err)
        lines, buf, last, timed_out = [], b"", start, False
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                while True:
                    cap = first_cap_s if (first_cap_s and not lines) else cap_s
                    wait = min(cap - (time.perf_counter() - last), self.time_left())
                    if wait <= 0 or not sel.select(wait):
                        timed_out = True
                        break
                    chunk = os.read(proc.stdout.fileno(), 1 << 16)
                    if not chunk:
                        break
                    now = time.perf_counter()
                    *done, buf = (buf + chunk).split(b"\n")
                    for line in done:
                        lines.append((now - start, line.decode()))
                        last = now
        finally:
            if timed_out or sys.exc_info()[0] is not None:
                proc.kill()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(lines, proc.returncode, usage.ru_maxrss / 1024,
                     time.perf_counter() - start, timed_out)


# -- cli_corpus ---------------------------------------------------------------

def cli_item_problem(directory: str, name: str, item) -> str | None:
    """Check one corpus item against the fixtures the package did not produce."""
    if item is None:
        return "no result"
    if directory == "negative":
        verdict = item.get("verdict")
        return None if verdict == "counterexample" else f"verdict {verdict}, expected counterexample"
    if item.get("status") != "ok":
        return f"status {item.get('status')}: {item.get('error') or item.get('verdict')}"
    golden = FIXTURES / "golden" / f"{name}.golden"
    if golden.exists() and item.get("translated") != golden.read_text().strip():
        return "translation differs from the golden file"
    if name == "doubling.u.proof":
        if item.get("bundle") != (FIXTURES / "corpus" / "doubling.u.bundle").read_text().strip():
            return "bundle differs from doubling.u.bundle"
    return None


def cli_pass(run: Run, traced: bool) -> Pass:
    """``nsdial corpus run`` on the corpus and on the negative fixtures, with --json."""
    result = Pass(traced)
    nat, length = run.sizes["cli_grid"]
    start = time.perf_counter()
    for directory, expected_rc in (("corpus", 0), ("negative", 1)):
        files = sorted(p.name for p in (FIXTURES / directory).iterdir())
        report = run.path("report")
        argv = ["--json", report, "corpus", "run", f"tests/fixtures/{directory}",
                "--nat-bound", nat, "--len-bound", length]
        trace_out = run.path("trace")
        cmd = [PY, WORKER, "cli", trace_out, *argv] if traced else [PY, "-m", "nsdial.cli", *argv]
        child = run.spawn(cmd, OP_CAP_S["cli_corpus"])
        result.units[directory] = child.wall
        result.rss_mb = max(result.rss_mb, child.rss_mb)
        # The CLI prints "<status> <file>" as each item finishes.  An item's
        # latency is the time from the start of its command to that line.
        arrival = {}
        for t, line in child.lines:
            name = line.split()[-1] if line.strip() else ""
            if name in files:
                arrival[name] = t * 1e3
        items = {}
        if report.exists() and child.returncode in (0, 1, 2):
            try:
                written = json.loads(report.read_text())
                items = {it["file"]: it for it in written["outcome"].get("items", [])}
                result.grid = written["grid"]
            except (ValueError, KeyError, TypeError):
                pass  # an unreadable report fails every item below
        if traced and trace_out.exists():
            result.traces.append(json.loads(trace_out.read_text()))
        for name in files:
            problem = cli_item_problem(directory, name, items.get(name))
            if problem is None and child.returncode != expected_rc:
                problem = f"exit code {child.returncode}, expected {expected_rc}"
            if child.timed_out and name not in arrival:
                problem = "timed out"
            if problem:
                result.problems.append((f"{directory}/{name}", problem))
            if name in arrival:
                result.latency_ms[name] = arrival[name]
            item = items.get(name) or {}
            result.info[name] = {"file": f"{directory}/{name}", "exit_code": child.returncode,
                                 "status": item.get("status"), "verdict": item.get("verdict")}
        result.ops += len(files)
    result.elapsed = time.perf_counter() - start
    return result


# -- closure_sweep and frontend -------------------------------------------------

def worker_pass(run: Run, traced: bool) -> Pass:
    """One pass in a fresh worker; a stuck operation is killed and the pass resumes after it."""
    result = Pass(traced)
    name = {"closure_sweep": "closure", "frontend": "frontend"}[run.workload]
    started = time.perf_counter()
    index, total = 0, None
    while total is None or index < total:
        trace_out = run.path("trace") if traced else "-"
        child = run.spawn([PY, WORKER, name, run.seed, run.sizes[run.workload], index, trace_out],
                          OP_CAP_S[run.workload], READY_CAP_S)
        result.rss_mb = max(result.rss_mb, child.rss_mb)
        for _, text in child.lines:
            line = json.loads(text)
            if "ready" in line:
                total, result.grid = line["ready"], line["grid"]
                continue
            index = line["i"] + 1
            result.units[line["i"]] = line["ms"] / 1e3
            result.latency_ms[line["i"]] = line["ms"]
            result.info[line["i"]] = line
            if not line["ok"]:
                result.problems.append((f"{line['kind']} {line['i']}", line["problem"]))
        if traced and child.returncode == 0:
            result.traces.append(json.loads(Path(trace_out).read_text()))
        if total is not None and index >= total:
            break
        why = "timed out" if child.timed_out else f"worker exit code {child.returncode}"
        if total is None:  # the inputs were never ready: count one failed operation
            result.problems.append(("inputs", why))
            total = 1
            break
        result.problems.append((f"operation {index}", why))
        if child.timed_out:
            result.units[index] = OP_CAP_S[run.workload]
            result.latency_ms[index] = OP_CAP_S[run.workload] * 1e3
        index += 1
        if run.time_left() <= 0:
            result.problems += [(f"operation {i}", "run limit reached") for i in range(index, total)]
            break
    result.ops = total
    result.elapsed = time.perf_counter() - started
    return result


# -- metrics ----------------------------------------------------------------------

def sample_setup(run: Run, count: int, timed: bool = True) -> list:
    """Start ``count`` fresh interpreters up to a completed ``import nsdial.cli``.

    Their times go to ``run.setup_s`` if ``timed``.  Returns the problems (an
    import that fails or hangs), at most one.
    """
    problems = []
    for _ in range(count):
        child = run.spawn([PY, "-c", "import nsdial.cli"], READY_CAP_S)
        if child.returncode != 0:
            problems.append(("setup", f"import exit code {child.returncode}"))
        if timed:
            run.setup_s.append(child.wall)
    return problems[:1]


def typical(passes, attr: str) -> dict:
    """Per key (an operation, or a CLI command), one time from the passes.

    Every pass does the same deterministic work in a fresh process, so the
    spread between passes is interference from the machine.  Estimating per
    key rather than per pass lets a burst that slowed one operation in one
    pass and another operation in the next drop out of both.  The estimate is
    the median, or the fastest time once there are ``FASTEST_FROM`` samples:
    with that many, nearly every key has a sample from a moment the machine
    ran undisturbed, and that time moves least from run to run.
    """
    keys = {k for p in passes for k in getattr(p, attr)}
    out = {}
    for k in keys:
        samples = [getattr(p, attr)[k] for p in passes if k in getattr(p, attr)]
        out[k] = (min if len(samples) >= FASTEST_FROM else statistics.median)(samples)
    return out


def wall(passes) -> float:
    return sum(typical(passes, "units").values())


def latency_percentiles(passes) -> dict:
    lat = list(typical(passes, "latency_ms").values()) or [0.0, 0.0]
    cuts = statistics.quantiles(lat, n=100, method="inclusive")
    return {p: {"ms": cuts[p - 1], "operations_beyond": sum(x > cuts[p - 1] for x in lat)}
            for p in PERCENTILES}


def end_to_end(passes, setup_s) -> dict:
    lat = latency_percentiles(passes)
    out = {
        "setup_s": setup_s,
        "wall_s": wall(passes),
        "ops_per_s": passes[0].ops / max(wall(passes), 1e-9),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
    }
    for p in GATED_PERCENTILES:
        out[f"latency_p{p}_ms"] = lat[p]["ms"]
    return out


def per_layer(traced, untraced) -> dict:
    """Per-pass means of the traced aggregates, and the tracing overhead."""
    n = len(traced)
    g = defaultdict(lambda: defaultdict(float))  # group -> field -> per-pass mean
    c = defaultdict(float)  # counter -> per-pass mean
    for p in traced:
        for snap in p.traces:
            for group, stats in snap["groups"].items():
                for name in ("calls", "s", "self_s"):
                    g[group][name] += stats[name] / n
                g[group]["oracle_s"] += stats["by_caller"].get("nsdial.oracle", 0.0) / n
            for name, v in snap["counters"].items():
                c[name] += v / n
    traced_wall = wall(traced)
    oracle_s = g["oracle.verify"]["s"] + g["oracle.closure"]["s"]
    return {
        "sexpr.parse.s": g["sexpr.parse"]["s"],
        "sexpr.parse.calls": g["sexpr.parse"]["calls"],
        "sexpr.print.s": g["sexpr.print"]["s"],
        "sexpr.atoms_per_s": c["atoms"] / g["sexpr.parse"]["s"] if g["sexpr.parse"]["s"] else 0.0,
        "formulas.check.s": g["formulas.check"]["s"],
        "formulas.desugar.s": g["formulas.desugar"]["s"],
        "terms.type_check.s": g["terms.type_check"]["s"],
        "terms.substitute.calls": g["terms.substitute"]["calls"],
        "terms.substitute.s": g["terms.substitute"]["s"],
        "terms.alpha_eq.calls": g["terms.alpha_eq"]["calls"],
        "reduce.normalize.calls": g["reduce.normalize"]["calls"],
        "reduce.normalize.s": g["reduce.normalize"]["s"],
        "reduce.eval_nat.calls": g["reduce.eval_nat"]["calls"],
        "reduce.eval_nat.s": g["reduce.eval_nat"]["s"],
        "reduce.value_to_term.calls": g["reduce.value_to_term"]["calls"],
        "reduce.value_to_term.s": g["reduce.value_to_term"]["s"],
        "reduce.term_to_value.s": g["reduce.term_to_value"]["s"],
        "translate.calls": g["translate"]["calls"],
        "translate.s": g["translate"]["s"],
        "translate.matrix_nodes": c["matrix_nodes"],
        "proofs.check_proof.s": g["proofs.check_proof"]["s"],
        "extract.s": g["extract"]["s"],
        "extract.bundle_chars": c["bundle_chars"],
        "oracle.verify.s": g["oracle.verify"]["s"],
        "oracle.verify.self_s": g["oracle.verify"]["self_s"],
        "oracle.closure.s": g["oracle.closure"]["s"],
        "oracle.closure.self_s": g["oracle.closure"]["self_s"],
        "oracle.grid_points": c["grid_points"],
        "oracle.points_per_s": c["grid_points"] / oracle_s if oracle_s else 0.0,
        "oracle.term_calls_share": sum(g[k]["oracle_s"] for k in TERM_CALLS) / max(traced_wall, 1e-9),
        "cli.run.s": g["cli.run"]["s"],
        "cli.self_s": g["cli.run"]["self_s"],
        "trace.overhead_ratio": traced_wall / max(wall(untraced), 1e-9),
    }


def rows(run: Run, untraced, traced) -> list:
    """Per-input rows: every corpus file, or the ten slowest closure formulas."""
    ms, traced_ms = typical(untraced, "latency_ms"), typical(traced, "latency_ms")
    info = untraced[0].info
    if run.workload == "cli_corpus":
        layer = {}
        for p in traced:
            for snap in p.traces:
                layer.update(snap["rows"])
        return [{**info[k], "grid": untraced[0].grid, "result_ms": ms.get(k),
                 "traced_result_ms": traced_ms.get(k), **layer.get(k, {})} for k in info]
    if run.workload == "closure_sweep":
        slow = sorted(ms, key=lambda k: -ms[k])[:10]
        return [{"index": k, "formula": info[k]["formula"], "grid": untraced[0].grid,
                 "grid_points": info[k]["points"], "ms": ms[k]} for k in slow if k in info]
    return []


def machine() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit}


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns (result line, run record)."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        run = Run(workload, seed, tiny, Path(work))
        # The first import writes the bytecode cache and is not timed.
        setup_problems = [] if trace else sample_setup(run, 1, timed=False)
        one = cli_pass if workload == "cli_corpus" else worker_pass
        modes = (False, True) if trace else (False,)
        cycle_s = NOMINAL_PASS_S[workload] * (1 + TRACED_PASS_FACTOR if trace else 1)
        planned = max(1, round(seconds / cycle_s))
        passes = []
        begin = time.perf_counter()
        for _ in range(planned):
            last_cycle_s = sum(p.elapsed for p in passes[-len(modes):])
            if passes and (time.perf_counter() - begin + last_cycle_s > OVERRUN * seconds
                           or run.time_left() < last_cycle_s):
                break
            for traced in modes:
                passes.append(one(run, traced))
                # Set-up is timed a few times after every pass, so that its
                # median covers the same stretch of time as the passes.
                if not trace:
                    setup_problems += sample_setup(run, -(-SETUP_SAMPLES // planned))
        err = run.work / "stderr.txt"
        stderr_tail = err.read_text(errors="replace")[-2000:] if err.exists() else ""
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    setup_s = statistics.median(run.setup_s) if run.setup_s else None
    metrics = per_layer(traced, untraced) if trace else end_to_end(untraced, setup_s)
    attempted = sum(p.ops for p in passes) + len(setup_problems)
    problems = setup_problems + [pr for p in passes for pr in p.problems]
    failed = len(problems)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "tiny": tiny,
        "machine": machine(),
        "operation_grid": untraced[0].grid,
        "operations_per_pass": untraced[0].ops,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "pass_wall_s": [sum(p.units.values()) for p in passes],
        "latency": {f"p{p}": v for p, v in latency_percentiles(untraced).items()},
        "setup_samples": len(run.setup_s),
        "failed_ratio": failed / attempted,
        "problems": problems[:20],
        "rows": rows(run, untraced, traced) if trace else [],
        "stderr_tail": stderr_tail if problems else "",
    }
    line = {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    return line, record


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def with_units(metrics: dict, trace: bool) -> dict:
    units = declared_metrics(trace)
    if set(units) != set(metrics):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def missing_inputs() -> list:
    need = [SRC / "nsdial" / "cli.py", FIXTURES / "corpus", FIXTURES / "negative",
            FIXTURES / "golden", ROOT / "BENCHMARK.json"]
    return [str(p.relative_to(ROOT)) for p in need if not p.exists()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still kills and waits for its child (see ``Run.spawn``).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    missing = missing_inputs()
    if missing:
        print(f"perfbench: run from a checkout of the repository; missing {missing}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    if args.workload != "all":
        line, record = measure(args.workload, args.seed, args.seconds, trace)
        line["metrics"] = with_units(line["metrics"], trace)
        print(json.dumps(record, sort_keys=True))
        print(json.dumps(line))
        return 0
    for workload in WORKLOADS:
        line, record = measure(workload, args.seed, args.seconds, trace)
        print(f"{workload}: attempted {line['attempted']}, failed_ratio {record['failed_ratio']}")
        for name, m in with_units(line["metrics"], trace).items():
            print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
