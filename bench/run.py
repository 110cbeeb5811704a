"""fldp benchmark: one workload per process, a closed loop at workers=1.

    python3 bench/run.py --workload demo --seed 0 --seconds 28 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. Each process sets up its workload several times (``setup_s`` is
the median), then for ``--seconds`` repeats one operation at a time and
checks every result. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is ``{"report": {...}}``: provenance, the workload's
parameters, every sample and every failed check. ``--trace 0`` reports the
end-to-end metrics, with every time rescaled to a nominal host speed
(``hostspeed.py``); ``--trace 1`` reports the per-layer metrics of a
separate traced pass (see README.md). ``--minimal`` shrinks every workload for the
self-test. Artifacts go to a temporary directory under ``.bench_build/``
that is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import layers
from hostspeed import HostSpeed
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
perf = time.perf_counter

# name -> (unit, better); the order is the order of the result line.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "epsilon_ms": ("ms", "lower"),
    "calibrate_s": ("s", "lower"),
}

# Set-ups per run, spread evenly over it (paper_round's population takes
# seconds to generate), and the fewest units of work a run makes: two
# simulations for the determinism check, or 15 accountant cycles, so that
# the p90 of the 105 queries has ten samples beyond it.
SETUPS = {"demo": 10, "paper_round": 2, "attention_epochs": 10, "accountant": 30}
MIN_UNITS = {"demo": 2, "paper_round": 2, "attention_epochs": 2, "accountant": 15}
MIN_TRACED_UNITS = 2
# A simulation workload asks the accountant about its own point between
# simulations while that has taken less than ASK_SHARE of the run, so the
# asks are spread over the run's host phases; then it tops up to ASK_MIN.
# Single queries and single calibrations vary by 10-25% between runs.
ASK_SHARE = {"epsilon_ms": 0.05, "calibrate_s": 0.05}
ASK_MIN = {"epsilon_ms": 9, "calibrate_s": 2}
# Fewest samples behind each reported figure; the report says if it was met.
MIN_SAMPLES = {"throughput_per_s": 5, "epsilon_ms": 9, "epsilon_ms_p90": 100,
               "calibrate_s": 2}


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "fldp" / "__init__.py").is_file():
        sys.exit(f"fldp sources not found under {src}")
    sys.path.insert(0, str(src))


class Run:
    """State of one benchmark process: budget, attempts, failures, samples."""

    def __init__(self, args, out_dir: Path):
        self.args = args
        self.out_dir = out_dir
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.samples: dict[str, list[float]] = {}
        self.spans: dict[str, list[tuple]] = {}
        self.notes: dict[str, object] = {}
        self.start = perf()

    def elapsed(self) -> float:
        return perf() - self.start

    def record(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(failures)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def timed(self, name: str, span: tuple, work: float | None = None) -> None:
        """Keep a span of ``HostSpeed``; ``work`` makes it a rate."""
        self.spans.setdefault(name, []).append((span, work))

    def normalise(self, speed: HostSpeed) -> None:
        """Turn the kept spans into raw and host-normalised samples."""
        for name, spans in self.spans.items():
            scale = 1e3 if name.endswith("_ms") else 1.0
            for span, work in spans:
                raw, norm = span[2] * scale, speed.normalise(span) * scale
                if work is not None:
                    raw, norm = work / raw, work / norm
                self.sample(f"{name}.raw", raw)
                self.sample(name, norm)


# -- untraced pass: end-to-end metrics ------------------------------------------


def _loop(run: Run, name: str, speed: HostSpeed, setup, unit):
    """Run units of work until --seconds have passed and MIN_UNITS are done.

    ``setup()`` returns the state that ``unit(state)`` works on; set-ups are
    spread evenly over the run.
    """
    setups, units = (2, 2) if run.args.minimal else (SETUPS[name], MIN_UNITS[name])
    seconds = run.args.seconds
    state = None
    done = 0
    run.start = perf()
    while done < units or run.elapsed() < seconds:
        made = len(run.spans.get("setup_s", ()))
        if made < setups and run.elapsed() >= made * seconds / setups:
            state = None  # free the previous population before building another
            mark = speed.mark()
            state = setup()
            run.timed("setup_s", speed.span(mark))
        unit(state)
        done += 1


def measure_simulation(run: Run, name: str, speed: HostSpeed) -> None:
    """Simulations back to back. Between them, privacy queries and
    calibrations at the run's own point, as ``fldp accountant`` answers
    them, within ASK_SHARE of the run's time and at least ASK_MIN of each."""
    import workloads as w
    from fldp import accountant

    raw = w.sim_mapping(name, ROOT, run.args.seed, run.args.minimal)
    run.notes["params"] = raw
    checker = w.SimChecker(raw["federation"]["rounds"])
    report = {}

    def query() -> None:
        point = w.privacy_point(report)
        mark = speed.mark()
        answer = accountant.epsilon_for(*point)
        run.timed("epsilon_ms", speed.span(mark))
        want = checker.expected_epsilon(point)
        run.record([] if float(answer[0]) == want else [f"epsilon_for{point} changed"])

    def calibrate() -> None:
        target = (report["epsilon"], *w.privacy_point(report)[1:])
        mark = speed.mark()
        z = accountant.calibrate_noise(*target)
        run.timed("calibrate_s", speed.span(mark))
        run.record(w.AccountantChecker.check_calibration(z, target))

    asks = {"epsilon_ms": query, "calibrate_s": calibrate}
    spent = dict.fromkeys(asks, 0.0)

    def ask(metric: str) -> None:
        start = perf()
        asks[metric]()
        spent[metric] += perf() - start

    def unit(state):
        rc, population = state
        mark = speed.mark()
        w.simulate(rc, population, run.out_dir)
        span = speed.span(mark)
        updates, failures, report_now = checker.check_run(run.out_dir)
        run.record(failures)
        run.timed("throughput_per_s", span, updates)
        report.update(report_now)
        for metric in asks:
            while spent[metric] <= ASK_SHARE[metric] * run.elapsed():
                ask(metric)

    _loop(run, name, speed, lambda: w.sim_setup(raw), unit)
    for metric in asks:
        while len(run.spans.get(metric, ())) < ASK_MIN[metric]:
            ask(metric)


def measure_accountant(run: Run, speed: HostSpeed) -> None:
    """Cycles of the seven queries, each cycle followed by one calibration."""
    import workloads as w
    from fldp import accountant

    run.notes["params"] = {"queries": w.accountant_setup(ROOT, run.args.seed),
                           "calibrate": w.CALIBRATE_TARGET}
    checker = w.AccountantChecker()

    def unit(queries):
        for query in queries:
            mark = speed.mark()
            answer = accountant.epsilon_for(*query[:4])
            run.timed("epsilon_ms", speed.span(mark))
            run.record(checker.check_query(query, answer))
        mark = speed.mark()
        z = accountant.calibrate_noise(*w.CALIBRATE_TARGET)
        run.timed("calibrate_s", speed.span(mark))
        run.record(checker.check_calibration(z, w.CALIBRATE_TARGET))

    _loop(run, "accountant", speed, lambda: w.accountant_setup(ROOT, run.args.seed), unit)


def end_to_end(run: Run) -> dict[str, float]:
    """Medians of host-normalised samples; see README.md."""
    s = run.samples
    if "throughput_per_s" not in s:  # accountant: queries per second of a cycle
        n = len(run.notes["params"]["queries"])
        eps = s["epsilon_ms"]
        s["throughput_per_s"] = [1e3 * n / sum(eps[i:i + n]) for i in range(0, len(eps), n)]
    return {
        "setup_s": statistics.median(s["setup_s"]),
        "throughput_per_s": statistics.median(s["throughput_per_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "epsilon_ms": statistics.median(s["epsilon_ms"]),
        "calibrate_s": statistics.median(s["calibrate_s"]),
    }


def sample_summary(run: Run) -> dict[str, dict]:
    """Sample count behind each figure, whether it met MIN_SAMPLES, and the
    p90 of epsilon_for latency where a run has the samples for it."""
    s = run.samples
    summary = {}
    for figure, name in (("throughput_per_s", "throughput_per_s"),
                         ("epsilon_ms", "epsilon_ms"),
                         ("epsilon_ms_p90", "epsilon_ms"),
                         ("calibrate_s", "calibrate_s")):
        n = len(s[name])
        summary[figure] = {"samples": n, "minimum": MIN_SAMPLES[figure],
                           "met": n >= MIN_SAMPLES[figure]}
    if summary["epsilon_ms_p90"]["met"]:
        summary["epsilon_ms_p90"]["value"] = statistics.quantiles(s["epsilon_ms"], n=10)[-1]
    return summary


# -- traced pass: per-layer metrics ---------------------------------------------


def accountant_answers(queries, target) -> dict[str, float]:
    """epsilon and order per query plus the calibrated z, for drift checks."""
    from fldp import accountant

    flat = {}
    for z, q, t, delta, _ in sorted(queries, key=lambda q: q[:4]):
        eps, order = accountant.epsilon_for(z, q, t, delta)
        flat[f"epsilon@{z},{q},{t}"] = float(eps)
        flat[f"order@{z},{q},{t}"] = float(order)
    flat["calibrate.z"] = float(accountant.calibrate_noise(*target))
    return flat


def trace(run: Run, name: str) -> dict[str, float]:
    """Alternate untraced and traced units of work; time layers in the latter."""
    import workloads as w
    from fldp import accountant

    tracer = Tracer(layers.targets())
    if name == "accountant":
        with tracer:
            queries = w.accountant_setup(ROOT, run.args.seed)
        run.notes["params"] = {"queries": queries, "calibrate": w.CALIBRATE_TARGET}
        checker = w.AccountantChecker()

        def unit() -> float:
            start = perf()
            failures = []
            for query in queries:
                failures += checker.check_query(query, accountant.epsilon_for(*query[:4]))
            z = accountant.calibrate_noise(*w.CALIBRATE_TARGET)
            elapsed = perf() - start
            run.record(failures + checker.check_calibration(z, w.CALIBRATE_TARGET))
            return elapsed
    else:
        raw = w.sim_mapping(name, ROOT, run.args.seed, run.args.minimal)
        run.notes["params"] = raw
        with tracer:
            rc, population = w.sim_setup(raw)
        sim_checker = w.SimChecker(raw["federation"]["rounds"])

        def unit() -> float:
            elapsed = w.simulate(rc, population, run.out_dir)
            run.record(sim_checker.check_run(run.out_dir)[1])
            return elapsed

    metrics = layers.setup_metrics(tracer)
    run.start = perf()
    per_unit: list[dict[str, float]] = []
    while len(per_unit) < MIN_TRACED_UNITS or run.elapsed() < run.args.seconds:
        run.sample("untraced_unit_s", unit())
        tracer.reset()
        with tracer:
            run.sample("traced_unit_s", unit())
        per_unit.append(layers.unit_metrics(tracer))
    for key in layers.COUNTS:
        if key in per_unit[0] and any(u[key] != per_unit[0][key] for u in per_unit):
            run.record([f"traced count {key} differs between identical units"])
    for key in per_unit[0]:
        values = [u[key] for u in per_unit]
        metrics[key] = values[0] if key in layers.COUNTS else statistics.median(values)
    metrics["trace.overhead_frac"] = (
        statistics.median(run.samples["traced_unit_s"])
        / statistics.median(run.samples["untraced_unit_s"]) - 1.0
    )
    metrics["check.max_rel_drift"] = _drift(run, name)
    run.notes["absent"] = tracer.absent
    run.notes["traced_units"] = len(per_unit)
    return {key: metrics.get(key, 0.0) for key in layers.PER_LAYER}


def reference_path(name: str, minimal: bool) -> Path:
    """--minimal shrinks the simulations only; accountant has one reference."""
    suffix = "-minimal" if minimal and name != "accountant" else ""
    return BENCH / "reference" / f"{name}{suffix}.json"


def _drift(run: Run, name: str) -> float:
    """Largest relative difference from the stored default-seed results."""
    import workloads as w

    path = reference_path(name, run.args.minimal)
    if not path.is_file():
        run.notes["drift"] = f"no reference {path.name}"
        return 0.0
    if name == "accountant":
        queries = w.accountant_setup(ROOT, w.DEFAULT_SEED)
        rows = [accountant_answers(queries, w.CALIBRATE_TARGET)]
    else:
        if run.args.seed != w.DEFAULT_SEED:
            raw = w.sim_mapping(name, ROOT, w.DEFAULT_SEED, run.args.minimal)
            rc, population = w.sim_setup(raw)
            w.simulate(rc, population, run.out_dir)
        rows = w.flatten_records(run.out_dir)
    return w.max_rel_drift(rows, json.loads(path.read_text())["rows"])


# -- provenance -------------------------------------------------------------------


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # Recorded, never set: unset means the library's own default.
        "blas_threads_env": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_sha": _git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "minimal": args.minimal,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(SETUPS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--minimal", action="store_true",
                        help="shrink every workload (self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    _import_program()

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="fldp-bench-", dir=build))
    try:
        run = Run(args, out_dir)
        if args.trace:
            metrics = trace(run, args.workload)
            units = {k: u for k, (u, _) in layers.PER_LAYER.items()}
        else:
            with HostSpeed() as speed:
                if args.workload == "accountant":
                    measure_accountant(run, speed)
                else:
                    measure_simulation(run, args.workload, speed)
            run.normalise(speed)
            metrics = end_to_end(run)
            run.notes["figures"] = sample_summary(run)
            run.notes["host_speed"] = speed.summary()
            units = {k: u for k, (u, _) in END_TO_END.items()}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    report = {
        "provenance": provenance(args),
        "failed_frac": run.failed / run.attempted,
        "failures": run.failures[:20],
        "sample_counts": {k: len(v) for k, v in run.samples.items()},
        "samples": run.samples,
        **run.notes,
    }
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
