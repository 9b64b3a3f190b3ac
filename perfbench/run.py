#!/usr/bin/env python3
"""Benchmark of forceps: closed-loop workloads against the public API.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --workload all --smoke

Run from the repository root; the package is imported from ``src/``.  One
caller in one process runs each op after the previous one returns (closed
loop, ``workers=1``).  ``--trace 0`` times the workload for ``--seconds``
and reports the end-to-end metrics, with times calibrated to a reference
machine speed (see clock.py; raw times are printed too); ``--trace 1`` runs
a fixed number of ops, each once untraced and once traced, and reports the
per-layer metrics.  Every op's answer is checked; the last line of output
is one JSON object and the exit code is 1 when any answer was wrong.  See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

from clock import SpeedLog  # noqa: E402
from layers import METRICS as LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 11
END_TO_END = (
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def import_forceps():
    """A fresh import of the package from ``src/``."""
    if not (SRC / "forceps" / "__init__.py").is_file():
        raise SystemExit(f"forceps sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "forceps" or m.startswith("forceps.")]:
        del sys.modules[name]
    return importlib.import_module("forceps")


class Loop:
    """Closed-loop runs over the workload's ops, with answer tallies."""

    def __init__(self, workload, fp, prepared0, speed: SpeedLog) -> None:
        self.w = workload
        self.fp = fp
        self.speed = speed
        self.prepared = {0: prepared0}
        self.starts = array("d")
        self.latencies = array("d")
        self.seen: dict[tuple[int, int], Counter] = defaultdict(Counter)
        self.errors: list[str] = []

    def _pass(self, p: int) -> tuple[int, list, list]:
        """Key, items and program-side inputs of pass ``p``."""
        key = self.w.pass_key(p)
        if key not in self.prepared:
            self.prepared[key] = self.w.prepare(self.fp, self.w.items(key))
        return key, self.w.items(key), self.prepared[key]

    def _call(self, key: int, i: int, item, prepared) -> float:
        """One op, timed, with its answer tallied; returns its span."""
        t0 = perf_counter()
        try:
            raw = self.w.op(self.fp, item, prepared)
        except Exception as exc:  # a failed op is counted, not fatal
            raw = exc
        dt = perf_counter() - t0
        self.starts.append(t0)
        self.latencies.append(dt)
        if isinstance(raw, Exception):
            self.errors.append(f"op {key}:{i} raised {raw!r}")
        else:
            try:
                self.seen[(key, i)][self.w.digest(raw)] += 1
            except Exception as exc:
                self.errors.append(f"op {key}:{i} returned an unreadable answer: {exc!r}")
        return dt

    def run(self, seconds: float | None = None, ops: int | None = None,
            tracer: Tracer | None = None) -> tuple[float, float]:
        """Run until ``seconds`` pass or ``ops`` ops are done.

        Returns the summed op spans (untraced, traced).  With a tracer each
        op runs twice, untraced and traced in alternating order, so slow
        phases of a shared machine fall on both sides alike.
        """
        p, i = 0, 0
        key, items, prepared = self._pass(0)
        busy = [0.0, 0.0]
        done = 0
        deadline = perf_counter() + seconds if seconds is not None else None
        while True:
            if i == len(items):
                p, i = p + 1, 0
                key, items, prepared = self._pass(p)
            self.speed.tick()
            if tracer is None:
                busy[0] += self._call(key, i, items[i], prepared[i])
            else:
                for traced in ((False, True) if done % 2 == 0 else (True, False)):
                    if traced:
                        tracer.install()
                    try:
                        busy[traced] += self._call(key, i, items[i], prepared[i])
                    finally:
                        if traced:
                            tracer.uninstall()
            i += 1
            done += 1
            if (deadline is not None and perf_counter() >= deadline) or (ops is not None and done >= ops):
                self.speed.record()
                return busy[0], busy[1]

    def calibrated(self) -> list[float]:
        """Op latencies scaled to the reference machine speed."""
        return [lat * self.speed.scale(t0, t0 + lat) for t0, lat in zip(self.starts, self.latencies)]

    def failures(self) -> tuple[int, list[str]]:
        """Wrong answers and exceptions, counted per op."""
        failed = len(self.errors)
        notes = list(self.errors[:5])
        for (key, i), digests in self.seen.items():
            item, prepared = self.w.items(key)[i], self.prepared[key][i]
            for digest, count in digests.items():
                try:
                    ok = self.w.check(self.fp, item, prepared, digest)
                except Exception as exc:
                    ok = False
                    digest = f"{digest!r} (check raised {exc!r})"
                if not ok:
                    failed += count
                    if len(notes) < 5:
                        notes.append(f"wrong answer for op {key}:{i} input {item[1]!r}: {digest!r}")
        return failed, notes


def percentile(values, q: int) -> float:
    """The q-th percentile (exclusive method) of at least two values."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def timing_metrics(lat, setup) -> dict[str, float]:
    return {
        "throughput_ops_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": percentile(lat, 90) * 1e3,
        "setup_s": statistics.median(setup),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    w = WORKLOADS[name](seed, smoke)
    items0 = w.items(0)
    speed = SpeedLog()
    setup = []
    for _ in range(SETUP_REPS):
        speed.record()
        t0 = perf_counter()
        fp = import_forceps()
        prepared0 = w.prepare(fp, items0)
        setup.append((t0, perf_counter() - t0))
    speed.record()
    w.begin(fp)

    print(f"# workload={name} seed={seed} backend={fp.KERNEL_BACKEND} python={platform.python_version()} "
          f"nproc={len(os.sched_getaffinity(0))} smoke={int(smoke)} trace={int(trace)}")
    print("# inputs " + json.dumps(w.header(), sort_keys=True))

    loop = Loop(w, fp, prepared0, speed)
    metrics: dict[str, tuple[float, str]] = {}
    extra: dict[str, tuple[float, str]] = {}
    if trace:
        tracer = Tracer()
        untraced, traced = loop.run(ops=w.trace_ops, tracer=tracer)
        units = {m: u for m, u, _b in LAYER_METRICS}
        for metric, value in tracer.metrics(traced / untraced).items():
            metrics[metric] = (value, units[metric])
        print(f"# ops={w.trace_ops}, each run untraced and traced")
    else:
        loop.run(seconds=seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = dict(END_TO_END)
        calibrated = loop.calibrated()
        scaled_setup = [dt * speed.scale(t0, t0 + dt) for t0, dt in setup]
        for metric, value in timing_metrics(calibrated, scaled_setup).items():
            metrics[metric] = (value, units[metric])
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        for metric, value in timing_metrics(loop.latencies, [dt for _t0, dt in setup]).items():
            extra["raw_" + metric] = (value, units[metric])
        extra["machine_slowdown"] = (speed.slowdown(), "ratio")
        lat = loop.latencies
        print(f"# ops={len(lat)} busy_s={sum(lat):.3f} pool={len(items0)} passes={len(lat) / len(items0):.2f} "
              f"setup_reps={SETUP_REPS} p90_beyond={len(lat) // 10} probes={len(speed.at)}")
        if len(lat) >= 1000:
            extra["latency_p99_ms"] = (percentile(calibrated, 99) * 1e3, "ms")

    failed, notes = loop.failures()
    problems = w.finish(fp)
    attempted = len(loop.latencies)
    for note in notes + problems:
        print(f"# FAIL {note}")
    if hasattr(w, "pass_shares"):
        print("# query pass shares " + json.dumps(w.pass_shares(), sort_keys=True))

    extra["error_rate"] = (failed / attempted, "ratio")
    for metric, (value, unit) in {**metrics, **extra}.items():
        print(f"{metric} {value:.6g} {unit}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, so memory and imports start fresh."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            raise SystemExit(f"workload {name} printed no result (exit code {proc.returncode})") from None
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, same checks")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
