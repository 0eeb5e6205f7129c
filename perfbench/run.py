"""Benchmark for fmaf: four workloads, timed end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload casestudy --seed 0 --seconds 20 --trace 0

``--workload`` is one of casestudy, seed-sweep, oracle, frontend, or
``all`` to run the four in turn in this one process.  ``--seed`` makes
every generated input; ``--seconds`` is how long the rounds run;
``--trace 1`` reports the per-layer metrics instead of the end-to-end
ones.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUPS_PER_RUN = 5
WORKLOADS = ("casestudy", "seed-sweep", "oracle", "frontend")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def end_to_end(setup_s, rounds, pipeline) -> dict:
    def stage(name):
        return _median([r.t.get(name, 0.0) for r in rounds])

    def per_s(name):
        return _median([_rate(r.n.get(name, 0), r.t.get(name, 0.0)) for r in rounds])

    return {
        "setup_s": (_median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pipeline_s": (_median([pipeline(r) for r in rounds]), "s"),
        "cli_ms": (_median([ms for r in rounds for ms in r.cli_ms]), "ms"),
        "fault_runs_per_s": (per_s("fault"), "runs/s"),
        "nominal_runs_per_s": (per_s("nominal"), "runs/s"),
        "enumerate_s": (stage("enumerate"), "s"),
        "verdict_flat_s": (stage("verdict_flat"), "s"),
        "verdict_forked_s": (stage("verdict_forked"), "s"),
        "serialize_s": (stage("serialize"), "s"),
        "export_s": (stage("export"), "s"),
    }


def per_layer(setup_layers, rounds, pipeline) -> dict:
    traced = [r for r in rounds if r.layers is not None]
    plain = [r for r in rounds if r.layers is None]

    def self_s(name):
        return _median([r.layers[0].get(name, 0.0) for r in traced])

    def calls(name):
        return _median([r.layers[1].get(name, 0) for r in traced])

    def count(name):
        return _median([r.layers[2].get(name, 0) for r in traced])

    def total(name):
        return sum(r.layers[2].get(name, 0) for r in traced)

    parse_s = sum(r.layers[0].get("dsl.parse", 0.0) for r in traced)
    run_s = sum(r.layers[0].get("simulator.run", 0.0) for r in traced)
    main_ms = _median([ms for r in traced for ms in r.layers[3]])
    cli_ms = _median([ms for r in rounds for ms in r.cli_wall_ms])
    untraced = _median([pipeline(r) for r in plain])
    return {
        "dsl.parse_s": (self_s("dsl.parse"), "s"),
        "dsl.parse_lines_per_s": (_rate(total("dsl.lines"), parse_s), "lines/s"),
        "dsl.serialize_s": (self_s("dsl.serialize"), "s"),
        "model.build_model_s": (self_s("model.build_model"), "s"),
        "model.activities": (count("model.activities"), "count"),
        "checker.check_s": (self_s("checker.check"), "s"),
        "checker.check_calls": (calls("checker.check"), "count"),
        "simulator.run_s": (self_s("simulator.run"), "s"),
        "simulator.events": (count("simulator.events"), "count"),
        "simulator.events_per_s": (_rate(total("simulator.events"), run_s), "events/s"),
        "simulator.compute_metrics_s": (self_s("simulator.compute_metrics"), "s"),
        "simulator.format_trace_s": (self_s("simulator.format_trace"), "s"),
        "simulator.trace_bytes": (count("simulator.trace_bytes"), "bytes"),
        "simulator.enumerate_s": (self_s("simulator.enumerate_outcomes"), "s"),
        "simulator.enumerate_leaves": (count("simulator.enumerate_leaves"), "count"),
        "viewgen.project_s": (self_s("viewgen.project"), "s"),
        "viewgen.to_dot_s": (self_s("viewgen.to_dot"), "s"),
        "viewgen.dot_bytes": (count("viewgen.dot_bytes"), "bytes"),
        "casestudy.load_bundle_s": (_median([s.get("casestudy.load_bundle", 0.0)
                                             for s in setup_layers]), "s"),
        "cli.main_ms": (main_ms, "ms"),
        "cli.startup_ms": (cli_ms - main_ms, "ms"),
        "trace.overhead_pct": (
            100.0 * (_median([pipeline(r) for r in traced]) / untraced - 1.0) if untraced else 0.0,
            "%"),
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans
    import workloads
    from checks import CheckFailed
    from speed import Speed

    work = ROOT / ".bench_build" / "perfbench" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = workloads.Env(ROOT, work)
    tracer = spans.Tracer() if trace else None
    speed = Speed()
    setup_s: list[float] = []
    setup_layers: list[dict] = []
    rounds: list = []
    wl = None
    correct = True

    def pipeline(r) -> float:
        return sum(r.t.get(stage, 0.0) for stage in workloads.PIPELINE)

    try:
        env.warm()
        for _ in range(SETUPS_PER_RUN):
            if wl is not None:
                wl.close()
                wl = None
            gc.collect()
            if tracer is not None:
                tracer.reset()
                tracer.install()
            speed.sample()
            start = perf_counter()
            try:
                wl = workloads.SETUPS[name](env, seed)
            finally:
                end = perf_counter()
                speed.sample()
                setup_s.append((end - start) * speed.scale(start, end))
                if tracer is not None:
                    tracer.uninstall()
                    setup_layers.append(dict(tracer.self_s))
        # Rounds alternate untraced and traced when tracing, so both exist.
        begin = perf_counter()
        while len(rounds) < (2 if tracer else 1) or perf_counter() - begin < seconds:
            traced = tracer is not None and len(rounds) % 2 == 1
            rec = workloads.Round(speed)
            gc.collect()
            if traced:
                tracer.reset()
                tracer.install()
                rec.tracer = tracer
            speed.sample()
            try:
                wl.round(rec, first=not rounds)
            finally:
                speed.sample()
                if traced:
                    tracer.uninstall()
                    rec.tracer = None
                    rec.layers = (dict(tracer.self_s), dict(tracer.calls), dict(tracer.counts),
                                  tracer.main_ms)
            rec.finish()
            rounds.append(rec)
    except CheckFailed as exc:
        correct = False
        print(f"perfbench: {name}: check failed: {exc}", file=sys.stderr)
    except Exception:  # an exception escaping the program is a wrong output
        correct = False
        traceback.print_exc()
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    if rounds:
        if tracer is None:
            metrics = end_to_end(setup_s, rounds, pipeline)
        else:
            metrics = per_layer(setup_layers, rounds, pipeline)
    return {
        "correct": correct and bool(rounds),
        "attempted": max(1, sum(r.attempted for r in rounds)),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "fmaf" / "__init__.py").is_file():
        print(f"perfbench: no fmaf package under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import fmaf

    if Path(fmaf.__file__).resolve() != (src / "fmaf" / "__init__.py").resolve():
        print(f"perfbench: imported fmaf from {fmaf.__file__}, not from {src}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
        if len(names) > 1:
            # The process's peak covers every workload run so far, so with
            # several workloads it is reported once, for the whole process.
            rss = results[name]["metrics"].pop("peak_rss_mb", None)
            print(json.dumps({"workload": name, **results[name]}))
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
        if rss is not None:
            result["metrics"]["peak_rss_mb"] = rss
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
