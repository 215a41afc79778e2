"""``python3 -m perf run | trace | compare`` — see ``perf/README.md``."""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import traceback
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from perf import CHILD_ENV, ROOT, SRC

BENCHMARK = ROOT / "BENCHMARK.json"

#: ``--quick``: enough to see every name, too short to compare
QUICK_SECONDS = 2.0

#: where ``python3 -m perf trace`` writes its span files unless told otherwise
TRACE_OUT = ".perf-out"

#: starts the line that repeats every figure a run measured, for ``results.json``
MEASURED = "measured: "


def load_benchmark() -> dict:
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))


def _result_line(benchmark: dict, outcome, trace: bool) -> dict:
    """The contract's last line: every metric of the traced or untraced list.

    The contract wants a number under every per-layer name, so a layer
    the workload does not exercise reads 0.0 here; the ``measured:`` line
    above the result has only what was measured, and ``results.json``
    keeps only that. A run that broke off reports what it had by then.
    """
    metrics = {}
    for metric in benchmark["per_layer" if trace else "end_to_end"]:
        stat = outcome.stats.get(metric["name"])
        if stat is None:
            if outcome.failures:
                continue
            if not trace:
                raise KeyError(f"workload did not report {metric['name']}")
        value = 0.0 if stat is None else stat.value
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    failed = outcome.attempted if outcome.failures else 0
    return {
        "correct": not outcome.failures,
        "attempted": max(1, int(outcome.attempted)),
        "failed": int(failed),
        "metrics": metrics,
    }


def _print_outcome(benchmark: dict, name: str, outcome, trace: bool) -> None:
    units = {
        metric["name"]: metric["unit"]
        for metric in benchmark["end_to_end"] + benchmark["per_layer"]
    }
    gated = {metric["name"] for metric in benchmark["end_to_end"]}
    print(f"== {name} ({'traced' if trace else 'untraced'})")
    for metric, stat in sorted(
        outcome.stats.items(), key=lambda item: (item[0] not in gated, item[0])
    ):
        spread = (
            f"  [{stat.q1:.6g} .. {stat.q3:.6g}]  n={stat.n}"
            if stat.q1 is not None
            else (f"  n={stat.n}" if stat.n > 1 else "")
        )
        print(f"  {metric:<42} {stat.value:>14.6g} {units.get(metric, ''):<10}{spread}")
    for note in outcome.notes:
        print(f"  note: {note}")
    for failure in outcome.failures:
        print(f"  FAILED: {failure}")


def run_one(args: argparse.Namespace) -> int:
    """One workload in this process; the last stdout line is the result."""
    from perf import layers, procs, workloads
    from perf.measure import Calibrator
    from perf.spans import Recorder

    benchmark = load_benchmark()
    name = args.workload[0]
    trace = bool(args.trace)
    recorder = Recorder(enabled=trace)
    cores = procs.Cores.split()
    with Calibrator(workloads.CALIBRATION.get(name, "interp"), cores.bench) as calib:
        plan = workloads.Plan(
            name=name,
            seed=args.seed,
            seconds=QUICK_SECONDS if args.quick else args.seconds,
            setup_samples=1 if args.quick else workloads.SETUP_SAMPLES,
            trace=trace,
            cores=cores,
            calib=calib,
            recorder=recorder,
        )
        # Probes and in-process workloads run on the core calibration uses;
        # a load driver moves off it, to leave that core to the server.
        os.sched_setaffinity(0, {cores.bench})
        shared: Dict[str, float] = {}
        if trace:
            started = perf_counter()
            shared = layers.probe(recorder, workloads.SIM_NODES["vectorized"])
            os.sched_setaffinity(0, {cores.driver})
            shared["serve.loadgen.ceiling_decisions_per_s"] = workloads.loadgen_ceiling(plan)
            if name not in workloads.SERVE:
                shared["client.ceiling_decisions_per_s"] = workloads.driver_ceiling(
                    workloads.SERVE["serve_hot"], plan
                )
                os.sched_setaffinity(0, {cores.bench})
            # The probes are part of a traced run's time, not extra to it.
            spent = perf_counter() - started
            plan = replace(plan, seconds=max(plan.seconds * 0.4, plan.seconds - spent))
        elif name in workloads.SERVE:
            os.sched_setaffinity(0, {cores.driver})
        try:
            outcome = workloads.RUNNERS[name](plan)
        except Exception as error:  # a lost response, a stall, a dead server
            # The run still ends with a result line, so that whoever
            # collects runs counts it as failed instead of missing it.
            traceback.print_exc()
            outcome = workloads.Outcome(attempted=1)
            outcome.failures.append(f"the workload broke off: {error!r}")
    for metric, value in shared.items():
        outcome.put(metric, value)
    cpu_us = outcome.stats.get("serve.server.cpu_us")
    if trace and cpu_us is not None and not outcome.failures:
        chain = ("wire.parse", "limiter.batch", "wire.encode_decisions")
        outcome.put(
            "serve.server.residual_us",
            cpu_us.value - sum(shared[f"serve.{part}_us"] for part in chain),
        )
    if args.out and trace:
        recorder.dump(Path(args.out) / f"trace_{name}.json")
    _print_outcome(benchmark, name, outcome, trace)
    if args.quick:
        print("  (--quick: not comparable with full runs)")
    print(MEASURED + json.dumps({k: stat.value for k, stat in outcome.stats.items()}))
    print(json.dumps(_result_line(benchmark, outcome, trace)))
    return 1 if outcome.failures else 0


def environment() -> dict:
    import numpy

    from perf.measure import CALIB_REF_S, Calibrator

    facts = {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    for kind, ref_s in CALIB_REF_S.items():
        with Calibrator(kind, min(os.sched_getaffinity(0))) as calib:
            fastest = min(calib() for _ in range(5))
        facts[f"calib_{kind}_ms"] = round(fastest * ref_s * 1e3, 3)
        facts[f"calib_{kind}_ref_ms"] = ref_s * 1e3
    return facts


def run_many(args: argparse.Namespace) -> int:
    """Each workload in its own child, ``--repeat`` times; optionally saved."""
    benchmark = load_benchmark()
    names = args.workload or [w["name"] for w in benchmark["workloads"]]
    runs: List[dict] = []
    status = 0
    for repeat in range(args.repeat):
        for name in names:
            argv = [
                sys.executable, "-m", "perf", "run", "--workload", name,
                "--seed", str(args.seed + repeat), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]  # fmt: skip
            if args.quick:
                argv.append("--quick")
            if args.out:
                argv += ["--out", args.out]
            started = perf_counter()
            child = subprocess.run(
                argv, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE, text=True
            )
            lines = child.stdout.strip().splitlines()
            if lines and lines[-1].startswith("{"):
                result = json.loads(lines.pop())
            else:  # died without a result: a failed run, not a missing one
                result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            measured = {}
            if lines and lines[-1].startswith(MEASURED):
                measured = json.loads(lines.pop()[len(MEASURED) :])
                # the zeros that stand for layers the workload did not exercise
                for metric in set(result["metrics"]) - set(measured):
                    del result["metrics"][metric]
            print("\n".join(lines))
            print(f"  ({perf_counter() - started:.1f} s, exit {child.returncode})")
            status = status or child.returncode
            runs.append(
                {
                    "workload": name, "seed": args.seed + repeat, "trace": args.trace,
                    **result, "measured": measured,
                }  # fmt: skip
            )
    if args.out:
        path = Path(args.out) / "results.json"
        document = json.loads(path.read_text()) if path.exists() else {"sets": []}
        document["sets"].append({"env": environment(), "quick": args.quick, "runs": runs})
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=1), encoding="utf-8")
        print(f"result set {len(document['sets']) - 1} written to {path}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perf", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    for command in ("run", "trace"):
        sub = commands.add_parser(command)
        sub.add_argument("--workload", action="append", default=[])
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument("--seconds", type=float, default=None)
        sub.add_argument("--trace", type=int, choices=(0, 1), default=int(command == "trace"))
        sub.add_argument("--repeat", type=int, default=1)
        sub.add_argument("--quick", action="store_true")
        sub.add_argument("--out", default=TRACE_OUT if command == "trace" else None)
    setup = commands.add_parser("setup")  # internal: one set-up sample, then wait
    setup.add_argument("--workload", required=True)
    setup.add_argument("--seed", type=int, default=1)
    compare = commands.add_parser("compare")
    compare.add_argument("parent")
    compare.add_argument("change")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir() or not BENCHMARK.is_file():
        print(f"perf: no system to measure under {ROOT} (src/repro missing)", file=sys.stderr)
        return 2
    # A terminated harness must still unwind its ``with`` blocks, which
    # is where the servers it launched are killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.command == "compare":
        from perf.compare import compare_files

        return compare_files(load_benchmark(), args.parent, args.change)
    if args.command == "setup":
        from perf import workloads

        workloads.SETUPS[args.workload](args.seed)
        print("ready", flush=True)
        signal.pause()
        return 0
    if args.seconds is None:
        args.seconds = float(load_benchmark()["run_seconds"])
    if len(args.workload) == 1 and args.repeat == 1:
        return run_one(args)
    return run_many(args)


if __name__ == "__main__":
    sys.exit(main())
