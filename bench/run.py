"""Benchmark of the concept_interference package: one workload per run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload table-scale --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): ``table-scale`` and ``many-small``.  Inputs are made from ``--seed`` and written to disk before
any timing; tables then go through solve, verify, classify and render in a
closed loop with one caller until ``--seconds`` of command time is spent.
Every output is checked (checks.py); an operation fails on an unexpected
exit code, an unexpected exception or a failed check.  The error rate is
``failed / attempted``.

``setup_s`` is the wall time of a fresh interpreter importing the package.
``<command>_s``, ``tables_per_s`` and ``table_ms.*`` time each command's own
work: ``cli.main`` in this process for the CLI workloads (the start-to-exit
wall time of the same command in a fresh child, run once per table before
timing, is printed beside it), and the library path for ``many-small``.
``peak_rss_mb`` is the largest ``ru_maxrss`` of the run's child processes
(of this process for ``many-small``).

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` is the traced run: it replays each command in-process with a
span around every call into the package and reports the per-layer metrics,
each span name's median self time per call, and the tracing overhead.
Metric names and units come from BENCHMARK.json.  Human-readable lines come
first; the last line of standard output is the JSON result.  Spans, raw
timing samples and output digests are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

import numpy as np

import workloads
from workloads import COMMANDS, ROOT

OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "workloads": [w["name"] for w in spec["workloads"]],
    }


def _median(values) -> float | None:
    return statistics.median(values) if values else None


def end_to_end(tally: workloads.Tally, setup_s: list[float]) -> dict:
    values = {"setup_s": statistics.median(setup_s)}
    for command in COMMANDS:
        values[f"{command}_s"] = _median(tally.command_s[command])
    table_s = tally.table_s
    values["tables_per_s"] = len(table_s) / sum(table_s) if table_s else None
    if table_s:
        # p90, not p99: a table-scale run holds some 30 tables, so its p99 is
        # the single slowest one, and p99 of many-small follows the machine's
        # stalls.
        p50, p90 = np.percentile(np.array(table_s) * 1e3, [50, 90])
        values["table_ms.p50"], values["table_ms.p90"] = float(p50), float(p90)
    values["peak_rss_mb"] = tally.maxrss_kb / 1024.0
    return values


def per_layer(result: workloads.TraceResult) -> dict:
    values = {f"{name}.s": _median(times) for name, times in result.tracer.self_times_by_name().items()}
    values.update(result.peaks)
    values.update({name: _median(counts) for name, counts in result.counts.items()})
    values["cli.report_bytes"] = _median(result.tally.report_bytes)
    values["solver.infeasible"] = result.tally.infeasible
    values["cli.main.s"] = _median([sum(m.values()) for m in result.main_s])
    values["cli.startup.s"] = _median(
        [sum(wall - main for wall, main in times.values()) for times in result.children]
    )
    values["trace.overhead.s"] = _median(result.overhead_s)
    return values


def print_untraced(workload, tally, setup_s, values, units) -> None:
    print(f"workload {workload.name}: {len(tally.table_s)} tables, {tally.attempted} operations")
    print(f"  error_rate = {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4g}")
    counts = {c: len(tally.command_s[c]) for c in COMMANDS}
    print(f"  samples: setup {len(setup_s)}, per command {counts}, tables {len(tally.table_s)}")
    for command, walls in tally.wall_s.items():
        if walls:
            print(f"  {command} cold child wall, start to exit: median {statistics.median(walls)!r} s")
    if tally.planted:
        print(f"  planted-infeasible tables {tally.planted}, rejected as infeasible {tally.infeasible}")
    for name, unit in units.items():
        print(f"  {name} = {values.get(name)!r} {unit}")


def print_traced(result: workloads.TraceResult, values, units) -> None:
    tracer, tally = result.tracer, result.tally
    print(f"traced run: {len(tracer.spans)} spans, {tally.attempted} operations, {tally.failed} failed")
    print(f"  solver.infeasible {tally.infeasible} of {tally.planted} planted")
    for children, mains, replays in zip(result.children, result.main_s, result.replay_s):
        for c in COMMANDS:
            wall, child_main = children[c]
            print(
                f"  {c:<8} untraced: child wall {wall:.4f} s (cli.main {child_main:.4f} s), "
                f"in-process cli.main {mains[c]:.4f} s; traced: span self times sum "
                f"{replays[c]:.4f} s (overhead {replays[c] - mains[c]:+.4f} s)"
            )
    by_name = tracer.self_times_by_name()
    total = sum(sum(times) for times in by_name.values())
    print(f"  span self times ({total:.4f} s traced):")
    for name, times in sorted(by_name.items(), key=lambda item: -sum(item[1])):
        print(
            f"    {name:<36} calls {len(times):>7}  median {statistics.median(times):.3e} s"
            f"  total {sum(times):.4f} s ({sum(times) / total:6.1%})"
        )
    for name, unit in units.items():
        print(f"  {name} = {values.get(name)!r} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = declared_metrics()
    if args.workload not in declared["workloads"]:
        parser.error(f"--workload must be one of {declared['workloads']}")
    workloads.import_package()
    workload = workloads.make_workload(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK_DIR / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.trace:
            result = workloads.run_traced(workload, args.seconds, workdir)
            tally = result.tally
            units = declared["per_layer"]
            values = per_layer(result)
            print_traced(result, values, units)
            result.tracer.write_jsonl(OUT_DIR / f"spans-{tag}.jsonl")
        else:
            tally, setup_s = workloads.run_untraced(workload, args.seconds, workdir)
            units = declared["end_to_end"]
            values = end_to_end(tally, setup_s)
            print_untraced(workload, tally, setup_s, values, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (OUT_DIR / f"digests-{tag}.json").write_text(json.dumps(tally.digests, indent=1), encoding="utf-8")
    if not args.trace:
        samples = {"setup_s": setup_s, "table_s": tally.table_s, **tally.command_s}
        samples.update({f"{c}_wall_s": walls for c, walls in tally.wall_s.items()})
        (OUT_DIR / f"samples-{tag}.json").write_text(json.dumps(samples), encoding="utf-8")
    for problem in tally.problems[:20]:
        print(f"  FAILED {problem}")
    correct = tally.failed == 0 and tally.infeasible == tally.planted
    missing = [name for name in units if values.get(name) is None]
    if missing:
        print(f"  no value for {missing}", file=sys.stderr)
        correct = False
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
        if values.get(name) is not None
    }
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
