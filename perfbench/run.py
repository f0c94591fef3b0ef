"""The repository benchmark: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload goal-mixed --seed 1 --seconds 15 --trace 0

A run repeats *episodes* (build the service, warm it, serve the seeded
stream, check the decisions) until ``--seconds`` is spent, at least
``MIN_EPISODES`` times, and reports each metric as the median over its
episodes.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced episodes and prints the per-layer metrics
from the traced ones plus the tracing overhead, and writes the spans
under ``.perfbench_out/``.  The last line of standard output is the JSON
result; everything before it is the human-readable report.  The run
fails (``"correct": false``, exit status 1) when an arrival does not get
exactly one terminal decision, when episodes of the same seed disagree on
their decisions (traced or not), or when the process transport disagrees
with an inline run of the same config.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUTPUT = ROOT / ".perfbench_out"

MIN_EPISODES = 3
#: Untraced latency samples a run needs before it may stop: p99.9 then
#: has at least ten samples beyond it.
MIN_SAMPLES = 10_000
#: Traced runs alternate untraced and traced episodes: two of each.
MIN_TRACED_EPISODES = 4
MAX_EPISODES = 40

#: End-to-end metrics with a bound in BENCHMARK.json: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("first_decision_s", "s"),
    ("throughput_rps", "1/s"),
    ("goodput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p999_ms", "ms"),
    ("placed_pct", "%"),
    ("strict_placed_pct", "%"),
    ("goal_met_pct", "%"),
    ("achieved_rel_mean", "ratio"),
    ("admitted_pct", "%"),
    ("cpu_ms_per_req", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Printed beside them but not gated.  p99 sits on a cliff: about 1 % of
#: arrivals share a routing window with a full garbage collection, so a
#: run's p99 lands either on a collection pause or on the ordinary tail.
#: violation_pct and refused_pct can read 0; their complements are gated.
REPORTED = (
    ("latency_p95_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("violation_pct", "%"),
    ("refused_pct", "%"),
)

#: Per-layer metrics measurable in the front-end process; on the process
#: transport every other layer metric comes from the traced inline twin.
FRONT_END_LAYERS = {
    "service.self_s",
    "service.windows",
    "service.window_fill_mean",
    "service.route_max_over_mean",
    "service.retries",
    "service.failovers",
    "service.merge_s",
    "shard.messages",
    "shard.msg_bytes",
    "shard.wire_s",
    "shard.gather_wait_s",
    "supervisor.crashes",
    "supervisor.replayed",
    "admission.screen_calls",
    "admission.screen_s",
    "admission.held_p99_ms",
    "admission.shed",
    "grade.ipc_hit_ratio",
    "lifecycle.migrations",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or name == "grade.s":
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_ratio", "_mean", "max_over_mean")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def median(values):
    return statistics.median(values) if values else 0.0


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SOURCE / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode())
        digest.update(path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=30,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git failed)"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def end_to_end(episodes, peak_rss_mb: float) -> dict:
    """Set-up times are medians over episodes.  Rates are work over time
    summed across episodes, which averages the host's speed drift over
    the whole run.  Latency percentiles pool every episode's samples (a
    window of arrivals shares one terminal time, so one episode's p99 is
    only its third-worst window or so)."""
    from episode import percentile

    pooled = [value for e in episodes for value in e.latencies_ms]
    serve_s = sum(e.serve_s for e in episodes)
    arrivals = sum(e.arrivals for e in episodes)
    first = episodes[0]
    goal = first.goal_arrivals
    refused_pct = 100.0 * first.refused / first.arrivals
    return {
        "setup_s": median([e.setup_s for e in episodes]),
        "first_decision_s": median([e.first_decision_s for e in episodes]),
        "throughput_rps": sum(e.terminal for e in episodes) / serve_s,
        "goodput_rps": sum(e.placed for e in episodes) / serve_s,
        "latency_p50_ms": percentile(pooled, 50.0),
        "latency_p95_ms": percentile(pooled, 95.0),
        "latency_p99_ms": percentile(pooled, 99.0),
        "latency_p999_ms": percentile(pooled, 99.9),
        "placed_pct": 100.0 * first.placed / first.arrivals,
        "strict_placed_pct": 100.0 * first.goal_placed / goal if goal else 0.0,
        "goal_met_pct": 100.0 - first.violation_pct,
        "achieved_rel_mean": first.achieved_rel_mean,
        "admitted_pct": 100.0 - refused_pct,
        "cpu_ms_per_req": 1000.0 * sum(e.cpu_s for e in episodes) / arrivals,
        "peak_rss_mb": peak_rss_mb,
        "violation_pct": first.violation_pct,
        "refused_pct": refused_pct,
    }


def print_end_to_end(metrics: dict, episodes) -> None:
    first = episodes[0]
    samples = [len(e.latencies_ms) for e in episodes]
    counts = {
        "setup_s": f"median of {len(episodes)} set-ups",
        "first_decision_s": f"median of {len(episodes)} cold starts",
        "throughput_rps": f"{first.terminal} terminal decisions x "
        f"{len(episodes)} episodes / summed serve time",
        "goodput_rps": f"{first.placed} placed x {len(episodes)} episodes "
        "/ summed serve time",
        "latency_p50_ms": f"pooled over episodes, {sum(samples)} samples",
        "latency_p95_ms": f"pooled over episodes, {sum(samples) // 20} beyond p95",
        "latency_p99_ms": f"pooled over episodes, {sum(samples) // 100} beyond p99",
        "latency_p999_ms": f"pooled over episodes, {sum(samples) // 1000} beyond p99.9",
        "placed_pct": f"{first.placed} / {first.arrivals} arrivals",
        "strict_placed_pct": f"{first.goal_placed} / {first.goal_arrivals} "
        "goal-bearing arrivals",
        "goal_met_pct": "100 - violation_pct",
        "achieved_rel_mean": f"over {first.placed} placements",
        "admitted_pct": "100 - refused_pct",
        "cpu_ms_per_req": "front end + workers during serve, all episodes",
        "peak_rss_mb": "front end + largest worker",
        "violation_pct": f"of {first.goal_arrivals} goal-bearing arrivals",
        "refused_pct": f"{first.refused} refused or shed by the front end",
    }
    print("end-to-end metrics (untraced episodes):")
    for name, unit in END_TO_END:
        print(f"  {name:<20} {metrics[name]:>14.4f} {unit:<6} {counts[name]}")
    print("also reported, without a bound:")
    for name, unit in REPORTED:
        print(f"  {name:<20} {metrics[name]:>14.4f} {unit:<6} {counts[name]}")
    print(
        "latency, ingest -> terminal vs the program's amortized "
        "decision_seconds (pooled over episodes):"
    )
    print(
        f"  measured  p50 {metrics['latency_p50_ms']:.4f} ms  "
        f"p99 {metrics['latency_p99_ms']:.4f} ms"
    )
    print(
        f"  amortized p50 {median([e.amortized_p50_ms for e in episodes]):.4f} ms  "
        f"p99 {median([e.amortized_p99_ms for e in episodes]):.4f} ms  "
        "(FleetReport.latency_percentiles_ms, median over episodes)"
    )


def run_episodes(workload, seed: int, stream, seconds: float, traced_run: bool, started: float):
    """Episodes until the budget is spent (alternating untraced and traced
    ones in a traced run), with at least the minimum count and samples."""
    from episode import run_episode

    minimum = MIN_TRACED_EPISODES if traced_run else MIN_EPISODES
    episodes = []
    walls = []
    while len(episodes) < MAX_EPISODES:
        traced = traced_run and len(episodes) % 2 == 1
        # The previous episode's garbage is collected before this one is
        # timed, not at some random point inside it.
        gc.collect()
        began = perf_counter()
        episode = run_episode(workload, seed, stream, traced=traced)
        walls.append(perf_counter() - began)
        episodes.append(episode)
        print(
            f"  episode {len(episodes)}{' traced' if traced else ''}: "
            f"setup {episode.setup_s:.3f} s, serve {episode.serve_s:.3f} s, "
            f"{episode.throughput_rps:.1f} arrivals/s, "
            f"p50 {episode.latency_p50_ms:.3f} ms, "
            f"p99 {episode.latency_p99_ms:.3f} ms, "
            f"digest {episode.digest[:12]}"
        )
        # Stop before the next episode would overrun the budget, leaving
        # room for the twin run when there is one.
        spent = perf_counter() - started
        upcoming = median(walls) * (1 if workload.twin is None else 2)
        samples = sum(len(e.latencies_ms) for e in episodes if not e.traced)
        if (
            len(episodes) >= minimum
            and samples >= MIN_SAMPLES
            and spent + upcoming > seconds
        ):
            break
    return episodes


def check_decisions(workload, seed: int, stream, episodes, traced_run: bool):
    """Correctness across episodes and transports; returns (errors, twin)."""
    from episode import run_episode

    errors = [
        f"episode {i + 1}: {error}"
        for i, ep in enumerate(episodes)
        for error in ep.errors
    ]
    if len({ep.digest for ep in episodes}) > 1:
        errors.append(
            "episodes of one seed disagree on decisions "
            + ("(traced vs untraced) " if traced_run else "")
            + ", ".join(
                f"{i + 1}{'t' if ep.traced else ''}:{ep.digest[:12]}"
                for i, ep in enumerate(episodes)
            )
        )
    if workload.twin is None:
        return errors, None
    # On the process transport the worker-side layers are only
    # observable in the traced inline twin.
    twin = run_episode(
        workload.twin_workload(),
        seed,
        stream,
        traced=traced_run and workload.process,
    )
    errors.extend(f"{workload.twin} twin: {error}" for error in twin.errors)
    same = twin.digest == episodes[0].digest
    if not same:
        errors.append(
            f"the {workload.twin} transport disagrees with this run's "
            f"decisions: {twin.digest[:12]} vs {episodes[0].digest[:12]}"
        )
    print(
        f"  {workload.twin} twin{' traced' if twin.traced else ''}: "
        f"digest {twin.digest[:12]} ({'equal' if same else 'DIFFERENT'})"
    )
    return errors, twin


def report_layers(episodes, twin, spans_path: Path) -> dict:
    """Per-layer metrics of a traced run: medians over the traced
    episodes, worker-side layers from a traced inline twin, the tracing
    overhead; writes every span."""
    traced = [ep for ep in episodes if ep.traced]
    plain = [ep for ep in episodes if not ep.traced]
    layers = {
        name: median([ep.layers[name] for ep in traced])
        for name in traced[0].layers
    }
    from_twin = set()
    if twin is not None and twin.traced:
        for name, value in twin.layers.items():
            if name not in FRONT_END_LAYERS and not name.startswith("trace."):
                layers[name] = value
                from_twin.add(name)
    untraced_serve = median([ep.serve_s for ep in plain])
    traced_serve = median([ep.serve_s for ep in traced])
    layers["trace.overhead_pct"] = 100.0 * (traced_serve / untraced_serve - 1.0)
    with open(spans_path, "w") as handle:
        for number, ep in enumerate(episodes, start=1):
            if ep.traced:
                ep.tracer.write(handle, number)
        if from_twin:
            twin.tracer.write(handle, 0)
    print(
        f"per-layer metrics (median over {len(traced)} traced episodes"
        + (
            "; front-end layers from the process run, the rest from the "
            "traced inline twin"
            if from_twin
            else ""
        )
        + "); *_s are self times:"
    )
    for name, value in layers.items():
        source = " (inline twin)" if name in from_twin else ""
        print(f"  {name:<28} {value:>16.6f} {layer_unit(name)}{source}")
    print(
        f"tracing overhead: serve {traced_serve:.3f} s traced vs "
        f"{untraced_serve:.3f} s untraced ({layers['trace.overhead_pct']:+.1f} %)"
    )
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    return {
        name: {"value": value, "unit": layer_unit(name)}
        for name, value in layers.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {SOURCE}/repro; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SOURCE))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]
    traced_run = bool(args.trace)
    started = perf_counter()
    stream = workload.config(args.seed).build_stream()
    print(
        f"perfbench {workload.name}: seed {args.seed}, {len(stream)} arrivals, "
        f"closed replay, {args.seconds:g} s budget, trace {args.trace}"
    )
    episodes = run_episodes(
        workload, args.seed, stream, args.seconds, traced_run, started
    )
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_rss_mb = (usage_self + (usage_children if workload.process else 0)) / 1024
    errors, twin = check_decisions(
        workload, args.seed, stream, episodes, traced_run
    )

    plain = [ep for ep in episodes if not ep.traced]
    metrics = end_to_end(plain, peak_rss_mb)
    print_end_to_end(metrics, plain)
    info = provenance(workload.name, args.seed, args.seconds, args.trace)
    print(
        "provenance: "
        + ", ".join(f"{key}={value}" for key, value in info.items())
    )
    OUTPUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if traced_run:
        result_metrics = report_layers(
            episodes, twin, OUTPUT / f"{stem}.spans.jsonl"
        )
    else:
        result_metrics = {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END
        }

    for error in errors:
        print(f"CHECK FAILED: {error}")
    if not errors:
        print(
            "checks passed: one terminal decision per arrival, identical "
            "decisions across episodes"
            + (" traced and untraced" if traced_run else "")
            + (
                f", {workload.twin} transport makes the same decisions"
                if twin is not None
                else ""
            )
        )
    result = {
        "correct": not errors,
        "attempted": sum(ep.arrivals for ep in episodes),
        "failed": sum(ep.unsettled for ep in episodes),
        "metrics": result_metrics,
    }
    record = dict(
        provenance=info,
        result=result,
        end_to_end=metrics,
        episodes=[
            {
                "traced": ep.traced,
                "setup_s": ep.setup_s,
                "first_decision_s": ep.first_decision_s,
                "serve_s": ep.serve_s,
                "latency_samples": len(ep.latencies_ms),
                "digest": ep.digest,
            }
            for ep in episodes
        ],
        errors=errors,
    )
    with open(OUTPUT / f"{stem}.json", "w") as handle:
        json.dump(record, handle, indent=2)
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
