"""End-to-end benchmark of the Hetero-Pin-3D reproduction.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload {matrix-cold,explore-sweep,serve-mixed}
        --seed N --seconds S --trace {0,1}

Runs whole rounds of the workload, each in a fresh process
(``round.py``) with its own private cache, temporary and serve
directories, until the rounds' timed regions add up to ``--seconds``
less half a round.  With ``--trace 0`` it
reports the end-to-end metrics (medians over rounds); with ``--trace 1``
rounds alternate traced and untraced, and it reports the per-layer
metrics of the traced rounds plus the tracing overhead.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Logs, the knobs set, the result digest and
the per-layer table go before it.

``--seed`` only places the probes among the other jobs of
``serve-mixed``; netlists, scales, lattice and job mix are fixed, so
every run of the same code prints the same digest.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import shutil
import signal
from statistics import median
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

WORKLOADS = ("matrix-cold", "explore-sweep", "serve-mixed")
ROUND_TIMEOUT_S = 150.0
RUNS_DIR = ROOT / ".e2ebench"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "results_per_s": "1/s",
    "latency_p50_s": "s",
}

#: Telemetry and daemon counters reported beside the wrapped layers.
COUNTER_UNITS = {
    "flow.runs": "count",
    "flow.stages": "count",
    "experiments.period_probes": "count",
    "experiments.cache_hits": "count",
    "experiments.cache_misses": "count",
    "dse.prefix_stages_reused": "count",
    "dse.suffix_flows_reused": "count",
    "dse.pruned": "count",
    "serve.queue_wait_s": "s",
    "serve.run_s": "s",
    "serve.journal_fsync_s": "s",
    "serve.dedup_hits": "count",
    "serve.worker_restarts": "count",
}


def per_layer_units() -> dict[str, str]:
    units = {m: "s" for m in layers.TIME_METRICS}
    units.update({m: "count" for m in layers.COUNT_METRICS})
    units.update(COUNTER_UNITS)
    units["unattributed_s"] = "s"
    units["obs.trace_overhead_s"] = "s"
    return units


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def child_env(run_dir: Path) -> tuple[dict, list[str]]:
    """The round's environment: no inherited ``REPRO_*`` knob, a private
    cache and temporary directory, and ``src`` on the import path."""
    stripped = sorted(k for k in os.environ if k.startswith("REPRO_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    env["TMPDIR"] = str(run_dir / "tmp")
    return env, stripped


def run_round(workload: str, seed: int, traced: bool, index: int,
              budget_s: float) -> dict:
    run_dir = RUNS_DIR / f"{workload}-{os.getpid()}-{index}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "cache").mkdir(parents=True)
    (run_dir / "tmp").mkdir()
    env, stripped = child_env(run_dir)
    if index == 0:
        log(f"knobs set: PYTHONPATH={env['PYTHONPATH']}"
            f" REPRO_CACHE_DIR=<private per round> TMPDIR=<private per round>"
            + (" REPRO_SERVE_DIR=<private per round>"
               if workload == "serve-mixed" else "")
            + f"; stripped: {', '.join(stripped) or 'none'}")
    out = run_dir / "record.json"
    try:
        spawned_at = time.monotonic()
        # Its own session, so a round that overruns is killed together
        # with any daemon and workers it started.
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "round.py"), workload,
             "--seed", str(seed), "--trace", str(int(traced)),
             "--spawned-at", repr(spawned_at), "--dir", str(run_dir),
             "--out", str(out)],
            cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True)
        try:
            proc.wait(budget_s)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise RuntimeError(f"round {index} ran past {budget_s:.0f} s")
        if proc.returncode != 0 or not out.exists():
            raise RuntimeError(f"round {index} exited with {proc.returncode}")
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def end_to_end(rounds: list[dict]) -> dict:
    latencies = [x for r in rounds for x in r["latencies_s"]]
    return {
        "setup_s": median(r["setup_s"] for r in rounds),
        "wall_s": median(r["wall_s"] for r in rounds),
        "cpu_s": median(r["cpu_s"] for r in rounds),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in rounds),
        "results_per_s": sum(r["results"] for r in rounds)
        / sum(r["wall_s"] for r in rounds),
        "latency_p50_s": median(latencies),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    values: dict[str, list[float]] = {}
    for r in traced:
        workers = r.get("worker_layers")
        own = layers.merge([r["layers"]] + (workers or []))
        row = dict(own["self_s"])
        row.update(own["calls"])
        row.update(r["counters"])
        if workers is not None:
            # Served: jobs run in the workers, so the uncovered time is
            # the daemon-measured job run time the worker wrappers missed.
            covered = sum(layers.merge(workers)["self_s"].values())
            row["unattributed_s"] = r["counters"]["serve.run_s"] - covered
        else:
            row["unattributed_s"] = r["wall_s"] - sum(own["self_s"].values())
        for key, value in row.items():
            values.setdefault(key, []).append(value)
    # A layer that does not run on this workload reads 0.
    metrics = {key: 0 for key in per_layer_units()}
    metrics.update({key: median(v) for key, v in values.items()})
    metrics["obs.trace_overhead_s"] = (
        median(r["wall_s"] for r in traced)
        - median(r["wall_s"] for r in untraced))
    return metrics


def print_layer_table(workload: str, metrics: dict, wall_s: float) -> None:
    units = per_layer_units()
    log(f"-- per-layer ({workload}, traced rounds; self time excludes"
        f" wrapped children; wall {wall_s:.3f} s) --")
    for name in sorted(metrics):
        value = metrics[name]
        share = (f"{100.0 * value / wall_s:6.1f}%"
                 if units[name] == "s" and wall_s > 0 else "")
        log(f"  {name:32s} {value:12.4f} {units[name]:6s} {share}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"error: no repro sources under {ROOT / 'src'}")
        return 2
    # Byte-compile outside every clock, so the first round's set-up does
    # not pay for it.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)

    rng = random.Random(args.seed)
    started = time.monotonic()
    rounds: list[dict] = []
    measured = 0.0
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 0
        budget = ROUND_TIMEOUT_S - (time.monotonic() - started)
        try:
            record = run_round(args.workload, rng.randrange(2**31), traced,
                               len(rounds), max(10.0, budget))
        except (RuntimeError, OSError, ValueError) as exc:
            log(f"error: {exc}")
            return 1
        rounds.append(record)
        log(f"round {len(rounds) - 1}{' traced' if traced else ''}:"
            f" setup {record['setup_s']:.3f} s, wall {record['wall_s']:.3f} s,"
            f" cpu {record['cpu_s']:.3f} s,"
            f" peak rss {record['peak_rss_mb']:.1f} MB")
        for line in record["info"]:
            log(f"round {len(rounds) - 1}: {line}")
        for problem in record["problems"]:
            log(f"round {len(rounds) - 1}: CHECK FAILED: {problem}")
        measured += record["wall_s"]
        # Stop once the next round would end further past the budget
        # than this point falls short of it.
        half_round = 0.5 * measured / len(rounds)
        both = not args.trace or len(rounds) >= 2
        if measured >= args.seconds - half_round and both:
            break

    digests = sorted({r["digest"] for r in rounds})
    correct = (all(not r["problems"] for r in rounds) and len(digests) == 1)
    print(f"digest {args.workload} sha256:{' '.join(digests)}")
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        untraced = [r for r in rounds if not r["traced"]]
        values = per_layer(traced, untraced)
        print_layer_table(args.workload, values,
                          median(r["wall_s"] for r in traced))
        units = per_layer_units()
    else:
        values = end_to_end(rounds)
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"rounds {len(rounds)} attempted {attempted} failed {failed}"
          f" correct {str(correct).lower()}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
