"""One benchmark round in a fresh process: set up, run one workload once,
check its outputs, and write a JSON record.

Usage (normally started by ``run.py``)::

    python3 e2ebench/round.py WORKLOAD --seed N --trace 0|1 \
        --spawned-at MONOTONIC_S --dir PRIVATE_DIR --out RECORD.json

The timed region covers the workload's operations only; imports, the
library build, private directories and (for ``serve-mixed``) daemon
start and worker boot come before it and make up ``setup_s``, which is
measured from ``--spawned-at`` (the parent's ``time.monotonic()`` just
before it started this process).  Checks run after the timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402

#: matrix-cold: the paper's 4 x 5 matrix with its four 12T 2-D period
#: searches, serial.  Scale 0.2 keeps one cold matrix near 16 s on two
#: cores, so a run can hold two whole rounds.
MATRIX_SCALE = 0.2
NETLIST_SEED = 0

#: explore-sweep: 2 x 5 x 3 x 2 = 60 aes configs.  The 0.60 V corner
#: breaks the 0.3 x V_DDH rule and is screened without a flow; on the
#: other 48, prefix reuse, tail reuse, warm period starts and dominance
#: pruning all fire (checked after every round).
EXPLORE_DESIGN = "aes"
EXPLORE_SCALE = 0.08
EXPLORE_OPT_ITERATIONS = 2
EXPLORE_PERIOD_STEPS = 17
EXPLORE_LATTICE = dict(
    slow_tracks=(8, 9),
    slow_vdd=(0.60, 0.66, 0.70, 0.75, 0.81),
    tier_caps=(0.20, 0.25, 0.30),
    fm_tolerances=(0.08, 0.12),
)

#: serve-mixed: two closed-loop clients against a two-worker daemon.
SERVE_SCALE = 0.2
#: Pinned periods: the 12T 2-D max-frequency periods matrix-cold finds at
#: this scale (cpu/3D_12T cannot be placed at 0.75 ns, for one).
SERVE_PERIODS = {"aes": 0.48203125, "ldpc": 0.43125, "netcard": 0.5875,
                 "cpu": 0.734375}
#: Two netlist seeds double the fresh work per daemon start.
SERVE_NETLIST_SEEDS = (0, 1)
SERVE_CLIENTS = 2
SERVE_PROBES_PER_PHASE = 20
BOOT_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0


class Round:
    """Clocks of one round: setup, then one timed region."""

    def __init__(self, spawned_at: float, seed: int, tracer, run_dir: Path):
        self.spawned_at = spawned_at
        self.seed = seed
        self.tracer = tracer
        self.run_dir = run_dir
        self.record: dict = {}

    def begin(self) -> None:
        self.t0 = time.monotonic()
        self.cpu0 = _own_cpu_s()
        self.record["setup_s"] = self.t0 - self.spawned_at

    def end(self, extra_cpu_s: float = 0.0) -> None:
        self.record["wall_s"] = time.monotonic() - self.t0
        self.record["cpu_s"] = _own_cpu_s() - self.cpu0 + extra_cpu_s


def _own_cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _telemetry_counters(t) -> dict:
    return {
        "flow.runs": t.flows_run,
        "flow.stages": t.flow_stages_run,
        "experiments.period_probes": t.period_probes,
        "experiments.cache_hits": t.disk_hits + t.memory_hits,
        "experiments.cache_misses": t.disk_misses,
        "dse.prefix_stages_reused": t.prefix_stages_reused,
        "dse.suffix_flows_reused": t.suffix_flows_reused,
        "dse.pruned": t.dse_pruned,
    }


# ----------------------------------------------------------------------
# matrix-cold
# ----------------------------------------------------------------------
def matrix_cold(rnd: Round) -> dict:
    from repro.experiments.configs import configurations
    from repro.experiments.runner import run_matrix
    from repro.experiments.telemetry import reset_telemetry
    from repro.netlist.generators import DESIGN_NAMES

    configurations()  # the library build belongs to set-up
    telemetry = reset_telemetry()
    # The seed is not used: the headline run has fixed inputs and a fixed
    # order, so no seed-chosen order adds to the run-to-run spread.
    rnd.begin()
    matrix = run_matrix(designs=DESIGN_NAMES, scale=MATRIX_SCALE,
                        seed=NETLIST_SEED, jobs=1, keep_going=True)
    rnd.end()
    cells = {f"{d}/{c}": r.to_dict() for (d, c), r in matrix.results.items()}
    problems = [p for r in cells.values() for p in checks.check_flow_result(r)]
    expected = len(DESIGN_NAMES) * 5
    if len(cells) != expected:
        problems.append(f"{len(cells)} of {expected} cells computed")
    if telemetry.disk_hits or telemetry.memory_hits:
        problems.append(f"cold run served {telemetry.disk_hits} disk and"
                        f" {telemetry.memory_hits} memory cache hits")
    return {
        "results": len(cells),
        "attempted": expected + len(DESIGN_NAMES),
        "failed": len(matrix.all_failures()),
        "latencies_s": sorted(telemetry.cell_seconds.values()),
        "digest": checks.digest(cells),
        "problems": problems,
        "counters": _telemetry_counters(telemetry),
        "info": _claim_signs(cells),
    }


def _claim_signs(cells: dict) -> list[str]:
    """Paper-claim signs, printed as information, never gated on."""
    lines = []
    for design in sorted({k.split("/")[0] for k in cells}):
        het = cells.get(f"{design}/3D_HET")
        ref = cells.get(f"{design}/2D_12T")
        if het and ref:
            lines.append(
                f"{design}: 3D_HET PPC {het['ppc']:.0f} vs 2D_12T"
                f" {ref['ppc']:.0f}; PDP {het['pdp_pj']:.3f} vs"
                f" {ref['pdp_pj']:.3f} pJ")
    return lines


# ----------------------------------------------------------------------
# explore-sweep
# ----------------------------------------------------------------------
def explore_sweep(rnd: Round) -> dict:
    from repro.experiments.dse import ExploreSpec, LatticeSpec, explore
    from repro.experiments.dse.space import generate_lattice
    from repro.experiments.telemetry import reset_telemetry

    lattice = LatticeSpec(**EXPLORE_LATTICE)
    generate_lattice(lattice)  # builds every corner's library (set-up)
    spec = ExploreSpec(design=EXPLORE_DESIGN, scale=EXPLORE_SCALE,
                       seed=NETLIST_SEED, lattice=lattice,
                       opt_iterations=EXPLORE_OPT_ITERATIONS,
                       period_steps=EXPLORE_PERIOD_STEPS)
    telemetry = reset_telemetry()
    # jobs=1 runs one config per wave, and progress fires after each
    # wave: the gaps between calls are per-config latencies.
    stamps: list[float] = []
    rnd.begin()
    report = explore(spec, jobs=1,
                     progress=lambda _line: stamps.append(time.monotonic()))
    rnd.end()
    latencies = [b - a for a, b in zip([rnd.t0] + stamps, stamps)]
    data = report.to_dict()
    problems = checks.check_explore(data, lattice.size)
    counters = _telemetry_counters(telemetry)
    for name in ("dse.prefix_stages_reused", "dse.suffix_flows_reused",
                 "dse.pruned"):
        if counters[name] <= 0:
            problems.append(f"{name} is {counters[name]}: layer did not fire")
    warm = sum(1 for row in data["rows"].values() if row["probes"] <= 2)
    if warm == 0:
        problems.append("no warm-started period search (every config"
                        " needed more than 2 probes)")
    if telemetry.disk_hits:
        problems.append(f"cold run served {telemetry.disk_hits} cache hits")
    rows = {label: {k: v for k, v in row.items() if k != "probes"}
            for label, row in data["rows"].items()}
    return {
        "results": len(data["rows"]) + len(data["skipped"])
        + len(data["incompatible"]),
        "attempted": lattice.size,
        "failed": len(data["failed"]),
        "latencies_s": sorted(latencies),
        "digest": checks.digest({"front": sorted(data["front"]),
                                 "rows": rows}),
        "problems": problems,
        "counters": counters,
        "info": [f"{len(data['rows'])} evaluated, {len(data['skipped'])}"
                 f" pruned, {len(data['incompatible'])} screened,"
                 f" {warm} warm-started, front {sorted(data['front'])}"],
    }


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
def _proc_tree(root_pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    tree, todo = [], [root_pid]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(children.get(pid, []))
    return tree


def _tree_usage(root_pid: int) -> tuple[float, float]:
    """(CPU seconds incl. reaped children, largest peak RSS in MB)."""
    tick = os.sysconf("SC_CLK_TCK")
    cpu, peak_kb = 0.0, 0
    for pid in _proc_tree(root_pid):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            with open(f"/proc/{pid}/status") as fh:
                status = fh.read()
        except OSError:
            continue
        cpu += sum(int(v) for v in fields[11:15]) / tick
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peak_kb = max(peak_kb, int(line.split()[1]))
    return cpu, peak_kb / 1024.0


def _metric(snapshot: dict, name: str, field: str = "value", **labels):
    total = 0.0
    for family in snapshot.get("families", []):
        if family["name"] != name:
            continue
        for sample in family["samples"]:
            if all(sample["labels"].get(k) == v for k, v in labels.items()):
                total += sample[field]
    return total


class _Feed:
    """Learns of job completions from the daemon's event feed, so a
    client asks for a result once it exists instead of polling."""

    def __init__(self, client):
        self.client = client
        self.done: set[str] = set()
        self.cond = threading.Condition()
        self.stop = threading.Event()
        self.ready = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        if not self.ready.wait(BOOT_TIMEOUT_S):
            raise RuntimeError("event feed did not start")

    def _run(self) -> None:
        for event in self.client.subscribe(backlog=False, idle_s=0.2,
                                           reconnect_s=5.0):
            self.ready.set()
            if self.stop.is_set():
                return
            if (event and event.get("event") == "job_state"
                    and event.get("state") in ("done", "failed")):
                with self.cond:
                    self.done.add(event["job_id"])
                    self.cond.notify_all()

    def wait(self, job_id: str, timeout_s: float = 0.25) -> bool:
        with self.cond:
            return self.cond.wait_for(lambda: job_id in self.done, timeout_s)

    def close(self) -> None:
        self.stop.set()
        self.thread.join(timeout=5.0)


def _serve_ops(seed: int) -> list[list[tuple[str, dict]]]:
    """The round's two phases of (op kind, job spec).

    Phase 1 computes every cell fresh; phase 2 reads them back through
    matrix jobs (cache reads) and identical resubmits (dedup onto the
    retained results).  Both carry zero-sleep probes, which touch only
    the journal, the queue and dispatch; the seed places them among the
    other jobs.  The other jobs keep one order: which flows overlap on
    the two workers moves CPU time by several percent.
    """
    from repro.experiments.configs import CONFIG_NAMES

    flows = [("flow", {"kind": "flow", "design": d, "config": c,
                       "period_ns": p, "scale": SERVE_SCALE, "seed": n})
             for n in SERVE_NETLIST_SEEDS
             for d, p in SERVE_PERIODS.items() for c in CONFIG_NAMES]
    matrices = [("matrix", {"kind": "matrix", "designs": [d],
                            "configs": list(CONFIG_NAMES),
                            "periods": {d: p}, "scale": SERVE_SCALE,
                            "seed": n})
                for n in SERVE_NETLIST_SEEDS
                for d, p in SERVE_PERIODS.items()]
    rng = random.Random(seed)
    phases = []
    for k, jobs in enumerate(
            (flows, matrices + [("resubmit", s) for _, s in flows])):
        phase = list(jobs)
        first = k * SERVE_PROBES_PER_PHASE
        for i in range(first, first + SERVE_PROBES_PER_PHASE):
            probe = ("probe", {"kind": "probe", "seconds": 0.0,
                               "payload": {"probe": i}, "nonce": f"p{i}"})
            phase.insert(rng.randrange(len(phase) + 1), probe)
        phases.append(phase)
    return phases


def serve_mixed(rnd: Round) -> dict:
    from repro.serve.client import ServeClient

    run_dir = rnd.run_dir
    state = run_dir / "serve"
    state.mkdir()
    sock = os.path.relpath(state / "s.sock", ROOT)  # short AF_UNIX path
    env = dict(os.environ, REPRO_SERVE_DIR=str(state))
    if rnd.tracer is not None:
        env["E2EBENCH_LAYER_DIR"] = str(run_dir)
    log = open(run_dir / "daemon.log", "w")
    daemon = subprocess.Popen(
        [sys.executable, str(HERE / "serve_daemon.py"), sock],
        cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
    try:
        return _serve_round(rnd, run_dir, ServeClient(sock), daemon)
    finally:
        if daemon.poll() is None:
            daemon.send_signal(signal.SIGTERM)
            try:
                daemon.wait(DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait()
        log.close()


def _serve_round(rnd: Round, run_dir: Path, client, daemon) -> dict:
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while True:  # set-up ends once both workers have booted
        if daemon.poll() is not None:
            raise RuntimeError(f"daemon exited with {daemon.returncode}")
        try:
            snap = client.metrics()["metrics"]
            if _metric(snap, "repro_workers", state="idle") >= 2:
                break
        except Exception:  # noqa: BLE001 -- not listening yet
            if time.monotonic() > deadline:
                raise
        time.sleep(0.02)
    phases = _serve_ops(rnd.seed)
    feed = _Feed(client)
    tree_cpu0, _ = _tree_usage(daemon.pid)
    done: list[tuple[str, dict, dict, float]] = []
    errors: list[str] = []

    def client_loop(queue: deque) -> None:
        while True:
            try:
                kind, spec = queue.popleft()
            except IndexError:
                return
            start = time.monotonic()
            try:
                sub = client.submit(spec)
                if not sub.get("ok"):
                    raise RuntimeError(f"submit rejected: {sub}")
                job_id = sub["job_id"]
                while True:
                    view = client.result(job_id)
                    if view.get("state") in ("done", "failed"):
                        break
                    feed.wait(job_id)
                done.append((kind, spec, dict(view, deduped=sub["deduped"]),
                             time.monotonic() - start))
            except Exception as exc:  # noqa: BLE001 -- counted as failed
                errors.append(f"{kind}: {type(exc).__name__}: {exc}")

    rnd.begin()
    for phase in phases:
        queue = deque(phase)
        threads = [threading.Thread(target=client_loop, args=(queue,))
                   for _ in range(SERVE_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    tree_cpu1, tree_peak = _tree_usage(daemon.pid)
    rnd.end(extra_cpu_s=tree_cpu1 - tree_cpu0)
    feed.close()
    stats = client.stats()
    snap = client.metrics()["metrics"]
    drained = client.drain()
    daemon.wait(DRAIN_TIMEOUT_S)
    problems = list(errors)
    if not drained.get("ok"):
        problems.append(f"drain refused: {drained}")

    flows: dict[str, dict] = {}
    flow_ids: dict[str, str] = {}
    matrices: dict[str, dict] = {}
    echoes = []
    failed = len(errors)
    for kind, spec, view, _lat in done:
        if view.get("state") != "done":
            failed += 1
            problems.append(f"{kind} job {view.get('job_id')} {view}")
            continue
        payload = view["result"]
        if kind in ("flow", "resubmit"):
            key = f"s{spec['seed']}:{spec['design']}/{spec['config']}"
            if kind == "resubmit" and not view["deduped"]:
                problems.append(f"resubmit of {key} was not deduplicated")
            if key in flows and (flow_ids[key] != view["job_id"] or checks.
                                 canonical(flows[key]) != checks.canonical(
                                     payload["result"])):
                problems.append(f"resubmit of {key} got another job/result")
            flows[key] = payload["result"]
            flow_ids[key] = view["job_id"]
        elif kind == "matrix":
            if not payload.get("ok"):
                problems.append(f"matrix {spec['designs']} failed cells")
            matrices[f"s{spec['seed']}:{spec['designs'][0]}"] = {
                f"s{spec['seed']}:{cell}": result
                for cell, result in payload["results"].items()}
        elif payload.get("echo") != spec["payload"]:
            problems.append(f"probe echoed {payload.get('echo')}"
                            f" for {spec['payload']}")
        else:
            echoes.append(payload["echo"])
    for result in flows.values():
        problems.extend(checks.check_flow_result(result))
    for cells in matrices.values():
        problems.extend(checks.check_matrix_cells(cells, flows))
    attempted = sum(len(p) for p in phases)
    if len(done) + len(errors) != attempted:
        problems.append(f"{len(done) + len(errors)} of {attempted} answered")

    telemetry = stats.get("telemetry", {})
    counters = {
        "flow.runs": telemetry.get("flows_run", 0),
        "flow.stages": telemetry.get("flow_stages_run", 0),
        "experiments.period_probes": telemetry.get("period_probes", 0),
        "experiments.cache_hits": telemetry.get("disk_hits", 0)
        + telemetry.get("memory_hits", 0),
        "experiments.cache_misses": telemetry.get("disk_misses", 0),
        "serve.queue_wait_s": _metric(snap, "repro_job_wait_seconds", "sum"),
        "serve.run_s": _metric(snap, "repro_job_run_seconds", "sum"),
        "serve.journal_fsync_s": _metric(
            snap, "repro_journal_fsync_seconds", "sum"),
        "serve.dedup_hits": stats["stats"].get("deduped", 0),
        "serve.worker_restarts": _metric(snap, "repro_worker_restarts_total"),
    }
    if counters["experiments.cache_hits"] < len(matrices) * 5:
        problems.append(f"matrix jobs read {counters['experiments.cache_hits']}"
                        f" cells from the cache")
    rnd.record["peak_rss_mb"] = max(_own_peak_rss_mb(), tree_peak)
    by_kind: dict[str, list[float]] = {}
    for kind, _spec, _view, latency in done:
        by_kind.setdefault(kind, []).append(latency)
    return {
        "results": sum(1 for *_, view, _lat in done
                       if view.get("state") == "done"),
        "attempted": attempted,
        "failed": failed,
        "latencies_s": sorted(lat for *_, lat in done),
        "digest": checks.digest({"flows": flows, "matrices": matrices,
                                 "probes": sorted(e["probe"] for e in echoes)}),
        "problems": problems,
        "counters": counters,
        "worker_layers": [
            json.loads(p.read_text()) for p in run_dir.glob("layers-*.json")],
        "info": ["median latency by kind: " + ", ".join(
            f"{kind} {statistics.median(v):.4f} s (n={len(v)})"
            for kind, v in sorted(by_kind.items()))],
    }


WORKLOADS = {
    "matrix-cold": matrix_cold,
    "explore-sweep": explore_sweep,
    "serve-mixed": serve_mixed,
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"error: imported repro from {repro.__file__},"
                         f" not from {ROOT / 'src'}")
    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
    rnd = Round(args.spawned_at, args.seed, tracer, args.dir)
    out = WORKLOADS[args.workload](rnd)
    rnd.record.setdefault("peak_rss_mb", _own_peak_rss_mb())
    out.update(rnd.record)
    out["traced"] = bool(args.trace)
    if tracer is not None:
        out["layers"] = tracer.snapshot()
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
