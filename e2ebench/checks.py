"""Output checks computed apart from the program, and the result digest.

Every check reads plain JSON (``FlowResult.to_dict()`` output, explore
report dicts, served job payloads) and recomputes what it asserts from
the paper's equations and the Table IV constants written out below, so
a bug in ``repro`` cannot hide in its own oracle.  Each check returns a
list of human-readable problems; an empty list means the input passed.

No check gates on the signs of the paper's claims (e.g. 3D_HET beating
2D_12T on PPC): at small scale the correct code does not always
reproduce them, so they are printed as information only.
"""

from __future__ import annotations

import hashlib
import json
import math

#: Table IV constants, written out independently of ``repro.cost``.
FEOL_FRACTION = 0.30
BEOL_COST_PER_LAYER = 0.11
SIGNAL_LAYERS = 6
INTEGRATION_PENALTY = 0.05  # alpha
WAFER_DIAMETER_MM = 300.0
DEFECT_DENSITY_PER_MM2 = 0.2  # D_w
WAFER_YIELD = 0.95  # kappa
YIELD_DEGRADATION_3D = 0.95  # beta

#: The explorer's default objectives (PDP minimised, PPC maximised).
OBJECTIVES = (("pdp_pj", "min"), ("ppc", "max"))

REL_TOL = 1e-9
ABS_TOL = 1e-12


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=ABS_TOL)


def die_cost_1e6(footprint_mm2: float, tiers: int) -> float:
    """Eqs. (1)-(5): die cost in units of 1e-6 C' for one footprint."""
    wafer_2d = FEOL_FRACTION + BEOL_COST_PER_LAYER * SIGNAL_LAYERS
    wafer = wafer_2d if tiers == 1 else 2.0 * wafer_2d + INTEGRATION_PENALTY
    wafer_area = math.pi * (WAFER_DIAMETER_MM / 2.0) ** 2
    dies = (wafer_area / footprint_mm2
            - math.sqrt(2.0 * math.pi * wafer_area / footprint_mm2))
    yld = WAFER_YIELD * (
        1.0 + footprint_mm2 * DEFECT_DENSITY_PER_MM2 / 2.0) ** -2
    if tiers == 2:
        yld *= YIELD_DEGRADATION_3D
    return wafer / (dies * yld) * 1e6


def check_flow_result(r: dict) -> list[str]:
    """Identities every ``FlowResult`` (as its dict) must satisfy."""
    where = f"{r.get('design')}/{r.get('config')}"
    bad: list[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            bad.append(f"{where}: {what}")

    period = r["period_ns"]
    expect(period > 0, f"period {period} not positive")
    expect(close(r["frequency_ghz"], 1.0 / period),
           f"frequency {r['frequency_ghz']} != 1/period {1.0 / period}")
    effective = period - r["wns_ns"]
    expect(close(r["effective_delay_ns"], effective),
           f"effective delay {r['effective_delay_ns']} != period - wns"
           f" {effective}")
    power = r["total_power_mw"]
    expect(close(r["pdp_pj"], power * r["effective_delay_ns"]),
           f"pdp {r['pdp_pj']} != power x effective delay")
    parts = r["power"]
    component_sum = (parts["switching_mw"] + parts["internal_mw"]
                     + parts["leakage_mw"] + parts["clock_mw"])
    expect(close(component_sum, power),
           f"power components sum {component_sum} != total {power}")
    is_3d = str(r["config"]).startswith("3D")
    expected_cost = die_cost_1e6(r["footprint_mm2"], 2 if is_3d else 1)
    expect(close(r["die_cost_1e6"], expected_cost),
           f"die cost {r['die_cost_1e6']} != Eq. (5) on the footprint"
           f" {expected_cost}")
    if power > 0 and r["die_cost_1e6"] > 0:
        ppc = r["frequency_ghz"] / (power / 1000.0 * r["die_cost_1e6"])
        expect(close(r["ppc"], ppc), f"ppc {r['ppc']} != f/(P x cost) {ppc}")
    else:
        expect(False, "power and die cost must be positive")
    if is_3d:
        expect(r["miv_count"] > 0 and r["cut_nets"] > 0,
               f"3-D config with {r['miv_count']} MIVs,"
               f" {r['cut_nets']} cut nets")
    else:
        expect(r["miv_count"] == 0 and r["cut_nets"] == 0,
               f"2-D config with {r['miv_count']} MIVs,"
               f" {r['cut_nets']} cut nets")
    expect(0.0 < r["density"] <= 1.0, f"density {r['density']} outside (0, 1]")
    cp = r.get("critical_path")
    if cp is None:
        expect(False, "no critical path")
    else:
        cell = sum(s["arc_delay_ns"] for s in cp["steps"])
        wire = sum(s["wire_delay_ns"] for s in cp["steps"])
        slack = (period + cp["capture_latency_ns"] - cp["launch_latency_ns"]
                 - cell - wire - cp["setup_ns"])
        expect(close(cp["slack_ns"], slack, 1e-7),
               f"critical-path slack {cp['slack_ns']} != path sum {slack}")
        expect(close(cp["slack_ns"], r["wns_ns"], 1e-7),
               f"critical-path slack {cp['slack_ns']} != wns {r['wns_ns']}")
    return bad


def check_row_metrics(label: str, row: dict) -> list[str]:
    """The identities an explore row's metrics still carry."""
    m = row["metrics"]
    period = row["period_ns"]
    bad = []
    if not close(m["frequency_ghz"], 1.0 / period):
        bad.append(f"{label}: frequency {m['frequency_ghz']} != 1/period")
    if not close(m["pdp_pj"], m["total_power_mw"] * (period - m["wns_ns"])):
        bad.append(f"{label}: pdp {m['pdp_pj']} != P x (period - wns)")
    ppc = m["frequency_ghz"] / (m["total_power_mw"] / 1000.0
                                * m["die_cost_1e6"])
    if not close(m["ppc"], ppc):
        bad.append(f"{label}: ppc {m['ppc']} != f/(P x cost) {ppc}")
    return bad


def _to_min(row: dict) -> tuple[float, ...]:
    return tuple(-row["metrics"][k] if sense == "max" else row["metrics"][k]
                 for k, sense in OBJECTIVES)


def dominates(a, b) -> bool:
    """Minimisation dominance: ``a`` <= ``b`` everywhere, < somewhere."""
    return (all(x <= y for x, y in zip(a, b))
            and any(x < y for x, y in zip(a, b)))


def brute_force_front(rows: dict) -> list[str]:
    """Labels of the rows no other row dominates (O(n^2), sorted)."""
    vectors = {label: _to_min(row) for label, row in rows.items()}
    return sorted(
        label for label, v in vectors.items()
        if not any(dominates(w, v) for other, w in vectors.items()
                   if other != label)
    )


def check_explore(report: dict, lattice_size: int) -> list[str]:
    """Front, prunes and bookkeeping of one explore report dict."""
    bad: list[str] = []
    expected = [f"{k}:{s}" for k, s in OBJECTIVES]
    if report["objectives"] != expected:
        bad.append(f"objectives {report['objectives']} != {expected}")
        return bad
    rows, skipped = report["rows"], report["skipped"]
    if report["failed"]:
        bad.append(f"failed configs: {sorted(report['failed'])}")
    decided = len(rows) + len(skipped) + len(report["incompatible"])
    if decided != lattice_size:
        bad.append(f"{decided} configs decided of {lattice_size}")
    for label, row in rows.items():
        bad.extend(check_row_metrics(label, row))
    front = brute_force_front(rows)
    if sorted(report["front"]) != front:
        bad.append(f"reported front {sorted(report['front'])}"
                   f" != brute-force front {front}")
    front_vectors = [_to_min(rows[label]) for label in front]
    for label, record in skipped.items():
        if label in rows:
            bad.append(f"{label} both pruned and evaluated")
        bound = tuple(record["lower_bound"])
        if not any(dominates(v, bound) for v in front_vectors):
            bad.append(f"pruned {label}: no front member dominates its"
                       f" certificate {list(bound)}")
    return bad


def check_matrix_cells(cells: dict, flows: dict) -> list[str]:
    """A served matrix's cells must equal the flow jobs' results."""
    bad = []
    for key, cell in cells.items():
        if key not in flows:
            bad.append(f"matrix cell {key} has no flow job to compare with")
        elif canonical(cell) != canonical(flows[key]):
            bad.append(f"matrix cell {key} differs from its flow job")
    return bad


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    """SHA-256 over canonical JSON: equal outputs give equal digests."""
    return hashlib.sha256(canonical(obj).encode("utf-8")).hexdigest()
