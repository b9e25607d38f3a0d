"""Tests of the benchmark's own output checks: each must accept a correct
output and reject a perturbed one.

Run from the root of a checkout: ``python3 e2ebench/selftest.py``
(takes a few seconds: it runs two small flows for real results).
"""

from __future__ import annotations

import copy
import os
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402

_FLOWS: dict[str, dict] = {}


def real_result(config: str) -> dict:
    """A FlowResult dict from an actual small flow (cached per config)."""
    if config not in _FLOWS:
        from repro.experiments.runner import run_configuration

        os.environ["REPRO_CACHE"] = "0"
        _design, result = run_configuration(
            "aes", config, period_ns=0.6, scale=0.05, seed=0)
        _FLOWS[config] = result.to_dict()
    return copy.deepcopy(_FLOWS[config])


class FlowResultChecks(unittest.TestCase):
    def test_real_results_pass(self):
        for config in ("2D_12T", "3D_HET"):
            self.assertEqual(checks.check_flow_result(real_result(config)), [])

    def assert_rejected(self, config: str, mutate) -> None:
        result = real_result(config)
        mutate(result)
        self.assertNotEqual(checks.check_flow_result(result), [])

    def test_changed_die_cost(self):
        self.assert_rejected(
            "3D_HET", lambda r: r.update(die_cost_1e6=r["die_cost_1e6"] * 1.01))

    def test_die_cost_of_the_wrong_tier_count(self):
        self.assert_rejected("2D_12T", lambda r: r.update(config="3D_12T"))

    def test_changed_frequency(self):
        self.assert_rejected(
            "2D_12T",
            lambda r: r.update(frequency_ghz=r["frequency_ghz"] + 1e-3))

    def test_changed_effective_delay(self):
        self.assert_rejected(
            "3D_HET", lambda r: r.update(wns_ns=r["wns_ns"] - 1e-3))

    def test_changed_pdp(self):
        self.assert_rejected("3D_HET", lambda r: r.update(pdp_pj=r["pdp_pj"] * 2))

    def test_changed_ppc(self):
        self.assert_rejected("3D_HET", lambda r: r.update(ppc=r["ppc"] * 0.99))

    def test_power_components_not_summing(self):
        self.assert_rejected(
            "2D_12T",
            lambda r: r["power"].update(leakage_mw=r["power"]["leakage_mw"] + 0.1))

    def test_2d_with_mivs(self):
        self.assert_rejected("2D_12T", lambda r: r.update(miv_count=3))

    def test_3d_without_cut_nets(self):
        self.assert_rejected("3D_HET", lambda r: r.update(cut_nets=0))

    def test_density_out_of_range(self):
        self.assert_rejected("2D_12T", lambda r: r.update(density=1.2))

    def test_critical_path_not_adding_up(self):
        self.assert_rejected(
            "3D_HET",
            lambda r: r["critical_path"]["steps"][0].update(
                arc_delay_ns=r["critical_path"]["steps"][0]["arc_delay_ns"]
                + 0.01))


def row(label: str, period: float, wns: float, power: float, cost: float):
    freq = 1.0 / period
    return {
        "label": label,
        "period_ns": period,
        "probes": 1,
        "metrics": {
            "frequency_ghz": freq,
            "wns_ns": wns,
            "total_power_mw": power,
            "pdp_pj": power * (period - wns),
            "die_cost_1e6": cost,
            "ppc": freq / (power / 1000.0 * cost),
            "wirelength_mm": 1.0,
        },
    }


def explore_report() -> dict:
    rows = {
        "a": row("a", 0.5, 0.0, 1.0, 1.0),  # pdp 0.5, ppc 2000
        "b": row("b", 0.5, 0.0, 0.8, 1.5),  # pdp 0.4, ppc ~1667
        "c": row("c", 0.5, 0.0, 1.2, 1.2),  # dominated by a
    }
    return {
        "objectives": ["pdp_pj:min", "ppc:max"],
        "rows": rows,
        "skipped": {"d": {"lower_bound": [0.6, -1500.0]}},
        "incompatible": [{"label": "e"}],
        "failed": {},
        "front": ["a", "b"],
    }


class ExploreChecks(unittest.TestCase):
    def test_consistent_report_passes(self):
        self.assertEqual(checks.check_explore(explore_report(), 5), [])

    def test_dominated_member_added_to_front(self):
        report = explore_report()
        report["front"].append("c")
        self.assertNotEqual(checks.check_explore(report, 5), [])

    def test_front_member_missing(self):
        report = explore_report()
        report["front"].remove("b")
        self.assertNotEqual(checks.check_explore(report, 5), [])

    def test_prune_certificate_no_member_dominates(self):
        report = explore_report()
        report["skipped"]["d"]["lower_bound"] = [0.1, -5000.0]
        self.assertNotEqual(checks.check_explore(report, 5), [])

    def test_config_lost(self):
        self.assertNotEqual(checks.check_explore(explore_report(), 6), [])

    def test_row_metric_inconsistent(self):
        report = explore_report()
        report["rows"]["c"]["metrics"]["ppc"] *= 1.5
        self.assertNotEqual(checks.check_explore(report, 5), [])


class ServedChecks(unittest.TestCase):
    def test_matrix_cells_equal_flow_jobs(self):
        flows = {"aes/2D_12T": real_result("2D_12T")}
        self.assertEqual(checks.check_matrix_cells(copy.deepcopy(flows), flows),
                         [])

    def test_matrix_cell_differs(self):
        flows = {"aes/2D_12T": real_result("2D_12T")}
        cells = copy.deepcopy(flows)
        cells["aes/2D_12T"]["wirelength_mm"] += 1e-9
        self.assertNotEqual(checks.check_matrix_cells(cells, flows), [])

    def test_matrix_cell_without_flow_job(self):
        cells = {"aes/3D_HET": real_result("3D_HET")}
        self.assertNotEqual(checks.check_matrix_cells(cells, {}), [])


class Digest(unittest.TestCase):
    def test_key_order_does_not_matter(self):
        self.assertEqual(checks.digest({"a": 1, "b": [1.5, 2]}),
                         checks.digest({"b": [1.5, 2], "a": 1}))

    def test_any_change_shows(self):
        self.assertNotEqual(checks.digest({"a": 0.1}),
                            checks.digest({"a": 0.1 + 1e-16}))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["REPRO_CACHE_DIR"] = tmp
        unittest.main()
