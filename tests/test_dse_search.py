"""End-to-end contracts of the design-space explorer.

Small real flows (tiny scale, coarse period grid) prove the three perf
layers are *identity-preserving*: prefix-seeded flows byte-match cold
flows, warm reruns and resumes run zero flow stages, and pruning only
ever skips configs a front member provably dominates.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.errors import CheckpointError
from repro.experiments.dse import (
    DseConfig,
    ExploreSpec,
    LatticeSpec,
    ParetoFront,
    explore,
)
from repro.experiments.dse.search import (
    PREFIX_STAGES,
    _maybe_prune,
    _objective_vector,
    load_report,
    period_grid,
    resolve_spec,
)
from repro.experiments.dse.space import build_library
from repro.experiments.telemetry import get_telemetry, reset_telemetry
from repro.integrity.checkpoint import rebind_checkpoint_tier_library

TINY = dict(
    design="aes", scale=0.08, opt_iterations=2, period_steps=5,
)


def tiny_spec(**overrides) -> ExploreSpec:
    kw = dict(TINY)
    lattice = overrides.pop("lattice", None) or LatticeSpec(
        slow_tracks=(8,), slow_vdd=(0.70, 0.90),
        tier_caps=(0.25,), fm_tolerances=(0.10,),
    )
    kw.update(overrides)
    return ExploreSpec(lattice=lattice, **kw)


@pytest.fixture()
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    reset_telemetry()
    return tmp_path


def test_optimized_front_matches_naive_byte_for_byte(fresh_cache, monkeypatch):
    """Prefix reuse + warm starts + pruning change cost only: the
    Pareto front artifact is byte-identical to the naive explorer's."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(fresh_cache / "naive"))
    naive = explore(tiny_spec(
        prune=False, reuse_prefix=False, warm_periods=False,
    ))
    naive_tel = get_telemetry()
    assert naive_tel.flow_stages_run > 0

    monkeypatch.setenv("REPRO_CACHE_DIR", str(fresh_cache / "opt"))
    reset_telemetry()
    optimized = explore(tiny_spec())
    tel = get_telemetry()
    assert tel.prefix_stages_reused > 0, "second config never reused the prefix"
    # Every reused prefix stage is a stage not executed: the optimized
    # run averages fewer stages per flow.  (Total stages can tie on a
    # 5-point grid, where a warm start may probe one extra period.)
    assert (tel.flow_stages_run / tel.flows_run
            < naive_tel.flow_stages_run / naive_tel.flows_run)
    assert optimized.front_json() == naive.front_json()


def test_warm_rerun_and_resume_run_zero_flow_stages(fresh_cache):
    spec = tiny_spec()
    first = explore(spec)
    assert first.rows and first.ok

    reset_telemetry()
    warm = explore(spec)
    tel = get_telemetry()
    assert tel.flows_run == 0 and tel.flow_stages_run == 0
    assert warm.front_json() == first.front_json()

    reset_telemetry()
    resumed = explore(spec, resume=True)
    tel = get_telemetry()
    assert tel.flows_run == 0 and tel.flow_stages_run == 0
    assert resumed.front_json() == first.front_json()


def test_interrupted_run_resumes_to_identical_front(fresh_cache):
    """Killing a run mid-way (simulated by deleting a manifest row)
    costs exactly the missing config on resume and converges on the
    same front bytes."""
    from repro.experiments import cache
    from repro.experiments.dse.search import _manifest_key

    spec = tiny_spec()
    full = explore(spec)
    assert len(full.rows) == 2

    mkey = _manifest_key(resolve_spec(spec))
    manifest = cache.load_manifest(mkey)
    dropped = sorted(manifest["rows"])[0]
    del manifest["rows"][dropped]
    manifest["complete"] = False
    cache.store_manifest(mkey, manifest)

    reset_telemetry()
    resumed = explore(spec, resume=True)
    tel = get_telemetry()
    # The dropped config re-evaluates from the result cache (flows all
    # disk hits), every other config is restored from the manifest.
    assert tel.flow_stages_run == 0
    assert dropped in resumed.rows
    assert resumed.front_json() == full.front_json()


def test_report_mode_reads_without_running(fresh_cache):
    spec = tiny_spec()
    assert load_report(spec) is None
    ran = explore(spec)
    reset_telemetry()
    loaded = load_report(spec)
    tel = get_telemetry()
    assert tel.flows_run == 0
    assert loaded is not None
    assert loaded.front_json() == ran.front_json()
    assert loaded.rows.keys() == ran.rows.keys()


def test_incompatible_configs_reported_never_run(fresh_cache):
    spec = tiny_spec(lattice=LatticeSpec(
        slow_tracks=(8,), slow_vdd=(0.62, 0.90),
        tier_caps=(0.25,), fm_tolerances=(0.10,),
    ))
    report = explore(spec)
    assert len(report.incompatible) == 1
    assert "0.3*V_DDH" in report.incompatible[0]["reason"]
    assert all("0.62" not in label for label in report.rows)


def test_prefix_checkpoint_rebinds_only_when_safe(fresh_cache, tmp_path):
    """The independence claim behind prefix reuse is *enforced*: a
    pre-partition checkpoint rebinding to a different slow library
    succeeds, while a post-partition checkpoint (instances already on
    the slow die) refuses loudly instead of silently mixing corners."""
    from repro.flow.hetero import run_flow_hetero_3d

    ckpt = tmp_path / "ckpts"
    fast = build_library(12, None)
    slow_a = build_library(8, 0.70)
    slow_b = build_library(8, 0.90)
    run_flow_hetero_3d(
        "aes", fast, slow_a, period_ns=1.2, scale=0.08,
        opt_iterations=2, checkpoint_dir=ckpt,
    )
    envelopes = {
        p.name: json.loads(p.read_text()) for p in ckpt.glob("*.json")
    }
    prefix_names = [
        f"{i:02d}_{stage}.json" for i, stage in enumerate(PREFIX_STAGES)
    ]
    for name in prefix_names:
        rebound = rebind_checkpoint_tier_library(envelopes[name], 1, slow_b)
        spec_entry = rebound["design"]["tier_libs"]["1"]
        assert spec_entry["name"] == slow_b.name
        assert rebound["checksum"] != envelopes[name]["checksum"]
        assert envelopes[name]["design"]["tier_libs"]["1"]["name"] == slow_a.name

    late = [n for n in sorted(envelopes) if n not in prefix_names]
    assert late, "flow produced no post-prefix checkpoints"
    with pytest.raises(CheckpointError, match="bound to"):
        rebind_checkpoint_tier_library(envelopes[late[-1]], 1, slow_b)


def test_suffix_reuse_serves_cached_flow_tail(fresh_cache, monkeypatch):
    """Evicting a (config, period) result while keeping the suffix
    cache forces re-evaluation down the fingerprint path: only the
    partitioning stage re-executes, and the tail comes back
    byte-identical from cache."""
    from repro.experiments import cache
    from repro.experiments.dse.search import (
        _flow_at_period,
        _result_cache_key,
    )

    monkeypatch.delenv("REPRO_CHECK", raising=False)
    spec = resolve_spec(tiny_spec())
    cfg = DseConfig(8, 0.70, 0.25, 0.10)
    period = period_grid(spec.design, spec.period_steps)[-1]
    cold = _flow_at_period(cfg, spec, period)
    tel = get_telemetry()
    assert tel.suffix_flows_reused == 0
    assert tel.flow_stages_run > 1

    rkey = _result_cache_key(cfg, spec, period)
    (cache.cache_dir() / f"{rkey}.json").unlink()

    reset_telemetry()
    again = _flow_at_period(cfg, spec, period)
    tel = get_telemetry()
    assert tel.suffix_flows_reused == 1
    # The prefix seeded synthesis + pseudo-place, the suffix cache
    # served everything after partitioning: one stage body ran.
    assert tel.flow_stages_run == 1
    assert again.to_dict() == cold.to_dict()


def test_partition_fingerprint_masks_parameter_echoes():
    """Two partitioned designs differing only in the cap/fm parameter
    echoes fingerprint identically; any real state difference does not."""
    from repro.experiments.dse.search import _partition_fingerprint
    from repro.flow.hetero import run_flow_hetero_3d
    from repro.integrity.checkpoint import design_from_dict, design_to_dict

    libs = {0: build_library(12, None), 1: build_library(8, 0.70)}
    design, _ = run_flow_hetero_3d(
        "aes", libs[0], libs[1], period_ns=1.2, scale=0.08,
        opt_iterations=2, until_stage="partitioning",
    )

    def variant(edit) -> str:
        copy = design_from_dict(design_to_dict(design), libs)
        edit(copy)
        return _partition_fingerprint(copy)

    def echoes(d):
        d.notes["pinned_area_cap"] = 0.30
        d.notes["pinned_cells"] = 5.0
        d.notes["fm_balance_tolerance"] = 0.2

    def move_cell(d):
        inst = next(i for i in d.netlist.instances.values()
                    if not i.cell.is_macro)
        inst.x_um += 3.0

    def other_note(d):
        d.notes["utilization_used"] = 0.70

    base = _partition_fingerprint(design)
    assert variant(lambda d: None) == base
    assert variant(echoes) == base, "parameter echoes leaked into the fingerprint"
    assert variant(move_cell) != base
    assert variant(other_note) != base
    # Masking works on a copy: the live design keeps its notes.
    assert "pinned_area_cap" in design.notes


def test_pruning_skips_are_certified_and_counted(fresh_cache):
    """Synthetic rows: a candidate whose every in-range neighbor is far
    worse than a front member must be pruned, with the certificate
    recorded; one with any potentially-better neighbor must not."""
    spec = resolve_spec(tiny_spec(
        lattice=LatticeSpec(
            slow_tracks=(8,), slow_vdd=(0.66, 0.70, 0.90),
            tier_caps=(0.225, 0.25), fm_tolerances=(0.10,),
        ),
        prune_distance=1,
    ))
    good = DseConfig(8, 0.70, 0.25, 0.10)
    bad = DseConfig(8, 0.90, 0.25, 0.10)
    rows = {
        good.label: {"config": good.to_dict(), "period_index": 2,
                     "metrics": {"pdp_pj": 1.0, "ppc": 100.0}},
        bad.label: {"config": bad.to_dict(), "period_index": 2,
                    "metrics": {"pdp_pj": 50.0, "ppc": 1.0}},
    }
    by_label = {lbl: DseConfig.from_dict(r["config"])
                for lbl, r in rows.items()}
    front = ParetoFront(2)
    for lbl, row in rows.items():
        front.add(lbl, _objective_vector(row, spec.objectives))

    candidate = DseConfig(8, 0.90, 0.225, 0.10)  # 1 step from `bad` only
    skip = _maybe_prune(candidate, spec, rows, by_label, front)
    assert skip is not None
    assert skip["dominated_by"] == good.label
    assert skip["neighbors"] == [bad.label]
    assert skip["distance"] == 1

    near_front = DseConfig(8, 0.66, 0.25, 0.10)  # 1 step from `good`
    assert _maybe_prune(near_front, spec, rows, by_label, front) is None

    # Widening the trust radius pulls `good`'s prediction into the
    # consensus bound: the pessimist's min un-certifies the same skip.
    wide = resolve_spec(replace(spec, prune_distance=3))
    held = _maybe_prune(candidate, wide, rows, by_label, front)
    assert held is None


def test_period_grid_is_shared_and_deterministic():
    a = period_grid("aes", 9)
    b = period_grid("aes", 9)
    assert a == b
    assert a == sorted(a)
    assert len(set(a)) == len(a)
    with pytest.raises(ValueError):
        period_grid("aes", 1)


def test_spec_env_resolution(monkeypatch):
    monkeypatch.setenv("REPRO_DSE_PERIOD_STEPS", "7")
    monkeypatch.setenv("REPRO_DSE_PRUNE", "off")
    monkeypatch.setenv("REPRO_DSE_WARM", "0")
    monkeypatch.setenv("REPRO_DSE_PRUNE_MARGIN", "0.4")
    spec = resolve_spec(ExploreSpec(design="aes"))
    assert spec.period_steps == 7
    assert spec.prune is False
    assert spec.warm_periods is False
    assert spec.reuse_prefix is True
    assert spec.prune_margin == (0.4, 0.4, 0.4, 0.4)
    # Explicit values beat the environment.
    pinned = resolve_spec(ExploreSpec(design="aes", period_steps=11, prune=True))
    assert pinned.period_steps == 11 and pinned.prune is True
    # Perf toggles stay out of the manifest identity: flipping them
    # must not change which stored run a resume finds.
    on = resolve_spec(ExploreSpec(design="aes", prune=True,
                                  warm_periods=True, reuse_prefix=True))
    off = resolve_spec(ExploreSpec(design="aes", prune=False,
                                   warm_periods=False, reuse_prefix=False))
    assert on.key_fields() == off.key_fields()


def _prefix_seed_then(cfg, spec, period):
    """Publish the prefix at ``period`` with another slow library, then
    evaluate ``cfg`` (which seeds from it); returns its result dict."""
    from repro.experiments.dse.search import _flow_at_period

    _flow_at_period(DseConfig(8, 0.90, 0.25, 0.10), spec, period)
    reset_telemetry()
    return _flow_at_period(cfg, spec, period).to_dict()


def test_in_memory_handoff_matches_its_oracles(tmp_path, monkeypatch):
    """The same (config, period) result three ways: prefix-seeded with a
    suffix-cache miss, under ``REPRO_CHECK=strict`` (suffix reuse off),
    and a plain uninterrupted flow that writes no checkpoints."""
    from repro.flow.hetero import run_flow_hetero_3d

    monkeypatch.delenv("REPRO_CHECK", raising=False)
    spec = resolve_spec(tiny_spec())
    cfg = DseConfig(8, 0.70, 0.25, 0.10)
    period = period_grid(spec.design, spec.period_steps)[-1]

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "seeded"))
    seeded = _prefix_seed_then(cfg, spec, period)
    tel = get_telemetry()
    assert tel.prefix_stages_reused == len(PREFIX_STAGES)
    assert tel.suffix_flows_reused == 0

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "strict"))
    monkeypatch.setenv("REPRO_CHECK", "strict")
    strict = _prefix_seed_then(cfg, spec, period)
    assert get_telemetry().prefix_stages_reused == len(PREFIX_STAGES)
    monkeypatch.delenv("REPRO_CHECK")

    _design, plain = run_flow_hetero_3d(
        spec.design, spec.lattice.fast_library(),
        build_library(cfg.slow_tracks, cfg.slow_vdd),
        period_ns=period, scale=spec.scale, seed=spec.seed,
        utilization=spec.utilization, opt_iterations=spec.opt_iterations,
        pinning_area_cap=cfg.tier_cap, fm_tolerance=cfg.fm_tolerance,
    )
    assert seeded == strict == plain.to_dict()


@pytest.mark.parametrize("tampered", [("01_pseudo_place.json",),
                                      ("00_synthesis.json",
                                       "01_pseudo_place.json")])
def test_tampered_prefix_entry_falls_back(tmp_path, monkeypatch, caplog,
                                          tampered):
    """A prefix-store entry whose payload no longer matches its stored
    checksum is refused with a warning; the evaluation falls back to
    the earlier stage (or a cold start) and its result equals a run
    without prefix reuse."""
    import logging

    from repro.experiments import cache
    from repro.experiments.dse.search import (
        _flow_at_period,
        _prefix_cache_key,
    )

    monkeypatch.delenv("REPRO_CHECK", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    spec = resolve_spec(tiny_spec())
    cfg = DseConfig(8, 0.70, 0.25, 0.10)
    period = period_grid(spec.design, spec.period_steps)[-1]
    _flow_at_period(DseConfig(8, 0.90, 0.25, 0.10), spec, period)

    store = cache.cache_dir() / "dse_prefix" / _prefix_cache_key(spec, period)
    for name in tampered:
        path = store / name
        env = json.loads(path.read_text())
        inst = next(d for d in env["design"]["netlist"]["instances"]
                    if not d["fixed"])
        inst["x_um"] = (inst["x_um"] or 0.0) + 3.0
        path.write_text(json.dumps(env))

    reset_telemetry()
    with caplog.at_level(logging.WARNING, logger="repro"):
        result = _flow_at_period(cfg, spec, period)
    refused = [r for r in caplog.records
               if "unusable" in r.message and "checksum" in r.message]
    assert len(refused) == len(tampered)
    assert (get_telemetry().prefix_stages_reused
            == len(PREFIX_STAGES) - len(tampered))

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "noprefix"))
    monkeypatch.setenv("REPRO_DSE_PREFIX", "0")
    baseline = _flow_at_period(cfg, resolve_spec(tiny_spec()), period)
    assert result.to_dict() == baseline.to_dict()


def test_explore_persists_only_the_prefix_store(fresh_cache, monkeypatch):
    """Work counts of a small exploration: no checkpoint is written for
    a stage after the prefix, at most one per prefix stage and key is
    written, and every checkpoint read comes from the prefix store."""
    from pathlib import Path

    import repro.experiments.dse.search as search
    import repro.flow.pipeline as pipeline
    import repro.integrity.checkpoint as checkpoint
    from repro.experiments import cache

    monkeypatch.delenv("REPRO_CHECK", raising=False)
    writes: list[tuple[Path, str]] = []
    loads: list[Path] = []
    real_write = checkpoint.write_checkpoint
    real_load = checkpoint.load_checkpoint

    def write(directory, index, stage, design):
        writes.append((Path(directory), stage))
        return real_write(directory, index, stage, design)

    def load(path, *args, **kwargs):
        loads.append(Path(path))
        return real_load(path, *args, **kwargs)

    monkeypatch.setattr(pipeline, "write_checkpoint", write)
    monkeypatch.setattr(checkpoint, "load_checkpoint", load)
    monkeypatch.setattr(search, "load_checkpoint", load)

    report = explore(tiny_spec(lattice=LatticeSpec(
        slow_tracks=(8,), slow_vdd=(0.70, 0.90),
        tier_caps=(0.25, 0.30), fm_tolerances=(0.10,),
    ), prune=False))
    tel = get_telemetry()
    assert report.ok and tel.prefix_stages_reused > 0
    assert tel.suffix_flows_reused > 0

    store = cache.cache_dir() / "dse_prefix"
    assert writes and loads
    assert {stage for _, stage in writes} <= set(PREFIX_STAGES)
    per_key: dict[Path, int] = {}
    for directory, _ in writes:
        assert directory.parent == store
        per_key[directory] = per_key.get(directory, 0) + 1
    assert max(per_key.values()) <= len(PREFIX_STAGES)
    assert all(path.parent.parent == store for path in loads)
