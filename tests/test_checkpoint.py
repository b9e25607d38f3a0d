"""Checkpoint serialization, checksum integrity, and stage resume."""

import json

import pytest

from repro.errors import CheckpointError, FlowError
from repro.flow import run_flow_2d
from repro.flow.pipeline import FlowContext, Stage, execute_flow
from repro.integrity import (
    design_from_dict,
    design_to_dict,
    latest_valid_checkpoint,
    library_from_spec,
    load_checkpoint,
    write_checkpoint,
)
from repro.liberty.presets import make_twelve_track_library

SCALE = 0.12


@pytest.fixture(scope="module")
def finished():
    design, result = run_flow_2d(
        "aes", make_twelve_track_library(), period_ns=1.0, scale=SCALE,
        seed=4,
    )
    return design, result


class TestSerialization:
    def test_roundtrip_is_byte_identical(self, finished):
        design, _ = finished
        once = design_to_dict(design)
        again = design_to_dict(design_from_dict(once))
        assert (json.dumps(once, sort_keys=True)
                == json.dumps(again, sort_keys=True))

    def test_rebuilt_design_validates(self, finished):
        design, _ = finished
        rebuilt = design_from_dict(design_to_dict(design))
        rebuilt.netlist.validate()
        assert rebuilt.name == design.name
        assert rebuilt.clock_report == design.clock_report

    def test_caller_libs_are_bound_verbatim(self, finished):
        design, _ = finished
        lib = design.tier_libs[0]
        rebuilt = design_from_dict(design_to_dict(design), tier_libs={0: lib})
        assert rebuilt.tier_libs[0] is lib
        inst = next(i for i in rebuilt.netlist.instances.values()
                    if not i.cell.is_macro)
        assert any(c is inst.cell for c in lib.cells)

    def test_library_from_spec_variants(self):
        lib = library_from_spec(
            {"name": "28nm_12T", "tracks": 12, "vdd_v": 0.9}
        )
        assert lib.name == "28nm_12T"
        low = library_from_spec(
            {"name": "28nm_9T_0.55V", "tracks": 9, "vdd_v": 0.55}
        )
        assert low.vdd_v == 0.55


class TestEnvelope:
    def test_write_and_load(self, finished, tmp_path):
        design, _ = finished
        path = write_checkpoint(tmp_path, 3, "optimize", design)
        assert path.name == "03_optimize.json"
        stage, loaded = load_checkpoint(path)
        assert stage == "optimize"
        assert (json.dumps(design_to_dict(loaded), sort_keys=True)
                == json.dumps(design_to_dict(design), sort_keys=True))

    def test_tampered_payload_is_rejected(self, finished, tmp_path):
        design, _ = finished
        path = write_checkpoint(tmp_path, 0, "synthesis", design)
        env = json.loads(path.read_text())
        env["design"]["target_period_ns"] = 99.0
        path.write_text(json.dumps(env))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_truncated_file_is_rejected(self, finished, tmp_path):
        design, _ = finished
        path = write_checkpoint(tmp_path, 0, "synthesis", design)
        path.write_text(path.read_text()[:100])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_file_is_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope.json")

    def test_fallback_walks_past_corrupt(self, finished, tmp_path):
        design, _ = finished
        names = ["a", "b", "c"]
        for i, n in enumerate(names):
            write_checkpoint(tmp_path, i, n, design)
        (tmp_path / "01_b.json").write_text("garbage")
        found = latest_valid_checkpoint(tmp_path, names, 2, None)
        assert found is not None and found[0] == 0
        assert found[1].name == design.name

    def test_fallback_none_when_all_bad(self, tmp_path):
        assert latest_valid_checkpoint(tmp_path, ["a", "b"], 2, None) is None

    def test_concurrent_writers_of_one_file(self, finished, tmp_path):
        """Processes publishing the same checkpoint at once (explorer
        workers sharing the prefix store) never clobber each other's
        temp file: every write succeeds and the result verifies."""
        import multiprocessing

        design, _ = finished
        payload = design_to_dict(design)
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(4) as pool:
            written = pool.starmap_async(
                _write_repeatedly, [(str(tmp_path), payload)] * 4
            ).get(timeout=120)
        assert written == [20] * 4
        assert [p.name for p in tmp_path.iterdir()] == ["00_synthesis.json"]
        stage, _loaded = load_checkpoint(tmp_path / "00_synthesis.json")
        assert stage == "synthesis"


def _write_repeatedly(directory: str, payload: dict) -> int:
    design = design_from_dict(payload)
    for _ in range(20):
        write_checkpoint(directory, 0, "synthesis", design)
    return 20


class TestResume:
    def test_resume_is_byte_identical(self, tmp_path):
        lib = make_twelve_track_library()
        kw = dict(period_ns=1.0, scale=SCALE, seed=4,
                  checkpoint_dir=str(tmp_path))
        _, full = run_flow_2d("aes", lib, **kw)
        _, resumed = run_flow_2d("aes", lib, **kw, from_stage="cts")
        assert (json.dumps(full.to_dict(), sort_keys=True)
                == json.dumps(resumed.to_dict(), sort_keys=True))

    def test_resume_falls_back_past_corrupt_stage(self, tmp_path):
        lib = make_twelve_track_library()
        kw = dict(period_ns=1.0, scale=SCALE, seed=4,
                  checkpoint_dir=str(tmp_path))
        _, full = run_flow_2d("aes", lib, **kw)
        (tmp_path / "03_optimize.json").write_text("garbage")
        _, resumed = run_flow_2d("aes", lib, **kw, from_stage="cts")
        assert (json.dumps(full.to_dict(), sort_keys=True)
                == json.dumps(resumed.to_dict(), sort_keys=True))

    def test_from_stage_requires_checkpoint_dir(self):
        lib = make_twelve_track_library()
        with pytest.raises(FlowError, match="checkpoint-dir"):
            run_flow_2d("aes", lib, period_ns=1.0, scale=SCALE, seed=4,
                        from_stage="cts")

    def test_unknown_stage_rejected(self, tmp_path):
        lib = make_twelve_track_library()
        with pytest.raises(FlowError, match="unknown stage"):
            run_flow_2d("aes", lib, period_ns=1.0, scale=SCALE, seed=4,
                        checkpoint_dir=str(tmp_path), from_stage="routing")


class TestInMemoryResume:
    """``execute_flow(design=..., from_stage=...)`` continues a live
    design exactly as a loaded checkpoint does."""

    KW = dict(period_ns=1.2, scale=0.08, opt_iterations=2)

    @pytest.fixture(scope="class")
    def hetero(self, tmp_path_factory):
        from repro.experiments.dse.space import build_library
        from repro.flow.hetero import run_flow_hetero_3d

        libs = (build_library(12, None), build_library(8, 0.70))
        ckpt = tmp_path_factory.mktemp("hetero_ckpt")
        _, full = run_flow_hetero_3d(
            "aes", *libs, checkpoint_dir=str(ckpt), **self.KW
        )
        names = [p.stem.split("_", 1)[1] for p in sorted(ckpt.glob("*.json"))]
        return libs, ckpt, names, full

    def test_each_boundary_matches_checkpoint_resume(self, hetero):
        from repro.flow.hetero import run_flow_hetero_3d

        libs, ckpt, names, full = hetero
        expected = json.dumps(full.to_dict(), sort_keys=True)
        for stop, resume in zip(names, names[1:]):
            design, partial = run_flow_hetero_3d(
                "aes", *libs, until_stage=stop, **self.KW
            )
            assert partial is None
            _, in_memory = run_flow_hetero_3d(
                "aes", *libs, design=design, from_stage=resume, **self.KW
            )
            _, loaded = run_flow_hetero_3d(
                "aes", *libs, checkpoint_dir=str(ckpt), from_stage=resume,
                checkpoint_stages=(), **self.KW
            )
            assert json.dumps(in_memory.to_dict(), sort_keys=True) == expected, (
                f"in-memory resume at {resume!r} diverged"
            )
            assert json.dumps(loaded.to_dict(), sort_keys=True) == expected

    def test_checkpoint_stages_limits_writes(self, hetero, tmp_path):
        from repro.flow.hetero import run_flow_hetero_3d

        libs, _, names, _ = hetero
        run_flow_hetero_3d(
            "aes", *libs, checkpoint_dir=str(tmp_path),
            checkpoint_stages=("synthesis", "pseudo_place"),
            until_stage="partitioning", **self.KW
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "00_synthesis.json", "01_pseudo_place.json",
        ]

    def test_resumed_design_must_carry_flow_libraries(self, hetero):
        from repro.experiments.dse.space import build_library
        from repro.flow.hetero import run_flow_hetero_3d

        libs, _, _, _ = hetero
        design, _ = run_flow_hetero_3d(
            "aes", *libs, until_stage="synthesis", **self.KW
        )
        with pytest.raises(FlowError, match="library mismatch"):
            run_flow_hetero_3d(
                "aes", libs[0], build_library(8, 0.90), design=design,
                from_stage="pseudo_place", **self.KW
            )
        with pytest.raises(FlowError, match="from_stage"):
            run_flow_hetero_3d("aes", *libs, design=design, **self.KW)


class TestDriver:
    def test_duplicate_stage_names_rejected(self):
        s = [Stage("a", lambda ctx: None), Stage("a", lambda ctx: None)]
        with pytest.raises(FlowError, match="duplicate"):
            execute_flow(s)

    def test_stages_run_in_order(self):
        seen = []
        s = [
            Stage("a", lambda ctx: seen.append("a")),
            Stage("b", lambda ctx: seen.append("b")),
        ]
        ctx = execute_flow(s)
        assert seen == ["a", "b"]
        assert isinstance(ctx, FlowContext)


class TestStrictOffEquivalence:
    def test_strict_matches_off_byte_for_byte(self):
        lib = make_twelve_track_library()
        kw = dict(period_ns=1.0, scale=SCALE, seed=4)
        _, off = run_flow_2d("aes", lib, **kw, check="off")
        _, strict = run_flow_2d("aes", lib, **kw, check="strict")
        assert (json.dumps(off.to_dict(), sort_keys=True)
                == json.dumps(strict.to_dict(), sort_keys=True))
