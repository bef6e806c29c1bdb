"""Critical-path observatory experiment tests: the ISSUE acceptance bar."""

import json

import pytest

from repro.config import SimConfig
from repro.experiments.critpath_observatory import GATED_KNOBS
from repro.experiments.critpath_observatory import run as run_observatory
from repro.experiments.registry import EXPERIMENT_IDS
from repro.experiments.runner import main
from repro.obs.schema import validate_def

SCHEMA = json.loads(open("tools/trace_schema.json").read())

#: Small-but-meaningful smoke configuration (seconds, not minutes).
_SMALL = dict(num_requests=1500)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    path = tmp_path_factory.mktemp("critpath") / "critpath.jsonl"
    rep = run_observatory(
        config=SimConfig(seed=7), critpath_log=str(path), **_SMALL
    )
    return rep, path


class TestAcceptance:
    """The PR's acceptance bar, locked."""

    def test_registered(self):
        assert "critpath_observatory" in EXPERIMENT_IDS

    def test_conservation_exact_in_both_scenarios(self, report):
        rep, _ = report
        rows = [r for r in rep.rows if r["kind"] == "conservation"]
        assert {r["scenario"] for r in rows} == {"node_kill", "noisy"}
        for row in rows:
            assert row["requests"] == _SMALL["num_requests"]
            assert row["violations"] == 0

    def test_unattributed_time_is_a_sliver(self, report):
        rep, _ = report
        for row in rep.rows:
            if row["kind"] == "conservation":
                assert row["other_frac"] < 0.05

    def test_every_gated_prediction_within_bounds(self, report):
        rep, _ = report
        gated = [
            r for r in rep.rows
            if r["kind"] == "whatif" and r["knob"] in GATED_KNOBS
        ]
        # The acceptance criterion names >= 3 knobs; the suite gates 4.
        assert len(gated) >= 3
        assert {r["knob"] for r in gated} == set(GATED_KNOBS)
        for row in gated:
            assert row["actual"] is not None
            assert row["within_bounds"] is True

    def test_extra_cores_is_estimate_only(self, report):
        rep, _ = report
        rows = [
            r for r in rep.rows
            if r["kind"] == "whatif" and r["knob"] == "extra_cores"
        ]
        assert rows
        for row in rows:
            assert row["actual"] is None
            assert row["within_bounds"] is None
            assert row["estimated"] is True

    def test_headline_notes_present(self, report):
        rep, _ = report
        notes = "\n".join(rep.notes)
        assert "conservation" in notes
        assert "headline" in notes


class TestProfiles:
    def test_profile_rows_name_a_bottleneck(self, report):
        rep, _ = report
        rows = [r for r in rep.rows if r["kind"] == "profile"]
        scopes = {(r["scenario"], r["scope"]) for r in rows}
        assert ("node_kill", "overall") in scopes
        assert ("noisy", "overall") in scopes
        for row in rows:
            assert row["bottleneck"] is not None
            assert 0.0 < row["bottleneck_frac"] <= 1.0


class TestLog:
    def test_log_lines_are_schema_valid(self, report):
        _, path = report
        defs = {"critpath_profile": "critpath_record", "whatif": "whatif_record"}
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        meta = lines[0]
        assert meta["kind"] == "critpath_log_meta"
        assert meta["lines"] == len(lines) - 1
        kinds = set()
        for rec in lines[1:]:
            kinds.add(rec["kind"])
            assert validate_def(rec, SCHEMA, defs[rec["kind"]]) == []
        assert kinds == {"critpath_profile", "whatif"}

    def test_log_covers_node_and_shard_scopes(self, report):
        _, path = report
        scopes = {
            json.loads(l).get("scope")
            for l in path.read_text().splitlines()
        }
        assert any(s and s.startswith("node:") for s in scopes)
        assert any(s and s.startswith("shard:") for s in scopes)


class TestRunner:
    def test_cli_smoke_writes_log(self, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        main(
            [
                "--experiment", "critpath_observatory",
                "--num-requests", "800",
                "--obs", str(obs_dir),
            ]
        )
        out = capsys.readouterr().out
        assert "critpath_observatory" in out
        assert "[critpath:" in out
        log = obs_dir / "critpath.jsonl"
        assert log.exists()
        first = json.loads(log.read_text().splitlines()[0])
        assert first["kind"] == "critpath_log_meta"
