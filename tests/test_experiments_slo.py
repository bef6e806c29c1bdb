"""SLO observatory experiment tests: the ISSUE acceptance criteria."""

import json

import pytest

from repro.config import SimConfig
from repro.experiments.registry import EXPERIMENT_IDS, run_experiment
from repro.experiments.runner import main
from repro.experiments.slo_observatory import run as run_observatory
from repro.obs.schema import validate_def

SCHEMA = json.loads(open("tools/trace_schema.json").read())

#: Small-but-meaningful smoke configuration (seconds, not minutes).
_SMALL = dict(
    scale=0.01, batch_size=8, num_batches=2, num_requests=1500
)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    path = tmp_path_factory.mktemp("slo") / "slo.jsonl"
    rep = run_observatory(
        config=SimConfig(seed=1234), slo_log=str(path), **_SMALL
    )
    return rep, path


class TestAcceptance:
    """The PR's acceptance bar, locked."""

    def test_registered(self):
        assert "slo_observatory" in EXPERIMENT_IDS

    def test_every_fault_window_detected(self, report):
        rep, _ = report
        summaries = [
            r for r in rep.rows
            if r["kind"] == "summary" and r["scenario"] != "none"
        ]
        assert summaries
        for row in summaries:
            assert row["windows"] > 0
            assert row["detected"] == row["windows"]
            assert row["recall"] == 1.0

    def test_precision_at_least_09_with_finite_mttd(self, report):
        rep, _ = report
        for row in rep.rows:
            if row["kind"] != "detection":
                continue
            assert row["precision"] >= 0.9
            assert row["mttd_ms"] is not None
            assert 0.0 <= row["mttd_ms"] < float("inf")

    def test_all_fault_classes_scored(self, report):
        rep, _ = report
        classes = {
            r["name"] for r in rep.rows if r["kind"] == "detection"
        }
        assert classes == {"node_crash", "node_partition", "node_slow"}

    def test_budget_burns_in_fault_windows_and_recovers(self, report):
        rep, _ = report
        kill = next(
            r for r in rep.rows
            if r["kind"] == "summary" and r["scenario"] == "node_kill"
        )
        assert kill["burn_in"] > 1.0
        assert kill["burn_in"] > 2.0 * kill["burn_out"]

    def test_quiet_scenario_stays_quiet(self, report):
        rep, _ = report
        for row in rep.rows:
            if row["scenario"] != "none":
                continue
            if row["kind"] == "slo":
                assert row["alerts"] == 0
                assert row["budget_final"] == pytest.approx(1.0)
            if row["kind"] == "summary":
                assert row["alerts"] == 0

    def test_headline_note_present(self, report):
        rep, _ = report
        assert any("every injected fault window" in n for n in rep.notes)


class TestSloLog:
    def test_lines_schema_valid(self, report):
        _, path = report
        lines = [
            json.loads(l) for l in path.read_text().splitlines() if l.strip()
        ]
        assert lines[0]["kind"] == "slo_log_meta"
        assert lines[0]["lines"] == len(lines) - 1 > 0
        kinds = {"slo_state": "slo_state", "alert": "alert_event"}
        seen = set()
        for rec in lines[1:]:
            seen.add(rec["kind"])
            assert validate_def(rec, SCHEMA, kinds[rec["kind"]]) == []
        assert seen == {"slo_state", "alert"}

    def test_alerts_cover_both_sources(self, report):
        _, path = report
        sources = {
            json.loads(l)["source"]
            for l in path.read_text().splitlines()
            if l.strip() and json.loads(l).get("kind") == "alert"
        }
        assert sources == {"slo_burn", "detector"}


class TestDeterminism:
    def test_rows_byte_stable(self, report):
        rep, _ = report
        again = run_observatory(config=SimConfig(seed=1234), **_SMALL)
        assert json.dumps(rep.rows, sort_keys=True) == json.dumps(
            again.rows, sort_keys=True
        )

    def test_seed_changes_rows(self):
        a = run_observatory(config=SimConfig(seed=1), **_SMALL)
        b = run_observatory(config=SimConfig(seed=2), **_SMALL)
        assert json.dumps(a.rows) != json.dumps(b.rows)


_CLUSTER_SMALL = [
    "cluster_resilience", "--scale", "0.01", "--batch-size", "8",
    "--num-batches", "1", "--num-nodes", "3", "--replication", "2",
    "--num-requests", "400",
]


class TestRunnerIntegration:
    def test_slo_log_flag_forwarded_and_written(self, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        args = [
            "slo_observatory", "--scale", "0.01", "--batch-size", "8",
            "--num-batches", "1", "--num-requests", "400",
            "--obs", str(obs_dir),
        ]
        assert main(args) == 0
        assert "[slo:" in capsys.readouterr().out
        log = obs_dir / "slo.jsonl"
        lines = log.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "slo_log_meta"
        assert len(lines) > 1

    def test_slo_log_run_bypasses_cache(self, tmp_path, monkeypatch, capsys):
        from repro.experiments.runner import CACHE_DIR

        monkeypatch.chdir(tmp_path)
        args = [
            "slo_observatory", "--scale", "0.01", "--batch-size", "8",
            "--num-batches", "1", "--num-requests", "400",
        ]
        assert main(args + ["--cache"]) == 0
        assert list((tmp_path / CACHE_DIR).glob("*.json"))
        capsys.readouterr()
        obs_dir = tmp_path / "obs"
        assert main(args + ["--cache", "--obs", str(obs_dir)]) == 0
        out = capsys.readouterr().out
        assert "cached" not in out
        assert (obs_dir / "slo.jsonl").exists()

    def test_cluster_request_log_deterministic_across_jobs(
        self, tmp_path, capsys
    ):
        """Merged multi-node request logs are byte-identical at any --jobs."""
        exports = []
        for jobs in ("1", "3"):
            obs_dir = tmp_path / f"obs{jobs}"
            assert main(
                _CLUSTER_SMALL + ["--jobs", jobs, "--obs", str(obs_dir)]
            ) == 0
            exports.append((obs_dir / "requests.jsonl").read_bytes())
        assert exports[0] == exports[1]

    def test_deterministic_report_via_registry(self):
        rows = []
        for _ in range(2):
            rep = run_experiment(
                "slo_observatory", config=SimConfig(seed=7), **_SMALL
            )
            rows.append(json.dumps(rep.rows, sort_keys=True))
        assert rows[0] == rows[1]
