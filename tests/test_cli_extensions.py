"""Tests for the CLI extensions: --report, --budget, --spot, predict."""

import pytest

from repro.cli.main import main
from repro.core.cost import reprice_dataset, spot_savings_summary
from repro.cloud.pricing import PriceCatalog
from repro.core.dataset import DataPoint, Dataset

CONFIG = """
subscription: ext
skus:
  - Standard_HB120rs_v3
rgprefix: extrg
appsetupurl: https://example.org/lammps.sh
nnodes: [2, 3, 4, 8]
appname: lammps
region: southcentralus
ppr: 100
appinputs:
  BOXFACTOR: ["25"]
"""


@pytest.fixture
def collected(tmp_path):
    config_path = tmp_path / "config.yaml"
    config_path.write_text(CONFIG)
    state = str(tmp_path / "state")
    assert main(["--state-dir", state, "deploy", "create", "-c",
                 str(config_path)]) == 0
    assert main(["--state-dir", state, "collect", "-n", "extrg-000"]) == 0
    return state


class TestCollectExtensions:
    def test_report_flag(self, tmp_path, capsys):
        config_path = tmp_path / "config.yaml"
        config_path.write_text(CONFIG)
        state = str(tmp_path / "state")
        main(["--state-dir", state, "deploy", "create", "-c",
              str(config_path)])
        assert main(["--state-dir", state, "collect", "-n", "extrg-000",
                     "--report"]) == 0
        out = capsys.readouterr().out
        assert "Sweep report for extrg-000" in out
        assert "best time" in out

    def test_budget_flag_limits_spend(self, tmp_path, capsys):
        config_path = tmp_path / "config.yaml"
        config_path.write_text(CONFIG)
        state = str(tmp_path / "state")
        main(["--state-dir", state, "deploy", "create", "-c",
              str(config_path)])
        assert main(["--state-dir", state, "collect", "-n", "extrg-000",
                     "--budget", "0.8"]) == 0
        out = capsys.readouterr().out
        assert "skipped" in out

    def test_retry_flag_accepted(self, tmp_path, capsys):
        config_path = tmp_path / "config.yaml"
        config_path.write_text(CONFIG)
        state = str(tmp_path / "state")
        main(["--state-dir", state, "deploy", "create", "-c",
              str(config_path)])
        assert main(["--state-dir", state, "collect", "-n", "extrg-000",
                     "--retry-failed", "2"]) == 0


class TestAdviceSpot:
    def test_spot_section_printed(self, collected, capsys):
        assert main(["--state-dir", collected, "advice", "-n", "extrg-000",
                     "--spot"]) == 0
        out = capsys.readouterr().out
        assert "What-if: spot capacity (risk-adjusted)" in out
        assert "spot assumes" in out


class TestPredictCommand:
    def test_predicts_new_input(self, collected, capsys):
        assert main(["--state-dir", collected, "predict", "-n", "extrg-000",
                     "--input", "BOXFACTOR=30",
                     "--nnodes", "3", "4", "8", "16"]) == 0
        out = capsys.readouterr().out
        assert "predicted advice for lammps (BOXFACTOR=30)" in out
        assert "0 executions" in out
        assert "hb120rs_v3 *" in out

    def test_defaults_to_dataset_inputs(self, collected, capsys):
        assert main(["--state-dir", collected, "predict",
                     "-n", "extrg-000"]) == 0
        out = capsys.readouterr().out
        assert "BOXFACTOR=25" in out

    def test_knn_backend(self, collected, capsys):
        assert main(["--state-dir", collected, "predict", "-n", "extrg-000",
                     "--backend", "knn"]) == 0

    def test_requires_collected_data(self, tmp_path, capsys):
        assert main(["--state-dir", str(tmp_path), "predict",
                     "-n", "ghost"]) == 2

    def test_json_output(self, collected, capsys):
        import json

        assert main(["--state-dir", collected, "predict", "-n", "extrg-000",
                     "--input", "BOXFACTOR=30", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["deployment"] == "extrg-000"
        assert payload["model"] == "ridge"
        assert payload["inputs"] == {"BOXFACTOR": "30"}
        assert payload["rows"] and payload["rows"][0]["predicted"] is True


class TestParallelPoolsFlag:
    def test_parallel_pools_accepted_and_reported(self, tmp_path, capsys):
        config_path = tmp_path / "config.yaml"
        config_path.write_text(CONFIG.replace(
            "skus:\n  - Standard_HB120rs_v3",
            "skus:\n  - Standard_HB120rs_v3\n  - Standard_HC44rs",
        ))
        state = str(tmp_path / "state")
        assert main(["--state-dir", state, "deploy", "create", "-c",
                     str(config_path)]) == 0
        assert main(["--state-dir", state, "collect", "-n", "extrg-000",
                     "--parallel-pools", "2"]) == 0
        out = capsys.readouterr().out
        assert "sweep makespan" in out
        assert "2 parallel pool(s)" in out

    def test_parallel_pools_in_json_result(self, tmp_path, capsys):
        import json

        config_path = tmp_path / "config.yaml"
        config_path.write_text(CONFIG)
        state = str(tmp_path / "state")
        assert main(["--state-dir", state, "deploy", "create", "-c",
                     str(config_path)]) == 0
        capsys.readouterr()
        assert main(["--state-dir", state, "collect", "-n", "extrg-000",
                     "--parallel-pools", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_parallel_pools"] == 2
        assert payload["makespan_s"] > 0

    def test_invalid_parallel_pools_rejected(self, tmp_path, capsys):
        config_path = tmp_path / "config.yaml"
        config_path.write_text(CONFIG)
        state = str(tmp_path / "state")
        main(["--state-dir", state, "deploy", "create", "-c",
              str(config_path)])
        assert main(["--state-dir", state, "collect", "-n", "extrg-000",
                     "--parallel-pools", "0"]) == 2
        assert "max_parallel_pools" in capsys.readouterr().err


def dp(nnodes, t, sku="Standard_HB120rs_v3"):
    return DataPoint(appname="lammps", sku=sku, nnodes=nnodes, ppn=120,
                     exec_time_s=t,
                     cost_usd=nnodes * 3.6 * t / 3600.0,
                     appinputs={"BOXFACTOR": "30"})


class TestRepricing:
    def test_spot_reprices_down(self):
        data = Dataset([dp(16, 36.0), dp(3, 173.0)])
        spot = reprice_dataset(data, PriceCatalog(), spot=True)
        for before, after in zip(data, spot):
            assert after.cost_usd == pytest.approx(before.cost_usd * 0.30)
            assert after.exec_time_s == before.exec_time_s

    def test_reprice_against_other_region(self):
        data = Dataset([dp(16, 36.0)])
        eu = reprice_dataset(data, PriceCatalog(), region="westeurope")
        assert eu.points()[0].cost_usd > data.points()[0].cost_usd

    def test_summary_renders(self):
        data = Dataset([dp(16, 36.0), dp(3, 173.0)])
        text = spot_savings_summary(data, PriceCatalog())
        assert "on-demand" in text
        assert "hb120rs_v3" in text


class TestGuiBottlenecksPage:
    def test_page_renders(self, collected):
        from repro.api import AdvisorSession
        from repro.gui.pages import render_bottlenecks

        session = AdvisorSession(state_dir=collected)
        html = render_bottlenecks(session, "extrg-000")
        assert "Bottleneck" in html
        assert "hb120rs_v3" in html.lower() or "HB120rs_v3" in html


class TestMachineReadableSatellites:
    """--json on the last commands without machine-readable output."""

    def test_deploy_list_json(self, collected, capsys):
        import json

        assert main(["--state-dir", collected, "deploy", "list",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [d["name"] for d in payload["deployments"]] == ["extrg-000"]
        assert payload["deployments"][0]["appname"] == "lammps"

    def test_deploy_list_json_empty(self, tmp_path, capsys):
        import json

        assert main(["--state-dir", str(tmp_path / "s"), "deploy", "list",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["deployments"] == []
        assert payload["total"] == 0

    def test_plot_json(self, collected, capsys, tmp_path):
        import json

        out_dir = str(tmp_path / "plots")
        assert main(["--state-dir", collected, "plot", "-n", "extrg-000",
                     "-o", out_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["deployment"] == "extrg-000"
        assert payload["output_dir"] == out_dir
        assert len(payload["paths"]) == len(payload["kinds"])
        assert "pareto" in payload["kinds"]


class TestServiceCli:
    """serve + the remote-client trio submit/status/result."""

    @pytest.fixture
    def service(self, collected):
        import threading

        from repro.service.app import make_server

        server = make_server(collected, port=0, workers=2)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        yield f"http://127.0.0.1:{server.server_address[1]}"
        server.shutdown()
        server.server_close()
        server.state.close()
        thread.join(timeout=10)

    def test_parser_accepts_service_commands(self):
        from repro.cli.main import build_parser

        parser = build_parser()
        for argv in (
            ["serve", "--port", "0"],
            ["submit", "--url", "http://x", "-n", "d-000", "--wait"],
            ["status", "--url", "http://x"],
            ["status", "--url", "http://x", "job-123"],
            ["result", "--url", "http://x", "job-123"],
        ):
            parser.parse_args(argv)  # must not raise

    def test_submit_status_result_round_trip(self, service, capsys):
        import json

        assert main(["submit", "--url", service, "-n", "extrg-000",
                     "--wait", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["state"] == "done"

        assert main(["status", "--url", service]) == 0
        out = capsys.readouterr().out
        assert record["id"] in out
        assert "done" in out

        assert main(["result", "--url", service, record["id"]]) == 0
        out = capsys.readouterr().out
        assert "collection finished" in out
        assert "dataset" in out

    def test_submit_without_wait_then_result(self, service, capsys):
        assert main(["submit", "--url", service, "-n", "extrg-000"]) == 0
        out = capsys.readouterr().out
        job_id = out.split()[1].rstrip(":")
        assert job_id.startswith("job-")
        assert main(["result", "--url", service, job_id, "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["deployment"] == "extrg-000"

    def test_status_unknown_job_reports_error(self, service, capsys):
        assert main(["status", "--url", service, "job-nope"]) == 2
        assert "error" in capsys.readouterr().err



class TestSpotCli:
    """Acceptance: `collect/advice --capacity spot --recovery ...` returns
    advice whose expected cost reflects simulated evictions."""

    def spot_collect(self, tmp_path):
        config_path = tmp_path / "config.yaml"
        config_path.write_text(CONFIG)
        state = str(tmp_path / "state")
        assert main(["--state-dir", state, "deploy", "create", "-c",
                     str(config_path)]) == 0
        assert main(["--state-dir", state, "collect", "-n", "extrg-000",
                     "--capacity", "spot", "--recovery",
                     "checkpoint_restart",
                     "--checkpoint-interval", "5",
                     "--checkpoint-overhead", "1",
                     "--eviction-rate", "30", "--eviction-seed", "3"]) == 0
        return state

    def test_spot_collect_reports_preemptions(self, tmp_path, capsys):
        self.spot_collect(tmp_path)
        out = capsys.readouterr().out
        assert "spot capacity:" in out
        assert "preemption(s)" in out
        assert "recovery: checkpoint_restart" in out

    def test_spot_advice_reflects_simulated_evictions(self, tmp_path,
                                                      capsys):
        import json

        from repro.api.results import AdviceResult

        state = self.spot_collect(tmp_path)
        capsys.readouterr()
        assert main(["--state-dir", state, "advice", "-n", "extrg-000",
                     "--capacity", "spot", "--recovery",
                     "checkpoint_restart", "--json"]) == 0
        result = AdviceResult.from_dict(
            json.loads(capsys.readouterr().out)
        )
        assert result.capacity == "spot"
        assert result.rows
        for row in result.rows:
            assert row.capacity == "spot"
            # Expected completion includes the eviction recovery time.
            assert row.makespan_s >= row.exec_time_s
        assert any(row.preemptions > 0 for row in result.rows)

    def test_spot_advice_table_renders_risk_columns(self, tmp_path,
                                                    capsys):
        state = self.spot_collect(tmp_path)
        capsys.readouterr()
        assert main(["--state-dir", state, "advice", "-n", "extrg-000",
                     "--capacity", "spot"]) == 0
        out = capsys.readouterr().out
        assert "E[Span](s)" in out
        assert "P95(s)" in out
        assert "[spot]" in out

    def test_ondemand_what_if_strips_spot_dynamics(self, tmp_path, capsys):
        import json

        from repro.api.results import AdviceResult

        state = self.spot_collect(tmp_path)
        capsys.readouterr()
        assert main(["--state-dir", state, "advice", "-n", "extrg-000",
                     "--capacity", "ondemand", "--json"]) == 0
        result = AdviceResult.from_dict(
            json.loads(capsys.readouterr().out)
        )
        assert result.capacity == "ondemand"
        for row in result.rows:
            assert row.preemptions == 0


class TestDataCommand:
    """The `data` subcommand: paginated, store-pushed point listings."""

    def test_table_with_pagination(self, collected, capsys):
        assert main(["--state-dir", collected, "data", "-n", "extrg-000",
                     "--limit", "2", "--offset", "1"]) == 0
        out = capsys.readouterr().out
        assert "2 of 4 matching point(s), offset 1" in out
        assert out.count("lammps") == 2

    def test_json_page_round_trips(self, collected, capsys):
        import json

        from repro.api.results import DataPointsResult

        assert main(["--state-dir", collected, "data", "-n", "extrg-000",
                     "--nnodes", "2", "4", "--json"]) == 0
        result = DataPointsResult.from_dict(
            json.loads(capsys.readouterr().out)
        )
        assert result.total == 2
        assert sorted(p.nnodes for p in result.points) == [2, 4]

    def test_count_only_page(self, collected, capsys):
        assert main(["--state-dir", collected, "data", "-n", "extrg-000",
                     "--limit", "0", "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 4
        assert payload["points"] == []

    def test_no_matches(self, collected, capsys):
        assert main(["--state-dir", collected, "data", "-n", "extrg-000",
                     "--sku", "nosuchsku"]) == 0
        assert "(no matching data points)" in capsys.readouterr().out


class TestStoreSelection:
    def test_store_flag_forces_jsonl_layout(self, tmp_path, capsys):
        import os

        config_path = tmp_path / "config.yaml"
        config_path.write_text(CONFIG)
        state = str(tmp_path / "state")
        assert main(["--store", "jsonl", "--state-dir", state, "deploy",
                     "create", "-c", str(config_path)]) == 0
        assert main(["--store", "jsonl", "--state-dir", state, "collect",
                     "-n", "extrg-000"]) == 0
        assert os.path.exists(
            os.path.join(state, "dataset-extrg-000.jsonl"))
        assert not os.path.exists(
            os.path.join(state, "store-extrg-000.sqlite"))
        # The override is per-invocation: it must not leak.
        from repro.store import resolve_backend

        assert resolve_backend() == os.environ.get("REPRO_STORE", "sqlite")

    def test_shutdown_purge_flag(self, collected, capsys):
        import os

        assert main(["--state-dir", collected, "deploy", "shutdown",
                     "-n", "extrg-000", "--purge-data"]) == 0
        out = capsys.readouterr().out
        assert "purged" in out
        leftovers = [f for f in os.listdir(collected)
                     if "extrg-000" in f]
        assert leftovers == []

    def test_deploy_list_pagination(self, collected, capsys):
        assert main(["--state-dir", collected, "deploy", "list",
                     "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "extrg-000" in out
