"""Tests for the ``python -m repro`` command-line entry point."""

import pytest

from repro.__main__ import _EXPERIMENTS, main


class TestCli:
    def test_quick_single_experiment(self, capsys):
        assert main(["--quick", "toy"]) == 0
        out = capsys.readouterr().out
        assert "toy" in out
        assert "option 2" in out

    def test_quick_multiple(self, capsys):
        assert main(["--quick", "fig2", "fig8"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out and "Fig. 8" in out

    def test_registry_covers_all_figures(self):
        expected = {
            "toy", "fig2", "fig3", "fig7", "fig8", "fig9",
            "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
            "fig17", "headline",
        }
        assert set(_EXPERIMENTS) == expected

    def test_backend_choices_are_the_engine_backends(self):
        from repro.__main__ import _BACKENDS
        from repro.engine import BACKENDS

        assert _BACKENDS == BACKENDS

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_silenced_scheme_runs_end_to_end(self, capsys, tmp_path):
        """`--schemes silenced` sweeps the fourth scheme through a campaign
        figure; `--cache-dir` persists its cells and `--out` the report."""
        cache = tmp_path / "cache"
        out = tmp_path / "out"
        args = [
            "--quick", "fig10",
            "--schemes", "silenced",
            "--cache-dir", str(cache),
            "--out", str(out),
        ]
        assert main(args) == 0
        report = (out / "fig10.txt").read_text()
        assert "SILENCED ms" in report
        assert any(cache.rglob("*.json"))  # cells were persisted
        first = capsys.readouterr().out
        # Second invocation loads every cell from the cache and reproduces
        # the identical report, on stdout and in the --out file.
        assert main(args) == 0
        second = capsys.readouterr().out
        assert report in first and report in second
        assert (out / "fig10.txt").read_text() == report

    def test_unknown_scheme_flag_rejected(self):
        with pytest.raises(SystemExit):
            main(["--quick", "fig10", "--schemes", "aloha"])

    def test_fig15_smoke_mode(self, capsys):
        """The CI smoke leg: tiny K, two location seeds, end-to-end schemes
        (including their stage decomposition) through the real CLI."""
        assert main(["--quick", "fig15"]) == 0
        out = capsys.readouterr().out
        assert "buzz-e2e" in out and "gen2-tdma-e2e" in out
        assert "+" in out  # staged cells render total (identification+data)

    def test_fig15_e2e_scheme_with_dense_scenario(self, capsys):
        """The README quickstart: an end-to-end scheme on the dense class."""
        assert main(
            ["--quick", "fig15", "--schemes", "buzz-e2e", "--scenario", "dense"]
        ) == 0
        out = capsys.readouterr().out
        assert "buzz-e2e" in out

    def test_fig16_smoke_mode(self, capsys):
        """The CI smoke leg: the drift × churn grid with the adaptive
        session, static session and oracle through the real CLI."""
        assert main(["--quick", "fig16", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "buzz-adaptive" in out and "drift/s" in out
        assert "goodput" in out  # the adaptive-vs-static summary line

    def test_adaptive_scheme_on_mobile_scenario(self, capsys):
        """The README mobility quickstart: buzz-adaptive on mobile-dense."""
        assert main(
            ["--quick", "fig15", "--schemes", "buzz-adaptive,buzz-e2e",
             "--scenario", "mobile-dense"]
        ) == 0
        out = capsys.readouterr().out
        assert "buzz-adaptive" in out


class TestDistributedCli:
    """The cache-queue backend, worker subcommand and cache maintenance."""

    def test_backend_cache_queue_matches_serial(self, capsys, tmp_path):
        """`--backend cache-queue` (single coordinator) reproduces the
        serial report byte for byte — the CI distributed smoke in-process."""
        args = ["--quick", "fig10", "--schemes", "tdma",
                "--out", str(tmp_path / "serial")]
        assert main(args) == 0
        capsys.readouterr()
        queue_args = ["--quick", "fig10", "--schemes", "tdma",
                      "--backend", "cache-queue",
                      "--cache-dir", str(tmp_path / "cache"),
                      "--out", str(tmp_path / "queue")]
        assert main(queue_args) == 0
        capsys.readouterr()
        serial = (tmp_path / "serial" / "fig10.txt").read_text()
        queued = (tmp_path / "queue" / "fig10.txt").read_text()
        assert queued == serial

    def test_backend_cache_queue_requires_cache_dir(self):
        with pytest.raises(SystemExit):
            main(["--quick", "fig10", "--backend", "cache-queue"])

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(["--quick", "fig10", "--backend", "carrier-pigeon"])

    def test_inapplicable_flags_are_noted(self, capsys):
        """A flag the experiment's ``run`` takes no parameter for is noted,
        and ``--jobs`` is noted as ignored by every backend but the pool."""
        assert main(["--quick", "fig2", "--jobs", "2", "--backend", "serial"]) == 0
        out = capsys.readouterr().out
        assert "(note: --jobs ignored by --backend serial)" in out
        assert "(note: --backend, --jobs not applicable to fig2)" in out
        assert main(["--quick", "fig2", "--jobs", "2", "--backend", "process-pool"]) == 0
        assert "ignored by" not in capsys.readouterr().out

    def test_progress_flag_streams_cells(self, capsys):
        assert main(["--quick", "fig10", "--schemes", "tdma", "--progress"]) == 0
        captured = capsys.readouterr()
        assert "cells" in captured.err and "tdma" in captured.err
        assert "cells" not in captured.out  # progress never pollutes reports

    def test_worker_drains_published_campaign(self, capsys, tmp_path):
        """`python -m repro worker` picks up a published envelope, executes
        every cell, and a later cache-queue coordinator finds them done."""
        from repro.engine import CampaignCache, CampaignSpec, run_campaign
        from repro.engine.queue import pack_campaign
        from repro.engine.schemes import get_scheme
        from repro.network.scenarios import default_uplink_scenario

        spec = CampaignSpec(
            scenario=default_uplink_scenario(4), root_seed=7,
            n_locations=1, n_traces=2, schemes=("tdma",),
        )
        cache = CampaignCache(tmp_path)
        cache.publish_job(
            "cli-job", pack_campaign(spec, {"tdma": get_scheme("tdma")})
        )
        assert main(["worker", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"{spec.n_cells} cell(s) executed" in out
        # the worker's cells satisfy a later coordinator: nothing to run
        result = run_campaign(spec, backend="cache-queue", cache_dir=str(tmp_path))
        assert result.to_json() == run_campaign(spec).to_json()

    def test_worker_on_empty_cache_exits_immediately(self, capsys, tmp_path):
        assert main(["worker", "--cache-dir", str(tmp_path)]) == 0
        assert "0 cell(s) executed" in capsys.readouterr().out

    def test_worker_requires_cache_dir(self):
        with pytest.raises(SystemExit):
            main(["worker"])

    def test_worker_rejects_bad_flags(self, tmp_path):
        for bad in (["--poll", "0"], ["--idle-timeout", "-1"], ["--max-cells", "0"]):
            with pytest.raises(SystemExit):
                main(["worker", "--cache-dir", str(tmp_path), *bad])
