"""Tests for the command-line interface."""

import pytest

from repro.cli import FIGURES, main
from repro.experiments import settings


@pytest.fixture(autouse=True)
def fast_quick(monkeypatch):
    """Shrink the quick scale so CLI tests stay fast."""
    micro = settings.RunScale(
        name="micro",
        warmup_ns=800_000.0,
        measure_ns=1_500_000.0,
        latency_measure_ns=3_000_000.0,
    )
    monkeypatch.setattr("repro.cli.QUICK", micro)


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in FIGURES:
        assert name in out


def test_unknown_figure_errors(capsys):
    assert main(["fig99"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_runs_one_figure(capsys):
    assert main(["fig12"]) == 0
    out = capsys.readouterr().out
    assert "Fig 12" in out
    assert "fns" in out


def test_out_file_appended(tmp_path, capsys):
    target = tmp_path / "tables.txt"
    assert main(["fig12", "--out", str(target)]) == 0
    capsys.readouterr()
    assert "Fig 12" in target.read_text()


def test_jobs_flag_runs_figure(capsys):
    assert main(["fig12", "--jobs", "2"]) == 0
    assert "Fig 12" in capsys.readouterr().out


def test_profile_prints_hotspots(capsys):
    assert main(["profile", "fig12", "--lines", "5"]) == 0
    out = capsys.readouterr().out
    assert "Fig 12" in out
    assert "cumulative" in out  # pstats header for the default sort


def test_profile_unknown_figure_errors(capsys):
    assert main(["profile", "fig99"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_profile_dumps_raw_stats(tmp_path, capsys):
    target = tmp_path / "fig12.pstats"
    assert main(
        ["profile", "fig12", "--lines", "3", "--out", str(target)]
    ) == 0
    capsys.readouterr()
    assert target.stat().st_size > 0


def test_profile_bad_sort_key_errors(capsys):
    assert main(["profile", "fig12", "--sort", "nope"]) == 2
    assert "unknown sort key" in capsys.readouterr().err


def test_profile_bad_sort_key_rejected_before_running(monkeypatch, capsys):
    def must_not_run(**kwargs):
        raise AssertionError("the figure ran before --sort was validated")

    _runner, description = FIGURES["fig2"]
    monkeypatch.setitem(FIGURES, "fig2", (must_not_run, description))
    assert main(["profile", "fig2", "--sort", "bogus"]) == 2
    assert "unknown sort key 'bogus'" in capsys.readouterr().err
