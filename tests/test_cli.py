"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest

from isingring import observables
from isingring.cli import (
    main,
    refine_extremum,
    refined_maximum,
    refined_minimum,
    validate_suite,
)


def read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class TestExtremumHelpers:
    def test_parabola_is_refined_exactly(self):
        x = np.arange(0.0, 3.0, 0.5)
        y = (x - 1.3) ** 2 + 0.2
        xe, ye = refined_minimum(x, y)
        assert xe == pytest.approx(1.3, abs=1e-12)
        assert ye == pytest.approx(0.2, abs=1e-12)
        xm, ym = refined_maximum(x, -y)
        assert xm == pytest.approx(1.3, abs=1e-12)
        assert ym == pytest.approx(-0.2, abs=1e-12)

    def test_window_restricts_search(self):
        x = np.arange(10.0)
        y = np.array([5.0, 0.0, 5.0, 5.0, 5.0, 4.0, 1.0, 4.0, 5.0, 5.0])
        assert refined_minimum(x, y)[0] == pytest.approx(1.0)
        xe, _ = refined_minimum(x, y, window=(4.0, 9.0))
        assert xe == pytest.approx(6.0)
        assert refined_minimum(x, y, window=(20.0, 30.0)) is None

    def test_boundary_extremum_not_interpolated(self):
        x = np.arange(5.0)
        y = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        assert refine_extremum(x, y, 0) == (0.0, 0.0)
        assert refine_extremum(x, y, 4) == (4.0, 4.0)


class TestQuenchCommand:
    def test_writes_csv_and_summary(self, tmp_path):
        out = tmp_path / "q.csv"
        rc = main(
            ["quench", "--n", "8", "--gf", "0.5", "--tmax", "2.0", "--dt", "0.5",
             "--out", str(out)]
        )
        assert rc == 0
        data = read_csv(out)
        assert data.shape == (5, 4)
        np.testing.assert_allclose(data[:, 0], [0.0, 0.5, 1.0, 1.5, 2.0])
        assert data[0, 1] == pytest.approx(1.0, abs=1e-10)
        with open(tmp_path / "q.summary.json") as fh:
            summary = json.load(fh)
        assert summary["command"] == "quench"
        assert summary["config"]["n"] == 8
        assert "first_minimum" in summary

    def test_runs_are_deterministic(self, tmp_path):
        argv = ["quench", "--n", "6", "--gf", "1.0", "--tmax", "1.0", "--dt", "0.25"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_validate_passes_against_oracle(self, tmp_path):
        out = tmp_path / "q.csv"
        rc = main(
            ["quench", "--n", "6", "--gf", "0.8", "--tmax", "1.5", "--dt", "0.5",
             "--out", str(out), "--validate"]
        )
        assert rc == 0
        with open(tmp_path / "q.summary.json") as fh:
            summary = json.load(fh)
        assert summary["validation"]["pass"] is True
        assert summary["validation"]["max_abs_deviation"] < 1e-10

    def test_validate_fails_on_corrupted_engine(self, tmp_path, monkeypatch):
        # negative control: a wrong term sign must fail --validate
        monkeypatch.setattr(observables, "_TERM_SIGNS", (-1.0, 1.0, 1.0))
        out = tmp_path / "q.csv"
        rc = main(
            ["quench", "--n", "6", "--gf", "0.8", "--tmax", "1.5", "--dt", "0.5",
             "--out", str(out), "--validate"]
        )
        assert rc == 1

    def test_validate_rejects_oversized_ring(self, tmp_path):
        rc = main(
            ["quench", "--n", "14", "--gf", "0.8", "--tmax", "1.0", "--dt", "0.5",
             "--out", str(tmp_path / "q.csv"), "--validate"]
        )
        assert rc == 2
        assert list(tmp_path.iterdir()) == []

    def test_odd_ring_rejected(self, tmp_path):
        rc = main(
            ["quench", "--n", "3", "--gf", "0.8", "--tmax", "1.0", "--dt", "0.5",
             "--out", str(tmp_path / "q.csv")]
        )
        assert rc == 2

    def test_nan_field_rejected_without_output(self, tmp_path):
        out = tmp_path / "q.csv"
        rc = main(["quench", "--n", "6", "--gf", "nan", "--tmax", "1.0", "--dt", "0.5",
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("tmax,dt", [("1.0", "0"), ("1.0", "-0.1"), ("1.0", "nan"),
                                         ("1.0", "inf"), ("-1", "0.1"), ("inf", "0.1")])
    def test_bad_time_grid_rejected_without_output(self, tmp_path, tmax, dt):
        out = tmp_path / "q.csv"
        rc = main(["quench", "--n", "6", "--gf", "0.5", "--tmax", tmax, "--dt", dt,
                   "--out", str(out)])
        assert rc == 2
        assert list(tmp_path.iterdir()) == []


class TestKickCommand:
    def test_writes_stroboscopic_series(self, tmp_path):
        out = tmp_path / "k.csv"
        rc = main(
            ["kick", "--n", "8", "--g", "0.0", "--tau", "0.5", "--epsilon", "0.0",
             "--kicks", "4", "--out", str(out)]
        )
        assert rc == 0
        data = read_csv(out)
        np.testing.assert_allclose(data[:, 0], [1, 2, 3, 4])
        # perfect pi kicks at zero field alternate the polarization exactly
        np.testing.assert_allclose(data[:, 1], [-1.0, 1.0, -1.0, 1.0], atol=1e-10)

    def test_zero_kicks_rejected(self, tmp_path, capsys):
        rc = main(
            ["kick", "--n", "8", "--g", "0.1", "--tau", "0.5", "--epsilon", "0.0",
             "--kicks", "0", "--out", str(tmp_path / "k.csv")]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--tau", "--epsilon"])
    def test_nan_drive_rejected_without_output(self, tmp_path, flag):
        argv = {"--g": "0.1", "--tau": "0.5", "--epsilon": "0.02", "--kicks": "3"}
        argv[flag] = "nan"
        out = tmp_path / "k.csv"
        rc = main(["kick", "--n", "6", "--out", str(out)] + [x for kv in argv.items() for x in kv])
        assert rc == 2
        assert not out.exists()


class TestScanCommands:
    def test_gap_scan(self, tmp_path):
        out = tmp_path / "gap.csv"
        rc = main(["gap", "--n", "8", "--gmin", "0.0", "--gmax", "1.0",
                   "--gsteps", "11", "--out", str(out)])
        assert rc == 0
        data = read_csv(out)
        assert data.shape == (11, 2)
        assert data[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert data[-1, 1] == pytest.approx(np.tan(np.pi / 32), rel=1e-12)

    def test_gap_scan_through_negative_field(self, tmp_path):
        # the gap is even in g, also in the ordered phase where it comes from the Poisson series
        out = tmp_path / "gap.csv"
        rc = main(["gap", "--n", "100", "--gmin", "-1", "--gmax", "1",
                   "--gsteps", "5", "--out", str(out)])
        assert rc == 0
        data = read_csv(out)
        np.testing.assert_array_equal(data[:, 1], data[::-1, 1])
        # zero at g = 0 only
        assert np.all((data[:, 1] > 0.0) == (data[:, 0] != 0.0))

    def test_deltal_scan_satisfies_gap_identity(self, tmp_path):
        out = tmp_path / "dl.csv"
        rc = main(["deltal", "--n", "8", "--gmin", "0.0", "--gmax", "2.0",
                   "--gsteps", "9", "--out", str(out)])
        assert rc == 0
        gap = tmp_path / "gap.csv"
        assert main(["gap", "--n", "8", "--gmin", "0.0", "--gmax", "2.0",
                     "--gsteps", "9", "--out", str(gap)]) == 0
        np.testing.assert_allclose(
            read_csv(out)[:, 1], read_csv(gap)[:, 1] + 1.0, atol=1e-12
        )

    def test_xyz_point(self, tmp_path):
        out = tmp_path / "xyz.csv"
        rc = main(["xyz", "--n", "6", "--jx", "-4", "--jy", "0", "--jz", "0",
                   "--out", str(out)])
        assert rc == 0
        h_star, beta_star, overlap = read_csv(out)[0]
        assert (h_star, beta_star, overlap) == pytest.approx((0.0, 1.0, 0.0))

    def test_gap_below_double_range_rejected_without_output(self, tmp_path, capsys):
        # the gap at g = 0.05, N = 400 underflows: an error, not a delta of 0
        rc = main(["gap", "--n", "400", "--gmin", "0.05", "--gmax", "0.05", "--gsteps", "1",
                   "--out", str(tmp_path / "gap.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n, jx, jz", [("8", "-inf", "0"), ("8", "-4", "inf"), ("0", "-4", "0"),
                                           ("-3", "-4", "0")])
    def test_bad_xyz_point_rejected_without_output(self, tmp_path, capsys, n, jx, jz):
        # an infinite coupling used to write nan entries and a summary that is not valid JSON
        rc = main(["xyz", f"--n={n}", f"--jx={jx}", "--jy", "0", f"--jz={jz}",
                   "--out", str(tmp_path / "xyz.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    def test_large_couplings_accepted(self, tmp_path):
        # (jx - jy)^2 used to overflow here and end in a traceback
        out = tmp_path / "xyz.csv"
        assert main(["xyz", "--n", "8", "--jx=-1e160", "--jy", "0", "--jz", "0", "--out", str(out)]) == 0
        assert tuple(read_csv(out)[0]) == (0.0, 1.0, 0.0)
        assert main(["xyz", "--n", "8", "--jx=-1e200", "--jy", "0", "--jz=1e200", "--out", str(out)]) == 0
        h_star, beta_star, _ = read_csv(out)[0]
        assert (h_star, beta_star) == pytest.approx((np.sqrt(2.0) * 1e200, 3.0 + 2.0 * np.sqrt(2.0)), rel=1e-14)

    def test_field_beyond_double_range_rejected_without_output(self, tmp_path, capsys):
        rc = main(["xyz", "--n", "8", "--jx=-1.5e308", "--jy", "0", "--jz=1.5e308",
                   "--out", str(tmp_path / "xyz.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["gap", "deltal"])
    def test_large_field_writes_a_finite_value(self, tmp_path, command):
        # g^2 is beyond the double range; the scan must still write a finite value
        out = tmp_path / "s.csv"
        rc = main([command, "--n", "8", "--gmin", "1e200", "--gmax", "1e200", "--gsteps", "1",
                   "--out", str(out)])
        assert rc == 0
        value = read_csv(out)[0, 1]
        assert np.isfinite(value)
        assert value == pytest.approx(1e200, rel=1e-15)

    @pytest.mark.parametrize("command", ["gap", "deltal"])
    @pytest.mark.parametrize("flags", [["--gmin", "nan"], ["--gmax", "inf"], ["--gsteps", "0"]])
    def test_bad_scan_rejected_without_output(self, tmp_path, command, flags):
        rc = main([command, "--n", "8", "--out", str(tmp_path / "s.csv")] + flags)
        assert rc == 2
        assert list(tmp_path.iterdir()) == []


class TestConfigFile:
    def test_config_file_supplies_required_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# quench configuration\n"
            "n = 6\n"
            "gf = 0.5\n"
            "tmax: 1.0\n"
            "dt = 0.5\n"
            f"out = {tmp_path / 'q.csv'}\n"
        )
        assert main(["quench", "--config", str(cfg)]) == 0
        assert (tmp_path / "q.csv").exists()

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"n = 6\ngf = 0.5\ntmax = 1.0\ndt = 0.5\nout = {tmp_path / 'q.csv'}\n"
        )
        assert main(["quench", "--config", str(cfg), "--gf", "1.5"]) == 0
        with open(tmp_path / "q.summary.json") as fh:
            summary = json.load(fh)
        assert summary["config"]["gf"] == 1.5

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 6\nbogus = 1\n")
        assert main(["quench", "--config", str(cfg)]) == 2

    def test_malformed_config_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        assert main(["quench", "--config", str(cfg)]) == 2


class TestSummaryLayout:
    @pytest.mark.parametrize("argv,header", [
        (["quench", "--gf", "0.5", "--tmax", "1.0", "--dt", "0.5"], "t,mx_over_n,my_over_n,mz_over_n"),
        (["kick", "--g", "0.5", "--tau", "0.5", "--epsilon", "0.02", "--kicks", "3"], "n,mx_over_n,mz_over_n"),
        (["gap", "--gsteps", "3"], "g,delta"),
        (["deltal", "--gsteps", "3"], "x,delta_l"),
        (["xyz", "--jx", "-4", "--jy", "0", "--jz", "0"], "h_star,beta_star,overlap"),
    ])
    def test_every_csv_command_writes_one_layout(self, tmp_path, argv, header):
        out = tmp_path / "run.csv"
        assert main(argv + ["--n", "6", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == header
        with open(tmp_path / "run.summary.json") as fh:
            summary = json.load(fh)
        assert summary["command"] == argv[0]
        assert summary["config"]["n"] == 6
        assert summary["config"]["out"] == str(out)

    @pytest.mark.parametrize("argv", [["gap"], ["deltal"], ["xyz", "--jx", "-4", "--jy", "0", "--jz", "0"]])
    def test_threads_only_where_read(self, tmp_path, argv):
        rc = main(argv + ["--n", "6", "--threads", "2", "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ["quench", "--n", "4", "--gf", "0.5", "--tmax", "0.5", "--dt", "0.5"],
    ["kick", "--n", "4", "--g", "0.5", "--tau", "0.5", "--epsilon", "0.02", "--kicks", "2"],
    ["validate"],
])
def test_thread_count_below_one_is_rejected(tmp_path, capsys, argv, threads):
    out = tmp_path / ("report.json" if argv[0] == "validate" else "run.csv")
    assert main(argv + ["--threads", threads, "--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == []
    assert "threads must be at least 1" in capsys.readouterr().err


class TestValidateSuite:
    def test_reduced_suite_passes(self):
        report = validate_suite()
        assert report["passed"] is True
        assert len(report["cases"]) == 13
        for case in report["cases"]:
            assert case["max_dev_mx"] < 1e-10

    def test_reduced_suite_catches_corruption(self, monkeypatch):
        monkeypatch.setattr(observables, "_TERM_SIGNS", (1.0, 1.0, -1.0))
        report = validate_suite()
        assert len(report["cases"]) == 13
        assert report["passed"] is False

    def test_validate_command_writes_report(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["validate", "--out", str(out)]) == 0
        with open(out) as fh:
            report = json.load(fh)
        assert report["passed"] is True
        assert len(report["cases"]) == 13
