"""Front-end dispatch, validation exit codes, and output determinism."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from klpricer import cli, pricing, process


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def price_fields(out):
    data = json.loads(out)
    assert set(data) == {
        "value",
        "std_error",
        "method",
        "n_outer",
        "n_inner",
        "seed",
        "wall_time_ms",
        "diagnostics",
    }
    return data


class TestPriceCommand:
    def test_subsample_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "price", "--method", "subsample", "--s0", "100", "--mu", "0.05",
            "--sigma", "0.2", "--strike", "100", "--T", "64",
            "--epsilon", "0.1", "--paths", "5000", "--seed", "7",
        )
        assert code == 0
        data = price_fields(out)
        assert data["method"] == "subsample"
        assert data["seed"] == 7
        assert data["n_outer"] == 5000

    def test_rerun_identical_modulo_wall_time(self, capsys):
        argv = ["price", "--method", "baseline", "--paths", "5000", "--seed", "11"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("wall_time_ms"), d2.pop("wall_time_ms")
        assert d1 == d2

    def test_sigma_zero_rejected(self, capsys):
        code, _, err = run_cli(capsys, "price", "--method", "baseline", "--sigma", "0", "--seed", "1")
        assert code == 2
        assert json.loads(err.strip())["code"] == 2

    @pytest.mark.parametrize("argv", [
        ("--method", "kl-nested", "--m0", "1"),
        ("--method", "subsample", "--epsilon", "0.00005", "--paths", "10"),
        ("--method", "kl-nested", "--L", "-1"),
    ])
    def test_estimator_limits_exit_2(self, capsys, argv):
        # M0/M1 >= 2, L >= 0 and the sub-sampling grid guard are input validation
        code, out, err = run_cli(capsys, "price", *argv, "--seed", "1")
        assert (code, out) == (2, "")
        assert json.loads(err)["code"] == 2

    @pytest.mark.parametrize("method", ["baseline", "subsample", "kl-nested"])
    def test_overflowing_market_exits_2_before_any_draw(self, capsys, monkeypatch, method):
        # s0 exp(mu - sigma^2/2) overflows at mu = 1000: about half of all paths
        # overflow, so the input is rejected before anything is drawn
        streams = []
        monkeypatch.setattr(process, "stream", lambda *key: streams.append(key))
        code, out, err = run_cli(
            capsys, "price", "--method", method, "--mu", "1000", "--paths", "1000", "--seed", "1"
        )
        assert (code, out, streams) == (2, "", [])
        assert len(err.splitlines()) == 1
        assert json.loads(err)["code"] == 2

    @pytest.mark.parametrize("flag,value", [
        ("--s0", "inf"), ("--mu", "nan"), ("--sigma", "inf"), ("--strike", "nan"),
        ("--discount-rate", "nan"),
    ])
    def test_non_finite_input_exits_2_before_any_draw(self, capsys, monkeypatch, flag, value):
        streams = []
        monkeypatch.setattr(process, "stream", lambda *key: streams.append(key))
        code, out, err = run_cli(
            capsys, "price", "--method", "baseline", flag, value, "--paths", "1000", "--seed", "1"
        )
        assert (code, out, streams) == (2, "", [])
        assert len(err.splitlines()) == 1
        field = flag[2:].replace("-", "_")
        assert json.loads(err) == {"error": f"{field} must be finite", "code": 2}

    def test_overflowing_discount_exits_2_before_any_draw(self, capsys, monkeypatch):
        # exp(-r) overflows for r < -709.78, whatever the paths give
        streams = []
        monkeypatch.setattr(process, "stream", lambda *key: streams.append(key))
        code, out, err = run_cli(
            capsys, "price", "--method", "baseline", "--paths", "1000", "--seed", "1",
            "--discount-rate=-800",
        )
        assert (code, out, streams) == (2, "", [])
        assert json.loads(err) == {
            "error": "discount factor exp(-discount_rate) overflows", "code": 2
        }

    @pytest.mark.parametrize("flag", ["--L=100000000", "--epsilon=1e-5"])
    def test_series_order_guard_exits_2_before_any_draw(self, capsys, monkeypatch, flag):
        # each outer draw holds L + 1 coefficients, which the 10^8-double guard
        # caps; eps = 1e-5 resolves to L = 2,026,423,673
        streams = []
        monkeypatch.setattr(process, "stream", lambda *key: streams.append(key))
        code, out, err = run_cli(
            capsys, "price", "--method", "kl-nested", flag, "--m0", "2", "--m1", "2",
            "--seed", "1",
        )
        assert (code, out, streams) == (2, "", [])
        assert json.loads(err)["code"] == 2

    def test_monitoring_past_2_53_exits_2_before_any_draw(self, capsys, monkeypatch):
        # a uniform has 53 bits, so floor(u T) would skip monitoring points
        streams = []
        monkeypatch.setattr(process, "stream", lambda *key: streams.append(key))
        code, out, err = run_cli(
            capsys, "price", "--method", "kl-nested", "--T", str((1 << 53) + 1),
            "--m0", "2", "--m1", "2", "--seed", "1",
        )
        assert (code, out, streams) == (2, "", [])
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": "kl-nested needs T <= 2^53, the monitoring points a uniform can reach",
            "code": 2,
        }

    @pytest.mark.parametrize("argv", [
        ("--method", "baseline", "--T", "100000000", "--paths", "2"),
        ("--method", "subsample", "--epsilon", "0.0002", "--paths", "1000"),
    ], ids=["baseline", "subsample"])
    def test_flat_buffer_guard_exits_2_before_any_draw(self, capsys, monkeypatch, argv):
        # one thread's chunk buffer alone holds 2 rows of 10^8 (9 of 2.5 x 10^7)
        # doubles, 1.6 GB (1.8 GB), past the 256 MiB guard
        streams = []
        monkeypatch.setattr(process, "stream", lambda *key: streams.append(key))
        code, out, err = run_cli(capsys, "price", *argv, "--seed", "1")
        assert (code, out, streams) == (2, "", [])
        assert len(err.splitlines()) == 1
        error = json.loads(err)
        assert error["code"] == 2
        assert error["error"].endswith("exceeds the 268435456-byte guard")

    def test_flat_buffer_guard_sizes_the_real_buffer(self, capsys, monkeypatch):
        # 2 paths of 5 x 10^6 points need an 80 MB buffer and three 40 MB
        # grid vectors, within the guard whatever the number of cores; the
        # kernel is stubbed out so that the test allocates only the grid
        runs = []

        def flat_moments(params, times, n_paths, *rest):
            runs.append((times.size, n_paths))
            return 6.0, 0.1

        monkeypatch.setattr(pricing, "_cpu_count", lambda: 64)
        monkeypatch.setattr(pricing, "_flat_moments", flat_moments)
        code, out, _ = run_cli(capsys, "price", "--method", "baseline", "--T", "5000000",
                               "--paths", "2", "--seed", "1")
        assert (code, runs) == (0, [(5_000_000, 2)])
        assert pricing._check_flat_buffers(5_000_000, 2) == 200_000_000

    def test_non_finite_estimate_exits_1(self, capsys):
        # the median path is finite at mu = 705, but exp still overflows on
        # some paths; the run must fail, not print Infinity/NaN
        code, out, err = run_cli(
            capsys, "price", "--method", "baseline", "--mu", "705", "--paths", "1000",
            "--seed", "1",
        )
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err)["code"] == 1

    @pytest.mark.parametrize("inner", ["acceptance", "uniform"])
    def test_kl_nested_prices_the_monitoring_points(self, capsys, inner):
        def nested(T, seed):
            code, out, _ = run_cli(
                capsys, "price", "--method", "kl-nested", "--inner", inner, "--T", str(T),
                "--epsilon", "0.2", "--m0", "50", "--m1", "50", "--seed", str(seed),
            )
            assert code == 0
            data = price_fields(out)
            return data["value"], data["std_error"]

        assert nested(4, 3) != nested(64, 3)
        if inner == "acceptance":
            # the value test_snapped_price_pinned pins for the T = 7 average
            assert nested(7, 2) == (8.212183629969001, 1.5192642043083722)

    def test_geometric_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "price", "--method", "geometric-cf", "--seed", "3")
        assert code == 0
        data = price_fields(out)
        assert data["std_error"] == 0.0
        assert data["value"] == pytest.approx(5.9086002672545845, rel=1e-12)

    def test_discount_flag_scales_value_only(self, capsys):
        _, out1, _ = run_cli(capsys, "price", "--method", "geometric-cf", "--seed", "3")
        _, out2, _ = run_cli(
            capsys, "price", "--method", "geometric-cf", "--seed", "3",
            "--discount-rate", "0.05",
        )
        import numpy as np

        v1 = json.loads(out1)["value"]
        v2 = json.loads(out2)["value"]
        assert v2 == pytest.approx(v1 * np.exp(-0.05), rel=1e-12)

    def test_qsim_check_runs(self, capsys):
        code, out, _ = run_cli(capsys, "price", "--method", "qsim-check", "--seed", "5")
        assert code == 0
        assert price_fields(out)["method"] == "qsim-check"

    def test_entropy_seed_echoed(self, capsys):
        code, out, _ = run_cli(capsys, "price", "--method", "geometric-cf")
        assert code == 0
        assert isinstance(json.loads(out)["seed"], int)

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "est.json"
        code, out, _ = run_cli(
            capsys, "price", "--method", "geometric-cf", "--seed", "3",
            "--output", str(path),
        )
        assert code == 0
        assert json.loads(path.read_text()) == json.loads(out)

    def test_unwritable_output_exits_1_without_stdout(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "price", "--method", "geometric-cf", "--seed", "3",
            "--output", str(tmp_path / "missing" / "est.json"),
        )
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err)["code"] == 1


class TestAnalyzeCommand:
    def test_truncation_probe_files(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "analyze", "--probe", "truncation", "--L", "8,32", "--L-ref", "512",
            "--paths", "4000", "--seed", "3", "--output-dir", str(tmp_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["all_pass"] is True
        report = json.loads((tmp_path / "truncation_report.json").read_text())
        assert report["bound_name"] == "truncation_tail"
        assert (tmp_path / "truncation_report.csv").exists()

    def test_unknown_probe_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["analyze", "--probe", "nosuch"])
        assert exc.value.code == 2

    def test_convergence_probe_has_slope(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "analyze", "--probe", "convergence", "--method", "baseline",
            "--budgets", "200,400,800,1600", "--replicates", "6", "--T", "64",
            "--seed", "5", "--output-dir", str(tmp_path),
        )
        # the probe ran (exit 1 only flags a bound check at these tiny budgets)
        assert code in (0, 1)
        report = json.loads((tmp_path / "convergence_report.json").read_text())
        assert "slope" in report["extras"]

    def test_mapped_probe(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "analyze", "--probe", "mapped", "--epsilon", "0.05,0.1",
            "--paths", "50000", "--seed", "6", "--output-dir", str(tmp_path),
        )
        assert code == 0
        assert json.loads(out)["all_pass"] is True

    def test_mapped_probe_passes_at_higher_sigma(self, capsys, tmp_path):
        # the bound constant must carry E[e^{2X}] = e^{2 mu + 2 sigma^2}
        code, out, _ = run_cli(
            capsys,
            "analyze", "--probe", "mapped", "--epsilon", "0.1", "--sigma", "0.3",
            "--paths", "200000", "--seed", "1", "--output-dir", str(tmp_path),
        )
        assert (code, json.loads(out)["all_pass"]) == (0, True)

    @pytest.mark.parametrize("flag,value", [
        ("--sigma", "nan"), ("--s0", "inf"), ("--mu", "nan"), ("--strike", "nan"),
        ("--strike", "-1"),
    ])
    def test_invalid_market_exits_2_before_any_probe(self, capsys, tmp_path, flag, value):
        code, out, err = run_cli(
            capsys, "analyze", "--probe", "mapped", flag, value, "--paths", "1000",
            "--seed", "1", "--output-dir", str(tmp_path),
        )
        assert (code, out, list(tmp_path.iterdir())) == (2, "", [])
        assert len(err.splitlines()) == 1
        assert json.loads(err)["code"] == 2

    def test_bad_sizes_exit_2(self, capsys, tmp_path):
        # each case is rejected before the probe writes a file; L = 0 and
        # eps = 0 would divide by zero
        for i, argv in enumerate([
            ("--probe", "truncation", "--paths", "1"),
            ("--probe", "truncation", "--L", "0"),
            ("--probe", "subsample-error", "--epsilon", "0"),
            # an empty comma list is invalid, not a grid with nothing to check
            ("--probe", "mapped", "--epsilon", ","),
            ("--probe", "subsample-error", "--epsilon", ","),
            ("--probe", "smoothness", "--epsilon", ","),
            ("--probe", "convergence", "--epsilon", ","),
            ("--probe", "truncation", "--L", ","),
        ]):
            out_dir = tmp_path / str(i)
            out_dir.mkdir()
            code, out, err = run_cli(
                capsys, "analyze", *argv, "--seed", "1", "--output-dir", str(out_dir)
            )
            assert (code, out, list(out_dir.iterdir())) == (2, "", []), argv
            assert json.loads(err)["code"] == 2

    def test_negative_seed_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "analyze", "--probe", "mapped", "--seed", "-1", "--output-dir", str(tmp_path)
        )
        assert (code, out, list(tmp_path.iterdir())) == (2, "", [])
        assert json.loads(err) == {"error": "seed must be non-negative", "code": 2}


def test_multi_block_overflow_prints_one_stderr_line():
    # exp overflows on some of 140000 paths, spread over three blocks and so
    # over worker threads; the caller's error state must reach every block so
    # that no RuntimeWarning joins the error line.  A subprocess, because
    # pytest captures warnings before they reach stderr.
    argv = ["price", "--method", "baseline", "--mu", "705", "--paths", "140000", "--seed", "1"]
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "klpricer.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert len(done.stderr.splitlines()) == 1
    assert json.loads(done.stderr)["code"] == 1


_SCIPY_PROBE = """
import contextlib, io, json, sys
from klpricer import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = {"import": scipy_modules()}
import klpricer.analysis
loaded["analysis"] = scipy_modules()
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["price", *argv, "--seed", "1"]) == 0
    loaded[" ".join(argv)] = scipy_modules()
print(json.dumps(loaded))
"""


def test_import_leaves_scipy_stats_out():
    # importing scipy costs about half a second; of the pricing path only
    # geometric-cf needs it (scipy.special.ndtr), so the rest, and the
    # analysis probes, load numpy alone
    runs = [
        ["--method", "baseline", "--paths", "1000"],
        ["--method", "subsample", "--epsilon", "0.2", "--paths", "1000"],
        *(["--method", "kl-nested", "--epsilon", "0.3", "--m0", "10", "--m1", "10",
           "--inner", inner] for inner in ("acceptance", "uniform")),
        ["--method", "qsim-check"],
        ["--method", "geometric-cf"],
    ]
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(runs)],
        env=env, capture_output=True, text=True, check=True,
    )
    loaded = json.loads(done.stdout)
    *numpy_only, closed_form = loaded.values()
    assert numpy_only == [[]] * (len(runs) + 1)
    assert "scipy.special" in closed_form
    heavy = ("scipy.stats", "scipy.integrate", "scipy.optimize")
    assert not any(m.startswith(heavy) for m in closed_form)
