"""Front-end dispatch, validation exit codes, and output determinism."""

import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

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


# a kl-nested request whose M1 no untabulated draw can reach
HUGE_M1 = ["price", "--method", "kl-nested", "--epsilon", "0.3", "--m0", "2",
           "--m1", "100000000000", "--seed", "1"]


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
        ("--method", "subsample", "--epsilon", "0.00005", "--T", "1000000000", "--paths", "10"),
        ("--method", "kl-nested", "--L", "-1"),
    ])
    def test_estimator_limits_exit_2(self, capsys, argv):
        # M0/M1 >= 2, L >= 0 and the sub-sampling grid guard are input validation
        code, out, err = run_cli(capsys, "price", *argv, "--seed", "1")
        assert (code, out) == (2, "")
        assert json.loads(err)["code"] == 2

    @pytest.mark.parametrize("method", ["baseline", "subsample", "kl-nested"])
    def test_overflowing_market_exits_2_before_any_draw(self, capsys, draws, method):
        # s0 exp(mu - sigma^2/2) overflows at mu = 1000: about half of all paths
        # overflow, so the input is rejected before anything is drawn
        code, out, err = run_cli(
            capsys, "price", "--method", method, "--mu", "1000", "--paths", "1000", "--seed", "1"
        )
        assert (code, out, draws) == (2, "", [])
        assert len(err.splitlines()) == 1
        assert json.loads(err)["code"] == 2

    def test_overflowing_sigma_squared_exits_2_before_any_draw(self, capsys, draws):
        # sigma^2 overflows past about 1.34e154, where a float ** raises
        # OverflowError, which is no ValueError
        code, out, err = run_cli(
            capsys, "price", "--method", "baseline", "--sigma", "1e160", "--paths", "1000",
            "--seed", "1",
        )
        assert (code, out, draws) == (2, "", [])
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "sigma^2 overflows", "code": 2}

    @pytest.mark.parametrize("inner", ["acceptance", "uniform"])
    def test_outer_draw_guard_exits_2_before_any_draw(self, capsys, draws, inner):
        # 10^11 outer draws would need 1.6 TB; the guard runs before anything
        # is allocated, so the request fails fast with exit 2, not exit 1
        # with numpy's "Unable to allocate"
        tracemalloc.start()
        try:
            code, out, err = run_cli(
                capsys, "price", "--method", "kl-nested", "--inner", inner,
                "--m0", "100000000000", "--m1", "4", "--seed", "1",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, draws) == (2, "", [])
        assert peak < 1 << 20
        assert json.loads(err) == {
            "error": "outer sample of 100000000000 draws needs 1600000000000 bytes, "
                     "past the 1073741824-byte guard",
            "code": 2,
        }

    def test_uniform_inner_guard_exits_2_before_any_draw(self, capsys, draws):
        # uniform mode holds 64 bytes per inner sample of a draw, so 10^11
        # inner samples would need 6.4 TB; without the guard the request
        # exited 1 with numpy's "Unable to allocate 745. GiB"
        code, out, err = run_cli(
            capsys, "price", "--method", "kl-nested", "--inner", "uniform",
            "--m0", "2", "--m1", "100000000000", "--seed", "1",
        )
        assert (code, out, draws) == (2, "", [])
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": "uniform-mode draw of 100000000000 inner samples needs 6400000000000 "
                     "bytes, past the 1073741824-byte guard",
            "code": 2,
        }

    @pytest.mark.parametrize("flag,value", [
        ("--s0", "inf"), ("--mu", "nan"), ("--sigma", "inf"), ("--strike", "nan"),
        ("--discount-rate", "nan"),
    ])
    def test_non_finite_input_exits_2_before_any_draw(self, capsys, draws, flag, value):
        code, out, err = run_cli(
            capsys, "price", "--method", "baseline", flag, value, "--paths", "1000", "--seed", "1"
        )
        assert (code, out, draws) == (2, "", [])
        assert len(err.splitlines()) == 1
        field = flag[2:].replace("-", "_")
        assert json.loads(err) == {"error": f"{field} must be finite", "code": 2}

    def test_overflowing_discount_exits_2_before_any_draw(self, capsys, draws):
        # exp(-r) overflows for r < -709.78, whatever the paths give
        code, out, err = run_cli(
            capsys, "price", "--method", "baseline", "--paths", "1000", "--seed", "1",
            "--discount-rate=-800",
        )
        assert (code, out, draws) == (2, "", [])
        assert json.loads(err) == {
            "error": "discount factor exp(-discount_rate) overflows", "code": 2
        }

    @pytest.mark.parametrize("flag", ["--L=100000000", "--epsilon=1e-5"])
    def test_series_order_guard_exits_2_before_any_draw(self, capsys, draws, flag):
        # each outer draw holds L + 1 coefficients, 40 bytes each, which the
        # 1 GiB guard caps; eps = 1e-5 resolves to L = 2,026,423,673
        code, out, err = run_cli(
            capsys, "price", "--method", "kl-nested", flag, "--m0", "2", "--m1", "2",
            "--seed", "1",
        )
        assert (code, out, draws) == (2, "", [])
        assert json.loads(err)["code"] == 2

    def test_quadrature_draws_take_any_m1(self, capsys):
        # at T = 2^20 every draw's inner mean is a quadrature, whatever M1:
        # its count is one negative binomial draw
        code, out, _ = run_cli(capsys, *HUGE_M1, "--T", "1048576")
        assert code == 0
        assert price_fields(out)["n_inner"] == 100_000_000_000

    def test_tabulated_draws_take_any_m1(self, capsys):
        # at T = 64 every draw is tabulated: its count is one negative binomial draw
        code, out, _ = run_cli(capsys, *HUGE_M1, "--T", "64")
        assert code == 0
        assert price_fields(out)["n_inner"] == 100_000_000_000

    @pytest.mark.parametrize("argv, m1", [
        (["--epsilon", "0.3", "--m0", "10", "--m1", str(10**20), "--seed", "1"], 10**20),
        (["--epsilon", "1e-100", "--L", "3", "--m0", "10"], math.ceil(4.0 / 1e-100**2)),
    ], ids=["given", "default"])
    def test_m1_past_the_int64_budget_exits_2_before_any_draw(self, capsys, draws, argv, m1):
        # the starvation budget, 10^6 M1 proposals, is counted in int64; past
        # it the request exited 1 with "Python int too large to convert to C long"
        code, out, err = run_cli(capsys, "price", "--method", "kl-nested", *argv)
        assert (code, out, draws) == (2, "", [])
        assert err.splitlines() == [json.dumps({
            "error": f"M1 = {m1} is past 9223372036854, the most acceptances whose starvation "
                     "budget of 1000000 M1 proposals fits an int64 count",
            "code": 2,
        })]

    def test_m1_at_the_int64_budget_runs(self, capsys):
        code, out, _ = run_cli(capsys, "price", "--method", "kl-nested", "--epsilon", "0.3",
                               "--m0", "2", "--m1", "9223372036854", "--seed", "1")
        assert code == 0
        assert price_fields(out)["n_inner"] == 9_223_372_036_854

    def test_monitoring_past_2_53_exits_2_before_any_draw(self, capsys, draws):
        # a uniform has 53 bits, so floor(u T) would skip monitoring points
        code, out, err = run_cli(
            capsys, "price", "--method", "kl-nested", "--T", str((1 << 53) + 1),
            "--m0", "2", "--m1", "2", "--seed", "1",
        )
        assert (code, out, draws) == (2, "", [])
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": "kl-nested needs T <= 2^53, the monitoring points a uniform can reach",
            "code": 2,
        }

    @pytest.mark.parametrize("argv", [
        ("--method", "baseline", "--T", "100000000", "--paths", "2"),
        ("--method", "subsample", "--epsilon", "0.0002", "--T", "100000000", "--paths", "1000"),
    ], ids=["baseline", "subsample"])
    def test_flat_buffer_guard_exits_2_before_any_draw(self, capsys, draws, argv):
        # one thread's block buffer alone holds 2 rows of 10^8 (8 of 2.5 x 10^7)
        # doubles, 1.6 GB, past the 1 GiB guard
        code, out, err = run_cli(capsys, "price", *argv, "--seed", "1")
        assert (code, out, draws) == (2, "", [])
        assert len(err.splitlines()) == 1
        error = json.loads(err)
        assert error["code"] == 2
        assert error["error"].startswith("flat kernel buffer needs ")
        assert error["error"].endswith(" bytes, past the 1073741824-byte guard")

    def test_subsample_at_t_points_prints_the_baseline(self, capsys):
        # ceil(1/0.05^2) = 400 >= T = 64: sub-sampling prices the T points
        outputs = []
        for method in ("subsample", "baseline"):
            _, out, _ = run_cli(capsys, "price", "--method", method, "--epsilon", "0.05",
                                "--paths", "5000", "--seed", "3")
            data = price_fields(out)
            outputs.append((data["value"], data["std_error"], data["diagnostics"]))
        assert outputs[0] == outputs[1]
        assert outputs[0][2] == {"grid_points": 64, "blocks": 3, "normals_drawn": 320_000}

    @pytest.mark.parametrize("argv, error", [
        (["price", "--method", "subsample", "--epsilon", "0.0002"], None),
        (["price", "--method", "subsample", "--epsilon", "1e-160"], None),
        (["price", "--method", "subsample", "--epsilon", "1e-200"], None),
        (["price", "--method", "kl-nested", "--epsilon", "1e-160"],
         "truncation bound 2/(pi^2 eps^2) is not finite at eps = 1e-160"),
        (["price", "--method", "kl-nested", "--epsilon", "1e-200"],
         "truncation bound 2/(pi^2 eps^2) is not finite at eps = 1e-200"),
        (["price", "--method", "kl-nested", "--epsilon", "1e-200", "--L", "3"],
         "default M0 = M1 = ceil(4/eps^2) is not finite at eps = 1e-200"),
        (["analyze", "--probe", "smoothness", "--epsilon", "1e-200"],
         "truncation bound 2/(pi^2 eps^2) is not finite at eps = 1e-200"),
        (["analyze", "--probe", "subsample-error", "--epsilon", "1e-200"], None),
        (["analyze", "--probe", "mapped", "--epsilon", "1e-200"], None),
    ], ids=["subsample-2e-4", "subsample-1e-160", "subsample-1e-200", "kl-nested-1e-160",
            "kl-nested-1e-200", "kl-nested-given-L", "smoothness", "subsample-error", "mapped"])
    def test_tiny_epsilon_never_exits_1(self, capsys, tmp_path, argv, error):
        # eps^2 underflows at 1e-200 and 1/eps^2 overflows at 1e-160, which
        # exited 1 with a Python error; sub-sampling prices the T points, and
        # a series order or sizing that is not finite is bad input.  A probe
        # exits 1 only for a failed bound check
        if argv[0] == "analyze":
            extra = ["--output-dir", str(tmp_path)]
        else:
            extra = ["--paths", "1000", "--seed", "1"]
        got, out, err = run_cli(capsys, *argv, *extra)
        if error is None:
            assert (got == 0, err) == (json.loads(out).get("all_pass", True), "")
        else:
            assert (got, out) == (2, "")
            assert err.splitlines() == [json.dumps({"error": error, "code": 2})]
        if argv[:3] == ["price", "--method", "subsample"]:
            assert json.loads(out)["diagnostics"]["grid_points"] == 64

    def test_flat_buffer_guard_sizes_the_real_buffer(self, capsys, monkeypatch):
        # 2 paths of 5 x 10^6 points need an 80 MB buffer and three 40 MB
        # grid vectors, within the guard whatever the number of cores; the
        # kernel is stubbed out so that the test allocates only the grid
        runs = []

        def flat_moments(params, times, n_paths, *rest):
            runs.append((times.size, n_paths))
            return 12.0, 72.02  # payoff sum and sum of squares: mean 6, SE 0.1

        monkeypatch.setattr(pricing, "_cpu_count", lambda: 64)
        monkeypatch.setattr(pricing, "_flat_moments", flat_moments)
        code, out, _ = run_cli(capsys, "price", "--method", "baseline", "--T", "5000000",
                               "--paths", "2", "--seed", "1")
        assert (code, runs) == (0, [(5_000_000, 2)])
        assert pricing._check_flat_buffers(5_000_000, 2) == 200_000_016

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

    def test_envelope_violation_exits_1(self, capsys, monkeypatch):
        # cell bounds below the path are a fault of the program, not of the
        # request, so they must not take the exit 2 of a ValueError
        cells = process.cell_envelopes
        monkeypatch.setattr(process, "cell_envelopes", lambda *args: 0.5 * cells(*args))
        code, out, err = run_cli(
            capsys, "price", "--method", "kl-nested", "--epsilon", "0.2", "--m0", "10",
            "--m1", "10", "--seed", "1",
        )
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "path value exceeded the envelope; gmax contract violated", "code": 1
        }

    def test_starved_sampler_exits_1(self, capsys):
        # at sigma = 35 a T = 1 draw's cell bound, whose margin grows with
        # sigma and the drift, is so loose that a proposal is accepted with
        # probability 9.8e-7: 20 acceptances take more than the 2 * 10^7
        # proposals of the starvation budget.  The request is valid, so it
        # exits 1, and fast: the count is drawn from its law, not proposal
        # by proposal.
        code, out, err = run_cli(
            capsys, "price", "--method", "kl-nested", "--sigma", "35", "--T", "1",
            "--epsilon", "0.2", "--m0", "20", "--m1", "20", "--seed", "1",
        )
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        error = json.loads(err)
        assert error["code"] == 1
        assert error["error"].startswith("rejection sampler starved: 20 acceptances at rate ")

    def test_high_sigma_single_point_prices(self, capsys):
        # a request the per-path envelope alone would starve (acceptance
        # rate 5.7e-7): its one point lies in one of J = 64 cells, whose
        # bound is the path at the cell's midpoint times
        # exp((sigma Lip + |drift|)/128)
        code, out, err = run_cli(
            capsys, "price", "--method", "kl-nested", "--sigma", "3", "--T", "1",
            "--epsilon", "0.2", "--m0", "20", "--m1", "20", "--seed", "1",
        )
        assert (code, err) == (0, "")
        data = price_fields(out)
        assert (data["value"], data["diagnostics"]["proposals"]) == (91.71306656452975, 517)
        assert data["diagnostics"]["envelope_cells"] == 64

    def test_rate_too_small_to_draw_exits_1(self, capsys, monkeypatch):
        # envelopes 10^20 times too high: numpy's negative_binomial refuses
        # such a rate with a ValueError, which must not reach the exit 2 of
        # bad input
        envelope, cells = process.path_envelope, process.cell_envelopes
        monkeypatch.setattr(process, "path_envelope", lambda params, a: 1e20 * envelope(params, a))
        monkeypatch.setattr(process, "cell_envelopes", lambda *args: 1e20 * cells(*args))
        code, out, err = run_cli(
            capsys, "price", "--method", "kl-nested", "--epsilon", "0.2", "--m0", "4",
            "--m1", "4", "--seed", "1",
        )
        assert (code, out) == (1, "")
        assert json.loads(err)["error"].startswith("rejection sampler starved: ")

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
            assert nested(7, 2) == (7.176214368894899, 0.3009660076679615)

    def test_geometric_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "price", "--method", "geometric-cf", "--seed", "3")
        assert code == 0
        data = price_fields(out)
        assert data["std_error"] == 0.0
        assert data["value"] == pytest.approx(5.9086002672545845, rel=1e-12)

    @pytest.mark.parametrize("T", [1 << 40, 1 << 53])
    def test_geometric_closed_form_needs_no_grid(self, capsys, T):
        # the grid moments are integer ratios, so no array as long as T is built
        code, out, _ = run_cli(capsys, "price", "--method", "geometric-cf", "--T", str(T),
                               "--seed", "3")
        assert code == 0
        assert price_fields(out)["value"] == pytest.approx(5.8312101065, rel=1e-9)

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

    @pytest.mark.parametrize("argv, value", [
        (["--T", "1"], 102.84916056096056),
        (["--T", "2"], 102.841577621379),
        (["--T", "3"], 102.83904951261195),
        (["--T", "4"], 101.81056238758353),
        (["--T", "64"], 101.81056238758353),
        (["--s0", "80", "--mu", "-0.1", "--sigma", "0.5"], 103.69768974947401),
    ], ids=["T1", "T2", "T3", "T4", "T64", "market"])
    def test_qsim_check_value_pinned(self, capsys, argv, value):
        # bit for bit: the top code times the exact ancilla-zero probability,
        # T capped at 4 monitoring points
        code, out, _ = run_cli(capsys, "price", "--method", "qsim-check", *argv, "--seed", "5")
        assert (code, price_fields(out)["value"]) == (0, value)

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "price", "--method", "geometric-cf", "--seed", "-1")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "seed must be non-negative", "code": 2}

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

    def test_parser_is_built_once(self, capsys, monkeypatch):
        # main reuses one parser; a request parsed after another must read as
        # it does through a parser of its own
        argvs = [
            ["price", "--method", "baseline", "--paths", "1000", "--seed", "3", "--T", "16"],
            ["price", "--method", "kl-nested", "--epsilon", "0.3", "--m0", "10", "--m1", "10",
             "--seed", "4"],
        ]

        def outputs():
            results = []
            for argv in argvs:
                code, out, _ = run_cli(capsys, *argv)
                data = price_fields(out)
                data.pop("wall_time_ms")
                results.append((code, data))
            return results

        reused = outputs()
        assert cli.build_parser() is cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert outputs() == reused


@pytest.mark.parametrize("argv, error", [
    (["price", "--method", "nosuch"],
     "argument --method: invalid choice: 'nosuch' (choose from 'baseline', 'kl-nested', "
     "'subsample', 'geometric-cf', 'qsim-check')"),
    (["price", "--method", "baseline", "--paths", "abc"],
     "argument --paths: invalid int value: 'abc'"),
    (["analyze", "--probe", "truncation", "--paths", "10"], "unrecognized arguments: --paths 10"),
    # no probe draws or prices a payoff
    (["analyze", "--probe", "subsample-error", "--seed", "1"], "unrecognized arguments: --seed 1"),
    (["analyze", "--probe", "subsample-error", "--strike", "100"],
     "unrecognized arguments: --strike 100"),
], ids=["bad-choice", "bad-int", "analyze-paths", "analyze-seed", "analyze-strike"])
def test_rejected_flag_prints_one_json_line(capsys, draws, argv, error):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, draws) == (2, "", [])
    assert err.splitlines() == [json.dumps({"error": error, "code": 2})]


@pytest.mark.parametrize("argv", [["--help"], ["price", "--help"], ["analyze", "--help"]])
def test_help_prints_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.err) == (0, "")
    assert captured.out.startswith("usage: klpricer")


class TestAnalyzeCommand:
    def test_truncation_probe_files(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "analyze", "--probe", "truncation", "--L", "8,32", "--output-dir", str(tmp_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["all_pass"] is True
        report = json.loads((tmp_path / "truncation_report.json").read_text())
        assert report["bound_name"] == "truncation_tail"
        assert (tmp_path / "truncation_report.csv").exists()

    def test_unknown_probe_exits_2(self, capsys):
        # convergence, a plain Monte Carlo rate check, is not one of the paper's bounds
        for probe in ("nosuch", "convergence"):
            code, out, err = run_cli(capsys, "analyze", "--probe", probe)
            assert (code, out, len(err.splitlines())) == (2, "", 1)
            error = json.loads(err)["error"]
            assert error.startswith(f"argument --probe: invalid choice: '{probe}'")

    def test_mapped_probe(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "analyze", "--probe", "mapped", "--epsilon", "0.05,0.1", "--output-dir", str(tmp_path),
        )
        assert code == 0
        assert json.loads(out)["all_pass"] is True

    def test_mapped_probe_passes_at_higher_sigma(self, capsys, tmp_path):
        # the bound constant must carry E[e^{2X}] = e^{2 mu + 2 sigma^2}
        code, out, _ = run_cli(
            capsys,
            "analyze", "--probe", "mapped", "--epsilon", "0.1", "--sigma", "0.3",
            "--output-dir", str(tmp_path),
        )
        assert (code, json.loads(out)["all_pass"]) == (0, True)

    # analyze takes no strike: the --strike cases are rejected by the parser
    @pytest.mark.parametrize("flag,value", [
        ("--sigma", "nan"), ("--s0", "inf"), ("--mu", "nan"), ("--strike", "nan"),
        ("--strike", "-1"),
    ])
    def test_invalid_market_exits_2_before_any_probe(self, capsys, tmp_path, flag, value):
        code, out, err = run_cli(
            capsys, "analyze", "--probe", "mapped", flag, value, "--output-dir", str(tmp_path),
        )
        assert (code, out, list(tmp_path.iterdir())) == (2, "", [])
        assert len(err.splitlines()) == 1
        assert json.loads(err)["code"] == 2

    def test_bad_sizes_exit_2(self, capsys, tmp_path):
        # each case is rejected before the probe writes a file; L = 0 and
        # eps = 0 would divide by zero
        for i, argv in enumerate([
            ("--probe", "subsample-error", "--T", "0"),
            ("--probe", "truncation", "--L", "0"),
            ("--probe", "subsample-error", "--epsilon", "0"),
            # an empty comma list is invalid, not a grid with nothing to check
            ("--probe", "mapped", "--epsilon", ","),
            ("--probe", "subsample-error", "--epsilon", ","),
            ("--probe", "smoothness", "--epsilon", ","),
            ("--probe", "truncation", "--L", ","),
        ]):
            out_dir = tmp_path / str(i)
            out_dir.mkdir()
            code, out, err = run_cli(capsys, "analyze", *argv, "--output-dir", str(out_dir))
            assert (code, out, list(out_dir.iterdir())) == (2, "", []), argv
            assert json.loads(err)["code"] == 2

    @pytest.mark.parametrize("argv, error", [
        (["--probe", "smoothness", "--epsilon", "0.0001"],
         "smoothness probe needs 4052847400 bytes, past the 1073741824-byte guard"),
        (["--probe", "truncation", "--L", "8,32,1000000"],
         "truncation probe needs 1536000000 bytes, past the 1073741824-byte guard"),
        (["--probe", "subsample-error", "--T", "40000000"],
         "subsample-error probe needs 1600004000 bytes, past the 1073741824-byte guard"),
        (["--probe", "truncation", "--L", "8,8"], "L values must be distinct, got [8, 8]"),
        (["--probe", "smoothness", "--epsilon", "0.2,0.1"],
         "comma list '0.2,0.1' must hold one value"),
        # C1 = e^800 overflows: the report held Infinity and passed
        (["--probe", "mapped", "--mu", "400"],
         "bound constant C1 = exp(2 mu + 2 sigma^2 + 2 eps^2) overflows at mu = 400.0, "
         "sigma = 0.2"),
        # s0^2 e^800 overflows: the report held Infinity and NaN
        (["--probe", "subsample-error", "--mu", "400"],
         "second moment s0^2 exp((2 mu + sigma^2)^+) overflows at s0 = 100.0, mu = 400.0, "
         "sigma = 0.2"),
        # markets past that guard's reach: e^800, expm1(900) and the bound's e^900
        (["--probe", "subsample-error", "--s0", "1e-200", "--mu", "800"],
         "subsample-error probe overflows a double at s0 = 1e-200, mu = 800.0, sigma = 0.2"),
        (["--probe", "subsample-error", "--sigma", "30", "--mu", "-500", "--epsilon", "0.5",
          "--T", "8"],
         "subsample-error probe overflows a double at s0 = 100.0, mu = -500.0, sigma = 30.0"),
        (["--probe", "subsample-error", "--mu", "300", "--sigma", "0.01", "--epsilon", "0.9",
          "--T", "4"],
         "subsample-error probe overflows a double at s0 = 100.0, mu = 300.0, sigma = 0.01"),
    ], ids=["smoothness-bytes", "truncation-bytes", "subsample-error-bytes", "repeated-L",
            "smoothness-eps-list", "mapped-c1-overflow", "subsample-error-overflow",
            "subsample-error-tiny-s0", "subsample-error-large-sigma",
            "subsample-error-bound-overflow"])
    def test_probe_request_exits_2_before_any_draw(self, capsys, draws, tmp_path, argv, error):
        code, out, err = run_cli(capsys, "analyze", *argv, "--output-dir", str(tmp_path))
        assert (code, out, draws, list(tmp_path.iterdir())) == (2, "", [], [])
        assert err.splitlines() == [json.dumps({"error": error, "code": 2})]

    @pytest.mark.parametrize("argv, epsilon", [
        (["--probe", "smoothness"], "0.1"),
        (["--probe", "mapped"], "0.1,0.05"),
        (["--probe", "subsample-error", "--T", "64"], "0.1,0.05"),
    ], ids=["smoothness", "mapped", "subsample-error"])
    def test_default_epsilon_per_probe(self, capsys, tmp_path, argv, epsilon):
        # one epsilon for smoothness, a list for the others
        reports = []
        for flags in ([], ["--epsilon", epsilon]):
            out_dir = tmp_path / str(len(flags))
            out_dir.mkdir()
            run_cli(capsys, "analyze", *argv, *flags, "--output-dir", str(out_dir))
            reports.append(next(out_dir.glob("*.json")).read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("argv", [
        *(["--probe", probe] for probe in cli.PROBES),
        ["--probe", "truncation", "--L", "8"],
    ], ids=[*cli.PROBES, "truncation-one-L"])
    def test_reports_are_strict_json(self, capsys, tmp_path, argv):
        # a single L has no log-log slope: it was written as NaN with exit 0
        code, out, _ = run_cli(capsys, "analyze", *argv, "--output-dir", str(tmp_path))
        assert (code, json.loads(out)["all_pass"]) == (0, True)

        def reject(constant):
            raise ValueError(f"non-finite {constant} in the report")

        report = json.loads((tmp_path / f"{argv[1]}_report.json").read_text(),
                            parse_constant=reject)
        assert all(report["passes"])


def test_multi_block_overflow_prints_one_stderr_line():
    # exp overflows on some of 140000 paths, spread over 69 blocks and so
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


def test_import_leaves_scipy_out():
    # importing scipy costs about half a second, and the package loads numpy
    # only: no price method, geometric-cf included, and not the analysis
    # probes, may pull in any scipy module
    runs = [
        ["--method", "baseline", "--paths", "1000"],
        ["--method", "subsample", "--epsilon", "0.2", "--paths", "1000"],
        *(["--method", "kl-nested", "--epsilon", "0.3", "--m0", "10", "--m1", "10",
           "--inner", inner] for inner in ("acceptance", "uniform")),
        ["--method", "qsim-check"],
        ["--method", "geometric-cf"],
    ]
    assert {argv[1] for argv in runs} == set(cli.PRICE_METHODS)
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(runs)],
        env=env, capture_output=True, text=True, check=True,
    )
    loaded = json.loads(done.stdout)
    assert loaded == dict.fromkeys(["import", "analysis", *map(" ".join, runs)], [])


def test_flat_output_independent_of_blas_threads():
    # a threaded BLAS dot product splits a block's sum of squares by its
    # thread count, which moved the last bit of this std_error; kl-nested at
    # T = 2^20 checks the Gauss-Legendre nodes and weighted sums.  A
    # subprocess, because BLAS reads its thread count when numpy loads.
    for argv in (["price", "--method", "baseline", "--paths", "1048576", "--seed", "11"],
                 ["price", "--method", "kl-nested", "--T", "1048576", "--sigma", "1",
                  "--epsilon", "0.1", "--seed", "11"]):
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": str(pathlib.Path(cli.__file__).resolve().parents[1])}
            done = subprocess.run([sys.executable, "-m", "klpricer.cli", *argv], env=env,
                                  capture_output=True, text=True, check=True, timeout=120)
            data = json.loads(done.stdout)
            data.pop("wall_time_ms")
            outputs.append(data)
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("probe, flags", [
    pytest.param("smoothness", ["--epsilon", "0.05"], id="smoothness"),
    pytest.param("truncation", ["--L", "8,32"], id="truncation"),
    pytest.param("subsample-error", ["--epsilon", "0.2,0.1"], id="subsample-error"),
])
def test_smoothness_report_independent_of_blas_threads(tmp_path, probe, flags):
    # a report is the same whatever the number of BLAS threads: a sum of
    # squares through a threaded BLAS dot product splits its one sum, and
    # moves the last bits between 1 and 2 threads
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": str(pathlib.Path(cli.__file__).resolve().parents[1])}
        subprocess.run(
            [sys.executable, "-m", "klpricer.cli", "analyze", "--probe", probe, *flags,
             "--output-dir", str(out)],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        reports.append((out / f"{probe}_report.json").read_bytes())
    assert reports[0] == reports[1]


def test_import_leaves_numpy_random_out():
    # importing numpy.random costs about 12 ms of start-up; only a request
    # that draws should pay it.  secrets (with hashlib, hmac and base64) cost
    # 5-7 ms more, and numpy.polynomial is not needed for the quadrature.
    names = ["numpy.random", "secrets", "hashlib", "hmac", "numpy.polynomial"]
    probe = f"import sys; from klpricer import cli; print([m for m in {names} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout == "[]\n"
