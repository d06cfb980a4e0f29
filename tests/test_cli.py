import json
import math
import warnings
from pathlib import Path

import pytest

from svcal.cli import main
from svcal.models import HestonParams, MarketSlice, SchobelZhuParams, cf_for
from svcal.pricing import OptionSpec, bs_price, cf_vanilla_price

DATA_CSV = Path(__file__).resolve().parent.parent / "data" / "eurusd_2008-09-16.csv"

HESTON = {"v0": 0.0161, "theta": 0.0161, "kappa": 2.0, "sigma": 0.2, "rho": -0.1}

FLAT_CSV = """tenor,expiry_years,forward,discount,atm_vol,ms25,rr25
6M,0.5,1.0,1.0,12.70%,0.00%,0.00%
1Y,1.0,1.0,1.0,12.70%,0.00%,0.00%
2Y,2.0,1.0,1.0,12.70%,0.00%,0.00%
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def flat_file(tmp_path):
    p = tmp_path / "flat.csv"
    p.write_text(FLAT_CSV)
    return p


class TestCalibrateCommand:
    def test_tenor_strategy_on_bundled_file(self, capsys):
        code, out, _ = run_cli(capsys, "calibrate", "--quotes", str(DATA_CSV))
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 1
        assert len(report["records"]) == 7
        labels = [r["tenor"] for r in report["records"]]
        assert labels == ["3M", "6M", "1Y", "2Y", "3Y", "4Y", "5Y"]
        for rec in report["records"]:
            assert rec["converged"]
            assert max(abs(r) for r in rec["residuals"]) < 5e-4  # 0.05 vol pts

    def test_empty_quote_file(self, capsys, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("tenor,expiry_years,forward,discount,atm_vol,ms25,rr25\n")
        code, _, err = run_cli(capsys, "calibrate", "--quotes", str(p))
        assert code == 1
        assert "no quotes" in err

    def test_malformed_row_reports_line_number(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("tenor,expiry_years,forward,discount,atm_vol,ms25,rr25\n1Y,1.0,1.0,1.0,oops,0,0\n")
        code, _, err = run_cli(capsys, "calibrate", "--quotes", str(p))
        assert code == 1
        assert "line 2" in err

    def test_fix_kappa_echoed_exactly(self, capsys, flat_file):
        code, out, _ = run_cli(
            capsys, "calibrate", "--quotes", str(flat_file),
            "--strategy", "fixed", "--fix", "kappa=2",
        )
        assert code == 0
        report = json.loads(out)
        assert report["records"][0]["params"]["kappa"] == 2.0
        assert report["strategy"]["fix"] == {"kappa": 2.0}

    def test_a_parameter_driven_off_its_box_writes_no_runtime_warning(self, capsys):
        # at kappa = 0 theta drops out of the CF, and its unconstrained x runs far out
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, "calibrate", "--quotes", str(DATA_CSV),
                                   "--strategy", "fixed", "--fix", "kappa=0")
        assert code == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("value", ["abc", "inf", "-inf", "nan", ""])
    def test_fix_value_that_is_not_a_finite_number_is_input_error(self, capsys, flat_file, value):
        code, out, err = run_cli(
            capsys, "calibrate", "--quotes", str(flat_file),
            "--strategy", "fixed", "--fix", f"kappa={value}",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: --fix expects a")

    @pytest.mark.parametrize("section, message", [
        ({"quadrature": {"bogus": 1}}, "section 'quadrature' has no setting 'bogus'"),
        ({"quadrature": {"truncation": 400}}, "section 'quadrature' has no setting 'truncation'"),
        ({"optimizer": {"starts": "x"}}, "optimizer.starts must be an integer"),
        ({"optimizer": {"starts": 2.5}}, "optimizer.starts must be an integer"),
        ({"optimizer": {"quad": {}}}, "section 'optimizer' has no setting 'quad'"),
        ({"quadrature": {"tolerance": "tight"}}, "quadrature.tolerance must be a finite number"),
        ({"quadrature": {"max_evals": True}}, "quadrature.max_evals must be an integer"),
        ({"quadrature": [1]}, "section 'quadrature' must be an object"),
        ({"optimizer": {"max_nfev": 0}}, "max_nfev must be >= 1"),
        ({"optimizer": {"starts": 0}}, "starts must be >= 1, got 0"),
        ({"optimizer": {"seed": -1}}, "seed must be >= 0, got -1"),
        ({"optimizer": {"retry_rmse": -1}}, "retry_rmse must be >= 0, got -1"),
        ({"quadrature": {"max_evals": 0}}, "max_evals must be >= 1, got 0"),
        ({"optimizer": {"ftol": 0, "xtol": 0, "gtol": 0}}, "one of ftol, xtol and gtol must be >= machine epsilon"),
    ])
    def test_bad_config_section_is_input_error_naming_the_key(self, capsys, tmp_path, flat_file, section, message):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(section))
        code, out, err = run_cli(capsys, "calibrate", "--quotes", str(flat_file), "--config", str(cfgp))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("config, flags, message", [
        ([1], [], "must hold a JSON object, got [1]"),
        ({"fix": [1, 2]}, [], "config section 'fix' must be an object, got [1, 2]"),
        ({"fix": {"kappa": None}}, ["--strategy", "fixed"], "config setting fix.kappa must be a finite number, got None"),
        ({"fix": {"kappa": "2"}}, ["--strategy", "fixed"], "config setting fix.kappa must be a finite number, got '2'"),
        ({"kappa_rule_constant": "x"}, [], "kappa_rule_constant must be a finite number, got 'x'"),
        ({"model": ["heston"]}, [], "unknown model kind ['heston']"),
        ({"model": "sabr"}, [], "unknown model kind 'sabr'"),
    ], ids=["top_level_list", "fix_list", "fix_null", "fix_string", "kappa_rule_string", "model_list", "model_unknown"])
    def test_malformed_config_file_is_input_error_naming_the_key(self, capsys, tmp_path, flat_file,
                                                                  config, flags, message):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "calibrate", "--quotes", str(flat_file), "--config", str(cfgp), *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_config_sections_set_optimizer_and_quadrature(self, capsys, tmp_path, flat_file):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"optimizer": {"starts": 1, "retry_rmse": 1e-4},
                                    "quadrature": {"tolerance": 1e-9, "max_evals": 30000}}))
        code, out, _ = run_cli(capsys, "calibrate", "--quotes", str(flat_file), "--config", str(cfgp))
        assert code == 0
        assert json.loads(out)["records"]

    def test_a_fit_whose_every_price_failed_exits_2(self, capsys):
        code, out, _ = run_cli(
            capsys, "calibrate", "--quotes", str(DATA_CSV),
            "--strategy", "fixed", "--fix", "v0=1e3",
        )
        assert code == 2
        rec = json.loads(out)["records"][0]
        assert not rec["converged"]
        assert set(rec["residuals"]) == {1e6}

    def test_byte_identical_reports(self, capsys):
        _, out1, _ = run_cli(capsys, "calibrate", "--quotes", str(DATA_CSV))
        _, out2, _ = run_cli(capsys, "calibrate", "--quotes", str(DATA_CSV))
        assert out1 == out2

    def test_config_file_with_flag_override(self, capsys, tmp_path, flat_file):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"strategy": "tenor", "kappa_rule_constant": 2.75}))
        code, out, _ = run_cli(capsys, "calibrate", "--quotes", str(flat_file), "--config", str(cfgp))
        assert code == 0
        assert json.loads(out)["strategy"]["kappa_rule_constant"] == 2.75
        code, out, _ = run_cli(
            capsys, "calibrate", "--quotes", str(flat_file),
            "--config", str(cfgp), "--kappa-rule-c", "1.5",
        )
        assert json.loads(out)["strategy"]["kappa_rule_constant"] == 1.5

    def test_save_and_store_round_trip(self, capsys, tmp_path, flat_file):
        store_dir = tmp_path / "store"
        code, out, err = run_cli(
            capsys, "calibrate", "--quotes", str(flat_file),
            "--save", "--store-path", str(store_dir),
        )
        assert code == 0
        report = json.loads(out)
        assert "saved record 1" in err
        code, out, _ = run_cli(capsys, "store", "list", "--store-path", str(store_dir))
        assert code == 0
        listing = json.loads(out)
        assert len(listing["records"]) == 1
        assert listing["records"][0]["quote_digest"] == report["quote_digest"]
        code, out, _ = run_cli(capsys, "store", "show", "1", "--store-path", str(store_dir))
        assert code == 0
        shown = json.loads(out)
        assert shown["params"]["1Y"] == report["records"][1]["params"]

    def test_penalized_strategy_via_prev_file(self, capsys, tmp_path, flat_file):
        prev = tmp_path / "prev.json"
        prev.write_text(json.dumps({
            "model_kind": "heston",
            "params": {"v0": 0.0161, "theta": 0.0161, "kappa": 2.0, "sigma": 0.2, "rho": -0.1},
        }))
        code, out, _ = run_cli(
            capsys, "calibrate", "--quotes", str(flat_file),
            "--strategy", "penalized", "--prev", str(prev),
        )
        assert code == 0
        report = json.loads(out)
        assert "penalty_weight" in report["records"][0]

    @pytest.mark.parametrize("model", ["bates", "schobel_zhu"])
    def test_prev_of_another_model_is_input_error(self, capsys, tmp_path, flat_file, model):
        prev = tmp_path / "prev.json"
        prev.write_text(json.dumps({
            "model_kind": "heston",
            "params": {"v0": 0.0161, "theta": 0.0161, "kappa": 2.0, "sigma": 0.2, "rho": -0.1},
        }))
        code, out, err = run_cli(
            capsys, "calibrate", "--quotes", str(flat_file),
            "--strategy", "penalized", "--model", model, "--prev", str(prev),
        )
        assert code == 1
        assert out == ""
        assert err == f"error: the parameters are 'heston', but the model is '{model}'\n"

    @pytest.mark.parametrize("model", ["bates", "schobel_zhu"])
    def test_tenor_strategy_refuses_a_model_it_does_not_fit(self, capsys, tmp_path, flat_file, model):
        # the tenor rules fit Heston; a Schobel-Zhu record of its variances would be read as vols
        store_dir = tmp_path / "store"
        code, out, err = run_cli(
            capsys, "calibrate", "--quotes", str(flat_file), "--strategy", "tenor", "--model", model,
            "--save", "--store-path", str(store_dir),
        )
        assert code == 1
        assert out == ""
        assert err == f"error: the 'tenor' strategy fits heston only, got model '{model}'\n"
        assert not store_dir.exists()

    @pytest.mark.parametrize("flags, config", [
        (["--fix", "kappa=2"], None),
        (["--v0-from-atm"], None),
        ([], {"fix": {"kappa": 2.0}}),
        ([], {"v0_from_atm": True}),
    ], ids=["fix_flag", "v0_from_atm_flag", "config_fix", "config_v0_from_atm"])
    def test_tenor_strategy_refuses_a_fix_set(self, capsys, tmp_path, flat_file, flags, config):
        if config is not None:
            cfgp = tmp_path / "cfg.json"
            cfgp.write_text(json.dumps(config))
            flags = flags + ["--config", str(cfgp)]
        code, out, err = run_cli(capsys, "calibrate", "--quotes", str(flat_file), *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error: the 'tenor' strategy takes no fix set")

    @pytest.mark.parametrize("payload, message", [
        ([1, 2], "parameters must be a JSON object, got [1, 2]"),
        ({"model_kind": "heston", "params": dict(HESTON, v0="0.02")}, "v0 must be a number, got '0.02'"),
    ])
    def test_malformed_prev_file_is_input_error(self, capsys, tmp_path, flat_file, payload, message):
        prev = tmp_path / "prev.json"
        prev.write_text(json.dumps(payload))
        code, out, err = run_cli(
            capsys, "calibrate", "--quotes", str(flat_file), "--strategy", "penalized", "--prev", str(prev),
        )
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"


# the nfev of each record of the bundled fits that CI compares across processes.  Each
# of their solves stops on its ftol, xtol or gtol test before the accuracy test holds,
# so a change to any stop rule that moves one of them shows here
_BUNDLED_NFEV = {
    "full": (["--strategy", "full"], [27]),
    "fixed_kappa2": (["--strategy", "fixed", "--fix", "kappa=2"], [15]),
    "varswap": (["--strategy", "varswap"], [11]),
    "schobel_zhu_full": (["--strategy", "full", "--model", "schobel_zhu"], [40]),
    "bates_fixed_jumps": (["--strategy", "fixed", "--model", "bates", "--fix", "jump_intensity=0.1",
                           "--fix", "mean_jump=-0.1", "--fix", "jump_vol=0.15"], [29]),
    "sigma0": (["--strategy", "fixed", "--fix", "sigma=0"], [26]),
    "schobel_zhu_sigma0": (["--strategy", "fixed", "--model", "schobel_zhu", "--fix", "sigma=0"], [51]),
    "penalized": (["--strategy", "penalized", "--prev"], [56]),
    "tenor": (["--strategy", "tenor"], [4] * 7),
}


@pytest.mark.parametrize("name", sorted(_BUNDLED_NFEV))
def test_the_bundled_fits_keep_their_nfev(capsys, tmp_path, name):
    argv, nfev = _BUNDLED_NFEV[name]
    if argv[-1:] == ["--prev"]:
        prev = tmp_path / "prev.json"
        prev.write_text(json.dumps({"model_kind": "heston",
                                    "params": {"v0": 0.02, "theta": 0.015, "kappa": 1.0, "sigma": 0.35, "rho": -0.2}}))
        argv = argv + [str(prev)]
    code, out, _ = run_cli(capsys, "calibrate", "--quotes", str(DATA_CSV), *argv)
    assert code == 0
    records = json.loads(out)["records"]
    assert [r["iterations"] for r in records] == nfev
    assert all(r["converged"] for r in records)


class TestUsageErrors:
    """A malformed command line is an input error: exit 1 with argparse's usage message, no traceback."""

    @pytest.mark.parametrize("argv", [
        ["price", "--params", "params.json", "--strike", "abc", "--expiry", "0.5"],
        ["calibrate", "--quotes", str(DATA_CSV), "--model", "foo"],
        ["price", "--strike", "1.0", "--expiry", "0.5"],
        ["store", "show", "abc"],
        ["frobnicate"],
        [],
    ], ids=["strike_not_a_number", "unknown_model", "no_params_source", "record_id_not_an_int",
            "unknown_command", "no_command"])
    def test_usage_error_exits_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage: svcal") and "error: " in err and "Traceback" not in err

    def test_help_exits_0(self, capsys):
        code, out, err = run_cli(capsys, "price", "--help")
        assert code == 0
        assert out.startswith("usage: svcal price") and err == ""

    def test_fresh_process_exit_codes(self):
        import os
        import subprocess
        import sys

        import svcal

        src = str(Path(svcal.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for argv, want in [(["price", "--strike", "abc"], 1), (["--help"], 0)]:
            proc = subprocess.run([sys.executable, "-m", "svcal.cli", *argv],
                                  capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == want and "Traceback" not in proc.stderr


class TestOneParserPerProcess:
    """main builds its parser once; each call still parses only its own flags."""

    def test_calls_in_one_process_match_fresh_processes(self, capsys, tmp_path, flat_file):
        import os
        import subprocess
        import sys

        import svcal
        from svcal.cli import _build_parser

        params = tmp_path / "params.json"
        params.write_text(json.dumps({"model_kind": "heston", "params": {
            "v0": 0.0178, "theta": 0.0135, "kappa": 1.31, "sigma": 0.29, "rho": -0.14}}))
        commands = [
            ["calibrate", "--quotes", str(flat_file), "--strategy", "fixed", "--fix", "kappa=2"],
            ["price", "--params", str(params), "--strike", "1.05", "--expiry", "0.5"],
            # without --fix: a kappa=2 carried over from the first call would make this exit 0
            ["calibrate", "--quotes", str(flat_file), "--strategy", "fixed"],
            ["calibrate", "--quotes", str(flat_file)],
        ]
        in_process = [run_cli(capsys, *argv)[:2] for argv in commands]
        assert _build_parser() is _build_parser()
        src = str(Path(svcal.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        fresh = []
        for argv in commands:
            proc = subprocess.run([sys.executable, "-m", "svcal.cli", *argv],
                                  capture_output=True, text=True, env=env, timeout=300)
            fresh.append((proc.returncode, proc.stdout))
        assert in_process == fresh
        assert [code for code, _ in in_process] == [0, 0, 1, 0]
        assert json.loads(in_process[0][1])["strategy"]["fix"] == {"kappa": 2.0}


class TestPriceCommand:
    def test_deterministic_variance_matches_black(self, capsys, tmp_path):
        params = {"v0": 0.04, "theta": 0.04, "kappa": 1.0, "sigma": 0.0, "rho": 0.0}
        p = tmp_path / "params.json"
        p.write_text(json.dumps({"model_kind": "heston", "params": params}))
        code, out, _ = run_cli(
            capsys, "price", "--params", str(p),
            "--strike", "1.05", "--expiry", "1.0", "--forward", "1.0", "--discount", "1.0",
        )
        assert code == 0
        got = json.loads(out)
        want = bs_price(MarketSlice(1.0, 1.0, 1.0), OptionSpec(1.05, 1.0, "call"), 0.2)
        assert got["price"] == pytest.approx(want, rel=1e-8)
        assert got["implied_vol"] == pytest.approx(0.2, abs=1e-8)

    def test_put_call_parity(self, capsys, tmp_path):
        params = {"v0": 0.04, "theta": 0.05, "kappa": 1.5, "sigma": 0.6, "rho": -0.55}
        p = tmp_path / "params.json"
        p.write_text(json.dumps(params))  # bare params dict accepted
        prices = {}
        for kind in ("call", "put"):
            _, out, _ = run_cli(
                capsys, "price", "--params", str(p),
                "--strike", "1.1", "--expiry", "2.0", "--kind", kind,
            )
            prices[kind] = json.loads(out)["price"]
        assert abs(prices["call"] - prices["put"] - (1.0 - 1.1)) < 1e-10

    def test_model_that_contradicts_the_params_file_is_input_error(self, capsys, tmp_path):
        p = tmp_path / "params.json"
        p.write_text(json.dumps({"model_kind": "heston", "params": {
            "v0": 0.0178, "theta": 0.0135, "kappa": 1.31, "sigma": 0.29, "rho": -0.14}}))
        argv = ["price", "--params", str(p), "--strike", "1.0", "--expiry", "0.5"]
        code, out, err = run_cli(capsys, *argv, "--model", "schobel_zhu")
        assert code == 1
        assert out == ""
        assert err == "error: the parameters are 'heston', but the model is 'schobel_zhu'\n"
        code, out, _ = run_cli(capsys, *argv, "--model", "heston")
        assert code == 0 and json.loads(out)["model"] == "heston"

    def test_model_flag_builds_a_bare_params_dict(self, capsys, tmp_path):
        params = {"v0": 0.12, "theta": 0.11, "kappa": 1.31, "sigma": 0.29, "rho": -0.14}
        p = tmp_path / "params.json"
        p.write_text(json.dumps(params))
        code, out, _ = run_cli(capsys, "price", "--params", str(p), "--model", "schobel_zhu",
                               "--strike", "1.0", "--expiry", "0.5")
        assert code == 0
        got = json.loads(out)
        assert got["model"] == "schobel_zhu"
        want = cf_vanilla_price(cf_for(SchobelZhuParams(**params)), MarketSlice(1.0, 1.0, 0.5),
                                OptionSpec(1.0, 0.5, "call"))
        assert got["price"] == want

    def test_missing_parameter_key_is_input_error(self, capsys, tmp_path):
        p = tmp_path / "params.json"
        p.write_text(json.dumps({"v0": 0.04, "theta": 0.05, "kappa": 1.5, "sigma": 0.6}))
        code, out, err = run_cli(capsys, "price", "--params", str(p), "--strike", "1.0", "--expiry", "1.0")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "'rho'" in err

    @pytest.mark.parametrize("payload, flags, message", [
        ([1, 2], [], "parameters must be a JSON object, got [1, 2]"),
        ([1, 2], ["--tenor", "1Y"], "parameters must be a JSON object, got [1, 2]"),
        ("abc", ["--tenor", "a"], "parameters must be a JSON object, got 'abc'"),
        ({"model_kind": ["heston"], "params": HESTON}, [], "unknown model kind ['heston']; choose from"),
        ({"model_kind": "heston", "params": dict(HESTON, v0="0.02")}, [], "v0 must be a number, got '0.02'"),
        (dict(HESTON, rho=None), [], "rho must be a number, got None"),
        ({"model_kind": "heston", "params": [1, 2]}, [], "heston parameters must be a mapping, got [1, 2]"),
        ({"model_kind": "bates", "params": dict(HESTON, jump_intensity=0.1, mean_jump=0.0, jump_vol=[0.1])}, [],
         "jump_vol must be a number, got [0.1]"),
    ], ids=["list", "list_with_tenor", "string_with_tenor", "unhashable_kind", "string_value", "null_value",
            "list_params", "bates_list_value"])
    def test_malformed_params_file_is_input_error(self, capsys, tmp_path, payload, flags, message):
        p = tmp_path / "params.json"
        p.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "price", "--params", str(p), "--strike", "1.0", "--expiry", "1.0", *flags)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("nest", [lambda p: p, lambda p: {"model_kind": "heston", "params": p}],
                             ids=["bare", "under_params"])
    def test_a_per_tenor_params_file_prices_the_chosen_tenor(self, capsys, tmp_path, nest):
        one_year = dict(HESTON, v0=0.02)
        p = tmp_path / "params.json"
        p.write_text(json.dumps(nest({"1M": HESTON, "1Y": one_year})))
        argv = ["price", "--params", str(p), "--strike", "1.0", "--expiry", "1.0"]
        code, out, _ = run_cli(capsys, *argv, "--tenor", "1Y")
        assert code == 0
        want = cf_vanilla_price(cf_for(HestonParams(**one_year)), MarketSlice(1.0, 1.0, 1.0),
                                OptionSpec(1.0, 1.0, "call"))
        assert json.loads(out)["price"] == want
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: parameter file {p} is per-tenor; choose one of ['1M', '1Y']\n"
        code, out, err = run_cli(capsys, *argv, "--tenor", "2Y")
        assert code == 1 and out == ""
        assert err == f"error: tenor '2Y' not in parameter file {p} (has ['1M', '1Y'])\n"

    def test_a_flat_params_file_ignores_the_tenor(self, capsys, tmp_path):
        p = tmp_path / "params.json"
        p.write_text(json.dumps({"model_kind": "heston", "params": HESTON}))
        argv = ["price", "--params", str(p), "--strike", "1.0", "--expiry", "1.0"]
        flat = run_cli(capsys, *argv)
        assert flat[0] == 0 and run_cli(capsys, *argv, "--tenor", "7Y") == flat

    def test_malformed_stored_record_is_input_error(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        record = {"record_id": 1, "model_kind": "heston", "params": dict(HESTON, v0="0.02"),
                  "timestamp": "2008-09-16T08:00:00+00:00", "quote_digest": "digest"}
        (store_dir / "params.jsonl").write_text(json.dumps(record) + "\n")  # written by hand, past save's checks
        code, out, err = run_cli(
            capsys, "price", "--latest", "heston", "--strike", "1.0", "--expiry", "1.0", "--store-path", str(store_dir),
        )
        assert code == 1
        assert out == ""
        assert err == "error: v0 must be a number, got '0.02'\n"

    def test_stored_times_that_do_not_order_are_input_error(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        lines = [json.dumps({"record_id": k, "model_kind": "heston", "params": HESTON, "timestamp": ts,
                             "quote_digest": "digest"}) + "\n"
                 for k, ts in [(1, "2008-09-16T08:00:00+00:00"), (2, "2008-09-17T08:00:00")]]
        (store_dir / "params.jsonl").write_text("".join(lines))  # the second time has no UTC offset
        code, out, err = run_cli(
            capsys, "price", "--latest", "heston", "--strike", "1.0", "--expiry", "1.0", "--store-path", str(store_dir),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "the (time, id) of record 2 does not order" in err

    def test_non_finite_parameter_in_params_file_is_input_error(self, capsys, tmp_path):
        p = tmp_path / "params.json"
        p.write_text('{"v0": 0.04, "theta": 0.05, "kappa": Infinity, "sigma": 0.6, "rho": -0.5}')
        code, out, err = run_cli(capsys, "price", "--params", str(p), "--strike", "1.0", "--expiry", "1.0")
        assert code == 1
        assert out == ""
        assert "kappa must be finite" in err

    @pytest.mark.parametrize("flag", ["--strike", "--expiry", "--forward", "--discount"])
    def test_non_finite_contract_number_is_input_error(self, capsys, tmp_path, flag):
        p = tmp_path / "params.json"
        p.write_text(json.dumps({"v0": 0.04, "theta": 0.05, "kappa": 1.5, "sigma": 0.6, "rho": -0.5}))
        argv = {"--strike": "1.0", "--expiry": "1.0", "--forward": "1.0", "--discount": "1.0"}
        argv[flag] = "nan"
        code, out, err = run_cli(capsys, "price", "--params", str(p), *[a for kv in argv.items() for a in kv])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "finite" in err

    def test_negative_put_is_numerical_failure(self, capsys, tmp_path):
        p = tmp_path / "params.json"
        # quadrature error within the tolerance exceeds the put's value of about 1e-28
        p.write_text(json.dumps({"v0": 0.01, "theta": 0.01, "kappa": 1.0, "sigma": 0.1, "rho": 0.0}))
        code, out, err = run_cli(capsys, "price", "--params", str(p),
                                 "--strike", "0.7", "--expiry", "0.1", "--kind", "put")
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure:") and "strike 0.7" in err

    @pytest.mark.parametrize("kind", ["call", "put"])
    def test_no_time_value_is_numerical_failure_not_vol_zero(self, capsys, tmp_path, kind):
        # the call's quadrature error exceeds its value, so the pricer floors it
        # at 0 and the put comes out at exactly its intrinsic 900; neither may
        # be inverted into a fabricated implied vol of 0
        p = tmp_path / "params.json"
        p.write_text(json.dumps({"v0": 0.04, "theta": 0.04, "kappa": 1.0, "sigma": 0.5, "rho": -0.7}))
        code, out, err = run_cli(capsys, "price", "--params", str(p), "--forward", "100",
                                 "--strike", "1000", "--expiry", "0.1", "--kind", kind)
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure:") and "strike 1000.0" in err

    def test_latest_resolves_through_store(self, capsys, tmp_path, flat_file):
        store_dir = tmp_path / "store"
        run_cli(capsys, "calibrate", "--quotes", str(flat_file), "--save",
                "--store-path", str(store_dir))
        code, out, _ = run_cli(
            capsys, "price", "--latest", "heston", "--tenor", "1Y",
            "--strike", "1.0", "--expiry", "1.0", "--store-path", str(store_dir),
        )
        assert code == 0
        got = json.loads(out)
        assert got["implied_vol"] == pytest.approx(0.127, abs=2e-3)
        code, out, err = run_cli(
            capsys, "price", "--latest", "heston", "--strike", "1.0", "--expiry", "1.0", "--store-path", str(store_dir),
        )
        assert code == 1 and out == ""
        assert err == "error: record 1 is per-tenor; choose one of ['1Y', '2Y', '6M']\n"
        code, out, err = run_cli(
            capsys, "price", "--latest", "heston", "--model", "schobel_zhu", "--tenor", "1Y",
            "--strike", "1.0", "--expiry", "1.0", "--store-path", str(store_dir),
        )
        assert code == 1
        assert out == ""
        assert err == "error: the parameters are 'heston', but the model is 'schobel_zhu'\n"

    def test_torn_store_tail_neither_breaks_price_nor_the_next_save(self, capsys, tmp_path, flat_file):
        store_dir = tmp_path / "store"
        save = ("calibrate", "--quotes", str(flat_file), "--save", "--store-path", str(store_dir))
        assert run_cli(capsys, *save)[0] == 0
        with (store_dir / "params.jsonl").open("a") as fh:  # a write interrupted mid-record
            fh.write('{"record_id": 2, "model_kind": "hes')
        code, out, _ = run_cli(
            capsys, "price", "--latest", "heston", "--tenor", "1Y",
            "--strike", "1.0", "--expiry", "1.0", "--store-path", str(store_dir),
        )
        assert code == 0 and json.loads(out)["implied_vol"] == pytest.approx(0.127, abs=2e-3)
        code, _, err = run_cli(capsys, *save)
        assert code == 0 and "saved record 2" in err
        code, out, _ = run_cli(capsys, "store", "show", "2", "--store-path", str(store_dir))
        assert code == 0 and json.loads(out)["record_id"] == 2

    def test_a_stored_record_id_that_is_not_an_integer_fails_the_next_save_as_input_error(
        self, capsys, tmp_path, flat_file
    ):
        store_dir = tmp_path / "store"
        save = ("calibrate", "--quotes", str(flat_file), "--save", "--store-path", str(store_dir))
        assert run_cli(capsys, *save)[0] == 0
        path = store_dir / "params.jsonl"
        record = dict(json.loads(path.read_text()), record_id="7")  # written by hand, past save's checks
        with path.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
        code, _, err = run_cli(capsys, *save)
        assert code == 1
        assert err.startswith("error: ") and "line 2" in err and "record_id must be an integer, got '7'" in err

    def test_missing_store_record_is_input_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "price", "--latest", "heston",
            "--strike", "1.0", "--expiry", "1.0", "--store-path", str(tmp_path / "nope"),
        )
        assert code == 1
        assert "heston" in err


class TestVarswapCommand:
    def test_flat_curve_with_unidentified_kappa(self, capsys, flat_file):
        code, out, _ = run_cli(capsys, "varswap", "--quotes", str(flat_file), "--fit", "fix")
        assert code == 0
        rep = json.loads(out)
        assert len(rep["curve"]) == 3
        for _, w in rep["curve"]:
            assert w == pytest.approx(0.127**2, abs=2e-5)
        assert rep["fit"]["kappa_identified"] is False
        assert rep["fit"]["theta"] == pytest.approx(0.127**2, abs=2e-5)

    def test_a_shared_config_that_pins_parameters_is_not_a_tenor_misuse(self, capsys, tmp_path, flat_file):
        # the tenor strategy refuses a fix set and other models, but `varswap` runs no strategy
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"v0_from_atm": True, "fix": {"kappa": 2.0}, "model": "schobel_zhu"}))
        code, out, _ = run_cli(capsys, "varswap", "--quotes", str(flat_file), "--config", str(cfgp))
        assert (code, out) == run_cli(capsys, "varswap", "--quotes", str(flat_file))[:2] and code == 0

    @pytest.mark.parametrize("config", [{"strategy": "penalized"}, {"strategy": "fixed"}])
    def test_a_shared_config_whose_strategy_needs_calibrate_settings_is_ignored(self, capsys, tmp_path, config):
        # 'penalized' needs --prev and 'fixed' a fix set: settings of calibrate, which varswap never runs
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, "varswap", "--quotes", str(DATA_CSV), "--config", str(cfgp))
        assert (code, out) == run_cli(capsys, "varswap", "--quotes", str(DATA_CSV))[:2] and code == 0

    def test_two_tenor_fit_rejected(self, capsys, tmp_path):
        p = tmp_path / "two.csv"
        p.write_text(
            "tenor,expiry_years,forward,discount,atm_vol,ms25,rr25\n"
            "6M,0.5,1.0,1.0,12.70%,0.00%,0.00%\n1Y,1.0,1.0,1.0,12.70%,0.00%,0.00%\n"
        )
        code, _, err = run_cli(capsys, "varswap", "--quotes", str(p), "--fit", "fix")
        assert code == 1
        assert "at least three" in err

    def test_synthetic_heston_file_recovery(self, capsys, tmp_path):
        # quotes generated from a known Heston surface: the fitted
        # (kappa, theta, v0) triple should come back near the truth
        from svcal.models import cf_heston
        from svcal.pricing import bs_implied_vol, cf_vanilla_price, model_smile
        from svcal.fx_quotes import strike_from_delta

        # mild wings keep the three-point replication bias below the 1e-3
        # recovery tolerance (flat wing extrapolation prices wide smiles low)
        truth = HestonParams(0.0169, 0.0225, 1.4, 0.15, -0.1)
        lines = ["tenor,expiry_years,forward,discount,atm_vol,ms25,rr25"]
        for lbl, T in [("6M", 0.5), ("1Y", 1.0), ("2Y", 2.0), ("4Y", 4.0)]:
            sl = MarketSlice(1.0, 1.0, T)
            atm_guess = math.sqrt(truth.v0)
            k_atm = math.exp(0.5 * atm_guess**2 * T)
            vols = dict(model_smile(truth, sl, sorted({k_atm})))
            atm = float(vols[k_atm])
            kp = strike_from_delta(sl, atm, 0.25, "put")
            kc = strike_from_delta(sl, atm, 0.25, "call")
            sm = dict(model_smile(truth, sl, sorted([kp, kc])))
            rr = float(sm[kc] - sm[kp])
            ms = float(0.5 * (sm[kc] + sm[kp]) - atm)
            lines.append(f"{lbl},{T},1.0,1.0,{atm!r},{ms!r},{rr!r}")
        p = tmp_path / "synthetic.csv"
        p.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "varswap", "--quotes", str(p), "--fit", "fix")
        assert code == 0
        fit = json.loads(out)["fit"]
        assert fit["v0"] == pytest.approx(truth.v0, abs=1e-3)
        assert fit["theta"] == pytest.approx(truth.theta, abs=1e-3)
        assert fit["kappa"] == pytest.approx(truth.kappa, abs=0.35)
        assert fit["misfit"] is False


class TestQuotedVarswapCurve:
    # closed-form mean variances for (v0=0.04, theta=0.09, kappa=1)
    CURVE_CSV = (
        "expiry_years,fair_variance\n"
        "0.5,0.050653066\n1.0,0.0583939721\n2.0,0.0683833821\n5.0,0.0800673795\n"
    )

    def test_quoted_curve_fit(self, capsys, tmp_path):
        p = tmp_path / "vs.csv"
        p.write_text(self.CURVE_CSV)
        code, out, _ = run_cli(capsys, "varswap", "--vs-curve", str(p), "--fit", "fix")
        assert code == 0
        rep = json.loads(out)
        assert rep["curve"][0] == [0.5, 0.050653066]
        assert rep["fit"]["v0"] == pytest.approx(0.04, abs=1e-6)
        assert rep["fit"]["theta"] == pytest.approx(0.09, abs=1e-6)
        assert rep["fit"]["kappa"] == pytest.approx(1.0, abs=1e-5)

    def test_quoted_curve_ignores_a_shared_config_that_pins_v0(self, capsys, tmp_path):
        # v0_from_atm reads the vanilla quotes, which a quoted curve alone does not have
        p = tmp_path / "vs.csv"
        p.write_text(self.CURVE_CSV)
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"v0_from_atm": True}))
        code, out, _ = run_cli(capsys, "varswap", "--vs-curve", str(p), "--config", str(cfgp))
        plain = run_cli(capsys, "varswap", "--vs-curve", str(p))
        assert (code, out) == plain[:2] and code == 0

    def test_calibrate_varswap_strategy_with_quoted_curve(self, capsys, tmp_path, flat_file):
        p = tmp_path / "vs.csv"
        p.write_text(
            "expiry_years,fair_variance\n0.5,0.016129\n1.0,0.016129\n2.0,0.016129\n"
        )
        code, out, _ = run_cli(
            capsys, "calibrate", "--quotes", str(flat_file),
            "--strategy", "varswap", "--vs-curve", str(p),
        )
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert rec["params"]["theta"] == pytest.approx(0.016129, rel=1e-9)  # fixed by the curve
        assert rec["params"]["v0"] == pytest.approx(0.016129, rel=1e-9)

    def test_malformed_curve_rejected(self, capsys, tmp_path):
        p = tmp_path / "vs.csv"
        p.write_text("expiry_years,fair_variance\n1.0,0.04\n0.5,0.05\n")
        code, _, err = run_cli(capsys, "varswap", "--vs-curve", str(p), "--fit", "fix")
        assert code == 1
        assert "line 3" in err

    def test_short_quoted_curve_rejected_for_fit(self, capsys, tmp_path):
        p = tmp_path / "vs.csv"
        p.write_text("expiry_years,fair_variance\n0.5,0.04\n1.0,0.05\n")
        code, _, err = run_cli(capsys, "varswap", "--vs-curve", str(p), "--fit", "fix")
        assert code == 1
        assert "at least three" in err


NON_FINITE = ["nan", "inf", "-inf", "NaN%", "1e999"]


class TestNonFiniteNumbersInFiles:
    """A number that is not finite in any numeric column of a quote or variance-swap file exits 1
    with its line number, from every subcommand that reads the file."""

    @staticmethod
    def _with(tmp_path, lines, line_no, column, value):
        fields = lines[line_no - 1].split(",")
        fields[column] = value
        p = tmp_path / "in.csv"
        p.write_text("\n".join(lines[:line_no - 1] + [",".join(fields)] + lines[line_no:]) + "\n")
        return str(p)

    @staticmethod
    def _assert_input_error(capsys, line_no, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: line {line_no}: expected a finite number, got ")

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("column", ["expiry_years", "forward", "discount", "atm_vol", "ms25", "rr25"])
    def test_quote_file(self, capsys, tmp_path, column, value):
        lines = DATA_CSV.read_text().splitlines()
        p = self._with(tmp_path, lines, 4, lines[0].split(",").index(column), value)
        for argv in (["calibrate", "--quotes", p], ["varswap", "--quotes", p, "--fit", "fix"],
                     ["markdown", "--quotes", p, "--lam", "0.5"]):
            self._assert_input_error(capsys, 4, *argv)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("column", [0, 1])
    def test_variance_swap_file(self, capsys, tmp_path, column, value):
        p = self._with(tmp_path, TestQuotedVarswapCurve.CURVE_CSV.splitlines(), 3, column, value)
        for argv in (["varswap", "--vs-curve", p, "--fit", "fix"], ["varswap", "--vs-curve", p],
                     ["calibrate", "--quotes", str(DATA_CSV), "--strategy", "varswap", "--vs-curve", p]):
            self._assert_input_error(capsys, 3, *argv)


class TestMarkdownCommand:
    def test_weight_one_byte_identical(self, capsys, tmp_path):
        out_path = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "markdown", "--quotes", str(DATA_CSV),
                             "--lam", "1.0", "--output", str(out_path))
        assert code == 0
        assert out_path.read_text() == DATA_CSV.read_text()

    def test_weight_zero_kills_wings(self, capsys):
        code, out, _ = run_cli(capsys, "markdown", "--quotes", str(DATA_CSV), "--lam", "0.0")
        assert code == 0
        for line in out.splitlines()[1:]:
            fields = line.split(",")
            assert fields[5] == "0.0" and fields[6] == "-0.0"

    def test_curve_applies_bucket_weights(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "markdown", "--quotes", str(DATA_CSV),
                               "--curve", "1:0.5,5:0.8")
        assert code == 0
        from svcal.quotes_io import parse_quotes

        rows = parse_quotes(out)
        orig = parse_quotes(DATA_CSV.read_text())
        for r, o in zip(rows, orig):
            w = 0.5 if o.expiry <= 1.0 else 0.8
            assert r.ms25 == pytest.approx(o.ms25 * w, rel=1e-14)
            assert r.rr25 == pytest.approx(o.rr25 * w, rel=1e-14)
            assert r.atm_vol == o.atm_vol

    def test_mixing_curve_from_config_file(self, capsys, tmp_path):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"mixing": {"breakpoints": [1.0, 5.0], "values": [0.5, 0.8]}}))
        code, out, _ = run_cli(capsys, "markdown", "--quotes", str(DATA_CSV), "--config", str(cfgp))
        assert code == 0
        from svcal.quotes_io import parse_quotes

        rows = parse_quotes(out)
        orig = parse_quotes(DATA_CSV.read_text())
        for r, o in zip(rows, orig):
            w = 0.5 if o.expiry <= 1.0 else 0.8
            assert r.rr25 == pytest.approx(o.rr25 * w, rel=1e-14)

    @pytest.mark.parametrize("curve", ["1:abc", "x:0.5", "1:inf", "nan:0.5"])
    def test_curve_number_that_is_not_finite_is_input_error(self, capsys, curve):
        code, out, err = run_cli(capsys, "markdown", "--quotes", str(DATA_CSV), "--curve", curve)
        assert code == 1
        assert out == ""
        assert err.startswith("error: --curve expects a")

    @pytest.mark.parametrize("config, message", [
        ([1], "must hold a JSON object, got [1]"),
        ({"mixing": [1]}, "config section 'mixing' must be an object, got [1]"),
        ({"mixing": {"breakpoints": [1.0]}}, "config section 'mixing' needs lists 'breakpoints' and 'values'"),
        ({"mixing": {"breakpoints": ["a"], "values": [0.5]}}, "mixing.breakpoints must be a finite number, got 'a'"),
        ({"mixing": {"breakpoints": [1.0], "values": [None]}}, "mixing.values must be a finite number, got None"),
    ], ids=["top_level_list", "mixing_list", "values_missing", "breakpoint_string", "value_null"])
    def test_malformed_mixing_config_is_input_error(self, capsys, tmp_path, config, message):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "markdown", "--quotes", str(DATA_CSV), "--config", str(cfgp))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_markdown_requires_a_weight_source(self, capsys):
        code, _, err = run_cli(capsys, "markdown", "--quotes", str(DATA_CSV))
        assert code == 1
        assert "mixing" in err

    def test_parse_emit_round_trip_preserves_values(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "markdown", "--quotes", str(DATA_CSV), "--lam", "0.37")
        from svcal.quotes_io import parse_quotes

        rows = parse_quotes(out)
        orig = parse_quotes(DATA_CSV.read_text())
        for r, o in zip(rows, orig):
            assert r.ms25 == o.ms25 * 0.37  # exact: repr round-trip
