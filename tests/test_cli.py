import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from conewave import cli
from conewave.cli import _KEYS, ConfigError, main, parse_config

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def write_cfg(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def strict_json(path):
    """Parse as strict JSON: NaN and Infinity tokens are an error."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(path.read_text(), parse_constant=reject)


class TestConfigParsing:
    def test_defaults_and_overrides(self, tmp_path):
        cfg = parse_config(None, {"mode": "solve", "out": str(tmp_path)})
        assert cfg.mode == "solve"
        assert cfg.gamma == 1.0

    def test_unknown_key(self, tmp_path):
        path = write_cfg(tmp_path, "bad.cfg", "modee = solve\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_bad_number(self, tmp_path):
        path = write_cfg(tmp_path, "bad.cfg", "gamma = banana\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_bad_mode_and_ranges(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_cfg(tmp_path, "a.cfg", "mode = dance\n"))
        with pytest.raises(ConfigError):
            parse_config(write_cfg(tmp_path, "b.cfg", "gamma = 3.5\n"))
        with pytest.raises(ConfigError):
            parse_config(write_cfg(tmp_path, "c.cfg", "R = 0.5\n"))
        with pytest.raises(ConfigError):
            parse_config(write_cfg(tmp_path, "d.cfg", "mode = sweep\n"))

    def test_comments_and_blank_lines(self, tmp_path):
        path = write_cfg(tmp_path, "ok.cfg", "# comment\n\ngamma = 0.5  # inline\n")
        cfg = parse_config(path)
        assert cfg.gamma == 0.5

    def test_malformed_line(self, tmp_path):
        path = write_cfg(tmp_path, "bad.cfg", "gamma 0.5\n")
        with pytest.raises(ConfigError):
            parse_config(path)


class TestMainExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "bad.cfg", "mode = dance\n")
        assert main(["--config", path]) == 2

    @pytest.mark.parametrize(
        "body",
        ["h = 0.3\n", "h = nan\n", "family = foo\n", "t_max = -5\n",
         "mode = sweep\ngamma = -0.4\nepsilon_list = 5.4,3.2\n", "epsilon = -1\n",
         "mode = sweep\nepsilon_list = 1,2\n", "blowup_threshold = 0\n",
         "blowup_threshold = -5\n", "blowup_threshold = nan\n",
         *(f"h = 0.25\n{b}" for b in (
             "mode = verify\nverify_gammas = abc\n", "mode = verify\nverify_gammas = 3.5\n",
             "mode = verify\nlemma_samples = 0\n", "mode = verify\ntrilinear_h = 0\n",
             "mode = verify\nverify_T = -1\n",
             "mode = sweep\ngamma = -0.4\nepsilon_list = 4,5\nrefine = -1\n",
             "t_star = 500\n", "t_star = 3.01\n", "t_star = 19.75\n",
             "mode = sweep\ngamma = -0.4\nepsilon_list = 4.6,5.1,5.4\n",
             "mode = blowup\ngamma = -0.4\nepsilon = 0\nt_max = 3\n",
             "mode = verify\nseed = -1\n", "epsilon = nan\n", "epsilon = inf\n",
             "mode = sweep\ngamma = -0.4\nepsilon_list = 1,2,nan,4\n",
             "mode = verify\ntrilinear_h = 0.3\n"))],
        ids=["h_not_dividing_R", "h_nan", "unknown_family", "negative_t_max",
             "decreasing_epsilon_list", "negative_epsilon", "sweep_without_blowup",
             "zero_blowup_threshold", "negative_blowup_threshold", "nan_blowup_threshold",
             "verify_gamma_not_a_number", "verify_gamma_out_of_range", "zero_lemma_samples",
             "zero_trilinear_h", "negative_verify_T", "negative_refine",
             "t_star_past_t_max", "t_star_off_grid", "t_star_one_slice_before_t_max",
             "sweep_with_three_points",
             "blowup_zero_epsilon", "negative_seed", "epsilon_nan", "epsilon_inf",
             "epsilon_list_nan", "trilinear_h_not_reciprocal"],
    )
    def test_bad_value_is_2(self, tmp_path, capsys, body):
        path = write_cfg(tmp_path, "bad.cfg", body + f"out = {tmp_path}/out\n")
        assert main(["--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.count("\n") == 1

    # for every key with a rule, one value that the rule refuses
    BAD = {
        "mode": "dance", "gamma": "3.5", "R": "0.5", "epsilon": "-1", "h": "nan",
        "t_max": "-5", "family": "foo", "seed": "-1", "blowup_threshold": "0",
        "lemma_samples": "0", "refine": "-1", "verify_gammas": "1,abc", "verify_T": "inf",
        "trilinear_h": "0.3", "delta": "nan", "t_star": "nan", "run_dalembert": "2",
    }

    def test_every_ruled_key_has_a_refused_value(self):
        assert set(self.BAD) == {key for key, (_, rule, _) in _KEYS.items() if rule}

    @pytest.mark.parametrize("key", sorted(BAD))
    def test_key_rule_refuses(self, tmp_path, capsys, key):
        body = f"h = 0.25\nt_max = 1\n{key} = {self.BAD[key]}\nout = {tmp_path}/out\n"
        assert main(["--config", write_cfg(tmp_path, "bad.cfg", body)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} must be ")
        assert err.count("\n") == 1

    def test_negative_seed_flag_is_2(self, tmp_path, capsys):
        assert main(["--mode", "verify", "--seed", "-1", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: seed must be >= 0")

    def test_solve_zero_data(self, tmp_path):
        path = write_cfg(
            tmp_path,
            "zero.cfg",
            f"mode = solve\nepsilon = 0\nh = 0.125\nt_max = 2\nout = {tmp_path}/out\n",
        )
        assert main(["--config", path]) == 0
        csv = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert csv[0].startswith("# conewave results v1:")
        vals = np.array([[float(x) for x in line.split(",")] for line in csv[1:]])
        assert np.all(vals[:, 1:] == 0.0)
        inv = (tmp_path / "out" / "invariants.txt").read_text()
        assert "positivity=pass" in inv

    def test_numerical_abort_is_3(self, tmp_path):
        path = write_cfg(
            tmp_path,
            "abort.cfg",
            "mode = solve\nepsilon = 1e150\nblowup_threshold = 1e307\n"
            f"h = 0.25\nt_max = 2\nout = {tmp_path}/out\n",
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["--config", path]) == 3
        out = tmp_path / "out"
        lines = (out / "invariants.txt").read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical_abort=fail # ")
        assert not (out / "results.csv").exists()
        assert not (out / "summary.json").exists()

    def test_abort_removes_earlier_artifacts(self, tmp_path):
        # a finished run, then an aborted one into the same directory: only
        # the abort line is left
        out = tmp_path / "out"
        body = f"mode = solve\nh = 0.25\nt_max = 2\nout = {out}\n"
        assert main(["--config", write_cfg(tmp_path, "ok.cfg", body + "epsilon = 0.5\n")]) == 0
        assert (out / "results.csv").exists() and (out / "summary.json").exists()
        bad = body + "epsilon = 1e150\nblowup_threshold = 1e307\n"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["--config", write_cfg(tmp_path, "abort.cfg", bad)]) == 3
        assert sorted(p.name for p in out.iterdir()) == ["invariants.txt"]
        assert (out / "invariants.txt").read_text().startswith("numerical_abort=fail # ")

    def test_out_naming_a_file_is_2(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("not a directory\n")
        assert main(["--mode", "verify", "--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out: ")
        assert err.count("\n") == 1
        assert path.read_text() == "not a directory\n"


class TestDeterminism:
    def _run_twice(self, tmp_path, body):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            path = write_cfg(tmp_path, f"{tag}.cfg", body + f"out = {out}\n")
            assert main(["--config", path]) in (0, 1)
            outs.append(
                (
                    (out / "results.csv").read_bytes(),
                    (out / "summary.json").read_bytes(),
                    (out / "invariants.txt").read_bytes(),
                )
            )
        return outs

    def test_solve_byte_identical(self, tmp_path):
        a, b = self._run_twice(
            tmp_path, "mode = solve\nepsilon = 0.5\nh = 0.125\nt_max = 3\nseed = 7\n"
        )
        assert a == b

    def test_verify_byte_identical(self, tmp_path):
        body = (
            "mode = verify\nseed = 11\nlemma_samples = 500\nverify_T = 4\n"
            "verify_gammas = 1\ntrilinear_h = 0.125\nh = 0.25\nt_max = 6\n"
        )
        a, b = self._run_twice(tmp_path, body)
        assert a == b

    def test_seed_changes_verify_output(self, tmp_path):
        body = (
            "mode = verify\nlemma_samples = 500\nverify_T = 4\n"
            "verify_gammas = 1\ntrilinear_h = 0.125\nh = 0.25\nt_max = 6\n"
        )
        out1 = tmp_path / "s1"
        path = write_cfg(tmp_path, "s1.cfg", body + f"seed = 1\nout = {out1}\n")
        main(["--config", path])
        out2 = tmp_path / "s2"
        path = write_cfg(tmp_path, "s2.cfg", body + f"seed = 2\nout = {out2}\n")
        main(["--config", path])
        s1 = json.loads((out1 / "summary.json").read_text())
        s2 = json.loads((out2 / "summary.json").read_text())
        assert s1["lemma_integrals"]["max_ratio"] != s2["lemma_integrals"]["max_ratio"]


class TestModes:
    def test_backend_agreement_can_fail(self, tmp_path, monkeypatch):
        # a backend difference of 100 h^2 sup_u lies above the bound
        # 50 h^2 sup_u; with sup_u < 0.5 an absolute floor of 1 would hide it
        # skews the check backend, the march against the stencil's u table
        real = cli.solve_march

        def skewed(params, data, u_ref):
            hist = real(params, data, u_ref=u_ref)
            hist.ref_diff[:] = 100.0 * params.grid.h**2 * np.abs(u_ref).max()
            return hist

        monkeypatch.setattr(cli, "solve_march", skewed)
        body = "mode = solve\nepsilon = 0.01\nh = 0.125\nt_max = 2\nrun_dalembert = 1\n"
        path = write_cfg(tmp_path, "b.cfg", body + f"out = {tmp_path}/out\n")
        assert main(["--config", path]) == 1
        summary = strict_json(tmp_path / "out" / "summary.json")
        assert 0.0 < summary["sup_u_max"] < 0.5
        inv = (tmp_path / "out" / "invariants.txt").read_text()
        assert "backend_agreement=fail" in inv

    def test_blowup_mode(self, tmp_path):
        path = write_cfg(
            tmp_path,
            "b.cfg",
            "mode = blowup\ngamma = -0.4\nepsilon = 8\nh = 0.015625\nt_max = 6.5\n"
            f"out = {tmp_path}/out\n",
        )
        status = main(["--config", path])
        assert status == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["blew_up"] is True
        assert summary["frame_pair_min_ratio"] < 1.0  # reported, not asserted

    def test_blowup_mode_ends_before_t_gamma(self, tmp_path):
        # t_max < t_gamma = 1.25: no envelope seed and no identity window, so
        # nothing is checked and the run must not read as all-pass
        body = "mode = blowup\ngamma = -0.4\nepsilon = 4.1\nh = 0.0625\nt_max = 1\n"
        path = write_cfg(tmp_path, "b.cfg", body + f"out = {tmp_path}/out\n")
        assert main(["--config", path]) == 1
        inv = (tmp_path / "out" / "invariants.txt").read_text()
        assert inv == "no_invariant_checked=fail\n"

    def test_sweep_mode_quick(self, tmp_path):
        body = (
            "mode = sweep\ngamma = -0.4\nepsilon_list = 4.0,4.6,5.3,6.1\n"
            "h = 0.125\nt_max = 60\nrefine = 0\n"
        )
        rows = {}
        for tag, extra in (("default", ""), ("low", "blowup_threshold = 1e3\n")):
            out = tmp_path / tag
            path = write_cfg(tmp_path, f"{tag}.cfg", body + extra + f"out = {out}\n")
            status = main(["--config", path])
            summary = strict_json(out / "summary.json")
            csv = (out / "results.csv").read_text().splitlines()
            assert csv[0].startswith("# conewave sweep")
            assert summary["slope"] < -3.0
            assert status in (0, 1)
            eps, t_numeric, _, thr, _ = csv[-1].split(",")
            rows[tag] = (eps, float(t_numeric), float(thr))
        # the config's stop threshold reaches the runs, not only the CSV column
        assert rows == {"default": ("6.1", 10.75, 1e6), "low": ("6.1", 10.625, 1000.0)}

    def test_sweep_with_too_few_blowups_reports_every_point(self, tmp_path):
        # two of five points stay censored, leaving three for a four-point fit:
        # the run still writes its artifacts and fails the slope check
        body = (
            "mode = sweep\ngamma = -0.4\nepsilon_list = 0.5,0.6,4.6,5.1,5.4\n"
            f"h = 0.25\nt_max = 40\nrefine = 0\nout = {tmp_path}/out\n"
        )
        assert main(["--config", write_cfg(tmp_path, "s.cfg", body)]) == 1
        out = tmp_path / "out"
        csv = (out / "results.csv").read_text().splitlines()
        assert csv[0].startswith("# conewave sweep")
        cols = [line.split(",") for line in csv[1:]]
        assert [c[0] for c in cols] == ["0.5", "0.6", "4.6", "5.1", "5.4"]
        assert [c[4] for c in cols] == ["1", "1", "0", "0", "0"]
        summary = strict_json(out / "summary.json")
        assert summary["passed"] is False and summary["slope"] is None
        assert summary["epsilons"] == [4.6, 5.1, 5.4]
        inv = (out / "invariants.txt").read_text()
        assert "slope_within_25pct=fail" in inv

    def test_shipped_configs_parse(self):
        cfg_dir = ROOT / "configs"
        found = sorted(cfg_dir.glob("*.cfg"))
        assert len(found) >= 6
        for cfg in found:
            parse_config(str(cfg))

    @pytest.mark.parametrize("smoke", [False, True])
    @pytest.mark.parametrize("name", workloads.WORKLOADS)
    def test_perfbench_configs_parse(self, tmp_path, name, smoke):
        path = tmp_path / f"{name}.cfg"
        workloads.write_config(workloads.make_config(name, 7, smoke), path)
        parse_config(str(path))
