import json
from pathlib import Path

import numpy as np
import pytest

from conewave.cli import ConfigError, main, parse_config


def write_cfg(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


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
         "blowup_threshold = -5\n", "blowup_threshold = nan\n"],
        ids=["h_not_dividing_R", "h_nan", "unknown_family", "negative_t_max",
             "decreasing_epsilon_list", "negative_epsilon", "sweep_without_blowup",
             "zero_blowup_threshold", "negative_blowup_threshold", "nan_blowup_threshold"],
    )
    def test_bad_value_is_2(self, tmp_path, capsys, body):
        path = write_cfg(tmp_path, "bad.cfg", body + f"out = {tmp_path}/out\n")
        assert main(["--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.count("\n") == 1

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
        assert "finite_propagation=pass" in inv

    def test_numerical_abort_is_3(self, tmp_path):
        path = write_cfg(
            tmp_path,
            "abort.cfg",
            "mode = solve\nepsilon = 1e150\nblowup_threshold = 1e307\n"
            f"h = 0.25\nt_max = 2\nout = {tmp_path}/out\n",
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["--config", path]) == 3


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
            summary = json.loads((out / "summary.json").read_text())
            csv = (out / "results.csv").read_text().splitlines()
            assert csv[0].startswith("# conewave sweep")
            assert summary["slope"] < -3.0
            assert status in (0, 1)
            eps, t_numeric, _, thr, _ = csv[-1].split(",")
            rows[tag] = (eps, float(t_numeric), float(thr))
        # the config's stop threshold reaches the runs, not only the CSV column
        assert rows == {"default": ("6.1", 10.5, 1e6), "low": ("6.1", 10.375, 1000.0)}

    def test_shipped_configs_parse(self):
        cfg_dir = Path(__file__).resolve().parents[1] / "configs"
        found = sorted(cfg_dir.glob("*.cfg"))
        assert len(found) >= 6
        for cfg in found:
            parse_config(str(cfg))
