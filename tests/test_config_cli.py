"""Configuration loading, flag precedence and the CSV-emitting commands."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qrepeater import protocol
from qrepeater.analysis import apply_overrides
from qrepeater.channel import LinkParams, initial_fidelity
from qrepeater.cli import (
    _AXIS_TYPES,
    BELL_VIOLATION_FIDELITY,
    _parse_axes,
    cmd_fixed_point,
    cmd_headline,
    cmd_link,
    cmd_simulate,
    cmd_sweep,
    main,
)
from qrepeater.config import FIELD_TYPES, NULLABLE, RunConfig, load_config, parse_config_file

ROOT = Path(__file__).resolve().parents[1]


def data_rows(csv_text):
    lines = [l for l in csv_text.splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestLoadConfig:
    def test_defaults_are_replication_values(self):
        cfg = load_config(None)
        assert cfg.l0_km == 20.0
        assert cfg.attenuation_db_per_km == 0.2
        assert cfg.p == 0.995 and cfg.eta == 0.995
        assert cfg.upsilon == 0.0
        assert cfg.m == 3

    def test_empty_file_keeps_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        assert load_config(path) == load_config(None)

    def test_file_values_and_sections(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "[link]\nl0_km = 10\np_em = 0.08\n\n[noise]\np = 0.99  # gate errors\n"
        )
        cfg = load_config(path)
        assert cfg.l0_km == 10.0
        assert cfg.p_em == 0.08
        assert cfg.p == 0.99

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("m = 3\n")
        cfg = load_config(path, {"m": 1})
        assert cfg.m == 1

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("l0_km = 10\nbogus_key = 2\n")
        with pytest.raises(ValueError, match=r"run\.cfg:2.*bogus_key"):
            parse_config_file(path)

    def test_unparsable_value_has_context(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("m = three\n")
        with pytest.raises(ValueError, match=r"run\.cfg:1.*'m'"):
            parse_config_file(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("m = 3\nm = 1\n")
        with pytest.raises(ValueError, match="duplicate"):
            parse_config_file(path)

    def test_out_of_range_value_names_field(self):
        with pytest.raises(ValueError, match="p_em"):
            load_config(None, {"p_em": 1.5})

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            load_config(None, {"coherence_time": 1.0})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", LinkParams._fields)
    def test_non_finite_link_value_names_field(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            load_config(None, {name: value})

    def test_negative_seed_rejected_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = -3\n")
        with pytest.raises(ValueError, match=r"^seed must be an int >= 0, got -3$"):
            load_config(path)

    def test_none_only_for_keys_that_may_be_unset(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("f0 = None\ntc_s = None\n")
        assert parse_config_file(path) == {"f0": None, "tc_s": None}
        assert load_config(path) == load_config(None)
        path.write_text("m = None\n")
        with pytest.raises(ValueError, match=r"run\.cfg:1: cannot parse 'm' value 'None' as int"):
            parse_config_file(path)

    def test_trials_message_kept(self):
        with pytest.raises(ValueError, match=r"^trials must be an int >= 1, got 0$"):
            load_config(None, {"trials": 0})


class TestCmdLink:
    def test_closed_form_row(self):
        cfg = RunConfig(p_em=0.05, eps_local=0.3, l0_km=20.0, attenuation_db_per_km=0.2)
        header, rows = data_rows(cmd_link(cfg))
        values = dict(zip(header, map(float, rows[0])))
        assert values["efficiency"] == pytest.approx(0.3 * 10 ** (-0.2), rel=1e-10)
        assert values["initial_fidelity"] == pytest.approx(
            initial_fidelity(0.05, 0.3 * 10 ** (-0.2)), rel=1e-10
        )
        assert values["success_prob"] == pytest.approx(
            0.5 * (1 - math.exp(-0.05 * 0.3 * 10 ** (-0.2) / 2)), rel=1e-10
        )

    def test_perfect_channel_fidelity_one(self):
        cfg = RunConfig(eps_local=1.0, attenuation_db_per_km=0.0)
        header, rows = data_rows(cmd_link(cfg))
        values = dict(zip(header, map(float, rows[0])))
        assert values["initial_fidelity"] == 1.0

    def test_oracle_columns(self):
        cfg = RunConfig(trials=100_000, seed=7)
        header, rows = data_rows(cmd_link(cfg, oracle=True))
        assert "mc_success_prob" in header and "mc_fidelity_se" in header
        values = dict(zip(header, map(float, rows[0])))
        assert values["mc_success_prob"] == pytest.approx(
            values["success_prob"], abs=4 * values["mc_success_se"]
        )


class TestCmdSimulate:
    def test_zero_time_link_leaves_time_in_t0_units_empty(self, capsys):
        assert main(["simulate", "--t0-s", "0", "--tc-s", "0"]) == 0
        header, rows = data_rows(capsys.readouterr().out)
        times = [dict(zip(header, row)) for row in rows]
        assert [t["expected_time_s"] for t in times] == ["0"] * 4
        assert [t["time_in_t0_units"] for t in times] == [""] * 4

    def test_perfect_world_column(self):
        cfg = RunConfig(attenuation_db_per_km=0.0, eps_local=1.0, p=1.0, eta=1.0,
                        target_span=7)
        header, rows = data_rows(cmd_simulate(cfg))
        fid_col = header.index("fidelity")
        assert all(float(r[fid_col]) == 1.0 for r in rows)

    def test_m_zero_chain_closed_form(self):
        cfg = RunConfig(f0=0.99, m=0, p=1.0, eta=1.0, target_span=15)
        header, rows = data_rows(cmd_simulate(cfg))
        span_col, fid_col = header.index("span_segments"), header.index("fidelity")
        for row in rows:
            span, fid = int(row[span_col]), float(row[fid_col])
            assert fid == pytest.approx((1 + 0.98**span) / 2, abs=1e-9)

    def test_default_curve_saturates(self):
        cfg = RunConfig(f0=0.98, target_span=127, tc_s=70e-6)
        header, rows = data_rows(cmd_simulate(cfg))
        fid_col = header.index("fidelity")
        fids = [float(r[fid_col]) for r in rows[1:]]
        assert fids[-2] - fids[-1] <= 0.02

    def test_time_in_link_units(self):
        cfg = RunConfig(target_span=3)
        header, rows = data_rows(cmd_simulate(cfg))
        t_col = header.index("time_in_t0_units")
        assert float(rows[0][t_col]) == pytest.approx(1.0, rel=1e-9)


class TestCmdFixedPoint:
    def test_perfect_world_all_ones(self):
        cfg = RunConfig(attenuation_db_per_km=0.0, eps_local=1.0, p=1.0, eta=1.0,
                        target_span=7)
        header, rows = data_rows(cmd_fixed_point(cfg))
        for col in ("f_fp", "f_inf"):
            idx = header.index(col)
            assert all(abs(float(r[idx]) - 1.0) < 1e-9 for r in rows)

    def test_upsilon_axis_ordering(self):
        cfg = RunConfig(f0=0.99, target_span=15, tc_s=70e-6)
        header, rows = data_rows(
            cmd_fixed_point(cfg, axes={"upsilon": [0.0, 0.1, 0.2, 0.3]})
        )
        idx = header.index("f_inf")
        values = [float(r[idx]) for r in rows]
        assert all(a + 1e-9 >= b for a, b in zip(values, values[1:]))
        assert all(v > 0.5 for v in values)


class TestCmdSweep:
    def test_grid_shape_and_ordering(self):
        cfg = RunConfig(f0=0.98, target_span=7, tc_s=70e-6)
        header, rows = data_rows(
            cmd_sweep(cfg, axes={"f0": [0.97, 0.99], "m": [1, 2]})
        )
        assert [r[:2] for r in rows] == [
            ["0.97", "1"],
            ["0.97", "2"],
            ["0.99", "1"],
            ["0.99", "2"],
        ]

    def test_requires_axes(self):
        with pytest.raises(ValueError):
            cmd_sweep(RunConfig(), axes={})


class TestCmdHeadline:
    def test_scenario_report(self):
        cfg = RunConfig(p_em=0.08, eps_local=0.5, m=1, tc_s=70e-6)
        header, rows = data_rows(cmd_headline(cfg))
        values = dict(zip(header, map(float, rows[0])))
        assert values["span_segments"] == 63
        assert values["efficiency"] >= 0.2
        assert values["fidelity"] >= 0.75
        assert values["violates_bell"] == 1.0
        assert 0.3 <= values["expected_time_s"] <= 30.0

    def test_perfect_world_trivially_violates(self):
        cfg = RunConfig(attenuation_db_per_km=0.0, eps_local=1.0, p=1.0, eta=1.0, m=1)
        header, rows = data_rows(cmd_headline(cfg))
        values = dict(zip(header, map(float, rows[0])))
        assert values["fidelity"] == 1.0
        assert values["violates_bell"] == 1.0

    def test_threshold_documented_value(self):
        assert BELL_VIOLATION_FIDELITY == 0.78

    def test_vanishing_efficiency_reports_impractical_time(self):
        # collection efficiency near zero: the pair quality is fine but
        # the heralding time diverges, which the report makes obvious
        cfg = RunConfig(p_em=0.08, eps_local=1e-9, m=1, tc_s=70e-6)
        header, rows = data_rows(cmd_headline(cfg))
        values = dict(zip(header, map(float, rows[0])))
        assert values["expected_time_s"] > 1e6


class TestMainEntry:
    @pytest.mark.parametrize("command", ["link", "simulate", "fixed-point", "headline"])
    def test_print_config_is_a_config_file(self, command, tmp_path, capsys):
        # The defaults leave f0 and tc_s unset, which --print-config writes as None.
        assert main([command, "--print-config"]) == 0
        printed = capsys.readouterr().out
        assert "f0 = None" in printed and "tc_s = None" in printed
        path = tmp_path / "printed.cfg"
        path.write_text(printed)
        assert main([command]) == 0
        plain = capsys.readouterr().out
        assert main([command, "--config", str(path)]) == 0
        assert capsys.readouterr().out == plain

    def test_flag_overrides_file(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("m = 3\n")
        code = main(["link", "--config", str(path), "--m", "1", "--print-config"])
        assert code == 0
        assert "m = 1" in capsys.readouterr().out

    def test_headline_rounded_span_overflow_exits_2_in_a_process(self):
        # 1e308 / 1 is finite, but its rounded span 2^1024 - 1 times l0_km is not;
        # with no link or classical time, no time overflows first.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        args = ["headline", "--distance-km", "1e308", "--l0-km", "1", "--t0-s", "0", "--tc-s", "0"]
        proc = subprocess.run(
            [sys.executable, "-m", "qrepeater.cli", *args], env=env,
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "distance_km / l0_km overflows a float" in proc.stderr

    def test_headline_span_overflow_builds_no_level(self, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(protocol, "level_step", lambda *args: built.append(args))
        # The span 2^1023 - 1 is a float, but times l0_km it is infinite.
        args = ["headline", "--distance-km", "1.7e308", "--l0-km", "3", "--t0-s", "0", "--tc-s", "0"]
        assert main(args) == 2
        assert "distance_km / l0_km overflows a float" in capsys.readouterr().err
        assert built == []

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("seed = -3\n")
        assert main(["simulate", "--config", str(path)]) == 2
        assert "seed must be an int >= 0, got -3" in capsys.readouterr().err

    def test_csv_written_to_out(self, tmp_path, capsys):
        # COMMAND_BYTES reads stdout, so --out must write stdout's bytes.
        out_path = tmp_path / "link.csv"
        assert main(["link", "--out", str(out_path)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["link"]) == 0
        assert out_path.read_bytes() == capsys.readouterr().out.encode()

    def test_unwritable_out_is_an_error_line(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "x.csv"
        assert main(["headline", "--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""
        assert not out_path.parent.exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--target-span", "7", "--f0", "0.98", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_console_entry_point(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "qrepeater.cli", "link"], env=env,
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "efficiency" in proc.stdout


#: One valid, non-default value per run parameter.
SAMPLE_VALUES = {
    "l0_km": 10.0,
    "attenuation_db_per_km": 0.25,
    "p_em": 0.08,
    "eps_local": 0.5,
    "t0_s": 2e-06,
    "tc_s": 7e-05,
    "p": 0.99,
    "eta": 0.98,
    "upsilon": 0.1,
    "m": 2,
    "target_span": 7,
    "f0": 0.97,
    "seed": 7,
    "trials": 500,
}


def protocol_value(cfg, name):
    """A run parameter's value in a ProtocolConfig, wherever it lives."""
    owner = next(part for part in (cfg.link, cfg.noise, cfg) if hasattr(part, name))
    return getattr(owner, name)


class TestParameterRegistry:
    """Every RunConfig field is a config key, a flag and (except seed and
    trials) a sweep axis, with no list to keep in step by hand."""

    def test_registry_reads_the_annotations(self):
        assert list(FIELD_TYPES.items()) == [
            ("l0_km", float), ("attenuation_db_per_km", float), ("p_em", float),
            ("eps_local", float), ("t0_s", float), ("tc_s", float), ("p", float),
            ("eta", float), ("upsilon", float), ("m", int), ("target_span", int),
            ("f0", float), ("seed", int), ("trials", int),
        ]
        assert NULLABLE == {"tc_s", "f0"}

    def test_every_field_is_a_key_a_flag_and_an_axis(self, tmp_path, capsys):
        names = RunConfig._fields
        assert sorted(names) == sorted(SAMPLE_VALUES)
        base = RunConfig().protocol_config()
        for name in names:
            value = SAMPLE_VALUES[name]
            path = tmp_path / f"{name}.cfg"
            path.write_text(f"{name} = {value}\n")
            parsed = parse_config_file(path)[name]
            assert parsed == value and type(parsed) is type(value), name

            flag = "--" + name.replace("_", "-")
            assert main(["link", "--print-config", flag, str(value)]) == 0
            assert f"{name} = {value!r}" in capsys.readouterr().out.splitlines()

            if name in ("seed", "trials"):
                with pytest.raises(ValueError, match="unknown axis"):
                    _parse_axes([f"{name}={value}"])
                with pytest.raises(ValueError, match="unknown config fields"):
                    apply_overrides(base, **{name: value})
                continue
            assert _parse_axes([f"{name}={value}"]) == {name: [value]}
            assert protocol_value(apply_overrides(base, **{name: value}), name) == value

    @pytest.mark.parametrize("name", sorted(_AXIS_TYPES))
    def test_one_point_sweep_matches_the_single_commands(self, name, capsys):
        # A sweep axis must give what the same flag gives simulate and
        # fixed-point, including values the link derives from l0_km.
        value = {**SAMPLE_VALUES, "p_eta": 0.99}[name]
        names = ("p", "eta") if name == "p_eta" else (name,)
        flags = [arg for n in names for arg in ("--" + n.replace("_", "-"), str(value))]

        def last_row(argv):
            assert main(argv) == 0
            header, rows = data_rows(capsys.readouterr().out)
            return dict(zip(header, rows[-1]))

        swept = last_row(["sweep", "--axis", f"{name}={value}"])
        simulated = last_row(["simulate", *flags])
        for column in ("fidelity", "f_fp", "expected_time_s"):
            assert swept[column] == simulated[column], column
        assert swept["f_inf"] == last_row(["fixed-point", *flags])["f_inf"]
        assert swept["error"] == ""

    def test_p_eta_sets_both_reliabilities(self):
        assert _parse_axes(["p_eta=0.97,0.99"]) == {"p_eta": [0.97, 0.99]}
        noise = apply_overrides(RunConfig().protocol_config(), p_eta=0.97).noise
        assert noise.p == noise.eta == 0.97

    def test_readme_ini_example_parses(self, tmp_path):
        readme = (ROOT / "README.md").read_text()
        example = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        path = tmp_path / "readme.cfg"
        path.write_text(example)
        values = parse_config_file(path)
        assert values["l0_km"] == 20.0 and values["target_span"] == 15
        assert load_config(path) == RunConfig(tc_s=70e-6)
