import argparse
import json
import math
import re
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import timeop.config as config_module
from timeop.cli import _build_parser, main
from timeop.config import DEMO_CONFIG, ConfigError, parse_config
from timeop.runner import run_experiments

from test_runner import LOGISTIC_CONFIG

MINIMAL = """
seed = 7

[system]
kind = shift
lo = -4
hi = 4

[profile]
family = gumbel
a = 1.0

[experiment lyapunov]
max_t = 2
n_random = 3
"""


def errors_of(text):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    return excinfo.value.errors


class TestParsing:
    def test_minimal_config(self):
        config = parse_config(MINIMAL)
        assert config.seed == 7
        assert config.system == {"kind": "shift", "lo": -4, "hi": 4}
        assert config.profile == {"family": "gumbel", "a": 1.0}
        assert [e.name for e in config.experiments] == ["lyapunov"]
        assert config.experiments[0].params["max_t"] == 2

    def test_demo_config_is_valid(self):
        config = parse_config(DEMO_CONFIG)
        assert config.system == {"kind": "baker", "m": 2}
        names = [e.name for e in config.experiments]
        assert names == [
            "covariance", "admissibility", "lyapunov", "positivity",
            "tower", "classify", "kothe", "theorem",
        ]

    def test_comments_and_blank_lines_ignored(self):
        config = parse_config(MINIMAL.replace("seed = 7", "seed = 7  # the seed"))
        assert config.seed == 7

    def test_fraction_values(self):
        config = parse_config(DEMO_CONFIG)
        kothe = next(e for e in config.experiments if e.name == "kothe")
        assert kothe.params["n1"] == Fraction(0)
        assert kothe.params["n2"] == Fraction(1, 2)

    def test_custom_profile_points(self):
        text = MINIMAL.replace("family = gumbel\na = 1.0",
                               "family = custom\npoints = -1:0.9 0:0.5 1:0.1")
        config = parse_config(text)
        assert config.profile == {"family": "custom", "points": ((-1, 0.9), (0, 0.5), (1, 0.1))}


class TestSchemaErrors:
    def test_baker_cap_message(self):
        text = MINIMAL.replace("kind = shift\nlo = -4\nhi = 4", "kind = baker\nm = 12")
        errors = errors_of(text)
        assert any("m exceeds desk-scale cap 6" in msg for _, msg in errors)
        line = next(line for line, msg in errors if "desk-scale" in msg)
        assert line > 0

    def test_profile_required(self):
        text = MINIMAL.replace("[profile]\nfamily = gumbel\na = 1.0\n", "")
        errors = errors_of(text)
        assert any("profile required" in msg for _, msg in errors)

    def test_unknown_key_reports_line(self):
        text = MINIMAL + "\n[experiment covariance]\nbogus = 3\n"
        errors = errors_of(text)
        line, msg = next((l, m) for l, m in errors if "bogus" in m)
        assert line == text.splitlines().index("bogus = 3") + 1

    def test_unknown_experiment(self):
        errors = errors_of(MINIMAL + "\n[experiment warp]\n")
        assert any("unknown experiment" in msg for _, msg in errors)

    def test_duplicate_experiment(self):
        errors = errors_of(MINIMAL + "\n[experiment lyapunov]\n")
        assert any("listed twice" in msg for _, msg in errors)

    def test_bad_integer(self):
        errors = errors_of(MINIMAL.replace("max_t = 2", "max_t = soon"))
        assert any("must be an integer" in msg for _, msg in errors)

    def test_multiple_errors_collected(self):
        text = MINIMAL.replace("lo = -4", "lo = west").replace("max_t = 2", "max_t = 0")
        assert len(errors_of(text)) >= 2

    def test_kothe_grade_order(self):
        errors = errors_of(MINIMAL + "\n[experiment kothe]\nn1 = 1/2\nn2 = 1/2\n")
        assert any("n1 < n2" in msg for _, msg in errors)

    def test_theorem_time_zero_rejected(self):
        errors = errors_of(MINIMAL + "\n[experiment theorem]\nt_values = 0\n")
        assert any("degenerate" in msg for _, msg in errors)

    def test_non_finite_steepness_rejected(self):
        text = MINIMAL.replace("a = 1.0", "a = nan")
        errors = errors_of(text)
        assert (text.splitlines().index("a = nan") + 1, "a must be finite, got 'nan'") in errors

    def test_custom_point_outside_unit_interval_rejected(self):
        text = MINIMAL.replace("family = gumbel\na = 1.0",
                               "family = custom\npoints = -1:0.9 0:1.5 1:0.1")
        errors = errors_of(text)
        line, msg = next((l, m) for l, m in errors if "points values" in m)
        assert line == text.splitlines().index("points = -1:0.9 0:1.5 1:0.1") + 1
        assert "'1.5'" in msg
        assert len(errors) == 1  # not also "custom profile needs ..." for the dropped points

    def test_empty_sweep_rejected(self):
        text = MINIMAL + "\n[experiment positivity]\nsweep_a =\n"
        errors = errors_of(text)
        line, msg = next((l, m) for l, m in errors if "sweep_a" in m)
        assert line == text.splitlines().index("sweep_a =") + 1
        assert "at least one value" in msg

    @pytest.mark.parametrize("sweep", ["1.0 1.0", "0.5 1 2.0 1.00"])
    def test_repeated_steepness_rejected(self, sweep):
        # run would certify the operator again and write each of its rows twice
        text = MINIMAL.replace("kind = shift\nlo = -4\nhi = 4", "kind = baker\nm = 3") + (
            f"\n[experiment positivity]\nsweep_a = {sweep}\n")
        assert errors_of(text) == ((text.splitlines().index(f"sweep_a = {sweep}") + 1,
                                    "sweep_a lists a = 1.0 twice"),)

    def test_repeated_custom_point_rejected(self):
        # run builds the profile with the same constructor, so validate must reject it
        text = MINIMAL.replace("family = gumbel\na = 1.0",
                               "family = custom\npoints = -1:0.9 -1:0.5 1:0.1")
        errors = errors_of(text)
        assert errors == ((text.splitlines().index("[profile]") + 1,
                           "duplicate table point s=-1"),)

    @pytest.mark.parametrize("key_line, section", [
        ("seed = 7", None),
        ("lo = -4", "[system]"),
        ("a = 1.0", "[profile]"),
        ("max_t = 2", "[experiment lyapunov]"),
    ])
    def test_repeated_key_rejected(self, key_line, section):
        text = MINIMAL.replace(key_line, f"{key_line}\n{key_line}")
        key = key_line.split()[0]
        first = text.splitlines().index(key_line) + 1
        errors = errors_of(text)
        assert errors == ((first + 1, f"duplicate key {key!r} (first set on line {first})"),)

    @pytest.mark.parametrize("old, new, faults", [
        ("hi = 4", "hi = 4\nm = 3", [("m = 3", "m applies only to kind = baker")]),
        ("kind = shift", "kind = baker\nm = 2", [("lo = -4", "lo applies only to kind = shift"),
                                                 ("hi = 4", "hi applies only to kind = shift")]),
        ("family = gumbel", "family = logistic", [("a = 1.0", "a applies only to family = gumbel")]),
        ("a = 1.0", "a = 1.0\npoints = 0:0.5", [("points = 0:0.5",
                                                 "points applies only to family = custom")]),
    ], ids=["m-under-shift", "lo-hi-under-baker", "a-under-logistic", "points-under-gumbel"])
    def test_key_of_another_kind_or_family_rejected(self, old, new, faults):
        text = MINIMAL.replace(old, new)
        lines = text.splitlines()
        assert errors_of(text) == tuple((lines.index(line) + 1, msg) for line, msg in faults)

    def test_window_checked_by_the_domain_constructor(self):
        errors = errors_of(MINIMAL.replace("lo = -4", "lo = 1"))
        assert [msg for _, msg in errors] == ["window must satisfy lo < 0 < hi, got [1, 4]"]

    def test_positivity_on_shift_rejected(self):
        # run probes positivity on the Walsh grid, which only a baker system has
        text = MINIMAL + "\n[experiment positivity]\n"
        assert errors_of(text) == ((text.splitlines().index("[experiment positivity]") + 1,
                                    "positivity is probed on a baker system"),)


def custom_table(lo, hi, system="kind = shift\nlo = -3\nhi = 3",
                 experiments="[experiment covariance]"):
    # log lambda(s) = -exp(s - 16) is admissible on the sampled
    # grid and still nonzero at s = 22
    points = " ".join(f"{s}:{math.exp(-math.exp(s - 16))!r}" for s in range(lo, hi + 1))
    return f"[system]\n{system}\n\n[profile]\nfamily = custom\npoints = {points}\n\n{experiments}\n"


class TestValidateCli:
    """``timeop validate`` exits 2 with exactly one error line per fault."""

    @pytest.mark.parametrize("old, new", [
        ("family = gumbel\na = 1.0", "family = custom\npoints = -1:0.9 -1:0.5 1:0.1"),
        ("family = gumbel\na = 1.0", "family = custom\npoints = -1:0.9 0:1.5 1:0.1"),
        ("seed = 7", "seed = 7\nseed = 8"),
        ("hi = 4", "hi = 4\nm = 3"),
        ("n_random = 3", "n_random = 3\n\n[experiment positivity]"),
    ], ids=["repeated-point", "point-out-of-range", "repeated-seed", "m-under-shift",
            "positivity-on-shift"])
    def test_one_error_line_per_fault(self, tmp_path, capsys, old, new):
        path = tmp_path / "bad.cfg"
        path.write_text(MINIMAL.replace(old, new))
        assert main(["validate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("lo, hi, uncovered", [(-2, 1, -20), (-20, 21, 22)])
    def test_table_short_of_the_certificate_grid(self, tmp_path, capsys, lo, hi, uncovered):
        code, captured = self.validates(tmp_path, capsys, custom_table(lo, hi))
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"covariance: error (ProfileError: profile table does not cover s={uncovered})\n")

    @pytest.mark.parametrize("window, name, experiment, uncovered", [
        ("hi = 3", "admissibility", "[experiment admissibility]\ngrid_lo = -40", -40),
        ("hi = 20", "covariance", "[experiment covariance]\nt_values = 3", 23),
    ], ids=["admissibility-grid", "covariance-ages"])
    def test_table_short_of_a_point_the_run_reads(self, tmp_path, capsys, window, name,
                                                  experiment, uncovered):
        # the table covers the decay operator's sampled grid, not these points
        text = custom_table(-20, 22, f"kind = shift\nlo = -3\n{window}", experiment)
        code, captured = self.validates(tmp_path, capsys, text)
        assert code == 2
        assert captured.out == ""
        error = f"ProfileError: profile table does not cover s={uncovered}"
        assert captured.err == f"{name}: error ({error})\n"
        assert run_experiments(parse_config(text)).records[0]["error"] == error

    def test_table_covering_the_certificate_grid(self, tmp_path, capsys):
        code, captured = self.validates(tmp_path, capsys, custom_table(-20, 22))
        assert code == 0
        assert captured.out == "config OK\n"

    @staticmethod
    def validates(tmp_path, capsys, text):
        path = tmp_path / "reader.cfg"
        path.write_text(text)
        code = main(["validate", "--config", str(path)])
        return code, capsys.readouterr()

    def test_logistic_profile_without_a_decay_reader(self, tmp_path, capsys):
        # admissibility only certifies the profile: run records it as a gated fail
        code, captured = self.validates(tmp_path, capsys, LOGISTIC_CONFIG)
        assert code == 0
        assert captured.out == "config OK\n"
        assert captured.err == ""

    def test_short_table_read_only_by_positivity(self, tmp_path, capsys):
        # the positivity sweep builds its own gumbel profiles
        text = custom_table(-2, 1, "kind = baker\nm = 2",
                            "[experiment positivity]\nt_values = 1\nn_random = 2")
        code, captured = self.validates(tmp_path, capsys, text)
        assert code == 0
        assert captured.out == "config OK\n"
        assert run_experiments(parse_config(text)).all_gated_passed

    def test_gumbel_on_a_wide_admissibility_grid(self, tmp_path, capsys):
        # log lambda overflows to -inf past s = 709; the ratio's logs must
        # not difference -inf against -inf into NaN
        text = ("[system]\nkind = shift\nlo = -3\nhi = 3\n\n[profile]\nfamily = gumbel\n"
                "a = 1.0\n\n[experiment admissibility]\ngrid_hi = 800\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, captured = self.validates(tmp_path, capsys, text)
            assert (code, captured.out, captured.err) == (0, "config OK\n", "")
            out = tmp_path / "out"
            code = main(["run", "--config", str(tmp_path / "reader.cfg"), "--out", str(out)])
        assert capsys.readouterr().err == ""
        assert code == 0
        record = json.loads((out / "report.json").read_text())["experiments"][0]
        assert (record["status"], record["details"]["ratio_ok"]) == ("pass", True)

    @pytest.mark.parametrize("system, experiment, line, message", [
        ("kind = baker\nm = 2", "[experiment positivity]\nt_values = 1 3", 9,
         "t_values must be at most m = 2: past it the density 1+chi({0}) leaves the window"),
        ("kind = shift\nlo = -3\nhi = 3", "[experiment lyapunov]\nmax_t = 4", 10,
         "max_t must be at most (hi - lo) // 2 = 3: past it the margin band "
         "[lo + max_t, hi - max_t] is empty"),
        ("kind = baker\nm = 2", "[experiment lyapunov]\nmax_t = 3", 9,
         "max_t must be at most (hi - lo) // 2 = 2: past it the margin band "
         "[lo + max_t, hi - max_t] is empty"),
        ("kind = baker\nm = 1", "[experiment lyapunov]", 8,
         "max_t must be at most (hi - lo) // 2 = 1: past it the margin band "
         "[lo + max_t, hi - max_t] is empty"),
        ("kind = shift\nlo = -3\nhi = 3", "[experiment covariance]\nt_values = 1 7", 10,
         "t_values must be at most hi - lo = 6: past it the t-margin [lo, hi - t] is empty"),
        ("kind = shift\nlo = -3\nhi = 3", "[experiment covariance]\nt_values = 100", 10,
         "t_values must be at most hi - lo = 6: past it the t-margin [lo, hi - t] is empty"),
        ("kind = baker\nm = 1", "[experiment covariance]", 8,
         "t_values must be at most hi - lo = 2: past it the t-margin [lo, hi - t] is empty"),
        ("kind = shift\nlo = -3\nhi = 3", "[experiment theorem]\nt_values = 1 7", 10,
         "t_values must be at most hi - lo = 6: past it the t-margin [lo, hi - t] is empty"),
    ], ids=["positivity-past-m", "lyapunov-shift", "lyapunov-baker", "lyapunov-default",
            "covariance-shift", "covariance-far", "covariance-default", "theorem-shift"])
    def test_horizon_past_the_window(self, tmp_path, capsys, system, experiment, line, message):
        # run would record an error for each, or check no label at a
        # covariance time: validate refuses them, naming the key
        text = f"[system]\n{system}\n\n[profile]\nfamily = gumbel\n\n{experiment}\n"
        code, captured = self.validates(tmp_path, capsys, text)
        assert (code, captured.out) == (2, "")
        assert captured.err == f"line {line}: {message}\n"

    @pytest.mark.parametrize("system, experiment", [
        ("kind = baker\nm = 2", "[experiment positivity]\nt_values = 1 2"),
        ("kind = shift\nlo = -3\nhi = 3", "[experiment lyapunov]\nmax_t = 3"),
        ("kind = baker\nm = 2", "[experiment lyapunov]\nmax_t = 2"),
        ("kind = shift\nlo = -3\nhi = 3", "[experiment covariance]\nt_values = 0 6"),
        ("kind = baker\nm = 1", "[experiment covariance]\nt_values = 2"),
        ("kind = baker\nm = 1", "[experiment theorem]\nt_values = 2"),
    ], ids=["positivity-at-m", "lyapunov-shift", "lyapunov-baker", "covariance-shift",
            "covariance-baker", "theorem-baker"])
    def test_horizon_at_the_window_edge(self, tmp_path, capsys, system, experiment):
        text = f"[system]\n{system}\n\n[profile]\nfamily = gumbel\n\n{experiment}\n"
        code, captured = self.validates(tmp_path, capsys, text)
        assert (code, captured.out, captured.err) == (0, "config OK\n", "")
        bundle = run_experiments(parse_config(text))
        assert [r["status"] for r in bundle.records] in (["pass"], ["recorded"])

    def test_short_table_with_a_decay_reader(self, tmp_path, capsys):
        text = custom_table(-20, 21, "kind = baker\nm = 2",
                            "[experiment positivity]\n\n[experiment lyapunov]\nmax_t = 2")
        code, captured = self.validates(tmp_path, capsys, text)
        assert code == 2
        assert captured.err == "lyapunov: error (ProfileError: profile table does not cover s=22)\n"


ROOT = Path(__file__).resolve().parent.parent


def every_config():
    """Each config of the repository, the demo file widened to [-8, 8] or at a
    shallow gumbel steepness, and the tables above."""
    demo = (ROOT / "demos" / "experiment.cfg").read_text()
    wide = demo.replace("lo = -6\nhi = 6", "lo = -8\nhi = 8")
    shallow = demo.replace("a = 1.0", "a = 0.02")
    assert demo != wide and demo != shallow
    configs = [("experiment.cfg", demo), ("DEMO_CONFIG", DEMO_CONFIG),
               ("experiment.cfg-wide", wide), ("experiment.cfg-a0.02", shallow)]
    configs += [(path.name, path.read_text()) for path in sorted(ROOT.glob("tests/golden/*.cfg"))]
    configs += [(f"table-{lo}..{hi}", custom_table(lo, hi)) for lo, hi in
                ((-2, 1), (-20, 21), (-20, 22))]
    baker = "kind = baker\nm = 2"
    configs += [
        ("table-admissibility-grid",
         custom_table(-20, 22, experiments="[experiment admissibility]\ngrid_lo = -40")),
        ("table-covariance-ages",
         custom_table(-20, 22, "kind = shift\nlo = -3\nhi = 20",
                      "[experiment covariance]\nt_values = 3")),
        ("table-baker-positivity",
         custom_table(-2, 1, baker, "[experiment positivity]\nt_values = 1\nn_random = 2")),
        ("table-baker-lyapunov",
         custom_table(-20, 21, baker,
                      "[experiment positivity]\n\n[experiment lyapunov]\nmax_t = 2")),
    ]
    return [pytest.param(text, id=name) for name, text in configs]


@pytest.mark.parametrize("text", every_config())
def test_validate_is_a_run_that_writes_nothing(tmp_path, capsys, text):
    # validate exits 2 exactly when run records an error, printing run's error lines
    path = tmp_path / "config.cfg"
    path.write_text(text)
    errored = any(r["status"] == "error" for r in run_experiments(parse_config(text)).records)
    code = main(["validate", "--config", str(path)])
    validated = capsys.readouterr()
    main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    run_errors = [line for line in capsys.readouterr().out.splitlines() if ": error (" in line]
    assert (code, validated.out) == ((2, "") if errored else (0, "config OK\n"))
    assert validated.err.splitlines() == run_errors


class TestTruncationCap:
    """A spectrum truncation past the cap is refused before run allocates it.

    Only parsed: the oversized values are never run.
    """

    @pytest.mark.parametrize("section", ["classify", "kothe"])
    def test_cap_is_accepted(self, section):
        text = MINIMAL + f"\n[experiment {section}]\ntruncation = {config_module.TRUNCATION_CAP}\n"
        config = parse_config(text)
        assert config.experiments[-1].params["truncation"] == config_module.TRUNCATION_CAP

    @pytest.mark.parametrize("section", ["classify", "kothe"])
    def test_past_the_cap_is_a_line_numbered_error(self, section):
        text = MINIMAL + f"\n[experiment {section}]\ntruncation = 1000000001\n"
        line = text.splitlines().index("truncation = 1000000001") + 1
        assert errors_of(text) == ((line, "truncation must be at most 1000000"),)

    def test_validate_exits_two_with_the_line(self, tmp_path, capsys):
        text = MINIMAL + "\n[experiment classify]\ntruncation = 1000000000\n"
        path = tmp_path / "huge.cfg"
        path.write_text(text)
        assert main(["validate", "--config", str(path)]) == 2
        line = text.splitlines().index("truncation = 1000000000") + 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"line {line}: truncation must be at most 1000000\n"


def _readme_config_table():
    """Section title -> keys named in the README "Config format" table."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    body = readme.split("### Config format", 1)[1].split("\n### ", 1)[0]
    table = {}
    for row in body.splitlines():
        cells = [cell.strip() for cell in re.split(r"(?<!\\)\|", row)[1:-1]]
        if len(cells) != 2 or cells[0] in ("section", "---"):
            continue
        title = "" if cells[0] == "top level" else cells[0].strip("`")
        spans = re.findall(r"`([^`]*)`", cells[1])
        table[title] = {m.group() for m in (re.match(r"[a-z_]\w*", s) for s in spans) if m}
    return table


def test_readme_config_table_matches_schema():
    schema = {title: set(keys) for title, keys in config_module._SCHEMA.items()}
    assert _readme_config_table() == schema


def _readme_cli():
    """The subcommands and ``--flags`` named in the README's "The experiment runner" section."""
    readme = (ROOT / "README.md").read_text()
    body = readme.split("## The experiment runner", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"\btimeop (\w+)", body)), set(re.findall(r"--[a-z][\w-]*", body))


def test_readme_cli_matches_parser():
    subparsers = next(action for action in _build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    flags = {flag for parser in subparsers.choices.values() for action in parser._actions
             for flag in action.option_strings if flag.startswith("--") and flag != "--help"}
    assert _readme_cli() == (set(subparsers.choices), flags)
