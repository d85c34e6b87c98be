import dataclasses
import json
import math
import os

from pathlib import Path

import pytest

from timeop import runner
from timeop.cli import main
from timeop.config import DEMO_CONFIG, parse_config
from timeop.runner import emit_report, run_experiments

ROOT = Path(__file__).resolve().parent.parent

LOGISTIC_CONFIG = """
seed = 3

[system]
kind = shift
lo = -4
hi = 4

[profile]
family = logistic

[experiment admissibility]
"""

SHIFT_CONFIG = """
[system]
kind = shift
lo = -6
hi = 6

[profile]
family = gumbel
a = {a}
"""

EMPTY_CONFIG = """
[system]
kind = shift
lo = -3
hi = 3

[profile]
family = gumbel
"""


class TestBundle:
    def test_demo_bundle_passes_gates(self):
        bundle = run_experiments(parse_config(DEMO_CONFIG))
        statuses = {r["name"]: r["status"] for r in bundle.records}
        assert statuses["covariance"] == "pass"
        assert statuses["admissibility"] == "pass"
        assert statuses["lyapunov"] == "pass"
        assert statuses["positivity"] == "recorded"
        assert statuses["theorem"] == "pass"
        assert bundle.all_gated_passed

    def test_covariance_record_is_exact(self):
        bundle = run_experiments(parse_config(DEMO_CONFIG))
        record = next(r for r in bundle.records if r["name"] == "covariance")
        assert record["details"]["time_covariance_deviation"] == 0.0
        assert record["details"]["projector_transport_deviation"] == 0.0

    def test_every_experiment_appears_exactly_once(self):
        config = parse_config(DEMO_CONFIG)
        bundle = run_experiments(config)
        assert [r["name"] for r in bundle.records] == [e.name for e in config.experiments]
        assert bundle.summary["experiments"] == len(config.experiments)

    def test_failing_admissibility_marks_the_bundle(self):
        bundle = run_experiments(parse_config(LOGISTIC_CONFIG))
        record = next(r for r in bundle.records if r["name"] == "admissibility")
        assert record["status"] == "fail"
        assert record["details"]["witnesses"]["ratio"]
        assert not bundle.all_gated_passed

    def test_module_errors_are_captured_per_experiment(self):
        # a horizon too wide for the window leaves no symmetric band;
        # parse_config refuses it, so it is set past the parser
        config = parse_config(EMPTY_CONFIG + "\n[experiment lyapunov]\nmax_t = 3\n")
        (request,) = config.experiments
        wide = dataclasses.replace(request, params={**request.params, "max_t": 5})
        bundle = run_experiments(dataclasses.replace(config, experiments=(wide,)))
        record = bundle.records[0]
        assert record["status"] == "error"
        assert record["error"] == ("ValueError: no labels inside the symmetric margin band "
                                   "for max_t=5")
        assert not bundle.all_gated_passed

    def test_empty_experiment_list(self):
        bundle = run_experiments(parse_config(EMPTY_CONFIG))
        assert bundle.records == ()
        assert bundle.all_gated_passed

    def test_positivity_sweep_records_minima(self):
        bundle = run_experiments(parse_config(DEMO_CONFIG))
        record = next(r for r in bundle.records if r["name"] == "positivity")
        sweep = record["details"]["sweep"]
        # one canonical and one extreme row per (a, t), in sweep order
        assert [(e["a"], e["t"], e["density"]) for e in sweep] == [
            (a, t, density) for a in (0.5, 1.0, 2.0) for t in (1, 2)
            for density in ("1+chi({0})", "extreme")]
        extreme = [e for e in sweep if e["density"] == "extreme"]
        for entry in extreme:
            # gumbel on baker m = 2: 1 - lambda(t - 2)/lambda(-2)
            a, t = entry["a"], entry["t"]
            closed = 1.0 - math.exp(math.exp(-2 * a) - math.exp(a * (t - 2)))
            assert abs(entry["closed_form"] - closed) <= 1e-15
            assert abs(entry["min_cell"] - closed) <= 1e-12
            assert entry["witness"] == "cell 0 of 8"  # 2**(2m + 1 - t_max) cells
        least = min(e["min_cell"] for e in extreme)
        assert record["details"]["worst_min_cell"] == least == min(e["min_cell"] for e in sweep)
        assert record["details"]["worst_closed_form_deviation"] <= 1e-12
        assert record["status"] == "recorded"
        gated = DEMO_CONFIG.replace("gate = false", "gate = true")
        record = next(r for r in run_experiments(parse_config(gated)).records
                      if r["name"] == "positivity")
        assert record["gated"] and record["status"] == "pass"

    def test_shallow_profile_runs_decay_experiments(self):
        text = SHIFT_CONFIG.format(a=0.5) + (
            "\n[experiment lyapunov]\nmax_t = 4\nn_random = 5\n"
            "\n[experiment tower]\ntower_type = B\ncutoff = 5\n"
        )
        bundle = run_experiments(parse_config(text))
        assert [r["status"] for r in bundle.records] == ["pass", "pass"]

    @pytest.mark.parametrize("a", [0.01, 0.02])
    def test_shallow_gumbel_runs_the_demo_config(self, a):
        # every gumbel steepness is admissible, although lambda(-20) =
        # exp(-exp(-20 a)) is below 1 - 1e-6: the admissibility record
        # is the family's closed-form verdict, not a sample of [-20, 20]
        text = (ROOT / "demos" / "experiment.cfg").read_text().replace("a = 1.0", f"a = {a}")
        bundle = run_experiments(parse_config(text))
        assert [r["status"] for r in bundle.records] == ["pass"] * len(bundle.records)
        record = next(r for r in bundle.records if r["name"] == "admissibility")
        assert record["gated"] and record["details"]["grid"] == (-20, 20)
        assert record["details"]["witnesses"] == {}
        assert bundle.all_gated_passed

    @pytest.mark.parametrize("hi", [8, 10])
    def test_wide_window_runs_the_demo_config(self, hi):
        # the web's v and x weights pass the float range on these windows;
        # the theorem compares them as log weights and passes
        text = (ROOT / "demos" / "experiment.cfg").read_text()
        text = text.replace("lo = -6\nhi = 6", f"lo = -{hi}\nhi = {hi}")
        config = parse_config(text)
        assert (config.system["lo"], config.system["hi"]) == (-hi, hi)
        bundle = run_experiments(config)
        assert [r["status"] for r in bundle.records] == ["pass"] * len(bundle.records)
        assert bundle.all_gated_passed

    def test_kothe_power_spectrum_with_a_convergent_series_passes(self):
        text = SHIFT_CONFIG.format(a=1.0) + (
            "\n[experiment kothe]\nspectrum = power 1.79\nn1 = 1/4\nn2 = 3/4\n"
        )
        record = run_experiments(parse_config(text)).records[0]
        assert record["details"]["sum_converges"]
        assert not record["details"]["criterion_met"]
        assert record["status"] == "pass"

    def test_kothe_geometric_sum_where_q_to_the_exponent_rounds_to_one(self):
        # q = 1 - 2**-52: q**(1/6) rounds to 1.0, so r / (1 - r) would
        # divide by zero, while the sum is about 6 * 2**52
        text = SHIFT_CONFIG.format(a=1.0) + (
            "\n[experiment kothe]\nspectrum = geometric 0.9999999999999998\nn1 = 0\nn2 = 1/12\n"
        )
        record = run_experiments(parse_config(text)).records[0]
        assert record["status"] == "pass"
        total = record["details"]["closed_form_sum"]
        assert math.isfinite(total)
        assert total == pytest.approx(6 * 2.0**52, rel=1e-6)

    def test_kothe_criterion_without_convergence_fails(self, monkeypatch):
        import timeop.runner as runner

        honest = runner.kothe_nuclearity
        monkeypatch.setattr(runner, "kothe_nuclearity",
                            lambda *a: {**honest(*a), "sum_converges": False})
        text = SHIFT_CONFIG.format(a=1.0) + (
            "\n[experiment kothe]\nspectrum = geometric 0.5\nn1 = 0\nn2 = 1/2\n"
        )
        record = run_experiments(parse_config(text)).records[0]
        assert record["details"]["criterion_met"]
        assert record["status"] == "fail"

    def test_classify_tail_bracket_out_of_order_fails(self, monkeypatch):
        import timeop.runner as runner

        honest = runner.classify_spectrum

        def swapped(spectrum):
            record = honest(spectrum)
            entry = record["evidence"][-1]
            entry["tail_lo"], entry["tail_hi"] = entry["tail_hi"] + 1.0, entry["tail_lo"]
            return record

        monkeypatch.setattr(runner, "classify_spectrum", swapped)
        text = SHIFT_CONFIG.format(a=1.0) + (
            "\n[experiment classify]\nspectrum = power 0.5\ntruncation = 1000\n"
        )
        record = run_experiments(parse_config(text)).records[0]
        entry = record["details"]["evidence"][-1]
        assert entry["converges"] and entry["tail_lo"] > entry["tail_hi"]
        assert record["status"] == "fail"


class TestEmission:
    def test_determinism_byte_identical(self, tmp_path):
        config = parse_config(DEMO_CONFIG)
        emit_report(run_experiments(config), tmp_path / "a")
        emit_report(run_experiments(config), tmp_path / "b")
        assert (tmp_path / "a/report.json").read_bytes() == (tmp_path / "b/report.json").read_bytes()
        assert (tmp_path / "a/manifest.json").read_bytes() == (tmp_path / "b/manifest.json").read_bytes()

    def test_csv_headers(self, tmp_path):
        bundle = run_experiments(parse_config(DEMO_CONFIG))
        emit_report(bundle, tmp_path)
        lyapunov = (tmp_path / "lyapunov.csv").read_text().splitlines()
        assert lyapunov[0].startswith("t,norm,lyapunov_form")
        sweep = (tmp_path / "positivity_sweep.csv").read_text().splitlines()
        assert sweep[0] == "a,t,density,min_cell"

    def test_manifest_carries_config_echo_and_versions(self, tmp_path):
        bundle = run_experiments(parse_config(DEMO_CONFIG))
        emit_report(bundle, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["system"] == {"kind": "baker", "m": 2}
        assert set(manifest["versions"]) == {"timeop", "numpy", "python"}
        assert manifest["seed"] == 20240808

    @pytest.mark.parametrize("system,system_echo", [
        ("kind = shift\nlo = -3\nhi = 4", '{"hi": 4, "kind": "shift", "lo": -3}'),
        ("kind = baker\nm = 2", '{"kind": "baker", "m": 2}'),
    ])
    @pytest.mark.parametrize("profile,profile_echo", [
        ("family = gumbel\na = 0.75", '{"a": 0.75, "family": "gumbel"}'),
        ("family = logistic", '{"family": "logistic"}'),
        ("family = custom\npoints = 1:0.1 -1:0.9 0:0.5",
         '{"family": "custom", "points": [[1, 0.1], [-1, 0.9], [0, 0.5]]}'),
    ])
    def test_manifest_echoes_the_selected_variant(self, system, system_echo, profile,
                                                  profile_echo):
        # each section echoes its selector and the keys of that variant
        # only, with custom points in the order they were given
        config = parse_config(f"seed = 5\n[system]\n{system}\n[profile]\n{profile}\n")
        echo = run_experiments(config).manifest["config"]
        assert json.dumps(echo, sort_keys=True) == (
            f'{{"experiments": [], "output_dir": "out", "profile": {profile_echo}, '
            f'"seed": 5, "system": {system_echo}}}')

    def test_non_finite_values_are_written_as_null(self, tmp_path):
        # a tabulated profile that reaches 0 leaves NaN ratio witnesses
        points = " ".join(f"{s}:{min(1.0, max(0.0, 0.5 - s / 20)):g}" for s in range(-20, 23))
        text = EMPTY_CONFIG.replace("family = gumbel", f"family = custom\npoints = {points}")
        bundle = run_experiments(parse_config(text + "\n[experiment admissibility]\n"))
        ratio = bundle.records[0]["details"]["witnesses"]["ratio"]
        assert any(math.isnan(w[2]) for w in ratio)
        emit_report(bundle, tmp_path)

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        for name in ("report.json", "manifest.json"):
            json.loads((tmp_path / name).read_text(), parse_constant=reject)
        report = json.loads((tmp_path / "report.json").read_text())
        written = report["experiments"][0]["details"]["witnesses"]["ratio"]
        assert [w[2] for w in written] == [None if math.isnan(w[2]) else w[2] for w in ratio]

    @pytest.mark.parametrize("experiment", ["tower", "lyapunov"])
    def test_rerun_writes_the_bytes_of_a_fresh_emission(self, tmp_path, experiment):
        # the shift bundle shrinks report.json and the demo's lyapunov.csv, and
        # produces no positivity_sweep.csv (nor, tower-only, lyapunov.csv)
        demo = run_experiments(parse_config(DEMO_CONFIG))
        shift = run_experiments(parse_config(f"{EMPTY_CONFIG}\n[experiment {experiment}]\n"))
        used = tmp_path / "used"
        for i, bundle in enumerate((demo, shift, demo)):
            written = emit_report(bundle, used)
            fresh = emit_report(bundle, tmp_path / f"fresh{i}")
            assert [p.name for p in written] == [p.name for p in fresh]
            assert sorted(used.iterdir()) == sorted(written)
            for path, fresh_path in zip(written, fresh):
                assert path.read_bytes() == fresh_path.read_bytes(), path.name

    def test_files_are_overwritten_without_truncation(self, tmp_path, monkeypatch):
        # opening an existing report with O_TRUNC makes each rewrite slower
        bundle = run_experiments(parse_config(DEMO_CONFIG))
        emit_report(bundle, tmp_path)
        opened = []
        real_open = os.open

        def recording_open(path, flags, *args, **kwargs):
            opened.append((Path(path), flags))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(runner.os, "open", recording_open)
        written = emit_report(bundle, tmp_path)
        monkeypatch.undo()
        assert sorted(path for path, _ in opened) == sorted(written)
        assert all(flags & os.O_CREAT and not flags & os.O_TRUNC for _, flags in opened)


class TestCli:
    def test_demo_exits_zero(self, tmp_path, capsys):
        assert main(["demo", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "covariance: pass" in out
        assert (tmp_path / "report.json").exists()

    def test_validate_good_config(self, tmp_path, capsys):
        path = tmp_path / "demo.cfg"
        path.write_text(DEMO_CONFIG)
        assert main(["validate", "--config", str(path)]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_validate_subnormal_band_norm_exits_zero(self, tmp_path, capsys):
        # the band indicator's norm at t = 14, about 3.5e-315, is exact
        # only to its own spacing, about 1.4e-9 of it
        path = tmp_path / "subnormal.cfg"
        path.write_text("[system]\nkind = shift\nlo = -10\nhi = 35\n\n"
                        "[profile]\nfamily = gumbel\na = 0.3\n\n[experiment lyapunov]\nmax_t = 18\n")
        assert main(["validate", "--config", str(path)]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_validate_bad_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[system]\nkind = baker\nm = 12\n")
        assert main(["validate", "--config", str(path)]) == 2
        assert "desk-scale" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_missing_config_file_exits_two(self, tmp_path, capsys, command):
        missing = tmp_path / "missing.cfg"
        assert main([command, "--config", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(missing) in err

    def test_gated_failure_exits_one(self, tmp_path):
        path = tmp_path / "logistic.cfg"
        path.write_text(LOGISTIC_CONFIG)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1

    def test_config_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        path = tmp_path / "utf16.cfg"
        path.write_bytes(b"\xff\xfe" + DEMO_CONFIG.encode("utf-16-le"))
        assert main(["validate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"cannot read config {path}: 'utf-8' codec can't decode byte "
                                "0xff in position 0: invalid start byte\n")

    def test_unwritable_output_directory_exits_two(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "out"
        assert main(["demo", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cannot write output directory {out}: Not a directory\n"

    def test_report_path_that_is_a_directory_exits_two(self, tmp_path, capsys):
        (tmp_path / "report.json").mkdir()
        assert main(["demo", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cannot write output directory {tmp_path}: Is a directory\n"
