"""End-to-end command-line tests over the bundled models."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import fmaf
from fmaf.casestudy import BUNDLE_NAMES, load_bundle
from fmaf.cli import main
from fmaf.dsl import serialize
from fmaf.model import VIEW_KINDS, FmafError
from fmaf.simulator import SimConfig, run
from fmaf.viewgen import project, to_dot

from _builders import coin_race_fixture


@pytest.fixture(scope="module")
def paths():
    return {name: str(load_bundle(name).model_file) for name in
            ("nominal", "fault1", "fault2", "fault3")}


WARNING_ONLY = """
sos Warned {
  cs A "A" { nominal GA }
  cs B "B" { nominal GB }
  connection Spare: A <-> B { kind recovery_only }
  process GA owner A { entry a exits [a] action a 1t }
  process GB owner B { entry b exits [b] action b 1t }
}
"""


def zero_time_chain(length: int) -> str:
    """A valid model whose graph is ``length`` zero-duration actions in a
    line; at 2000 its zero-time-cycle search overflows the stack."""
    lines = ["sos Deep {", '  cs A "Unit" { nominal Line }', "  process Line owner A {",
             "    entry a0", f"    exits [a{length - 1}]"]
    lines += [f"    action a{i}" for i in range(length)]
    lines += [f"    edge a{i} -> a{i + 1}" for i in range(length - 1)]
    return "\n".join(lines + ["  }", "}"]) + "\n"


class TestCheck:
    def test_clean_model_exits_zero(self, paths, capsys):
        assert main(["check", paths["nominal"]]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_violation_exits_one_and_names_rule(self, paths, capsys):
        assert main(["check", paths["fault3"]]) == 1
        out = capsys.readouterr().out
        assert "R2" in out and "F3.1" in out

    def test_json_format_mirrors_finding_fields(self, paths, capsys):
        assert main(["check", paths["fault3"], "--format", "json"]) == 1
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 1
        record = records[0]
        assert record["rule"] == "R2"
        assert record["severity"] == "violation"
        assert record["subject"] == "F3.1"
        assert set(record) == {"rule", "severity", "subject", "chain", "message"}

    def test_warnings_do_not_affect_exit_code(self, tmp_path, capsys):
        path = tmp_path / "warned.fmaf"
        path.write_text(WARNING_ONLY)
        assert main(["check", str(path)]) == 0
        assert "R8" in capsys.readouterr().out

    def test_missing_file_exits_three(self, capsys):
        assert main(["check", "no-such-model.fmaf"]) == 3
        assert "no-such-model.fmaf" in capsys.readouterr().err

    def test_parse_error_exits_three_with_diagnostics(self, tmp_path, capsys):
        path = tmp_path / "broken.fmaf"
        path.write_text("sos Broken {\n  cs X\n")
        assert main(["check", str(path)]) == 3
        assert capsys.readouterr().err.strip()

    def test_non_ascii_digit_exits_three_with_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "digit.fmaf"
        path.write_text(
            "sos X { cs A { nominal P } connection C: A <-> A { latency \u00b2t } }",
            encoding="utf-8",
        )
        assert main(["check", str(path)]) == 3
        assert "unexpected character '\u00b2'" in capsys.readouterr().err


class TestSimulate:
    def test_nominal_run(self, paths, capsys):
        assert main(["simulate", paths["nominal"]]) == 0
        out = capsys.readouterr().out
        assert "outcome: nominal" in out
        assert "TimeToArrive: 8" in out

    def test_recovered_run_names_detector_and_recovery(self, paths, capsys):
        assert main([
            "simulate", paths["fault2"], "--scenario", "F2.1",
            "--guard", "NextAction=transport",
        ]) == 0
        out = capsys.readouterr().out
        assert "outcome: recovered" in out
        assert "detected-by: ERU" in out
        assert "recovery: R2.1_ERU" in out
        assert "ReportBreakdown" in out

    def test_crashed_guard_creates_a_new_rescue_event(self, paths, capsys):
        assert main([
            "simulate", paths["fault2"], "--scenario", "F2.1",
            "--detectors", "CallCentre", "--guard", "cause=crashed",
            "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "recovery: R2.1a" in out
        assert "a new rescue event" in out

    def test_no_recovery_fails_at_boundary(self, paths, capsys):
        assert main([
            "simulate", paths["fault3"], "--scenario", "F3.2", "--no-recovery",
        ]) == 0
        out = capsys.readouterr().out
        assert "outcome: failed-at-boundary" in out
        assert "failure to attend the target casualty" in out

    def test_blocked_scenario_exits_one(self, paths, capsys):
        assert main(["simulate", paths["fault3"], "--scenario", "F3.1"]) == 1
        assert "R2" in capsys.readouterr().err

    def test_unknown_scenario_exits_two(self, paths, capsys):
        assert main(["simulate", paths["fault2"], "--scenario", "NOPE"]) == 2
        assert "NOPE" in capsys.readouterr().err

    def test_bad_horizon_exits_two(self, paths):
        assert main(["simulate", paths["nominal"], "--horizon", "0"]) == 2

    def test_bad_guard_syntax_exits_two(self, paths, capsys):
        assert main(["simulate", paths["fault2"], "--guard", "nonsense"]) == 2
        assert "--guard" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self, paths, capsys):
        assert main(["simulate", paths["nominal"], "--bogus"]) == 2
        capsys.readouterr()

    def test_trace_file_is_jsonl_with_summary(self, paths, tmp_path, capsys):
        out_path = tmp_path / "run.jsonl"
        assert main([
            "simulate", paths["fault1"], "--scenario", "F1",
            "--seed", "1", "--trace", str(out_path),
        ]) == 0
        capsys.readouterr()
        lines = out_path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert all("kind" in r for r in records[:-1])
        assert "summary" in records[-1]
        assert records[-1]["summary"]["outcome"] == "recovered"

    def test_activation_that_never_fires_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "coin.fmaf"
        path.write_text(serialize(coin_race_fixture()))
        assert main(["simulate", str(path), "--scenario", "CH", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("outcome: not-activated\n")
        assert "detected-by" not in out

    def test_unwritable_trace_file_exits_three(self, paths, tmp_path, capsys):
        target = str(tmp_path / "missing-dir" / "t.jsonl")
        assert main(["simulate", paths["nominal"], "--trace", target]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"fmaf: cannot write {target!r}: No such file or directory\n"


class TestExport:
    def test_tcv_to_file_is_deterministic(self, paths, tmp_path, capsys):
        a, b = tmp_path / "a.dot", tmp_path / "b.dot"
        for target in (a, b):
            assert main([
                "export", paths["fault3"], "--view", "tcv",
                "--focus", "F3.2", "--out", str(target),
            ]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        assert text.startswith("digraph")
        assert "SoS boundary" in text

    def test_unwritable_out_file_exits_three(self, paths, tmp_path, capsys):
        target = str(tmp_path / "missing-dir" / "v.dot")
        assert main(["export", paths["fault1"], "--view", "fts", "--out", target]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"fmaf: cannot write {target!r}: No such file or directory\n"

    def test_fav_stdout_has_two_detection_regions(self, paths, capsys):
        assert main([
            "export", paths["fault2"], "--view", "fav", "--focus", "F2.1",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count('class="detection-region"') == 2

    def test_fts_needs_no_focus(self, paths, capsys):
        assert main(["export", paths["nominal"], "--view", "fts"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_missing_focus_exits_two(self, paths, capsys):
        assert main(["export", paths["fault2"], "--view", "fav"]) == 2
        assert "focus" in capsys.readouterr().err

    def test_unknown_view_exits_two(self, paths, capsys):
        assert main(["export", paths["fault2"], "--view", "sideways"]) == 2
        capsys.readouterr()

    def test_erroneous_scenario_draws_a_default_run_of_the_focus_chain(self, paths, capsys):
        argv = ["export", paths["fault1"], "--view", "erroneous-scenario", "--focus", "F1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == 'digraph "erroneous-scenario" {'
        model = load_bundle("fault1").model
        trace = run(model, SimConfig(scenario="F1"))
        assert out == to_dot(project(model, "erroneous-scenario", trace=trace))

    @pytest.mark.parametrize("bundle,chain,code", [
        ("fault3", "F3.1", 1),  # blocked by the checker
        ("fault1", "NOPE", 2),  # no such chain
    ], ids=["blocked", "unknown-chain"])
    def test_erroneous_scenario_refuses_as_simulate_does(
        self, paths, capsys, bundle, chain, code
    ):
        assert main(["simulate", paths[bundle], "--scenario", chain]) == code
        refused = capsys.readouterr().err
        argv = ["export", paths[bundle], "--view", "erroneous-scenario", "--focus", chain]
        assert main(argv) == code
        assert capsys.readouterr() == ("", refused)

    def test_erroneous_scenario_without_focus_exits_two(self, paths, capsys):
        assert main(["export", paths["fault1"], "--view", "erroneous-scenario"]) == 2
        assert "--focus" in capsys.readouterr().err


class TestTopLevel:
    @pytest.mark.parametrize("argv", [
        ["check"],
        ["simulate", "--scenario", "F1"],
        ["export", "--view", "fts"],
    ], ids=["check", "simulate", "export"])
    def test_non_utf8_model_exits_three(self, argv, tmp_path, capsys):
        path = tmp_path / "latin1.fmaf"
        path.write_bytes(b"sos X { cs A \"caf\xe9\" { nominal P } }\n\xff")
        assert main([argv[0], str(path), *argv[1:]]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"fmaf: cannot read {str(path)!r}: not UTF-8 text (")
        assert "Traceback" not in err

    def test_model_that_cannot_load_exits_three_in_one_line(self, tmp_path, capsys):
        path = tmp_path / "deep.fmaf"
        path.write_text(zero_time_chain(2000))
        assert main(["check", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"fmaf: cannot load {str(path)!r}: RecursionError\n"

    @pytest.mark.parametrize("argv", [
        ["check"],
        ["simulate"],
        ["export", "--view", "fts"],
    ], ids=["check", "simulate", "export"])
    def test_any_non_fmaf_exception_while_loading_exits_three(
        self, argv, paths, monkeypatch, capsys
    ):
        def broken(path):
            raise MemoryError("no room")

        monkeypatch.setattr("fmaf.cli.parse_file", broken)
        assert main([argv[0], paths["nominal"], *argv[1:]]) == 3
        assert capsys.readouterr().err == (
            f"fmaf: cannot load {paths['nominal']!r}: MemoryError\n"
        )

    def test_fmaf_error_while_loading_exits_three(self, monkeypatch, capsys):
        def broken(path):
            raise FmafError("boom")

        monkeypatch.setattr("fmaf.cli.parse_file", broken)
        assert main(["check", "x.fmaf"]) == 3
        assert capsys.readouterr().err == "fmaf: cannot load 'x.fmaf': FmafError\n"

    def test_model_that_cannot_load_exits_three_in_a_subprocess(self, tmp_path):
        path = tmp_path / "deep.fmaf"
        path.write_text(zero_time_chain(2000))
        env = dict(os.environ, PYTHONPATH=str(Path(fmaf.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "fmaf.cli", "check", str(path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == f"fmaf: cannot load {str(path)!r}: RecursionError\n"

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "check" in capsys.readouterr().out


# Words that are often out of place wherever a mutant puts them.
_MISPLACED = ["0t", "[]", "on", "when", "}", "->", '"x"', "0.5"]


def _mutant(text: str, rng: random.Random) -> str:
    """``text`` with one line deleted or duplicated, or one word swapped for
    a misplaced word or another word of the same text."""
    lines = text.split("\n")
    i = rng.randrange(len(lines))
    op = rng.randrange(4)
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(i, lines[i])
    else:
        words = lines[i].split(" ")
        pool = _MISPLACED if op == 2 else sorted(set(text.split()))
        words[rng.randrange(len(words))] = rng.choice(pool)
        lines[i] = " ".join(words)
    return "\n".join(lines)


class TestFuzzedModels:
    """Every command on a mutated bundle returns a documented exit code."""

    @pytest.mark.parametrize("name", BUNDLE_NAMES)
    def test_every_command_returns_a_documented_exit_code(self, name, tmp_path, capsys):
        bundle = load_bundle(name)
        text = bundle.model_file.read_text(encoding="utf-8")
        chains = sorted(bundle.model.chains)
        focus = ["--focus", chains[0]] if chains else []
        rng = random.Random(name)
        path = tmp_path / "mutant.fmaf"
        loaded = 0
        for n in range(20):
            path.write_text(_mutant(text, rng), encoding="utf-8")
            model = str(path)
            code = main(["check", model])
            assert code in (0, 1, 2, 3), (name, n, "check")
            loads = code != 3
            loaded += loads
            runs = [["simulate", model]]
            if loads:
                for chain in chains:
                    runs.append(["simulate", model, "--scenario", chain])
                    runs.append(["simulate", model, "--scenario", chain, "--no-recovery"])
            for view in VIEW_KINDS if loads else ("fts",):
                runs.append(["export", model, "--view", view, *focus])
            for argv in runs:
                assert main(argv) in (0, 1, 2, 3), (name, n, argv)
            capsys.readouterr()
        assert loaded, "some mutant must load, or simulate and export go unexercised"
