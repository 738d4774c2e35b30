"""Command-line interface: exit codes, JSON outputs, schedules, round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gcq.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


def run_cli(*argv, capsys):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    @pytest.mark.parametrize("name,code", [
        ("sensors_all", 0),
        ("sensors_23", 0),
        ("sensors_typed", 0),
        ("sensors_any_all", 1),
        ("sensors_blocking", 1),
        ("linearity_race", 1),
    ])
    def test_golden_exit_codes(self, name, code, capsys):
        got, _, _ = run_cli("check", str(GOLDEN / f"{name}.gcq"), capsys=capsys)
        assert got == code

    # program -> exit codes of check, run-global, cosim and availability, as
    # scripts/run_golden.py prints them.  The check column is the README's
    # golden matrix; the other three record the toolchain's output when this
    # table was written, not a derived answer.
    VERDICTS = {
        "sensors_all": (0, 0, 0, 0),
        "sensors_23": (0, 0, 0, 0),
        "sensors_typed": (0, 0, 0, 0),
        "sensors_any_all": (1, 0, 1, 1),
        "sensors_blocking": (1, 0, 1, 1),
        "linearity_race": (1, 0, 1, 0),
    }
    LAX = {"sensors_any_all", "sensors_blocking"}

    @pytest.mark.parametrize("cmd,name,code", [
        (cmd, name, codes[i])
        for name, codes in VERDICTS.items()
        for i, cmd in enumerate(("check", "run-global", "cosim", "availability"))])
    def test_golden_verdict_table(self, cmd, name, code, capsys):
        flags = ["--lax-select"] if name in self.LAX else []
        got, _, _ = run_cli(cmd, str(GOLDEN / f"{name}.gcq"), *flags, capsys=capsys)
        assert got == code

    def test_lax_select_reaches_capability_analysis(self, capsys):
        code, out, _ = run_cli("check", str(GOLDEN / "sensors_any_all.gcq"),
                               "--lax-select", "--json", capsys=capsys)
        assert code == 1
        data = json.loads(out)
        assert not data["ok"]
        assert any(f["code"] == "CapabilityUnderivable"
                   for f in data["capabilities"]["failures"])

    def test_linearity_failure_reported(self, capsys):
        code, out, _ = run_cli("check", str(GOLDEN / "linearity_race.gcq"),
                               "--json", capsys=capsys)
        assert code == 1
        data = json.loads(out)
        assert data["capabilities"]["ok"] and data["session"]["ok"]
        assert not data["linearity"]["ok"]

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run_cli("check", "no_such_file.gcq", capsys=capsys)
        assert code == 2
        assert err.startswith("error: ")

    def test_capability_failure_listed_once(self, capsys):
        # every path of the preceding 'select any' reaches the same reduce
        _, out, _ = run_cli("check", str(GOLDEN / "sensors_any_all.gcq"),
                            "--lax-select", "--json", capsys=capsys)
        failures = json.loads(out)["capabilities"]["failures"]
        assert [(f["code"], f["interaction"]) for f in failures] == [
            ("CapabilityUnderivable", "reduce k[all] avg(t1,t2,t3)->t0")]

    @pytest.mark.parametrize("explain", [False, True])
    def test_internal_fault_is_not_a_usage_error(self, explain, monkeypatch, capsys):
        import gcq.cli

        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(gcq.cli, "cmd_check", broken)
        code, _, err = run_cli("check", str(GOLDEN / "sensors_all.gcq"),
                               *(["--explain"] if explain else []), capsys=capsys)
        assert code == 2
        assert err.startswith("internal error: RuntimeError: boom\n")
        assert ("Traceback (most recent call last)" in err) == explain

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help", capsys=capsys)[0] == 0


class TestRuns:
    def test_run_global_trace_deterministic(self, capsys):
        a = run_cli("run-global", str(GOLDEN / "sensors_23.gcq"), "--seed", "9", capsys=capsys)
        b = run_cli("run-global", str(GOLDEN / "sensors_23.gcq"), "--seed", "9", capsys=capsys)
        assert a == b
        assert a[0] == 0
        lines = [json.loads(l) for l in a[1].splitlines()]
        assert lines[-1]["verdict"] == "Completed"
        assert [l["kind"] for l in lines[:-1]] == ["init", "select", "reduce"]

    def test_run_global_independent_of_hash_seed(self):
        # labels carry frozensets, whose repr order follows the hash seed
        outs = set()
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "gcq.cli", "run-global", str(GOLDEN / "sensors_23.gcq"),
                 "--seed", "7"],
                capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": seed})
            assert proc.returncode == 0, proc.stderr
            outs.add(proc.stdout)
        assert len(outs) == 1

    def test_run_net_from_gcq(self, capsys):
        code, out, _ = run_cli("run-net", str(GOLDEN / "sensors_all.gcq"),
                               "--seed", "2", capsys=capsys)
        assert code == 0
        last = json.loads(out.splitlines()[-1])
        assert last["verdict"] == "Completed"
        kinds = [json.loads(l).get("kind") for l in out.splitlines()[:-1]]
        assert "start" in kinds and "select-out" in kinds and "reduce-in" in kinds

    def test_schedule_file_blocks_intolerant_run(self, tmp_path, capsys):
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps({"mode": "script",
                                     "steps": [{"unavailable": ["t2"]}]}))
        code, out, _ = run_cli("run-net", str(GOLDEN / "sensors_all.gcq"),
                               "--schedule", str(sched), "--bound", "80", capsys=capsys)
        assert code in (1, 3)  # all-quality select cannot complete without t2

    def test_bernoulli_schedule_parses(self, tmp_path, capsys):
        sched = tmp_path / "bern.json"
        sched.write_text(json.dumps({"mode": "bernoulli", "p": 1.0, "seed": 42}))
        code, _, _ = run_cli("run-net", str(GOLDEN / "sensors_23.gcq"),
                             "--schedule", str(sched), capsys=capsys)
        assert code == 0


class TestProjectRoundTrip:
    def test_project_then_run_net(self, tmp_path, capsys):
        code, _, _ = run_cli("project", str(GOLDEN / "sensors_typed.gcq"),
                             "-o", str(tmp_path), capsys=capsys)
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert {t["thread"] for t in manifest["threads"]} == {"t1", "t2", "t3"}
        assert manifest["services"] == [{"service": "temperature", "role": "M",
                                         "file": "service_temperature_M.epq",
                                         "merged_from": ["tm"]}]
        code, out, _ = run_cli("run-net", str(tmp_path / "manifest.json"),
                               "--seed", "4", capsys=capsys)
        assert code == 0
        assert json.loads(out.splitlines()[-1])["verdict"] == "Completed"


class TestConditionalPipeline:
    def test_conditional_program_full_pipeline(self, tmp_path, capsys):
        """A generated program with a conditional survives every stage."""
        from gcq.genchor import GenConfig, corpus
        from gcq.gtypes import infer_gamma
        from gcq.parser import pretty_print, print_gtype

        chor = next(c for c in corpus(40, seed=99,
                                      config=GenConfig(max_threads=3, max_interactions=5))
                    if "If(" in repr(c))
        gamma = infer_gamma(chor)
        decls = "".join(f"service {name} : {print_gtype(b.gtype)};\n"
                        for name, b in gamma.services.items())
        src = tmp_path / "cond.gcq"
        src.write_text(decls + pretty_print(chor))
        assert run_cli("check", str(src), capsys=capsys)[0] == 0
        out = tmp_path / "proj"
        assert run_cli("project", str(src), "-o", str(out), capsys=capsys)[0] == 0
        assert run_cli("run-net", str(out / "manifest.json"), "--seed", "1",
                       capsys=capsys)[0] == 0
        assert run_cli("cosim", str(src), capsys=capsys)[0] == 0


class TestCosimAvailability:
    def test_cosim_pass_with_xml(self, tmp_path, capsys):
        xml = tmp_path / "report.xml"
        code, out, _ = run_cli("cosim", str(GOLDEN / "sensors_all.gcq"),
                               "--xml", str(xml), capsys=capsys)
        assert code == 0
        assert json.loads(out)["status"] == "Pass"
        assert 'failures="0"' in xml.read_text()

    def test_cosim_rejects_ill_typed_input(self, capsys):
        code, out, _ = run_cli("cosim", str(GOLDEN / "sensors_any_all.gcq"),
                               "--lax-select", capsys=capsys)
        assert code == 1
        assert json.loads(out)["status"] == "PreconditionFailed"

    def test_availability_pass(self, capsys):
        code, out, _ = run_cli("availability", str(GOLDEN / "sensors_23.gcq"), capsys=capsys)
        assert code == 0
        assert json.loads(out)["status"] == "Pass"

    def test_availability_stuck_on_blocking_variant(self, capsys):
        code, out, _ = run_cli("availability", str(GOLDEN / "sensors_blocking.gcq"),
                               "--lax-select", capsys=capsys)
        assert code == 1
        assert json.loads(out) == {
            "status": "StuckNetworkFound", "pairs_explored": 16,
            "detail": "stuck non-quiescent network at depth 5 under AlwaysAvailable()"}

    def test_availability_budget_is_inconclusive(self, capsys):
        # the same stuck network lies past the bound: no Pass, exit 3
        code, out, _ = run_cli("availability", str(GOLDEN / "sensors_blocking.gcq"),
                               "--lax-select", "--bound", "2", capsys=capsys)
        assert code == 3
        data = json.loads(out)
        assert data["status"] == "BudgetExceeded"
        assert data["detail"] == "exploration stopped at depth 2 under AlwaysAvailable()"


class TestInstalledEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gcq.cli", "check", str(GOLDEN / "sensors_all.gcq")],
            capture_output=True, text=True)
        assert proc.returncode == 0
