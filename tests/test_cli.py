"""Command-line interface: exit codes, JSON outputs, schedules, round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chorfixtures import disjoint_bcasts
from gcq.cli import main
from gcq.parser import parse
from gcq.schedule import SingleFailure, load_schedule
from gcq.syntax import Bcast, Init, Reduce, Select, eval_quality, interactions_of

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

    def test_participant_listed_twice_rejected(self, tmp_path, capsys):
        path = tmp_path / "twice.gcq"
        path.write_text(TWICE, encoding="utf-8")
        code, out, _ = run_cli("check", str(path), "--json", capsys=capsys)
        assert code == 1
        data = json.loads(out)
        assert data["session"]["ok"] and data["linearity"]["ok"]
        assert data["capabilities"]["failures"] == [{
            "code": "DuplicateParticipant",
            "interaction": "select k[all] t0->(t1,t1,t2):measure",
            "reason": "listed twice: thread t1, role S1"}]

    @pytest.mark.parametrize("command", ["availability", "run-net", "project"])
    def test_participant_listed_twice_unprojectable(self, command, tmp_path, capsys):
        path = tmp_path / "twice.gcq"
        path.write_text(TWICE, encoding="utf-8")
        code, out, err = run_cli(command, str(path), "--json", capsys=capsys)
        reason = ("select k[all] t0->(t1,t1,t2):measure lists a participant twice: "
                  "thread t1, role S1")
        if command == "availability":
            assert code == 1
            assert json.loads(out) == {"status": "PreconditionFailed", "pairs_explored": 0,
                                       "detail": f"projection undefined: {reason}"}
        else:  # fails at projection, as other undefined projections do
            assert (code, out, err) == (2, "", f"error: {reason}\n")

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

    def test_parser_built_once_per_process(self, monkeypatch, capsys):
        import argparse
        import gcq.cli

        gcq.cli.build_parser()
        added = []
        monkeypatch.setattr(argparse.ArgumentParser, "add_argument",
                            lambda *args, **kwargs: added.append(args))
        for _ in range(2):
            assert run_cli("check", str(GOLDEN / "sensors_all.gcq"), capsys=capsys)[0] == 0
        assert added == []

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help", capsys=capsys)[0] == 0

    @pytest.mark.parametrize("command,flag", [
        ("check", "--seed"), ("check", "--bound"), ("check", "--schedule"),
        ("project", "--seed"), ("project", "--bound"), ("project", "--schedule"),
        ("cosim", "--seed"), ("cosim", "--schedule"), ("availability", "--seed"),
    ])
    def test_flag_the_command_does_not_read_is_a_usage_error(self, command, flag, capsys):
        code, out, err = run_cli(command, str(GOLDEN / "sensors_all.gcq"), flag, "1",
                                 capsys=capsys)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {flag} 1" in err

    @pytest.mark.parametrize("command", ["run-global", "run-net", "cosim", "availability"])
    def test_negative_bound_is_a_usage_error(self, command, capsys):
        code, out, err = run_cli(command, str(GOLDEN / "sensors_all.gcq"), "--bound", "-3",
                                 capsys=capsys)
        assert (code, out) == (2, "")
        assert "argument --bound: must not be negative, got -3" in err

    @pytest.mark.parametrize("command,last", [
        ("run-global", {"verdict": "Budget"}),
        ("run-net", {"quiescent": False, "verdict": "Budget"}),
        ("cosim", {"status": "BudgetExceeded", "pairs_explored": 1,
                   "detail": "exploration stopped at depth 0"}),
        ("availability", {"status": "BudgetExceeded", "pairs_explored": 4,
                          "detail": "exploration stopped at depth 0 under AlwaysAvailable()"}),
    ])
    def test_zero_bound_takes_no_step(self, command, last, capsys):
        code, out, _ = run_cli(command, str(GOLDEN / "sensors_all.gcq"), "--bound", "0",
                               capsys=capsys)
        assert (code, json.loads(out.splitlines()[-1])) == (3, last)


class TestRuns:
    def test_run_global_trace_deterministic(self, capsys):
        a = run_cli("run-global", str(GOLDEN / "sensors_23.gcq"), "--seed", "9", capsys=capsys)
        b = run_cli("run-global", str(GOLDEN / "sensors_23.gcq"), "--seed", "9", capsys=capsys)
        assert a == b
        assert a[0] == 0
        lines = [json.loads(l) for l in a[1].splitlines()]
        assert lines[-1]["verdict"] == "Completed"
        assert [l["kind"] for l in lines[:-1]] == ["init", "select", "reduce"]

    def test_output_independent_of_hash_seed(self, tmp_path):
        residue = tmp_path / "residue.gcq"
        residue.write_text(disjoint_bcasts(3, [0]))
        for command, code, expected in [
                # labels carry frozensets, whose repr order follows the hash seed
                (["run-global", str(GOLDEN / "sensors_23.gcq"), "--seed", "7"], 0,
                 '{"verdict": "Completed"}'),
                # the protocol left unfinished keeps its source order
                (["check", "--json", str(residue)], 1,
                 "unfinished sessions: k: bcast C->(D)<int>.bcast E->(F)<int>.end")]:
            outs = set()
            for seed in ("0", "1", "2", "3"):
                proc = subprocess.run(
                    [sys.executable, "-m", "gcq.cli", *command],
                    capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": seed})
                assert proc.returncode == code, proc.stderr
                outs.add(proc.stdout)
            assert len(outs) == 1, command
            assert expected in outs.pop()

    def test_run_net_from_gcq(self, capsys):
        code, out, _ = run_cli("run-net", str(GOLDEN / "sensors_all.gcq"),
                               "--seed", "2", capsys=capsys)
        assert code == 0
        last = json.loads(out.splitlines()[-1])
        assert last["verdict"] == "Completed"
        kinds = [json.loads(l).get("kind") for l in out.splitlines()[:-1]]
        assert "start" in kinds and "select-out" in kinds and "reduce-in" in kinds

    def test_second_start_renames_its_service_thread(self, tmp_path, capsys):
        # the key m is still fresh, but s is taken by the first session
        prog = tmp_path / "restart.gcq"
        prog.write_text("choreography {\n"
                        "  start k (a) (t[A]) -> (s[B]);\n"
                        "  bcast k [all] t[A].1 -> (s[B]: x);\n"
                        "  start m (a) (t[A]) -> (s[B]);\n"
                        "  bcast m [all] t[A].2 -> (s[B]: y);\n"
                        "  end\n}\n")
        code, out, _ = run_cli("run-global", str(prog), "--json", capsys=capsys)
        assert code == 0
        lines = [json.loads(l) for l in out.splitlines()]
        assert [(l["kind"], l["session"]) for l in lines[:-1]] == [
            ("init", "k"), ("bcast", "k"), ("init", "m"), ("bcast", "m")]
        assert lines[2]["services"] == lines[3]["chosen"] == ["s1"]
        assert lines[-1] == {"verdict": "Completed"}

    def test_schedule_file_blocks_intolerant_run(self, tmp_path, capsys):
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps({"mode": "script",
                                     "steps": [{"unavailable": ["t2"]}]}))
        code, out, _ = run_cli("run-net", str(GOLDEN / "sensors_all.gcq"),
                               "--schedule", str(sched), "--bound", "80", capsys=capsys)
        assert code in (1, 3)  # all-quality select cannot complete without t2

    def test_script_step_withholds_each_listed_thread(self, tmp_path, capsys):
        """The list ``["t1"]`` names thread t1, which the `all` protocol needs."""
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps({"mode": "script", "steps": [{"unavailable": ["t1"]}]}))
        code, out, _ = run_cli("availability", str(GOLDEN / "sensors_all.gcq"),
                               "--schedule", str(sched), capsys=capsys)
        data = json.loads(out)
        assert (code, data["status"]) == (1, "StuckNetworkFound")
        assert data["detail"].startswith("stuck non-quiescent network at depth 4 ")

    def test_bernoulli_schedule_parses(self, tmp_path, capsys):
        sched = tmp_path / "bern.json"
        sched.write_text(json.dumps({"mode": "bernoulli", "p": 1.0, "seed": 42}))
        code, _, _ = run_cli("run-net", str(GOLDEN / "sensors_23.gcq"),
                             "--schedule", str(sched), capsys=capsys)
        assert code == 0

    @pytest.mark.parametrize("schedule", [
        [1, 2], {"mode": "script", "steps": [1]}, {"mode": "bernoulli"},
        {"mode": "script", "steps": 5}, {"mode": "bernoulli", "p": [1]},
        {"mode": "script", "steps": [{"available": 5}]},
        {"mode": "script", "steps": [{"unavailable": "t1"}]},
        {"mode": "crash", "thread": ["t1"]}, {"mode": "bernoulli", "p": True},
        {"mode": "bernoulli", "p": 7}, {"mode": "bernoulli", "p": 0.5, "seed": [1]},
        {"mode": "crash", "thread": "t1", "from_step": "5"},
        {"mode": "script", "steps": [{"available": ["t1"], "unavailable": ["t2"]}]},
        {"mode": "crash", "thread": "t1", "from_step": -3},
        # a thread the program lacks, and t0, the monitor: a service thread
        # is anonymous once projected, so no oracle ever sees it
        {"mode": "crash", "thread": "t9"}, {"mode": "crash", "thread": "t0"},
        {"mode": "script", "steps": [{"unavailable": ["t1"]}, {"available": ["zz"]}]},
    ], ids=["not-an-object", "script-step-not-an-object", "bernoulli-without-p",
            "steps-not-a-list", "p-a-list", "threads-a-number", "threads-a-string",
            "crash-thread-a-list", "p-true", "p-above-one", "seed-a-list", "from-step-a-string",
            "step-both-lists", "from-step-negative", "crash-unknown-thread",
            "crash-service-thread", "script-unknown-thread"])
    def test_malformed_schedule_is_an_input_error(self, schedule, tmp_path, capsys):
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps(schedule))
        code, _, err = run_cli("availability", str(GOLDEN / "sensors_all.gcq"),
                               "--schedule", str(sched), capsys=capsys)
        assert code == 2 and err.startswith("error:"), err


def crash_boundary(program: Path, thread: str) -> int:
    """The first crash step of ``thread`` from which the projection of
    ``program`` still completes, derived from the program, not a search.

    In the projected network a session start is one step, and a select,
    broadcast or reduce over n peers is n + 2 steps: the principal
    enqueues, each peer synchronizes (in any order, so the thread's turn may
    come last), and the principal dequeues once the quality holds.  A crash
    strands the protocol if it comes no later than the last peer step of an
    interaction whose quality cannot do without the thread.
    """
    step = boundary = 0
    for eta in interactions_of(parse(program.read_text(encoding="utf-8")).chor):
        match eta:
            case Init():
                step += 1
                continue
            case Select(receivers=peers):
                peers = [p.thread for p in peers]
            case Bcast(receivers=pairs) | Reduce(senders=pairs):
                peers = [p.thread for p, _ in pairs]
        if thread in peers and not eval_quality(eta.quality, [t != thread for t in peers]):
            boundary = step + len(peers) + 1
        step += len(peers) + 2
    return boundary


class TestCrashSchedule:
    def test_loader_builds_crash_stop_oracle(self):
        assert load_schedule({"mode": "crash", "thread": "t1", "from_step": 5}) == \
            SingleFailure("t1", 5)
        assert load_schedule('{"mode": "crash", "thread": "t2"}') == SingleFailure("t2", 0)

    def test_missing_thread_is_usage_error(self, tmp_path, capsys):
        sched = tmp_path / "crash.json"
        sched.write_text(json.dumps({"mode": "crash", "from_step": 5}))
        code, _, err = run_cli("availability", str(GOLDEN / "sensors_23.gcq"),
                               "--schedule", str(sched), capsys=capsys)
        assert code == 2 and "thread" in err

    def test_schedule_replaces_the_default_oracles(self, tmp_path, capsys):
        """``sensors_any_all`` is stuck without failures too; under
        ``--schedule`` the verdict is the schedule's own."""
        sched = tmp_path / "crash.json"
        sched.write_text(json.dumps({"mode": "crash", "thread": "t1", "from_step": 5}))
        code, out, _ = run_cli("availability", str(GOLDEN / "sensors_any_all.gcq"),
                               "--lax-select", "--schedule", str(sched), capsys=capsys)
        data = json.loads(out)
        assert (code, data["status"]) == (1, "StuckNetworkFound")
        assert data["detail"].endswith(" under SingleFailure(thread='t1', from_step=5)")

    # the tolerance claim of sensors_23.gcq: losing one sensor after the
    # selection is survivable, while the `all` protocol needs every sensor
    # until its reduce is done
    @pytest.mark.parametrize("name", ["sensors_all", "sensors_23"])
    @pytest.mark.parametrize("thread", ["t1", "t2", "t3"])
    def test_tolerance_table(self, name, thread, tmp_path, capsys):
        boundary = crash_boundary(GOLDEN / f"{name}.gcq", thread)
        assert 0 < boundary < 12
        sched = tmp_path / "crash.json"
        for step in range(12):
            sched.write_text(json.dumps({"mode": "crash", "thread": thread, "from_step": step}))
            code, out, _ = run_cli("availability", str(GOLDEN / f"{name}.gcq"),
                                   "--schedule", str(sched), capsys=capsys)
            stuck = step < boundary
            assert (code, json.loads(out)["status"]) == \
                ((1, "StuckNetworkFound") if stuck else (0, "Pass")), (name, thread, step)


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

    def test_syntax_error_names_the_process_file(self, tmp_path, capsys):
        assert run_cli("project", str(GOLDEN / "sensors_all.gcq"), "-o", str(tmp_path),
                       capsys=capsys)[0] == 0
        proc = tmp_path / "service_temperature_M.epq"
        text = proc.read_text().replace(": measure", " measure")
        proc.write_text(text)
        code, _, err = run_cli("run-net", str(tmp_path / "manifest.json"), capsys=capsys)
        assert code == 1
        lo = text.index("measure")
        assert err.strip() == (f"{proc}:{lo}-{lo + len('measure')}: "
                               "syntax error: expected ':', found 'measure'")

    def test_unknown_aggregation_operator_names_the_process_file(self, tmp_path, capsys):
        assert run_cli("project", str(GOLDEN / "sensors_all.gcq"), "-o", str(tmp_path),
                       capsys=capsys)[0] == 0
        proc = tmp_path / "service_temperature_M.epq"
        text = proc.read_text().replace(", avg)", ", foo)")
        proc.write_text(text)
        code, _, err = run_cli("run-net", str(tmp_path / "manifest.json"), capsys=capsys)
        assert code == 1
        lo = text.index("foo")
        assert err.strip() == (f"{proc}:{lo}-{lo + 3}: "
                               "syntax error: unknown aggregation operator 'foo'")


class TestConditionalPipeline:
    def test_conditional_program_full_pipeline(self, tmp_path, capsys):
        """A generated program with a conditional survives every stage."""
        from gcq.genchor import GenConfig, corpus
        from gcq.gtypes import infer_gamma
        from gcq.parser import pretty_print

        chor = next(c for c in corpus(40, seed=99,
                                      config=GenConfig(max_threads=3, max_interactions=5))
                    if "If(" in repr(c))
        gamma = infer_gamma(chor)
        decls = "".join(f"service {name} : {b.gtype};\n"
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

    @pytest.mark.parametrize("bound,code,status", [
        ("2", 3, "BudgetExceeded"), ("3", 0, "Pass")])
    def test_cosim_bound_is_inconclusive(self, bound, code, status, capsys):
        # sensors_all's last pair lies at depth 3: a bound of 2 cuts there
        got, out, _ = run_cli("cosim", str(GOLDEN / "sensors_all.gcq"), "--bound", bound,
                              capsys=capsys)
        data = json.loads(out)
        assert (got, data["status"]) == (code, status)
        if status == "BudgetExceeded":
            assert data["detail"] == "exploration stopped at depth 2"

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

    def test_availability_stuck_at_the_start(self, tmp_path, capsys):
        # a projection that cannot step and is not quiescent is no inert Pass
        prog = tmp_path / "inert.gcq"
        prog.write_text("choreography { bcast k [all] t[A].x -> (s[B]: y); end }\n")
        code, out, _ = run_cli("availability", str(prog), capsys=capsys)
        assert code == 1
        assert json.loads(out) == {
            "status": "StuckNetworkFound", "pairs_explored": 1,
            "detail": "stuck non-quiescent network at depth 0 under AlwaysAvailable()"}

    def test_availability_budget_is_inconclusive(self, capsys):
        # the same stuck network lies past the bound: no Pass, exit 3
        code, out, _ = run_cli("availability", str(GOLDEN / "sensors_blocking.gcq"),
                               "--lax-select", "--bound", "2", capsys=capsys)
        assert code == 3
        data = json.loads(out)
        assert data["status"] == "BudgetExceeded"
        assert data["detail"] == "exploration stopped at depth 2 under AlwaysAvailable()"

    @pytest.mark.parametrize("rounds", [1, 3])
    def test_endpoint_step_completing_late_passes(self, rounds, tmp_path, capsys):
        # p's enqueue at depth 1 completes only after q and r exchange
        # 2 * rounds broadcasts: the completing global sequence is as long
        # as the program, and no budget but --bound cuts it
        path = tmp_path / "relay.gcq"
        path.write_text(relay(rounds), encoding="utf-8")
        got, out, _ = run_cli("cosim", str(path), capsys=capsys)
        assert (got, json.loads(out)["status"]) == (0, "Pass")


TWICE = """
service temperature : branch M -> (S1,S2) { measure: reduce (S1,S2) -> M <int> . end };
caps sensors = {Acc0, Acc1, Acc2, Ms0, Ms1, Ms2, E0, E1, E2};

choreography {
  start k (temperature) (t1[S1]{Acc1}, t2[S2]{Acc2}) -> (t0[M]{Acc0});
  select k [all] t0[M]{Acc0;Ms0} -> (t1[S1]{Acc1;Ms1}, t1[S1]{Acc1;Ms1}, t2[S2]{Acc2;Ms2}) : measure;
  reduce k [all] avg (t1[S1]{Ms1;E1}.1, t1[S1]{Ms1;E1}.1, t2[S2]{Ms2;E2}.-2) -> t0[M]{Ms0;E0} : xm;
  end
}
"""

def relay(rounds: int) -> str:
    """A program where q and r exchange 2 * ``rounds`` broadcasts before p's."""
    n = 2 * rounds
    lines = ["start k (relay) (p[A]{P0}, q[B]{Q0}, r[C]{R0}) -> (s[D]{S0});"]
    for i in range(0, n, 2):
        lines += [f"bcast k [all] q[B]{{Q{i};Q{i + 1}}}.1 -> (r[C]{{R{i};R{i + 1}}}: x{i});",
                  f"bcast k [all] r[C]{{R{i + 1};R{i + 2}}}.2 -> (q[B]{{Q{i + 1};Q{i + 2}}}: y{i});"]
    lines += [f"bcast k [all] p[A]{{P0;P1}}.3 -> (q[B]{{Q{n};Q{n + 1}}}: z);", "end"]
    caps = ", ".join(["P0", "P1", *(f"Q{i}" for i in range(n + 2)),
                      *(f"R{i}" for i in range(n + 1)), "S0"])
    session = "bcast B -> (C) <int> . bcast C -> (B) <int> . " * rounds
    return (f"service relay : {session}bcast A -> (B) <int> . end;\ncaps steps = {{{caps}}};\n"
            "choreography {\n" + "".join(f"  {line}\n" for line in lines) + "}\n")

class TestInstalledEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gcq.cli", "check", str(GOLDEN / "sensors_all.gcq")],
            capture_output=True, text=True)
        assert proc.returncode == 0
