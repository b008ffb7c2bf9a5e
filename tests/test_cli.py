"""End-to-end CLI behaviour: exit codes, JSON output, file round-trips."""
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from taskdec import cli, decomposability
from taskdec.cli import main
from taskdec.scenario import parse_scenario


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_exit_codes_follow_the_verdict(capsys):
    assert run(capsys, "check-decomp", "ex1.scn")[0] == 0
    assert run(capsys, "check-decomp", "ex9.scn")[0] == 1
    assert run(capsys, "check-failure", "ex1.scn")[0] == 0
    assert run(capsys, "check-failure", "ex2.scn")[0] == 1
    assert run(capsys, "verify", "ex6.scn")[0] == 0
    assert run(capsys, "verify", "ex6_private.scn")[0] == 1


def test_usage_and_input_errors_exit_2(capsys):
    rc, _, err = run(capsys, "check-decomp", "nope.scn")
    assert rc == 2
    assert err == "error: no such scenario file: nope.scn\n"
    assert run(capsys, "check-failure")[0] == 2
    assert run(capsys, "no-such-command")[0] == 2


def test_bundled_fixtures_resolve_from_anywhere(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc, out, _ = run(capsys, "check-decomp", "ex1.scn")
    assert rc == 0
    assert "oracle: decomposable" in out
    # a real file with the same basename wins over the bundled copy
    bad = tmp_path / "ex1.scn"
    bad.write_text("junk\n")
    assert run(capsys, "check-decomp", str(bad))[0] == 2


def test_only_a_bare_name_falls_back_to_a_bundled_fixture(capsys):
    rc, out, err = run(capsys, "check-decomp", "/no/such/dir/ex1.scn")
    assert (rc, out) == (2, "")
    assert err == "error: no such scenario file: /no/such/dir/ex1.scn\n"
    rc, out, err = run(capsys, "check-decomp", "no/such/dir/ex1.scn")
    assert (rc, out) == (2, "")
    assert "no such scenario file" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("check-decomp", "{dir}"),
        ("check-decomp", "{dir}/latin1.scn"),
        ("gen", "--seed", "1", "-o", "{dir}"),
        ("export-dot", "ex1.scn", "-o", "{dir}"),
    ],
)
def test_unreadable_and_unwritable_paths_are_input_errors(tmp_path, capsys, argv):
    (tmp_path / "latin1.scn").write_bytes("task: caf\xe9\n".encode("latin-1"))
    rc, out, err = run(capsys, *(arg.format(dir=tmp_path) for arg in argv))
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--max-states", "0"),
        ("gen", "--max-events", "0"),
        ("gen", "--agents", "0"),
        ("fuzz", "--max-states", "0"),
    ],
)
def test_generator_sizes_below_one_are_input_errors(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be at least 1, got 0" in err


def test_generator_event_counts_past_the_event_pool_are_input_errors(capsys):
    rc, out, err = run(capsys, "gen", "--max-events", "9")
    assert (rc, out, err) == (2, "", "error: max_events must be at most 8, got 9\n")
    rc, out, _ = run(capsys, "gen", "--max-events", "8")
    assert rc == 0 and out


def test_check_decomp_text_report_names_every_condition(capsys):
    rc, out, _ = run(capsys, "check-decomp", "ex9.scn")
    assert rc == 1
    lines = out.splitlines()
    assert lines[0] == "DC1: holds"
    assert lines[1] == "DC2: holds"
    assert lines[2] == "DC3: holds"
    assert lines[3] == "DC4: violated"
    assert "conditions vs oracle: consistent" in lines
    assert any(l.startswith("oracle: not decomposable") for l in lines)


def test_check_decomp_json_is_machine_readable(capsys):
    rc, out, _ = run(capsys, "check-decomp", "ex1.scn", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["conjunction"] is True
    assert doc["oracle"]["holds"] is True
    assert [c["condition"] for c in doc["conditions"]] == ["DC1", "DC2", "DC3", "DC4"]
    assert all(c["mode"] == "exact" for c in doc["conditions"])


def test_check_failure_json_carries_the_verdict(capsys):
    rc, out, _ = run(capsys, "check-failure", "ex5.scn", "--json")
    assert rc == 1
    doc = json.loads(out)
    assert doc["remains"] is False
    assert doc["predicted"] is False
    assert doc["consistent"] is True


def test_fixture_matrix_reports_every_fixture(capsys):
    rc, out, _ = run(capsys, "check-failure", "--fixture-matrix")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 13
    assert all(line.endswith(": PASS") for line in lines)
    assert lines[0] == "ex1: PASS"


@pytest.mark.parametrize(
    "extra", [("ex1.scn",), ("--depth", "4"), ("ex1.scn", "--depth", "4")]
)
def test_fixture_matrix_refuses_a_scenario_and_a_depth(capsys, extra):
    rc, out, err = run(capsys, "check-failure", "--fixture-matrix", *extra)
    assert (rc, out) == (2, "")
    if "--depth" in extra:
        assert "unrecognized arguments: --depth" in err
    else:
        assert err == "error: --fixture-matrix takes no scenario\n"


def test_module_runs_as_a_script():
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "taskdec.cli", "check-decomp",
         str(src / "taskdec" / "fixtures" / "ex9.scn")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert any(line.startswith("oracle: not decomposable") for line in proc.stdout.splitlines())


def test_bisim_command(capsys):
    rc, out, _ = run(capsys, "bisim", "ex1.scn#task", "ex1.scn#task")
    assert (rc, out) == (0, "bisimilar: yes\n")
    rc, out, _ = run(capsys, "bisim", "ex1.scn", "ex3.scn")
    assert rc == 1
    assert out.startswith("bisimilar: no (string 'e1' runs on the left side only)")


def test_gen_is_deterministic_and_writes_files(tmp_path, capsys):
    rc, first, _ = run(capsys, "gen", "--seed", "5")
    assert rc == 0
    _, second, _ = run(capsys, "gen", "--seed", "5")
    assert first == second
    parse_scenario(first)
    out_file = tmp_path / "x.scn"
    rc, out, _ = run(capsys, "gen", "--seed", "5", "-o", str(out_file))
    assert (rc, out) == (0, "")
    assert out_file.read_text() == first


def test_gen_decomposable_flag(capsys):
    rc, out, _ = run(capsys, "gen", "--seed", "3", "--decomposable")
    assert rc == 0
    sc = parse_scenario(out)
    assert main(["check-decomp", str(sc.task)]) == 2  # the name is not a path
    capsys.readouterr()


def test_export_dot_defaults_and_output_file(tmp_path, capsys):
    rc, out, _ = run(capsys, "export-dot", "ex1.scn")
    assert rc == 0
    assert out.splitlines()[0] == 'digraph "task" {'
    target = tmp_path / "t.dot"
    rc, out, _ = run(capsys, "export-dot", "ex1.scn#task", "-o", str(target))
    assert (rc, out) == (0, "")
    assert target.read_text().splitlines()[0] == 'digraph "task" {'
    rc, out, _ = run(capsys, "export-dot", "ex1.scn", "--name", "fancy")
    assert out.splitlines()[0] == 'digraph "fancy" {'


def test_json_is_refused_where_nothing_is_printed_as_json(capsys):
    # gen prints scenario text and export-dot prints DOT; neither has a JSON form.
    for argv in (("gen", "--seed", "3", "--json"), ("export-dot", "ex1.scn", "--json")):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, ""), argv
        assert "unrecognized arguments: --json" in err, argv


def test_dot_and_json_are_exclusive(capsys):
    for argv in (
        ("project", "ex1.scn", "--agent", "1", "--dot", "--json"),
        ("compose", "ex1.scn", "--json", "--dot"),
    ):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, ""), argv
        assert "not allowed with argument" in err, argv


def test_usage_errors_and_help_print_for_every_command(capsys):
    # Each subcommand's usage line is formatted for --help and for its own errors.
    for argv, message in (
        (("gen", "--seed", "x"), "invalid int value"),
        (("export-dot",), "the following arguments are required: REF"),
        (("project", "ex1.scn"), "the following arguments are required: --agent"),
    ):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, ""), argv
        assert err.startswith(f"usage: taskdec {argv[0]}") and message in err, argv
    for name in (
        "project", "compose", "bisim", "check-decomp", "check-failure",
        "verify", "gen", "fuzz", "export-dot",
    ):
        rc, out, err = run(capsys, name, "--help")
        assert (rc, err) == (0, ""), name
        assert out.startswith(f"usage: taskdec {name}"), name


def test_project_emits_a_reusable_block(capsys):
    rc, out, _ = run(capsys, "project", "ex1.scn", "--agent", "1")
    assert rc == 0
    assert out.startswith("automaton view_1 {")
    assert "alphabet: a e1" in out
    rc, refined, _ = run(capsys, "project", "ex1.scn", "--agent", "1", "--refined")
    assert "alphabet: e1" in refined


@pytest.mark.parametrize("refined", [(), ("--refined",)])
def test_project_onto_an_unknown_agent_is_an_input_error(capsys, refined):
    rc, out, err = run(capsys, "project", "ex1.scn", "--agent", "9", *refined)
    assert (rc, out, err) == (2, "", "error: unknown agent '9'\n")


@pytest.mark.parametrize(
    "argv", [("check-decomp",), ("check-failure",), ("verify",), ("project", "--agent", "1")]
)
def test_scenario_commands_refuse_a_fragment(capsys, argv):
    command, *options = argv
    rc, out, err = run(capsys, command, "ex6.scn#task", *options)
    assert (rc, out) == (2, "")
    assert err == "error: ex6.scn#task: this command takes a whole scenario, not a #name\n"


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_fuzz_without_trials_is_an_input_error(capsys, trials):
    rc, out, err = run(capsys, "fuzz", "--trials", trials)
    assert (rc, out) == (2, "")
    assert err == f"error: trials must be at least 1, got {trials}\n"


def test_compose_whole_scenario(capsys):
    rc, out, _ = run(capsys, "compose", "ex1.scn")
    assert rc == 0
    assert out.startswith("automaton composition {")


def test_fuzz_clean_and_disagreeing_runs(tmp_path, capsys, monkeypatch):
    rc, out, _ = run(capsys, "fuzz", "--trials", "3", "--seed", "0")
    assert rc == 0
    assert out.strip().splitlines()[-1] == "result: all checks agree"
    # A DC4 that convicts every task makes the decomposable draw at this
    # seed disagree with the oracle.
    original = decomposability._check_dc4
    monkeypatch.setattr(
        decomposability,
        "_check_dc4",
        lambda *args, **kwargs: replace(original(*args, **kwargs), holds=False),
    )
    corpus = tmp_path / "corpus"
    rc, out, _ = run(
        capsys, "fuzz", "--trials", "1", "--seed", "10142", "--corpus", str(corpus)
    )
    assert rc == 1
    assert "disagreement (seed 10142, decomposability)" in out
    assert sorted(p.name for p in corpus.iterdir()) == [
        "decomposability-seed10142.scn",
    ]


def _load_digest_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "cli_digests.py"
    spec = importlib.util.spec_from_file_location("cli_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_output_is_byte_stable_on_every_fixture():
    # tests/cli_output_digests.json pins the text and --json output and the
    # exit code of check-decomp, check-failure and verify on every bundled
    # fixture, and the JSON form of the four report functions on seeded
    # draws.  An intended output change regenerates it with
    # scripts/cli_digests.py.
    script = _load_digest_script()
    expected = json.loads(script.OUT.read_text())
    actual = script.compute_digests()
    assert sorted(actual) == sorted(expected)
    changed = [argv for argv in sorted(expected) if actual[argv] != expected[argv]]
    assert changed == []


def test_digest_script_names_the_entries_it_moves():
    script = _load_digest_script()
    old = {"kept": "1", "moved": "1", "gone": "1"}
    new = {"kept": "1", "moved": "2", "fresh": "1"}
    assert script.entry_changes(old, new) == [
        "added: fresh",
        "removed: gone",
        "changed: moved",
    ]
    assert script.entry_changes(new, new) == []


def test_digest_script_writes_only_when_asked(tmp_path, monkeypatch, capsys):
    # Without flags the script compares: it names the moved entry, exits 1
    # and leaves the file as it was.  --write re-pins it.
    script = _load_digest_script()
    pinned = json.loads(script.OUT.read_text())
    key = "check-decomp ex1.scn --json"
    stale = tmp_path / "digests.json"
    stale.write_text(json.dumps({**pinned, key: {**pinned[key], "exit": 99}}))
    before = stale.read_bytes()
    monkeypatch.setattr(script, "OUT", stale)
    assert script.main([]) == 1
    assert stale.read_bytes() == before
    assert f"changed: {key}" in capsys.readouterr().out.splitlines()
    assert script.main(["--write"]) == 0
    assert json.loads(stale.read_text()) == pinned
    assert script.main([]) == 0
    with pytest.raises(SystemExit) as exc:
        script.main(["--wrte"])
    assert exc.value.code == 2


def _bodies_and_relations(doc) -> list[str]:
    """JSON paths that hold an automaton body or a bisimulation relation."""
    found = []

    def walk(x, path):
        if isinstance(x, dict):
            if "relation" in x or "alphabet" in x or isinstance(x.get("transitions"), list):
                found.append(path)
            for k, v in x.items():
                walk(v, f"{path}.{k}")
        elif isinstance(x, list):
            for i, v in enumerate(x):
                walk(v, f"{path}[{i}]")

    walk(doc, "$")
    return found


NO_TEAM = "error: this scenario declares no plants or controllers\n"


@pytest.mark.parametrize("command", ["check-decomp", "check-failure", "verify"])
def test_report_json_carries_counts_not_bodies(capsys, command):
    from taskdec.fixtures import fixture_names

    for name in fixture_names():
        rc, out, err = run(capsys, command, f"{name}.scn", "--json")
        if rc == 2:
            assert (command, err) == ("verify", NO_TEAM), name
            continue
        doc = json.loads(out)
        assert _bodies_and_relations(doc) == [], name
        key = "final" if command == "verify" else "oracle"
        assert set(doc[key]) == {"holds", "witness"}
        assert doc[key]["holds"] is (rc == 0)
        assert "composition" not in doc
        if command == "check-decomp":
            assert all(set(view) == {"states", "transitions"} for _, view in doc["locals_"])


def test_project_compose_and_bisim_json_keep_full_bodies(capsys):
    rc, out, _ = run(capsys, "project", "ex1.scn", "--agent", "1", "--json")
    view = json.loads(out)
    assert rc == 0 and view["alphabet"] == ["a", "e1"] and isinstance(view["transitions"], list)
    rc, out, _ = run(capsys, "compose", "ex1.scn", "--json")
    composition = json.loads(out)
    assert rc == 0 and len(composition["states"]) == 45
    assert len(composition["transitions"]) == 48
    rc, out, _ = run(capsys, "bisim", "ex1.scn#task", "ex1.scn#task", "--json")
    verdict = json.loads(out)
    assert rc == 0 and verdict["holds"] is True and verdict["witness"] is None
    assert ["q0", "q0"] in verdict["relation"]
