import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gradebor.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "src" / "gradebor" / "corpus"


def _golden():
    spec = importlib.util.spec_from_file_location("golden", ROOT / "scripts" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cli(*args, cwd, **env):
    """Run gradebor in a fresh interpreter, under the default recursion limit,
    with the environment variables `env` set."""
    return subprocess.run(
        [sys.executable, "-m", "gradebor.cli", *args], cwd=cwd, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env),
    )


def test_check_accepted(capsys):
    assert main(["check", str(CORPUS / "persimmon.grb")]) == 0
    out = capsys.readouterr().out
    assert "persimmon" in out and "main" in out


def test_check_rejected_with_diagnostic(capsys):
    assert main(["check", str(CORPUS / "viridian.grb")]) == 1
    out = capsys.readouterr().out
    assert "[PermissionNotWritable]" in out


def test_check_missing_file_is_io():
    assert main(["check", "no/such/file.grb"]) == 2


def test_check_json_format(capsys):
    assert main(["check", "--format", "json", str(CORPUS / "scarlet.grb")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["errors"][0]["kind"] == "LinearReuse"
    assert payload[0]["errors"][0]["line"] is not None


def test_run_prints_value(capsys):
    assert main(["run", str(CORPUS / "amethyst.grb")]) == 0
    out = capsys.readouterr().out
    assert "value:" in out and "*#ref" in out


def test_run_trivial_main(tmp_path, capsys):
    f = tmp_path / "trivial.grb"
    f.write_text("main : Unit; main = ();\n")
    assert main(["run", str(f)]) == 0
    assert "()" in capsys.readouterr().out


def test_run_fuel_exhaustion(tmp_path):
    f = tmp_path / "t.grb"
    f.write_text("main : Unit; main = let () = () in ();\n")
    assert main(["run", str(f), "--fuel", "0"]) == 3


def test_trace_emits_jsonl_and_checks(capsys):
    assert main(["trace", str(CORPUS / "persimmon.grb")]) == 0
    out = capsys.readouterr().out
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert any(rec.get("rule", "").endswith("splitRef") for rec in lines)
    split_rec = next(rec for rec in lines if rec.get("rule", "").endswith("splitRef"))
    halves = [e["perm"] for e in split_rec["heap"] if e["sort"] == "ref"]
    assert halves == ["1/2", "1/2"]


def test_trace_example_rule_names(capsys):
    assert main(["trace", str(CORPUS / "example_s3.grb")]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    rules = [rec["rule"] for rec in lines if "rule" in rec]
    assert rules[1:4] == ["appL/congPairR/var", "beta", "congPairL/var"]


def test_props_zero_cases_is_vacuous(capsys):
    assert main(["props", "--cases", "0", "--seed", "1"]) == 0


def test_props_small_run_and_json_stability(capsys):
    assert main(["props", "--cases", "8", "--seed", "3", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["props", "--cases", "8", "--seed", "3", "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert json.loads(first) == json.loads(second)


def test_props_mutation_fails_borrow_safety(capsys):
    assert main(["props", "--cases", "12", "--seed", "3", "--mutate-split", "--format", "json"]) == 4
    payload = json.loads(capsys.readouterr().out)
    borrow = next(s for s in payload if s["property"] == "borrow-safety")
    assert borrow["failures"]


def test_props_text_format_prints_one_line_per_suite(capsys):
    assert main(["props", "--cases", "8", "--seed", "3", "--format", "json"]) == 0
    suites = json.loads(capsys.readouterr().out)
    assert main(["props", "--cases", "8", "--seed", "3", "--format", "text"]) == 0
    assert capsys.readouterr().out == "".join(f"{s['property']}: {s['cases']} cases, ok\n" for s in suites)


def test_props_text_format_lists_failures_and_exits_4(capsys):
    args = ["props", "--cases", "12", "--seed", "3", "--mutate-split"]
    assert main([*args, "--format", "json"]) == 4
    suites = json.loads(capsys.readouterr().out)
    assert main([*args, "--format", "text"]) == 4
    expected = ""
    for s in suites:
        status = f"{len(s['failures'])} failures" if s["failures"] else "ok"
        expected += f"{s['property']}: {s['cases']} cases, {status}\n"
        expected += "".join(f"  {f}\n" for f in s["failures"])
    assert capsys.readouterr().out == expected
    assert "borrow-safety: 17 cases, 3 failures\n" in expected


def test_corpus_command(capsys):
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out
    assert "persimmon" in out and "MISMATCH" not in out


@pytest.mark.parametrize("source, error", [
    ("main : Unit;\nmain = let () = in ();\n",
     {"kind": "SyntaxError", "message": "expected a term, found 'in'", "line": 2, "col": 17}),
    # parses, but is nested too deeply to check
    ("main : Unit;\nmain = " + "let () = () in " * 400 + "();\n",
     {"kind": "SyntaxError", "message": "expression nested too deeply", "line": None, "col": None}),
], ids=["parse", "deep"])
@pytest.mark.parametrize("expect, code", [("reject SyntaxError", 0), ("accept", 4)])
def test_corpus_reports_a_file_that_does_not_parse(tmp_path, monkeypatch, capsys, expect, code, source, error):
    import gradebor.cli as cli

    (tmp_path / "broken.grb").write_text(source, encoding="utf-8")
    (tmp_path / "broken.expect").write_text(expect + "\n", encoding="utf-8")
    monkeypatch.setattr(cli, "corpus_dir", lambda: tmp_path)
    assert main(["corpus", "--format", "json"]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    (row,) = json.loads(captured.out)
    assert (row["status"], row["detail"]) == ("ok" if code == 0 else "MISMATCH", "[SyntaxError]")
    assert main(["check", "--format", "json", str(tmp_path / "broken.grb")]) == 1
    (got,) = json.loads(capsys.readouterr().out)[0]["errors"]
    assert got == error


@pytest.mark.parametrize("expect", ["accept", "reject SyntaxError"])
def test_corpus_reports_a_file_that_is_not_utf8_as_an_io_error(tmp_path, monkeypatch, capsys, expect):
    import gradebor.cli as cli

    (tmp_path / "not_utf8.grb").write_bytes(b"main : Unit;\nmain = (); -- \xff\n")
    (tmp_path / "not_utf8.expect").write_text(expect + "\n", encoding="utf-8")
    monkeypatch.setattr(cli, "corpus_dir", lambda: tmp_path)
    assert main(["corpus", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    (row,) = json.loads(captured.out)
    assert (row["status"], row["detail"]) == ("MISMATCH", "[IO]")
    assert main(["check", str(tmp_path / "not_utf8.grb")]) == 2


def test_corpus_replay_too_deep_is_a_mismatch(monkeypatch, capsys):
    import gradebor.cli as cli

    def overflow(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "check_trace", overflow)
    assert main(["corpus", "--format", "json"]) == 4
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    rows = {row["program"]: row for row in json.loads(captured.out)}
    assert (rows["persimmon"]["status"], rows["persimmon"]["detail"]) == ("MISMATCH", "[SyntaxError]")


def test_corpus_reports_a_checker_violation_as_a_metatheory_mismatch(monkeypatch, capsys):
    import gradebor.cli as cli
    from gradebor.metatheory import Violation

    monkeypatch.setattr(cli, "check_trace", lambda *args: [Violation("preservation", 3, "heap compatibility failed")])
    assert main(["corpus", "--format", "json"]) == 4
    rows = json.loads(capsys.readouterr().out)
    verdicts = {Path(path).stem: verdict for path, verdict, _ in cli.load_expectations()}
    assert sorted(r["program"] for r in rows) == sorted(verdicts) and "accept" in verdicts.values()
    for row in rows:
        if verdicts[row["program"]] == "accept":
            assert (row["status"], row["detail"]) == (
                "MISMATCH", "metatheory: preservation at step 3: heap compatibility failed"
            ), row
        else:
            assert row["status"] == "ok", row


def test_semiring_flag_overrides_pragma(tmp_path):
    f = tmp_path / "d.grb"
    # accepted under the default upper-bound ordering, rejected when forced discrete
    f.write_text("main : Unit;\nmain = let [y] : (Unit [2]) = [()] in let () = y in ();\n")
    assert main(["check", str(f)]) == 0
    assert main(["check", str(f), "--semiring", "nat"]) == 1


def test_fuel_env_var(tmp_path, monkeypatch):
    f = tmp_path / "t.grb"
    f.write_text("main : Unit; main = let () = () in ();\n")
    monkeypatch.setenv("GRADEBOR_FUEL", "0")
    assert main(["run", str(f)]) == 3
    monkeypatch.setenv("GRADEBOR_FUEL", "50")
    assert main(["run", str(f)]) == 0


def test_trace_value_only_main_is_a_single_record(tmp_path, capsys):
    f = tmp_path / "v.grb"
    f.write_text("main : Unit; main = ();\n")
    assert main(["trace", str(f)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["value"] == "()" and rec["step"] == 0


def test_run_and_trace_type_errors_name_the_file(capsys):
    path = str(CORPUS / "alloc_promo_bad.grb")
    for command in ("run", "trace"):
        assert main([command, path]) == 1
        assert capsys.readouterr().err.startswith(f"{path}:6:57: [PromotionOfAllocator]")


def test_trace_into_a_closed_pipe_is_an_io_error(tmp_path):
    body = "a"
    for k in range(100):
        body = f"writeArray ({body}) {k % 4} 1.5"
    f = tmp_path / "chain.grb"
    f.write_text(f"main : exists i . * (Array i Float);\nmain = unpack <i, a> = newArray 4 in pack <i, {body}>;\n")
    src = ROOT / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "gradebor.cli", "trace", str(f)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    # the trace is far larger than a pipe's buffer, so the writer is still
    # writing when the reader goes away after one line
    assert proc.stdout.readline().startswith(b'{"step": 0')
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=60) == 2
    assert b"Traceback" not in err


def test_run_and_trace_syntax_errors_name_the_file(tmp_path, capsys):
    f = tmp_path / "syn.grb"
    f.write_text("main : Unit;\nmain = let () = in ();\n")
    assert main(["check", str(f)]) == 1
    expected = f"{f}:2:17: [SyntaxError] expected a term, found 'in'\n"
    assert capsys.readouterr().out == expected
    for command in ("run", "trace"):
        assert main([command, str(f)]) == 1
        assert capsys.readouterr().err == expected


def test_hostile_sources_are_one_line_syntax_errors(tmp_path, capsys):
    for name, body, message in (
        ("digit", "²", r"2:8: \[SyntaxError\] unexpected character '²'"),
        ("deep", "(" * 1000 + "1" + ")" * 1000, r"2:\d+: \[SyntaxError\] expression nested too deeply"),
    ):
        f = tmp_path / f"{name}.grb"
        f.write_text(f"main : Nat;\nmain = {body};\n", encoding="utf-8")
        expected = re.escape(str(f)) + ":" + message + "\n"
        assert main(["check", str(f)]) == 1
        assert re.fullmatch(expected, capsys.readouterr().out)
        for command in ("run", "trace"):
            assert main([command, str(f)]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and re.fullmatch(expected, captured.err)


def test_run_reads_decimal_digits_of_any_script(tmp_path, capsys):
    f = tmp_path / "arabic_indic.grb"
    f.write_text("main : Nat;\nmain = ٣;\n", encoding="utf-8")
    assert main(["run", str(f)]) == 0
    assert "value: 3  (0 steps)" in capsys.readouterr().out


def test_type_errors_print_types_in_surface_syntax(tmp_path, capsys):
    f = tmp_path / "type_error.grb"
    f.write_text("main : Unit;\nmain = 1;\n")
    assert main(["run", str(f)]) == 1
    assert capsys.readouterr().err == f"{f}:2:8: [Mismatch] expected Unit but found Nat\n"


def test_non_utf8_source_is_an_io_error(tmp_path, capsys):
    f = tmp_path / "not_utf8.grb"
    f.write_bytes(b"main : Unit;\nmain = (); -- \xff\n")
    assert main(["check", str(f)]) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"{f}: [IO] {f}: 'utf-8' codec can't decode byte 0xff") and out.count("\n") == 1
    for command in ("run", "trace"):
        assert main([command, str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{f}: 'utf-8' codec can't decode byte 0xff") and captured.err.count("\n") == 1


def test_corpus_out_of_fuel_exits_3(capsys):
    assert main(["corpus", "--fuel", "2"]) == 3
    out = capsys.readouterr().out
    assert "MISMATCH" in out and "evaluation failed: no fuel left after 2 steps" in out


@pytest.mark.parametrize("writes", [150, 240])
def test_deep_chains_run_and_trace(tmp_path, writes):
    (tmp_path / "chain.grb").write_text(_golden().chain_source(writes), encoding="utf-8")
    run = _cli("run", "chain.grb", "--format", "json", cwd=tmp_path)
    assert run.returncode == 0 and "Traceback" not in run.stderr
    trace = _cli("trace", "chain.grb", cwd=tmp_path)
    assert trace.returncode == 0 and "Traceback" not in trace.stderr
    last = json.loads(trace.stdout.splitlines()[-1])
    assert last["step"] == json.loads(run.stdout)["steps"] == writes + 3


@pytest.mark.parametrize("depth", [300, 400])
def test_let_chains_too_deep_to_check_are_one_line_syntax_errors(tmp_path, depth):
    # the parser takes both chains; the checker spends more frames per let
    # than the parser and overflows on the deeper one
    (tmp_path / "lets.grb").write_text("main : Unit;\nmain = " + "let () = () in " * depth + "();\n")
    for command in ("check", "run", "trace"):
        proc = _cli(command, "lets.grb", cwd=tmp_path)
        assert "Traceback" not in proc.stdout + proc.stderr
        if depth == 300:
            assert proc.returncode == 0 and proc.stderr == ""
            continue
        assert proc.returncode == 1
        # check reports on stdout, run and trace on stderr
        report, rest = (proc.stdout, proc.stderr) if command == "check" else (proc.stderr, proc.stdout)
        assert report == "lets.grb: [SyntaxError] expression nested too deeply\n" and rest == ""


def test_trace_replay_too_deep_is_a_syntax_error(monkeypatch, capsys):
    import gradebor.cli as cli

    def overflow(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "check_trace", overflow)
    path = str(CORPUS / "persimmon.grb")
    assert main(["trace", path]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith('{"step": 0')
    assert captured.err == f"{path}: [SyntaxError] expression nested too deeply\n"


def test_check_names_the_first_unknown_variable_whatever_the_hash_seed(tmp_path):
    golden = _golden()
    for name, source in golden.UNKNOWN_VARIABLES:
        (tmp_path / f"{name}.grb").write_text(source, encoding="utf-8")
    files = [f"{name}.grb" for name, _ in golden.UNKNOWN_VARIABLES]
    runs = {(p.returncode, p.stdout, p.stderr) for p in (
        _cli("check", *files, cwd=tmp_path, PYTHONHASHSEED=str(seed)) for seed in range(6)
    )}
    (run,) = runs
    code, out, err = run
    names, perms = out.splitlines()
    assert (code, err) == (1, "")
    assert names.startswith("unknown_names.grb:1:1: [UnboundVariable] unknown identifier 'gamma' in type ")
    assert perms.startswith("unknown_perms.grb:1:1: [UnboundVariable] unknown permission variable 's' in type ")
