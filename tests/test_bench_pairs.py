import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest


def _bench_pairs():
    path = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_checkout_copy_leaves_out_records_and_later_edits(tmp_path):
    checkout = tmp_path / "checkout"
    files = {
        "src/gradebor/machine.py": "old = 1\n",
        "perfbench/run.py": "run = 1\n",
        "perfbench/out/gate-write_chain-7101-trace0.json": "{}",
        ".git/HEAD": "ref: refs/heads/main\n",
        "src/gradebor/__pycache__/machine.cpython-311.pyc": "",
        "scripts/out/kept.txt": "an `out` outside perfbench is source\n",
    }
    for name, text in files.items():
        (checkout / name).parent.mkdir(parents=True, exist_ok=True)
        (checkout / name).write_text(text, encoding="utf-8")

    copy = _bench_pairs().copy_checkout(checkout, tmp_path / "copy")
    (checkout / "src/gradebor/machine.py").write_text("new = 2\n", encoding="utf-8")

    copied = {str(p.relative_to(copy)) for p in copy.rglob("*") if p.is_file()}
    assert copied == {"src/gradebor/machine.py", "perfbench/run.py", "scripts/out/kept.txt"}
    assert (copy / "src/gradebor/machine.py").read_text(encoding="utf-8") == "old = 1\n"


def test_a_terminated_comparison_stops_its_run_and_removes_the_copies(tmp_path):
    # two checkouts whose benchmark sleeps; each run appends its pid to `pids`
    pids = tmp_path / "pids"
    spec = {"run_seconds": 1, "end_to_end": [{"name": "verdicts_per_s", "better": "higher"}]}
    sleeper = f"import os, time\nwith open({str(pids)!r}, 'a') as f:\n    f.write(f'{{os.getpid()}}\\n')\ntime.sleep(60)\n"
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
        (tmp_path / side / "perfbench" / "run.py").write_text(sleeper, encoding="utf-8")
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    script = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
    cmd = [sys.executable, str(script), "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
           "--workload", "props", "--seeds", "1"]
    proc = subprocess.Popen(cmd, env={**os.environ, "TMPDIR": str(tmpdir)},
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        while not (pids.exists() and pids.read_text().endswith("\n")):
            assert proc.poll() is None and time.monotonic() < deadline, "the benchmark run never started"
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert code != 0
    assert list(tmpdir.glob("bench_pairs-*")) == []
    (run_pid,) = map(int, pids.read_text().split())
    with pytest.raises(ProcessLookupError):
        os.kill(run_pid, 0)


PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]  # median 100, IQR 2.5


def test_the_claim_gate_needs_nine_wins_in_ten_and_a_gap_beyond_the_parent_spread():
    gates = _bench_pairs().gates
    faster = [a + 5 for a in PARENT]
    assert gates(PARENT, faster, True, 0.25) == (10, True, True)
    nine = faster[:9] + [PARENT[9]]  # a tie is no win
    assert gates(PARENT, nine, True, 0.25) == (9, True, True)
    eight = faster[:8] + PARENT[8:]
    assert gates(PARENT, eight, True, 0.25) == (8, False, True)
    close = [a + 1 for a in PARENT]  # wins every pair, but the gap is within the spread
    assert gates(PARENT, close, True, 0.25) == (10, False, True)
    # lower is better: the same values claim nothing the other way round
    assert gates(PARENT, faster, False, 0.25) == (0, False, True)
    assert gates(faster, PARENT, False, 0.25) == (10, True, True)


def test_the_no_regression_gate_compares_medians_with_the_bound():
    gates = _bench_pairs().gates
    assert gates(PARENT, [a * 0.80 for a in PARENT], True, 0.25).no_regression
    assert not gates(PARENT, [a * 0.70 for a in PARENT], True, 0.25).no_regression
    assert gates(PARENT, [a * 1.10 for a in PARENT], False, 0.15).no_regression
    assert not gates(PARENT, [a * 1.20 for a in PARENT], False, 0.15).no_regression
    # the gate reads the medians, not the wins
    four_lost = [a + 1 for a in PARENT[:6]] + [50.0] * 4  # median 99.5
    assert gates(PARENT, four_lost, True, 0.25) == (6, False, True)
    five_lost = [a + 1 for a in PARENT[:5]] + [50.0] * 5  # median 74.5
    assert gates(PARENT, five_lost, True, 0.25) == (5, False, False)


def test_the_gates_of_five_pairs_need_five_wins():
    gates = _bench_pairs().gates
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]
    assert gates(parent, [x + 5 for x in parent], True, 0.25).claim
    assert not gates(parent, [x + 5 for x in parent[:4]] + [parent[4]], True, 0.25).claim


def test_a_list_of_workloads_prints_one_block_per_workload(tmp_path, capsys):
    # `run` is replaced, so no benchmark starts: a run's value is its seed,
    # plus one on the change's side
    bench_pairs = _bench_pairs()
    spec = {"run_seconds": 1, "end_to_end": [{"name": "verdicts_per_s", "better": "higher", "bound": 0.25}]}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
    runs = []

    def fake_run(checkout, workload, seed, seconds):
        runs.append((checkout.name, workload, seed))
        return {"verdicts_per_s": seed + (checkout.name == "change")}

    bench_pairs.run = fake_run
    handler = signal.getsignal(signal.SIGTERM)
    try:
        code = bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                                 "--workload", "props,split_ladder", "--seeds", "1-2"])
    finally:
        signal.signal(signal.SIGTERM, handler)
    assert code == 0
    pairs = [("parent", 1), ("change", 1), ("change", 2), ("parent", 2)]
    assert runs == [(side, w, seed) for w in ("props", "split_ladder") for side, seed in pairs]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    for block, workload in zip((lines[:4], lines[4:]), ("props", "split_ladder")):
        assert block[0] == f"workload {workload}"
        assert block[1] == "pair 1 seed 1 (parent first): verdicts_per_s 1 -> 2"
        assert block[2] == "pair 2 seed 2 (change first): verdicts_per_s 2 -> 3"
        assert block[3].startswith("verdicts_per_s (higher is better): parent median 1.5")
        assert "change wins 2 of 2" in block[3]
