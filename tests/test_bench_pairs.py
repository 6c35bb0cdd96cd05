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
