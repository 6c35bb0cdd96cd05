import importlib.util
from pathlib import Path


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
