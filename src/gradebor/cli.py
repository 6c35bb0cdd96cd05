"""Command-line interface: check, run, trace, props, and corpus.

Exit codes are a stable contract: 0 ok, 1 type error, 2 I/O error, 3 fuel
exhausted, 4 metatheory violation. A reader that closes standard output early
(`gradebor trace FILE | head`) is an I/O error: exit 2, with no traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

from .grades import SEMIRINGS
from .machine import EvalError, FuelExhausted, Heap, Machine
from .metatheory import check_trace, run_property_suites
from .parser import SyntaxError_, parse_program, print_term, print_type
from .typecheck import CheckError, check_program

EXIT_OK = 0
EXIT_TYPE = 1
EXIT_IO = 2
EXIT_FUEL = 3
EXIT_META = 4


def _default_fuel() -> int:
    try:
        return int(os.environ.get("GRADEBOR_FUEL", "10000"))
    except ValueError:
        return 10000


def _load(path: str, semiring: str | None):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise SystemExit2(f"{path}: {e}")
    ring = SEMIRINGS[semiring] if semiring else None
    return parse_program(text, path, ring)


class SystemExit2(Exception):
    pass


@contextmanager
def _depth_guard():
    """Report a check, run or trace replay that overflows the interpreter's
    stack as the parser reports its own overflow. The checker spends more
    frames per nesting level than the parser, so a program that parses can
    still be too deep to check."""
    try:
        yield
    except RecursionError:
        raise SyntaxError_("expression nested too deeply", None) from None


def cmd_check(args) -> int:
    results = []
    worst = EXIT_OK
    for path in args.files:
        entry = {"file": path, "defs": [], "errors": []}
        try:
            with _depth_guard():
                cp = check_program(_load(path, args.semiring))
            for name, ty in cp.def_types.items():
                entry["defs"].append({"name": name, "type": print_type(ty)})
        except SystemExit2 as e:
            entry["errors"].append({"kind": "IO", "message": str(e)})
            worst = max(worst, EXIT_IO)
        except (SyntaxError_, CheckError) as e:
            entry["errors"].append(e.to_json())
            worst = max(worst, EXIT_TYPE)
        results.append(entry)
    if args.format == "json":
        print(json.dumps(results, indent=2))
    else:
        for entry in results:
            for d in entry["defs"]:
                print(f"{entry['file']}: {d['name']} : {d['type']}")
            for err in entry["errors"]:
                line = err.get("line")
                col = err.get("col")
                where = f"{entry['file']}:{line}:{col}" if line else entry["file"]
                print(f"{where}: [{err['kind']}] {err['message']}")
    return worst


def _check_and_run(path, semiring, fuel, record):
    with _depth_guard():
        cp = check_program(_load(path, semiring))
        value, trace = Machine(cp.ring).eval(Heap(), cp.main_term, cp.ring.one, fuel, record)
    return cp, value, trace


# How `_check_and_run` can fail: the exit code and stderr message of each
# error, first match wins (FuelExhausted is an EvalError).
_RUN_FAILURES = (
    (SystemExit2, EXIT_IO, lambda path, e: str(e)),
    (SyntaxError_, EXIT_TYPE, lambda path, e: e.render(path)),
    (CheckError, EXIT_TYPE, lambda path, e: e.render(path)),
    (FuelExhausted, EXIT_FUEL, lambda path, e: f"{path}: {e}"),
    (EvalError, EXIT_META, lambda path, e: f"{path}: evaluation failed: {e}"),
)
_RUN_ERRORS = tuple(kind for kind, _, _ in _RUN_FAILURES)


def _run_failed(path: str, e: Exception) -> int:
    for kind, code, message in _RUN_FAILURES:
        if isinstance(e, kind):
            print(message(path, e), file=sys.stderr)
            return code


def cmd_run(args) -> int:
    try:
        cp, value, trace = _check_and_run(args.file, args.semiring, args.fuel, record=False)
    except _RUN_ERRORS as e:
        return _run_failed(args.file, e)
    heap = trace.final_heap
    if args.format == "json":
        print(json.dumps({
            "file": args.file,
            "type": print_type(cp.main_type),
            "value": print_term(value),
            "steps": trace.step_count,
            "heap": heap.to_json(),
        }, indent=2))
    else:
        print(f"{args.file}: main : {print_type(cp.main_type)}")
        print(f"value: {print_term(value)}  ({trace.step_count} steps)")
        live_refs = {r: f"{c.perm}@{c.ident}" for r, c in heap.refs.items()}
        print(f"heap: {len(heap.vars)} vars, refs {live_refs}, {len(heap.resources)} resources")
    return EXIT_OK


def cmd_trace(args) -> int:
    try:
        cp, value, trace = _check_and_run(args.file, args.semiring, args.fuel, record=True)
    except _RUN_ERRORS as e:
        return _run_failed(args.file, e)
    print(trace.to_jsonl())
    try:
        with _depth_guard():
            violations = check_trace(trace, cp.main_type, cp.ring, cp.ring.one)
    except SyntaxError_ as e:
        return _run_failed(args.file, e)
    for v in violations:
        print(str(v), file=sys.stderr)
    return EXIT_META if violations else EXIT_OK


def cmd_props(args) -> int:
    suites = run_property_suites(args.seed, args.cases, size=args.size, mutate_split=args.mutate_split, fuel=args.fuel)
    summary = [s.to_json() for s in suites]
    if args.format == "json":
        print(json.dumps(summary, indent=2))
    else:
        for s in summary:
            status = "ok" if not s["failures"] else f"{len(s['failures'])} failures"
            print(f"{s['property']}: {s['cases']} cases, {status}")
            for f in s["failures"][:10]:
                print(f"  {f}")
    return EXIT_META if any(s["failures"] for s in summary) else EXIT_OK


def corpus_dir() -> Path:
    return Path(resources.files("gradebor") / "corpus")


def load_expectations() -> list[tuple[str, str, str | None]]:
    """(program path, verdict, expected error kind) for the shipped corpus."""
    out = []
    base = corpus_dir()
    for grb in sorted(base.glob("*.grb")):
        expect = grb.with_suffix(".expect").read_text().split()
        verdict, kind = expect[0], (expect[1] if len(expect) > 1 else None)
        out.append((str(grb), verdict, kind))
    return out


def cmd_corpus(args) -> int:
    rows = []
    worst = EXIT_OK
    for path, verdict, kind in load_expectations():
        name = Path(path).stem
        failure = EXIT_META
        try:
            with _depth_guard():
                cp = check_program(_load(path, None))
            got = "accept"
            got_kind = None
        except SystemExit2:
            got, got_kind, failure = "unread", "IO", EXIT_IO
        except (SyntaxError_, CheckError) as e:
            got = "reject"
            got_kind = e.kind
        matched = got == verdict and (verdict == "accept" or got_kind == kind)
        detail = ""
        if matched and got == "accept":
            try:
                with _depth_guard():
                    value, trace = Machine(cp.ring).eval(Heap(), cp.main_term, cp.ring.one, args.fuel)
                    found = check_trace(trace, cp.main_type, cp.ring, cp.ring.one)
                if found:
                    matched = False
                    detail = f"metatheory: {found[0]}"
                else:
                    detail = f"{trace.step_count} steps -> {print_term(value)}"
            except EvalError as e:
                matched = False
                detail = f"evaluation failed: {e}"
                if isinstance(e, FuelExhausted):
                    failure = EXIT_FUEL
            except SyntaxError_ as e:
                matched = False
                detail = f"[{e.kind}]"
        elif got != "accept":
            detail = f"[{got_kind}]"
        if not matched:
            worst = max(worst, failure)
        rows.append((name, verdict if matched else f"expected {verdict} {kind or ''}", "ok" if matched else "MISMATCH", detail))
    if args.format == "json":
        print(json.dumps([
            {"program": n, "expected": v, "status": s, "detail": d} for n, v, s, d in rows
        ], indent=2))
    else:
        width = max(len(r[0]) for r in rows)
        for n, v, s, d in rows:
            print(f"{n:<{width}}  {v:<26} {s:<8} {d}")
    return worst


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gradebor", description="Graded borrowing calculus toolchain")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, files: bool):
        if files:
            sp.add_argument("files", nargs="+", help=".grb source files")
        else:
            sp.add_argument("file", help=".grb source file")
        sp.add_argument("--semiring", choices=sorted(SEMIRINGS), help="override the file's pragma")
        sp.add_argument("--format", choices=["text", "json"], default="text")

    sp = sub.add_parser("check", help="typecheck programs")
    common(sp, files=True)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("run", help="evaluate main at grade 1")
    common(sp, files=False)
    sp.add_argument("--fuel", type=int, default=_default_fuel())
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("trace", help="emit a JSON Lines trace and check it")
    common(sp, files=False)
    sp.add_argument("--fuel", type=int, default=_default_fuel())
    sp.set_defaults(fn=cmd_trace)

    sp = sub.add_parser("props", help="run the generator-driven property suites")
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--cases", type=int, default=500)
    sp.add_argument("--size", type=int, default=6)
    sp.add_argument("--fuel", type=int, default=_default_fuel())
    sp.add_argument("--format", choices=["text", "json"], default="json")
    sp.add_argument("--mutate-split", action="store_true", help="corrupt splitRef to demonstrate the suites detect it")
    sp.set_defaults(fn=cmd_props)

    sp = sub.add_parser("corpus", help="check the shipped corpus against its expected verdicts")
    sp.add_argument("--fuel", type=int, default=_default_fuel())
    sp.add_argument("--format", choices=["text", "json"], default="text")
    sp.set_defaults(fn=cmd_corpus)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone. Point stdout at devnull so that the flush of
        # whatever is still buffered, at exit, cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
