#!/usr/bin/env python3
"""Write the CLI's observable output for a fixed set of runs, one file each.

    python scripts/golden.py OUTDIR

For every run it writes OUTDIR/<name>.out, .err and .code (stdout, stderr,
exit status). The runs are `trace`, `run`, `check`, `run --format json` and
`check --format json` on every corpus file, `trace` and `run --format json`
on a 100-write and a 240-write `writeArray` chain, a 20-rung split/join
ladder and a program that reads a graded reference, swaps it and reads it
again (`read_swap`), all generated here, `corpus --format json`, and `props --seed 42 --cases
500` with and without `--mutate-split`. `check` plus `trace` meet a promoted
`newRef` hidden behind a beta-redex (`promo_beta_ref`), and `check` plus
`run` meet `alloc_promo_bad` with its `newArray` hidden the same way
(`promo_beta_array`): promotion reads the body's type, so both exit 1 at
`check`.
`run` and `trace` also meet each way a run can fail: a missing file (exit
2), a syntax error (1), a type error (1) and `--fuel 2` (3). `check` also
meets the type error and three lexical edge cases: a non-decimal digit
(`²`), 1000 nested parentheses, and a syntax error at the end of a file
that ends in a comment. One `check` run meets two annotations with several
unknown identifiers or permission variables (`unknown_variables`), whose
first as written it must name, whatever the hash seed. `check` and `run` also
meet a file that is not UTF-8 (exit 2). Each run is a fresh interpreter,
because what is recorded is the CLI process: its output and exit status.

Run it in two checkouts and compare with `diff -r` to check that a change
leaves every output byte-identical.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path("src") / "gradebor" / "corpus"


def chain_source(writes: int) -> str:
    rng = random.Random(7)
    body = "a"
    for _ in range(writes):
        body = f"writeArray ({body}) {rng.randrange(4)} {round(rng.uniform(0.0, 9.0), 2)!r}"
    return (
        "#semiring nat-leq\n\n"
        "main : exists i . * (Array i Float);\n"
        f"main = unpack <i, a> = newArray 4 in pack <i, {body}>;\n"
    )


def ladder_source(rungs: int) -> str:
    rng = random.Random(7)
    body = "let (x0, y0) = split b in\n"
    for k in range(1, rungs + 1):
        x, y = f"x{k - 1}", f"y{k - 1}"
        if rng.random() < 0.5:
            x = f"observe {x}"
        else:
            y = f"observe {y}"
        pair = f"({y}, {x})" if rng.random() < 0.5 else f"({x}, {y})"
        body += f"  let (x{k}, y{k}) = split (join {pair}) in\n"
    body += f"  join (x{rungs}, y{rungs})"
    return (
        "#semiring nat-leq\n\n"
        "observe : forall {p : Permission, i : Name} . & p (Ref i Float) -o & p (Ref i Float);\n"
        "observe = \\w -> w;\n\n"
        "ladder : forall {i : Name} . * (Ref i Float) -o * (Ref i Float);\n"
        f"ladder = \\c -> withBorrow (\\b -> {body}) c;\n\n"
        "main : exists i . * (Ref i Float);\n"
        "main = unpack <i, c> = newRef 1.5 in pack <i, ladder c>;\n"
    )


# Reads a `Float [2]` reference, swaps in a `Float [1]` box, reads it again
# and deletes it; the swapped-out box must have the grade its type says.
READ_SWAP = (
    "#semiring nat-leq\n\n"
    "main : Float * (Float * (Float [1]));\n"
    "main = (\\rp : (exists i . * (Ref i (Float [2]))) ->\n"
    "          unpack <i, r0> = rp in\n"
    "          let (v1, r1) = readRef r0 in\n"
    "          let (old, r2) = (\\b : (Float [1]) -> swapRef r1 b) [2.5] in\n"
    "          let (v2, r3) = readRef r2 in\n"
    "          let [z] = deleteRef r3 in (v1, (v2, old)))\n"
    "       (newRef [1.5]);\n"
)


# An allocation behind a beta-redex: the box's body still has a `*` type,
# so the checker rejects both with PromotionOfAllocator at the box.
PROMO_BETA_REF = (
    "main : (exists i . * (Ref i Float)) [1];\n"
    "main = [(\\x : Float -> newRef x) 1.5];\n"
)
PROMO_BETA_ARRAY = (
    "#semiring nat-leq\n\n"
    "main : Unit;\n"
    "main = let [x] : ((exists i . * (Array i Float)) [2]) = [(\\u : Nat -> newArray u) 1] in\n"
    "       unpack <i, a> = x in\n"
    "       let () = deleteArray a in\n"
    "       unpack <j, b> = x in\n"
    "       let () = deleteArray b in ();\n"
)


# Annotations with several unknown identifiers, and with several unknown
# permission variables: `check` names the first one as written.
UNKNOWN_VARIABLES = (
    ("unknown_names",
     "main : Ref gamma Float * & q (Ref alpha Float) -o & p (Ref delta Float) * Ref beta Float;\n"
     "main = \\x -> x;\n"),
    ("unknown_perms",
     "f : forall {i : Name} . & s (Ref i Float) * & q (Ref i Float) -o & p (Ref i Float) * & r (Ref i Float);\n"
     "f = \\x -> x;\n\n"
     "main : Unit;\nmain = ();\n"),
)


def record(outdir: Path, name: str, args: list[str], cwd: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("GRADEBOR_FUEL", None)
    proc = subprocess.run(
        [sys.executable, "-m", "gradebor.cli", *args], cwd=cwd, env=env, capture_output=True
    )
    (outdir / f"{name}.out").write_bytes(proc.stdout)
    (outdir / f"{name}.err").write_bytes(proc.stderr)
    (outdir / f"{name}.code").write_text(f"{proc.returncode}\n")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: golden.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    for grb in sorted((ROOT / CORPUS).glob("*.grb")):
        path = str(CORPUS / grb.name)
        for command in ("trace", "run", "check"):
            record(outdir, f"{command}-{grb.stem}", [command, path], ROOT)
        for command in ("run", "check"):
            record(outdir, f"{command}-json-{grb.stem}", [command, path, "--format", "json"], ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        generated = Path(tmp)
        for name, source in (
            ("write_chain", chain_source(100)),
            ("deep_chain", chain_source(240)),
            ("split_ladder", ladder_source(20)),
            ("read_swap", READ_SWAP),
        ):
            (generated / f"{name}.grb").write_text(source, encoding="utf-8")
            record(outdir, f"trace-{name}", ["trace", f"{name}.grb"], generated)
            record(outdir, f"run-json-{name}", ["run", f"{name}.grb", "--format", "json"], generated)
        for name, source, runner in (
            ("promo_beta_ref", PROMO_BETA_REF, "trace"),
            ("promo_beta_array", PROMO_BETA_ARRAY, "run"),
        ):
            (generated / f"{name}.grb").write_text(source, encoding="utf-8")
            for command in ("check", runner):
                record(outdir, f"{command}-{name}", [command, f"{name}.grb"], generated)
        (generated / "syntax_error.grb").write_text("main : Unit;\nmain = let () = in ();\n", encoding="utf-8")
        (generated / "type_error.grb").write_text("main : Unit;\nmain = 1;\n", encoding="utf-8")
        for command in ("run", "trace"):
            for name, args in (
                ("missing", ["missing.grb"]),
                ("syntax_error", ["syntax_error.grb"]),
                ("type_error", ["type_error.grb"]),
                ("fuel2", ["write_chain.grb", "--fuel", "2"]),
            ):
                record(outdir, f"{command}-{name}", [command, *args], generated)
        (generated / "digit.grb").write_text("main : Nat;\nmain = \u00b2;\n", encoding="utf-8")
        (generated / "deep.grb").write_text(f"main : Nat;\nmain = {'(' * 1000}1{')' * 1000};\n", encoding="utf-8")
        (generated / "comment_eof.grb").write_text("main : Unit;\nmain = (() -- never closed", encoding="utf-8")
        for name in ("digit", "deep", "comment_eof", "type_error"):
            record(outdir, f"check-{name}", ["check", f"{name}.grb"], generated)
        for name, source in UNKNOWN_VARIABLES:
            (generated / f"{name}.grb").write_text(source, encoding="utf-8")
        record(outdir, "check-unknown_variables", ["check", *(f"{name}.grb" for name, _ in UNKNOWN_VARIABLES)], generated)
        (generated / "not_utf8.grb").write_bytes(b"main : Unit;\nmain = (); -- \xff\n")
        for command in ("check", "run"):
            record(outdir, f"{command}-not_utf8", [command, "not_utf8.grb"], generated)
    record(outdir, "corpus-json", ["corpus", "--format", "json"], ROOT)
    record(outdir, "props", ["props", "--seed", "42", "--cases", "500"], ROOT)
    record(outdir, "props-mutate-split", ["props", "--seed", "42", "--cases", "500", "--mutate-split"], ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
