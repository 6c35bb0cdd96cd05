"""Host-speed calibration for the timed metrics.

The test machine shares its cores with other tenants, and its speed drifts by
up to 2x for tens of seconds to minutes at a time, longer than a run. No
statistic taken inside one run removes a slow spell that covers it. So the
timed run interleaves a fixed reference kernel with the timed work and scales
every timing by how fast the kernel ran beside it: a time `t` measured while
one kernel unit took `c` seconds reads `t * UNIT_S / c`, the time it would
take on a host where one unit takes UNIT_S.

The kernel is a small tree-walking interpreter written here: pure Python,
recursive, tuple- and dict-heavy, like gradebor's machine and checkers, so a
slow spell slows both alike. It shares no code with gradebor, so a change to
gradebor moves `t` and leaves `c` alone.
"""

from __future__ import annotations

import time

UNIT_S = 0.0017             # one unit on a 2-vCPU VM in its fast state, Python 3.11.7


def _tree(depth: int, k: int = 0) -> tuple:
    if depth == 0:
        return ("lit", k % 7) if k % 3 else ("var", f"x{k % 4}")
    kids = (_tree(depth - 1, 2 * k), _tree(depth - 1, 2 * k + 1))
    if depth % 3 == 0:
        return ("let", f"x{depth % 4}", *kids)
    return ("add" if k % 2 else "mul", *kids)


def _eval(e: tuple, env: dict) -> int:
    tag = e[0]
    if tag == "lit":
        return e[1]
    if tag == "var":
        return env.get(e[1], 1)
    if tag == "let":
        inner = dict(env)
        inner[e[1]] = _eval(e[2], env) % 97
        return _eval(e[3], inner)
    a, b = _eval(e[1], env), _eval(e[2], env)
    return (a + b) % 1009 if tag == "add" else (a * b) % 1009


_TREE = _tree(11)


def time_units(n: int) -> float:
    """Seconds taken by `n` units of the reference kernel (four walks each)."""
    t = time.perf_counter()
    for _ in range(4 * n):
        _eval(_TREE, {})
    return time.perf_counter() - t
