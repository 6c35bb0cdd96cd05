"""A graded linear calculus with uniqueness and fractional-permission borrowing.

The package provides the surface language (.grb files), a usage-synthesizing
typechecker, a call-by-value heap machine with trace capture, and executable
checkers for the calculus' soundness theorems.
"""

from .grades import (
    INTERVAL, NAT, NAT_LEQ, SEMIRINGS, Grade, Permission, STAR, frac_perm,
    grade_add, grade_leq, grade_mul, perm_add, perm_half, perm_is_writable,
)
from .parser import SourceProgram, parse_program, parse_term, parse_type, print_term, print_type
from .typecheck import CheckError, Checker, check_program
from .machine import Heap, Machine, Trace
from .metatheory import (
    check_borrow_safety, check_equational, check_preservation, check_progress,
    check_trace, check_uniqueness, heap_compat, run_property_suites,
)
from .generator import generate_program, generate_programs

__all__ = [
    "INTERVAL", "NAT", "NAT_LEQ", "SEMIRINGS", "Grade", "Permission", "STAR",
    "frac_perm", "grade_add", "grade_leq", "grade_mul", "perm_add",
    "perm_half", "perm_is_writable", "SourceProgram", "parse_program",
    "parse_term", "parse_type", "print_term", "print_type", "CheckError",
    "Checker", "check_program", "Heap", "Machine", "Trace",
    "check_borrow_safety", "check_equational", "check_preservation",
    "check_progress", "check_trace", "check_uniqueness", "heap_compat",
    "run_property_suites", "generate_program", "generate_programs",
]
