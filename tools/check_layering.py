#!/usr/bin/env python
"""Layering check: the pool layer knows no MD, the kernel backends know no
MD either, the service knows no balancer, the builders know nothing above
MD, the engine and the minimizer call no reference force function.

Layering (DESIGN.md, "The real parallel engine"):

* ``repro.pool``  — generic supervised pool runtime; imports nothing
  from ``repro.md`` (or any other domain layer listed below), nor from the
  simulated runtime (``repro.runtime``, ``repro.core``): it reads the one
  fault plan from ``repro.util.faults``.
* ``repro.backend`` — the kernels; imports nothing from ``repro.md``,
  ``repro.pool``, ``repro.costmodel`` or ``repro.service``: exclusions and
  LJ tables cross the kernel contract as arrays, never as md types (the
  md modules import the backends, so the reverse would be a cycle).
* ``repro.service`` — the job scheduler; imports nothing from
  ``repro.balancer``, ``repro.instrument`` or ``repro.core``: slices run
  from one shared queue, so jobs are never placed by a balancer (it
  needs only ``repro.md.jobs`` and ``repro.pool.lease``).
* ``repro.builder`` — the synthetic structure builders (today they import
  only ``repro.md`` and ``repro.util``); import nothing from ``repro.pool``,
  ``repro.service``, the simulated machine (``repro.runtime``,
  ``repro.core``, ``repro.balancer``, ``repro.instrument``) or
  ``repro.costmodel``: a system is built before any of those runs, and
  they read the built system, never the reverse.
* ``repro.md.tasks`` / ``repro.md.parallel`` — the MD workload and its
  orchestration; these may import ``repro.pool``, never the reverse.
* ``repro.md.engine`` and the step path under it (``repro.md.parallel``,
  ``repro.md.tasks``, ``repro.md.jobs``) — a step is ``wrap → dispatch →
  collect``: every force term is a task, so the reference force functions
  are never *used* there (they may be imported: the perf harness binds
  spans to those module attributes).
* ``repro.md.minimize`` — relaxation evaluates every trial on a
  ``SequentialEngine``'s force tasks; it uses no reference force function
  either, so it cannot regrow a force path of its own.

The check is static (AST walk over every module in the tables below),
so it catches lazy/function-local imports too.  Run directly or
via ``tests/test_pool/test_layering.py``; CI runs it in the lint step.

Exit status: 0 clean, 1 violation(s) found.
"""

from __future__ import annotations

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: package -> import prefixes it must never reference
FORBIDDEN: dict[str, tuple[str, ...]] = {
    "repro/pool": (
        "repro.md", "repro.balancer", "repro.instrument", "repro.runtime",
        "repro.core",
    ),
    "repro/backend": ("repro.md", "repro.pool", "repro.costmodel", "repro.service"),
    "repro/service": ("repro.balancer", "repro.instrument", "repro.core"),
    "repro/builder": (
        "repro.pool", "repro.service", "repro.runtime", "repro.core",
        "repro.balancer", "repro.instrument", "repro.costmodel",
    ),
}

_REFERENCE_FORCES = ("compute_bonded", "compute_nonbonded", "compute_ewald")

#: module -> names it may import but must never reference: a driver-side
#: force branch cannot quietly regrow
UNUSED: dict[str, tuple[str, ...]] = {
    f"repro/md/{name}.py": _REFERENCE_FORCES
    for name in ("engine", "parallel", "tasks", "jobs", "minimize")
}


def imported_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            yield node.lineno, node.module


def check() -> list[str]:
    violations = []
    for package, banned in FORBIDDEN.items():
        for path in sorted((SRC / package).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for lineno, name in imported_names(tree):
                if any(
                    name == b or name.startswith(b + ".") for b in banned
                ):
                    violations.append(
                        f"{path.relative_to(SRC.parent)}:{lineno}: "
                        f"{package} must not import {name}"
                    )
    for module, banned in UNUSED.items():
        path = SRC / module
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            # a bare name (ast.Name.id) or the tail of a dotted one
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in banned:
                violations.append(
                    f"{path.relative_to(SRC.parent)}:{node.lineno}: "
                    f"{module} must not call {name} (force terms are tasks)"
                )
    return violations


def main() -> int:
    violations = check()
    for v in violations:
        print(v, file=sys.stderr)
    if violations:
        return 1
    print(
        "layering OK: repro.pool imports no domain layer or simulated "
        "runtime, repro.backend "
        "imports no md/pool/costmodel/service, repro.service imports no "
        "balancer/instrument/core, repro.builder imports no pool/service/"
        "simulated machine/costmodel, the step path and the minimizer call no "
        "reference force function"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
