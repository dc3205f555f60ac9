"""Pass 2: AlgorithmSpec conformance checking.

Every :class:`~repro.api.registry.AlgorithmSpec` makes claims about
its runner — in-placeness, determinism, obliviousness, scan-kernel
purity, NULL tolerance — that downstream code (the PR 4 optimizer,
the service layer, the adversary harness) trusts without checking.
This pass cross-validates each claim against the runner's *source*,
using the taint pass's call summaries:

* ``SPEC201``/``SPEC202`` — declared in-placeness vs. whether the
  input array is actually written (directly or via a callee);
* ``SPEC203``/``SPEC204`` — ``randomized=False`` vs. reachable
  ``LasVegasFailure`` raises and RNG draws (``draws_randomness=True``
  metadata legitimizes PRF-key setup that is not Las Vegas retry);
* ``SPEC205`` — ``oblivious=True`` vs. Pass-1 findings anywhere in
  the runner's reachable code;
* ``SPEC206`` — ``scan_kernel`` kernels must not mutate their
  blocks or touch the machine;
* ``SPEC207`` — a ``null_tolerant=False`` variant of a null-tolerant
  or padded spec that never inspects the NULL sentinel;
* ``SPEC208`` — ``lint_public`` metadata entries need justifications.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

from repro.lint.findings import Finding
from repro.lint.model import FunctionInfo, Project
from repro.lint.taint import analyze_function

__all__ = ["check_specs", "reachable", "runner_info"]

#: Parameter names that denote the machine, not the input array.
_MACHINE_PARAMS = {"machine", "m", "em", "self", "cls"}


def runner_info(project: Project, runner) -> FunctionInfo | None:
    """Map a registered runner callable back to its FunctionInfo."""
    fn = inspect.unwrap(runner)
    while not hasattr(fn, "__code__") and hasattr(fn, "func"):
        fn = fn.func  # functools.partial
    code = getattr(fn, "__code__", None)
    if code is None:
        return None
    path = Path(code.co_filename)
    qual = fn.__qualname__.replace(".<locals>", "")
    for mod in project.modules.values():
        if mod.path.name == path.name and str(mod.path) == str(path):
            return mod.functions.get(qual)
    return None


def reachable(project: Project, root: FunctionInfo) -> list[FunctionInfo]:
    """BFS closure over statically-resolvable calls."""
    seen: dict[str, FunctionInfo] = {root.qualname: root}
    queue = [root]
    while queue:
        func = queue.pop()
        scope = func.qualname[len(func.module.dotted) + 1 :]
        for node in ast.walk(func.node):
            if not isinstance(node, ast.Call):
                continue
            callee = project.resolve_call(func.module, node.func, scope=scope)
            if callee is not None and callee.qualname not in seen:
                seen[callee.qualname] = callee
                queue.append(callee)
    return list(seen.values())


def _input_param(func: FunctionInfo) -> str | None:
    for p in func.params:
        if p not in _MACHINE_PARAMS and not p.startswith("_"):
            return p
    return None


def check_specs(project: Project, specs: dict) -> list[Finding]:
    findings: list[Finding] = []
    # Variant names reachable from padded/null-tolerant parents.
    padded_variants: set[str] = set()
    for spec in specs.values():
        if getattr(spec, "null_tolerant", False) or getattr(
            spec, "padded_output", False
        ):
            padded_variants.update(getattr(spec, "variants", ()) or ())

    for name, spec in sorted(specs.items()):
        runner = getattr(spec, "runner", None)
        info = runner_info(project, runner) if runner is not None else None
        if info is None:
            continue
        loc = (info.module.relpath, info.line)
        s = info.summary

        in_place = bool(getattr(spec, "in_place", False))
        input_param = _input_param(info)
        writes_input = input_param is not None and input_param in s.writes_params
        if not in_place and writes_input:
            findings.append(
                Finding(
                    rule="SPEC201",
                    path=loc[0],
                    line=loc[1],
                    message=(
                        f"spec '{name}' declares in_place=False but runner "
                        f"'{info.name}' writes its input array "
                        f"'{input_param}'"
                    ),
                )
            )
        if in_place and input_param is not None and not writes_input:
            findings.append(
                Finding(
                    rule="SPEC202",
                    path=loc[0],
                    line=loc[1],
                    message=(
                        f"spec '{name}' declares in_place=True but runner "
                        f"'{info.name}' never writes its input array "
                        f"'{input_param}' (stale declaration)"
                    ),
                )
            )

        if not getattr(spec, "randomized", False):
            if s.raises_lasvegas:
                findings.append(
                    Finding(
                        rule="SPEC203",
                        path=loc[0],
                        line=loc[1],
                        message=(
                            f"spec '{name}' declares randomized=False but a "
                            "LasVegasFailure raise is reachable from runner "
                            f"'{info.name}'"
                        ),
                    )
                )
            if s.uses_rng and not getattr(spec, "draws_randomness", False):
                findings.append(
                    Finding(
                        rule="SPEC204",
                        path=loc[0],
                        line=loc[1],
                        message=(
                            f"spec '{name}' declares randomized=False but "
                            f"runner '{info.name}' draws from the RNG "
                            "(set draws_randomness=True if the draws are "
                            "setup keys, not Las Vegas retries)"
                        ),
                    )
                )

        if getattr(spec, "oblivious", False):
            bad: list[Finding] = []
            for func in reachable(project, info):
                _, fnd = analyze_function(project=project, func=func, report=True)
                bad.extend(fnd)
            if bad:
                first = min(bad, key=lambda f: (f.path, f.line))
                findings.append(
                    Finding(
                        rule="SPEC205",
                        path=loc[0],
                        line=loc[1],
                        message=(
                            f"spec '{name}' declares oblivious=True but its "
                            f"reachable code has {len(bad)} taint finding(s), "
                            f"first at {first.path}:{first.line} ({first.rule})"
                        ),
                    )
                )

        kernel = getattr(spec, "scan_kernel", None)
        if kernel is not None:
            kinfo = runner_info(project, kernel)
            if kinfo is not None and (
                kinfo.summary.does_io or kinfo.summary.writes_params
            ):
                what = (
                    "performs machine I/O"
                    if kinfo.summary.does_io
                    else "mutates parameter(s) "
                    + ", ".join(sorted(kinfo.summary.writes_params))
                )
                findings.append(
                    Finding(
                        rule="SPEC206",
                        path=kinfo.module.relpath,
                        line=kinfo.line,
                        message=(
                            f"scan_kernel '{kinfo.name}' of spec "
                            f"'{name}' {what}; kernels must be pure"
                        ),
                    )
                )

        if (
            not getattr(spec, "null_tolerant", True)
            and name in padded_variants
            and not s.touches_null
        ):
            findings.append(
                Finding(
                    rule="SPEC207",
                    path=loc[0],
                    line=loc[1],
                    message=(
                        f"spec '{name}' declares null_tolerant=False, is a "
                        "variant of a padded/null-tolerant spec, yet runner "
                        f"'{info.name}' never tests the NULL sentinel "
                        "(NULL_KEY / is_empty / occupancy)"
                    ),
                )
            )

        for entry in getattr(spec, "lint_public", ()) or ():
            expr, just = (entry + ("",))[:2] if isinstance(entry, tuple) else (entry, "")
            if not str(just).strip():
                findings.append(
                    Finding(
                        rule="SPEC208",
                        path=loc[0],
                        line=loc[1],
                        message=(
                            f"spec '{name}' lint_public entry "
                            f"{str(expr)!r} has no justification"
                        ),
                    )
                )
    return findings
