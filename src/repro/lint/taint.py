"""Pass 1: intraprocedural taint analysis with call summaries.

The adversary in the paper's model observes the *I/O sequence* — which
blocks are read or written, on which arrays, and when arrays are
allocated or freed.  Client-side (in-cache) computation is invisible.
A value is *tainted* when it derives from block payloads the machine
returned (``read_many`` results, ``io_rounds`` read streams, gathered
record columns).  The walker reports taint flowing into:

* ``OBL101`` — an ``if``/``while``/``assert`` condition that guards
  observable effects (machine I/O, allocation, or a raise);
* ``OBL102`` — an index, range, count or array operand of a machine
  I/O or allocation call;
* ``OBL103`` — a loop bound or iterable whose body has effects.

Data-dependent branches whose branches are pure in-cache computation
are *not* violations — the adversary cannot see them — so conditions
only fire when the guarded subtree has effects.  Public quantities
(model parameters ``n``/``M``/``B``, array metadata, RNG draws, seeds)
are sanitized structurally; deliberate declassifications use the
``# oblint: public(expr) -- justification`` pragma.

Every function is analyzed with its parameters seeded with symbolic
``param:<name>`` origins.  Findings whose chain contains a concrete
``payload:`` origin are reported; findings reachable only through a
parameter become :class:`~repro.lint.model.SinkRecord` entries in the
function's summary and are re-checked at every call site — a
caller passing payload-tainted data into such a parameter gets the
finding at the call line, with the chain pointing into the callee.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.findings import Finding
from repro.lint.model import FunctionInfo, Project, SinkRecord, Summary

__all__ = ["MACHINE_OPS", "TaintWalker", "compute_summaries", "analyze_function"]


@dataclass(frozen=True)
class OpSpec:
    """Sink/write/source positions of one machine entry point."""

    sinks: tuple[int, ...] = ()
    arrays: tuple[int, ...] = ()
    writes: tuple[int, ...] = ()
    payload: bool = False


#: Machine/EMArray entry points, dispatched by attribute name (and
#: arity for ``read``/``write``, which ORAM frontends reuse with the
#: index hidden by design).
MACHINE_OPS: dict[str, OpSpec] = {
    "alloc": OpSpec(sinks=(0,)),
    "alloc_cells": OpSpec(sinks=(0,)),
    "free": OpSpec(arrays=(0,)),
    "read_many": OpSpec(sinks=(1,), arrays=(0,), payload=True),
    "write_many": OpSpec(sinks=(1,), arrays=(0,), writes=(0,)),
    "copy_many": OpSpec(sinks=(1, 3), arrays=(0, 2), writes=(2,)),
    "swap_many": OpSpec(sinks=(1, 2), arrays=(0,), writes=(0,)),
    "gather": OpSpec(sinks=(1,), arrays=(0,), payload=True),
    "scatter": OpSpec(sinks=(1,), arrays=(0,), writes=(0,)),
    "extract_records": OpSpec(arrays=(0,), payload=True),
    "load_records": OpSpec(),
    "begin_chunked_load": OpSpec(sinks=(0,)),
    "load_chunk": OpSpec(arrays=(0,)),
    "stage_records": OpSpec(),
    "repack_resident": OpSpec(arrays=(0,)),
    "load_flat": OpSpec(),
    "raw": OpSpec(payload=True),
    "flat": OpSpec(payload=True),
    "nonempty": OpSpec(payload=True),
    "io_rounds": OpSpec(payload=True),  # steps handled specially
}

#: Attributes whose value is a public model parameter regardless of
#: the object it hangs off (EMMachine/EMArray geometry).
#: ``array`` is the EMArray *handle* inside result carriers like
#: ConsolidationResult: handles are plan structure (their ids already
#: appear in the trace), only payload contents are secret.
PUBLIC_ATTRS = {
    "B",
    "M",
    "m",
    "array",
    "array_id",
    "capacity_blocks",
    "num_blocks",
    "num_cells",
}

#: ``x.append(v)`` / ``x.push(v)``-style receiver mutators: the
#: receiver inherits the argument origins (how ``heap`` gets tainted
#: in the merge-sort baseline).
_MUTATOR_ATTRS = {"append", "extend", "add", "insert", "update", "setdefault"}
#: ``heapq.heappush(heap, item)``-style arg-0 mutators.
_ARG0_MUTATORS = {"heappush", "heappushpop", "heapify"}

#: Null-sentinel vocabulary for SPEC207.
_NULL_NAMES = {"NULL_KEY", "is_empty", "occupancy"}

_EMPTY: frozenset = frozenset()


def _terminal_name(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Call):
        return _terminal_name(expr.func)
    return None


def _is_rng_call(func: ast.expr) -> bool:
    name = _terminal_name(func)
    if name and (name == "rng" or name.endswith("rng") or name == "default_rng"):
        return True
    if isinstance(func, ast.Attribute):
        recv = _terminal_name(func.value)
        if recv and (recv == "rng" or recv.endswith("rng") or recv == "random"):
            return True
    return False


def _payload_tokens(origins: frozenset) -> tuple[str, ...]:
    return tuple(sorted(t for t in origins if t.startswith("payload:")))


def _param_tokens(origins: frozenset) -> tuple[str, ...]:
    return tuple(
        sorted(t.split(":", 1)[1] for t in origins if t.startswith("param:"))
    )


def _chain(origins: frozenset) -> tuple[str, ...]:
    toks = sorted(origins)
    toks = [t for t in toks if t.startswith("payload:")] + [
        t for t in toks if not t.startswith("payload:")
    ]
    return tuple(t.replace("payload:", "payload read at ") for t in toks[:4])


class TaintWalker:
    """Analyze one function body, producing a summary and findings."""

    def __init__(
        self,
        func: FunctionInfo,
        project: Project,
        *,
        report: bool = False,
        extra_public: frozenset = frozenset(),
    ) -> None:
        self.func = func
        self.mod = func.module
        self.project = project
        self.report = report
        self.extra_public = extra_public
        self.env: dict[str, frozenset] = {
            p: frozenset({f"param:{p}"}) for p in func.params
        }
        self.env_fields: dict[str, dict[str, frozenset]] = {}
        self.control: list[frozenset] = []
        self.findings: list[Finding] = []
        self.summary = Summary()
        self._sinks: dict[str, set[SinkRecord]] = {}
        # dotted-in-module scope for nested-call resolution
        self._scope = func.qualname[len(func.module.dotted) + 1 :]
        # Function-level nonoblivious opt-out: pragma on the def line
        # or the docstring block preceding the first real statement.
        self.declassified = False
        first = func.node.body[0] if func.node.body else func.node
        pragma = self.mod.pragmas.covering(
            func.node.lineno, getattr(first, "end_lineno", func.node.lineno)
        )
        if pragma is not None and pragma.kind == "nonoblivious":
            pragma.used = True
            self.declassified = True

    # ----------------------------------------------------------- run

    def run(self) -> Summary:
        self.visit_body(self.func.node.body)
        self.summary.param_sinks = {
            p: frozenset(list(s)[:8]) for p, s in self._sinks.items() if s
        }
        return self.summary

    # ------------------------------------------------------ plumbing

    def _control_origins(self) -> frozenset:
        out: frozenset = _EMPTY
        for c in self.control:
            out |= c
        return out

    def _record(
        self, rule: str, node: ast.AST, message: str, origins: frozenset
    ) -> None:
        """Report (payload taint) or summarize (param-only taint) a sink."""
        if self.declassified:
            return
        payload = _payload_tokens(origins)
        params = _param_tokens(origins)
        if payload:
            if self.report:
                if self.mod.pragmas.suppresses(
                    node.lineno, getattr(node, "end_lineno", None)
                ):
                    return
                self.findings.append(
                    Finding(
                        rule=rule,
                        path=self.mod.relpath,
                        line=node.lineno,
                        message=message,
                        chain=_chain(origins),
                    )
                )
        elif params:
            if self.mod.pragmas.covering(
                node.lineno, getattr(node, "end_lineno", None)
            ):
                return
            for p in params:
                self._sinks.setdefault(p, set()).add(
                    SinkRecord(rule=rule, line=node.lineno, message=message)
                )

    def _bind(self, target: ast.expr, origins: frozenset) -> None:
        origins = origins | self._control_origins()
        if isinstance(target, ast.Name):
            self.env[target.id] = origins
            self.env_fields.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, origins)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, origins)
        elif isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Name):
                if base.id in self.func.params:
                    self.summary.writes_params |= {base.id}
                self.env[base.id] = self.env.get(base.id, _EMPTY) | origins
        elif isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Name) and base.id in self.env_fields:
                self.env_fields[base.id][target.attr] = origins

    # ----------------------------------------------------- statements

    def visit_body(self, body: list) -> None:
        for stmt in body:
            self.visit_stmt(stmt)

    def visit_stmt(self, stmt: ast.stmt) -> None:
        method = getattr(self, f"stmt_{type(stmt).__name__}", None)
        if method is not None:
            method(stmt)
            return
        # Generic: evaluate contained expressions, recurse into bodies.
        for expr in _stmt_exprs(stmt):
            self.origins_of(expr)
        for inner in _stmt_bodies(stmt):
            self.visit_body(inner)

    def stmt_FunctionDef(self, stmt: ast.FunctionDef) -> None:
        pass  # indexed and analyzed separately

    stmt_AsyncFunctionDef = stmt_FunctionDef

    def stmt_ClassDef(self, stmt: ast.ClassDef) -> None:
        pass

    def stmt_Assign(self, stmt: ast.Assign) -> None:
        ctor = self._constructor_fields(stmt)
        origins = self.origins_of(stmt.value)
        for t in stmt.targets:
            self._bind(t, origins)
        if ctor is not None and len(stmt.targets) == 1:
            t = stmt.targets[0]
            if isinstance(t, ast.Name):
                self.env[t.id] = self._control_origins()
                self.env_fields[t.id] = ctor
        self._apply_assignment_pragma(stmt, stmt.targets)

    def stmt_AugAssign(self, stmt: ast.AugAssign) -> None:
        origins = self.origins_of(stmt.value)
        if isinstance(stmt.target, ast.Name):
            origins |= self.env.get(stmt.target.id, _EMPTY)
        self._bind(stmt.target, origins)
        self._apply_assignment_pragma(stmt, [stmt.target])

    def stmt_AnnAssign(self, stmt: ast.AnnAssign) -> None:
        origins = self.origins_of(stmt.value) if stmt.value else _EMPTY
        self._bind(stmt.target, origins)
        self._apply_assignment_pragma(stmt, [stmt.target])

    def stmt_Return(self, stmt: ast.Return) -> None:
        origins = self.origins_of(stmt.value) if stmt.value else _EMPTY
        self.summary.returns |= origins | self._control_origins()

    def stmt_Raise(self, stmt: ast.Raise) -> None:
        self.summary.raises_any = True
        name = None
        if stmt.exc is not None:
            self.origins_of(stmt.exc)
            name = _terminal_name(stmt.exc)
        if name in self.project.lasvegas_names:
            self.summary.raises_lasvegas = True

    def stmt_Assert(self, stmt: ast.Assert) -> None:
        origins = self.origins_of(stmt.test)
        if stmt.msg is not None:
            self.origins_of(stmt.msg)
        self.summary.raises_any = True
        if origins:
            self._record(
                "OBL101",
                stmt,
                "data-tainted assert condition (an assert abort is "
                "adversary-visible)",
                origins,
            )

    def stmt_If(self, stmt: ast.If) -> None:
        origins = self.origins_of(stmt.test)
        sanctioned = self.mod.pragmas.covering(
            stmt.test.lineno, stmt.test.end_lineno
        )
        if sanctioned is not None:
            sanctioned.used = True
            origins = _EMPTY
        if origins and (
            self._has_effects(stmt.body) or self._has_effects(stmt.orelse)
        ):
            self._record(
                "OBL101",
                stmt.test,
                "data-tainted branch condition guards machine I/O, "
                "allocation, or an abort",
                origins,
            )
        self.control.append(origins)
        try:
            self.visit_body(stmt.body)
            self.visit_body(stmt.orelse)
        finally:
            self.control.pop()

    def stmt_While(self, stmt: ast.While) -> None:
        origins = self.origins_of(stmt.test)
        sanctioned = self.mod.pragmas.covering(
            stmt.test.lineno, stmt.test.end_lineno
        )
        if sanctioned is not None:
            sanctioned.used = True
            origins = _EMPTY
        if origins and (
            self._has_effects(stmt.body) or self._has_effects(stmt.orelse)
        ):
            self._record(
                "OBL101",
                stmt.test,
                "data-tainted while condition: the iteration count is "
                "adversary-visible when the body performs I/O",
                origins,
            )
        self.control.append(origins)
        try:
            # Two passes: loop-carried taint (a variable tainted at the
            # bottom of the body feeding a sink at the top) needs one
            # extra visit to reach its fixpoint.
            self.visit_body(stmt.body)
            self.visit_body(stmt.body)
            self.visit_body(stmt.orelse)
        finally:
            self.control.pop()

    def stmt_For(self, stmt: ast.For) -> None:
        it = stmt.iter
        if isinstance(it, ast.Call) and _terminal_name(it.func) == "range":
            origins = _EMPTY
            for a in it.args:
                origins |= self.origins_of(a)
        else:
            origins = self.origins_of(it)
        sanctioned = self.mod.pragmas.covering(it.lineno, it.end_lineno)
        if sanctioned is not None:
            sanctioned.used = True
            origins = _EMPTY
        if origins and (
            self._has_effects(stmt.body) or self._has_effects(stmt.orelse)
        ):
            self._record(
                "OBL103",
                it,
                "data-tainted loop bound/iterable: the trip count is "
                "adversary-visible when the body performs I/O",
                origins,
            )
        self._bind(stmt.target, origins)
        self.control.append(origins)
        try:
            self.visit_body(stmt.body)
            self.visit_body(stmt.body)  # loop-carried taint, see stmt_While
            self.visit_body(stmt.orelse)
        finally:
            self.control.pop()

    def stmt_With(self, stmt: ast.With) -> None:
        for item in stmt.items:
            origins = self.origins_of(item.context_expr)
            if item.optional_vars is not None:
                self._bind(item.optional_vars, origins)
        self.visit_body(stmt.body)

    def stmt_Try(self, stmt: ast.Try) -> None:
        before_lv = self.summary.raises_lasvegas
        before_any = self.summary.raises_any
        self.visit_body(stmt.body)
        caught: set[str] = set()
        for handler in stmt.handlers:
            caught |= _handler_names(handler)
        # A handler for the Las Vegas family (or a broad base that
        # covers it) absorbs the flag raised inside the try body; the
        # handler bodies may of course re-raise and set it again.
        broad = bool(caught & {"Exception", "BaseException", ""})
        if broad or caught & (self.project.lasvegas_names | {"EMError", "ReproError"}):
            self.summary.raises_lasvegas = before_lv
        if broad:
            self.summary.raises_any = before_any
        for handler in stmt.handlers:
            if handler.name:
                self.env[handler.name] = _EMPTY
            self.visit_body(handler.body)
        self.visit_body(stmt.orelse)
        self.visit_body(stmt.finalbody)

    def stmt_Expr(self, stmt: ast.Expr) -> None:
        self.origins_of(stmt.value)

    # ---------------------------------------------------- expressions

    def origins_of(self, expr: ast.expr | None) -> frozenset:
        if expr is None:
            return _EMPTY
        method = getattr(self, f"expr_{type(expr).__name__}", None)
        if method is not None:
            return method(expr)
        out: frozenset = _EMPTY
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                out |= self.origins_of(child)
            elif isinstance(child, ast.comprehension):
                out |= self.origins_of(child.iter)
                self._bind(child.target, self.origins_of(child.iter))
                for cond in child.ifs:
                    out |= self.origins_of(cond)
        return out

    def expr_Constant(self, expr: ast.Constant) -> frozenset:
        return _EMPTY

    def expr_Name(self, expr: ast.Name) -> frozenset:
        if expr.id in self.extra_public:
            return _EMPTY
        if expr.id in _NULL_NAMES:
            self.summary.touches_null = True
        return self.env.get(expr.id, _EMPTY)

    def expr_Lambda(self, expr: ast.Lambda) -> frozenset:
        return _EMPTY

    def expr_Tuple(self, expr: ast.Tuple) -> frozenset:
        # io_rounds step tuples: ("r", arr, idx) / ("w", arr, idx,
        # content).  The content element is written *payload* — it is
        # re-encrypted before hitting storage, so its taint must not
        # leak onto the step structure.
        elts = expr.elts
        if (
            len(elts) >= 3
            and isinstance(elts[0], ast.Constant)
            and elts[0].value in ("r", "w")
        ):
            out = self.origins_of(elts[1]) | self.origins_of(elts[2])
            for extra in elts[3:]:
                self.origins_of(extra)  # still walk for sinks/flags
            return out
        out: frozenset = _EMPTY
        for elt in elts:
            out |= self.origins_of(elt)
        return out

    def expr_NamedExpr(self, expr: ast.NamedExpr) -> frozenset:
        origins = self.origins_of(expr.value)
        self._bind(expr.target, origins)
        return origins | self._control_origins()

    def expr_Attribute(self, expr: ast.Attribute) -> frozenset:
        if expr.attr in PUBLIC_ATTRS:
            return _EMPTY
        if isinstance(expr.value, ast.Name):
            fields = self.env_fields.get(expr.value.id)
            if fields is not None and expr.attr in fields:
                return fields[expr.attr]
        if expr.attr in _NULL_NAMES:
            self.summary.touches_null = True
        return self.origins_of(expr.value)

    def expr_Compare(self, expr: ast.Compare) -> frozenset:
        if any(isinstance(op, (ast.Is, ast.IsNot)) for op in expr.ops):
            # Identity tests compare plan structure (handles, None),
            # never payload contents.
            self.origins_of(expr.left)
            for c in expr.comparators:
                self.origins_of(c)
            return _EMPTY
        out = self.origins_of(expr.left)
        for c in expr.comparators:
            out |= self.origins_of(c)
        return out

    def expr_Call(self, expr: ast.Call) -> frozenset:
        func = expr.func
        name = _terminal_name(func)
        arg_origins = [self.origins_of(a) for a in expr.args]
        kw_origins = {
            kw.arg: self.origins_of(kw.value) for kw in expr.keywords
        }
        all_args: frozenset = _EMPTY
        for o in arg_origins:
            all_args |= o
        for o in kw_origins.values():
            all_args |= o

        if _is_rng_call(func):
            self.summary.uses_rng = True
            return _EMPTY

        if name in _NULL_NAMES:
            self.summary.touches_null = True

        if isinstance(func, ast.Attribute):
            spec = self._machine_spec(func.attr, expr)
            if spec is not None:
                return self._machine_call(expr, func.attr, spec, arg_origins)
            if func.attr in _MUTATOR_ATTRS and isinstance(func.value, ast.Name):
                recv = func.value.id
                self.env[recv] = (
                    self.env.get(recv, _EMPTY) | all_args | self._control_origins()
                )
                return _EMPTY
            if func.attr in _ARG0_MUTATORS and expr.args:
                arg0 = expr.args[0]
                if isinstance(arg0, ast.Name):
                    extra: frozenset = _EMPTY
                    for o in arg_origins[1:]:
                        extra |= o
                    self.env[arg0.id] = (
                        self.env.get(arg0.id, _EMPTY)
                        | extra
                        | self._control_origins()
                    )
                return self.env.get(arg0.id, _EMPTY) if isinstance(arg0, ast.Name) else all_args

        callee = self.project.resolve_call(self.mod, func, scope=self._scope)
        if callee is not None and callee is not self.func:
            return self._summary_call(expr, callee, arg_origins, kw_origins)

        # Unknown call: conservative propagation through arguments.
        return all_args | self.origins_of(func)

    # ------------------------------------------------- call handling

    def _machine_spec(self, attr: str, expr: ast.Call) -> OpSpec | None:
        if attr not in MACHINE_OPS:
            # Arity-dispatched scalar forms: machine.read(arr, i) /
            # machine.write(arr, i, blk) vs ORAM's read(i)/write(i, blk)
            # where the index is hidden by the ORAM construction.
            nargs = len(expr.args) + len(expr.keywords)
            if attr == "read":
                if nargs >= 2:
                    return OpSpec(sinks=(1,), arrays=(0,), payload=True)
                return OpSpec(payload=True)
            if attr == "write":
                if nargs >= 3:
                    return OpSpec(sinks=(1,), arrays=(0,), writes=(0,))
                return OpSpec()
            return None
        return MACHINE_OPS[attr]

    def _machine_call(
        self,
        expr: ast.Call,
        attr: str,
        spec: OpSpec,
        arg_origins: list[frozenset],
    ) -> frozenset:
        self.summary.does_io = True
        if attr == "io_rounds":
            self._check_io_rounds(expr)
            self.summary.reads_payload = True
            return frozenset({f"payload:{self.mod.relpath}:{expr.lineno}"})
        for i in spec.sinks:
            if i < len(arg_origins) and arg_origins[i]:
                self._record(
                    "OBL102",
                    expr,
                    f"data-tainted index/range argument {i} of machine "
                    f"op '{attr}'",
                    arg_origins[i],
                )
        for i in spec.arrays:
            if i < len(arg_origins) and arg_origins[i]:
                self._record(
                    "OBL102",
                    expr,
                    f"data-dependent array operand {i} of machine op "
                    f"'{attr}' (which array is touched leaks data)",
                    arg_origins[i],
                )
        for i in spec.writes:
            if i < len(expr.args):
                arg = expr.args[i]
                if isinstance(arg, ast.Name) and arg.id in self.func.params:
                    self.summary.writes_params |= {arg.id}
        if spec.payload:
            self.summary.reads_payload = True
            return frozenset({f"payload:{self.mod.relpath}:{expr.lineno}"})
        return _EMPTY

    def _check_io_rounds(self, expr: ast.Call) -> None:
        if not expr.args:
            return
        steps = expr.args[0]
        if not isinstance(steps, (ast.List, ast.Tuple)):
            origins = self.origins_of(steps)
            if origins:
                self._record(
                    "OBL102",
                    expr,
                    "data-tainted step list passed to io_rounds",
                    origins,
                )
            return
        for elt in steps.elts:
            if not isinstance(elt, (ast.Tuple, ast.List)) or len(elt.elts) < 3:
                origins = self.origins_of(elt)
                if origins:
                    self._record(
                        "OBL102", elt, "data-tainted io_rounds step", origins
                    )
                continue
            arr_origins = self.origins_of(elt.elts[1])
            if arr_origins:
                self._record(
                    "OBL102",
                    elt.elts[1],
                    "data-dependent array operand in io_rounds step",
                    arr_origins,
                )
            idx_origins = self.origins_of(elt.elts[2])
            if idx_origins:
                self._record(
                    "OBL102",
                    elt.elts[2],
                    "data-tainted index stream in io_rounds step",
                    idx_origins,
                )
            for extra in elt.elts[3:]:
                if not isinstance(extra, ast.Lambda):
                    self.origins_of(extra)
            # write payload callables run in-cache; their results are
            # re-encrypted before hitting storage, so contents are free.

    def _summary_call(
        self,
        expr: ast.Call,
        callee: FunctionInfo,
        arg_origins: list[frozenset],
        kw_origins: dict,
    ) -> frozenset:
        s = callee.summary
        bound: dict[str, frozenset] = {}
        for i, o in enumerate(arg_origins):
            if i < len(callee.params):
                bound[callee.params[i]] = o
        for k, o in kw_origins.items():
            if k in callee.params:
                bound[k] = o

        self.summary.does_io |= s.does_io
        self.summary.uses_rng |= s.uses_rng
        self.summary.raises_lasvegas |= s.raises_lasvegas
        self.summary.raises_any |= s.raises_any
        self.summary.reads_payload |= s.reads_payload
        self.summary.touches_null |= s.touches_null

        # Param sinks inside the callee fire with the caller's args.
        for pname, records in s.param_sinks.items():
            origins = bound.get(pname)
            if not origins:
                continue
            for rec in sorted(records, key=lambda r: (r.rule, r.line)):
                self._record(
                    rec.rule,
                    expr,
                    f"{rec.message} [via {callee.name}() at "
                    f"{callee.module.relpath}:{rec.line}]",
                    origins,
                )

        # Callee writes of our parameters propagate the mutation.
        for pname in s.writes_params:
            idx = callee.params.index(pname) if pname in callee.params else -1
            arg = None
            if 0 <= idx < len(expr.args):
                arg = expr.args[idx]
            else:
                for kw in expr.keywords:
                    if kw.arg == pname:
                        arg = kw.value
            if isinstance(arg, ast.Name) and arg.id in self.func.params:
                self.summary.writes_params |= {arg.id}

        out: frozenset = _EMPTY
        for token in s.returns:
            if token.startswith("param:"):
                out |= bound.get(token.split(":", 1)[1], _EMPTY)
            else:
                out |= {token}
        return out | self._control_origins()

    # ----------------------------------------------------- utilities

    def _apply_assignment_pragma(self, stmt: ast.stmt, targets: list) -> None:
        """A ``public(expr)`` pragma on an assignment sanitizes the
        assigned names it mentions (all of them when the expression
        names none — e.g. ``public(len(order))``)."""
        pragma = self.mod.pragmas.covering(stmt.lineno, stmt.end_lineno)
        if pragma is None or pragma.kind != "public":
            return
        pragma.used = True
        target_names = set()
        for t in targets:
            target_names |= _target_names(t)
        mentioned = set(pragma.names) & target_names
        for name in mentioned or target_names:
            self.env[name] = _EMPTY

    def _constructor_fields(self, stmt: ast.Assign) -> dict | None:
        """Field-sensitive tracking for ``x = SomeDataclass(...)``."""
        value = stmt.value
        if not isinstance(value, ast.Call):
            return None
        name = None
        if isinstance(value.func, ast.Name):
            name = value.func.id
        if name is None:
            return None
        fields = self.project.class_fields_for(self.mod, name)
        if not fields:
            return None
        out: dict[str, frozenset] = {}
        for i, arg in enumerate(value.args):
            if i < len(fields):
                out[fields[i]] = self.origins_of(arg) | self._control_origins()
        for kw in value.keywords:
            if kw.arg in fields:
                out[kw.arg] = self.origins_of(kw.value) | self._control_origins()
        return out

    def _has_effects(self, body: list) -> bool:
        """Does the subtree perform adversary-visible actions?"""
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                if isinstance(node, ast.Raise):
                    return True
                if isinstance(node, ast.Assert):
                    return True
                if isinstance(node, ast.Call):
                    func = node.func
                    if isinstance(func, ast.Attribute) and (
                        func.attr in MACHINE_OPS or func.attr in ("read", "write")
                    ):
                        return True
                    callee = self.project.resolve_call(
                        self.mod, func, scope=self._scope
                    )
                    if callee is not None and (
                        callee.summary.does_io or callee.summary.raises_any
                    ):
                        return True
        return False


def _handler_names(handler: ast.ExceptHandler) -> set[str]:
    """Exception class names an ``except`` clause catches ("" = bare)."""
    t = handler.type
    if t is None:
        return {""}
    elts = t.elts if isinstance(t, ast.Tuple) else [t]
    out: set[str] = set()
    for e in elts:
        if isinstance(e, ast.Name):
            out.add(e.id)
        elif isinstance(e, ast.Attribute):
            out.add(e.attr)
    return out


def _target_names(target: ast.expr) -> set[str]:
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        out: set[str] = set()
        for elt in target.elts:
            out |= _target_names(elt)
        return out
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return set()


def _stmt_exprs(stmt: ast.stmt):
    for fname, value in ast.iter_fields(stmt):
        if isinstance(value, ast.expr):
            yield value
        elif isinstance(value, list):
            for v in value:
                if isinstance(v, ast.expr):
                    yield v


def _stmt_bodies(stmt: ast.stmt):
    for fname in ("body", "orelse", "finalbody"):
        value = getattr(stmt, fname, None)
        if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
            yield value


def analyze_function(
    func: FunctionInfo,
    project: Project,
    *,
    report: bool = False,
    extra_public: frozenset = frozenset(),
) -> tuple[Summary, list[Finding]]:
    walker = TaintWalker(
        func, project, report=report, extra_public=extra_public
    )
    summary = walker.run()
    return summary, walker.findings


def compute_summaries(project: Project, max_rounds: int = 16) -> int:
    """Bottom-up fixpoint over all indexed functions.

    Returns the number of rounds taken (useful in tests to assert
    convergence stays cheap).
    """
    funcs = list(project.functions.values())
    for round_no in range(1, max_rounds + 1):
        changed = False
        for func in funcs:
            summary, _ = analyze_function(func, project, report=False)
            if summary.key() != func.summary.key():
                func.summary = summary
                changed = True
        if not changed:
            return round_no
    return max_rounds
