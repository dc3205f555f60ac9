"""Project model: parsed modules, function index, call resolution.

The linter never imports the code it analyzes (except Pass 2, which
imports the registry to enumerate specs); everything here is built
from the AST.  A :class:`Project` indexes every function — including
nested ones — under a dotted qualname, records per-module import
aliases so calls resolve across modules, and collects the dataclass
field lists and the ``LasVegasFailure`` exception family that the
taint and conformance passes consult.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.pragmas import PragmaTable, parse_pragmas

__all__ = [
    "FunctionInfo",
    "ModuleInfo",
    "Project",
    "Summary",
    "SinkRecord",
]


@dataclass(frozen=True, order=True)
class SinkRecord:
    """A sink inside a callee that fires when a parameter is tainted."""

    rule: str
    line: int
    message: str


@dataclass
class Summary:
    """Call summary of one function, computed to fixpoint.

    ``returns`` holds origin tokens (``param:<name>`` / ``payload:...``)
    that may flow into the return value.  ``param_sinks`` maps a
    parameter name to sinks inside this function (or its callees) that
    a tainted argument would reach.  ``writes_params`` lists parameter
    names whose pointed-to array is written (directly via a machine
    write position or transitively through a callee).
    """

    returns: frozenset = frozenset()
    param_sinks: dict = field(default_factory=dict)
    writes_params: frozenset = frozenset()
    does_io: bool = False
    uses_rng: bool = False
    raises_lasvegas: bool = False
    raises_any: bool = False
    reads_payload: bool = False
    touches_null: bool = False

    def key(self) -> tuple:
        return (
            self.returns,
            tuple(sorted((p, tuple(sorted(s))) for p, s in self.param_sinks.items())),
            self.writes_params,
            self.does_io,
            self.uses_rng,
            self.raises_lasvegas,
            self.raises_any,
            self.reads_payload,
            self.touches_null,
        )


@dataclass
class FunctionInfo:
    qualname: str
    module: "ModuleInfo"
    node: ast.FunctionDef
    params: tuple[str, ...]
    summary: Summary = field(default_factory=Summary)

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def line(self) -> int:
        return self.node.lineno


@dataclass
class ModuleInfo:
    path: Path
    relpath: str
    dotted: str
    tree: ast.Module
    pragmas: PragmaTable
    #: top-level function name -> FunctionInfo (methods under Class.name)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: local alias -> dotted module ("np" -> "numpy") for ``import x as y``
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: local alias -> (dotted module, symbol) for ``from m import s``
    symbol_imports: dict[str, tuple[str, str]] = field(default_factory=dict)
    #: class name -> ordered annotated field names (dataclass-style)
    class_fields: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: class name -> base name list (as written)
    class_bases: dict[str, tuple[str, ...]] = field(default_factory=dict)


def _param_names(node: ast.FunctionDef) -> tuple[str, ...]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return tuple(names)


class Project:
    """All analyzed modules plus cross-module resolution tables."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}  # dotted -> info
        self.functions: dict[str, FunctionInfo] = {}  # global qualname
        #: exception class names that are LasVegasFailure descendants
        self.lasvegas_names: set[str] = {"LasVegasFailure", "RetryExhausted"}

    # -- loading ---------------------------------------------------

    def add_module(self, path: Path, root: Path) -> ModuleInfo | None:
        try:
            source = path.read_text()
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError):
            return None
        relpath = str(path.relative_to(root.parent) if root in path.parents or path == root else path)
        dotted = _dotted_name(path, root)
        info = ModuleInfo(
            path=path,
            relpath=relpath,
            dotted=dotted,
            tree=tree,
            pragmas=parse_pragmas(relpath, source),
        )
        self._index_module(info)
        self.modules[dotted] = info
        return info

    def add_tree(self, root: Path) -> None:
        for path in sorted(root.rglob("*.py")):
            self.add_module(path, root)

    def finalize(self) -> None:
        """Resolve the LasVegas exception family transitively."""
        changed = True
        while changed:
            changed = False
            for mod in self.modules.values():
                for cls, bases in mod.class_bases.items():
                    if cls in self.lasvegas_names:
                        continue
                    if any(b in self.lasvegas_names for b in bases):
                        self.lasvegas_names.add(cls)
                        changed = True

    # -- indexing --------------------------------------------------

    def _index_module(self, mod: ModuleInfo) -> None:
        for stmt in mod.tree.body:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    mod.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(stmt, ast.ImportFrom) and stmt.module:
                for alias in stmt.names:
                    mod.symbol_imports[alias.asname or alias.name] = (
                        stmt.module,
                        alias.name,
                    )
        self._index_body(mod, mod.tree.body, prefix="")

    def _index_body(self, mod: ModuleInfo, body: list, prefix: str) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{stmt.name}"
                info = FunctionInfo(
                    qualname=f"{mod.dotted}.{qual}",
                    module=mod,
                    node=stmt,
                    params=_param_names(stmt),
                )
                mod.functions[qual] = info
                self.functions[info.qualname] = info
                self._index_body(mod, stmt.body, prefix=f"{qual}.")
            elif isinstance(stmt, ast.ClassDef):
                fields = tuple(
                    t.target.id
                    for t in stmt.body
                    if isinstance(t, ast.AnnAssign) and isinstance(t.target, ast.Name)
                )
                mod.class_fields[stmt.name] = fields
                mod.class_bases[stmt.name] = tuple(
                    b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
                    for b in stmt.bases
                )
                self._index_body(mod, stmt.body, prefix=f"{stmt.name}.")

    # -- resolution ------------------------------------------------

    def resolve_call(self, mod: ModuleInfo, func: ast.expr, scope: str = "") -> FunctionInfo | None:
        """Resolve a call target expression to a FunctionInfo, if local.

        ``scope`` is the dotted-in-module prefix of the calling
        function, so nested helpers resolve before module-level names.
        """
        if isinstance(func, ast.Name):
            name = func.id
            if scope:
                parts = scope.split(".")
                for i in range(len(parts), 0, -1):
                    qual = ".".join(parts[:i]) + "." + name
                    if qual in mod.functions:
                        return mod.functions[qual]
            if name in mod.functions:
                return mod.functions[name]
            # Constructor call: resolve ``Cls(...)`` to ``Cls.__init__``.
            if f"{name}.__init__" in mod.functions:
                return mod.functions[f"{name}.__init__"]
            target = mod.symbol_imports.get(name)
            if target:
                src_mod, symbol = target
                other = self.modules.get(src_mod)
                if other and symbol in other.functions:
                    return other.functions[symbol]
                if other and f"{symbol}.__init__" in other.functions:
                    return other.functions[f"{symbol}.__init__"]
                # ``from repro.core import compaction``-style package import
                sub = self.modules.get(f"{src_mod}.{symbol}")
                if sub:
                    return None
            return None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base = func.value.id
            dotted = mod.module_aliases.get(base)
            if dotted is None and base in mod.symbol_imports:
                src_mod, symbol = mod.symbol_imports[base]
                dotted = f"{src_mod}.{symbol}"
            if dotted:
                other = self.modules.get(dotted)
                if other and func.attr in other.functions:
                    return other.functions[func.attr]
            # self.method() within a class body, inherited ones included
            if base == "self" and scope:
                return self.resolve_method(mod, scope.split(".")[0], func.attr)
        return None

    def resolve_method(
        self, mod: ModuleInfo, cls: str, name: str, _seen: set | None = None
    ) -> FunctionInfo | None:
        """``cls.name`` as Python's method lookup finds it: the class's own
        definition, else the first one along its bases (depth-first, in
        declaration order), following imports to other modules."""
        seen = _seen if _seen is not None else set()
        if (mod.dotted, cls) in seen:
            return None
        seen.add((mod.dotted, cls))
        if f"{cls}.{name}" in mod.functions:
            return mod.functions[f"{cls}.{name}"]
        for base in mod.class_bases.get(cls, ()):
            owner: ModuleInfo | None = mod
            if base not in mod.class_bases:
                src_mod, base = mod.symbol_imports.get(base, ("", base))
                owner = self.modules.get(src_mod)
            if owner is not None:
                found = self.resolve_method(owner, base, name, seen)
                if found is not None:
                    return found
        return None

    def class_fields_for(self, mod: ModuleInfo, name: str) -> tuple[str, ...] | None:
        if name in mod.class_fields:
            return mod.class_fields[name]
        target = mod.symbol_imports.get(name)
        if target:
            other = self.modules.get(target[0])
            if other and target[1] in other.class_fields:
                return other.class_fields[target[1]]
        return None


def _dotted_name(path: Path, root: Path) -> str:
    """Dotted module name of ``path``; ``root`` is the package dir."""
    try:
        rel = path.relative_to(root.parent)
    except ValueError:
        rel = Path(path.name)
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)
