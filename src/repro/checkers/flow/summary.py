"""Per-module effect summaries: one walk over an already parsed module.

A :class:`ModuleSummary` captures everything the project-wide rules need
from one file — functions with their call sites, plain attribute
assignments and return values — as descriptor trees (see
:mod:`repro.checkers.flow.descriptors`).  The lint
driver builds it with :func:`summarize_tree` from the same tree the
module rules check, so no file is parsed twice; the whole-program link
in :mod:`repro.checkers.flow.project` then runs over every summary.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.checkers.flow.descriptors import (
    OPAQUE,
    SELF,
    Desc,
    eval_expr,
    walk_shallow,
)

#: Type descriptors derived from annotations:
#: ``("cls", dotted) | ("optional", t) | ("dict", k, v) | ("list", t) |
#: ("set", t) | None`` (unmodelled).
TypeDesc = Optional[Tuple[Any, ...]]


@dataclasses.dataclass
class CallSite:
    """One call expression inside a function."""

    line: int
    col: int
    callee: Desc
    args: Tuple[Desc, ...]
    kwargs: Tuple[Tuple[str, Desc], ...]
    #: "expr" (statement expression), "with" (context-manager item), or
    #: "value" (result feeds an expression/assignment).
    role: str


@dataclasses.dataclass
class AttrWrite:
    """One plain attribute assignment, ``<recv>.<attr> = <value>``."""

    attr: str
    recv: Desc
    value: Desc


@dataclasses.dataclass
class FuncSummary:
    """Effect summary of one function, method, or lambda."""

    qual: str
    lineno: int
    params: Tuple[str, ...]
    param_ann: Dict[str, TypeDesc]
    return_ann: TypeDesc
    kind: str  # "function" | "method" | "staticmethod" | "classmethod"
    cls: Optional[str]  # owning class's local name, if a method
    decorators: Tuple[str, ...]
    calls: List[CallSite] = dataclasses.field(default_factory=list)
    attr_writes: List[AttrWrite] = dataclasses.field(default_factory=list)
    returns: List[Tuple[int, Desc]] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class ClassSummary:
    """One class: bases, methods, and attribute type annotations."""

    name: str
    lineno: int
    bases: Tuple[Desc, ...]
    methods: Dict[str, str]  # method name -> function qual
    attr_ann: Dict[str, TypeDesc]
    properties: Dict[str, TypeDesc]  # @property name -> return type


@dataclasses.dataclass
class ModuleSummary:
    """Everything the project link needs from one module."""

    module: str
    path: str
    imports: Dict[str, str]
    functions: Dict[str, FuncSummary]
    classes: Dict[str, ClassSummary]
    module_assigns: Dict[str, Desc]


# ---------------------------------------------------------------------------
# Annotation -> TypeDesc
# ---------------------------------------------------------------------------

_SCALARS = frozenset({"int", "float", "str", "bool", "bytes", "object", "Any"})
_LISTY = frozenset({"List", "list", "Sequence", "Iterable", "Iterator",
                    "FrozenSet", "frozenset", "Tuple", "tuple"})
_SETTY = frozenset({"Set", "set"})
_DICTY = frozenset({"Dict", "dict", "Mapping", "MutableMapping"})


def _ann_to_type(
    node: Optional[ast.AST],
    imports: Dict[str, str],
    module: str,
    local_classes: Sequence[str],
) -> TypeDesc:
    """Resolve an annotation expression to a type descriptor."""
    if node is None:
        return None
    if isinstance(node, ast.Constant):
        if node.value is None:
            return None
        if isinstance(node.value, str):  # string annotation
            try:
                parsed = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
            return _ann_to_type(parsed, imports, module, local_classes)
        return None
    if isinstance(node, ast.Name):
        name = node.id
        if name in _SCALARS:
            return None
        if name in local_classes:
            return ("cls", f"{module}.{name}" if module else name)
        target = imports.get(name)
        if target is not None:
            return ("cls", target)
        return None
    if isinstance(node, ast.Attribute):
        parts: List[str] = [node.attr]
        value: ast.AST = node.value
        while isinstance(value, ast.Attribute):
            parts.append(value.attr)
            value = value.value
        if not isinstance(value, ast.Name):
            return None
        base = imports.get(value.id, value.id)
        return ("cls", ".".join([base] + parts[::-1]))
    if isinstance(node, ast.Subscript):
        head = node.value
        head_name = None
        if isinstance(head, ast.Name):
            head_name = head.id
        elif isinstance(head, ast.Attribute):
            head_name = head.attr
        if head_name is None:
            return None
        slc = node.slice
        elts = list(slc.elts) if isinstance(slc, ast.Tuple) else [slc]

        def sub(i: int) -> TypeDesc:
            if i >= len(elts):
                return None
            return _ann_to_type(elts[i], imports, module, local_classes)

        if head_name == "Optional":
            return ("optional", sub(0))
        if head_name == "Union":
            inner = [s for s in (sub(i) for i in range(len(elts))) if s]
            return inner[0] if len(inner) == 1 else None
        if head_name in _DICTY:
            return ("dict", sub(0), sub(1))
        if head_name in _SETTY:
            return ("set", sub(0))
        if head_name in _LISTY:
            return ("list", sub(0))
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        # ``X | None`` style unions.
        left = _ann_to_type(node.left, imports, module, local_classes)
        right = _ann_to_type(node.right, imports, module, local_classes)
        if left and not right:
            return ("optional", left)
        if right and not left:
            return ("optional", right)
        return None
    return None


# ---------------------------------------------------------------------------
# The extraction pass
# ---------------------------------------------------------------------------

class _FunctionWalker:
    """Walks one function body, building its :class:`FuncSummary`."""

    def __init__(
        self,
        builder: "_ModuleBuilder",
        summary: FuncSummary,
        env: Dict[str, Desc],
    ) -> None:
        self.builder = builder
        self.summary = summary
        self.env = env

    # -- statement walk --------------------------------------------------

    def walk_body(self, stmts: List[ast.stmt]) -> None:
        for stmt in stmts:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            value_desc = self._visit_expr(stmt.value)
            for target in stmt.targets:
                self._bind_target(target, value_desc)
        elif isinstance(stmt, ast.AnnAssign):
            value_desc = (
                self._visit_expr(stmt.value) if stmt.value is not None else OPAQUE
            )
            self._record_ann(stmt)
            self._bind_target(stmt.target, value_desc)
        elif isinstance(stmt, ast.AugAssign):
            self._visit_expr(stmt.value)
            self._bind_target(stmt.target, OPAQUE, aug=True)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                desc = self._visit_expr(stmt.value)
                self.summary.returns.append((stmt.lineno, desc))
        elif isinstance(stmt, ast.Expr):
            self._visit_expr(stmt.value, role="expr")
        elif isinstance(stmt, ast.If):
            self._visit_expr(stmt.test)
            self.walk_body(stmt.body)
            self.walk_body(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_desc = self._visit_expr(stmt.iter)
            self._bind_loop_target(stmt.target, iter_desc)
            self.walk_body(stmt.body)
            self.walk_body(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._visit_expr(stmt.test)
            self.walk_body(stmt.body)
            self.walk_body(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._visit_expr(item.context_expr, role="with")
                if item.optional_vars is not None:
                    self._bind_loop_target(item.optional_vars, OPAQUE)
            self.walk_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.walk_body(stmt.body)
            for handler in stmt.handlers:
                if handler.name:
                    self.env[handler.name] = OPAQUE
                self.walk_body(handler.body)
            self.walk_body(stmt.orelse)
            self.walk_body(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.builder.add_function(
                stmt, cls=None, qual_prefix=self.summary.qual,
                closure_env=dict(self.env),
            )
            self.env[stmt.name] = (
                "localfunc", f"{self.summary.qual}.{stmt.name}"
            )
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._visit_expr(child)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            # Function-local imports resolve like module-level ones; the
            # widened module import map is a safe over-approximation.
            self.builder.record_import(stmt)
        # Pass/Break/Continue/Global/Nonlocal: nothing to record.

    # -- bindings and writes ---------------------------------------------

    def _bind_target(
        self, target: ast.AST, value_desc: Desc, aug: bool = False
    ) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value_desc
        elif isinstance(target, ast.Attribute):
            if not aug:
                self.summary.attr_writes.append(
                    AttrWrite(
                        attr=target.attr,
                        recv=eval_expr(target.value, self.env),
                        value=value_desc,
                    )
                )
        elif isinstance(target, ast.Subscript):
            self._visit_expr(target.slice)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, OPAQUE, aug=aug)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, OPAQUE, aug=aug)

    def _bind_loop_target(self, target: ast.AST, iter_desc: Desc) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = (
                ("iter", iter_desc) if iter_desc != OPAQUE else OPAQUE
            )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_loop_target(elt, OPAQUE)

    def _record_ann(self, stmt: ast.AnnAssign) -> None:
        """``self.x: T = ...`` contributes to the owning class's attr types."""
        target = stmt.target
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and self.summary.cls is not None
            and self.env.get(target.value.id) == SELF
        ):
            type_desc = self.builder.resolve_ann(stmt.annotation)
            if type_desc is not None:
                cls = self.builder.classes.get(self.summary.cls)
                if cls is not None and target.attr not in cls.attr_ann:
                    cls.attr_ann[target.attr] = type_desc

    # -- expressions -----------------------------------------------------

    def _visit_expr(self, node: ast.AST, role: str = "value") -> Desc:
        """Record every call in ``node``, then return its descriptor."""
        self._scan_calls(node, role)
        return eval_expr(node, self.env)

    def _scan_calls(self, node: ast.AST, role: str) -> None:
        for sub in walk_shallow(node):
            if isinstance(sub, ast.Call):
                # ``role`` applies only to the outermost expression.
                call_role = role if sub is node else "value"
                self.summary.calls.append(
                    CallSite(
                        line=sub.lineno,
                        col=sub.col_offset + 1,
                        callee=eval_expr(sub.func, self.env),
                        args=tuple(
                            eval_expr(a, self.env)
                            for a in sub.args[:8]
                            if not isinstance(a, ast.Starred)
                        ),
                        kwargs=tuple(
                            (kw.arg, eval_expr(kw.value, self.env))
                            for kw in sub.keywords
                            if kw.arg is not None
                        ),
                        role=call_role,
                    )
                )
            elif isinstance(sub, ast.Lambda):
                qual = f"{self.summary.qual}.<lambda:{sub.lineno}>"
                self.builder.add_lambda(sub, qual, dict(self.env))


class _ModuleBuilder:
    """Builds a :class:`ModuleSummary` from a parsed module."""

    def __init__(self, module: str, path: str) -> None:
        self.module = module
        self.path = path
        self.imports: Dict[str, str] = {}
        self.functions: Dict[str, FuncSummary] = {}
        self.classes: Dict[str, ClassSummary] = {}
        self.module_assigns: Dict[str, Desc] = {}
        self.class_names: List[str] = []

    # -- annotation helper ----------------------------------------------

    def resolve_ann(self, node: Optional[ast.AST]) -> TypeDesc:
        return _ann_to_type(node, self.imports, self.module, self.class_names)

    # -- top level --------------------------------------------------------

    def build(self, tree: ast.Module) -> None:
        # First pass: imports and class names (annotations may forward-
        # reference classes defined later in the module).
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                self.record_import(stmt)
            elif isinstance(stmt, ast.ClassDef):
                self.class_names.append(stmt.name)
        # Second pass: definitions and module-level assignments.
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.add_function(stmt, cls=None, qual_prefix="")
            elif isinstance(stmt, ast.ClassDef):
                self._add_class(stmt)
            elif isinstance(stmt, ast.Assign):
                desc = eval_expr(stmt.value, {})
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.module_assigns[target.id] = desc

    def record_import(self, stmt: ast.stmt) -> None:
        """Register an import's local bindings (module or function level)."""
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname:
                    self.imports[alias.asname] = alias.name
                else:
                    # ``import a.b`` binds ``a``; attribute chains
                    # through it resolve dotted below that root.
                    root = alias.name.split(".")[0]
                    self.imports.setdefault(root, root)
        elif isinstance(stmt, ast.ImportFrom):
            base = self._import_base(stmt)
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                self.imports.setdefault(
                    local, f"{base}.{alias.name}" if base else alias.name
                )

    def _import_base(self, stmt: ast.ImportFrom) -> str:
        if stmt.level == 0:
            return stmt.module or ""
        # Relative import: resolve against this module's package.
        parts = self.module.split(".") if self.module else []
        # ``from . import x`` in a package __init__ behaves like the
        # module itself being the package; we only see plain modules, so
        # drop ``level`` trailing components.
        base_parts = parts[: len(parts) - stmt.level] if parts else []
        if stmt.module:
            base_parts.append(stmt.module)
        return ".".join(base_parts)

    def _add_class(self, node: ast.ClassDef) -> None:
        cls = ClassSummary(
            name=node.name,
            lineno=node.lineno,
            bases=tuple(eval_expr(b, {}) for b in node.bases),
            methods={},
            attr_ann={},
            properties={},
        )
        self.classes[node.name] = cls
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{node.name}.{stmt.name}"
                cls.methods[stmt.name] = qual
                decorators = _decorator_names(stmt)
                if "property" in decorators:
                    cls.properties[stmt.name] = self.resolve_ann(stmt.returns)
                self.add_function(stmt, cls=node.name, qual_prefix=node.name)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                type_desc = self.resolve_ann(stmt.annotation)
                if type_desc is not None:
                    cls.attr_ann[stmt.target.id] = type_desc

    # -- functions --------------------------------------------------------

    def add_function(
        self,
        node: ast.AST,
        cls: Optional[str],
        qual_prefix: str,
        closure_env: Optional[Dict[str, Desc]] = None,
    ) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        decorators = _decorator_names(node)
        if cls is None:
            kind = "function"
        elif "staticmethod" in decorators:
            kind = "staticmethod"
        elif "classmethod" in decorators:
            kind = "classmethod"
        else:
            kind = "method"
        qual = f"{qual_prefix}.{node.name}" if qual_prefix else node.name
        arg_nodes = list(node.args.posonlyargs) + list(node.args.args)
        params = [a.arg for a in arg_nodes]
        if node.args.vararg:
            params.append(node.args.vararg.arg)
        kwonly = [a.arg for a in node.args.kwonlyargs]
        params.extend(kwonly)
        param_ann: Dict[str, TypeDesc] = {}
        for arg in arg_nodes + list(node.args.kwonlyargs):
            ann = self.resolve_ann(arg.annotation)
            if ann is not None:
                param_ann[arg.arg] = ann
        summary = FuncSummary(
            qual=qual,
            lineno=node.lineno,
            params=tuple(params),
            param_ann=param_ann,
            return_ann=self.resolve_ann(node.returns),
            kind=kind,
            cls=cls,
            decorators=tuple(decorators),
        )
        self.functions[qual] = summary
        env: Dict[str, Desc] = dict(closure_env or {})
        skip_first = kind in ("method", "classmethod") and params
        for position, name in enumerate(params):
            if position == 0 and skip_first:
                env[name] = SELF if kind == "method" else OPAQUE
            else:
                env[name] = ("param", name)
        walker = _FunctionWalker(self, summary, env)
        for default in list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]:
            walker._visit_expr(default)
        walker.walk_body(list(node.body))

    def add_lambda(
        self, node: ast.Lambda, qual: str, closure_env: Dict[str, Desc]
    ) -> None:
        if qual in self.functions:
            return
        params = [a.arg for a in node.args.args]
        summary = FuncSummary(
            qual=qual,
            lineno=node.lineno,
            params=tuple(params),
            param_ann={},
            return_ann=None,
            kind="function",
            cls=None,
            decorators=("<lambda>",),
        )
        self.functions[qual] = summary
        env = dict(closure_env)
        for name in params:
            env[name] = ("param", name)
        walker = _FunctionWalker(self, summary, env)
        desc = walker._visit_expr(node.body)
        summary.returns.append((node.lineno, desc))


def _decorator_names(node: ast.AST) -> List[str]:
    names: List[str] = []
    for dec in getattr(node, "decorator_list", []):
        target = dec
        if isinstance(target, ast.Call):
            target = target.func
        if isinstance(target, ast.Name):
            names.append(target.id)
        elif isinstance(target, ast.Attribute):
            names.append(target.attr)
    return names


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def summarize_tree(
    tree: ast.Module, path: str, module: Optional[str]
) -> ModuleSummary:
    """Extract the flow summary of one parsed module."""
    module_name = module or ""
    builder = _ModuleBuilder(module_name, path)
    builder.build(tree)
    return ModuleSummary(
        module=module_name,
        path=path,
        imports=builder.imports,
        functions=builder.functions,
        classes=builder.classes,
        module_assigns=builder.module_assigns,
    )
