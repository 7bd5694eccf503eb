"""Value descriptors: the abstract domain of the flow analysis.

A *descriptor* is a small immutable tree (nested tuples) approximating
where a runtime value came from, precise enough to answer the questions
the FLOW/ENC/TRC packs ask — "which RNG stream is this?", "which
attribute is returned?", "is this a tracer?".

Grammar (first element is the tag)::

    ("self",)                       the receiver of the enclosing method
    ("param", name)                 a function parameter
    ("selfattr", attr)              self.<attr>
    ("getattr", desc, attr)         <desc>.<attr>
    ("global", name)                a module-scope name (import, class,
                                    function, constant, builtin)
    ("localfunc", qual)             a function defined in this module
    ("call", callee, args, kwargs, line)
                                    the result of calling <callee>; args
                                    is a tuple of descriptors, kwargs a
                                    tuple of (name, descriptor) pairs
    ("sub", desc)                   <desc>[...]
    ("iter", desc)                  an element produced by iterating
    ("union", (d1, d2, ...))        either branch of an ``IfExp`` /
                                    ``BoolOp`` / conditional assignment
    ("const", value)                a literal (str/int/float/bool/None)
    ("opaque",)                     anything the domain does not model

Descriptors are built by :mod:`repro.checkers.flow.summary` and
interpreted by :mod:`repro.checkers.flow.project`, which resolves them
against the whole-program symbol table (types, RNG attribution).
"""

from __future__ import annotations

import ast
from typing import Any, Dict, List, Tuple

#: A descriptor; see the module docstring for the grammar.
Desc = Tuple[Any, ...]

#: Maximum descriptor tree depth; deeper values collapse to ``opaque``.
MAX_DEPTH = 8

OPAQUE: Desc = ("opaque",)
SELF: Desc = ("self",)

#: ``random.Random`` method names that consume stream state.  A call to
#: one of these on an RNG-typed receiver is a *draw site*.
DRAW_METHODS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

#: The emission surface of :class:`repro.obs.tracer.Tracer`.
TRACER_METHODS = frozenset({"event", "set_clock", "span"})


def eval_expr(node: ast.AST, env: Dict[str, Desc], depth: int = 0) -> Desc:
    """Abstract one expression into a descriptor under local bindings ``env``."""
    if depth > MAX_DEPTH:
        return OPAQUE
    if isinstance(node, ast.Name):
        return env.get(node.id, ("global", node.id))
    if isinstance(node, ast.Attribute):
        value = eval_expr(node.value, env, depth + 1)
        if value == SELF:
            return ("selfattr", node.attr)
        if value == OPAQUE:
            return OPAQUE
        return ("getattr", value, node.attr)
    if isinstance(node, ast.Call):
        callee = eval_expr(node.func, env, depth + 1)
        args: List[Desc] = []
        for arg in node.args[:8]:
            if isinstance(arg, ast.Starred):
                args.append(OPAQUE)
            else:
                args.append(eval_expr(arg, env, depth + 1))
        kwargs: List[Tuple[str, Desc]] = []
        for kw in node.keywords:
            if kw.arg is None:  # **kwargs
                continue
            kwargs.append((kw.arg, eval_expr(kw.value, env, depth + 1)))
        return (
            "call",
            callee,
            tuple(args),
            tuple(kwargs),
            getattr(node, "lineno", 0),
        )
    if isinstance(node, ast.Constant):
        if node.value is None or isinstance(node.value, (str, int, float, bool)):
            return ("const", node.value)
        return OPAQUE
    if isinstance(node, ast.IfExp):
        return union(
            eval_expr(node.body, env, depth + 1),
            eval_expr(node.orelse, env, depth + 1),
        )
    if isinstance(node, ast.BoolOp):
        branches = [eval_expr(v, env, depth + 1) for v in node.values]
        result = branches[0]
        for branch in branches[1:]:
            result = union(result, branch)
        return result
    if isinstance(node, ast.Subscript):
        value = eval_expr(node.value, env, depth + 1)
        if value == OPAQUE:
            return OPAQUE
        return ("sub", value)
    if isinstance(node, ast.Await):
        return eval_expr(node.value, env, depth + 1)
    if isinstance(node, ast.NamedExpr):
        return eval_expr(node.value, env, depth + 1)
    return OPAQUE


def union(left: Desc, right: Desc) -> Desc:
    """Join two descriptors, flattening nested unions."""
    if left == right:
        return left
    parts: List[Desc] = []
    for desc in (left, right):
        if desc[0] == "union":
            parts.extend(desc[1])
        else:
            parts.append(desc)
    unique: List[Desc] = []
    for desc in parts:
        if desc not in unique:
            unique.append(desc)
    if len(unique) == 1:
        return unique[0]
    return ("union", tuple(unique))


def walk_shallow(root: ast.AST):
    """``ast.walk`` that does not descend into nested function bodies.

    The root itself may be a function; its own body is walked, but any
    ``def``/``lambda`` nested inside it is yielded without entering it —
    nested functions get their own summaries.
    """
    stack: List[ast.AST] = [root]
    while stack:
        node = stack.pop()
        yield node
        if node is not root and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))

