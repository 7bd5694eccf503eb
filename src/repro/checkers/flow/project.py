"""Whole-program linking: symbol table, call resolution, RNG fixpoint.

:class:`ProjectContext` consumes one :class:`ModuleSummary` per file and
links them: classes resolve to dotted names with a linearised base-class
order, descriptors resolve to types via annotations and constructor
sites, and RNG attribution propagates along resolved calls and
attribute assignments to a fixpoint.  The FLOW/ENC/TRC rule packs then
ask linked questions — "which stream does this draw use?", "which
class owns this method?", "is this receiver a tracer?" — without
touching an AST.

Soundness posture: the analysis is *conservative for the questions the
rules ask*.  A draw whose receiver cannot be proven attributed is
flagged (FLOW101 errs toward noise; an accepted one carries a reviewed
``# repro: noqa[FLOW101]``), and a call that cannot be resolved simply
does not propagate attribution (never invents it).
"""

from __future__ import annotations

import dataclasses
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.checkers.flow.descriptors import (
    DRAW_METHODS,
    SELF,
    Desc,
    TRACER_METHODS,
)
from repro.checkers.flow.summary import (
    CallSite,
    FuncSummary,
    ModuleSummary,
    TypeDesc,
)

#: Dotted names the analysis treats specially.
RNG_CLASS = "random.Random"
STREAMS_CLASS = "repro.simulator.randomness.RngStreams"
TRACER_BASE = "repro.obs.tracer.Tracer"

#: A function's identity: ``(module, qualname)``.
FuncKey = Tuple[str, str]

#: Maximum recursion depth for descriptor resolution.
_RESOLVE_DEPTH = 12
#: Fixpoint iteration cap (generous; the tree converges in < 10).
_MAX_ITERATIONS = 50


@dataclasses.dataclass
class LinkedClass:
    """One class after linking: resolved bases and attribute facts."""

    dotted: str
    module: str
    name: str
    lineno: int
    bases: List[str]  # resolved dotted names, in MRO-ish order
    methods: Dict[str, FuncKey]
    attr_types: Dict[str, TypeDesc]
    properties: Dict[str, TypeDesc]
    #: attribute -> value descriptors assigned to ``self.<attr>`` (with
    #: the assigning function, for fixpoint context).
    attr_values: Dict[str, List[Tuple[Desc, FuncKey]]] = dataclasses.field(
        default_factory=dict
    )


@dataclasses.dataclass
class DrawSite:
    """One classified stochastic draw."""

    func: FuncKey
    call: CallSite
    method: str
    tokens: FrozenSet[str]
    #: Attributed because the receiver is an annotated ``random.Random``
    #: parameter never bound inside the project (an external entry point).
    external: bool = False


@dataclasses.dataclass
class TracerCall:
    """One call of a tracer emission method."""

    func: FuncKey
    call: CallSite
    method: str


class ProjectContext:
    """The linked whole-program view the project rules run against."""

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {}
        self.paths: Dict[str, str] = {}  # module -> path
        for summary in summaries:
            name = summary.module or summary.path
            self.modules[name] = summary
            self.paths[name] = summary.path

        self.classes: Dict[str, LinkedClass] = {}
        self.functions: Dict[FuncKey, FuncSummary] = {}
        self._tracer_classes: Set[str] = set()
        self._type_cache: Dict[Tuple[Any, ...], TypeDesc] = {}

        # Fixpoint state.
        self.param_rng: Dict[Tuple[FuncKey, str], Set[str]] = {}
        self.attr_rng: Dict[Tuple[str, str], Set[str]] = {}
        self.return_rng: Dict[FuncKey, Set[str]] = {}
        #: parameters that received at least one internal call binding.
        self.bound_params: Set[Tuple[FuncKey, str]] = set()

        # Classification results.
        self.draws: List[DrawSite] = []
        self.tracer_calls: List[TracerCall] = []

        self._link()
        self._infer_attr_types()
        self._run_fixpoint()
        self._classify()

    # ------------------------------------------------------------------
    # Linking
    # ------------------------------------------------------------------

    def _link(self) -> None:
        for module, summary in self.modules.items():
            for qual, func in summary.functions.items():
                self.functions[(module, qual)] = func
            for name, cls in summary.classes.items():
                dotted = f"{module}.{name}" if module else name
                self.classes[dotted] = LinkedClass(
                    dotted=dotted,
                    module=module,
                    name=name,
                    lineno=cls.lineno,
                    bases=[],
                    methods={
                        m: (module, q) for m, q in cls.methods.items()
                    },
                    attr_types=dict(cls.attr_ann),
                    properties=dict(cls.properties),
                )
        # Resolve bases now that every class has a dotted name.
        for module, summary in self.modules.items():
            for name, cls in summary.classes.items():
                linked = self.classes[f"{module}.{name}" if module else name]
                for base in cls.bases:
                    resolved = self._resolve_name_target(module, base)
                    if resolved and resolved[0] == "class":
                        linked.bases.append(resolved[1])
        # Collect self-attribute assignment descriptors per class.
        for func_key, func in self.functions.items():
            if func.cls is None:
                continue
            module = func_key[0]
            dotted = f"{module}.{func.cls}" if module else func.cls
            linked = self.classes.get(dotted)
            if linked is None:
                continue
            for write in func.attr_writes:
                if write.recv == SELF:
                    linked.attr_values.setdefault(write.attr, []).append(
                        (write.value, func_key)
                    )
        # Tracer classes: Tracer itself plus everything that inherits it.
        for dotted in self.classes:
            if TRACER_BASE in self.mro(dotted):
                self._tracer_classes.add(dotted)
        self._tracer_classes.add(TRACER_BASE)

    def mro(self, dotted: str) -> List[str]:
        """Linearised ancestor list (self first; simple C3-free DFS)."""
        seen: List[str] = []
        stack = [dotted]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.append(current)
            linked = self.classes.get(current)
            if linked is not None:
                stack.extend(linked.bases)
        return seen

    def find_method(self, dotted: str, name: str) -> Optional[FuncKey]:
        """Resolve a method through the class's ancestor chain."""
        for cls in self.mro(dotted):
            linked = self.classes.get(cls)
            if linked is not None and name in linked.methods:
                return linked.methods[name]
        return None

    def is_tracer_class(self, dotted: str) -> bool:
        return dotted in self._tracer_classes

    def _resolve_name_target(
        self, module: str, desc: Desc
    ) -> Optional[Tuple[str, Any]]:
        """Resolve a ``global``/``getattr``-rooted descriptor to a target.

        Returns ``("class", dotted)``, ``("func", funckey)``,
        ``("module", dotted)``, ``("value", (desc, module))`` for a
        module-level assignment, or ``None``.
        """
        if not isinstance(desc, tuple) or not desc:
            return None
        summary = self.modules.get(module)
        if desc[0] == "global":
            name = desc[1]
            if summary is not None:
                if name in summary.classes:
                    dotted = f"{module}.{name}" if module else name
                    return ("class", dotted)
                if name in summary.functions:
                    return ("func", (module, name))
                if name in summary.module_assigns:
                    return ("value", (summary.module_assigns[name], module))
                target = summary.imports.get(name)
                if target is not None:
                    return self._resolve_dotted(target)
            return None
        if desc[0] == "localfunc":
            return ("func", (module, desc[1]))
        if desc[0] == "getattr":
            base = self._resolve_name_target(module, desc[1])
            if base is None:
                return None
            if base[0] == "module":
                return self._resolve_dotted(f"{base[1]}.{desc[2]}")
            if base[0] == "class":
                # Nested attribute on a class object: a method reference.
                method = self.find_method(base[1], desc[2])
                if method is not None:
                    return ("func", method)
            return None
        return None

    def _resolve_dotted(self, dotted: str) -> Optional[Tuple[str, Any]]:
        """Resolve a dotted path to a class, function, or module."""
        if dotted in self.classes:
            return ("class", dotted)
        if dotted in self.modules:
            return ("module", dotted)
        head, _, tail = dotted.rpartition(".")
        if head and head in self.modules and tail:
            summary = self.modules[head]
            if tail in summary.classes:
                return ("class", dotted)
            if tail in summary.functions:
                return ("func", (head, tail))
            if tail in summary.module_assigns:
                return ("value", (summary.module_assigns[tail], head))
            target = summary.imports.get(tail)
            if target is not None and target != dotted:
                return self._resolve_dotted(target)
        if dotted == RNG_CLASS or dotted == "random":
            return ("class", RNG_CLASS) if dotted == RNG_CLASS else (
                "module", "random"
            )
        return ("module", dotted) if "." not in dotted else None

    # ------------------------------------------------------------------
    # Type resolution
    # ------------------------------------------------------------------

    def owner_class(self, func_key: FuncKey) -> Optional[str]:
        func = self.functions.get(func_key)
        if func is None or func.cls is None:
            return None
        module = func_key[0]
        return f"{module}.{func.cls}" if module else func.cls

    def resolve_type(
        self, desc: Desc, func_key: Optional[FuncKey], depth: int = 0
    ) -> TypeDesc:
        """Best-effort type of a descriptor in the context of a function."""
        if depth > _RESOLVE_DEPTH or not isinstance(desc, tuple) or not desc:
            return None
        cache_key = (desc, func_key)
        if cache_key in self._type_cache:
            return self._type_cache[cache_key]
        self._type_cache[cache_key] = None  # cycle guard
        result = self._resolve_type_inner(desc, func_key, depth)
        self._type_cache[cache_key] = result
        return result

    def _resolve_type_inner(
        self, desc: Desc, func_key: Optional[FuncKey], depth: int
    ) -> TypeDesc:
        tag = desc[0]
        module = func_key[0] if func_key else ""
        if tag == "self":
            owner = self.owner_class(func_key) if func_key else None
            return ("cls", owner) if owner else None
        if tag == "param":
            func = self.functions.get(func_key) if func_key else None
            if func is not None:
                return func.param_ann.get(desc[1])
            return None
        if tag == "selfattr":
            owner = self.owner_class(func_key) if func_key else None
            if owner is None:
                return None
            return self._attr_type(owner, desc[1])
        if tag == "getattr":
            base = self.resolve_type(desc[1], func_key, depth + 1)
            if base is not None and base[0] == "optional":
                base = base[1]
            if base is not None and base[0] == "cls":
                return self._attr_type(base[1], desc[2])
            return None  # e.g. a module attribute such as ``random.Random``
        if tag == "global":
            target = self._resolve_name_target(module, desc)
            if target is not None and target[0] == "value":
                value_desc, value_module = target[1]
                return self.resolve_type(
                    value_desc, (value_module, "<module>"), depth + 1
                )
            return None
        if tag == "call":
            return self._call_result_type(desc, func_key, depth)
        if tag == "sub":
            base = self.resolve_type(desc[1], func_key, depth + 1)
            if base is not None and base[0] == "optional":
                base = base[1]
            if base is not None and base[0] == "dict":
                return base[2]
            if base is not None and base[0] in ("list", "set"):
                return base[1]
            return None
        if tag == "iter":
            base = self.resolve_type(desc[1], func_key, depth + 1)
            if base is not None and base[0] == "optional":
                base = base[1]
            if base is not None and base[0] in ("list", "set"):
                return base[1]
            if base is not None and base[0] == "dict":
                return base[1]
            return None
        if tag == "union":
            resolved = []
            for branch in desc[1]:
                r = self.resolve_type(branch, func_key, depth + 1)
                if r is not None and r[0] == "optional":
                    r = r[1]  # Optional[T] vs T branches agree on T
                resolved.append(r)
            non_null = [r for r in resolved if r is not None]
            if non_null and all(r == non_null[0] for r in non_null):
                return non_null[0]
            return None
        return None

    def _attr_type(self, dotted: str, attr: str) -> TypeDesc:
        """Type of ``<dotted instance>.<attr>`` via the ancestor chain."""
        if dotted == STREAMS_CLASS:
            return None
        for cls in self.mro(dotted):
            linked = self.classes.get(cls)
            if linked is None:
                continue
            if attr in linked.attr_types:
                return linked.attr_types[attr]
            if attr in linked.properties:
                return linked.properties[attr]
        return None

    def _call_result_type(
        self, desc: Desc, func_key: Optional[FuncKey], depth: int
    ) -> TypeDesc:
        callee = desc[1]
        module = func_key[0] if func_key else ""
        # Method calls.
        if isinstance(callee, tuple) and callee:
            if callee[0] in ("getattr", "selfattr"):
                recv, name = (
                    (callee[1], callee[2])
                    if callee[0] == "getattr"
                    else (SELF, callee[1])
                )
                recv_type = self.resolve_type(recv, func_key, depth + 1)
                if recv_type is not None and recv_type[0] == "optional":
                    recv_type = recv_type[1]
                if recv_type is not None and recv_type[0] == "cls":
                    dotted = recv_type[1]
                    if dotted == STREAMS_CLASS:
                        if name == "get":
                            return ("cls", RNG_CLASS)
                    method = self.find_method(dotted, name)
                    if method is not None:
                        return self.functions[method].return_ann
                    return None
                if recv_type is not None and recv_type[0] == "dict":
                    if name == "get":
                        return recv_type[2]
                    if name == "values":
                        return ("list", recv_type[2])
                    if name == "keys":
                        return ("list", recv_type[1])
                if recv_type is not None and recv_type[0] in ("list", "set"):
                    if name in ("pop", "copy"):
                        return (
                            recv_type[1] if name == "pop" else recv_type
                        )
                return None
            target = self._resolve_name_target(module, callee)
            if target is not None:
                if target[0] == "class":
                    return ("cls", target[1])
                if target[0] == "func":
                    func = self.functions.get(target[1])
                    return func.return_ann if func else None
            # Builtins that preserve element types.
            if callee == ("global", "list") or callee == ("global", "sorted"):
                if len(desc) > 2 and desc[2]:
                    inner = self.resolve_type(desc[2][0], func_key, depth + 1)
                    if inner is not None and inner[0] in ("list", "set"):
                        return ("list", inner[1])
                return None
        return None

    # ------------------------------------------------------------------
    # Attribute type inference from constructor assignments
    # ------------------------------------------------------------------

    def _infer_attr_types(self) -> None:
        """Fill unannotated attribute types from ``self.x = ...`` sites.

        Two passes so one inferred attribute can feed another
        (``self.a = Cls(); self.b = self.a``).
        """
        for _ in range(2):
            changed = False
            for linked in self.classes.values():
                for attr, values in linked.attr_values.items():
                    if attr in linked.attr_types:
                        continue
                    inferred: List[TypeDesc] = []
                    for value_desc, func_key in values:
                        self._type_cache.clear()
                        resolved = self.resolve_type(value_desc, func_key)
                        if resolved is not None:
                            inferred.append(resolved)
                    if inferred and all(i == inferred[0] for i in inferred):
                        linked.attr_types[attr] = inferred[0]
                        changed = True
            self._type_cache.clear()
            if not changed:
                break

    # ------------------------------------------------------------------
    # RNG attribution fixpoint
    # ------------------------------------------------------------------

    def resolve_rng(
        self, desc: Desc, func_key: Optional[FuncKey], depth: int = 0
    ) -> Set[str]:
        """Attribution tokens a descriptor's value may carry."""
        if depth > _RESOLVE_DEPTH or not isinstance(desc, tuple) or not desc:
            return set()
        tag = desc[0]
        module = func_key[0] if func_key else ""
        if tag == "param":
            if func_key is None:
                return set()
            return set(self.param_rng.get((func_key, desc[1]), ()))
        if tag == "selfattr":
            owner = self.owner_class(func_key) if func_key else None
            if owner is None:
                return set()
            return self._attr_rng(owner, desc[1])
        if tag == "getattr":
            recv_type = self.resolve_type(desc[1], func_key)
            if recv_type is not None and recv_type[0] == "optional":
                recv_type = recv_type[1]
            if recv_type is not None and recv_type[0] == "cls":
                return self._attr_rng(recv_type[1], desc[2])
            return set()
        if tag == "global":
            target = self._resolve_name_target(module, desc)
            if target is not None and target[0] == "value":
                value_desc, value_module = target[1]
                return self.resolve_rng(
                    value_desc, (value_module, "<module>"), depth + 1
                )
            return set()
        if tag == "union":
            tokens: Set[str] = set()
            for branch in desc[1]:
                tokens |= self.resolve_rng(branch, func_key, depth + 1)
            return tokens
        if tag == "call":
            return self._call_result_rng(desc, func_key, depth)
        return set()

    def _attr_rng(self, dotted: str, attr: str) -> Set[str]:
        tokens: Set[str] = set()
        for cls in self.mro(dotted):
            tokens |= self.attr_rng.get((cls, attr), set())
        return tokens

    def _call_result_rng(
        self, desc: Desc, func_key: Optional[FuncKey], depth: int
    ) -> Set[str]:
        callee, args = desc[1], desc[2]
        line = desc[4] if len(desc) > 4 else 0
        module = func_key[0] if func_key else ""
        if isinstance(callee, tuple) and callee and callee[0] == "getattr":
            recv, name = callee[1], callee[2]
            recv_type = self.resolve_type(recv, func_key)
            if recv_type == ("cls", STREAMS_CLASS) and name == "get":
                if args and args[0][0] == "const" and isinstance(
                    args[0][1], str
                ):
                    return {f"stream:{args[0][1]}"}
                return {"stream:<dynamic>"}
        target = self._resolve_call_target(desc, func_key)
        if target is not None:
            kind, payload = target
            if kind == "class":
                # Only a seeded ``random.Random(...)`` constructs an RNG.
                if payload == RNG_CLASS and (args or desc[3]):
                    return {f"seeded:{module}:{line}"}
                return set()
            if kind == "func":
                return set(self.return_rng.get(payload, ()))
        return set()

    def _resolve_call_target(
        self, call_desc: Desc, func_key: Optional[FuncKey]
    ) -> Optional[Tuple[str, Any]]:
        """Resolve a ``("call", ...)`` descriptor's callee.

        Returns ``("class", dotted)`` for constructors or
        ``("func", funckey)`` for project functions/methods.
        """
        callee = call_desc[1]
        if not isinstance(callee, tuple) or not callee:
            return None
        module = func_key[0] if func_key else ""
        if callee[0] == "selfattr":
            owner = self.owner_class(func_key) if func_key else None
            if owner is not None:
                method = self.find_method(owner, callee[1])
                if method is not None:
                    return ("func", method)
            return None
        if callee[0] == "getattr":
            recv_type = self.resolve_type(callee[1], func_key)
            if recv_type is not None and recv_type[0] == "optional":
                recv_type = recv_type[1]
            if recv_type is not None and recv_type[0] == "cls":
                method = self.find_method(recv_type[1], callee[2])
                if method is not None:
                    return ("func", method)
                return None
            target = self._resolve_name_target(module, callee)
            if target is not None and target[0] in ("class", "func"):
                return target
            return None
        if callee[0] in ("global", "localfunc"):
            target = self._resolve_name_target(module, callee)
            if target is not None and target[0] in ("class", "func"):
                return target
            if (
                target is not None
                and target[0] == "module"
                and target[1] == "random"
            ):
                return None
            # ``random.Random`` imported directly.
            if callee[0] == "global":
                summary = self.modules.get(module)
                if summary is not None:
                    dotted = summary.imports.get(callee[1])
                    if dotted == RNG_CLASS:
                        return ("class", RNG_CLASS)
            return None
        if callee[0] == "call":
            # Calling a call result: type it and look for __call__? Out
            # of scope; the draw classifier handles rng-typed results.
            return None
        return None

    def _method_overrides(self, callee_key: FuncKey) -> List[FuncKey]:
        """Subclass implementations of an abstract method (virtual dispatch).

        A call resolved to an ``@abstractmethod`` stub never executes the
        stub at runtime — it dispatches to whichever concrete override
        the receiver carries.  Binding the stub alone would strand every
        argument at a body-less function (RNG tokens would never reach
        the implementations' parameters), so the stub's bindings are
        mirrored onto every override in the linked project.
        """
        callee = self.functions.get(callee_key)
        if callee is None or "abstractmethod" not in callee.decorators:
            return []
        owner = self.owner_class(callee_key)
        if owner is None:
            return []
        name = callee.qual.rsplit(".", 1)[-1]
        overrides: List[FuncKey] = []
        for dotted in sorted(self.classes):
            if dotted == owner or owner not in self.mro(dotted):
                continue
            method = self.find_method(dotted, name)
            if (
                method is not None
                and method != callee_key
                and method not in overrides
            ):
                overrides.append(method)
        return overrides

    def _iter_call_bindings(
        self, func_key: FuncKey, call: CallSite
    ) -> Iterator[Tuple[FuncKey, str, Desc]]:
        """Yield ``(callee, param, arg_desc)`` for a resolvable call."""
        call_desc = ("call", call.callee, call.args, call.kwargs, call.line)
        target = self._resolve_call_target(call_desc, func_key)
        callee_key: Optional[FuncKey] = None
        if target is not None and target[0] == "func":
            callee_key = target[1]
        elif target is not None and target[0] == "class":
            callee_key = self.find_method(target[1], "__init__")
        if callee_key is None:
            return
        for target_key in [callee_key, *self._method_overrides(callee_key)]:
            callee = self.functions.get(target_key)
            if callee is None:
                continue
            params = list(callee.params)
            if callee.kind in ("method", "classmethod") and params:
                params = params[1:]
            for position, arg in enumerate(call.args):
                if position < len(params):
                    yield target_key, params[position], arg
            for name, arg in call.kwargs:
                if name in callee.params:
                    yield target_key, name, arg

    def _run_fixpoint(self) -> None:
        for _ in range(_MAX_ITERATIONS):
            changed = False
            for func_key, func in self.functions.items():
                for call in func.calls:
                    for callee_key, param, arg in self._iter_call_bindings(
                        func_key, call
                    ):
                        self.bound_params.add((callee_key, param))
                        tokens = self.resolve_rng(arg, func_key)
                        if tokens:
                            bucket = self.param_rng.setdefault(
                                (callee_key, param), set()
                            )
                            if not tokens <= bucket:
                                bucket |= tokens
                                changed = True
                for ln, ret_desc in func.returns:
                    tokens = self.resolve_rng(ret_desc, func_key)
                    if tokens:
                        bucket = self.return_rng.setdefault(func_key, set())
                        if not tokens <= bucket:
                            bucket |= tokens
                            changed = True
            for linked in self.classes.values():
                for attr, values in linked.attr_values.items():
                    for value_desc, func_key in values:
                        tokens = self.resolve_rng(value_desc, func_key)
                        if tokens:
                            bucket = self.attr_rng.setdefault(
                                (linked.dotted, attr), set()
                            )
                            if not tokens <= bucket:
                                bucket |= tokens
                                changed = True
            if not changed:
                break

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------

    def is_tracerish(self, desc: Desc, func_key: Optional[FuncKey]) -> bool:
        """Is this receiver a tracer (by type, or failing that by name)?"""
        resolved = self.resolve_type(desc, func_key)
        if resolved is not None and resolved[0] == "optional":
            resolved = resolved[1]
        if resolved is not None and resolved[0] == "cls":
            return self.is_tracer_class(resolved[1])
        if not isinstance(desc, tuple) or not desc:
            return False
        tail = None
        if desc[0] in ("param", "selfattr", "global"):
            tail = desc[1]
        elif desc[0] == "getattr":
            tail = desc[2]
        if isinstance(tail, str):
            return "tracer" in tail.lower()
        return False

    def _classify(self) -> None:
        for func_key, func in self.functions.items():
            for call in func.calls:
                callee = call.callee
                if not isinstance(callee, tuple) or not callee:
                    continue
                method: Optional[str] = None
                recv: Optional[Desc] = None
                if callee[0] == "getattr":
                    recv, method = callee[1], callee[2]
                elif callee[0] == "selfattr":
                    recv, method = SELF, callee[1]
                elif callee[0] == "global":
                    # ``from random import choice`` style direct draws.
                    summary = self.modules.get(func_key[0])
                    dotted = (
                        summary.imports.get(callee[1]) if summary else None
                    )
                    if dotted and dotted.startswith("random."):
                        name = dotted.split(".", 1)[1]
                        if name in DRAW_METHODS:
                            recv, method = ("global", "random"), name

                # Emission first: a resolvable Tracer.event target is
                # still an emission site, not a plain call.
                if (
                    method is not None
                    and recv is not None
                    and method in TRACER_METHODS
                    and self.is_tracerish(recv, func_key)
                ):
                    self.tracer_calls.append(
                        TracerCall(func=func_key, call=call, method=method)
                    )
                    continue
                if method not in DRAW_METHODS or recv is None:
                    continue
                # A call resolved to a project function or class is
                # not a draw.
                call_desc = (
                    "call", call.callee, call.args, call.kwargs, call.line
                )
                if self._resolve_call_target(call_desc, func_key):
                    continue
                recv_type = self.resolve_type(recv, func_key)
                if recv_type is not None and recv_type[0] == "optional":
                    recv_type = recv_type[1]
                tokens = frozenset(self.resolve_rng(recv, func_key))
                if recv_type is not None and recv_type != ("cls", RNG_CLASS):
                    # A known non-RNG type: .sample()/.pop() etc. on a
                    # project object or container is not a draw.
                    continue
                external = False
                if not tokens:
                    external = self._is_external_rng_param(recv, func_key)
                self.draws.append(
                    DrawSite(
                        func=func_key,
                        call=call,
                        method=method,
                        tokens=tokens,
                        external=external,
                    )
                )

    def _is_external_rng_param(
        self, desc: Desc, func_key: Optional[FuncKey]
    ) -> bool:
        """Unattributed draw excuse: an annotated-RNG parameter that no
        project code ever binds (callers live outside, e.g. tests)."""
        root = desc
        while isinstance(root, tuple) and root and root[0] == "getattr":
            root = root[1]
        if (
            isinstance(root, tuple)
            and root
            and root[0] == "param"
            and func_key is not None
        ):
            func = self.functions.get(func_key)
            if func is None:
                return False
            ann = func.param_ann.get(root[1])
            ann_ok = ann == ("cls", RNG_CLASS) or (
                ann is not None
                and ann[0] == "optional"
                and ann[1] == ("cls", RNG_CLASS)
            )
            return ann_ok and (func_key, root[1]) not in self.bound_params
        return False

    # ------------------------------------------------------------------
    # Convenience iterators for the rule packs
    # ------------------------------------------------------------------

    def iter_functions(self) -> Iterator[Tuple[FuncKey, FuncSummary]]:
        return iter(self.functions.items())

    def path_of(self, func_key: FuncKey) -> str:
        return self.paths.get(func_key[0], func_key[0])
