"""Extraction + linking coverage: summaries, call graph, RNG fixpoint.

Exercises the parts of :mod:`repro.checkers.flow` that the rule-level
tests take for granted: decorated functions, lambdas, self-dispatch
across inheritance, call cycles reaching fixpoint, and a file that does
not parse.
"""

import ast
import textwrap

from repro.checkers import check_paths
from repro.checkers.flow.project import ProjectContext
from repro.checkers.flow.summary import ModuleSummary, summarize_tree


def summarize(source: str, module: str = "repro.farm.demo") -> ModuleSummary:
    path = "src/" + module.replace(".", "/") + ".py"
    return summarize_tree(ast.parse(textwrap.dedent(source)), path, module)


def link(*summaries: ModuleSummary) -> ProjectContext:
    return ProjectContext(summaries)


class TestExtraction:
    def test_decorated_function_keeps_kind_and_calls(self):
        summary = summarize(
            """
            import functools

            @functools.lru_cache(maxsize=None)
            def cached(x):
                return helper(x)

            def helper(x):
                return x
            """
        )
        func = summary.functions["cached"]
        assert func.kind == "function"
        assert "lru_cache" in func.decorators
        assert any(c.callee == ("global", "helper") for c in func.calls)

    def test_call_through_decorated_function_resolves(self):
        ctx = link(
            summarize(
                """
                import functools
                import random

                @functools.lru_cache(maxsize=None)
                def draws(rng):
                    return rng.random()

                def caller(seed):
                    return draws(random.Random(7))
                """
            )
        )
        key = ("repro.farm.demo", "draws")
        assert key in ctx.transitive_draws
        assert ("repro.farm.demo", "caller") in ctx.transitive_draws
        # The seeded Random flowed into the decorated callee's param.
        assert any(
            t.startswith("seeded:") for t in ctx.param_rng[(key, "rng")]
        )

    def test_lambda_gets_its_own_summary(self):
        summary = summarize(
            """
            def outer(items, rng):
                return sorted(items, key=lambda v: rng.random() + v)
            """
        )
        lambdas = [q for q in summary.functions if "<lambda" in q]
        assert len(lambdas) == 1
        lam = summary.functions[lambdas[0]]
        assert any(
            c.callee == ("getattr", ("param", "rng"), "random")
            for c in lam.calls
        )

    def test_methods_staticmethods_classmethods(self):
        summary = summarize(
            """
            class Box:
                def normal(self):
                    return self.x

                @staticmethod
                def still(v):
                    return v

                @classmethod
                def build(cls):
                    return cls()
            """
        )
        assert summary.functions["Box.normal"].kind == "method"
        assert summary.functions["Box.still"].kind == "staticmethod"
        assert summary.functions["Box.build"].kind == "classmethod"
        assert summary.classes["Box"].methods["normal"] == "Box.normal"

    def test_parse_error_recorded_not_raised(self, tmp_path):
        # The driver is the only code that parses: a file that does not
        # parse is one PARSE finding and stays out of the link, while the
        # rest of the tree is still summarised and linked.
        package = tmp_path / "repro" / "farm"
        package.mkdir(parents=True)
        (package / "broken.py").write_text("def broken(:\n    pass\n")
        (package / "fine.py").write_text("def fine():\n    return 1\n")
        findings, ctx = check_paths([str(tmp_path)])
        assert [(f.rule_id, f.line) for f in findings] == [("PARSE", 1)]
        assert findings[0].path.endswith("broken.py")
        assert ("repro.farm.fine", "fine") in ctx.functions
        assert "repro.farm.broken" not in ctx.modules


class TestLinking:
    def test_self_dispatch_across_inheritance(self):
        base = summarize(
            """
            class Base:
                def template(self):
                    return self.step()

                def step(self):
                    return 0
            """,
            module="repro.farm.base",
        )
        sub = summarize(
            """
            import random
            from repro.farm.base import Base

            class Sub(Base):
                def __init__(self, rng: random.Random) -> None:
                    self._rng = rng

                def step(self):
                    return self._rng.random()
            """,
            module="repro.farm.sub",
        )
        ctx = link(base, sub)
        assert ctx.find_method("repro.farm.sub.Sub", "template") == (
            "repro.farm.base",
            "Base.template",
        )
        assert ctx.find_method("repro.farm.sub.Sub", "step") == (
            "repro.farm.sub",
            "Sub.step",
        )
        # Base.template calls self.step(); the subclass override draws,
        # so both the override and the base template are stochastic.
        assert ("repro.farm.sub", "Sub.step") in ctx.transitive_draws

    def test_call_cycle_reaches_fixpoint(self):
        ctx = link(
            summarize(
                """
                import random

                def ping(rng, depth):
                    if depth <= 0:
                        return rng.random()
                    return pong(rng, depth - 1)

                def pong(rng, depth):
                    return ping(rng, depth)

                def entry():
                    return ping(random.Random(3), 4)
                """
            )
        )
        module = "repro.farm.demo"
        for qual in ("ping", "pong", "entry"):
            assert (module, qual) in ctx.transitive_draws
        # Attribution propagated around the ping<->pong cycle.
        assert ctx.param_rng[((module, "ping"), "rng")]
        assert ctx.param_rng[((module, "pong"), "rng")]

    def test_union_default_rng_attributes_both_branches(self):
        ctx = link(
            summarize(
                """
                import random

                class Manager:
                    def __init__(self, rng=None):
                        self.rng = rng if rng is not None else random.Random(0)

                    def act(self):
                        return self.rng.random()
                """
            )
        )
        [draw] = [
            d for d in ctx.draws if d.func == ("repro.farm.demo", "Manager.act")
        ]
        assert any(t.startswith("seeded:") for t in draw.tokens)

    def test_streams_literal_get_yields_named_stream(self):
        streams_mod = summarize(
            """
            import random

            class RngStreams:
                def get(self, name: str) -> random.Random:
                    return random.Random(0)
            """,
            module="repro.simulator.randomness",
        )
        user_mod = summarize(
            """
            from repro.simulator.randomness import RngStreams

            class Engine:
                def __init__(self, streams: RngStreams) -> None:
                    self._rng = streams.get("traffic")

                def act(self):
                    return self._rng.random()
            """,
            module="repro.farm.engine",
        )
        ctx = link(streams_mod, user_mod)
        [draw] = [
            d for d in ctx.draws
            if d.func == ("repro.farm.engine", "Engine.act")
        ]
        assert draw.tokens == frozenset({"stream:traffic"})

