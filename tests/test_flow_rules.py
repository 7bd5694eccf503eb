"""Rule battery for the whole-program FLOW/ENC/TRC packs.

Two layers of assurance:

- synthetic fixture modules where each rule must fire at an exact
  ``file:line``;
- end-to-end ``check_paths`` runs covering suppressions and parse
  errors.

Index drift is the run-time rescan's to catch: the drift battery in
``tests/test_perf_hotpath.py`` plants one per index.
"""

import ast
import json
import textwrap

from repro.checkers import (
    ProjectRule,
    all_rules,
    check_paths,
    rules_by_id,
)
from repro.checkers.flow.descriptors import TRACER_METHODS
from repro.checkers.flow.project import ProjectContext
from repro.checkers.flow.summary import summarize_tree
from repro.obs.tracer import Tracer


def build_ctx(modules):
    """``{dotted_module: source} -> ProjectContext``."""
    summaries = []
    for module, source in modules.items():
        path = "src/" + module.replace(".", "/") + ".py"
        tree = ast.parse(textwrap.dedent(source))
        summaries.append(summarize_tree(tree, path, module))
    return ProjectContext(summaries)


def run_rules(ctx, prefix=""):
    found = []
    for rule_cls in all_rules():
        if not issubclass(rule_cls, ProjectRule):
            continue
        if rule_cls.rule_id.startswith(prefix):
            found.extend(rule_cls().check(ctx))
    return found


def rendered(findings):
    return [(f.rule_id, f.path, f.line) for f in findings]


TRACER_MODULE = """
class Tracer:
    enabled = False

    def event(self, name, **labels):
        return None

    def span(self, name):
        return None
"""


class TestFlowPack:
    def test_flow101_rogue_draw_exact_location(self):
        ctx = build_ctx(
            {
                "repro.core.evil": """
                import random

                def rogue():
                    r = random.Random()
                    return r.random()
                """
            }
        )
        assert rendered(run_rules(ctx, "FLOW101")) == [
            ("FLOW101", "src/repro/core/evil.py", 6)
        ]

    def test_flow101_attributed_and_external_are_clean(self):
        ctx = build_ctx(
            {
                "repro.core.good": """
                import random

                def seeded():
                    return random.Random(42).random()

                def external(rng: random.Random):
                    return rng.gauss(0.0, 1.0)
                """
            }
        )
        assert run_rules(ctx, "FLOW101") == []


class TestEncPack:
    def test_enc202_leaked_index_handle(self):
        ctx = build_ctx(
            {
                "repro.cluster.host": """
                class Host:
                    def __init__(self):
                        self._vms = {}

                    def leak(self):
                        return self._vms

                    def safe(self):
                        return list(self._vms)
                """
            }
        )
        found = rendered(run_rules(ctx, "ENC202"))
        assert found == [("ENC202", "src/repro/cluster/host.py", 7)]


def public_members(obj):
    return {name for name in dir(obj) if not name.startswith("_")}


class TestTrcPack:
    def test_vocabulary_matches_the_tracer(self):
        # The linter keeps its own list of the tracer's emission methods;
        # this pins it to the tracer, so a method added or removed there
        # cannot leave TRC301 checking a stale surface.
        assert TRACER_METHODS == {
            name for name in public_members(Tracer)
            if callable(getattr(Tracer, name))
        }

    def test_trc301_emission_result_feeds_value(self):
        ctx = build_ctx(
            {
                "repro.obs.tracer": TRACER_MODULE,
                "repro.core.engine": """
                from repro.obs.tracer import Tracer

                class Engine:
                    def __init__(self, tracer: Tracer):
                        self.tracer = tracer

                    def bad(self):
                        marker = self.tracer.event("step")
                        return marker

                    def good(self):
                        self.tracer.event("step")
                """,
            }
        )
        found = rendered(run_rules(ctx, "TRC301"))
        assert found == [("TRC301", "src/repro/core/engine.py", 9)]

    def test_trc_exempt_inside_obs(self):
        exporter = """
        from repro.obs.tracer import Tracer

        def export(tracer: Tracer):
            return tracer.event("export")
        """
        inside = build_ctx(
            {"repro.obs.tracer": TRACER_MODULE, "repro.obs.exporter": exporter}
        )
        assert run_rules(inside, "TRC") == []
        # The same use of an emission's result in simulation code is
        # flagged.
        outside = build_ctx(
            {"repro.obs.tracer": TRACER_MODULE, "repro.core.exporter": exporter}
        )
        assert rendered(run_rules(outside, "TRC")) == [
            ("TRC301", "src/repro/core/exporter.py", 5)
        ]


class TestProjectRunner:
    def _write_tree(self, tmp_path, files):
        root = tmp_path / "src" / "repro"
        for rel, source in files.items():
            target = root / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(textwrap.dedent(source), encoding="utf-8")
        return str(root)

    def test_end_to_end_reports_flow101(self, tmp_path):
        root = self._write_tree(
            tmp_path,
            {
                "core/evil.py": """
                import random

                def rogue():
                    return random.Random().random()
                """
            },
        )
        findings, _ = check_paths([root], rules=rules_by_id(["FLOW"]))
        assert [f.rule_id for f in findings] == ["FLOW101"]

    def test_line_and_file_suppressions(self, tmp_path):
        root = self._write_tree(
            tmp_path,
            {
                "core/line.py": """
                import random

                def rogue():
                    return random.Random().random()  # repro: noqa[FLOW101]
                """,
                "core/whole.py": """
                # repro: noqa-file[FLOW101]
                import random

                def rogue():
                    return random.Random().random()
                """,
            },
        )
        findings, _ = check_paths([root], rules=rules_by_id(["FLOW"]))
        assert findings == []

    def test_syntax_error_reported_as_parse_finding(self, tmp_path):
        root = self._write_tree(
            tmp_path, {"core/broken.py": "def broken(:\n    pass\n"}
        )
        findings, _ = check_paths([root])
        assert [f.rule_id for f in findings] == ["PARSE"]
        assert findings[0].line == 1


class TestCliProjectMode:
    """The CLI reports project-rule findings from the default pass."""

    def test_sarif_output_shape(self, tmp_path, capsys):
        from repro.checkers.cli import main

        root = tmp_path / "src" / "repro" / "core"
        root.mkdir(parents=True)
        (root / "evil.py").write_text(
            "import random\n\ndef rogue():\n"
            "    return random.Random().random()\n",
            encoding="utf-8",
        )
        code = main([str(tmp_path / "src" / "repro"), "--format", "sarif"])
        assert code == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        [run] = log["runs"]
        [result] = [
            r for r in run["results"] if r["ruleId"] == "FLOW101"
        ]
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 4
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"FLOW101", "ENC202", "TRC301"} <= rule_ids
