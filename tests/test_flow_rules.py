"""Rule battery for the whole-program FLOW/ENC/TRC packs.

Three layers of assurance:

- synthetic fixture modules where each rule must fire at an exact
  ``file:line`` (the seeded-fault battery from the acceptance criteria);
- a mutation battery that appends a rogue index write to each *real*
  indexed module and asserts ENC201 catches it;
- end-to-end ``check_paths`` runs covering suppressions and parse
  errors.
"""

import ast
import json
import textwrap

from repro.checkers import (
    ProjectRule,
    all_rules,
    check_paths,
    check_source,
    rules_by_id,
)
from repro.checkers.driver import read_source
from repro.checkers.flow.descriptors import TRACER_METHODS
from repro.checkers.flow.project import ProjectContext
from repro.checkers.flow.rules_enc import INDEX_SPECS
from repro.checkers.flow.rules_trc import _STATE_ATTRS, _STATE_METHODS
from repro.checkers.flow.summary import summarize_tree
from repro.obs.tracer import RecordingTracer, Tracer


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

    def now_s(self):
        return 0.0
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

    def test_flow102_unguarded_fault_draw(self):
        source = """
        class Injector:
            def __init__(self, rng, profile):
                self._rng = rng
                self.profile = profile

            def maybe_fail(self):
                return self._rng.random() < self.profile.fail_prob

            def guarded_fail(self):
                if self.profile.fail_prob <= 0.0:
                    return False
                return self._rng.random() < self.profile.fail_prob
        """
        ctx = build_ctx({"repro.faults.injector": source})
        found = rendered(run_rules(ctx, "FLOW102"))
        assert found == [("FLOW102", "src/repro/faults/injector.py", 8)]

    def test_flow103_guarded_stochastic_call_needs_mirror(self):
        ctx = build_ctx(
            {
                "repro.obs.tracer": TRACER_MODULE,
                "repro.core.planner": """
                import random
                from repro.obs.tracer import Tracer

                class Planner:
                    def __init__(self, tracer: Tracer, rng: random.Random):
                        self.tracer = tracer
                        self.rng = rng

                    def plan(self):
                        if self.tracer.enabled:
                            self._stochastic()

                    def mirrored(self):
                        if self.tracer.enabled:
                            self._stochastic()
                        else:
                            self._stochastic()

                    def _stochastic(self):
                        return self.rng.random()
                """,
            }
        )
        found = rendered(run_rules(ctx, "FLOW103"))
        assert found == [("FLOW103", "src/repro/core/planner.py", 12)]

    def test_flow103_direct_draw_under_tracer_guard(self):
        # A direct draw under the guard is flagged even when the else
        # branch makes the same draw: tracing still reorders the stream.
        ctx = build_ctx(
            {
                "repro.obs.tracer": TRACER_MODULE,
                "repro.core.engine": """
                import random
                from repro.obs.tracer import Tracer

                class Engine:
                    def __init__(self, tracer: Tracer, rng: random.Random):
                        self.tracer = tracer
                        self.rng = rng

                    def bad(self):
                        if self.tracer.enabled:
                            jitter = self.rng.random()
                            self.tracer.event("jitter", value=jitter)

                    def mirrored(self):
                        if self.tracer.enabled:
                            self.rng.random()
                        else:
                            self.rng.random()

                    def hoisted(self):
                        jitter = self.rng.random()
                        if self.tracer.enabled:
                            self.tracer.event("jitter", value=jitter)
                """,
            }
        )
        found = rendered(run_rules(ctx, "FLOW103"))
        assert found == [
            ("FLOW103", "src/repro/core/engine.py", 12),
            ("FLOW103", "src/repro/core/engine.py", 17),
        ]


class TestEncPack:
    def test_enc201_mutation_battery_real_modules(self):
        """Append a rogue write to each index attribute of each real
        indexed module; ENC201 must catch every one at the exact
        appended line."""
        for spec in INDEX_SPECS:
            module = spec.cls.rsplit(".", 1)[0]
            cls_name = spec.cls.rsplit(".", 1)[1]
            path = "src/" + module.replace(".", "/") + ".py"
            source = read_source(path)
            base_lines = source.count("\n")
            for attr in sorted(spec.attrs):
                rogue = (
                    f"\n\ndef _rogue(x: {cls_name}) -> None:\n"
                    f"    x.{attr} = None\n"
                )
                summary = summarize_tree(
                    ast.parse(source + rogue), path, module
                )
                ctx = ProjectContext([summary])
                found = rendered(run_rules(ctx, "ENC201"))
                expected_line = base_lines + 4
                assert (("ENC201", path, expected_line) in found), (
                    f"rogue write to {spec.cls}.{attr} not caught; "
                    f"got {found}"
                )

    def test_enc201_power_state_writers(self):
        # The property setter's def carries the qual Host.power_state;
        # with __init__ and start_asleep it is the only sanctioned writer.
        ctx = build_ctx(
            {
                "repro.cluster.host": """
                class Host:
                    def __init__(self):
                        self._power_state = "powered"

                    @property
                    def power_state(self):
                        return self._power_state

                    @power_state.setter
                    def power_state(self, state):
                        self._power_state = state

                    def start_asleep(self):
                        self._power_state = "sleeping"

                    def force_sleep(self):
                        self._power_state = "sleeping"

                def rogue(h: Host):
                    h._power_state = "powered"
                """
            }
        )
        found = rendered(run_rules(ctx, "ENC201"))
        assert found == [
            ("ENC201", "src/repro/cluster/host.py", 18),
            ("ENC201", "src/repro/cluster/host.py", 21),
        ]

    def test_enc201_foreign_vm_activity_write(self):
        # A free function setting a VM's activity skips the idle-streak
        # bookkeeping of set_activity/apply_activity_edge.
        [finding] = check_source(
            textwrap.dedent(
                """\
                def activate(vm):
                    vm.activity = VmActivity.ACTIVE
                """
            ),
            module_name="repro.core.activation",
        )
        assert (finding.rule_id, finding.line) == ("ENC201", 2)

    def test_enc201_vm_activity_methods_not_module(self):
        # The sanctioned writers are methods; other code in the owner's
        # module is flagged like code anywhere else.
        ctx = build_ctx(
            {
                "repro.vm.machine": """
                class VirtualMachine:
                    def __init__(self):
                        self.activity = "idle"

                    def set_activity(self, activity):
                        self.activity = activity

                def activate(vm):
                    vm.activity = "active"
                """
            }
        )
        found = rendered(run_rules(ctx, "ENC201"))
        assert found == [("ENC201", "src/repro/vm/machine.py", 10)]

    def test_enc201_own_activity_attribute_is_clean(self):
        # Another class's own ``activity`` attribute is not the VM's.
        source = """
        class Session:
            def set_activity(self, activity):
                self.activity = activity

            def reset(self):
                self.activity = None
        """
        ctx = build_ctx({"repro.traces.session": source})
        assert run_rules(ctx, "ENC201") == []

    def test_enc201_inplace_container_mutation(self):
        ctx = build_ctx(
            {
                "repro.cluster.host": """
                class Host:
                    def __init__(self):
                        self._served_images = set()

                    def add_served_image(self, vm_id):
                        self._served_images.add(vm_id)

                def rogue(h: Host):
                    h._served_images.add(99)
                """
            }
        )
        found = rendered(run_rules(ctx, "ENC201"))
        assert found == [("ENC201", "src/repro/cluster/host.py", 10)]

    def test_enc201_sanctioned_mutator_is_clean(self):
        ctx = build_ctx(
            {
                "repro.cluster.topology": """
                class Cluster:
                    def __init__(self):
                        self._powered_home = 0

                    def _on_power_edge(self, host, previous, state):
                        self._powered_home += 1
                """
            }
        )
        assert run_rules(ctx, "ENC201") == []

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
        # The linter keeps its own lists of the tracer's members; this
        # pins them to the tracer, so a member added or removed there
        # cannot leave TRC301/TRC303 checking a stale surface.
        assert TRACER_METHODS == {
            name for name in public_members(Tracer)
            if callable(getattr(Tracer, name))
        }
        assert _STATE_ATTRS | _STATE_METHODS == (
            public_members(RecordingTracer()) - public_members(Tracer)
        )

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

    def test_trc303_tracer_state_reads(self):
        ctx = build_ctx(
            {
                "repro.obs.tracer": TRACER_MODULE,
                "repro.core.engine": """
                from repro.obs.tracer import Tracer

                class Engine:
                    def __init__(self, tracer: Tracer):
                        self.tracer = tracer

                    def clock_read(self):
                        return self.tracer.now_s()

                    def state_read(self, t: Tracer):
                        return t.events
                """,
            }
        )
        found = sorted(rendered(run_rules(ctx, "TRC303")))
        assert found == [
            ("TRC303", "src/repro/core/engine.py", 9),
            ("TRC303", "src/repro/core/engine.py", 12),
        ]

    def test_trc_exempt_inside_obs(self):
        exporter = """
        from repro.obs.tracer import Tracer

        def export(tracer: Tracer):
            return tracer.now_s()
        """
        inside = build_ctx(
            {"repro.obs.tracer": TRACER_MODULE, "repro.obs.exporter": exporter}
        )
        assert run_rules(inside, "TRC") == []
        # The same read from simulation code is flagged.
        outside = build_ctx(
            {"repro.obs.tracer": TRACER_MODULE, "repro.core.exporter": exporter}
        )
        assert rendered(run_rules(outside, "TRC")) == [
            ("TRC303", "src/repro/core/exporter.py", 5)
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
        assert {"FLOW101", "ENC201", "TRC301"} <= rule_ids
