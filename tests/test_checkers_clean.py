"""Tier-1 gate: the shipped tree is violation-free under repro.checkers.

This is the contract the linter exists to enforce: every determinism,
unit-safety, state-machine, and API-surface rule, and every whole-program
FLOW/ENC/TRC rule, holds across the whole ``repro`` package (explicit
``# repro: noqa[RULE]`` suppressions included, so a suppression is
always a reviewed decision, never an accident).  One module-scoped lint
pass feeds every test here but the project-rules-only pass.
"""

import os

import pytest

import repro
from repro.checkers import ProjectRule, all_rules, check_paths

PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__))


@pytest.fixture(scope="module")
def tree_pass():
    """``(findings, project)`` of one lint pass over the real tree."""
    return check_paths([PACKAGE_ROOT])


class TestTreeIsClean:
    def test_no_findings_across_repro(self, tree_pass):
        findings, _ = tree_pass
        rendered = "\n".join(f.render() for f in findings)
        assert not findings, f"repro.checkers found violations:\n{rendered}"

    def test_package_root_is_the_real_tree(self):
        # Guard against an empty-directory false pass.
        assert os.path.isfile(os.path.join(PACKAGE_ROOT, "units.py"))
        assert os.path.isdir(os.path.join(PACKAGE_ROOT, "checkers"))


class TestProjectModeIsClean:
    """The project rules hold on the real tree and saw it, not an empty link."""

    def test_no_project_findings_across_repro(self):
        # Select only the FLOW/ENC/TRC packs, so a project finding cannot
        # hide behind a module rule's selection or suppression path.
        project_rules = [r for r in all_rules() if issubclass(r, ProjectRule)]
        packs = {r.rule_id.rstrip("0123456789") for r in project_rules}
        assert packs == {"FLOW", "ENC", "TRC"}
        findings, _ = check_paths([PACKAGE_ROOT], rules=project_rules)
        rendered = "\n".join(f.render() for f in findings)
        assert not findings, (
            f"repro.checkers project rules found violations:\n{rendered}"
        )

    def test_analysis_covered_the_real_tree(self, tree_pass):
        _, ctx = tree_pass
        # Non-vacuity: the linker saw the simulation's own draw sites and
        # index-holding classes, not an empty or trivially-clean tree.
        assert len(ctx.draws) > 10
        assert any(d.tokens for d in ctx.draws)
        assert any(
            dotted.endswith(".Host") for dotted in ctx.classes
        ), "expected cluster Host class in the linked project"


class TestZoneScopeCoverage:
    """The zoned-simulation module is inside every checker scope.

    ``repro.farm.zones`` produces figure-feeding energy numbers, so it
    must sit inside the DET pack's :data:`SIMULATION_PACKAGES` and the
    whole-program FLOW scope.  Both cover it today through the
    ``repro.farm`` prefix; these tests pin the contract so a future
    scope refactor cannot silently drop the shard coordinator from the
    determinism gate.
    """

    def test_det_scope_includes_zones(self):
        import ast

        from repro.checkers.base import ModuleContext
        from repro.checkers.rules.determinism import SIMULATION_PACKAGES

        ctx = ModuleContext(
            module_name="repro.farm.zones",
            path="src/repro/farm/zones.py",
            tree=ast.parse(""),
        )
        assert ctx.in_packages(SIMULATION_PACKAGES)

    def test_flow_scope_includes_zones(self):
        from repro.checkers.flow.rules_flow import _in_flow_scope

        assert _in_flow_scope("repro.farm.zones")
        assert not _in_flow_scope("repro.checkers.flow.rules_flow")

    def test_flow_linker_sees_the_zone_partition_draws(self, tree_pass):
        # Non-vacuity: the whole-program pass must actually observe the
        # zones module (its shuffle draw and partition classes), not
        # skip it as out-of-tree.
        _, ctx = tree_pass
        assert any(
            dotted.startswith("repro.farm.zones.") for dotted in ctx.classes
        ), "expected ZonePartition in the linked project"


class TestStrategyScopeCoverage:
    """Policy resolution and the Γ-robust planner are inside every
    checker scope.

    ``repro.core.strategies`` resolves the policy every run is built
    from and ``repro.policies.gamma`` derives per-VM demand intervals
    from the simulation seed — both feed figures, so both must sit
    inside the DET pack's :data:`SIMULATION_PACKAGES` and the
    whole-program FLOW scope.  ``repro.policies`` is a top-level package
    of its own (not under ``repro.core``), so its membership is an
    explicit entry these tests pin against scope refactors.
    """

    def test_det_scope_includes_strategies_and_gamma(self):
        import ast

        from repro.checkers.base import ModuleContext
        from repro.checkers.rules.determinism import SIMULATION_PACKAGES

        for module_name, path in (
            ("repro.core.strategies", "src/repro/core/strategies.py"),
            ("repro.policies.gamma", "src/repro/policies/gamma.py"),
        ):
            ctx = ModuleContext(
                module_name=module_name,
                path=path,
                tree=ast.parse(""),
            )
            assert ctx.in_packages(SIMULATION_PACKAGES), module_name

    def test_flow_scope_includes_strategies_and_gamma(self):
        from repro.checkers.flow.rules_flow import _in_flow_scope

        assert _in_flow_scope("repro.core.strategies")
        assert _in_flow_scope("repro.policies.gamma")

    def test_flow_linker_sees_the_gamma_planner(self, tree_pass):
        # Non-vacuity: the whole-program pass must actually link both
        # planners the manager builds, not skip them.
        _, ctx = tree_pass
        assert "repro.core.placement.GreedyVacatePlanner" in ctx.classes
        assert "repro.policies.gamma.GammaRobustPlanner" in ctx.classes


class TestEquivScopeCoverage:
    """The equivalence harness is inside every checker scope.

    ``repro.equiv`` runs simulations and derives ensemble seeds, so the
    DET pack and the whole-program FLOW scope must cover it — the
    battery that certifies engine variants must itself meet the
    determinism bar it enforces on the engine.  ``repro.equiv`` is a
    top-level package (not under ``repro.farm``), so its membership is
    an explicit :data:`SIMULATION_PACKAGES` entry these tests pin.
    """

    def test_det_scope_includes_equiv(self):
        import ast

        from repro.checkers.base import ModuleContext
        from repro.checkers.rules.determinism import SIMULATION_PACKAGES

        for module_name, path in (
            ("repro.equiv.harness", "src/repro/equiv/harness.py"),
            ("repro.equiv.mutants", "src/repro/equiv/mutants.py"),
            ("repro.equiv.battery", "src/repro/equiv/battery.py"),
        ):
            ctx = ModuleContext(
                module_name=module_name,
                path=path,
                tree=ast.parse(""),
            )
            assert ctx.in_packages(SIMULATION_PACKAGES), module_name

    def test_flow_scope_includes_equiv(self):
        from repro.checkers.flow.rules_flow import _in_flow_scope

        assert _in_flow_scope("repro.equiv.harness")
        assert _in_flow_scope("repro.equiv.mutants")

    def test_flow_linker_sees_the_mutant_registry(self, tree_pass):
        # Non-vacuity: the whole-program pass must actually link the
        # harness and mutant classes (including the biased-RNG mutant's
        # reviewed noqa), not skip the package as out-of-tree.
        _, ctx = tree_pass
        assert any(
            dotted.startswith("repro.equiv.mutants.")
            for dotted in ctx.classes
        ), "expected the mutant classes in the linked project"
        assert any(
            dotted.startswith("repro.equiv.")
            and dotted.endswith(".RunFingerprint")
            for dotted in ctx.classes
        ), "expected RunFingerprint in the linked project"
