"""Unit tests for the repro.checkers rule packs.

Each rule gets a positive case (violating snippet -> finding), a
negative case (conforming snippet -> clean), and the framework tests
cover ``# repro: noqa[RULE]`` suppression, package scoping, rule
selection, and the CLI contract.
"""

import ast
import json
import textwrap
import tokenize

import pytest

from repro.checkers import (
    Finding,
    ProjectRule,
    all_rules,
    check_paths,
    check_source,
    module_name_for,
    rules_by_id,
)
from repro.checkers.cli import main


def rule_ids(source, module_name=None, path="<test>"):
    return [
        f.rule_id
        for f in check_source(source, path=path, module_name=module_name)
    ]


def dedent(source):
    return textwrap.dedent(source).lstrip("\n")


# ---------------------------------------------------------------------------
# framework
# ---------------------------------------------------------------------------


def pack_of(rule_id):
    return rule_id.rstrip("0123456789")


class TestFramework:
    def test_all_four_packs_registered(self):
        packs = {
            pack_of(cls.rule_id)
            for cls in all_rules()
            if not issubclass(cls, ProjectRule)
        }
        assert packs == {"DET", "UNIT", "SM", "API"}

    def test_all_seven_packs_registered(self):
        packs = {pack_of(cls.rule_id) for cls in all_rules()}
        assert packs == {"DET", "UNIT", "SM", "API", "FLOW", "ENC", "TRC"}
        assert len(all_rules()) == 14

    def test_rules_by_pack_prefix(self):
        det = rules_by_id(["DET"])
        assert len(det) >= 4
        assert all(cls.rule_id.startswith("DET") for cls in det)

    def test_rules_by_unknown_id_raises(self):
        with pytest.raises(KeyError):
            rules_by_id(["NOPE999"])

    def test_finding_render_and_dict(self):
        f = Finding("a.py", 3, 7, "DET101", "msg", "hint")
        assert f.render() == "a.py:3:7: DET101 msg (hint: hint)"
        assert f.to_dict()["rule"] == "DET101"

    def test_syntax_error_reports_parse_finding(self):
        assert rule_ids("def broken(:\n") == ["PARSE"]

    def test_module_name_for(self):
        assert (
            module_name_for("src/repro/farm/simulation.py")
            == "repro.farm.simulation"
        )
        assert module_name_for("src/repro/vm/__init__.py") == "repro.vm"
        assert module_name_for("/somewhere/else.py") is None

    def test_module_name_for_checkout_under_a_repro_dir(self):
        # The package root is the last ``repro`` component, not the first.
        assert (
            module_name_for("/work/repro/src/repro/farm/week.py")
            == "repro.farm.week"
        )
        assert module_name_for("repro/src/repro/__init__.py") == "repro"

    def test_noqa_specific_rule(self):
        src = "import random\nx = random.random()  # repro: noqa[DET101]\n"
        assert rule_ids(src) == []

    def test_noqa_wrong_rule_does_not_suppress(self):
        src = "import random\nx = random.random()  # repro: noqa[UNIT101]\n"
        assert rule_ids(src) == ["DET101"]

    def test_noqa_bare_suppresses_everything(self):
        src = "import random\nx = random.random()  # repro: noqa\n"
        assert rule_ids(src) == []

    def test_noqa_inside_string_is_not_a_suppression(self):
        src = (
            "import random\n"
            "s = '# repro: noqa[DET101]'\n"
            "x = random.random()\n"
        )
        assert rule_ids(src) == ["DET101"]


# ---------------------------------------------------------------------------
# DET: determinism
# ---------------------------------------------------------------------------


class TestDeterminismRules:
    def test_det101_module_level_random_call(self):
        src = "import random\nx = random.random()\n"
        assert "DET101" in rule_ids(src)

    def test_det101_from_import_of_global_stream(self):
        src = "from random import choice\n"
        assert "DET101" in rule_ids(src)

    def test_det101_seeded_instance_is_clean(self):
        src = "import random\nrng = random.Random(42)\nx = rng.random()\n"
        assert rule_ids(src) == []

    def test_det101_scoped_to_simulation_packages(self):
        src = "import random\nx = random.random()\n"
        assert rule_ids(src, module_name="repro.analysis.series") == []
        assert rule_ids(src, module_name="repro.farm.week") == ["DET101"]

    def test_det101_randomness_module_itself_exempt(self):
        src = "import random\nx = random.random()\n"
        assert rule_ids(src, module_name="repro.simulator.randomness") == []

    def test_det102_unseeded_random(self):
        src = "import random\nrng = random.Random()\n"
        assert rule_ids(src) == ["DET102"]

    def test_det102_system_random(self):
        src = "import random\nrng = random.SystemRandom(1)\n"
        assert rule_ids(src) == ["DET102"]

    def test_det102_seeded_is_clean(self):
        src = "import random\nrng = random.Random(seed)\n"
        assert rule_ids(src) == []

    def test_det103_wall_clock(self):
        src = "import time\nt = time.time()\n"
        assert rule_ids(src) == ["DET103"]

    def test_det103_datetime_now(self):
        src = "import datetime\nt = datetime.datetime.now()\n"
        assert rule_ids(src) == ["DET103"]

    def test_det103_simulator_clock_is_clean(self):
        src = "def f(sim):\n    return sim.time()\n"
        assert rule_ids(src) == []

    def test_det104_set_literal_iteration(self):
        src = "for x in {1, 2, 3}:\n    print(x)\n"
        assert rule_ids(src) == ["DET104"]

    def test_det104_named_set_and_comprehension(self):
        src = "s = set([2, 1])\nout = [x for x in s]\n"
        assert rule_ids(src) == ["DET104"]

    def test_det104_instance_attribute_set(self):
        src = dedent(
            """
            class C:
                def __init__(self):
                    self.woken = set()

                def drain(self):
                    for x in self.woken:
                        yield x
            """
        )
        assert rule_ids(src) == ["DET104"]

    def test_det104_sorted_iteration_is_clean(self):
        src = "s = set([2, 1])\nout = [x for x in sorted(s)]\n"
        assert rule_ids(src) == []


# ---------------------------------------------------------------------------
# UNIT: suffix families
# ---------------------------------------------------------------------------


class TestUnitRules:
    def test_unit101_mixed_addition(self):
        src = "def f(a_s, b_mib):\n    return a_s + b_mib\n"
        assert rule_ids(src) == ["UNIT101"]

    def test_unit101_mixed_comparison(self):
        src = "def f(delay_s, size_mib):\n    return delay_s < size_mib\n"
        assert rule_ids(src) == ["UNIT101"]

    def test_unit101_same_family_is_clean(self):
        src = "def f(a_mib, b_mib):\n    return a_mib + b_mib\n"
        assert rule_ids(src) == []

    def test_unit101_longest_suffix_wins(self):
        # _mib_per_s must not be misread as _s.
        src = "def f(rate_mib_per_s, size_mib):\n    return rate_mib_per_s + size_mib\n"
        assert rule_ids(src) == ["UNIT101"]

    def test_unit101_dimensional_division_is_clean(self):
        src = dedent(
            """
            def f(size_mib, bandwidth_mib_per_s):
                wait_s = size_mib / bandwidth_mib_per_s
                return wait_s
            """
        )
        assert rule_ids(src) == []

    def test_unit101_power_times_time_is_energy(self):
        src = dedent(
            """
            def f(power_w, elapsed_s, total_j):
                return total_j + power_w * elapsed_s
            """
        )
        assert rule_ids(src) == []

    def test_unit102_assignment_across_families(self):
        src = "def f(delay_s):\n    size_mib = delay_s\n    return size_mib\n"
        assert rule_ids(src) == ["UNIT102"]

    def test_unit102_augmented_assignment(self):
        src = "def f(total_j, power_w):\n    total_j += power_w\n    return total_j\n"
        assert rule_ids(src) == ["UNIT102"]

    def test_unit102_conversion_helper_sanctions_mix(self):
        src = dedent(
            """
            from repro.units import transfer_seconds

            def f(size_mib, link_mib_per_s):
                wait_s = transfer_seconds(size_mib, link_mib_per_s)
                return wait_s
            """
        )
        assert rule_ids(src) == []

    def test_unit103_keyword_argument(self):
        src = dedent(
            """
            def g(size_mib):
                return size_mib

            def f(delay_s):
                return g(size_mib=delay_s)
            """
        )
        assert rule_ids(src) == ["UNIT103"]

    def test_unit103_positional_argument_same_module(self):
        src = dedent(
            """
            def g(size_mib):
                return size_mib

            def f(delay_s):
                return g(delay_s)
            """
        )
        assert rule_ids(src) == ["UNIT103"]

    def test_unit103_conversion_helper_positional(self):
        src = "def f(delay_s, rate_mib_per_s):\n    return transfer_seconds(delay_s, rate_mib_per_s)\n"
        assert rule_ids(src) == ["UNIT103"]

    def test_unit103_matching_families_clean(self):
        src = dedent(
            """
            def g(size_mib):
                return size_mib

            def f(chunk_mib):
                return g(chunk_mib)
            """
        )
        assert rule_ids(src) == []


# ---------------------------------------------------------------------------
# SM: state machines
# ---------------------------------------------------------------------------


class TestStateMachineRules:
    """SM102 is the one lint-time state-machine rule.

    Power transitions are checked by the ``Host.power_state`` setter at
    run time (``tests/test_cluster_host.py``), and VM activity and
    residency by the ``REPRO_DEBUG_INDEXES`` rescan
    (``tests/test_perf_hotpath.py``).
    """

    def test_sm102_unknown_member(self):
        src = dedent(
            """
            def hibernate(host):
                check_transition(host.power_state, PowerState.HIBERNATING)
                host.power_state = PowerState.HIBERNATING
            """
        )
        assert "SM102" in rule_ids(src)

    def test_sm102_wrong_enum_for_attribute(self):
        src = dedent(
            """
            class VM:
                def __init__(self):
                    self.residency = VmActivity.ACTIVE
            """
        )
        assert "SM102" in rule_ids(src)

    def test_sm102_declared_members_clean(self):
        src = dedent(
            """
            class VM:
                def __init__(self):
                    self.residency = Residency.FULL
                    self.activity = VmActivity.IDLE
            """
        )
        assert rule_ids(src) == []


# ---------------------------------------------------------------------------
# API: export surface
# ---------------------------------------------------------------------------


class TestApiRules:
    def test_api101_unresolved_export(self):
        src = "__all__ = ['missing']\n"
        assert rule_ids(src) == ["API101"]

    def test_api101_resolved_exports_clean(self):
        src = "from os import path\n\nx = 1\n\n__all__ = ['path', 'x']\n"
        assert rule_ids(src) == []

    def test_api102_duplicate_export(self):
        src = "x = 1\n__all__ = ['x', 'x']\n"
        assert rule_ids(src) == ["API102"]

    def test_api103_unexported_public_symbol_in_init(self):
        src = "from os import path\n\n__all__ = []\n"
        assert rule_ids(src, path="pkg/__init__.py") == ["API103"]

    def test_api103_only_applies_to_init_modules(self):
        src = "from os import path\n\n__all__ = []\n"
        assert rule_ids(src, path="pkg/module.py") == []

    def test_api103_underscore_names_exempt(self):
        src = "from os import path as _path\n\n__all__ = []\n"
        assert rule_ids(src, path="pkg/__init__.py") == []

    def test_api_dynamic_all_is_skipped(self):
        src = "names = ['a']\n__all__ = names\n"
        assert rule_ids(src) == []


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def write(self, tmp_path, source):
        target = tmp_path / "snippet.py"
        target.write_text(source)
        return str(target)

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = self.write(tmp_path, "x = 1\n")
        assert main([path]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_violation_exits_nonzero_with_location(self, tmp_path, capsys):
        path = self.write(tmp_path, "import random\nx = random.random()\n")
        assert main([path]) == 1
        out = capsys.readouterr().out
        assert f"{path}:2:" in out
        assert "DET101" in out

    def test_json_format(self, tmp_path, capsys):
        path = self.write(tmp_path, "import time\nt = time.time()\n")
        assert main(["--format", "json", path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["count"] == 1
        assert report["clean"] is False
        assert report["findings"][0]["rule"] == "DET103"

    def test_rule_selection(self, tmp_path):
        path = self.write(tmp_path, "import random\nx = random.random()\n")
        assert main(["--rules", "UNIT", path]) == 0
        assert main(["--rules", "DET101", path]) == 1

    def test_unknown_rule_is_usage_error(self, tmp_path):
        path = self.write(tmp_path, "x = 1\n")
        assert main(["--rules", "BOGUS", path]) == 2

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        # A typo'd path, or paths holding no Python file, must not report
        # a clean "0 findings" pass.
        readme = tmp_path / "README.md"
        readme.write_text("# not python\n")
        empty = tmp_path / "empty"
        empty.mkdir()
        for path, message in (
            (tmp_path / "no_such_dir", "no such file"),
            (readme, "no .py file"),
            (empty, "no .py file"),
        ):
            assert main([str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err
            assert len(captured.err.splitlines()) == 1

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rid in ("DET101", "UNIT101", "SM102", "API101"):
            assert rid in out
        for retired in (
            "SM101", "SM103", "SM104", "TRC302",
            "ENC201", "TRC303", "FLOW102", "FLOW103",
        ):
            assert retired not in out


# ---------------------------------------------------------------------------
# the one pass: module and project rules together
# ---------------------------------------------------------------------------


def write_tree(root, files):
    """Write ``{relative path: source}`` under ``root/repro``."""
    package = root / "repro"
    for rel, source in files.items():
        target = package / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(dedent(source), encoding="utf-8")
    return str(package)


#: A module-level global-stream call (DET101, line 3) next to a draw no
#: RNG stream reaches (FLOW101, line 7).
MIXED = """
import random

x = random.random()


def rogue(rng):
    return rng.random()
"""


class TestOnePass:
    def test_each_file_parsed_and_tokenized_once(self, tmp_path, monkeypatch):
        root = write_tree(
            tmp_path,
            {
                "core/a.py": "def a(rng):\n    return rng.random()\n",
                "core/b.py": "from repro.core.a import a\n\nB = 1\n",
                "farm/c.py": "def c(x_s, y_s):\n    return x_s + y_s\n",
                # Only a file that mentions noqa is tokenized.
                "farm/d.py": (
                    "import random\n\n"
                    "x = random.random()  # repro: noqa[DET101]\n"
                ),
            },
        )
        calls = {"parse": 0, "tokenize": 0}
        real_parse = ast.parse
        real_tokens = tokenize.generate_tokens

        def counting_parse(*args, **kwargs):
            calls["parse"] += 1
            return real_parse(*args, **kwargs)

        def counting_tokens(*args, **kwargs):
            calls["tokenize"] += 1
            return real_tokens(*args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        monkeypatch.setattr(tokenize, "generate_tokens", counting_tokens)
        result = check_paths([root])
        assert calls == {"parse": 4, "tokenize": 1}
        findings, project = result
        # d.py's DET101 is suppressed by its marker.
        assert [f.rule_id for f in findings] == ["FLOW101"]
        assert set(project.modules) == {
            "repro.core.a", "repro.core.b", "repro.farm.c", "repro.farm.d"
        }

    def test_checkout_under_a_repro_dir_keeps_package_scope(self, tmp_path):
        # A checkout at .../repro/src/repro: the DET scope still sees
        # repro.core.planted, so the planted global-stream call is found.
        root = write_tree(
            tmp_path / "repro" / "src",
            {"core/planted.py": "import random\n\nx = random.random()\n"},
        )
        findings, project = check_paths([root])
        assert [(f.rule_id, f.line) for f in findings] == [("DET101", 3)]
        assert set(project.modules) == {"repro.core.planted"}

    def test_rules_mix_ids_from_both_kinds(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"core/mixed.py": MIXED})
        assert main(["--rules", "DET101,FLOW101", root]) == 1
        out = capsys.readouterr().out
        assert ":3:" in out and "DET101" in out
        assert ":7:" in out and "FLOW101" in out
        assert out.splitlines()[-1] == "2 findings"

    def test_json_and_sarif_report_both_kinds(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"core/mixed.py": MIXED})
        assert main(["--format", "json", root]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [(f["rule"], f["line"]) for f in report["findings"]] == [
            ("DET101", 3),
            ("FLOW101", 7),
        ]
        assert main(["--format", "sarif", root]) == 1
        [run] = json.loads(capsys.readouterr().out)["runs"]
        assert [
            (r["ruleId"], r["locations"][0]["physicalLocation"]["region"][
                "startLine"
            ])
            for r in run["results"]
        ] == [("DET101", 3), ("FLOW101", 7)]
        sarif_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert sarif_ids == sorted(cls.rule_id for cls in all_rules())
        assert len(sarif_ids) == 14
