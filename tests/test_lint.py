"""Tests for the static obliviousness linter (:mod:`repro.lint`).

Two layers:

* fixture tests — each pass must detect the intentional violations
  seeded under ``tests/lint_fixtures/``;
* the whole-repo gate — ``run_lint()`` over the real package must be
  strict-clean: no unexpected findings, every pragma justified and
  used, and the merge-sort baseline still flagged (its findings are
  the canary that the analyzer works at all).
"""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.lint import RULES, Finding, run_lint
from repro.lint.conformance import check_specs, reachable, runner_info
from repro.lint.model import Project
from repro.lint.pragmas import parse_pragmas
from repro.lint.taint import analyze_function, compute_summaries

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def _fixture_project(*names: str) -> Project:
    project = Project()
    for name in names:
        mod = project.add_module(FIXTURES / f"{name}.py", FIXTURES)
        assert mod is not None, f"fixture {name} failed to parse"
    project.finalize()
    compute_summaries(project)
    return project


def _module(project: Project, name: str):
    return next(m for m in project.modules.values() if m.path.stem == name)


@pytest.fixture(scope="module")
def repo_report():
    return run_lint()


# ---------------------------------------------------------------------------
# Pass 1: taint fixtures
# ---------------------------------------------------------------------------


class TestTaintFixtures:
    def _findings(self):
        project = _fixture_project("taint_violations")
        mod = _module(project, "taint_violations")
        findings = []
        for func in mod.functions.values():
            _, fnd = analyze_function(func, project, report=True)
            findings.extend(fnd)
        findings.extend(mod.pragmas.errors)
        findings.extend(mod.pragmas.unused_findings())
        return findings

    def test_all_taint_rules_fire(self):
        rules = {f.rule for f in self._findings()}
        assert {"OBL101", "OBL102", "OBL103", "OBL104", "OBL105"} <= rules

    def test_payload_chain_reported(self):
        findings = self._findings()
        obl102 = [f for f in findings if f.rule == "OBL102"]
        assert obl102
        assert any("payload read" in " ".join(f.chain) for f in obl102)

    def test_findings_carry_location(self):
        for f in self._findings():
            assert f.path.endswith("taint_violations.py")
            assert f.line > 0
            assert f.rule in RULES


# ---------------------------------------------------------------------------
# Pass 2: spec-conformance fixtures
# ---------------------------------------------------------------------------


def _load_spec_fixture():
    path = FIXTURES / "spec_violations.py"
    spec = importlib.util.spec_from_file_location("lint_fixture_specs", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestSpecFixtures:
    def _findings(self):
        sv = _load_spec_fixture()
        project = _fixture_project("spec_violations")
        base = dict(oblivious=False, output="records")
        specs = {
            # Seeded in_place mismatch: runner writes A, spec denies it.
            "fx_writes": SimpleNamespace(
                runner=sv.writes_input, in_place=False, randomized=True, **base
            ),
            "fx_stale": SimpleNamespace(
                runner=sv.never_writes, in_place=True, randomized=True, **base
            ),
            "fx_lasvegas": SimpleNamespace(
                runner=sv.hidden_lasvegas, in_place=False, randomized=False, **base
            ),
            "fx_rng": SimpleNamespace(
                runner=sv.hidden_rng,
                in_place=False,
                randomized=False,
                lint_public=(("leak", ""),),  # SPEC208: no justification
                **base,
            ),
            "fx_oblivious": SimpleNamespace(
                runner=sv.hidden_lasvegas,
                in_place=False,
                randomized=True,
                oblivious=True,
                output="records",
            ),
        }
        return check_specs(project, specs)

    def test_all_spec_rules_fire(self):
        rules = {f.rule for f in self._findings()}
        assert {
            "SPEC201",
            "SPEC202",
            "SPEC203",
            "SPEC204",
            "SPEC205",
            "SPEC208",
        } <= rules

    def test_seeded_in_place_mismatch_detected(self):
        findings = self._findings()
        assert any(
            f.rule == "SPEC201" and "fx_writes" in f.message for f in findings
        )
        assert any(
            f.rule == "SPEC202" and "fx_stale" in f.message for f in findings
        )

    def test_runner_info_resolves_fixture_runners(self):
        sv = _load_spec_fixture()
        project = _fixture_project("spec_violations")
        info = runner_info(project, sv.writes_input)
        assert info is not None
        assert info.name == "writes_input"
        assert "A" in info.summary.writes_params


# ---------------------------------------------------------------------------
# Pragma parsing
# ---------------------------------------------------------------------------


class TestPragmas:
    def test_nested_parens_in_expr(self):
        table = parse_pragmas(
            "x.py", "a = 1  # oblint: public(len(occupied)) -- bound\n"
        )
        assert not table.errors
        assert table.by_line[1].expr == "len(occupied)"
        assert table.by_line[1].justification == "bound"

    def test_missing_justification_is_error(self):
        table = parse_pragmas("x.py", "a = 1  # oblint: public(a)\n")
        assert [f.rule for f in table.errors] == ["OBL104"]

    def test_nonoblivious_form(self):
        table = parse_pragmas(
            "x.py", "def f():  # oblint: nonoblivious -- documented opt-out\n"
        )
        assert table.by_line[1].kind == "nonoblivious"

    def test_finding_rejects_unknown_rule(self):
        with pytest.raises(ValueError):
            Finding(rule="OBL999", path="x.py", line=1, message="nope")


# ---------------------------------------------------------------------------
# Whole-repo gate
# ---------------------------------------------------------------------------


class TestRepoGate:
    def test_no_unexpected_findings(self, repo_report):
        assert repo_report.unexpected == [], "\n".join(
            f.format() for f in repo_report.unexpected
        )

    def test_merge_sort_baseline_is_flagged(self, repo_report):
        assert repo_report.merge_sort_flagged()
        ms = [
            f
            for f in repo_report.expected
            if "external_merge_sort" in f.path
        ]
        # The baseline's whole point: branches, indices and loop bounds
        # all depend on key values.
        assert {f.rule for f in ms} >= {"OBL101", "OBL102"}
        assert len(ms) >= 3

    def test_every_pragma_is_used_and_justified(self, repo_report):
        rules = repo_report.rule_counts()
        assert rules.get("OBL104", 0) == 0  # all pragmas parse + justify
        assert rules.get("OBL105", 0) == 0  # no dead suppressions
        assert repo_report.pragma_count >= 40

    def test_registry_metadata_collected(self, repo_report):
        assert repo_report.lint_public_count >= 1

    def test_strict_ok(self, repo_report):
        assert repo_report.strict_ok()

    def test_summaries_converge_quickly(self, repo_report):
        assert repo_report.summary_rounds <= 8

    def test_json_report_shape(self, repo_report):
        data = json.loads(json.dumps(repo_report.as_dict()))
        assert data["unexpected"] == 0
        assert data["merge_sort_flagged"] is True
        assert all(f["rule"] in RULES for f in data["findings"])


# ---------------------------------------------------------------------------
# Analyzer internals that regressions would silently disable
# ---------------------------------------------------------------------------


class TestAnalyzerTeeth:
    def test_try_except_absorbs_lasvegas(self):
        src = (
            "def f(machine, A):\n"
            "    try:\n"
            "        g(A)\n"
            "    except LasVegasFailure:\n"
            "        return None\n"
            "\n"
            "def g(A):\n"
            "    raise LasVegasFailure('tail')\n"
        )
        project = Project()
        path = FIXTURES / "_inline_try.py"
        path.write_text(src)
        try:
            project.add_module(path, FIXTURES)
            project.finalize()
            compute_summaries(project)
            mod = _module(project, "_inline_try")
            assert mod.functions["g"].summary.raises_lasvegas
            assert not mod.functions["f"].summary.raises_lasvegas
        finally:
            path.unlink()

    def test_constructor_calls_resolve_to_init(self):
        src = (
            "class Widget:\n"
            "    def __init__(self, rng):\n"
            "        self.key = rng.integers(0, 1 << 32)\n"
            "\n"
            "def build(rng):\n"
            "    return Widget(rng)\n"
        )
        project = Project()
        path = FIXTURES / "_inline_ctor.py"
        path.write_text(src)
        try:
            project.add_module(path, FIXTURES)
            project.finalize()
            compute_summaries(project)
            mod = _module(project, "_inline_ctor")
            assert mod.functions["build"].summary.uses_rng
        finally:
            path.unlink()

    def test_inherited_method_sink_fires(self):
        """``self.m()`` resolves along the class's bases, across modules,
        so a tainted argument reaching an inherited method's sink fires."""
        project = _fixture_project("inherited_base", "inherited_violations")
        mod = _module(project, "inherited_violations")
        callee = project.resolve_method(mod, "Leaky", "_probe")
        assert callee is not None and callee.qualname.endswith("ProbeBase._probe")
        _, findings = analyze_function(
            mod.functions["Leaky.lookup"], project, report=True
        )
        assert [(f.rule, f.line) for f in findings] == [("OBL102", 15)]
        assert "via _probe()" in findings[0].message

    def test_reachability_crosses_modules(self, repo_report):
        # Spot-check on the real repo: the sort runner's closure spans
        # many modules (sorting -> failure_sweep -> butterfly ...).
        from repro.api import registry

        project = Project()
        root = Path(__file__).resolve().parents[1] / "src" / "repro"
        project.add_tree(root)
        project.finalize()
        info = runner_info(project, registry.get("sort").runner)
        assert info is not None
        mods = {f.module.dotted for f in reachable(project, info)}
        assert any(m.startswith("repro.core.sorting") for m in mods)
        assert any(m.startswith("repro.core.failure_sweep") for m in mods)
