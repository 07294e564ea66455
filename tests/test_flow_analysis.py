"""Tests for the whole-program flow analysis (``repro-lint --flow``).

Fixture-driven like ``test_analysis.py``, but over *mini projects*:
each directory under ``tests/flow_fixtures/`` is a multi-module tree
(``# lint-module:`` headers give the module names) exercising exactly
one project rule, good and bad. On top of that: the live ``src/repro``
tree must pass the flow gate against the checked-in baseline, the
ratchet semantics must hold, and the JSON report must be byte-identical
across runs and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.flow import FlowFinding, analyze, run_project_rules
from repro.analysis.flow.baseline import (
    UNREVIEWED,
    fingerprint,
    load_baseline,
    render_baseline,
    split_findings,
)
from repro.analysis.flow.effects import RESOURCES, parse_effect, validate_effects
from repro.analysis.flow.project import parse_paths
from repro.analysis.registry import SUPPRESSION_CODE, project_codes
from repro.analysis.runner import github_annotation, main, run_gate
from repro.explore import hooks

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_TREE = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / "flow-baseline.json"
FIXTURES = Path(__file__).resolve().parent / "flow_fixtures"

PROJECT_RULE_CODES = ("EFF01", "EFF02", "PUR01")


def run_fixture(name: str, code: str) -> list[FlowFinding]:
    files = sorted((FIXTURES / name).glob("*.py"))
    assert files, f"no fixture files under {FIXTURES / name}"
    contexts, broken = parse_paths(files)
    assert broken == [], broken
    return run_project_rules(analyze(contexts), select=frozenset({code}))


# ----------------------------------------------------------------------
# Fixture-driven project-rule self-tests
# ----------------------------------------------------------------------
def test_registered_project_rules_match_documented_codes() -> None:
    assert tuple(sorted(project_codes())) == PROJECT_RULE_CODES


def test_every_project_rule_has_bad_and_good_fixture_pair() -> None:
    for code in PROJECT_RULE_CODES:
        assert (FIXTURES / f"{code.lower()}_bad").is_dir()
        assert (FIXTURES / f"{code.lower()}_good").is_dir()
    # SUP01 is runner-level, so its pair are single gate-run files.
    assert (FIXTURES / "sup01_bad.py").is_file()
    assert (FIXTURES / "sup01_good.py").is_file()


@pytest.mark.parametrize("code", PROJECT_RULE_CODES)
def test_good_fixture_is_clean(code: str) -> None:
    findings = run_fixture(f"{code.lower()}_good", code)
    detail = "\n".join(f.diagnostic.format() for f in findings)
    assert findings == [], f"findings were:\n{detail}"


def test_eff01_bad_names_the_leaking_call_chain() -> None:
    findings = run_fixture("eff01_bad", "EFF01")
    assert [f.fingerprint for f in findings] == [
        "EFF01|fix.service|build|catalog:w",
        "EFF01|fix.service|delete|undeclared",
    ]
    leak = findings[0].diagnostic.message
    # The under-declared effect leaks through a helper in another
    # module; the diagnostic must spell out the whole chain.
    assert "'catalog:w'" in leak
    assert "fix.service.Service._iter_build" in leak
    assert "fix.helpers.mark_built" in leak
    assert "mark_built" in leak and "catalog" in leak


def test_pur01_bad_catches_rng_two_calls_deep() -> None:
    findings = run_fixture("pur01_bad", "PUR01")
    assert [f.fingerprint for f in findings] == [
        "PUR01|repro.core.simulator|estimate|rng"
    ]
    chain = findings[0].diagnostic.message
    # sink -> helper -> helper -> primitive: every hop must be named.
    assert "repro.core.simulator.estimate" in chain
    assert "repro.core.simutil.sample" in chain
    assert "repro.core.simutil.draw" in chain
    assert "random.random" in chain


def test_eff02_bad_flags_the_multi_resource_write_set() -> None:
    findings = run_fixture("eff02_bad", "EFF02")
    assert [f.fingerprint for f in findings] == [
        "EFF02|fix.badsvc|build|catalog+storage"
    ]
    message = findings[0].diagnostic.message
    assert "catalog" in message and "storage" in message
    assert "independent" in message


# ----------------------------------------------------------------------
# The effect lattice and its runtime mirror
# ----------------------------------------------------------------------
def test_runtime_lattice_mirrors_static_lattice() -> None:
    assert hooks.EFFECT_RESOURCES == RESOURCES


def test_effect_parsing_round_trip() -> None:
    assert parse_effect("storage:w") == ("storage", "w")
    assert validate_effects(["catalog:r", "rng:w"]) == {"catalog:r", "rng:w"}
    with pytest.raises(ValueError, match="invalid effect"):
        parse_effect("storage:x")
    with pytest.raises(ValueError, match="invalid effect"):
        parse_effect("disk:w")


def test_declared_effects_rejects_typos_at_runtime() -> None:
    assert hooks.declared_effects("storage:w") == frozenset({"storage:w"})
    with pytest.raises(ValueError, match="invalid declared effect"):
        hooks.declared_effects("storge:w")


# ----------------------------------------------------------------------
# The live tree passes its own flow gate (with the checked-in baseline)
# ----------------------------------------------------------------------
def test_live_tree_passes_flow_gate_with_baseline() -> None:
    result = run_gate([SRC_TREE], flow=True, baseline_path=BASELINE)
    errors = [d for d in result.diagnostics if d.severity == "error"]
    assert errors == [], "\n".join(d.format() for d in errors)
    assert result.flow is not None
    kinds = sorted(row["kind"] for row in result.flow["actions"])
    assert kinds == [
        "build", "delete", "history", "kill", "slotfill", "watchdog_delete",
    ]
    # Every service action resolved its generator and its inferred
    # footprint equals the declaration: equality (not just soundness)
    # makes a refactor that hides a sink call from the analysis fail
    # here instead of passing vacuously.
    for row in result.flow["actions"]:
        assert row["generator"] is not None, row
        assert row["declared"] is not None, row
        assert set(row["inferred"]) == set(row["declared"]), row


def test_live_baseline_entries_are_all_justified() -> None:
    baseline = load_baseline(BASELINE)
    assert baseline, "expected enumerated EFF02 audit entries"
    for fp, justification in baseline.items():
        assert justification and justification != UNREVIEWED, fp


# ----------------------------------------------------------------------
# Ratchet semantics
# ----------------------------------------------------------------------
def _gate_on_eff02_bad(tmp_path: Path, baseline_text: str | None):
    baseline = tmp_path / "baseline.json"
    if baseline_text is not None:
        baseline.write_text(baseline_text)
    return run_gate(
        [FIXTURES / "eff02_bad"],
        select=frozenset({"EFF02"}),
        flow=True,
        baseline_path=baseline,
    )


def test_new_finding_fails_without_baseline(tmp_path: Path) -> None:
    result = _gate_on_eff02_bad(tmp_path, None)
    assert result.failed
    assert [d.code for d in result.diagnostics] == ["EFF02"]


def test_baselined_finding_passes_and_is_enumerated(tmp_path: Path) -> None:
    fp = "EFF02|fix.badsvc|build|catalog+storage"
    result = _gate_on_eff02_bad(tmp_path, render_baseline([fp], {}))
    assert not result.failed
    assert result.flow is not None
    assert result.flow["baselined"] == [fp]
    # Informationally present in the report, marked as baselined.
    assert [f["baselined"] for f in result.flow["findings"]] == [True]


def test_stale_baseline_entry_fails_the_ratchet(tmp_path: Path) -> None:
    fp = "EFF02|fix.badsvc|build|catalog+storage"
    gone = fingerprint("EFF02", "fix.badsvc", "vanished", "catalog+storage")
    result = _gate_on_eff02_bad(tmp_path, render_baseline([fp, gone], {}))
    assert result.failed
    stale = [d for d in result.diagnostics if "stale baseline entry" in d.message]
    assert len(stale) == 1 and gone in stale[0].message


def test_update_baseline_rewrites_and_preserves_justifications(
    tmp_path: Path,
) -> None:
    fp = "EFF02|fix.badsvc|build|catalog+storage"
    gone = fingerprint("EFF02", "fix.badsvc", "vanished", "catalog+storage")
    baseline = tmp_path / "baseline.json"
    baseline.write_text(
        render_baseline([fp, gone], {fp: "audited: per-index keys"})
    )
    result = run_gate(
        [FIXTURES / "eff02_bad"],
        select=frozenset({"EFF02"}),
        flow=True,
        baseline_path=baseline,
        update_baseline=True,
    )
    assert not result.failed
    assert result.baseline_written == str(baseline)
    rewritten = load_baseline(baseline)
    assert rewritten == {fp: "audited: per-index keys"}  # stale entry dropped


def test_select_scopes_staleness_to_the_rules_that_ran(tmp_path: Path) -> None:
    # Under --select PUR01 the EFF02 rule never runs, so its baseline
    # entries produce no findings — that must not read as stale debt.
    fp = "EFF02|fix.badsvc|build|catalog+storage"
    baseline = tmp_path / "baseline.json"
    baseline.write_text(render_baseline([fp], {fp: "audited"}))
    result = run_gate(
        [FIXTURES / "eff02_bad"],
        select=frozenset({"PUR01"}),
        flow=True,
        baseline_path=baseline,
    )
    assert not result.failed
    assert result.flow is not None
    assert result.flow["stale_baseline"] == []


def test_update_baseline_under_select_keeps_other_rules_entries(
    tmp_path: Path,
) -> None:
    fp = "EFF02|fix.badsvc|build|catalog+storage"
    baseline = tmp_path / "baseline.json"
    baseline.write_text(render_baseline([fp], {fp: "audited"}))
    result = run_gate(
        [FIXTURES / "eff02_bad"],
        select=frozenset({"PUR01"}),
        flow=True,
        baseline_path=baseline,
        update_baseline=True,
    )
    assert not result.failed
    # The EFF02 entry belongs to a rule that did not run; the rewrite
    # must not silently drop it.
    assert load_baseline(baseline) == {fp: "audited"}


def test_malformed_baseline_is_an_error(tmp_path: Path) -> None:
    bad = tmp_path / "baseline.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_baseline(bad)


def test_split_findings_partitions() -> None:
    fps = ["A|m|x|1", "B|m|y|2"]
    new, baselined, stale = split_findings(fps, {"B|m|y|2": "ok", "C|m|z|3": "?"})
    assert new == [0]
    assert baselined == ["B|m|y|2"]
    assert stale == ["C|m|z|3"]


# ----------------------------------------------------------------------
# SUP01: stale suppressions
# ----------------------------------------------------------------------
def test_stale_suppression_warns_by_default() -> None:
    result = run_gate([FIXTURES / "sup01_bad.py"])
    sup = [d for d in result.diagnostics if d.code == SUPPRESSION_CODE]
    assert len(sup) == 1 and sup[0].severity == "warning"
    assert not result.failed  # warnings do not fail the gate


def test_stale_suppression_fails_under_strict() -> None:
    result = run_gate([FIXTURES / "sup01_bad.py"], strict_suppressions=True)
    sup = [d for d in result.diagnostics if d.code == SUPPRESSION_CODE]
    assert len(sup) == 1 and sup[0].severity == "error"
    assert result.failed


def test_live_suppression_is_not_stale() -> None:
    result = run_gate([FIXTURES / "sup01_good.py"], strict_suppressions=True)
    assert result.diagnostics == [], [d.format() for d in result.diagnostics]


def test_docstring_mention_is_not_a_suppression() -> None:
    # The suppression syntax quoted inside a docstring must be treated
    # as documentation: neither honoured nor reported as stale.
    source = (
        '"""Docs quote the syntax:  # repro-lint: disable=DET01 -- why."""\n'
        "X = 1\n"
    )
    from repro.analysis.suppressions import parse_suppressions

    assert parse_suppressions(source) == []


def test_live_tree_has_no_stale_suppressions() -> None:
    result = run_gate([SRC_TREE], strict_suppressions=True)
    sup = [d for d in result.diagnostics if d.code == SUPPRESSION_CODE]
    assert sup == [], "\n".join(d.format() for d in sup)


# ----------------------------------------------------------------------
# Determinism of the report
# ----------------------------------------------------------------------
def _flow_cli_args(report: Path) -> list[str]:
    return [
        str(SRC_TREE),
        "--flow",
        "--no-typecheck",
        "--baseline",
        str(BASELINE),
        "--json",
        str(report),
    ]


def test_flow_report_is_identical_across_runs(tmp_path: Path) -> None:
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(_flow_cli_args(first)) == 0
    assert main(_flow_cli_args(second)) == 0
    assert first.read_bytes() == second.read_bytes()
    report = json.loads(first.read_text())
    assert report["flow"] is not None
    assert len(report["flow"]["actions"]) == 6


def _hashseed_run(seed: str, report: Path) -> bytes:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    subprocess.run(
        [sys.executable, "-m", "repro.analysis", *_flow_cli_args(report)],
        cwd=REPO_ROOT,
        env=env,
        check=True,
        capture_output=True,
    )
    return report.read_bytes()


def test_flow_report_is_stable_under_hashseed(tmp_path: Path) -> None:
    a = _hashseed_run("0", tmp_path / "seed0.json")
    b = _hashseed_run("424242", tmp_path / "seed1.json")
    assert a == b


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_github_annotation_format() -> None:
    from repro.analysis.diagnostics import Diagnostic

    diag = Diagnostic(
        path="src/x.py", line=3, col=7, code="EFF01", message="a\nb%c"
    )
    assert github_annotation(diag) == (
        "::error file=src/x.py,line=3,col=7,title=EFF01::a%0Ab%25c"
    )
    warn = Diagnostic(
        path="src/x.py", line=1, col=1, code="SUP01",
        message="stale", severity="warning",
    )
    assert github_annotation(warn).startswith("::warning ")


def test_cli_github_format_emits_annotations(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    baseline = tmp_path / "baseline.json"
    code = main(
        [
            str(FIXTURES / "eff02_bad"),
            "--select",
            "EFF02",
            "--format",
            "github",
            "--baseline",
            str(baseline),
        ]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "::error file=" in out and "title=EFF02" in out


def test_cli_selecting_flow_rule_implies_flow_leg(
    tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    code = main(
        [
            str(FIXTURES / "pur01_bad"),
            "--select",
            "PUR01",
            "--baseline",
            str(tmp_path / "baseline.json"),
        ]
    )
    assert code == 1
    assert "PUR01" in capsys.readouterr().out
