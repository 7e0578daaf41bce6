"""Whole-program analysis tests: cross-file rules, CLI modes, lint speed.

The RPL7xx/8xx/9xx fixtures live on disk under ``tests/fixtures/lint``;
each ``*_fire`` tree splits the violation across *two* modules so that a
per-file analysis provably cannot catch it — every fire test also lints
the anchoring module **alone** and asserts silence, then lints the pair
and asserts the finding.  The trees carry a ``.repro-lint-ignore``
marker so the repository self-lint prunes them.
"""

from __future__ import annotations

import json
import sys
import textwrap
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.repro_lint import cli  # noqa: E402
from tools.repro_lint.core import (  # noqa: E402
    iter_python_files,
    lint_file,
    lint_paths,
)

FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"

#: rule code -> (fixture stem, display-path fragment of the flagged file)
FIRE_ANCHORS = {
    "RPL701": ("rpl701", "repro/service/app.py"),
    "RPL702": ("rpl702", "repro/service/app.py"),
    "RPL801": ("rpl801", "repro/core/alg.py"),
    "RPL802": ("rpl802", "repro/joins/alg.py"),
    "RPL901": ("rpl901", "repro/engine/runner.py"),
    "RPL902": ("rpl902", "repro/engine/runner.py"),
}


def codes_of(findings) -> set[str]:
    return {finding.code for finding in findings}


# ----------------------------------------------------------------------
# The six cross-file rules: fire, clean, and the per-file impossibility
# ----------------------------------------------------------------------
class TestCrossFileRules:
    @pytest.mark.parametrize("code", sorted(FIRE_ANCHORS))
    def test_fire_fixture_fires(self, code: str) -> None:
        stem, anchor = FIRE_ANCHORS[code]
        findings = cli.run_paths([str(FIXTURES / f"{stem}_fire")])
        assert codes_of(findings) == {code}
        assert all(finding.path.endswith(anchor) for finding in findings)

    @pytest.mark.parametrize("code", sorted(FIRE_ANCHORS))
    def test_clean_fixture_is_clean(self, code: str) -> None:
        stem, _anchor = FIRE_ANCHORS[code]
        findings = cli.run_paths([str(FIXTURES / f"{stem}_clean")])
        assert findings == []

    @pytest.mark.parametrize("code", sorted(FIRE_ANCHORS))
    def test_per_file_analysis_cannot_catch_it(self, code: str) -> None:
        """Linting the anchoring module alone sees nothing — the facts it
        would need (the callee's body, its async-ness, its module globals)
        live in the *other* file of the pair."""
        stem, anchor = FIRE_ANCHORS[code]
        flagged = FIXTURES / f"{stem}_fire" / anchor
        assert lint_file(flagged) == []

    def test_suppression_silences_a_project_rule(self, tmp_path: Path) -> None:
        pkg = tmp_path / "repro" / "service"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        (pkg / "helpers.py").write_text(
            "import time\n\n\ndef settle() -> None:\n    time.sleep(0.01)\n",
            encoding="utf-8",
        )
        (pkg / "app.py").write_text(
            textwrap.dedent(
                """\
                from .helpers import settle


                async def handle() -> None:
                    settle()  # repro-lint: ignore[RPL701] drains in <20ms at shutdown
                """
            ),
            encoding="utf-8",
        )
        assert cli.run_paths([str(tmp_path)]) == []


# ----------------------------------------------------------------------
# Directory walking: fixture trees are pruned from parent expansions
# ----------------------------------------------------------------------
class TestIgnoreMarker:
    def test_marker_prunes_parent_walk(self) -> None:
        walked = {p.resolve() for p in iter_python_files([REPO_ROOT / "tests"])}
        assert not any(FIXTURES in p.parents for p in walked)

    def test_marked_tree_lintable_when_passed_directly(self) -> None:
        walked = list(iter_python_files([FIXTURES / "rpl701_fire"]))
        assert any(p.name == "app.py" for p in walked)


# ----------------------------------------------------------------------
# CLI modes: SARIF, statistics, ignore
# ----------------------------------------------------------------------
class TestCliModes:
    def test_sarif_output(self, tmp_path: Path) -> None:
        out = tmp_path / "report.sarif"
        code = cli.main(
            [
                "--format",
                "sarif",
                "--output",
                str(out),
                str(FIXTURES / "rpl701_fire"),
            ]
        )
        assert code == 1
        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"RPL001", "RPL701", "RPL902", "RPL999"} <= rule_ids
        (result,) = run["results"]
        assert result["ruleId"] == "RPL701"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1

    def test_statistics_summary(self, capsys: pytest.CaptureFixture[str]) -> None:
        code = cli.main(
            ["--statistics", str(FIXTURES / "rpl702_fire")]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "1  RPL702" in out

    def test_ignore_flag_drops_code(self, capsys: pytest.CaptureFixture[str]) -> None:
        code = cli.main(
            ["--ignore", "RPL702", str(FIXTURES / "rpl702_fire")]
        )
        assert code == 0
        assert "clean" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Performance: a cold full-repo lint stays fast
# ----------------------------------------------------------------------
def test_full_repo_lint_under_ten_seconds() -> None:
    roots = [str(REPO_ROOT / name) for name in ("src", "benchmarks", "tools", "tests")]
    started = time.perf_counter()
    report = lint_paths(roots)
    elapsed = time.perf_counter() - started
    assert report.checked > 0
    assert elapsed < 10.0, f"full lint took {elapsed:.2f}s"
