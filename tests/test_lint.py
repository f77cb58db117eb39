"""Self-tests for ``repro.lint``: every rule trips on a minimal fixture
and stays quiet on the compliant rewrite, suppressions work (and rot
loudly), and the CLI exits 0 on the project's own tree."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import FLOW_CODES, all_rules, lint_file, lint_paths, lint_source

REPO_ROOT = Path(__file__).resolve().parent.parent

CORE = "repro/core/_fixture.py"
DISTRIBUTED = "repro/distributed/_fixture.py"
ANALYSIS = "repro/analysis/_fixture.py"
CLI_LAYER = "repro/_fixture.py"  # in scope for repro/ rules, out of core/


def codes(violations):
    return [v.code for v in violations]


# ----------------------------------------------------------------------
# Fixtures: one (tripping, passing) pair per rule.
# ----------------------------------------------------------------------
RULE_FIXTURES = {
    "TH001": (
        CORE,
        "import random\n\ndef jitter():\n    return random.random()\n",
        "import random\n\ndef jitter(seed):\n"
        "    return random.Random(seed).random()\n",
    ),
    "TH002": (
        CLI_LAYER,
        "def run(op):\n    try:\n        op()\n"
        "    except Exception:\n        pass\n",
        "def run(op):\n    try:\n        op()\n"
        "    except KeyError:\n        pass\n",
    ),
    "TH003": (
        DISTRIBUTED,
        "def route(shard):\n    raise ValueError('bad shard')\n",
        "from .errors import UnknownShardError\n\n"
        "def route(shard):\n    raise UnknownShardError('bad shard')\n",
    ),
    "TH004": (
        CLI_LAYER,
        "def dump(disk, address):\n    return disk.read(address)\n",
        "def dump(pool, address):\n    return pool.fetch(address)\n",
    ),
    "TH005": (
        CORE,
        "def splice(n):\n    assert n > 0\n",
        "def splice(n):\n    if n <= 0:\n"
        "        raise ValueError('n must be positive')\n",
    ),
    "TH006": (
        CORE,
        "def build(keys=[]):\n    return keys\n",
        "def build(keys=None):\n    return keys or []\n",
    ),
    "TH007": (
        ANALYSIS,
        "def loaded(f):\n    return f.load_factor() == 0.85\n",
        "import math\n\ndef loaded(f):\n"
        "    return math.isclose(f.load_factor(), 0.85, abs_tol=0.01)\n",
    ),
    "TH008": (
        CORE,
        "def insert(key, value):\n    return None\n",
        "def insert(key: str, value: str) -> None:\n    return None\n",
    ),
}


@pytest.mark.parametrize("code", sorted(RULE_FIXTURES))
def test_rule_trips_on_fixture(code):
    module_path, tripping, _ = RULE_FIXTURES[code]
    found = lint_source(tripping, module_path=module_path, select=[code])
    assert codes(found) == [code], f"{code} did not trip:\n{tripping}"


@pytest.mark.parametrize("code", sorted(RULE_FIXTURES))
def test_rule_passes_on_compliant_fixture(code):
    module_path, _, passing = RULE_FIXTURES[code]
    assert lint_source(passing, module_path=module_path, select=[code]) == []


def test_every_registered_rule_has_a_fixture():
    assert {r.code for r in all_rules()} == set(RULE_FIXTURES)


# ----------------------------------------------------------------------
# Scoping
# ----------------------------------------------------------------------
def test_rules_respect_path_scope():
    # Float equality is an analysis-layer rule; the same snippet in core
    # is out of scope. Unseeded randomness is core-scoped, not analysis.
    floats = RULE_FIXTURES["TH007"][1]
    assert lint_source(floats, module_path=CORE, select=["TH007"]) == []
    rng = RULE_FIXTURES["TH001"][1]
    assert lint_source(rng, module_path=ANALYSIS, select=["TH001"]) == []


def test_th004_exempts_storage_layer():
    snippet = RULE_FIXTURES["TH004"][1]
    assert lint_source(
        snippet, module_path="repro/storage/_fixture.py", select=["TH004"]
    ) == []


def test_th009_is_retired_from_the_per_file_pass():
    # TH009 moved to the whole-program pass as TH010 (a coroutine's
    # *helpers* can block too); neither pass knows the old code.
    assert "TH009" not in {r.code for r in all_rules()}
    assert "TH009" not in FLOW_CODES


def test_th004_covers_allocate_and_free():
    # A flat backend (CompactTrie) holding a disk reference could shuffle
    # payloads on/off the SimulatedDisk without a read or write — the
    # whole mutation surface is in scope.
    snippet = (
        "def stash(disk, payload):\n"
        "    address = disk.allocate(payload)\n"
        "    disk.free(address)\n"
    )
    assert codes(
        lint_source(snippet, module_path=CORE, select=["TH004"])
    ) == ["TH004", "TH004"]


def test_th003_exempts_assertion_error():
    snippet = "def diverged():\n    raise AssertionError('differential')\n"
    assert lint_source(snippet, module_path=DISTRIBUTED, select=["TH003"]) == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_justified_suppression_silences_violation():
    source = (
        "def run(op):\n    try:\n        op()\n"
        "    except Exception:  # repro-lint: disable=TH002 -- test boundary\n"
        "        pass\n"
    )
    assert lint_source(source, module_path=CLI_LAYER, select=["TH002"]) == []


def test_standalone_suppression_covers_next_code_line():
    source = (
        "def run(op):\n    try:\n        op()\n"
        "    # repro-lint: disable=TH002 -- test boundary\n"
        "    except Exception:\n        pass\n"
    )
    assert lint_source(source, module_path=CLI_LAYER, select=["TH002"]) == []


def test_unjustified_suppression_reported(tmp_path):
    target = tmp_path / "repro" / "core" / "bad.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        "def _splice(n):\n    assert n > 0  # repro-lint: disable=TH005\n"
    )
    assert codes(lint_file(target)) == ["LINT001"]


def test_stale_suppression_reported(tmp_path):
    target = tmp_path / "repro" / "core" / "stale.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        "def _splice(n):\n"
        "    # repro-lint: disable=TH005 -- nothing here anymore\n"
        "    return None\n"
    )
    assert codes(lint_file(target)) == ["LINT002"]


def test_disable_comment_inside_string_is_ignored():
    source = (
        'TEXT = "# repro-lint: disable=TH005 -- not a comment"\n'
        "def splice(n):\n    assert n > 0\n"
    )
    assert codes(
        lint_source(source, module_path=CORE, select=["TH005"])
    ) == ["TH005"]


# ----------------------------------------------------------------------
# Reports and the CLI
# ----------------------------------------------------------------------
def test_lint_paths_report_shape(tmp_path):
    target = tmp_path / "repro" / "core" / "mixed.py"
    target.parent.mkdir(parents=True)
    target.write_text("def splice(n):\n    assert n > 0\n")
    report = lint_paths([str(tmp_path)])
    assert not report.ok
    payload = json.loads(report.to_json())
    assert payload["files_checked"] == 1
    found = {v["code"] for v in payload["violations"]}
    assert "TH005" in found
    assert payload["counts_by_code"]["TH005"] >= 1
    assert "mixed.py" in report.render_table()


def _run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )


def test_cli_clean_on_project_tree():
    result = _run_cli("src")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "no findings" in result.stdout


def test_cli_json_and_exit_code(tmp_path):
    target = tmp_path / "repro" / "core" / "dirty.py"
    target.parent.mkdir(parents=True)
    target.write_text("def splice(n):\n    assert n > 0\n")
    result = _run_cli("--json", str(target))
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["violation_count"] >= 1


def test_cli_list_rules():
    result = _run_cli("--list")
    assert result.returncode == 0
    for rule in all_rules():
        assert rule.code in result.stdout
