"""The documentation gates, enforced from the tier-1 suite.

Runs the same three stdlib-only checkers the CI docs job runs:
``tools/check_docs_links.py`` (markdown link + anchor validation over
README.md and docs/), ``tools/check_docstring_coverage.py`` (100%
docstring coverage on ``src/repro/obs``), and
``tools/check_metric_registry.py`` (the metric/event/span name registry
in docs/observability.md matches what src/ emits, both ways), plus unit
tests pinning the checkers' own behaviour so a regression in a tool
cannot silently turn the gates green.
"""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).parent.parent.parent
TOOLS = REPO_ROOT / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ----------------------------------------------------------------------
# the gates themselves
# ----------------------------------------------------------------------
def test_docs_links_are_valid():
    """README.md + docs/ contain no broken links or anchors."""
    result = subprocess.run(
        [sys.executable, str(TOOLS / "check_docs_links.py")],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_obs_docstring_coverage_is_complete():
    """Every public module/class/function in repro.obs has a docstring."""
    result = subprocess.run(
        [sys.executable, str(TOOLS / "check_docstring_coverage.py")],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_name_registry_matches_src():
    """docs/observability.md documents every emitted name, and every
    registry row names something src/ still emits."""
    result = subprocess.run(
        [sys.executable, str(TOOLS / "check_metric_registry.py")],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_docs_directory_has_expected_pages():
    names = {p.name for p in (REPO_ROOT / "docs").glob("*.md")}
    assert {"index.md", "architecture.md", "characterization.md",
            "scheduling.md", "observability.md", "api.md"} <= names


# ----------------------------------------------------------------------
# the link checker's own behaviour
# ----------------------------------------------------------------------
def test_link_checker_flags_broken_file_and_anchor(tmp_path):
    checker = load_tool("check_docs_links")
    good = tmp_path / "good.md"
    good.write_text("# A Heading\n\nbody\n")
    bad = tmp_path / "bad.md"
    bad.write_text(
        "[ok](good.md)\n"
        "[ok anchor](good.md#a-heading)\n"
        "[missing file](nope.md)\n"
        "[missing anchor](good.md#nope)\n"
        "[external](https://example.com/untouched)\n"
    )
    problems = checker.check_file(bad)
    assert len(problems) == 2
    assert any("nope.md" in p for p in problems)
    assert any("#nope" in p or "'nope'" in p for p in problems)


def test_link_checker_ignores_fenced_code_blocks(tmp_path):
    checker = load_tool("check_docs_links")
    page = tmp_path / "page.md"
    page.write_text("```\n[not a link](missing.md)\n```\n")
    assert checker.check_file(page) == []


@pytest.mark.parametrize("heading,slug", [
    ("Plain Words", "plain-words"),
    ("5. Pass pipeline & instrumentation",
     "5-pass-pipeline--instrumentation"),
    ("Metrics — `MetricsRegistry`", "metrics--metricsregistry"),
    ("Spans and traces — schema v2", "spans-and-traces--schema-v2"),
])
def test_github_slugs(heading, slug):
    checker = load_tool("check_docs_links")
    assert checker.github_slug(heading) == slug


# ----------------------------------------------------------------------
# the docstring checker's own behaviour
# ----------------------------------------------------------------------
def test_docstring_checker_counts_and_exempts(tmp_path):
    checker = load_tool("check_docstring_coverage")
    module = tmp_path / "mod.py"
    module.write_text(
        '"""Module doc."""\n'
        "def documented():\n"
        '    """Yes."""\n'
        "def undocumented():\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n"
        "class Documented:\n"
        '    """Yes."""\n'
        "    def __repr__(self):\n"
        "        return 'x'\n"
    )
    documented, missing = checker.check_file(module)
    # module + documented() + Documented = 3 documented;
    # undocumented() is the only gap (privates and dunders exempt).
    assert documented == 3
    assert missing == ["function undocumented"]


# ----------------------------------------------------------------------
# the name-registry checker's own behaviour
# ----------------------------------------------------------------------
REGISTRY_DOC = """# Observability

Prose mentions `plan` and `stray.metric` outside any table.

### Metric name registry

| name | kind | incremented by |
|---|---|---|
| `good.count` | counter | somewhere |
| `fleet.staleness[<device>]` | gauge | somewhere |

Events: `good.event`.

### Span name registry

| span | opened by |
|---|---|
| `<session name>` | Session root |
| `stage`, `fleet.tick[<day>]` | somewhere |
"""


def registry_tree(tmp_path, source):
    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text(source)
    docs = tmp_path / "observability.md"
    docs.write_text(REGISTRY_DOC)
    return src, docs


DOCUMENTED_SOURCE = (
    "registry.inc('good.count')\n"
    "registry.set(f'fleet.staleness[{name}]', 1.0)\n"
    "log_event('good.event')\n"
    "with span('stage'):\n"
    "    pass\n"
    "with obs_span(f'fleet.tick[{day}]'):\n"
    "    pass\n"
)


def test_registry_checker_passes_documented_names(tmp_path):
    checker = load_tool("check_metric_registry")
    assert checker.check(*registry_tree(tmp_path, DOCUMENTED_SOURCE)) == []


@pytest.mark.parametrize("line,flagged", [
    ("registry.inc('new.count')", "'new.count'"),
    ("log_event('new.event')", "'new.event'"),
    ("with span('unlisted'):\n    pass", "span name 'unlisted'"),
    ("with obs_span(f'other[{x}]'):\n    pass", "span name prefix 'other['"),
])
def test_registry_checker_flags_undocumented_names(tmp_path, line, flagged):
    checker = load_tool("check_metric_registry")
    problems = checker.check(
        *registry_tree(tmp_path, DOCUMENTED_SOURCE + line + "\n"))
    assert len(problems) == 1
    assert flagged in problems[0]


def test_registry_checker_span_names_need_a_table_row(tmp_path):
    checker = load_tool("check_metric_registry")
    # `plan` is in the doc's prose but not in the span table.
    problems = checker.check(*registry_tree(
        tmp_path, DOCUMENTED_SOURCE + "with span('plan'):\n    pass\n"))
    assert len(problems) == 1 and "span name 'plan'" in problems[0]


def test_registry_checker_ignores_trace_lookups(tmp_path):
    checker = load_tool("check_metric_registry")
    source = DOCUMENTED_SOURCE + "trace.span('anything')\n"
    assert checker.check(*registry_tree(tmp_path, source)) == []


def test_registry_checker_flags_stale_rows(tmp_path):
    checker = load_tool("check_metric_registry")
    source = DOCUMENTED_SOURCE.replace(
        "with span('stage'):", "with span('fleet.tick[0]'):")
    source = source.replace("registry.inc('good.count')\n", "")
    problems = checker.check(*registry_tree(tmp_path, source))
    assert len(problems) == 2
    assert any("'good.count'" in p and "stale row" in p for p in problems)
    assert any("'stage'" in p and "stale row" in p for p in problems)
