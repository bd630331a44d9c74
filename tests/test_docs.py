"""Documentation integrity: local markdown links must resolve, and every
documented ``python -m repro`` command must parse.

This is the single source of the link check; CI runs it both inside
tier 1 and as its own named step.
"""

import re
import shlex
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOCS = sorted(
    [REPO / "README.md", REPO / "ROADMAP.md"] + list((REPO / "docs").glob("*.md"))
)

LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)(?:#[^)]*)?\)")
COMMAND = re.compile(r"python -m repro ([^`\n]*)")
#: Marks of a synopsis rather than a concrete command: `<app>`, `[--json]`, `...`.
PLACEHOLDERS = ("<", "[", "...")


def local_links(path: Path):
    for target in LINK.findall(path.read_text()):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        yield target


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_local_markdown_links_resolve(doc):
    missing = [
        target
        for target in local_links(doc)
        if not (doc.parent / target).exists()
    ]
    assert not missing, f"{doc.relative_to(REPO)}: broken links {missing}"


def test_workloads_doc_names_every_workload():
    from repro.nn.workloads import WORKLOAD_NAMES

    text = (REPO / "docs" / "WORKLOADS.md").read_text()
    for name in WORKLOAD_NAMES:
        assert name in text, f"docs/WORKLOADS.md is missing {name}"


def documented_commands():
    """Each concrete ``python -m repro`` command in README.md and docs/."""
    commands = set()
    for doc in [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md")):
        for match in COMMAND.finditer(doc.read_text()):
            command = match.group(1).split("#")[0].strip()
            if not any(mark in command for mark in PLACEHOLDERS):
                commands.add(command)
    return sorted(commands)


@pytest.mark.parametrize("command", documented_commands())
def test_documented_command_parses(command, capsys):
    from repro.__main__ import build_parser

    try:
        build_parser().parse_args(shlex.split(command))
    except SystemExit as exc:  # --help exits 0; a parse error exits 2
        assert exc.code == 0, f"`python -m repro {command}` does not parse"
