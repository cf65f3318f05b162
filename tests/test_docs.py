"""Documentation integrity: local markdown links must resolve, and the
documented ``python -m repro`` commands must parse.

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


FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
SHELL_OPERATORS = {"|", "||", "&&", ";", ">", ">>", "<"}


def documented_commands(path: Path):
    """The argv after ``python -m repro`` of each fenced command line."""
    for block in FENCE.findall(path.read_text()):
        for line in block.replace("\\\n", " ").splitlines():
            if "python -m repro " not in line:
                continue
            argv = []
            tail = line.split("python -m repro ", 1)[1]
            for token in shlex.split(tail, comments=True):
                if token in SHELL_OPERATORS:
                    break
                argv.append(token)
            yield argv


CLI_DOCS = [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))


@pytest.mark.parametrize("doc", CLI_DOCS, ids=lambda p: p.name)
def test_documented_commands_parse(doc):
    from repro.__main__ import build_parser

    parser = build_parser()
    for argv in documented_commands(doc):
        args = parser.parse_args(argv)
        if args.command == "trace":
            parser.parse_args([t for t in args.rest if t != "--"])


def test_documented_commands_are_found():
    assert sum(1 for _ in documented_commands(REPO / "README.md")) >= 20
