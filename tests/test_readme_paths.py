"""Every file of the repo that the README names in backticks exists, so
the README cannot go on citing a module, test or benchmark record that
was moved or deleted."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def named_paths(text: str) -> list[str]:
    """Backticked spans that name a repo path: relative, with no space,
    and holding a ``/`` or naming a ``BENCH_*.json`` record."""
    spans = re.findall(r"`([^`\s]+)`", text)
    return sorted({span for span in spans
                   if not span.startswith("/")
                   and ("/" in span or re.fullmatch(r"BENCH_\w+\.json", span))})


PATHS = named_paths((ROOT / "README.md").read_text())


def test_the_readme_names_paths():
    assert "perfbench/README.md" in PATHS and "BENCH_25.json" in PATHS


@pytest.mark.parametrize("path", PATHS)
def test_named_path_exists(path):
    assert (ROOT / path).exists(), f"README.md names {path}, which does not exist"
