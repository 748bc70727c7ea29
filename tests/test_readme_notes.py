"""Every pointer from the package source to a README design note names one."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def flat(text):
    """Text with its line breaks (and the comment marks that continue a
    line) as single spaces and its backticks removed."""
    return re.sub(r"\s*\n\s*(?:#\s*)?", " ", text).replace("`", "")


def design_notes():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Design notes\n", 1)[1].split("\n## ", 1)[0]
    return [flat(bullet) for bullet in re.split(r"\n\* ", "\n" + section.strip())[1:]]


def test_design_notes_are_read():
    notes = design_notes()
    assert len(notes) > 10
    assert any(note.startswith("For h > 0 the harmonic generator needs no bounds") for note in notes)


def test_every_readme_pointer_names_a_design_note():
    # a pointer may give the start of a note's first sentence
    notes = design_notes()
    pointers = [
        (path.name, name)
        for path in sorted((ROOT / "src" / "toneset").glob("*.py"))
        for name in re.findall(r'README, "([^"]+)"', flat(path.read_text()))
    ]
    assert pointers
    assert [(file, name) for file, name in pointers if not any(note.startswith(name) for note in notes)] == []
