"""How the document reader builds a document's groups and subgroups.

Within one document, a second presentation that names the same members as
the first reuses the first one's Subgroup, with the local table, cosets and
generators already built for it.  Nothing is kept from one document for the
next, so a document is refused the same way whatever was read before it."""

import gc
import json

import pytest

from gradedpi.cli import SessionDocument, main, run
from gradedpi.errors import DocumentError


def cyclic(n):
    return {"construct": "cyclic", "n": n}


def presentation(subgroup=(0,), grading=(0,)):
    k = len(set(subgroup))
    return {
        "subgroup": list(subgroup),
        "cocycle": {"modulus": 1, "exponents": [[0] * k for _ in range(k)]},
        "grading": list(grading),
    }


def doc(group, subgroup=(0,), grading=(0,), **extra):
    return {"group": group, **presentation(subgroup, grading), **extra}


def _main(tmp_path, capsys, document, command="validate"):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    code = main(["--input", str(path), "--command", command])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "earlier, refused, message",
    [
        (doc(cyclic(1)), doc(cyclic(True)), "group.n: expected an integer, got True"),
        (doc(cyclic(1)), doc(cyclic(1.0)), "group.n: expected an integer, got 1.0"),
        (
            doc({"table": [[0, 1], [1, 0]]}),
            doc({"table": [[0, True], [True, 0]]}),
            "group.table[0]: expected a list of integers, got [0, True]",
        ),
        (
            doc(cyclic(2), subgroup=(0, 1)),
            doc(cyclic(2), subgroup=(0, True)),
            "subgroup[1]: element True out of range",
        ),
    ],
    ids=["n-true", "n-float", "table-true", "member-true"],
)
def test_an_alias_of_an_earlier_value_is_refused_as_before(
    earlier, refused, message, tmp_path, capsys
):
    """true and 1.0 are refused where an int is expected, before and after
    a document that names the int was read."""
    cold = _main(tmp_path, capsys, refused)
    assert cold == (2, "", f"input error: {message}\n")
    assert _main(tmp_path, capsys, earlier)[0] == 0
    assert _main(tmp_path, capsys, refused) == cold


def test_the_second_presentation_shares_the_first_subgroup():
    """The same members in another order, with duplicates or through a name,
    give the first presentation's Subgroup, and the commands that read both
    presentations leave nothing for the cyclic collector."""
    d = doc(
        cyclic(4),
        subgroup=(0, 2),
        names={"two": 2},
        second={**presentation(subgroup=(0, 2), grading=(1,)), "subgroup": ["two", 2, 0, 2]},
    )
    read = SessionDocument(d)
    assert read.second.group is read.group
    assert read.second.subgroup is read.presentation.subgroup
    assert read.second.subgroup.members == (0, 2)
    gc.collect()
    gc.disable()
    try:
        for command in ("validate", "equivalent"):
            run(command, d)
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_second_presentation_on_other_members_gets_its_own_subgroup():
    read = SessionDocument(
        doc(cyclic(4), subgroup=(0, 2), second=presentation(subgroup=(0, 1, 2, 3)))
    )
    assert read.second.subgroup is not read.presentation.subgroup
    assert read.second.subgroup.members == (0, 1, 2, 3)
    with pytest.raises(DocumentError) as info:
        SessionDocument(doc(cyclic(4), subgroup=(0, 2), second=presentation(subgroup=(0, 1))))
    assert str(info.value) == "second.subgroup: member 1 has inverse outside the set"
