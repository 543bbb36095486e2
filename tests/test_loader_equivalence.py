"""``corpus.load_dataset`` against the ``csv.DictReader`` loader it replaced.

The generated CSV texts are valid datasets and their corruptions: shuffled
rows, blank lines, reordered, duplicate and extra columns, short rows, bad
integers and booleans, other boolean spellings, gaps in line numbers, mixed
labels and empty release ids. Both loaders must return equal releases or
raise :class:`DatasetError` with the same message. Where the reference
loader ends in another exception, or lets a missing value through, the
loader under test raises :class:`DatasetError` naming the short row.
"""

from __future__ import annotations

import csv
import io
import re

from hypothesis import HealthCheck, example, given, settings, strategies as st

import reference_loader
from linedefects.cli import main
from linedefects.corpus import DATASET_COLUMNS, DatasetError, load_dataset

FILE_KEYS = [("r1", "A.java"), ("r1", "B,x.java"), ("r2", "A.java"), ("", "C.java")]
CONTENT = st.text(st.sampled_from('ab ,"\n\r;\té'), max_size=6)
SPELLINGS = {True: ["true", " True ", "TRUE"], False: ["false", "False\t", "FALSE"]}
MUTANTS = {
    "release": st.sampled_from(["", "r1", "r3"]),
    "file_path": st.sampled_from(["A.java", "D.java", ""]),
    "line_number": st.sampled_from(["x", "", "0", "-1", " 2 ", "1.0", "7", "٣", "1_0"]),
    "line_content": CONTENT,
    "file_label": st.sampled_from(["true", "false", "yes", "", " True ", "1"]),
    "line_label": st.sampled_from(["true", "false", "no", "", "FALSE", "0"]),
}


def _spell(draw, value: bool) -> str:
    return draw(st.sampled_from(SPELLINGS[value])) if draw(st.integers(0, 4)) == 0 else str(value).lower()


@st.composite
def dataset_texts(draw):
    """``(CSV text, number of its first short data row or None)``."""
    rows = []
    for release, path in draw(st.lists(st.sampled_from(FILE_KEYS), min_size=1, max_size=3, unique=True)):
        labels = draw(st.lists(st.booleans(), min_size=1, max_size=4))
        file_label = any(labels)
        for number, label in enumerate(labels, start=1):
            rows.append({
                "release": release,
                "file_path": path,
                "line_number": str(number),
                "line_content": draw(CONTENT),
                "file_label": _spell(draw, file_label),
                "line_label": _spell(draw, label),
            })
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    for _ in range(max(0, draw(st.integers(-3, 3)))):
        row = draw(st.sampled_from(rows))
        column = draw(st.sampled_from(DATASET_COLUMNS))
        row[column] = draw(MUTANTS[column])

    header = list(draw(st.permutations(DATASET_COLUMNS)))
    for extra in draw(st.lists(st.sampled_from(["note", *DATASET_COLUMNS]), max_size=2)):
        header.insert(draw(st.integers(0, len(header))), extra)
    last = {name: i for i, name in enumerate(header)}
    width = max(last[name] for name in DATASET_COLUMNS) + 1

    lines = [header]
    first_short = None
    for number, row in enumerate(rows, start=2):
        # an earlier occurrence of a repeated column, or an extra one, holds junk
        fields = [row[name] if last.get(name) == i and name in row else "junk" for i, name in enumerate(header)]
        if draw(st.integers(0, 19)) == 0:
            fields = fields[: draw(st.integers(1, len(fields) - 1))]
            if len(fields) < width and first_short is None:
                first_short = number
        lines.append(fields)
        if draw(st.integers(0, 5)) == 0:
            lines.append([])  # a blank line

    out = io.StringIO()
    # minimal quoting after "\n" would leave a lone "\r" unquoted, which ends the row
    terminator, quoting = draw(st.sampled_from([("\r\n", csv.QUOTE_MINIMAL), ("\n", csv.QUOTE_ALL)]))
    writer = csv.writer(out, lineterminator=terminator, quoting=quoting)
    writer.writerows(lines)
    return out.getvalue(), first_short


@st.composite
def metadata_texts(draw):
    rows = ["release,release_date"]
    for release in draw(st.lists(st.sampled_from(["r1", "r2", "r3"]), max_size=3)):
        day = draw(st.sampled_from(["2024-01-02", "2023-12-31", "2024-13-01", "x", ""]))
        rows.append(release if draw(st.integers(0, 5)) == 0 else f"{release},{day}")
    return "\n".join(rows) + "\n"


def _outcome(loader, *paths):
    try:
        return "ok", loader(*paths)
    except DatasetError as exc:
        return "error", str(exc)
    except Exception as exc:  # the reference loader's failures on missing values
        return "crash", type(exc).__name__


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dataset_texts(), st.none() | metadata_texts())
@example(("release,file_path,line_number,line_content,file_label,line_label\nr,A,1,x,false,false\nr,A", 3), None)
@example(("line_number,line_content,file_label,line_label,file_path,release\n1,x,false,false,A\n", 2), None)
@example(("release,file_path,release,line_number,line_content,file_label,line_label\nx,A,r,1,c,false,false\n", None), None)
@example(("release,file_path,line_number,line_content,file_label,line_label\nr,A,0,x,yes,false\n", None), None)
@example(("release,file_path,line_number,line_content,line_label,file_label\nr,A,1,x,yes\n", 2), None)
def test_loader_matches_reference(tmp_path, dataset, metadata):
    text, first_short = dataset
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    paths = [path]
    if metadata is not None:
        paths.append(tmp_path / "meta.csv")
        paths[1].write_text(metadata, encoding="utf-8")

    expected = _outcome(reference_loader.load_dataset, *paths)
    actual = _outcome(load_dataset, *paths)
    if first_short is None:
        if expected[0] == "crash":
            assert actual[0] == "error"
        else:
            assert actual == expected
        return

    # a short row: the reference loader either rejects an earlier row (or the
    # short row's line number) with the same message, or mishandles the row
    assert actual[0] == "error"
    named = re.match(re.escape(f"{path}:") + r"(\d+)[: ]", expected[1]) if expected[0] == "error" else None
    if named and int(named.group(1)) <= first_short:
        assert actual == expected
    else:
        assert actual[1].startswith(f"{path}:{first_short}: no value for ")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.one_of(
        dataset_texts().map(lambda dataset: dataset[0].encode("utf-8")),
        st.binary(max_size=200),
        st.binary(max_size=40).map(lambda tail: b"release,file_path,line_number,line_content,file_label,line_label\n" + tail),
    )
)
def test_density_exits_zero_or_data_error(tmp_path, data):
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    assert main(["density", "--dataset", str(path), "--out", str(tmp_path / "density.csv")]) in (0, 2)
