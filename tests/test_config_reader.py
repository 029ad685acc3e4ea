"""The ``ncconfig/1`` reader against plain ``json.loads``.

``config_from_json`` reads a surface Gram's trailing -I rows as one block of
text: it compares them with the writer's text and decodes each verified row
without reading its cells.  It reads the copies of a restriction row that
follow it the same way.  Its contract is that of
``config_from_dict(json.loads(text))`` on every text: the same configuration,
or a ``SchemaError`` with the same message.  Here that is checked on every
catalog and stress export and on mutations aimed at the tail and at the
copied rows, and a pin
fails if the writer's layout and the reader's recognition drift apart.
"""

import functools
import json
import random
import re
import time
import tracemalloc
from itertools import groupby

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nc3 import catalog, configfile, construction, ncconfig
from nc3._record import replace
from nc3.exactlat import rows_from_runs
from nc3.ncconfig import SchemaError
from tests.conftest import all_catalog_cases, d21_all_ones_row, rank_one_family


def _stress_rows():
    """One seeded partition per alpha of the degree-9, -15 and -21 rank-one families: 45 rows."""
    rng = random.Random(901)
    rows = []
    for degree in (9, 15, 21):
        family = rank_one_family(degree)
        by_alpha = {}
        for spec in catalog.enumerate_partitions(family):
            by_alpha.setdefault(spec.alpha, []).append(spec)
        for alpha in sorted(by_alpha):
            rows.append((family, rng.choice(by_alpha[alpha])))
    return rows


@functools.cache
def _exports():
    """(label, blown-up configuration, its text) of every catalog row, then of the 45 stress rows."""
    rows = [(catalog.get_family(f), spec) for f, spec in all_catalog_cases()]
    rows += _stress_rows()
    out = []
    for family, spec in rows:
        config = construction.sequential_blowup(*catalog.instantiate(family, spec))[0]
        out.append((f"{family.id}:{spec.cli_form()}", config, ncconfig.config_to_json(config)))
    return tuple(out)


def _stress_exports():
    return _exports()[63:]


def _outcome(read, text):
    try:
        return "ok", read(text)
    except SchemaError as exc:
        return "refused", str(exc)


def _plain(text):
    """The contract: ``config_from_dict(json.loads(text))``, a decode error as the reader words it."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON: {exc}")
    return ncconfig.config_from_dict(data)


def _assert_as_plain(text):
    assert _outcome(ncconfig.config_from_json, text) == _outcome(_plain, text)


def test_every_export_reads_as_plain_json():
    assert len(_exports()) == 63 + 45
    for label, config, text in _exports():
        assert ncconfig.config_from_json(text) == config == _plain(text), label


def _gram_tails(text):
    """The ``(n, p)`` of each -I tail the reader folds in ``text``, in order."""
    markers = configfile._fold_repeats(text)[1].values()
    return [m for m in markers if type(m) is configfile._MinusIdentityTail]


def _minus_identity_oracle(n, p):
    """Rows p to n - 1 of the n x n matrix -I, cell by cell."""
    return [[-1 if c == q else 0 for c in range(n)] for q in range(p, n)]


def test_the_d3_tail_of_each_stress_blowup_is_folded_into_one_token():
    """On each stress export the D3 Gram's -I rows are one verified tail,
    read as one ``(n, p)`` marker; a writer layout change that silently
    disables the fast path fails here."""
    assert len(_stress_exports()) == 45
    for label, config, text in _stress_exports():
        [tail] = _gram_tails(text)
        grams = [s["gram"] for s in configfile._loads(text)["surfaces"]]
        marked = [type(g[-1]) is configfile._MinusIdentityTail for g in grams]
        assert marked == [False, False, True] and grams[2][-1] == tail, label
        lattice = config.surfaces[2].lattice
        assert tail == (lattice.rank, len(lattice.gram)), label
        expanded = grams[2][:-1] + _minus_identity_oracle(*tail)
        assert expanded == configfile.config_to_dict(config)["surfaces"][2]["gram"], label


def test_catalog_sized_exports_are_decoded_as_plain_json():
    for label, _, text in _exports()[:63]:
        assert configfile._fold_repeats(text) == (text, {}), label


def _unit_gram(n, p):
    """The dense Gram ``I_p (+) -I`` of rank n, as lists."""
    return [[(1 if q < p else -1) if c == q else 0 for c in range(n)] for q in range(n)]


@pytest.mark.parametrize(
    "n, p, folded", [(45, 1, False), (46, 1, True), (46, 2, False), (47, 2, True), (64, 32, True)]
)
def test_a_tail_is_folded_from_the_threshold_on(n, p, folded):
    """A surface Gram ``I_p (+) -I`` in a text that ends 20 characters after
    it: its tail is folded exactly when it holds ``_FOLD_MIN_CELLS`` cells or
    more, however little text follows it, and the text reads as plain JSON."""
    text = configfile.dumps({"surfaces": [{"gram": _unit_gram(n, p)}]})
    assert ((n - p) * n >= configfile._FOLD_MIN_CELLS) is folded
    assert _gram_tails(text) == ([(n, p)] if folded else [])
    _assert_as_plain(text)


def test_a_text_of_the_threshold_length_is_searched_for_tails():
    """Under a key indented 2 spaces a cell takes 9 characters, so a
    2,070-cell tail fits in fewer than ``_FOLD_MIN_CHARS``: padded to that
    length the text is searched and the tail folded; one character shorter,
    it is not searched."""
    text = configfile.dumps({"gram": _unit_gram(46, 1)})
    pad = configfile._FOLD_MIN_CHARS - len(text)
    assert pad > 0
    for short, tails in ((0, [(46, 1)]), (1, [])):
        padded = text + " " * (pad - short)
        assert _gram_tails(padded) == tails
        _assert_as_plain(padded)


def test_a_gram_in_another_layout_leaves_the_writers_tail_folded():
    """The degree-21 all-ones export with D1's Gram written on one line: that
    Gram opens no tail, and D3's is still the one tail folded."""
    data = configfile.config_to_dict(_d21_all_ones())
    text = configfile.dumps(data)
    start = text.index('"gram": [') + len('"gram": ')
    end = text.index("\n      ]", start) + len("\n      ]")
    text = text[:start] + json.dumps(data["surfaces"][0]["gram"]) + text[end:]
    assert _gram_tails(text) == [(295, 1)]
    assert ncconfig.config_from_json(text) == _d21_all_ones() == _plain(text)


def test_a_long_first_row_over_a_short_tail_reads_as_plain_json_in_bounded_memory():
    """A Gram row of 2000 zeros, then one row that opens like an -I row: the
    writer's text of 1999 such rows would take about 52 MB.  The reader cuts
    that text only as far as the file matches it."""
    n = 2000
    text = '{\n  "gram": [\n    [' + ",".join(["0"] * n) + "],\n    [\n      0,\n      -1\n    ]\n  ]\n}"
    text += " " * configfile._FOLD_MIN_CHARS  # past the size below which no tail is sought
    tracemalloc.start()
    try:
        _assert_as_plain(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * len(text)


def test_a_compact_first_row_under_a_deep_indent_reads_in_memory_a_few_times_its_text():
    """A Gram indented 60 spaces whose first row is 20,000 zeros on one line,
    then one row that opens like an -I row: a row of the writer's text is 33
    times as long as that first row.  No expected row is built for a text
    too short to hold the tail."""
    n, indent = 20000, " " * 60
    text = "{\n" + indent + '"gram": [\n' + indent + "  [" + ",".join(["0"] * n) + "],\n"
    text += indent + "  [\n" + indent + "    0,\n" + indent + "    -1\n" + indent + "  ]\n" + indent + "]\n}"
    text += " " * configfile._FOLD_MIN_CHARS
    tracemalloc.start()
    try:
        _assert_as_plain(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(text)


def _nested_first_rows(k):
    """k Gram keys, each inside the first row of the one before it: one "]" closes them all."""
    return "{" + '\n  "gram": [\n    [' * k + ",".join(["0"] * 100) + "]"


def _nested_rows(k):
    """A Gram of k-cell rows, each row after the first holding the key of another such Gram."""
    first = "[" + ",".join(["0"] * k) + "]"
    return '{\n  "gram": [\n    ' + first + (',\n    [\n  "gram": [\n    ' + first) * k


def _keys_on_one_line(k):
    return "{\n" + ' "gram": [' * k


def _unclosed_rows(k):
    return "{" + '\n  "gram": [\n    [' * k


def _best_of_three(text):
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _assert_as_plain(text)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize(
    "build, small, grow",
    [(_nested_first_rows, 2000, 8), (_keys_on_one_line, 3000, 8), (_unclosed_rows, 4000, 16)],
    ids=lambda x: getattr(x, "__name__", "").lstrip("_") or None,
)
def test_reading_a_text_of_many_gram_keys_takes_time_linear_in_its_length(build, small, grow):
    """Gram keys inside one another's first rows, on one line or with no row
    closed: a text ``r`` times as long takes at most about ``r`` times as long
    to read, where reading each key to the end of the text took ``r**2``."""
    texts = [build(small), build(small * grow)]
    assert len(texts[0]) > configfile._FOLD_MIN_CHARS
    times = [_best_of_three(t) for t in texts]
    assert times[1] < 2 * len(texts[1]) / len(texts[0]) * times[0] + 0.002


def test_a_key_inside_rows_already_read_is_not_read_again(monkeypatch):
    """A Gram of 400-cell rows, each holding the key of another such Gram:
    the first key reads every row, and only the key in the last one is read."""
    calls = []
    verified_tail = configfile._verified_tail

    def counted(text, key):
        calls.append(key)
        return verified_tail(text, key)

    monkeypatch.setattr(configfile, "_verified_tail", counted)
    _assert_as_plain(_nested_rows(400))
    assert len(calls) == 2


@functools.cache
def _d21_all_ones():
    return construction.sequential_blowup(*d21_all_ones_row())[0]


@functools.cache
def _d21_all_ones_text():
    return ncconfig.config_to_json(_d21_all_ones())


def test_parsed_equal_restriction_rows_share_one_tuple():
    """The degree-21 all-ones export: each parsed D3 restriction matrix holds
    one tuple per distinct row (22 of 295), as the blown-up record does."""
    config = _d21_all_ones()
    parsed = ncconfig.config_from_json(_d21_all_ones_text())
    for built, read in zip(config.surfaces[2].restrictions, parsed.surfaces[2].restrictions):
        assert read == built
        assert len(read) == 295
        assert len({id(r) for r in read}) == len(set(read)) == len({id(r) for r in built}) == 22
        assert all(a is b for a, b in zip(read, read[1:]) if a == b)


# ---------------------------------------------------------------------------
# Mutations of exports whose D3 tail the reader folds

# A cell of the third surface's Gram: its own line, indented 10 spaces.
_CELL = re.compile(r"(?<=\n {10})(?:-1|0)(?=,?\n)")
_BAD_CELLS = ("false", "0.0", "-1.0", "-0", "00", "1")


def _gram_span(text):
    """Start and end of the D3 Gram's value: from its "[" to its closing "]"."""
    key = text.rindex('"gram": [')
    start = key + len('"gram": ')
    return start, text.index("\n      ]", start) + len("\n      ]")


def _tail_rows(text):
    """Start of each row of the D3 Gram after the first, at the comma before it."""
    start, end = _gram_span(text)
    return [m.start() for m in re.finditer(r",\n {8}\[", text[start:end])], start


def _mutate_cell(text, pick):
    start, end = _gram_span(text)
    cells = [m.span() for m in _CELL.finditer(text, start, end)]
    n = text[start:end].count("\n        [")
    a, b = cells[n + pick(len(cells) - n)]  # past the first row
    return text[:a] + _BAD_CELLS[pick(len(_BAD_CELLS))] + text[b:]


def _truncate_tail(text, pick):
    rows, start = _tail_rows(text)
    cut = start + rows[pick(len(rows))]
    if pick(2):
        return text[:cut]  # the file ends inside the Gram
    return text[:cut] + text[text.index("\n      ]", cut) :]  # the last rows are gone


_REINDENTS = (("\n          ", "\n           "), ("\n        ", "\n\t"), ("\n", "\r\n"))


def _reindent_tail(text, pick):
    rows, start = _tail_rows(text)
    at = start + rows[pick(len(rows))]
    end = text.index("\n        ]", at) + len("\n        ]")
    old, new = _REINDENTS[pick(len(_REINDENTS))]
    return text[:at] + text[at:end].replace(old, new) + text[end:]


def _paste_tail(text, pick):
    """The Gram's tail text, from one of its rows on, in a string or under another key."""
    rows, start = _tail_rows(text)
    _, end = _gram_span(text)
    tail = text[start + rows[pick(len(rows))] : end - len("\n      ]")]
    where = pick(3)
    if where == 0:  # raw, inside a note
        return text.replace('"lattice_is_full"', '"notes": [\n    "' + tail + '"\n  ],\n  "lattice_is_full"', 1)
    if where == 1:  # as the rows of D3's boundary_self
        key = text.rindex('"boundary_self": [') + len('"boundary_self": [')
        return text[:key] + tail[1:] + text[text.index("\n      ]", key) :]
    return text.replace('"eps[1]"', json.dumps(tail), 1)  # escaped, as a label


_TOKENS = ("0.0", "1.0", "7.0", "53.0", "0.5")
_TOKEN_PLACES = (
    ('"eps[1]"', '"{}"'),
    ('"lattice_is_full"', '"notes": [{}],\n  "lattice_is_full"'),
    ('"connected": true,\n    "euler": 0', '"connected": true,\n    "euler": {}'),
    ('"Y1": [\n          [\n            ', '"Y1": [\n          [\n            {},'),
)


def _forge_tokens(text, pick):
    """Number tokens like the reader's own, as a label or as numbers in a note,
    the triple curve's Euler number or a restriction row."""
    old, new = _TOKEN_PLACES[pick(len(_TOKEN_PLACES))]
    assert old in text
    return text.replace(old, new.format(_TOKENS[pick(len(_TOKENS))]), 1)


_BYTES = ("", "0", "-", "1", ",", "[", "]", "\n", " ", '"', ".", "e")


def _edit_bytes(text, pick):
    """One to three random edits, each in the D3 Gram, before it or after it.

    An edit outside the Gram leaves its tail verified, so the folded text is
    what fails to decode, or decodes to what the edited text does."""
    start, end = _gram_span(text)
    zones = ((start, end), (0, start), (end, len(text)))
    for _ in range(1 + pick(3)):
        low, high = zones[pick(3)]
        at = low + pick(high - low)
        text = text[:at] + _BYTES[pick(len(_BYTES))] + text[at + pick(3) :]
    return text


def _restriction_rows(text):
    """(start, end) of each row of D3's restriction matrices, from its line's
    first space to its "]"."""
    start = text.index('"restrictions": {', text.rindex('"gram": ['))
    end = text.index("\n      }", start)
    return [(m.start() + 1, text.index("]", m.end()) + 1) for m in re.compile(r"\n {10}\[").finditer(text, start, end)]


def _copied_row_runs(text):
    """The spans of each run of two or more equal rows of D3's restriction matrices."""
    runs = [list(g) for _, g in groupby(_restriction_rows(text), key=lambda span: text[span[0] : span[1]])]
    return [run for run in runs if len(run) > 1]


# One edit of a row's text: a cell, a comma, an indent character.
_ROW_EDITS = {
    "cell": lambda row: re.sub(r"(?<=\n {12})-?\d+", lambda m: str(int(m.group()) + 7), row, count=1),
    "comma": lambda row: row.replace(",", "", 1),
    "indent": lambda row: row[1:],
}


def _edit_restriction_row(text, pick):
    """One row of D3's restriction matrices, most often one of a run of equal
    rows, edited, dropped or written twice."""
    runs = _copied_row_runs(text)
    rows = runs[pick(len(runs))] if pick(4) else _restriction_rows(text)
    a, b = rows[pick(len(rows))]
    how = pick(len(_ROW_EDITS) + 2)
    if how == len(_ROW_EDITS):  # the row, with the comma before it or, for a first row, after it
        return text[: a - 2] + text[b:] if text[a - 2] == "," else text[:a] + text[b + 2 :]
    if how > len(_ROW_EDITS):
        return text[:b] + ",\n" + text[a:b] + text[b:]
    return text[:a] + list(_ROW_EDITS.values())[how](text[a:b]) + text[b:]


_MUTATIONS = (
    _mutate_cell, _truncate_tail, _reindent_tail, _paste_tail, _forge_tokens, _edit_bytes, _edit_restriction_row
)


@functools.cache
def _folded_exports():
    """The degree-9 stress exports: the smallest whose D3 tail the reader folds."""
    return tuple(text for label, _, text in _stress_exports() if label.startswith("rank-one-d9:"))


@st.composite
def _mutated(draw):
    text = draw(st.sampled_from(_folded_exports()))
    mutate = draw(st.sampled_from(_MUTATIONS))
    return mutate(text, lambda n: draw(st.integers(0, n - 1)))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=_mutated())
def test_mutated_exports_read_as_plain_json(text):
    _assert_as_plain(text)


@pytest.mark.parametrize("mutate", _MUTATIONS, ids=lambda f: f.__name__.lstrip("_"))
def test_each_mutation_of_the_largest_tail_reads_as_plain_json(mutate):
    """The degree-21 all-ones export, whose tail the reader folds, mutated with a fixed seed."""
    text = _d21_all_ones_text()
    assert _gram_tails(text)
    rng = random.Random(5)
    for _ in range(3):
        _assert_as_plain(mutate(text, rng.randrange))



def test_a_base_row_nonzero_in_a_minus_identity_column_is_refused_as_plain_json():
    """The degree-21 all-ones export with a 1 in the last cell of the D3
    Gram's first row: the tail is still verified, but it is not the -I block
    of the dense form, which is not symmetric."""
    text = _d21_all_ones_text()
    start, _ = _gram_span(text)
    a, b = list(_CELL.finditer(text, start, text.index("\n        ]", start)))[-1].span()
    assert text[a:b] == "0"
    text = text[:a] + "1" + text[b:]
    assert _gram_tails(text)
    outcome = _outcome(ncconfig.config_from_json, text)
    assert outcome == _outcome(_plain, text)
    assert outcome[0] == "refused" and "not symmetric" in outcome[1]


def test_verified_minus_identity_rows_are_not_scanned_again(monkeypatch):
    """The reader takes the D3 Gram's verified rows as its -I block: only the
    Grams it decoded cell by cell go through ``base_rank``."""
    sizes = []
    original = configfile.base_rank

    def recorded(rows):
        sizes.append(len(rows))
        return original(rows)

    monkeypatch.setattr(configfile, "base_rank", recorded)
    assert ncconfig.config_from_json(_d21_all_ones_text()) == _d21_all_ones()
    assert len(sizes) == 2 and max(sizes) < 295, sizes


# ---------------------------------------------------------------------------
# The degree-21 all-ones tail, at the seams of block-wise comparison


def _d3_row_cells(text, q):
    """Spans of the cells of row q >= 1 of the D3 Gram."""
    rows, start = _tail_rows(text)
    a = start + rows[q - 1]
    return [m.span() for m in _CELL.finditer(text, a, text.index("\n        ]", a) + 1)]


# The first and the last row of D3's tail (rows 1 to 294) and the rows on
# both sides of each power of two and multiple of 64: the seams a reader
# that compares the tail in blocks of 1, 2, 4, ... and then 64 rows cuts.
_EDGE_ROWS = (1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64, 127, 128, 191, 192, 255, 256, 294)


def _set_cell(text, q, c, value):
    a, b = _d3_row_cells(text, q)[c]
    return text[:a] + value + text[b:]


def _edge_mutations():
    text = _d21_all_ones_text()
    n = _d21_all_ones().surfaces[2].lattice.rank
    assert _EDGE_ROWS[-1] == n - 1
    for q in _EDGE_ROWS:
        yield f"row {q}: -1 -> 0", _set_cell(text, q, q, "0")
        for c in (q - 1, q + 1):
            if c < n:
                yield f"row {q}: cell {c} 0 -> -1", _set_cell(text, q, c, "-1")
    rows, start = _tail_rows(text)
    last = start + rows[-1]
    close = text.index("\n      ]", last)
    yield "last row dropped", text[:last] + text[close:]
    yield "one -I row added", text[:close] + text[last:close] + text[close:]


def test_a_text_too_short_for_the_tail_it_opens_builds_no_block(monkeypatch):
    """The degree-21 all-ones export cut 20,000 characters into D3's tail,
    which takes about 1.1 MB, or one character before the tail's end: the
    tail is not compared, so not one piece of the writer's text is cut for
    it."""
    full = _d21_all_ones_text()
    rows, start = _tail_rows(full)
    tail_end = _gram_span(full)[1] - len("\n      ]")
    cut = []
    pieces = configfile._minus_identity_pieces
    monkeypatch.setattr(
        configfile, "_minus_identity_pieces", lambda *args: (cut.append(x) or x for x in pieces(*args))
    )
    for end in (start + rows[0] + 20000, tail_end - 1):
        _assert_as_plain(full[:end])
        assert cut == [], end
    assert _gram_tails(full) and len(cut) == len(rows) + 1


def test_mutations_at_the_edges_of_the_verified_blocks_read_as_plain_json():
    """Each seam row, with its -1 set to 0 or a 0 beside it set to -1; the
    tail one row short or one row long."""
    cases = list(_edge_mutations())
    assert len(cases) == 58
    for label, text in cases:
        assert text != _d21_all_ones_text(), label
        assert _outcome(ncconfig.config_from_json, text) == _outcome(_plain, text), label


def test_the_pieces_of_a_tail_are_the_stdlib_text_of_its_rows():
    """For every n <= 9 and 0 <= p < n, at the top level and under a key,
    the pieces join to ``json.dumps(..., indent=2)`` of rows p to n - 1 of
    -I.  On the degree-21 all-ones export the pieces join to D3's tail, and
    the longest is the text from one row's -1 to the next: one tail row and
    one cell, since the -1 moves one cell a row."""
    for n in range(1, 10):
        for p in range(n):
            rows = _minus_identity_oracle(n, p)
            pieces = configfile._minus_identity_pieces("[\n  ", "\n  ", n, p)
            assert "".join(pieces) + "\n]" == json.dumps(rows, indent=2), (n, p)
            pieces = configfile._minus_identity_pieces("[\n    ", "\n    ", n, p)
            assert '{\n  "g": ' + "".join(pieces) + "\n  ]\n}" == json.dumps({"g": rows}, indent=2), (n, p)

    text = _d21_all_ones_text()
    rows, start = _tail_rows(text)
    row = rows[1] - rows[0]
    cell = len(",\n          0")
    lattice = _d21_all_ones().surfaces[2].lattice
    n, p = lattice.rank, len(lattice.gram)
    pieces = list(configfile._minus_identity_pieces(",\n        ", "\n        ", n, p))
    assert len(pieces) == n - p + 1
    assert "".join(pieces) == text[start + rows[0] : _gram_span(text)[1] - len("\n      ]")]
    assert max(map(len, pieces)) == row + cell


def test_a_verified_tail_outside_a_surface_gram_reads_as_plain_json():
    """A "gram" key among D3's restrictions holds a copy of its Gram in the
    writer's layout, and D3's restrictions key shares its name's line, so
    the scan reads no restrictions object there and finds that key: its tail
    is verified and folded too, but only a surface's Gram reads the marker,
    so the text is read as plain JSON."""
    data = configfile.config_to_dict(_d21_all_ones())
    data["surfaces"][2]["restrictions"]["gram"] = data["surfaces"][2]["gram"]
    text = configfile.dumps(data).replace('"D3",\n      "restrictions"', '"D3", "restrictions"')
    assert _gram_tails(text) == [(295, 1), (295, 1)]
    outcome = _outcome(ncconfig.config_from_json, text)
    assert outcome == _outcome(_plain, text) == ("ok", _d21_all_ones())


def test_copied_rows_outside_a_surfaces_restrictions_read_as_plain_json():
    """D3's tau_class holds a copy of its restrictions object in the
    writer's layout: the runs of both are folded, but only a surface's
    restrictions read the markers, so the text is refused as plain JSON
    refuses it, with every copied row in the message."""
    data = configfile.config_to_dict(_d21_all_ones())
    data["surfaces"][2]["tau_class"] = {"restrictions": data["surfaces"][2]["restrictions"]}
    text = configfile.dumps(data)
    markers = configfile._fold_repeats(text)[1].values()
    assert [type(m) for m in markers].count(configfile._RowCopies) == 2 * 2 * 21
    outcome = _outcome(ncconfig.config_from_json, text)
    assert outcome == _outcome(_plain, text) and outcome[0] == "refused"


def test_a_verified_tail_is_one_token_and_no_dense_rows(monkeypatch):
    """Reading the degree-21 all-ones export calls the ``parse_float`` hook
    once for each token: D3's 294-row tail, then the copies of each curve's
    row in D3's two restriction matrices.  It lays out no -I row; the
    fallback, for a base row nonzero in an -I column, lays out the tail it
    must scan."""
    hooked, laid_out = [], []
    loads = json.loads
    rows = configfile._minus_identity_rows

    def counted_loads(text, **kwargs):
        if "parse_float" in kwargs:
            hook = kwargs["parse_float"]
            kwargs["parse_float"] = lambda token: hooked.append(token) or hook(token)
        return loads(text, **kwargs)

    def recorded_rows(n, p):
        laid_out.append((n, p))
        return rows(n, p)

    monkeypatch.setattr(json, "loads", counted_loads)
    monkeypatch.setattr(configfile, "_minus_identity_rows", recorded_rows)
    assert ncconfig.config_from_json(_d21_all_ones_text()) == _d21_all_ones()
    markers = configfile._fold_repeats(_d21_all_ones_text())[1]
    assert (hooked, laid_out) == (list(markers), [])
    kinds = [configfile._MinusIdentityTail] + [configfile._RowCopies] * (2 * 21)
    assert [type(m) for m in markers.values()] == kinds

    text = _d21_all_ones_text()
    start, _ = _gram_span(text)
    a, b = list(_CELL.finditer(text, start, text.index("\n        ]", start)))[-1].span()
    text = text[:a] + "1" + text[b:]  # the last cell of row 0, the base
    assert _outcome(ncconfig.config_from_json, text)[0] == "refused"
    assert laid_out == [(295, 1)]


def test_reading_the_largest_export_holds_less_than_its_text():
    """The tracemalloc peak of reading the degree-21 all-ones export stays
    below 0.7 of its text's length: no list of the tail's rows is built."""
    text = _d21_all_ones_text()
    ncconfig.config_from_json(text)
    tracemalloc.start()
    try:
        ncconfig.config_from_json(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.7 * len(text)


# ---------------------------------------------------------------------------
# Runs of copied restriction rows


@pytest.mark.parametrize("edit", sorted(_ROW_EDITS))
@pytest.mark.parametrize("which", ["head", "first copy", "middle copy", "last copy"])
def test_an_edit_of_one_row_of_a_run_reads_as_plain_json(which, edit):
    """The first run of D3's first restriction matrix and the last run of its
    second, in the degree-21 all-ones export: its head, its first, a middle
    or its last copy gets one cell changed, one comma dropped or one space of
    its indent dropped.  The runs left around it are still folded."""
    text = _d21_all_ones_text()
    runs = _copied_row_runs(text)
    assert len(runs) == 2 * 21 and {len(run) for run in runs} == {14}
    for run in (runs[0], runs[-1]):
        a, b = run[{"head": 0, "first copy": 1, "middle copy": len(run) // 2, "last copy": -1}[which]]
        mutant = text[:a] + _ROW_EDITS[edit](text[a:b]) + text[b:]
        assert mutant != text
        copies = [m for m in configfile._fold_repeats(mutant)[1].values() if type(m) is configfile._RowCopies]
        assert len(copies) >= 2 * 21 - 1
        _assert_as_plain(mutant)


def test_the_writer_emits_each_stated_run_as_its_rows():
    """D3's restriction matrices of the degree-21 all-ones blow-up, restated
    as runs of two rows and one, each next to an equal one: the writer's
    text is the stdlib encoder's text of the plain rows, and the reader
    reads each run of equal rows back as one."""
    config = _d21_all_ones()
    surfaces = list(config.surfaces)
    restated = []
    for m in surfaces[2].restrictions:
        heads, lengths = [], []
        for head, n in zip(m.heads, m.lengths):
            heads += [head] * (n // 2 + n % 2)
            lengths += [2] * (n // 2) + [1] * (n % 2)
        assert 1 in lengths and 2 in lengths
        restated.append(rows_from_runs(heads, lengths))
    surfaces[2] = replace(surfaces[2], restrictions=tuple(restated))
    config = replace(config, surfaces=tuple(surfaces))
    text = ncconfig.config_to_json(config)
    # Compared as one bool: a diff of two 1.5 MB texts takes pytest minutes.
    same = text == json.dumps(configfile.config_to_dict(config), indent=2, sort_keys=True) == _d21_all_ones_text()
    assert same
    for read, built in zip(ncconfig.config_from_json(text).surfaces[2].restrictions, restated):
        assert read == built and read.lengths == (1,) + (14,) * 21


@pytest.mark.parametrize(
    "rows",
    ['"Y1":\n          [[1],\n          [[1]]', '"Y1": [\n          ["a],\n          ["a]", 5]],\n        "Y2": [0.0]'],
    ids=["a second list", "a quote"],
)
def test_a_row_that_is_not_one_json_value_is_not_folded(rows):
    """A line that opens "[[1]" or '["a]' up to its first "]" and a next line
    that repeats it: such a row is not a whole JSON value, so its "copy" is
    not one.  Folded, the first text would lose an unclosed "[", and the
    second would put its token in a string while a forged "0.0" stands in a
    matrix; either would decode where plain JSON refuses the text."""
    text = '{\n  "surfaces": [\n    {\n      "restrictions": {\n        ' + rows + "\n      }\n    }\n  ]\n}"
    text += " " * configfile._FOLD_MIN_CHARS
    assert configfile._fold_repeats(text)[1] == {}
    assert _outcome(ncconfig.config_from_json, text) == _outcome(_plain, text)
    assert _outcome(_plain, text)[1].startswith("invalid JSON")


def test_a_restrictions_key_after_more_than_spaces_on_its_line_is_not_searched():
    """Each line of this text opens with a comma, one character before the
    writer's indent, so each copy of the row follows two commas and plain
    JSON refuses the text.  Folded, the copies would go and the text would
    decode.  The same text indented with spaces is searched and folded."""
    text = (
        '{\n  "surfaces": [\n    {\n      "a": 0\n,     "restrictions": {\n        "Y1": [[0]'
        + "\n,         [1, 2],\n,         [1, 2]]\n      }\n    }\n  ]\n}"
    )
    text += " " * configfile._FOLD_MIN_CHARS
    assert list(configfile._fold_repeats(text.replace("\n,", "\n "))[1].values()) == [1]
    assert configfile._fold_repeats(text)[1] == {}
    assert _outcome(ncconfig.config_from_json, text) == _outcome(_plain, text)
    assert _outcome(_plain, text)[1].startswith("invalid JSON")


def _copied_rows(count):
    """A text in the writer's layout whose one restriction matrix is ``count``
    copies of one 16-cell row, long enough to be searched."""
    rows = [list(range(-8, 8))] * count
    text = configfile.dumps({"surfaces": [{"restrictions": {"Y1": rows}}]})
    return text + " " * max(0, configfile._FOLD_MIN_CHARS - len(text))


@pytest.mark.parametrize("count", [2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 1023, 1024, 1025])
def test_the_copies_of_a_row_are_counted_by_doubling_and_halving(count):
    text = _copied_rows(count)
    folded, markers = configfile._fold_repeats(text)
    assert list(markers.values()) == [count - 1] and type(markers["0.0"]) is configfile._RowCopies
    assert folded.count("[\n            -8,") == 1
    assert configfile._loads(text) == {"surfaces": [{"restrictions": {"Y1": [list(range(-8, 8)), count - 1]}}]}
    assert json.loads(text) == {"surfaces": [{"restrictions": {"Y1": [list(range(-8, 8))] * count}}]}


def test_reading_the_copies_of_one_row_takes_time_linear_in_their_number():
    """2**10 and 2**14 copies of one row: the copies are compared in blocks
    that double and then halve, so 16 times the text takes at most about 16
    times as long to read."""
    counts = (2**10, 2**14)
    texts = [_copied_rows(count) for count in counts]
    assert len(texts[0]) > configfile._FOLD_MIN_CHARS
    times = []
    for count, text in zip(counts, texts):
        assert list(configfile._fold_repeats(text)[1].values()) == [count - 1]
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            configfile._loads(text)
            best = min(best, time.perf_counter() - start)
        times.append(best)
    assert times[1] < 2 * len(texts[1]) / len(texts[0]) * times[0] + 0.002


def test_a_compact_stress_file_reads_as_the_writers_and_states_no_runs():
    """Each stress export written by ``json.dumps`` on one line: it is read
    as plain JSON, to the configuration the writer's text gives, and its
    restriction matrices are plain tuples."""
    for label, config, _ in _stress_exports():
        compact = json.dumps(configfile.config_to_dict(config))
        assert configfile._fold_repeats(compact)[1] == {}, label
        parsed = ncconfig.config_from_json(compact)
        assert parsed == config, label
        assert {type(m) for s in parsed.surfaces for m in s.restrictions} == {tuple}, label


def test_reading_the_largest_export_decodes_each_run_of_rows_once():
    """The degree-21 all-ones export: after its tail and its copied rows are
    folded, under 4% of its text is left to decode, and reading it holds
    under 0.15 of its text.  Each parsed D3 restriction matrix states its
    base row and one run of 14 rows per curve."""
    text = _d21_all_ones_text()
    folded, _ = configfile._fold_repeats(text)
    assert len(folded) < 0.04 * len(text)
    parsed = ncconfig.config_from_json(text)
    for m in parsed.surfaces[2].restrictions:
        assert m.lengths == (1,) + (14,) * 21
    tracemalloc.start()
    try:
        ncconfig.config_from_json(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.15 * len(text)
