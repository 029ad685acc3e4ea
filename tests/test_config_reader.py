"""The ``ncconfig/1`` reader against plain ``json.loads``.

``config_from_json`` reads a surface Gram's trailing -I rows as one block of
text: it compares them with the writer's text and decodes each verified row
without reading its cells.  Its contract is that of
``config_from_dict(json.loads(text))`` on every text: the same configuration,
or a ``SchemaError`` with the same message.  Here that is checked on every
catalog and stress export and on mutations aimed at the tail, and a pin
fails if the writer's layout and the reader's recognition drift apart.
"""

import functools
import json
import random
import re
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nc3 import catalog, configfile, construction, ncconfig
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


def _minus_identity_oracle(n, p):
    """Rows p to n - 1 of the n x n matrix -I, cell by cell."""
    return [[-1 if c == q else 0 for c in range(n)] for q in range(p, n)]


def test_the_d3_tail_of_each_stress_blowup_is_folded_into_one_token():
    """On each stress export the D3 Gram's -I rows are one verified tail,
    read as one ``(n, p)`` marker; a writer layout change that silently
    disables the fast path fails here."""
    assert len(_stress_exports()) == 45
    for label, config, text in _stress_exports():
        [tail] = configfile._fold_gram_tails(text)[1].values()
        grams = [s["gram"] for s in configfile._loads(text)["surfaces"]]
        marked = [type(g[-1]) is configfile._MinusIdentityTail for g in grams]
        assert marked == [False, False, True] and grams[2][-1] == tail, label
        lattice = config.surfaces[2].lattice
        assert tail == (lattice.rank, len(lattice.gram)), label
        expanded = grams[2][:-1] + _minus_identity_oracle(*tail)
        assert expanded == configfile.config_to_dict(config)["surfaces"][2]["gram"], label


def test_catalog_sized_exports_are_decoded_as_plain_json():
    for label, _, text in _exports()[:63]:
        assert configfile._fold_gram_tails(text) == (text, {}), label


def _unit_gram(n, p):
    """The dense Gram ``I_p (+) -I`` of rank n, as lists."""
    return [[(1 if q < p else -1) if c == q else 0 for c in range(n)] for q in range(n)]


@pytest.mark.parametrize("n, p, folded", [(45, 1, False), (46, 1, True), (46, 2, False), (47, 2, True)])
def test_a_tail_is_folded_from_the_threshold_on(n, p, folded):
    """A surface Gram ``I_p (+) -I`` in a text that ends 20 characters after
    it: its tail is folded exactly when it holds ``_FOLD_MIN_CELLS`` cells or
    more, however little text follows it, and the text reads as plain JSON."""
    text = configfile.dumps({"surfaces": [{"gram": _unit_gram(n, p)}]})
    assert ((n - p) * n >= configfile._FOLD_MIN_CELLS) is folded
    assert list(configfile._fold_gram_tails(text)[1].values()) == ([(n, p)] if folded else [])
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
        assert list(configfile._fold_gram_tails(padded)[1].values()) == tails
        _assert_as_plain(padded)


def test_a_gram_in_another_layout_leaves_the_writers_tail_folded():
    """The degree-21 all-ones export with D1's Gram written on one line: that
    Gram opens no tail, and D3's is still the one tail folded."""
    data = configfile.config_to_dict(_d21_all_ones())
    text = configfile.dumps(data)
    start = text.index('"gram": [') + len('"gram": ')
    end = text.index("\n      ]", start) + len("\n      ]")
    text = text[:start] + json.dumps(data["surfaces"][0]["gram"]) + text[end:]
    assert list(configfile._fold_gram_tails(text)[1].values()) == [(295, 1)]
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


_MUTATIONS = (_mutate_cell, _truncate_tail, _reindent_tail, _paste_tail, _forge_tokens, _edit_bytes)


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
    assert configfile._fold_gram_tails(text)[1]
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
    assert configfile._fold_gram_tails(text)[1]
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
# The degree-21 all-ones tail, at the edges of the blocks it is verified in


def _d3_row_cells(text, q):
    """Spans of the cells of row q >= 1 of the D3 Gram."""
    rows, start = _tail_rows(text)
    a = start + rows[q - 1]
    return [m.span() for m in _CELL.finditer(text, a, text.index("\n        ]", a) + 1)]


def _block_edge_rows():
    """The first and the last row of each block the D3 tail is compared in."""
    lattice = _d21_all_ones().surfaces[2].lattice
    n, q = lattice.rank, len(lattice.gram)
    edges = []
    for block in configfile._minus_identity_blocks(",\n        ", "\n        ", n, q):
        rows = block.count("-1")
        edges += [q, q + rows - 1]
        q += rows
    assert q == n and len(edges) > 2 * 4
    return sorted(set(edges))


def _set_cell(text, q, c, value):
    a, b = _d3_row_cells(text, q)[c]
    return text[:a] + value + text[b:]


def _edge_mutations():
    text = _d21_all_ones_text()
    n = _d21_all_ones().surfaces[2].lattice.rank
    for q in _block_edge_rows():
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
    which takes about 1.1 MB: the tail is not compared, so not one block of
    the writer's text is built for it."""
    rows, start = _tail_rows(_d21_all_ones_text())
    text = _d21_all_ones_text()[: start + rows[0] + 20000]
    blocks = []
    monkeypatch.setattr(configfile, "_minus_identity_blocks", lambda *args: blocks.append(args) or iter(()))
    _assert_as_plain(text)
    assert blocks == []


def test_mutations_at_the_edges_of_the_verified_blocks_read_as_plain_json():
    """Each block's first and last row, with its -1 set to 0 or a 0 beside
    it set to -1; the tail one row short or one row long."""
    cases = list(_edge_mutations())
    assert len(cases) > 30
    for label, text in cases:
        assert text != _d21_all_ones_text(), label
        assert _outcome(ncconfig.config_from_json, text) == _outcome(_plain, text), label


def test_a_verified_tail_outside_a_surface_gram_reads_as_plain_json():
    """A "gram" key among D3's restrictions holds a copy of its Gram in the
    writer's layout: its tail is verified and folded too, but only a
    surface's Gram reads the marker, so the text is read as plain JSON."""
    data = configfile.config_to_dict(_d21_all_ones())
    data["surfaces"][2]["restrictions"]["gram"] = data["surfaces"][2]["gram"]
    text = configfile.dumps(data)
    assert len(configfile._fold_gram_tails(text)[1]) == 2
    outcome = _outcome(ncconfig.config_from_json, text)
    assert outcome == _outcome(_plain, text) == ("ok", _d21_all_ones())


def test_a_verified_tail_is_one_token_and_no_dense_rows(monkeypatch):
    """Reading the degree-21 all-ones export calls the ``parse_float`` hook
    once, for D3's 294-row tail, and lays out no -I row; the fallback, for a
    base row nonzero in an -I column, lays out the tail it must scan."""
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
    assert (hooked, laid_out) == (["0.0"], [])

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
