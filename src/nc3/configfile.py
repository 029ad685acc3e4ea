"""The ``ncconfig/1`` file format: the JSON writer and reader of configurations.

``config_to_json`` writes a configuration as the text of
``json.dumps(config_to_dict(config), indent=2, sort_keys=True)``, without
building the dense lists, and ``config_from_json`` reads it back, refusing
every file the schema in ``schemas/ncconfig.schema.json`` refuses with
:class:`~nc3.ncconfig.SchemaError`.  Numbers are integers only.  ``dumps``
is the one layout of every file and payload nc3 writes.

The reader does not decode the two repeated texts of a blown-up surface
(``_loads``).  Its Gram, ``base (+) -I``, ends in -I rows: their text is
compared with the writer's, in pieces of about one row up to the first
difference.  Its restriction matrices repeat one row for every point over
a curve: the copies' text is compared with the row before them, in blocks
that double and then halve.  A verified tail, or the copies after a row,
are decoded as one number token that stands for their count.  The writer
emits the same pieces, and a run of equal rows as one piece.  No part
of the text is read for two keys, so the work stays linear in the length
of the text.  A text that does not match the writer's layout, or one of a
catalog blow-up's size, is decoded as plain JSON, and its restriction
matrices state no runs.

``ncconfig`` forwards these names, so callers reach them as
``ncconfig.config_to_json`` and so on; this module is loaded only by a
command that reads or writes a file or a payload.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Any, Callable, Iterator

from .exactlat import IntersectionLattice, IntMatrix, RowRuns, Vec, base_rank, default_labels, rows_from_runs
from .ncconfig import (
    OTHER_COMPONENTS,
    SCHEMA_ID,
    SURFACE_ADJACENCY,
    ComponentGeometry,
    ConfigError,
    NCConfiguration,
    SchemaError,
    SurfaceGeometry,
    TripleCurve,
)


def dumps(obj: Any) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    This is the one layout of every file and payload nc3 writes: 2-space
    indent, sorted keys, ASCII escapes, one scalar per line.  The stdlib
    encoder falls back to pure Python when given an indent; here the text is
    appended to one list of fragments and joined once, as the stdlib's
    ``_iterencode`` does, and a list of plain ints is joined in one
    ``str.join``.  Values are dicts with string keys, lists, tuples,
    strings, ints, bools and ``None`` (and, from ``config_to_json``, its
    private ``_DenseText`` matrices); anything else (floats included)
    raises ``TypeError``.
    """
    from json.encoder import encode_basestring_ascii

    out: list[str] = []
    _write(obj, "\n", encode_basestring_ascii, out.append)
    return "".join(out)


class _IntText(dict):
    """The text of small ints, looked up; any other int is formatted, not kept."""

    def __missing__(self, key: int) -> str:
        return int.__repr__(key)


# Gram rows and restriction matrices are mostly 0 and +-1.  Only exact ints
# reach the table: ``True == 1`` would find the text of 1.
_INT_TEXT = _IntText((k, int.__repr__(k)) for k in range(-16, 17))


def _write(x: Any, newline: str, quote: Callable[[str], str], emit: Callable[[str], Any]) -> None:
    """Append the text of ``x`` to ``emit``; ``newline`` ends the line before its closing bracket."""
    if isinstance(x, str):
        emit(quote(x))
    elif x is None:
        emit("null")
    elif x is True:
        emit("true")
    elif x is False:
        emit("false")
    elif isinstance(x, int):
        emit(int.__repr__(x))
    elif isinstance(x, dict):
        if not x:
            emit("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key in sorted(x):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            emit(lead + quote(key) + ": ")
            _write(x[key], inner, quote, emit)
            lead = "," + inner
        emit(newline + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            emit("[]")
            return
        inner = newline + "  "
        if {int}.issuperset(map(type, x)):
            emit("[" + inner + ("," + inner).join(map(_INT_TEXT.__getitem__, x)) + newline + "]")
            return
        lead = "[" + inner
        for v in x:
            emit(lead)
            _write(v, inner, quote, emit)
            lead = "," + inner
        emit(newline + "]")
    elif isinstance(x, _DenseText):
        x.write(newline, quote, emit)
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _require(obj: dict[str, Any], key: str, where: str) -> Any:
    if key not in obj:
        raise SchemaError(f"{where}: missing key {key!r}")
    return obj[key]


def _intval(x: Any, where: str) -> int:
    if type(x) is not int:
        raise SchemaError(f"{where}: expected integer, got {x!r}")
    return x


def _intlist(x: Any, where: str) -> list[int]:
    if not isinstance(x, list):
        raise SchemaError(f"{where}: expected list of integers, got {x!r}")
    if not {int}.issuperset(map(type, x)):
        for v in x:
            _intval(v, where)
    return x


def _intvec(x: Any, where: str) -> Vec:
    return tuple(_intlist(x, where))


def _introws(x: Any, where: str) -> list[list[int]]:
    if not isinstance(x, list):
        raise SchemaError(f"{where}: expected matrix, got {x!r}")
    # Every cell's type in one pass at C speed; a failure is named row by row.
    if not ({list}.issuperset(map(type, x)) and {int}.issuperset(map(type, chain.from_iterable(x)))):
        for r in x:
            _intlist(r, where)
    return x


class _RowCopies(int):
    """How many copies of the row before it followed in text verified as theirs.

    ``config_from_json`` puts one in place of those copies, in the
    restriction matrix's list, and builds none of them.
    """

    __slots__ = ()


def _intmat(x: Any, where: str) -> IntMatrix:
    """A restriction matrix as tuples; one read with ``_RowCopies`` states its runs.

    ``config_from_json`` puts a ``_RowCopies`` after each row whose text
    the next rows repeat, in place of those rows.  Such a matrix is laid
    out from its runs and states them (:class:`~nc3.exactlat.RowRuns`), as
    the blow-up's own matrix does; only the head of each run is
    type-checked and copied, which is what plain JSON's equal rows would
    give.  Any other matrix is copied row by row.
    """
    if not (isinstance(x, list) and _RowCopies in map(type, x)):
        return tuple(map(tuple, _introws(x, where)))
    heads: list[Any] = []
    lengths: list[int] = []
    for r in x:
        if type(r) is _RowCopies:
            lengths[-1] += r
        else:
            heads.append(r)
            lengths.append(1)
    return rows_from_runs(tuple(map(tuple, _introws(heads, where))), lengths)


class _MinusIdentityTail(tuple):
    """``(n, p)``: rows p to n - 1 of an n x n Gram, read from text verified as the -I block's.

    ``config_from_json`` puts one in place of those rows, as the last item
    of the Gram's list, and builds none of them.
    """

    __slots__ = ()


def _gram(x: Any, where: str) -> tuple[IntMatrix, int]:
    """A dense Gram matrix as its base block and the count of its trailing -I rows.

    A Gram whose tail ``config_from_json`` verified ends in a
    ``_MinusIdentityTail`` ``(n, p)``.  When the rows above it are the p
    rows of the base, n long and zero over columns p and up, the tail is
    the -I block: its count is n - p, and only the base is type-checked.
    Otherwise the tail becomes the dense rows plain JSON holds, and
    ``base_rank`` finds the block, as in any Gram.  Only the base block is
    copied into tuples.
    """
    tail = None
    if isinstance(x, list) and x and type(x[-1]) is _MinusIdentityTail:
        *x, tail = x
    _introws(x, where)
    if tail is not None:
        n, p = tail
        if len(x) == p and all(len(r) == n and not any(r[p:]) for r in x):
            return tuple(tuple(r[:p]) for r in x), n - p
        x += _minus_identity_rows(n, p)
    n = len(x)
    b = base_rank(x)
    if b == n:
        return tuple(map(tuple, x)), 0
    return tuple(tuple(r[:b]) for r in x[:b]), n - b


def _minus_identity_rows(n: int, p: int) -> list[list[int]]:
    """Rows p to n - 1 of the n x n matrix -I, as lists."""
    out = []
    for q in range(p, n):
        row = [0] * n
        row[q] = -1
        out.append(row)
    return out


def _dense(rows: IntMatrix, exceptional: int) -> list[list[int]]:
    """The dense rows of the Gram form ``rows (+) -I``, as lists.

    With ``exceptional`` 0 this is any matrix, such as a restriction
    matrix.  ``config_to_dict`` writes its matrices with it, and
    ``config_to_json`` writes the same text through ``_DenseText``.
    """
    n = len(rows) + exceptional
    tail = [0] * exceptional
    return [list(r) + tail for r in rows] + _minus_identity_rows(n, len(rows))


class _DenseText:
    """``config_to_json``'s stand-in for ``_dense(rows, exceptional)``: the writer
    emits the text of those lists without building them.

    Each row's zero tail is one repeated string, and the ``-I`` rows are
    written as the pieces of ``_minus_identity_pieces``.  A matrix that
    states its runs (:class:`~nc3.exactlat.RowRuns`, as the blow-up's point
    rows do) has each head's text built once and its copies emitted as one
    piece.  Rows that are not all exact ints go through ``_write``.
    """

    __slots__ = ("rows", "exceptional")

    def __init__(self, rows: IntMatrix, exceptional: int):
        self.rows = rows
        self.exceptional = exceptional

    def write(self, newline: str, quote: Callable[[str], str], emit: Callable[[str], Any]) -> None:
        rows, exceptional = self.rows, self.exceptional
        if not rows and not exceptional:
            emit("[]")
            return
        inner = newline + "  "
        cell = inner + "  "
        sep = "," + cell
        zero = sep + "0"
        tail = zero * exceptional
        runs = zip(rows.heads, rows.lengths) if type(rows) is RowRuns else zip(rows, repeat(1))
        lead = "[" + inner
        for r, k in runs:
            if r and {int}.issuperset(map(type, r)):
                text = "[" + cell + sep.join(map(_INT_TEXT.__getitem__, r)) + tail + inner + "]"
            else:
                chunks: list[str] = []
                _write(list(r) + [0] * exceptional, inner, quote, chunks.append)
                text = "".join(chunks)
            emit(lead + text)
            lead = "," + inner
            if k > 1:
                emit((lead + text) * (k - 1))
        if exceptional:
            for piece in _minus_identity_pieces(lead, inner, len(rows) + exceptional, len(rows)):
                emit(piece)
        emit(newline + "]")


def _minus_identity_pieces(lead: str, inner: str, n: int, p: int) -> Iterator[str]:
    """The text of rows p to n - 1 of the -I block of an n x n Gram, p < n, piece by piece.

    Row q is ``-1`` in cell q and ``0`` elsewhere, written one cell a line
    below ``inner``; row p follows ``lead`` and every other row
    ``"," + inner``.  The text from the ``-1`` of row q to that of row
    q + 1 is the same length for every q: a window of one periodic string
    that moves one cell a row.  So the pieces are the text up to the first
    ``-1``, then each ``-1`` and the window after it, and the last ``-1``
    with its row's close; none is longer than one row and one cell.  The
    writer emits these pieces and the reader compares a file's text with
    them in turn, so the two share one layout; a piece is cut only when it
    is asked for.
    """
    cell = inner + "  "
    zero = "," + cell + "0"
    width = len(zero)
    cells = zero * (n - 1)
    between = inner + "]," + inner + "[" + cell
    # The window after the -1 of row q starts at character q * width.
    period = cells + between + "0" + cells
    span = n * width + len(between)
    first = (n - 1) * width + len(between)  # where "0" and n - 1 zero cells end the period
    yield lead + "[" + cell + period[first : first + p * width]
    for at in range(p * width, (n - 1) * width, width):
        yield "-1" + period[at : at + span]
    yield "-1" + inner + "]"


def config_to_dict(config: NCConfiguration) -> dict[str, Any]:
    """The ``ncconfig/1`` document of ``config`` as plain dicts and lists.

    Gram and restriction matrices are dense lists of lists, fresh on every
    call, so callers may change them.
    """
    return _document(config, _dense)


def _document(
    config: NCConfiguration, matrix: Callable[[IntMatrix, int], Any]
) -> dict[str, Any]:
    """The document, each Gram and restriction matrix given by ``matrix(rows, exceptional)``."""
    comps = []
    for i, c in enumerate(config.components):
        entry: dict[str, Any] = {
            "name": c.name,
            "euler": c.euler,
            "h2_rank": c.h2_rank,
            "class_labels": list(c.class_labels),
            "ample": list(c.ample),
        }
        if c.boundary is not None:
            entry["boundary"] = {
                config.components[o].name: list(b)
                for o, b in zip(OTHER_COMPONENTS[i], c.boundary)
            }
        if c.chern_numbers is not None:
            entry["chern_numbers"] = list(c.chern_numbers)
        comps.append(entry)

    surfs = []
    for i, s in enumerate(config.surfaces):
        j, k = SURFACE_ADJACENCY[i]
        surfs.append(
            {
                "name": s.name,
                "gram": matrix(s.lattice.gram, s.lattice.exceptional),
                "basis_labels": list(s.lattice.basis_labels),
                "canonical": list(s.canonical),
                "tau_class": list(s.tau_class),
                "euler": s.euler,
                "restrictions": {
                    config.components[j].name: matrix(s.restrictions[0], 0),
                    config.components[k].name: matrix(s.restrictions[1], 0),
                },
                "boundary_self": [list(s.boundary_self[0]), list(s.boundary_self[1])],
            }
        )

    out: dict[str, Any] = {
        "schema": SCHEMA_ID,
        "components": comps,
        "surfaces": surfs,
        "triple": {"euler": config.triple.euler, "connected": config.triple.connected},
        "lattice_is_full": config.lattice_is_full,
    }
    if config.h2_total is not None:
        out["h2_total"] = config.h2_total
    if config.provenance_notes:
        out["notes"] = list(config.provenance_notes)
    return out


# The keys each object of an ncconfig/1 file may hold: the ``properties`` of
# that object in schemas/ncconfig.schema.json, which admits no others.
_CONFIG_KEYS = {"schema", "components", "surfaces", "triple", "h2_total", "lattice_is_full", "notes"}
_COMPONENT_KEYS = {"name", "euler", "h2_rank", "class_labels", "ample", "boundary", "chern_numbers"}
_SURFACE_KEYS = {
    "name", "gram", "basis_labels", "canonical", "tau_class", "euler", "restrictions", "boundary_self"
}
_TRIPLE_KEYS = {"euler", "connected"}


def _refuse_unknown_keys(obj: dict[str, Any], keys: set[str], where: str) -> None:
    unknown = sorted(obj.keys() - keys)
    if unknown:
        raise SchemaError(f"{where}: unknown key {unknown[0]!r}")


def config_from_dict(data: dict[str, Any]) -> NCConfiguration:
    if not isinstance(data, dict):
        raise SchemaError("configuration must be a JSON object")
    if data.get("schema") != SCHEMA_ID:
        raise SchemaError(f"unsupported schema {data.get('schema')!r}, expected {SCHEMA_ID!r}")
    _refuse_unknown_keys(data, _CONFIG_KEYS, "configuration")

    raw_comps = _require(data, "components", "configuration")
    raw_surfs = _require(data, "surfaces", "configuration")
    for key, raw in (("components", raw_comps), ("surfaces", raw_surfs)):
        if not (
            isinstance(raw, list) and len(raw) == 3 and all(isinstance(x, dict) for x in raw)
        ):
            raise SchemaError(f"{key} must be a list of exactly three objects")

    names: list[str] = []
    for c in raw_comps:
        n = _require(c, "name", "component")
        if not isinstance(n, str):
            raise SchemaError("component name must be a string")
        names.append(n)

    component_fields: list[dict[str, Any]] = []
    for i, c in enumerate(raw_comps):
        where = f"component {names[i]}"
        _refuse_unknown_keys(c, _COMPONENT_KEYS, where)
        rank = _intval(_require(c, "h2_rank", where), where + ".h2_rank")
        labels = _require(c, "class_labels", where)
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise SchemaError(f"{where}: class_labels must be a list of strings")
        # The default is sized from the labels: a rank that disagrees with
        # them is a schema error, not an allocation of that size.
        ample = (
            _intvec(c["ample"], where + ".ample") if "ample" in c else (1,) * len(labels)
        )
        boundary = None
        if "boundary" in c:
            raw_b = c["boundary"]
            if not isinstance(raw_b, dict):
                raise SchemaError(f"{where}: boundary must map component names to vectors")
            adjacent = [names[o] for o in OTHER_COMPONENTS[i]]
            try:
                boundary = tuple(_intvec(raw_b[name], where + ".boundary") for name in adjacent)
            except KeyError as exc:
                raise SchemaError(f"{where}: boundary missing entry for {exc.args[0]!r}")
            # The schema types every entry, also one of no adjacent component.
            for key, value in raw_b.items():
                if key not in adjacent:
                    _intlist(value, where + ".boundary")
        chern = None
        if "chern_numbers" in c:
            cn = _intvec(c["chern_numbers"], where + ".chern_numbers")
            if len(cn) != 3:
                raise SchemaError(f"{where}: chern_numbers must have three entries")
            chern = (cn[0], cn[1], cn[2])
        component_fields.append(
            dict(
                name=names[i],
                euler=_intval(_require(c, "euler", where), where + ".euler"),
                h2_rank=rank,
                class_labels=tuple(labels),
                ample=ample,
                boundary=boundary,
                chern_numbers=chern,
            )
        )

    surface_fields: list[dict[str, Any]] = []
    for i, s in enumerate(raw_surfs):
        sname = _require(s, "name", "surface")
        if not isinstance(sname, str):
            raise SchemaError("surface name must be a string")
        where = f"surface {sname}"
        _refuse_unknown_keys(s, _SURFACE_KEYS, where)
        gram, exceptional = _gram(_require(s, "gram", where), where + ".gram")
        rank = len(gram) + exceptional
        labels_raw = s.get("basis_labels", [])
        if not (isinstance(labels_raw, list) and all(isinstance(x, str) for x in labels_raw)):
            raise SchemaError(f"{where}: basis_labels must be a list of strings")
        try:
            lattice = IntersectionLattice(
                rank=rank,
                gram=gram,
                basis_labels=tuple(labels_raw) if labels_raw else default_labels(rank),
                exceptional=exceptional,
            )
        except Exception as exc:
            raise SchemaError(f"{where}: invalid lattice: {exc}")
        raw_restr = _require(s, "restrictions", where)
        if not isinstance(raw_restr, dict):
            raise SchemaError(f"{where}: restrictions must map component names to matrices")
        j, k = SURFACE_ADJACENCY[i]
        try:
            restrictions = (
                _intmat(raw_restr[names[j]], where + ".restrictions"),
                _intmat(raw_restr[names[k]], where + ".restrictions"),
            )
        except KeyError as exc:
            raise SchemaError(
                f"{where}: restrictions must include adjacent component {exc.args[0]!r}"
            )
        for key, value in raw_restr.items():
            if key not in (names[j], names[k]):
                _intmat(value, where + ".restrictions")
        raw_bs = _require(s, "boundary_self", where)
        if not isinstance(raw_bs, list) or len(raw_bs) != 2:
            raise SchemaError(f"{where}: boundary_self must be a pair of vectors")
        surface_fields.append(
            dict(
                name=sname,
                lattice=lattice,
                canonical=_intvec(_require(s, "canonical", where), where + ".canonical"),
                tau_class=_intvec(_require(s, "tau_class", where), where + ".tau_class"),
                euler=_intval(_require(s, "euler", where), where + ".euler"),
                restrictions=restrictions,
                boundary_self=(
                    _intvec(raw_bs[0], where + ".boundary_self"),
                    _intvec(raw_bs[1], where + ".boundary_self"),
                ),
            )
        )

    raw_triple = _require(data, "triple", "configuration")
    if not isinstance(raw_triple, dict):
        raise SchemaError("triple must be a JSON object")
    _refuse_unknown_keys(raw_triple, _TRIPLE_KEYS, "triple")
    connected = _require(raw_triple, "connected", "triple")
    if not isinstance(connected, bool):
        raise SchemaError("triple.connected must be a boolean")
    triple_euler = _intval(_require(raw_triple, "euler", "triple"), "triple.euler")

    h2_total = None
    if "h2_total" in data:
        h2_total = _intval(data["h2_total"], "h2_total")
        if h2_total < 0:
            raise SchemaError("h2_total must be non-negative")
    lattice_is_full = data.get("lattice_is_full", False)
    if not isinstance(lattice_is_full, bool):
        raise SchemaError("lattice_is_full must be a boolean")
    notes = data.get("notes", [])
    if not isinstance(notes, list) or not all(isinstance(x, str) for x in notes):
        raise SchemaError("notes must be a list of strings")

    # Every record invariant a file breaks is a schema error.
    try:
        return NCConfiguration(
            components=tuple(ComponentGeometry(**f) for f in component_fields),
            surfaces=tuple(SurfaceGeometry(**f) for f in surface_fields),
            triple=TripleCurve(euler=triple_euler, connected=connected),
            h2_total=h2_total,
            lattice_is_full=lattice_is_full,
            provenance_notes=tuple(notes),
        )
    except ConfigError as exc:
        raise SchemaError(str(exc))


def config_to_json(config: NCConfiguration) -> str:
    """``dumps(config_to_dict(config))``, byte for byte, without the dense lists."""
    return dumps(_document(config, _DenseText))


def config_from_json(text: str) -> NCConfiguration:
    """``config_from_dict(json.loads(text))``: the same configuration or the same ``SchemaError``."""
    try:
        data = _loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: JSONDecodeError, or an integer literal past Python's
        # digit limit; RecursionError: nesting past the parser's limit
        raise SchemaError(f"invalid JSON: {exc}")
    return config_from_dict(data)


_GRAM_KEY = '"gram": ['
_RESTRICTIONS_KEY = '"restrictions": {'

# A tail of fewer cells is decoded as plain JSON.  With one token per tail,
# the search, the hook and the folded copy cost about what folding 450-500
# cells saves (best of 30 reads of each blown-up catalog export, folded and
# plain).  A catalog blow-up's tail has at most 600 cells, and folding those
# saves 9-26 us of about 300, so catalog files stay plain JSON.  In the
# writer's layout a cell of a surface Gram takes 13 characters, so a shorter
# text holds no tail worth folding, and it is not searched for runs either.
_FOLD_MIN_CELLS = 2048
_FOLD_MIN_CHARS = 13 * _FOLD_MIN_CELLS


def _loads(text: str) -> Any:
    """``json.loads(text)``, with each verified -I tail and run of copied rows left unread.

    Each verified tail of a surface Gram, and each run of copies of a
    restriction row, becomes one number token in a folded copy of the text,
    and the ``parse_float`` hook of ``json.loads`` turns the token into its
    ``_MinusIdentityTail`` or ``_RowCopies``, where those rows were.  On any
    doubt this is plain ``json.loads(text)``, which also raises every error
    with its own message: when nothing is folded, when the folded text fails
    to decode, when a token is not decoded exactly once, or when a marker is
    not where ``config_from_dict`` reads it: a tail closing the Gram of a
    surface, or copies in the restrictions of a surface.
    """
    import json

    folded, markers = _fold_repeats(text)
    if markers:
        decoded = 0

        def decode(token: str) -> Any:
            nonlocal decoded
            marker = markers.get(token)
            if marker is None:
                return float(token)
            decoded += 1
            return marker

        try:
            data = json.loads(folded, parse_float=decode)
        except (ValueError, RecursionError):
            pass
        else:
            # Each token is decoded once; a second time, it was in the text too.
            if decoded == len(markers) == _placed_markers(data):
                return data
    return json.loads(text)


def _placed_markers(data: Any) -> int:
    """How many markers ``data`` holds where ``config_from_dict`` reads them:
    a ``_MinusIdentityTail`` closing a surface Gram, and each ``_RowCopies``
    in a matrix of a surface's restrictions."""
    surfaces = data.get("surfaces") if isinstance(data, dict) else None
    placed = 0
    for s in surfaces if isinstance(surfaces, list) else ():
        if isinstance(s, dict):
            g, restrictions = s.get("gram"), s.get("restrictions")
            placed += isinstance(g, list) and bool(g) and type(g[-1]) is _MinusIdentityTail
            if isinstance(restrictions, dict):
                matrices = filter(lambda m: isinstance(m, list), restrictions.values())
                placed += sum(list(map(type, m)).count(_RowCopies) for m in matrices)
    return placed


def _fold_repeats(text: str) -> tuple[str, dict[str, _MinusIdentityTail | _RowCopies]]:
    """``text`` with each verified -I tail of a surface Gram, and each run of
    copies of a restriction row, replaced by a number token.

    Each fold becomes a comma and its token: a tail's is followed by the
    Gram's own closing line, and a run's follows its first row.  No token is
    inside a JSON string: the line before it holds a Gram's first row or a
    row with no quote, and a string cannot hold a raw newline.  Returns the
    folded text and, for each token, its marker; with nothing worth
    folding, ``text`` and ``{}``.

    Both keys hold an "r", which is found with memchr; a longer needle
    crawls through the spaces of the indentation.  The next key is sought
    where the last one's rows stopped being read, so no part of the text is
    read for two keys and the work stays linear in its length.
    """
    if not isinstance(text, str) or len(text) < _FOLD_MIN_CHARS:
        return text, {}
    folds: list[tuple[int, int, _MinusIdentityTail | _RowCopies]] = []
    at = text.find("r")
    while at >= 0:
        end = at + 1
        if text.startswith(_GRAM_KEY, at - 2):
            start, end, n, p = _verified_tail(text, at - 2)
            if p < n:
                folds.append((start, end, _MinusIdentityTail((n, p))))
        elif text.startswith(_RESTRICTIONS_KEY, at - 1):
            end = _row_runs(text, at - 1, folds)
        at = text.find("r", end)
    markers: dict[str, _MinusIdentityTail | _RowCopies] = {}
    if not folds:
        return text, markers
    pieces: list[str] = []
    done = 0
    for start, end, marker in folds:
        token = f"{len(markers)}.0"
        markers[token] = marker
        pieces += (text[done:start], ",", token)
        done = end
    pieces.append(text[done:])
    return "".join(pieces), markers


# A key's indentation is sought this far back; the writer indents the keys
# of a surface 6 spaces.
_MAX_INDENT = 64


def _key_indent(text: str, key: int) -> str | None:
    """The line break and spaces before the key that starts at ``key``, or
    None when the line holds more before it or is more than ``_MAX_INDENT`` deep."""
    line = text.rfind("\n", max(0, key - _MAX_INDENT), key)
    indent = text[line:key]
    if line < 0 or indent[1:].strip(" "):
        return None
    return indent


def _row_runs(text: str, key: int, folds: list[tuple[int, int, Any]]) -> int:
    """Append to ``folds`` the copies of each row of the restriction matrices
    whose object's key starts at ``key``; return where reading stopped.

    The object ends at its first "}".  A row of one of its matrices is the
    text from a "[" that opens a line two levels below the key to the next
    "]".  When the text after a row repeats ``"," + line + row`` (and the
    row holds no quote and no second "[", so it is one whole JSON value),
    its copies are counted by comparing a block of them that doubles while
    it matches and then halves, a block never longer than the copies read,
    and ``(start, end, _RowCopies(count))`` is appended.  Any other text in
    the object is passed over.
    """
    brace = key + len(_RESTRICTIONS_KEY) - 1
    indent = _key_indent(text, key)
    if indent is None:
        return brace + 1
    close = text.find("}", brace)
    if close < 0:
        return len(text)
    line = indent + "    "
    at = text.find("[", brace, close)
    while at >= 0:
        if not text.startswith(line, at - len(line)):
            at = text.find("[", at + 1, close)
            continue
        end = text.find("]", at, close) + 1
        if not end:
            break
        row = text[at:end]
        unit = "," + line + row
        if text.startswith(unit, end) and '"' not in row and row.find("[", 1) < 0:
            start = end
            end += len(unit)
            block = unit
            while text.startswith(block, end):
                end += len(block)
                block = text[start:end]
            # ``block`` holds every copy read, more than are left: halve it.
            copies = size = (end - start) // len(unit)
            while size > 1:
                size //= 2
                block = block[: size * len(unit)]
                if text.startswith(block, end):
                    end += len(block)
                    copies += size
            folds.append((start, end, _RowCopies(copies)))
        at = text.find("[", end, close)
    return close


def _verified_tail(text: str, key: int) -> tuple[int, int, int, int]:
    """The writer's -I rows at the end of the Gram whose key starts at ``key``.

    Returns ``(start, end, n, p)``: the text from ``start`` to ``end`` is
    exactly the pieces of ``_minus_identity_pieces`` for rows p to n - 1 of
    an n x n Gram, each row after its comma, and the Gram's closing line
    follows it.  The tail is taken to start at the first row after row 0
    whose opening and ``-1`` cell fit an -I row.  When the text differs
    from there on, or the tail has fewer than ``_FOLD_MIN_CELLS`` cells, no
    row is verified: ``p == n``, and the text was read up to ``end``.  A key
    before ``end`` lies inside this Gram's rows, so it starts no Gram of the
    writer's layout.
    """
    row = key + len(_GRAM_KEY) - 1  # the Gram's "[", which leads its first row
    indent = _key_indent(text, key)
    if indent is None:
        return row, row + 1, 0, 0
    inner = indent + "  "
    cell = inner + "  "
    lead = "," + inner
    head = lead + "[" + cell
    width = len(cell) + 2  # a cell after its separator: "," + cell + "0"
    if not text.startswith(inner + "[", row + 1):
        return row, row + 1, 0, 0
    close = text.find("]", row + 1)
    if close < 0:
        # No row of this Gram or of any later one is closed.
        return row, len(text), 0, 0
    n = text.count(",", row, close) + 1
    if (n - 1) * n < _FOLD_MIN_CELLS:
        return close, close, n, n
    # Row p starts at ``row``; rows before the tail are skipped one "]" at a time.
    for p in range(1, n):
        row = close + 1
        if not text.startswith(lead + "[", row):
            return row, row, n, n
        if text.startswith(head, row) and text.startswith("-1", row + len(head) + p * width):
            # Each tail row is ``head``, "-1" and n - 1 cells of ``width``,
            # and ``inner + "]"``: a text too short for the tail is not compared.
            size = (n - p) * (len(head) + 2 + (n - 1) * width + len(inner) + 1)
            if (n - p) * n < _FOLD_MIN_CELLS or row + size > len(text):
                return row, row, n, n
            # The tail's text grows as n squared: it is compared one piece at
            # a time, and a piece is cut only once the text before it matched.
            end = row
            for piece in _minus_identity_pieces(lead, inner, n, p):
                if not text.startswith(piece, end):
                    return row, row, n, n
                end += len(piece)
            if text.startswith(indent + "]", end):
                return row, end, n, p
            return row, row, n, n
        close = text.find("]", row)
        if close < 0:
            return row, len(text), n, n
    return close, close, n, n
