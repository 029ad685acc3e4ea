"""Byte-identity guard: SHA-256 digests of CLI payloads, pinned.

The digests of ``catalog export``, ``table`` and ``check`` were taken from
the output of the stdlib encoder (``json.dumps(payload, indent=2,
sort_keys=True)``) before nc3 had its own writer; those of ``invariants
--family`` before that route stopped blowing up a second time for its
trace; those of ``invariants --config`` while the CLI still assembled the
file route's invariants itself; that of the blow-up traces' ``repr``
while every trace still built its steps and labels with the blow-up.  Any
change to a payload's bytes (layout, key order, escaping, a number) changes
its digest.  A deliberate format change must update the
digests in the same change and say so.
"""

import copy
import hashlib
import itertools
import json

import pytest

from nc3 import catalog, construction, ncconfig
from nc3._record import replace
from nc3.cli import main
from tests.conftest import all_catalog_cases, d21_all_ones_row

# (family id, digest of `catalog export --family <id>`,
#  digest of `table --family <id> --format json`)
FAMILY_DIGESTS = [
    ("cubic4fold-111", "1c907745f70db3994d6fd9c663a4c6ba242b944e896b89e4eb7c417f982c5135", "11381602531001818b70aedb48c4d880b01a574ee63e9cb0daad7e23789be3fa"),
    ("gr25-section", "072e79f29864f6548f0b8bbd7ce0dd60c98384d1d12f3b2e27b81b56284f8e52", "010c7333e2bb4a5024dae1d1185a670852962d840ea7cd4c4fdc6c066cd5a348"),
    ("p2xp2", "a45140232fcafb9890585771d44b3d1c60976e90e465dfbeefcea3c4f30647ec", "c0683668a027eaae3d8d2fd970e60d0fa365f85ce1b3010c9950c827ae78640e"),
    ("quadric4fold-112", "f4d57d19f569d6e0528f8980be09b1d11cfcca69d5330d1859db3df2520cae6d", "94b0652d91872ebca2bcaf2062975831435e885793d9a040dbbffdbaa5de3ab9"),
    ("quintic", "e0e0961d3160d10c8fbb7808a461903697652bff4bbda14c60df17c523248563", "15a2b9ae149a47da622e8f37d3b831d04b2df3306a34c9d32eaedaec90b5a444"),
    ("three-p3-quadric", "cbb18352b8664fef8c1ceaeb1c8a00dfbe6cc726fb257fcc1410c0bdd99ee44d", "cce560238845293f4c250ef124c19e0d155841b975c98477a451a1c91792c7b1"),
    ("two-quadrics-p6", "2ddf78c31f449f2e993b34ade96e33daa7a379904d8f5d67ccb0289c28218605", "a2f0eb272275a29a2e916a30e0bc6cac177b7a0c2e2a7fe700415a2cc221c4c2"),
]

QUINTIC_5_AFTER_BLOWUP = "7abfb60ab2799f2a494d4b996fed7d3fe22dca4636be77ab06223474349fd72a"

# `invariants --family ...`: the route that blows up, runs hodge and prints
# the trace.
INVARIANTS_DIGESTS = [
    (
        ("--family", "quintic", "--partition", "1,4", "--order", "4,1", "--trace", "--format", "json"),
        "aef03fcd694cb60452a3c63134c262e6e8be7ac3866ba1c8ed5d1317c43c8721",
    ),
    (
        ("--family", "quintic", "--partition", "1,4", "--order", "4,1", "--trace", "--format", "text"),
        "1d690c9a69d45d9645d693084ccf607a7d16076c321e636a1cd9b79bce118e2b",
    ),
    (
        ("--family", "p2xp2", "--partition", "(1,0),(2,3)", "--format", "json"),
        "da38d346d181aa962a2ac0211f452ca6beaff235b13d0d4373ff614c110e49c0",
    ),
]

# `invariants --config blown_up.json`: the blown-up quintic (1,4) exported,
# with lattice_is_full as exported (h11 from the kernel) and cleared (h11
# from h2_total).  The file's SHA-256 is part of the payload.
CONFIG_DIGESTS = [
    (True, "json", "8fa80a36d91b0eec66682fc05555c047576122d4a40b2c1123b60cb47ec86ee2"),
    (True, "text", "e62bd2fa6e2b24a6e536cdac80b9ce4ac170426a7578c1fc97292c10c553f798"),
    (False, "json", "b704979906806e2e51fcf0ed37f0ce2cdb69d2be0a4ff2acc2d5857df407643c"),
    (False, "text", "69c7cb3302fb5138c99debc84b7c1ccf911ff37b1ef69b9a17fa0a6c44570c6d"),
]

# The degree-21 all-ones blow-up: gamma 294, a 295x295 D3 Gram on disk.
# Digests of its `config_to_json` text, and of `check --config` and
# `invariants --config --format json` on that file, taken while the blown-up
# D3 lattice was still held dense in memory.
D21_EXPORT = "1ff8be52d0b4509512e736f31263faa1c27b6b0669e15086cda3f363a0f76643"
D21_CONFIG_DIGESTS = [
    (("check",), "9d54bfb6cb979ada0bd91a31cf004d81505da98757118986ba12c8d156925281"),
    (("invariants", "--format", "json"), "f493a8bd9d621ccaebb1f10b9c646e8668fece18bd3e3848bc63039cbe656606"),
]

# `config_to_json` of blown-up rows no digest above covers: a rank-two
# partition whose curves meet the triple curve in 3, 3 and 12 points, a
# rank-one partition with a repeated part, and a row whose components sit in
# another order (family component 3 in slot 1).
BLOWUP_EXPORT_DIGESTS = [
    ("p2xp2", ((0, 1), (1, 0), (2, 2)), None, "6dba53861e37da4ff428886a35ca0845411f5ebaedb6dbe7d5961c5c97e951b2"),
    ("quintic", ((1,), (1,), (3,)), None, "447909d01d4455d9ce23b73471d7a671b23cb437217872eebfa71e3e6dd0ae4a"),
    ("p2xp2", ((1, 0), (2, 3)), (2, 0, 1), "d0fac7e576c9499298f7e1bab174e431b2b45a3eea8116a17c849f4a3478013a"),
]

# `repr` of the blow-up trace of every catalog row in every component order,
# one per line, rows in catalog order and orders in permutation order.
TRACE_REPRS_DIGEST = "e9ff3c572e117b720963639852fe735e70cdabdc44ae106b0c9933b85eedcff6"


def stdout_digest(capsys, *argv):
    assert main(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("fam_id,export_digest,table_digest", FAMILY_DIGESTS)
def test_family_payload_bytes(capsys, fam_id, export_digest, table_digest):
    assert stdout_digest(capsys, "catalog", "export", "--family", fam_id) == export_digest
    assert stdout_digest(capsys, "table", "--family", fam_id, "--format", "json") == table_digest


def test_check_after_blowup_payload_bytes(capsys):
    argv = ("check", "--family", "quintic", "--partition", "5", "--after-blowup")
    assert stdout_digest(capsys, *argv) == QUINTIC_5_AFTER_BLOWUP


@pytest.mark.parametrize("argv,digest", INVARIANTS_DIGESTS, ids=["quintic-trace-json", "quintic-trace-text", "p2xp2-json"])
def test_invariants_family_payload_bytes(capsys, argv, digest):
    assert stdout_digest(capsys, "invariants", *argv) == digest


@pytest.mark.parametrize(
    "lattice_is_full,fmt,digest",
    CONFIG_DIGESTS,
    ids=["kernel-json", "kernel-text", "closed-form-json", "closed-form-text"],
)
def test_invariants_config_payload_bytes(capsys, monkeypatch, tmp_path, lattice_is_full, fmt, digest):
    config, divisor = catalog.instantiate("quintic", catalog.PartitionSpec(parts=((1,), (4,))))
    config_tilde, _ = construction.sequential_blowup(config, divisor)
    config_tilde = replace(config_tilde, lattice_is_full=lattice_is_full)
    # a relative name keeps source.path the same wherever the test runs
    monkeypatch.chdir(tmp_path)
    (tmp_path / "blown_up.json").write_text(ncconfig.config_to_json(config_tilde), encoding="utf-8")
    assert stdout_digest(capsys, "invariants", "--config", "blown_up.json", "--format", fmt) == digest


def test_degree_21_blowup_payload_bytes(capsys, monkeypatch, tmp_path):
    """The dense rows written from the block-form D3 lattice, and what reads them."""
    config_tilde, _ = construction.sequential_blowup(*d21_all_ones_row())
    text = ncconfig.config_to_json(config_tilde)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == D21_EXPORT
    monkeypatch.chdir(tmp_path)
    (tmp_path / "blown_up.json").write_text(text, encoding="utf-8")
    for (command, *options), digest in D21_CONFIG_DIGESTS:
        assert stdout_digest(capsys, command, "--config", "blown_up.json", *options) == digest, command


@pytest.mark.parametrize(
    "fam_id,parts,order,digest",
    BLOWUP_EXPORT_DIGESTS,
    ids=["p2xp2-01-10-22", "quintic-1-1-3", "p2xp2-10-23-order-201"],
)
def test_blowup_export_bytes(fam_id, parts, order, digest):
    config, divisor = catalog.instantiate(
        fam_id, catalog.PartitionSpec(parts=parts), component_order=order
    )
    config_tilde, _ = construction.sequential_blowup(config, divisor)
    text = ncconfig.config_to_json(config_tilde)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


# Refusals.  Each mutation of the blown-up quintic (1,4) export below makes
# `validate` report one kind of finding (``several`` reports several, across
# surfaces and clauses, to pin their order).  The digests cover stdout,
# stderr and the exit code of `check --config` and `invariants --config`.
def _set(obj, **values):
    obj.update(values)


def _several(data):
    _set(data["triple"], connected=False)
    _set(data["surfaces"][0], canonical=[-3])
    _set(data["surfaces"][1], canonical=[-2])


REFUSAL_MUTATIONS = {
    "disconnected-triple-curve": lambda d: _set(d["triple"], connected=False),
    "odd-triple-euler": lambda d: _set(d["triple"], euler=1),
    "ample-mismatch": lambda d: _set(d["components"][0], ample=[2, 0, 0, 0, 0]),
    "canonical-not-minus-tau": lambda d: _set(d["surfaces"][0], canonical=[-3]),
    "parity": lambda d: _set(d["surfaces"][0], canonical=[-2]),
    "h2-total-error": lambda d: _set(d, h2_total=6),
    "h2-total-note": lambda d: _set(d, lattice_is_full=False),
    "coherence-self-class": lambda d: _set(d["surfaces"][0], boundary_self=[[-1], [1]]),
    "coherence-triple-class": lambda d: _set(d["surfaces"][1], tau_class=[2], canonical=[-2]),
    "several": _several,
    # One of the twelve equal D3 rows over the degree-4 curve, made distinct.
    "repeated-d3-row": lambda d: d["surfaces"][2]["restrictions"]["Y2"].__setitem__(6, [0, 1, 1]),
}

REFUSAL_DIGESTS = {
    "disconnected-triple-curve": (
        "e675c5ea3b1d51187851a4880a3f4d5ec47e831e15f10b568ccaf7e76d10ab82",
        "463c6b55b08abe135562a03b3a4c8de59455be93fa34c3d4245483c24594cb76",
    ),
    "odd-triple-euler": (
        "e255075129d52a45e82e59b81c1e187927ddb47683e7fc7a9d6744be1106957a",
        "f4c3ce14295ea47aca13da56895a15b24d0781110f2d03445b8964a8d6d09e9a",
    ),
    "ample-mismatch": (
        "d2993f66b7fca9ddd291884b13ec6b445c745454a8236794544453f388f162d5",
        "2b5967138885b33b7f4a57253711c72e8dd2896e8a980ea8e7ae891220dd3c29",
    ),
    "canonical-not-minus-tau": (
        "5210b957ef2959acb1edd022161b03ba611f1a5318fe0a6e49b0f47d8f77ec37",
        "7203de69201c89e93a3f68a6e36f16d9c564bd1a12e5893bfa9ac3c5955956f9",
    ),
    "parity": (
        "f279d5922a2b840c37f925012a2f0e8a366ffc8bd1e23ec990d71d4a84074880",
        "36d4309bce998636dda9793c68281e594500dd0b82f97e2f26a479daad6da98e",
    ),
    "h2-total-error": (
        "f762e710151696048acb19592e9f99691925d1abb53a59d9694a1d68b6de222d",
        "09420cc27df79759c452c287e704ac71a75bdeb15d678aba195032aa76075aba",
    ),
    "h2-total-note": (
        "d9eb0f5d1d66ee1c3538a706fc72ced07abe9d62186d10d7230cfdc28db14075",
        "1711d7eb5c3303a95ccdde5830d66d8d8411642850df8ffb9ab8a6ab4e01afc0",
    ),
    "coherence-self-class": (
        "7c4c715d7788cf66ba47c73967ef4af66b5f17b0493e4b72e73fa220c8ac53c6",
        "165a428801164650dcaf4991a27ad8064c91960c97d5df9cccaa59f19f4ccdc5",
    ),
    "coherence-triple-class": (
        "f3c629f64ac3afa0a74d699195df41ef90bda0ef319e714e0266e5ddee5d3d48",
        "742e089718c7acbf767c5a45df16f1be6f32933491d8cead08cc4edbda894cd5",
    ),
    "several": (
        "f12d52597ea58dbc88410215a62d0a6d5967873831f82a6c93cf2197719d97cc",
        "928310ba96cd9a770c27a46fa3ebd4967fa85a5409e367a6e0331314c3463798",
    ),
    "repeated-d3-row": (
        "c959200df63fc96a50f50877a9b7003a2d7a759d7c2d2300410d343b2e1ba65d",
        "b75f9971e02b71eb115bf595a6a38e867a2b162c3b605baf16c45124c5019fad",
    ),
}


def refusal_digest(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    text = f"{code}\0{captured.out}\0{captured.err}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def quintic_1_4_blown_up_dict():
    config, divisor = catalog.instantiate("quintic", catalog.PartitionSpec(parts=((1,), (4,))))
    return ncconfig.config_to_dict(construction.sequential_blowup(config, divisor)[0])


@pytest.mark.parametrize("name", list(REFUSAL_MUTATIONS))
def test_validation_refusal_bytes(capsys, monkeypatch, tmp_path, quintic_1_4_blown_up_dict, name):
    data = copy.deepcopy(quintic_1_4_blown_up_dict)
    REFUSAL_MUTATIONS[name](data)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "broken.json").write_text(json.dumps(data), encoding="utf-8")
    digests = tuple(
        refusal_digest(capsys, command, "--config", "broken.json", "--format", "json")
        if command == "invariants"
        else refusal_digest(capsys, command, "--config", "broken.json")
        for command in ("check", "invariants")
    )
    assert digests == REFUSAL_DIGESTS[name]


def test_collective_divisor_findings():
    """CD(a)-(d) on one divisor, and CD(shape) on another."""
    raw, _ = catalog.instantiate("quintic", catalog.PartitionSpec(parts=((5,),)))
    # A canonical class of the wrong parity on D1 makes its curves fail (d).
    d1 = replace(raw.surfaces[0], canonical=(-2,))
    config = replace(raw, surfaces=(d1, *raw.surfaces[1:]))
    divisor = construction.CollectiveDivisor(
        alpha=2,
        components=(((1,), (3,)), ((2,), (3,)), ((2,), (3,))),
        tau_multiplicities=(6, 9),
        g_witness_present=False,
    )
    assert [d.as_dict() for d in construction.check_collective_divisor(config, divisor)] == [
        {
            "clause": "CD(a)",
            "severity": "error",
            "target": "D1",
            "message": "curve classes on D1 sum to (4,), but the collective normal class there is (5,)",
        },
        {
            "clause": "CD(b)",
            "severity": "error",
            "target": "D1",
            "message": "curve 1 on D1 meets the triple curve in 3 points, declared multiplicity is 6",
        },
        {
            "clause": "CD(c)",
            "severity": "warning",
            "target": "divisor",
            "message": "no projectivity witnesses attested; the blown-up variety may not be projective",
        },
        {
            "clause": "CD(d)",
            "severity": "error",
            "target": "D1",
            "message": "curve 1 on D1 has odd adjunction sum -3; no smooth curve carries this class",
        },
        {
            "clause": "CD(d)",
            "severity": "error",
            "target": "D1",
            "message": "curve 2 on D1 has odd adjunction sum 9; no smooth curve carries this class",
        },
    ]
    divisor = construction.CollectiveDivisor(
        alpha=1, components=(((5,),), ((5, 0),), ((5,),)), tau_multiplicities=(15,)
    )
    assert [d.as_dict() for d in construction.check_collective_divisor(raw, divisor)] == [
        {
            "clause": "CD(shape)",
            "severity": "error",
            "target": "D2",
            "message": "curve classes on D2 must have length 1",
        },
    ]


UNKNOWN_FAMILY_LINE = json.dumps(
    {
        "error": "unknown family 'nope'; known: cubic4fold-111, gr25-section, p2xp2, "
        "quadric4fold-112, quintic, three-p3-quadric, two-quadrics-p6"
    }
)


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--family", "nope"),
        ("verify", "--family", "nope"),
        ("catalog", "export", "--family", "nope"),
        ("check", "--family", "nope"),
        ("invariants", "--family", "nope", "--partition", "5"),
    ],
    ids=["table", "verify", "catalog-export", "check", "invariants"],
)
def test_unknown_family_refusal(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", UNKNOWN_FAMILY_LINE + "\n")


def test_trace_reprs_bytes():
    digest = hashlib.sha256()
    for fam_id, spec in all_catalog_cases():
        for order in itertools.permutations(range(3)):
            _, trace = construction.sequential_blowup(*catalog.instantiate(fam_id, spec, order))
            digest.update(f"{trace!r}\n".encode("utf-8"))
    assert digest.hexdigest() == TRACE_REPRS_DIGEST
