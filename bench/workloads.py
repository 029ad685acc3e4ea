"""Inputs, operations and output checks of the three benchmark workloads.

Every input is built through nc3's public API.  The stress families are
``catalog.Family`` values assembled here from the public dataclasses; they
are numerical stress tests, not geometry, and their rows are checked against
an integer oracle that does not use nc3.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

from nc3 import catalog, cli, construction, invariants, ncconfig

STRESS_DEGREES = (9, 15, 21)
TABLE_HEADER = ["family", "partition", "h11", "h12", "euler", "star"]


@dataclass
class Row:
    """One (family, partition) row and the (euler, h11, h12) it must give."""

    label: str
    family: catalog.Family
    spec: catalog.PartitionSpec
    expected: tuple[int, int, int]


@dataclass
class ConfigItem:
    """A row's blown-up, d-semistable configuration and hodge's numbers for it."""

    row: Row
    config_tilde: ncconfig.NCConfiguration
    reference: dict[str, int]

    @property
    def label(self) -> str:
        return self.row.label


@dataclass
class RoundtripResult:
    text: str
    check: tuple[int, str, str]
    invariants: tuple[int, str, str]


def stress_family(degree: int) -> catalog.Family:
    """Rank-one family with all three cuts (d/3,), Gram [[2]], e(Yi)=e(Dj)=4."""
    k = degree // 3
    return catalog.Family(
        id=f"stress-d{degree}",
        description=f"synthetic rank-one stress family of degree {degree}",
        rank=1,
        labels=("h",),
        ample=(1,),
        total_degree=(degree,),
        gamma=2 * k * degree,
        gamma_per_unit=2 * k,
        h2=1,
        tau_euler=0,
        components=tuple(
            catalog.FamilyComponent(name=f"Y{i + 1}", euler=4, cut=(k,)) for i in range(3)
        ),
        surfaces_opposite=tuple(
            catalog.FamilySurface(gram=((2,),), euler=4) for _ in range(3)
        ),
    )


def stress_oracle(degree: int, spec: catalog.PartitionSpec) -> tuple[int, int, int]:
    """(euler, h11, h12) of a stress row from integer formulas alone.

    For cut (k,) and parts a_l: each center has Euler number -(2a^2 - 2ka)
    on each of the three surfaces, gamma = 6k^2 and h2 = 1.
    """
    k = degree // 3
    centers = 3 * sum(-(2 * a * a - 2 * k * a) for (a,) in spec.parts)
    euler = 3 * 4 - 6 * 4 + centers - 12 * k * k
    h11 = 2 * spec.alpha - 1
    return euler, h11, h11 - euler // 2


def catalog_rows(rng: random.Random) -> list[Row]:
    """The 63 reference rows of the shipped families, in a seeded order."""
    rows = [
        Row(
            label=f"{fam_id}:{ref.partition.cli_form()}",
            family=catalog.get_family(fam_id),
            spec=ref.partition,
            expected=(2 * (ref.h11 - ref.h12), ref.h11, ref.h12),
        )
        for fam_id in catalog.family_ids()
        for ref in catalog.expected_table(fam_id)
    ]
    rng.shuffle(rows)
    return rows


def stress_rows(rng: random.Random) -> list[Row]:
    """One seeded partition per alpha of each stress degree.

    Drawing one row from every alpha stratum keeps the mix of matrix sizes
    the same for every seed, and always includes the all-ones row.
    """
    rows = []
    for degree in STRESS_DEGREES:
        fam = stress_family(degree)
        by_alpha: dict[int, list[catalog.PartitionSpec]] = {}
        for spec in catalog.enumerate_partitions(fam):
            by_alpha.setdefault(spec.alpha, []).append(spec)
        for alpha in sorted(by_alpha):
            spec = rng.choice(by_alpha[alpha])
            rows.append(
                Row(
                    label=f"{fam.id}:{spec.cli_form()}",
                    family=fam,
                    spec=spec,
                    expected=stress_oracle(degree, spec),
                )
            )
    return rows


def roundtrip_rows(rng: random.Random) -> list[Row]:
    """Catalog rows plus the degree-15 and -21 stress rows with alpha 1, d/3, 2d/3 and d.

    Every one of the eight stress configurations is larger than every
    catalog one.  So ``row_ms_p50`` falls among the catalog configurations
    and ``row_ms_p90`` among the smaller stress ones, not on the seam
    between the two groups or on the largest catalog configuration alone.
    """
    catalog_part = catalog_rows(rng)
    stress_part = []
    for r in stress_rows(rng):
        d = r.family.total_degree[0]
        if d != STRESS_DEGREES[0] and r.spec.alpha in (1, d // 3, 2 * d // 3, d):
            stress_part.append(r)
    return catalog_part + stress_part


ROWS = {"catalog": catalog_rows, "stress": stress_rows, "roundtrip": roundtrip_rows}


def compute(row: Row) -> invariants.SmoothingInvariants:
    """The catalog and stress operation: instantiate, then hodge."""
    config, divisor = catalog.instantiate(row.family, row.spec)
    return invariants.hodge(config, divisor)


def hodge_ok(row: Row, inv: invariants.SmoothingInvariants) -> bool:
    return (inv.euler, inv.h11, inv.h12) == row.expected


def numbers(payload: dict) -> dict[str, int]:
    """The numeric invariants of an ``invariants`` payload, without the methods."""
    return {k: v for k, v in payload.items() if k != "methods"}


def config_item(row: Row) -> tuple[ConfigItem, bool]:
    """Blow a row up; also say whether hodge gave the row's expected numbers."""
    config, divisor = catalog.instantiate(row.family, row.spec)
    inv = invariants.hodge(config, divisor)
    config_tilde, _ = construction.sequential_blowup(config, divisor)
    return ConfigItem(row, config_tilde, numbers(inv.as_dict())), hodge_ok(row, inv)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``nc3 <argv>`` in process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def roundtrip(item: ConfigItem, path: Path) -> RoundtripResult:
    """The roundtrip operation: export to ``path``, then ``check`` and ``invariants`` on it."""
    text = ncconfig.config_to_json(item.config_tilde)
    path.write_text(text, encoding="utf-8")
    check = run_cli(["check", "--config", str(path)])
    inv = run_cli(["invariants", "--config", str(path), "--format", "json"])
    return RoundtripResult(text=text, check=check, invariants=inv)


def roundtrip_ok(item: ConfigItem, res: RoundtripResult) -> bool:
    code_c, out_c, _ = res.check
    code_i, out_i, _ = res.invariants
    if code_c != 0 or code_i != 0:
        return False
    check = json.loads(out_c)
    if check["d_semistable"] is not True:
        return False
    if any(d["severity"] == "error" for d in check["diagnostics"]):
        return False
    return numbers(json.loads(out_i)["invariants"]) == item.reference


def reexport_ok(item: ConfigItem) -> bool:
    """Parsing an export and exporting again gives the same text."""
    text = ncconfig.config_to_json(item.config_tilde)
    return ncconfig.config_to_json(ncconfig.config_from_json(text)) == text


def verify_ok(code: int, stdout: str) -> bool:
    lines = stdout.strip().splitlines()
    return code == 0 and bool(lines) and lines[-1] == "63/63 rows match"


def table_ok(code: int, stdout: str) -> bool:
    """``table --family p2xp2 --format csv`` gives the reference rows."""
    expected = {
        r.partition.cli_form(): (r.h11, r.h12, r.star) for r in catalog.expected_table("p2xp2")
    }
    header, *body = list(csv.reader(io.StringIO(stdout)))
    got = {}
    for fam, partition, h11, h12, euler, star in body:
        if fam != "p2xp2" or int(euler) != 2 * (int(h11) - int(h12)):
            return False
        got[partition] = (int(h11), int(h12), star == "*")
    return code == 0 and header == TABLE_HEADER and got == expected
