"""Topological invariants of the smoothed Calabi-Yau threefold.

Two independent routes are implemented for each of the two primary numbers
and must agree:

* Euler characteristic, either by the triple-point sum over the blown-up
  configuration,

      e(M) = sum e(Yi) - 2 sum e(Dj) + 3 e(tau),

  or by the closed form over the original configuration and the chosen
  collective divisor,

      e(M) = sum e(Yi) - 2 sum e(Dj) + 3 e(tau) + sum e(c_li) - 2 gamma;

* h^{1,1}, either as (kernel dimension of the blown-up restriction-difference
  matrix) - 2, or as the declared h2 plus 2*alpha - 2.

h^{1,2} is always derived from the threefold relation
h12 = h11 - e/2; there is no second route for it.

When the distinguished classes carry Chern pairings, the Picard-rank-one
classification numbers are also computed: the cube of the distinguished
class is the sum of the per-component cubes, and its pairing with c2 is the
sum of (c2.H - c1^2.H) over components.
"""

from __future__ import annotations

from . import construction, degeneration, ncconfig
from ._record import Record
# ``kernel_dimension`` stays a module attribute so that bench/tracing.py can
# wrap it; the rank itself is taken once per configuration, by
# ``NCConfiguration.kernel_dim``.
from .exactlat import Vec, kernel_dimension
from .ncconfig import MissingData, NCConfiguration


class NotDSemistable(Exception):
    """An operation that needs a d-semistable configuration was refused."""

    def __init__(self, residual: degeneration.NormalClassTriple):
        self.residual = residual
        super().__init__(
            f"configuration is not d-semistable; normal-class residual "
            f"{residual.as_lists()}"
        )


class PathDisagreement(Exception):
    """The two independent computation paths returned different values."""


class SmoothingInvariants(Record):
    """Invariants of the smoothing, with the method that produced each."""

    euler: int
    h11: int
    h12: int
    h_cubed: int | None = None
    h_dot_c2: int | None = None
    method_tags: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def __post_init__(self) -> None:
        if self.euler % 2 != 0:
            raise PathDisagreement(f"Euler number {self.euler} is odd")
        if self.euler != 2 * (self.h11 - self.h12):
            raise PathDisagreement(
                f"threefold Hodge relation violated: e={self.euler}, "
                f"h11={self.h11}, h12={self.h12}"
            )

    def as_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "euler": self.euler,
            "h11": self.h11,
            "h12": self.h12,
            "methods": {k: list(v) for k, v in self.method_tags},
        }
        if self.h_cubed is not None:
            out["h_cubed"] = self.h_cubed
        if self.h_dot_c2 is not None:
            out["h_dot_c2"] = self.h_dot_c2
        return out


def euler_smoothing(config: NCConfiguration) -> int:
    """Euler number of the smoothing by the triple-point sum.

    The formula presupposes that the configuration is the central fiber of a
    semistable family, so non-d-semistable input is refused (the exception
    carries the residual).
    """
    ok, residual = degeneration.is_d_semistable(config)
    if not ok:
        raise NotDSemistable(residual)
    return (
        sum(c.euler for c in config.components)
        - 2 * sum(s.euler for s in config.surfaces)
        + 3 * config.triple.euler
    )


def euler_closed(
    config: NCConfiguration,
    divisor: construction.CollectiveDivisor,
    trace: construction.BlowupTrace | None = None,
) -> int:
    """Euler number of the smoothing from the pre-blow-up data.

    Adds the centers' Euler numbers (adjunction on each surface) and
    subtracts twice the number of triple-curve points to the triple-point
    sum of the original configuration.  Given the trace of the blow-up along
    ``divisor``, which already refused an inadmissible divisor, the centers'
    Euler numbers are read from its steps; without it the divisor is checked
    here and the numbers computed.
    """
    if trace is None:
        diags = construction.check_collective_divisor(config, divisor)
        if ncconfig.has_errors(diags):
            raise construction.AdmissibilityError(diags)
        centers = sum(
            construction.center_euler(config, i, c)
            for i in range(3)
            for c in divisor.components[i]
        )
    else:
        centers = sum(step.euler for step in trace.steps)
    return (
        sum(c.euler for c in config.components)
        - 2 * sum(s.euler for s in config.surfaces)
        + 3 * config.triple.euler
        + centers
        - 2 * divisor.gamma
    )


def h11_closed(
    config: NCConfiguration, divisor: construction.CollectiveDivisor
) -> int:
    """h^{1,1} of the smoothing: declared h2 of the configuration + 2*alpha - 2."""
    h2 = config.h2_total
    if h2 is None:
        if not config.lattice_is_full:
            raise MissingData(
                "h2_total not declared and the tracked lattices are not certified "
                "complete; cannot compute h11 by the closed form"
            )
        h2 = config.kernel_dim
    return h2 + 2 * divisor.alpha - 2


def h11_kernel(config_tilde: NCConfiguration) -> int:
    """h^{1,1} of the smoothing from the blown-up configuration's kernel."""
    return config_tilde.kernel_dim - 2


def _smoothing(
    config: NCConfiguration,
    closed_h11: int | None,
    closed_euler: int | None = None,
) -> SmoothingInvariants:
    """Invariants of the smoothing of a d-semistable configuration.

    e is the triple-point sum and must equal ``closed_euler`` when that is
    given.  With complete lattices h^{1,1} is the kernel dimension minus 2 and
    must equal ``closed_h11`` when that is given; otherwise it is
    ``closed_h11``.  The closed forms and the pairings' route are tagged only
    when ``closed_euler`` is given.
    """
    if config.lattice_is_full:
        h11 = h11_kernel(config)
    e = euler_smoothing(config)
    if closed_euler is not None and closed_euler != e:
        raise PathDisagreement(
            f"Euler paths disagree: closed form {closed_euler}, triple-point sum {e}"
        )
    if not config.lattice_is_full:
        if closed_h11 is None:
            raise MissingData(
                "configuration declares neither complete lattices nor h2_total; "
                "cannot compute h11"
            )
        h11 = closed_h11
    elif closed_h11 is not None and closed_h11 != h11:
        raise PathDisagreement(
            f"h11 paths disagree: closed form {closed_h11}, kernel {h11}"
        )

    pairings = picard_one_pairings(config)
    closed = () if closed_euler is None else ("closed-form",)
    tags = [
        ("euler", closed + ("triple-point-sum",)),
        ("h11", closed + ("kernel",) if config.lattice_is_full else ("closed-form",)),
        ("h12", ("derived",)),
    ]
    if closed and pairings.h_cubed is not None:
        tags += [("h_cubed", ("component-sum",)), ("h_dot_c2", ("component-sum",))]
    return SmoothingInvariants(
        euler=e,
        h11=h11,
        h12=h11 - e // 2,
        h_cubed=pairings.h_cubed,
        h_dot_c2=pairings.h_dot_c2,
        method_tags=tuple(tags),
    )


def smoothing_invariants(config: NCConfiguration) -> SmoothingInvariants:
    """Invariants of the smoothing of a configuration that is already d-semistable.

    The configuration must first pass :func:`ncconfig.validate`; on any error
    :class:`ncconfig.InvalidConfiguration` carries its diagnostics.  e is the
    triple-point sum.  h^{1,1} is the kernel dimension minus 2 when the
    lattices are certified complete (validation has then matched it against
    a declared ``h2_total``), or ``h2_total`` - 2 otherwise.
    """
    diagnostics = ncconfig.validate(config)
    if ncconfig.has_errors(diagnostics):
        raise ncconfig.InvalidConfiguration(diagnostics)
    h2 = config.h2_total
    return _smoothing(config, None if h2 is None else h2 - 2)


def hodge(
    config: NCConfiguration,
    divisor: construction.CollectiveDivisor,
    blowup: tuple[NCConfiguration, construction.BlowupTrace] | None = None,
) -> SmoothingInvariants:
    """All Hodge-level invariants, cross-checked over both routes.

    Materializes the blown-up configuration and takes its invariants as
    :func:`smoothing_invariants` does, refusing to return unless the closed
    forms over the original configuration agree with them.  When the tracked
    lattices are not certified complete the kernel route is skipped and
    h^{1,1} is tagged "closed-form".  A caller that already holds
    ``construction.sequential_blowup(config, divisor)`` passes it as
    ``blowup`` so the blow-up is not done twice.
    """
    if blowup is None:
        blowup = construction.sequential_blowup(config, divisor)
    config_tilde, trace = blowup
    e_closed = euler_closed(config, divisor, trace)
    return _smoothing(config_tilde, h11_closed(config, divisor), e_closed)


class PicardPairings(Record):
    """Sums of the per-component Chern pairings of the distinguished class."""

    h_cubed: int | None
    h_dot_c2: int | None
    caveats: tuple[str, ...] = ()
    generator_certified: bool = False

    def as_dict(self) -> dict[str, object]:
        return {
            "h_cubed": self.h_cubed,
            "h_dot_c2": self.h_dot_c2,
            "caveats": list(self.caveats),
            "generator_certified": self.generator_certified,
        }


def _icbrt(n: int) -> int:
    """Floor of the cube root of a non-negative integer (Newton on ints)."""
    if n < 2:
        return n
    x = 1 << ((n.bit_length() + 2) // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def _is_perfect_cube(n: int) -> bool:
    a = abs(n)
    return _icbrt(a) ** 3 == a


def picard_one_pairings(config: NCConfiguration) -> PicardPairings:
    """Cube and c2-pairing of the distinguished class of the smoothing.

    Requires Chern pairings on all three components; if any are missing the
    fields are omitted rather than raising.  The sums are well-defined
    regardless of the Picard rank; caveats flag the cases where they are not
    the rank-one classification data.
    """
    if any(c.chern_numbers is None for c in config.components):
        return PicardPairings(h_cubed=None, h_dot_c2=None)
    h_cubed = sum(c.chern_numbers[0] for c in config.components)
    h_dot_c2 = sum(c.chern_numbers[1] - c.chern_numbers[2] for c in config.components)
    caveats = []
    ok, _ = degeneration.is_d_semistable(config)
    if not ok:
        caveats.append("not d-semistable: pairings describe no smoothing")
    if config.h2_total is not None and config.h2_total - 2 != 1:
        caveats.append("not a Picard-one situation")
    certified = ok and h_cubed > 0 and not _is_perfect_cube(h_cubed)
    return PicardPairings(
        h_cubed=h_cubed,
        h_dot_c2=h_dot_c2,
        caveats=tuple(caveats),
        generator_certified=certified,
    )


CubicTensor = tuple[tuple[tuple[int, ...], ...], ...]


def cubic_form_value(
    classes: tuple[Vec, Vec, Vec],
    tensors: tuple[CubicTensor, CubicTensor, CubicTensor],
) -> int:
    """Cup cube of a collective class: per-component tensor contraction.

    Mixed terms between components are zero by definition of the inherited
    product, so the value is the sum of the three diagonal contractions.
    """
    total = 0
    for v, t in zip(classes, tensors):
        n = len(v)
        if len(t) != n or any(len(p) != n for p in t) or any(
            len(row) != n for p in t for row in p
        ):
            raise MissingData(
                f"cubic tensor of shape incompatible with class length {n}"
            )
        for a in range(n):
            if v[a] == 0:
                continue
            for b in range(n):
                if v[b] == 0:
                    continue
                for c in range(n):
                    total += t[a][b][c] * v[a] * v[b] * v[c]
    return total
