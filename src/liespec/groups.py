"""Bi-invariant spectra of compact semisimple groups.

A group is described by its simply-connected simple factors, a finite list
of central elements cutting out K = K-tilde / Gamma, and per-factor metric
scales t_i (the metric is t_i times the negative Killing form on factor i).
Central elements are rational coweights in simple-coroot coordinates, so a
weight in fundamental coordinates pairs with one by a plain dot product.
``GroupSpec`` holds Gamma once in integers, d the lcm of its denominators
and each z_i * d: a pairing is integral exactly when its integer dot
product is 0 mod d, for the roots and for the fold.

Eigenvalues are sum_i c_i(lambda_i)/t_i with multiplicity prod_i dim_i^2,
over the classes whose pairing with each z in Gamma, a sum over the
factors, is an integer.  So the spectrum is one fold over the factors in
integers, over {Gamma-class: {eigenvalue numerator: multiplicity}}, the
numerators over the one scale of ``spectrum._common_scale``.  Each
factor's weights within its budget c_i <= cutoff * t_i make its part,
{class (pairings with Gamma mod d): [(numerator, summed dim^2)] sorted
ascending}; with no Gamma every weight is in the zero class.  Each pair of
a running class and a part's class is added once, and each running
numerator v meets the part's numerators u in ascending order, adding
v + u and multiplying multiplicities.  Every summand is >= 0, so the
first u past the cutoff's numerator minus v ends that row, exactly: a
partial sum above the cutoff is never formed.
"""

from math import lcm
from operator import mul

from .errors import CertificationError, DomainError
from .frozen import Frozen
from .rational import fmt, instance, rat, rat_cutoff, required, sequence
from .rootdata import RootSystemData, build, casimir, check_root_system
from .spectrum import SpectrumTable, _common_scale, table_from_counts
from .weights import _dominant_casimirs


class GroupSpec(Frozen):
    """Compact group K-tilde/Gamma with a bi-invariant metric.

    gamma holds central elements, one rational coweight vector per factor;
    scales holds the per-factor Killing multiples t_i > 0; factors, a
    sequence of ``RootSystemData``, is kept as a tuple (else InputError).
    """

    _fields = ("factors", "gamma", "scales")

    def __init__(self, factors, gamma=(), scales=None):
        factors = sequence(factors, "factors are a sequence")
        factors = tuple(map(check_root_system, factors))
        if not factors:
            raise DomainError("GroupSpec needs at least one simple factor")
        if scales is None:
            scales = (1,) * len(factors)
        scales = tuple(map(rat, sequence(scales, "scales are a sequence")))
        gamma = tuple(tuple(
            tuple(map(rat, sequence(part, "a coweight is a sequence")))
            for part in sequence(z, "a central element is a sequence")
        ) for z in sequence(gamma, "gamma is a sequence"))
        if len(scales) != len(factors):
            raise DomainError("one scale per factor required")
        if any(t <= 0 for t in scales):
            raise DomainError("metric scales must be positive")
        for z in gamma:
            if len(z) != len(factors):
                raise DomainError("central element needs one part per factor")
            if any(len(part) != f.rank for f, part in zip(factors, z)):
                raise DomainError("coweight length != factor rank")
        d = lcm(*(x.denominator for z in gamma for part in z for x in part))
        zs = tuple(tuple(tuple(
            x.numerator * (d // x.denominator) for x in part
        ) for part in z) for z in gamma)
        # _gamma is (d, each z_i * d) (module docstring); not a field, so
        # repr and JSON ignore it
        self.__dict__.update(
            factors=factors, scales=scales, gamma=gamma, _gamma=(d, zs)
        )
        # Ad(z) = id forces integral pairing with every root.
        for z in zs:
            for f, part in zip(factors, z):
                if any(sum(map(mul, r, part)) % d for r in f.pos_roots_fund):
                    raise DomainError(
                        "gamma element pairs non-integrally with a root"
                    )

    def to_json_dict(self) -> dict:
        return {
            "factors": [f.name for f in self.factors],
            "scales": [fmt(t) for t in self.scales],
            "gamma": [
                [[fmt(x) for x in part] for part in z] for z in self.gamma
            ],
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "GroupSpec":
        factors = sequence(required(obj, "factors"), "factors are a sequence")
        return GroupSpec(
            factors=tuple(map(build, factors)),
            gamma=obj.get("gamma", ()),
            scales=obj.get("scales"),
        )


def biinvariant_spectrum(gs: GroupSpec, cutoff) -> SpectrumTable:
    """Truncated Laplace spectrum of the bi-invariant metric on K, folded
    over the factors in integers (module docstring)."""
    instance(gs, GroupSpec, "a group")
    cutoff = rat_cutoff(cutoff)
    den = lcm(*(f.casimir_den for f in gs.factors))
    weights, scale, limit = _common_scale(gs.scales, den, cutoff)
    d, zs = gs._gamma
    zero = (0,) * len(zs)
    counts = {zero: {0: 1}}
    for i, (f, t, w) in enumerate(zip(gs.factors, gs.scales, weights)):
        w *= den // f.casimir_den
        coweights = [z[i] for z in zs]
        merged = {}
        for lam, num, dim in _dominant_casimirs(f, cutoff * t):
            # with no Gamma every weight is in the zero class
            cls = (
                tuple([sum(map(mul, lam, z)) % d for z in coweights])
                if zs else zero
            )
            row = merged.setdefault(cls, {})
            u = num * w
            row[u] = row.get(u, 0) + dim * dim
        part = {cls: sorted(row.items()) for cls, row in merged.items()}
        step = {}
        for cls, sums in counts.items():
            for c, rows in part.items():
                key = tuple((a + b) % d for a, b in zip(cls, c))
                into = step.setdefault(key, {})
                for v, m in sums.items():
                    # rows ascend, so the first u past the room ends the row
                    room = limit - v
                    for u, n in rows:
                        if u > room:
                            break
                        into[v + u] = into.get(v + u, 0) + m * n
        counts = step
    return table_from_counts(counts[zero], scale, "raw", cutoff)


def factor_lambda1(rs: RootSystemData, scale):
    """Smallest nonzero bi-invariant eigenvalue of one simple factor and a
    witnessing highest weight.  Casimir grows in each dominant coordinate,
    so the minimum over nonzero dominants sits at a fundamental weight."""
    check_root_system(rs)
    scale = rat(scale)
    if scale <= 0:
        raise DomainError("metric scale must be positive")
    best = None
    for k in range(rs.rank):
        w = tuple(1 if i == k else 0 for i in range(rs.rank))
        val = casimir(rs, w) / scale
        if best is None or val < best[0]:
            best = (val, w)
    table = biinvariant_spectrum(
        GroupSpec(factors=(rs,), scales=(scale,)), best[0]
    )
    if table.lambda1() != best[0]:
        raise CertificationError("lambda1 is not at a fundamental weight")
    return best

