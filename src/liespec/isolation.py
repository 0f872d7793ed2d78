"""Finite-cutoff isolation and finiteness experiments.

Four instruments: the low-eigenvalue invariant vector that classifies
bi-invariant metrics (per-factor first eigenvalues for groups; the dual
quadratic form sampled on standard basis vectors and their pairwise sums
for tori), a grid scan that hunts for isospectral neighbors of a naturally
reductive metric, the scale-window quantity C/(lambda^n vol^2), and a
constructive search that reconstructs all torus candidates whose invariants
are drawn from a given finite value set.

Everything compares exact rational tables; "isospectral at cutoff" means
equality of truncated tables with zero tolerance; a table's integer form
is canonical, so that is equality of integers.  The grid scan builds one
metric-independent term catalogue, at a Casimir budget that covers every
grid point, and evaluates the whole grid on integers:
``spectrum._common_scale`` puts every grid scale over one common scale,
rows that lie above the cutoff at the grid's floor are dropped once, each
prefix of axes is summed once, and a point's row of numerators, cut at the
cutoff, is compared with the center's counts by ``spectrum._distance``,
the count behind ``table_distance``, with no metric, dict, Fraction or
table made per point.
"""

from fractions import Fraction
from itertools import combinations, compress, product
from operator import add, getitem, mul

from .errors import DomainError, InputError, UnsupportedDimensionError
from .frozen import Value
from .groups import GroupSpec, factor_lambda1
from .lattices import Lattice, congruent, dual, systole
from .natred import NatRedMetric, _metric_budget, term_catalogue
from .rational import (
    _exact_rows, exact_int, fmt, instance, rat, rat_cutoff, sequence
)
from .spectrum import _common_scale, _counts, _distance


class GammaVector(Value):
    """Low-eigenvalue invariants with the identification marking fixed.

    kind "group": one first-eigenvalue per simple factor (dim = r).
    kind "torus": dual form on basis vectors then pairwise sums
    (dim = m, entries length m + C(m,2)), in four-pi-squared units.
    """

    _fields = ("kind", "dim", "entries")

    def __init__(self, kind, dim, entries):
        self.__dict__.update(kind=kind, dim=dim, entries=entries)
        if kind not in ("group", "torus"):
            raise DomainError("kind must be 'group' or 'torus'")
        # exact types only, as in a Lattice: a bool or a float names no
        # invariant, and a list can change after these checks
        if type(dim) is not int:
            raise InputError(f"invariant dimension must be an int: {dim!r}")
        if type(entries) is not tuple:
            raise InputError("invariant entries must be a tuple")
        _exact_rows((entries,))
        expect = dim if kind == "group" else dim + dim * (dim - 1) // 2
        if len(entries) != expect:
            raise DomainError("invariant vector has wrong length")
        if any(x <= 0 for x in entries):
            raise DomainError("invariants must be positive")


def gamma_invariants(subject) -> GammaVector:
    """Invariant vector of a GroupSpec or of a torus given by its Lattice.

    Group entries are per-factor first nonzero eigenvalues at that factor's
    scale, computed on the simply connected factor (the marking fixes the
    cover).  Torus entries are b_j = Q*(delta_j) and c_jk = Q*(delta_j +
    delta_k) for the dual quadratic form Q* in the standard coordinates.
    """
    instance(subject, (GroupSpec, Lattice), "a subject")
    if isinstance(subject, GroupSpec):
        vals = tuple(
            factor_lambda1(f, t)[0]
            for f, t in zip(subject.factors, subject.scales)
        )
        return GammaVector(
            kind="group", dim=len(subject.factors), entries=vals
        )
    d, s = subject._dual_gram
    m = subject.dim
    b = [Fraction(d[j][j], s) for j in range(m)]
    c = [
        Fraction(d[j][j] + 2 * d[j][k] + d[k][k], s)
        for j, k in combinations(range(m), 2)
    ]
    return GammaVector(kind="torus", dim=m, entries=tuple(b) + tuple(c))


def _grid_multipliers(radius: Fraction, steps: int):
    if steps == 1:
        return (Fraction(1),)
    lo = 1 - radius
    return tuple(
        lo + Fraction(2 * k, steps - 1) * radius for k in range(steps)
    )


def isolation_scan(
    m: NatRedMetric, radius, steps: int, cutoff
) -> dict:
    """Compare the metric's truncated spectrum against a multiplicative grid.

    The grid runs over base and fiber scales independently; the center, any
    point with a fiber scale colliding with its base scale, and any point
    defining the same metric as the center (vacuous base directions when
    the subgroup fills the group) are skipped and counted.  Remaining
    points are compared exactly; the report lists isospectral neighbors
    (expected none) and the minimum table distance seen.  A grid of radius
    0 is the center alone, so it takes exactly one step.

    No point builds a metric, a table, a dict or a Fraction.  One term
    catalogue covers the grid, and over the one common scale of every grid
    scale a point is a row of integer numerators: the per-axis products,
    made once per axis and grid step, are summed once for each prefix of
    axes in ``product`` order, so only the last axis is added per point.
    The skip tests compare the integer weights of ``_common_scale``, one q
    over each scale, so equal weights are equal scales.  The rows at or
    below the cutoff go to ``spectrum._distance`` against the center's
    counts, which ``spectrum._counts`` makes once: it is the count behind
    ``table_distance``, and a distance of 0 is exactly an isospectral
    neighbor.  Fractions are formatted only for the points the report
    lists.
    """
    instance(m, NatRedMetric, "a metric")
    radius = rat(radius)
    if not 0 <= radius < 1:
        raise DomainError("radius must lie in [0, 1)")
    steps = exact_int(steps)
    if steps < 1:
        raise DomainError("steps must be at least 1")
    if radius == 0 and steps > 1:
        # every grid point would be the center, counted nowhere
        raise DomainError("a grid of radius 0 has exactly 1 step")
    cutoff = rat_cutoff(cutoff)
    multipliers = _grid_multipliers(radius, steps)
    center_scales = (m.base_scale,) + m.fiber_scales
    fiber_fills_group = (
        sum(f.dim_g for f in m.emb.factors) == m.group.dim_g
    )
    # every grid scale is at most (1 + radius) times a center scale, so the
    # center's budget at that much larger a cutoff covers every point
    budget = _metric_budget(m, cutoff * (1 + radius))
    den, rows = term_catalogue(m.emb, budget)
    # per axis, the scale at each grid step and, last, the center's
    axes = [tuple(u * s for u in multipliers) + (s,) for s in center_scales]
    flat, _, limit = _common_scale(
        [s for axis in axes for s in axis], den, cutoff
    )
    n = len(multipliers) + 1
    weights = [flat[k : k + n] for k in range(0, len(flat), n)]
    # every entry of a row is nonnegative (horizontal positivity), so a row
    # above the limit at each axis's least weight is above it everywhere
    floor = list(map(min, weights))
    kept = [(g, c) for g, c in rows if sum(map(mul, g, floor)) <= limit]
    mults = [c for _, c in kept]
    grid = [
        [[g[k] * w for g, _ in kept] for w in axis]
        for k, axis in enumerate(weights)
    ]
    # the center's column, last on each axis, is counted once and taken off
    center_counts = _counts([axis.pop() for axis in grid], mults, limit)
    # a weight is q / s for one q, so equal weights are equal scales
    center_base, *center_fibers = (axis[-1] for axis in weights)

    neighbors = []
    skipped_inadmissible = []
    skipped_equivalent = 0
    compared = 0
    min_distance = None
    for combo, row in _sums(grid):
        base, *fibers = map(getitem, weights, combo)
        if base == center_base and fibers == center_fibers:
            continue
        if base in fibers:
            skipped_inadmissible.append(_point(axes, combo))
            continue
        if fiber_fills_group and fibers == center_fibers:
            skipped_equivalent += 1
            continue
        inside = [v <= limit for v in row]
        d = _distance(
            list(compress(row, inside)),
            list(compress(mults, inside)),
            center_counts,
        )
        compared += 1
        if d == 0:
            neighbors.append(_point(axes, combo))
        elif min_distance is None or d < min_distance:
            min_distance = d
    return {
        "center": m.to_json_dict(),
        "grid": {
            "radius": fmt(radius),
            "steps": steps,
            "axes": len(center_scales),
            "points": len(multipliers) ** len(center_scales),
            "compared": compared,
            "skipped_inadmissible": skipped_inadmissible,
            "skipped_equivalent": skipped_equivalent,
        },
        "cutoff": fmt(cutoff),
        "isospectral_neighbors": neighbors,
        "min_table_distance": min_distance,
    }


def _sums(axes, prefix=None, head=()):
    """(steps, row) for each point of a grid whose ``axes`` are lists of
    per-step integer columns, in ``product`` order: the row sums the
    point's columns, and each prefix of axes is summed once, for all the
    points under it, so only the last axis is added per point."""
    for i, column in enumerate(axes[0]):
        row = column if prefix is None else list(map(add, prefix, column))
        if len(axes) == 1:
            yield head + (i,), row
        else:
            yield from _sums(axes[1:], row, head + (i,))


def _point(axes, combo) -> dict:
    """The report's entry for the grid point at steps ``combo``."""
    base, *fibers = map(getitem, axes, combo)
    return {"t": fmt(base), "t_i": [fmt(x) for x in fibers]}


def finiteness_window(lam, vol, n: int, const) -> Fraction:
    """Scale window C / (lambda^n vol^2)."""
    lam, vol, const = rat(lam), rat(vol), rat(const)
    n = exact_int(n)
    if lam <= 0 or vol <= 0 or const <= 0:
        raise DomainError("window inputs must be positive")
    if n < 1:
        raise DomainError("dimension must be positive")
    return const / (lam**n * vol**2)


def torus_search(values, n: int, lam_min, vol_min) -> list:
    """Reconstruct all n-tori whose invariant entries lie in a finite set.

    Every assignment of diagonal values b_j and pair values c_jk from the
    set determines one symmetric candidate for the dual Gram matrix via
    q_jj = b_j, q_jk = (c_jk - b_j - b_k)/2.  Positive-definite candidates
    are filtered by first eigenvalue >= lam_min (the dual systole) and
    volume >= vol_min (det q <= 1/vol_min^2), deduped up to congruence
    (iff their tori are), and the kept ones inverted to torus Gram matrices.
    """
    n = exact_int(n)
    if n < 1:
        raise DomainError("dimension must be positive")
    if n > 4:
        raise UnsupportedDimensionError(
            "torus search is guaranteed finite only up to dimension 4"
        )
    lam_min, vol_min = rat(lam_min), rat(vol_min)
    if lam_min <= 0 or vol_min <= 0:
        raise DomainError("lower bounds must be positive")
    values = sequence(values, "values is a sequence of rationals")
    vals = sorted(set(map(rat, values)))
    if not vals:
        return []
    pairs = list(combinations(range(n), 2))
    kept = []
    for diag in product(vals, repeat=n):
        for off in product(vals, repeat=len(pairs)):
            q = [[Fraction(0)] * n for _ in range(n)]
            for j in range(n):
                q[j][j] = diag[j]
            for (j, k), c in zip(pairs, off):
                q[j][k] = q[k][j] = (c - diag[j] - diag[k]) / 2
            try:
                # the entries are Fractions already: no second coercion
                dual_torus = Lattice(gram=q)
            except DomainError:  # not positive definite
                continue
            if dual_torus.det_gram * vol_min**2 > 1:
                continue
            if systole(dual_torus) < lam_min:
                continue
            if any(congruent(dual_torus, seen) for seen in kept):
                continue
            kept.append(dual_torus)
    return [dual(d) for d in kept]
