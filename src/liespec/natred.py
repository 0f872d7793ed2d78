"""Spectra of semisimply naturally reductive metrics on a simple group.

The metric is a submersion metric for G -> G/K: a base scale t multiplying
the negative ambient Killing form on the horizontal space, and per-factor
fiber scales t_i multiplying its restriction to the simple ideals of the
subalgebra.  Fiber scales equal to the base scale are excluded; all fibers
smaller than the base is the riemannian-fibers mode, anything larger makes
the associated canonical-variation metric semi-riemannian.

Eigenvalues are indexed by pairs (sigma, tau): a dominant weight of G and a
per-factor dominant tuple whose contragredient occurs in the restriction of
sigma.  The value is

    (1/t) * ( c(sigma) + sum_i (t/t_i - 1) * c_i(tau_i) / j_i )

with c Casimirs in each algebra's own Killing-dual units and j_i the Killing
ratio of the embedding, which converts factor Casimirs to ambient units
(the fiber metric scales the restricted ambient form, not the factor's own).
Multiplicities follow the two-sided Peter-Weyl block structure:
dim(sigma) * [sigma : tau-bar] * dim(tau).

Neither the pairs nor c(sigma) and f_i = c_i(tau_i)/j_i depend on the
metric, and the eigenvalue is linear in the reciprocal scales: with
g = (c(sigma) - sum_i f_i, f_1, ...) it is g_0/t + sum_i g_i/t_i.  So the
terms are built once, by ``term_catalogue`` for an embedding and a Casimir
budget, as plain data ``(den, rows)``: integer rows g over one common
denominator, each distinct row once with its summed multiplicity.
Casimirs are blind to -w0, so a row is read off the branch label itself;
only ``containment_check``, which names its tau, takes a contragredient,
and it finds its witness in the branchings of ``_branched``, as the
catalogue does.  A metric is then one ``linear_table`` pass over the
rows against its scales (t, t_1, ...), an integer dot product over one
common scale, and one Fraction per distinct eigenvalue.  The normal
metric t*(-B) on G/K is the same catalogue: its rows with every f_i = 0,
tau trivial, read at the one scale t.

Truncation is certified by horizontal positivity: the ambient Casimir
dominates the summed ambient-unit fiber Casimirs on every branch component,
that is g_0 >= 0, so every entry of g is nonnegative, every eigenvalue is
at least c(sigma) * min(1, t/max t_i) / t, and a metric's table needs only
the terms with c(sigma) <= cutoff * max(t, t_i).  The catalogue checks
g_0 >= 0 on each of its terms and raises CertificationError if it fails,
and every metric builds its catalogue at its own budget.  This makes every
truncated table complete in both modes.
"""

from fractions import Fraction
from math import lcm
from operator import mul

from .branching import EmbeddingSpec, _branched, _pack, killing_ratio
from .errors import CertificationError, DomainError, InadmissibleMetricError
from .frozen import Frozen
from .groups import factor_lambda1
from .rational import (
    exact_int, fmt, instance, rat, rat_cutoff, required, sequence
)
from .rootdata import RootSystemData, _contragredient, build, casimir_num
from .spectrum import SpectrumTable, linear_table


class NatRedMetric(Frozen):
    """Naturally reductive metric data (G simply connected, K semisimple):
    the ``EmbeddingSpec`` of K in G (else InputError), the base scale and
    one fiber scale per factor of K."""

    _fields = ("emb", "base_scale", "fiber_scales")

    def __init__(self, emb, base_scale, fiber_scales):
        instance(emb, EmbeddingSpec, "an embedding")
        fiber_scales = sequence(fiber_scales, "fiber scales are a sequence")
        self.__dict__.update(
            emb=emb,
            base_scale=rat(base_scale),
            fiber_scales=tuple(map(rat, fiber_scales)),
        )
        if len(self.fiber_scales) != len(emb.factors):
            raise DomainError("one fiber scale per subgroup factor required")
        if self.base_scale <= 0 or any(x <= 0 for x in self.fiber_scales):
            raise DomainError("metric scales must be positive")
        # equal base and fiber scale degenerates the canonical variation
        if any(x == self.base_scale for x in self.fiber_scales):
            raise InadmissibleMetricError(
                "fiber scale equal to base scale is excluded"
            )

    @property
    def group(self) -> RootSystemData:
        """G, the embedding's ambient."""
        return self.emb.ambient

    @property
    def mode(self) -> str:
        if all(x < self.base_scale for x in self.fiber_scales):
            return "riemannian-fibers"
        return "semi-riemannian"

    def to_json_dict(self) -> dict:
        return {
            "group": self.group.name,
            "embedding": self.emb.to_json_dict(),
            "t": fmt(self.base_scale),
            "t_i": [fmt(x) for x in self.fiber_scales],
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "NatRedMetric":
        """The embedding is a JSON object or a descriptor string, and its
        ambient must be the declared ``group``."""
        from .catalog import resolve

        emb = required(obj, "embedding")
        group = build(required(obj, "group"))
        emb = (
            EmbeddingSpec.from_json_dict(emb)
            if isinstance(emb, dict)
            else resolve(EmbeddingSpec, emb)
        )
        base_scale = required(obj, "t")
        if emb.ambient is not group:
            raise DomainError("embedding ambient type != metric group type")
        return NatRedMetric(emb, base_scale, obj.get("t_i", ()))


def beta_factors(m: NatRedMetric):
    """Per-factor beta_i = t_i*t/(t - t_i); negative on oversized fibers."""
    t = instance(m, NatRedMetric, "a metric").base_scale
    return tuple(x * t / (t - x) for x in m.fiber_scales)


def _metric_budget(m: NatRedMetric, cutoff: Fraction) -> Fraction:
    """Casimir budget of the metric's table at ``cutoff``.

    Every eigenvalue is at least c(sigma) * min(1, t/max t_i) / t, so no
    term with c(sigma) > cutoff * max(t, t_i) reaches the table.
    """
    return cutoff * max((m.base_scale,) + m.fiber_scales)


def term_catalogue(emb: EmbeddingSpec, budget) -> tuple:
    """(den, rows) over every (sigma, tau) term of ``emb`` with
    c(sigma) <= budget.

    Nothing here depends on a metric.  ``rows`` lists each distinct row
    g = (c(sigma) - sum_i f_i, f_1, ...) times ``den``, all nonnegative
    integers, f_i = c_i(tau_i)/j_i, once with its summed multiplicity, in
    the order of its first term: sigma in graded-lex order, then the
    branch labels.  Casimirs are blind to -w0, so each f_i is read off the
    branch label, with no contragredient taken.  Each weight comes with
    its Casimir, dimension and packed branching from ``_branched``, whose
    key order is the label order; each label's Casimir tail and dimension
    are made once.
    Horizontal positivity, g_0 >= 0, is checked on every term.
    """
    group, factors, types = emb.ambient, emb.factors, emb._k.types
    ratios = killing_ratio(emb)
    # a Casimir has denominator dividing casimir_den, and dividing by j_i
    # multiplies it by j_i's numerator: den makes every row integral
    den = lcm(
        group.casimir_den,
        *(f.casimir_den * j.numerator for f, j in zip(factors, ratios)),
    )
    # c_i(tau_i) / j_i * den is casimir_num(tau_i) * scales[i], an integer
    scales = [
        j.denominator * (den // (f.casimir_den * j.numerator))
        for f, j in zip(factors, ratios)
    ]
    labels = {}  # packed branch label -> (row tail, its sum, dim tau)
    rows = {}
    for lam, num, dim_lam, result in _branched(emb, budget):
        c_lam = num * (den // group.casimir_den)
        for key, mult in result.items():
            if key not in labels:
                tup, dim_tau = types[key]
                tail = tuple(map(mul, map(casimir_num, factors, tup), scales))
                labels[key] = tail, sum(tail), dim_tau
            tail, fiber, dim_tau = labels[key]
            # horizontal Laplacian positivity; certifies the budget
            if c_lam < fiber:
                raise CertificationError(
                    f"horizontal positivity fails at sigma={lam}, "
                    f"branch label {types[key][0]}"
                )
            row = (c_lam - fiber,) + tail
            rows[row] = rows.get(row, 0) + dim_lam * mult * dim_tau
    return den, tuple(rows.items())


def natred_spectrum(m: NatRedMetric, cutoff) -> SpectrumTable:
    """Truncated spectrum of the naturally reductive metric; always complete."""
    instance(m, NatRedMetric, "a metric")
    cutoff = rat_cutoff(cutoff)
    den, rows = term_catalogue(m.emb, _metric_budget(m, cutoff))
    return linear_table(
        rows, den, (m.base_scale,) + m.fiber_scales, cutoff
    )


def normal_quotient_spectrum(emb: EmbeddingSpec, t, cutoff) -> SpectrumTable:
    """Spectrum of the normal metric t*(-B) on G/K, G the ambient of
    ``emb``: eigenvalues c(sigma)/t with multiplicity dim(sigma) times the
    dimension of the K-fixed vectors, the catalogue's rows whose fiber tail
    is zero (tau trivial, as a Casimir is 0 only at weight 0), read at the
    one scale t."""
    instance(emb, EmbeddingSpec, "an embedding")
    t = rat(t)
    if t <= 0:
        raise DomainError("metric scale must be positive")
    cutoff = rat_cutoff(cutoff)
    den, rows = term_catalogue(emb, cutoff * t)
    # one scale, so linear_table reads g_0 alone
    fixed = [(g, mult) for g, mult in rows if not any(g[1:])]
    return linear_table(fixed, den, (t,), cutoff)


def containment_check(m: NatRedMetric, factor_index: int, cutoff) -> dict:
    """Witness one fiber-plus-base eigenvalue sum inside the full spectrum.

    Takes gamma = the smallest nonzero eigenvalue of the chosen factor at
    its beta factor (the fiber scale t_i shifted by the base scale t,
    t t_i/(t - t_i), which needs every fiber below the base), and looks for
    a class sigma whose restriction contains the contragredient of the
    gamma witness; then zeta + gamma must occur in the full table.
    """
    instance(m, NatRedMetric, "a metric")
    factor_index = exact_int(factor_index)
    cutoff = rat_cutoff(cutoff)
    factors = m.emb.factors
    if not factors:
        return {"status": "vacuous", "factor": factor_index}
    if not 0 <= factor_index < len(factors):
        raise DomainError("factor index out of range")
    if m.mode != "riemannian-fibers":
        raise InadmissibleMetricError(
            "base-scale shift needs every fiber scale below the base scale"
        )
    factor = factors[factor_index]
    j = killing_ratio(m.emb)[factor_index]
    beta = beta_factors(m)[factor_index]
    gamma, tau_p = factor_lambda1(factor, beta * j)
    if gamma > cutoff:
        return {
            "status": "inconclusive",
            "factor": factor_index,
            "gamma": gamma,
            "detail": "fiber eigenvalue already exceeds the cutoff",
        }

    tau = tuple(
        tau_p if i == factor_index else (0,) * f.rank
        for i, f in enumerate(factors)
    )
    # sigma's restriction holds the contragredient of the witness, whose
    # branch label is the per-factor contragredient of tau
    label = tuple(map(_contragredient, factors, tau))
    key = _pack(m.emb._k, sum(label, ()))
    budget = (cutoff - gamma) * m.base_scale
    witness = None
    for lam, num, _, result in _branched(m.emb, _metric_budget(m, cutoff)):
        c_lam = Fraction(num, m.group.casimir_den)
        if c_lam <= budget and result.get(key):
            zeta = c_lam / m.base_scale
            if witness is None or zeta < witness[0]:
                witness = (zeta, lam)
    if witness is None:
        return {
            "status": "inconclusive",
            "factor": factor_index,
            "gamma": gamma,
            "detail": "no restriction witness below the cutoff",
        }
    zeta, lam = witness
    value = zeta + gamma
    found = natred_spectrum(m, cutoff).multiplicity(value)
    return {
        "status": "witnessed" if found > 0 else "failed",
        "factor": factor_index,
        "sigma": lam,
        "tau": tau,
        "zeta": zeta,
        "gamma": gamma,
        "value": value,
        "multiplicity": found,
    }
