"""Singularity models on which the invariants are computed.

Three shapes: a monomial pair (affine space with coordinate-hyperplane
boundary), a Q-Gorenstein toric cone, and the affine cone over a
polarized toric Fano. All valuations are torus-equivariant weight
valuations, so every infimum in this package ranges over a
finite-dimensional rational parameter space; equivariant values are
upper bounds for the corresponding unrestricted infima and are flagged
as such in reports.
"""

import functools
import itertools
import math
from collections import namedtuple
from fractions import Fraction

from . import geometry, linalg
from .errors import ValidationError
from .rationals import format_rational, parse_int, parse_rational


class MonomialPair(namedtuple("MonomialPair", "n coeffs")):
    """Affine n-space with boundary sum(a_i H_i), coefficients in [0, 1).

    It has no __slots__: `integer_costs` is cached in the instance dict.
    """

    def __new__(cls, n, coeffs):
        if n < 1:
            raise ValidationError("invalid-dimension", "dimension must be positive")
        coeffs = tuple(parse_rational(a) for a in coeffs)
        if len(coeffs) != n:
            raise ValidationError("dimension-mismatch", "need one coefficient per coordinate hyperplane")
        if any(a < 0 or a >= 1 for a in coeffs):
            raise ValidationError("invalid-coefficient", "boundary coefficients must lie in [0, 1)")
        return super().__new__(cls, n, coeffs)

    @functools.cached_property
    def integer_costs(self):
        """(costs, scale): the log discrepancy costs 1 - a_i times their
        least common denominator `scale`, as integers."""
        scale = math.lcm(*(a.denominator for a in self.coeffs))
        return tuple(int((1 - a) * scale) for a in self.coeffs), scale

    def to_json(self):
        return {"type": "monomial_pair", "n": self.n, "coeffs": [format_rational(a) for a in self.coeffs]}


class ToricSingularity:
    """A Q-Gorenstein toric cone with its Gorenstein covector.

    The covector m pairs to one with every primitive ray; it exists and
    is unique exactly when the singularity is Q-Gorenstein.
    """

    __slots__ = ("cone", "m_covector", "_dual")

    def __init__(self, cone):
        if not isinstance(cone, geometry.Cone):
            cone = geometry.Cone(cone)
        if not (cone.is_full_dimensional and cone.is_pointed):
            raise ValidationError("invalid-cone", "toric singularities need a pointed full-dimensional cone")
        self.cone = cone
        m = linalg.solve_affine(cone.rays, [1] * len(cone.rays), cone.dim)
        if m is None or any(linalg.dot(m, r) != 1 for r in cone.rays):
            raise ValidationError("not-q-gorenstein", "no covector pairs to one with every ray")
        self.m_covector = m
        self._dual = cone.dual()

    @property
    def n(self):
        return self.cone.dim

    @property
    def dual_cone(self):
        return self._dual

    def is_interior(self, xi):
        return all(linalg.dot(u, xi) > 0 for u in self._dual.rays)

    def to_json(self):
        return {"type": "toric", "rays": [list(r) for r in self.cone.rays]}

    def __repr__(self):
        return f"ToricSingularity(rays={list(self.cone.rays)})"


class FanoConeInput(namedtuple("FanoConeInput", "polytope r")):
    """A polarized toric Fano base: lattice moment polytope (a
    geometry.ConvexBody, hulled when given as points) plus the Cartier
    index r of the polarization."""

    __slots__ = ()

    def __new__(cls, polytope, r=1):
        if r < 1:
            raise ValidationError("invalid-index", "polarization index r must be a positive integer")
        if not isinstance(polytope, geometry.ConvexBody):
            polytope = geometry.convex_hull(polytope)
        if not polytope.is_full_dimensional:
            raise ValidationError("degenerate-body", "moment polytope must be full-dimensional")
        for v in polytope.vertices:
            if any(x.denominator != 1 for x in v):
                raise ValidationError("invalid-polytope", "moment polytope must have lattice vertices")
        return super().__new__(cls, polytope, r)

    @property
    def base_dim(self):
        return self.polytope.dim

    def to_json(self):
        return {
            "type": "fano_cone",
            "polytope": [[int(x) for x in v] for v in self.polytope.vertices],
            "r": self.r,
        }


class WeightValuation(namedtuple("WeightValuation", "weights")):
    """A torus-equivariant valuation: positive weights on a monomial
    pair, or an interior lattice-tensor-Q point of the cone on a toric
    singularity."""

    __slots__ = ()

    def __new__(cls, weights):
        return super().__new__(cls, tuple(parse_rational(w) for w in weights))

    def scaled(self, factor):
        factor = parse_rational(factor)
        return WeightValuation(tuple(w * factor for w in self.weights))


def log_discrepancy(model, valuation):
    """Log discrepancy A(v); linear in the weights.

    Monomial pair: sum (1 - a_i) w_i. Toric: <m, xi> for the Gorenstein
    covector m.
    """
    w = valuation.weights
    if isinstance(model, MonomialPair):
        if len(w) != model.n:
            raise ValidationError("dimension-mismatch", "weight vector has wrong length")
        if any(x <= 0 for x in w):
            raise ValidationError("invalid-weight", "monomial valuations need strictly positive weights")
        return sum((1 - a) * wi for a, wi in zip(model.coeffs, w))
    if isinstance(model, ToricSingularity):
        if len(w) != model.n:
            raise ValidationError("dimension-mismatch", "weight vector has wrong length")
        if not model.is_interior(w):
            raise ValidationError("boundary-valuation", "weight vector must lie in the cone interior")
        return linalg.dot(model.m_covector, w)
    raise ValidationError("invalid-model", f"unsupported model {type(model).__name__}")


def valuation_volume(model, valuation):
    """Volume of the valuation.

    Monomial pair: 1 / prod(w_i). Toric: n! times the exact volume of
    the dual cone truncated at pairing one against the weight vector.
    """
    w = valuation.weights
    if isinstance(model, MonomialPair):
        if any(x <= 0 for x in w):
            raise ValidationError("invalid-weight", "monomial valuations need strictly positive weights")
        return 1 / math.prod(w)
    if isinstance(model, ToricSingularity):
        if not model.is_interior(w):
            raise ValidationError("infinite-volume", "volume is finite only for interior weight vectors")
        body = truncated_dual_body(model, w)
        return math.factorial(model.n) * body.volume()
    raise ValidationError("invalid-model", f"unsupported model {type(model).__name__}")


def truncated_dual_body(model, xi):
    """The dual cone cut at {u : <xi, u> <= 1}, hulled in ints: 0 and the
    points d / <xi, d> over the dual rays d, which for xi = x / s and L
    the lcm of the <x, d> are s d (L / <x, d>) / L. The hull runs its own
    double description and fan, so the exact upgrade of toric `hvol` holds
    its slice triangulation to an independent volume."""
    x, s = linalg._scaled(xi)
    rays = model.dual_cone.rays
    levels = [linalg.dot(x, d) for d in rays]
    top = math.lcm(*levels)
    points = [(0,) * model.n] + [tuple(s * (top // level) * y for y in d) for d, level in zip(rays, levels)]
    return geometry._int_body(points, top)


def normalized_volume_of_valuation(model, valuation):
    """A(v)^n vol(v), the quantity whose infimum is the normalized volume."""
    # log_discrepancy refuses an unsupported model before model.n is read
    return log_discrepancy(model, valuation) ** model.n * valuation_volume(model, valuation)


def cone_construction(fano):
    """Affine cone over the polarized base: the cone dual to
    Cone(polytope x {1}), with its Gorenstein covector verified.

    The cone is Q-Gorenstein exactly when some point of the polytope
    lies at equal lattice distance from all its facets, as on every Fano
    polytope. Other lattice polytopes are refused as `not-q-gorenstein`."""
    gens = []
    for v in fano.polytope.vertices:
        gens.append(tuple(int(x) for x in v) + (1,))
    return ToricSingularity(geometry.Cone(gens).dual())


def fano_degree_bound(fano):
    """(n-1)! vol(polytope) / r^n, the self-intersection bound for the
    cone vertex."""
    n = fano.base_dim + 1
    return math.factorial(n - 1) * fano.polytope.volume() / Fraction(fano.r) ** n


def anticanonical_polytope(fano):
    """Moment polytope of the anticanonical class, polytope / r: the
    model's own polytope when r is 1."""
    if fano.r == 1:
        return fano.polytope
    return geometry._int_body([tuple(int(x) for x in v) for v in fano.polytope.vertices], fano.r)


def toric_kss_oracle(polytope):
    """Barycenter criterion for toric K-semistability (boundary-free case).

    The input is the anticanonical moment polytope; the verdict is True
    exactly when its barycenter coincides with its unique interior
    lattice point, found by a scan of at most geometry.MAX_LATTICE_CELLS cells.
    """
    if not isinstance(polytope, geometry.ConvexBody):
        polytope = geometry.convex_hull(polytope)
    if not polytope.is_full_dimensional:
        raise ValidationError("degenerate-body", "anticanonical polytope must be full-dimensional")
    interior = []
    ranges = [range(lo, hi + 1) for lo, hi in geometry._dilated_bounds(polytope, 1)]
    geometry._check_cells(math.prod(len(r) for r in ranges), "an interior-point box")
    for u in itertools.product(*ranges):
        if polytope.contains(u, strict=True):
            interior.append(u)
    if len(interior) != 1:
        raise ValidationError(
            "not-anticanonical-polytope",
            f"expected exactly one interior lattice point, found {len(interior)}",
        )
    center = tuple(Fraction(x) for x in interior[0])
    return polytope.barycenter() == center


def load_model(data):
    """Instantiate a model from its JSON document (three shapes)."""
    try:
        kind = data["type"]
    except (KeyError, TypeError) as exc:
        raise ValidationError("invalid-model-json", "model document needs a 'type' field") from exc
    fields = {"monomial_pair": "coeffs", "toric": "rays", "fano_cone": "polytope"}
    field = fields.get(kind) if isinstance(kind, str) else None
    if field is None:
        raise ValidationError("invalid-model-json", f"unknown model type {kind!r}")
    value = data.get(field)
    rows = kind != "monomial_pair"
    if not isinstance(value, list) or (rows and not all(isinstance(v, list) for v in value)):
        shape = "a list of lists" if rows else "a list"
        raise ValidationError("invalid-model-json", f"{kind} model needs {shape} {field!r}")
    if kind == "monomial_pair":
        return MonomialPair(n=parse_int(data.get("n"), "n"), coeffs=tuple(value))
    if kind == "toric":
        # refused before the double description, whose cost grows steeply
        # with the dimension; no command takes such a cone
        if value:
            geometry._check_dim(len(value[0]))
        return ToricSingularity(geometry.Cone(value))
    vertices = [[parse_int(x, "polytope coordinate") for x in v] for v in value]
    return FanoConeInput(polytope=geometry.convex_hull(vertices), r=parse_int(data.get("r", 1), "r"))
